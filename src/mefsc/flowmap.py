"""Stochastic ODE model interface and the flow-map machinery that turns a
state into germ functions (the state plus its successive time derivatives,
evaluated pointwise at quadrature nodes).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ModelSpec:
    """A stochastic ODE system with analytic time-derivative chains.

    ``rhs(t, nodes, state, *, out)`` maps an (n, Q) state sampled at the
    Q parameter nodes to its time derivative, also (n, Q).
    ``derivative_chain(t, nodes, state, order, *, out)`` supplies the
    higher derivatives, every level from 0 to ``order`` in one call,
    level-major. For a scalar-unknown system written in companion form
    (``companion=True``) level j is one row, the j-th time derivative of the
    highest-derivative component (level 0 coincides with the last row of
    ``rhs``), so the chain is (order+1, Q); for a general first-order system
    level j is the n rows of the j-th derivative of ``rhs`` itself, so the
    chain is ((order+1)*n, Q); each level has the bits it has as the last
    level of a shorter chain. Both write into ``out``, a required keyword
    (they allocate no result array of their own), which must not share
    memory with ``state``, and return it. Both must be pure: identical
    arguments give bit-identical results.

    ``initial_state(nodes)`` evaluates the initial condition at the nodes.
    ``max_enrichment`` caps how many derivative levels the chain supports.
    """

    name: str
    state_dim: int
    param_dim: int
    max_enrichment: int
    companion: bool
    component_names: tuple[str, ...]
    rhs: Callable[..., np.ndarray]
    derivative_chain: Callable[..., np.ndarray]
    initial_state: Callable[[np.ndarray], np.ndarray]


def check_truncation(model: ModelSpec, truncation: int) -> None:
    """Reject a germ count the model's derivative chain cannot supply."""
    n = model.state_dim
    if not n + 1 <= truncation <= n + model.max_enrichment:
        raise ValueError(
            f"truncation {truncation} for model {model.name!r} must be at least "
            f"{n + 1} (state dimension + 1) and at most {n + model.max_enrichment}"
        )


def fill_germs(model: ModelSpec, t: float, nodes, state, out: np.ndarray) -> None:
    """Write the germ rows for basis construction into ``out``.

    The rows are the state components, then their time derivatives at the
    current instant, derivative-major (for systems: all components of the
    first derivative, then all of the second, ...), cut at ``truncation``
    rows, from one chain call. When the cut falls inside a level, the chain
    writes whole levels into a scratch array and the leading rows are
    copied. For companion-form models each level contributes the single
    genuinely new scalar derivative. The constant germ is not included;
    basis construction prepends it.

    ``state`` is (n, N) at the N rows of ``nodes`` and ``out`` is
    (truncation, N). Models are pointwise in the nodes, so N may stack the
    nodes of several elements. The truncation is not validated here (see
    :func:`check_truncation`).
    """
    n = model.state_dim
    germs = out.shape[0] - n
    out[:n] = state
    if germs > 0:
        per_level = 1 if model.companion else n
        order = -(-germs // per_level) - 1
        if (order + 1) * per_level == germs:
            model.derivative_chain(t, nodes, state, order, out=out[n:])
        else:
            levels = np.empty(((order + 1) * per_level, out.shape[1]))
            model.derivative_chain(t, nodes, state, order, out=levels)
            out[n:] = levels[:germs]

