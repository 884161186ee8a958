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

    ``rhs(t, nodes, state, *, out=None)`` maps an (n, Q) state sampled at
    the Q parameter nodes to its time derivative, also (n, Q). Following
    numpy's ``out=`` convention, it writes its rows in place into ``out``
    (a fresh array when ``out`` is None) and returns ``out``; ``out`` must
    not share memory with ``state``. ``derivative_chain(t, nodes, state,
    order)`` supplies higher derivatives: for a scalar-unknown system written
    in companion form (``companion=True``) it returns a (1, Q) array holding
    the order-th time derivative of the highest-derivative component (order 0
    coincides with the last row of ``rhs``); for a general first-order system
    it returns the order-th derivative of ``rhs`` itself, shape (n, Q). Both
    must be pure: identical arguments give bit-identical results.

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
    derivative_chain: Callable[[float, np.ndarray, np.ndarray, int], np.ndarray]
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
    rows. For companion-form models each level contributes the single
    genuinely new scalar derivative. The constant germ is not included;
    basis construction prepends it.

    ``state`` is (n, N) at the N rows of ``nodes`` and ``out`` is
    (truncation, N). Models are pointwise in the nodes, so N may stack the
    nodes of several elements. The truncation is not validated here (see
    :func:`check_truncation`).
    """
    n = model.state_dim
    truncation = out.shape[0]
    out[:n] = state
    filled = n
    level = 0
    while filled < truncation:
        block = model.derivative_chain(t, nodes, state, level)
        take = min(block.shape[0], truncation - filled)
        out[filled : filled + take] = block[:take]
        filled += take
        level += 1

