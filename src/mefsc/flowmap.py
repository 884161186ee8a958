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
    ``derivative_chain(t, nodes, state, order, *, out, scratch)`` supplies
    the higher derivatives, every level from 0 to ``order`` in one call,
    level-major. For a scalar-unknown system written in companion form
    (``companion=True``) level j is one row, the j-th time derivative of the
    highest-derivative component (level 0 coincides with the last row of
    ``rhs``), so the chain is (order+1, Q); for a general first-order system
    level j is the n rows of the j-th derivative of ``rhs`` itself, so the
    chain is ((order+1)*n, Q); each level has the bits it has as the last
    level of a shorter chain. Both write into ``out``, a required keyword
    (they allocate no result array of their own), which must not share
    memory with ``state``, and return it. The chain also takes ``scratch``,
    a (``chain_scratch_rows``, Q) array that it may overwrite for its
    temporaries and that shares memory with neither. Both must be pure:
    identical arguments give bit-identical results, whatever ``scratch``
    holds.

    ``initial_state(nodes)`` evaluates the initial condition at the nodes.
    ``max_enrichment`` caps how many derivative levels the chain supports.

    ``linear`` declares a linear autonomous system: at every node ``rhs(t,
    nodes, x)`` equals A(node) x for every t and state x, with A depending
    on the node only, so ``rhs`` on the n unit states gives A's columns.
    The quasi-exact oracle then steps by a per-node propagator built once.
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
    chain_scratch_rows: int = 0
    linear: bool = False


def check_truncation(model: ModelSpec, truncation: int) -> None:
    """Reject a germ count the model's derivative chain cannot supply."""
    n = model.state_dim
    if not n + 1 <= truncation <= n + model.max_enrichment:
        raise ValueError(
            f"truncation {truncation} for model {model.name!r} must be at least "
            f"{n + 1} (state dimension + 1) and at most {n + model.max_enrichment}"
        )


def _chain_rows(model: ModelSpec, germs: int) -> tuple[int, int]:
    """Order of the chain that supplies ``germs`` derivative germs, and its row count."""
    per_level = 1 if model.companion else model.state_dim
    levels = -(-germs // per_level)
    return levels - 1, levels * per_level


def germ_scratch_rows(model: ModelSpec, truncation: int) -> int:
    """Rows of the ``scratch`` that :func:`fill_germs` needs for ``truncation`` rows."""
    germs = truncation - model.state_dim
    if germs <= 0:
        return 0
    _, whole = _chain_rows(model, germs)
    return (whole if whole != germs else 0) + model.chain_scratch_rows


def fill_germs(model: ModelSpec, t: float, nodes, state, out: np.ndarray, *, scratch) -> None:
    """Write the germ rows for basis construction into ``out``.

    The rows are the state components, then their time derivatives at the
    current instant, derivative-major (for systems: all components of the
    first derivative, then all of the second, ...), cut at ``truncation``
    rows, from one chain call. When the cut falls inside a level, the chain
    writes whole levels into the leading rows of ``scratch`` and the leading
    rows of those are copied; the chain's own scratch rows are the last
    ones. For companion-form models each level contributes the single
    genuinely new scalar derivative. The constant germ is not included;
    basis construction prepends it.

    ``state`` is (n, N) at the N rows of ``nodes``, ``out`` is
    (truncation, N) and ``scratch`` is (``germ_scratch_rows(model,
    truncation)``, N); none shares memory with another. Models are
    pointwise in the nodes, so N may stack the nodes of several elements.
    The truncation is not validated here (see :func:`check_truncation`).
    """
    n = model.state_dim
    germs = out.shape[0] - n
    out[:n] = state
    if germs > 0:
        order, whole = _chain_rows(model, germs)
        chain_scratch = scratch[len(scratch) - model.chain_scratch_rows :]
        if whole == germs:
            model.derivative_chain(t, nodes, state, order, out=out[n:], scratch=chain_scratch)
        else:
            levels = scratch[:whole]
            model.derivative_chain(t, nodes, state, order, out=levels, scratch=chain_scratch)
            out[n:] = levels[:germs]
