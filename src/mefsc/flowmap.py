"""Stochastic ODE model interface and the flow-map machinery that turns a
state into germ functions (the state plus its successive time derivatives,
evaluated pointwise at quadrature nodes).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import QuadratureGrid


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


@dataclass(frozen=True)
class GermSet:
    """Ordered germ values at the element nodes, one row per germ.

    The constant germ is not included here; basis construction prepends it.
    ``labels`` name each row: state components first, then derivatives,
    e.g. ``D2[u]`` for the second time derivative of u.
    """

    values: np.ndarray
    labels: tuple[str, ...]

    @property
    def count(self) -> int:
        return self.values.shape[0]


def enriched_germs(
    model: ModelSpec,
    t: float,
    state_node_values,
    grid: QuadratureGrid,
    truncation: int,
) -> GermSet:
    """Germ rows for basis construction: state components, then derivatives.

    Derivatives are appended derivative-major (for systems: all components of
    the first derivative, then all of the second, ...) and the list is cut at
    ``truncation`` rows. For companion-form models each level contributes the
    single genuinely new scalar derivative. Evaluation is at the current
    instant; no time stepping is involved.
    """
    check_truncation(model, truncation)
    s = np.asarray(state_node_values, dtype=float)
    values = np.empty((truncation, s.shape[1]))
    fill_germs(model, t, grid.nodes, s, values)
    n = model.state_dim
    labels = list(model.component_names)
    primary = model.component_names[0]
    level = 1
    while len(labels) < truncation:
        if model.companion:
            labels.append(f"D{n + level - 1}[{primary}]")
        else:
            labels.extend(f"D{level}[{name}]" for name in model.component_names)
        level += 1
    return GermSet(values=values, labels=tuple(labels[:truncation]))


def check_truncation(model: ModelSpec, truncation: int) -> None:
    """Reject a germ count the model's derivative chain cannot supply."""
    n = model.state_dim
    if not n + 1 <= truncation <= n + model.max_enrichment:
        raise ValueError(
            f"truncation {truncation} outside [{n + 1}, {n + model.max_enrichment}] "
            f"for model {model.name!r}"
        )


def fill_germs(model: ModelSpec, t: float, nodes, state, out: np.ndarray) -> None:
    """Write the germ rows of :func:`enriched_germs` into ``out``.

    ``state`` is (n, N) at the N rows of ``nodes`` and ``out`` is
    (truncation, N). Models are pointwise in the nodes, so N may stack the
    nodes of several elements. The truncation is not validated here.
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


def taylor_propagate(
    model: ModelSpec,
    t: float,
    nodes: np.ndarray,
    state_node_values,
    h: float,
    order: int,
) -> np.ndarray:
    """Truncated Taylor push of the state to t + h, per node.

    s(t+h) = sum_{m<=order} h^m/m! D^m s. This is the flow map used to
    justify the germ set; the production integrator is RK4, so this exists
    for validation and experimentation, not for stepping runs.
    """
    s = np.asarray(state_node_values, dtype=float)
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > model.max_enrichment:
        raise ValueError("order exceeds the model's derivative chain")
    out = s.copy()
    if order == 0:
        return out
    n = model.state_dim
    factor = 1.0
    if model.companion:
        # Rows i..n-1 of the state are already derivatives of row 0, so one
        # scalar chain serves every component.
        chain = [s[i] for i in range(n)]
        for j in range(order):
            chain.append(model.derivative_chain(t, nodes, s, j)[0])
        for m in range(1, order + 1):
            factor *= h / m
            for i in range(n):
                out[i] += factor * chain[i + m]
    else:
        for m in range(1, order + 1):
            factor *= h / m
            out += factor * model.derivative_chain(t, nodes, s, m - 1)
    return out
