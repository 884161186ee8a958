"""Spectral solver driven by the flow map, for a batch of elements.

Each time step: rebuild the orthogonal basis from the current germs, transfer
the state's modes into the new basis exactly, then advance the modes one RK4
step with the basis frozen. The state components are the basis's first germ
candidates, so their modes on it are the Gram-Schmidt coefficients, with a
projection fallback when a state germ is dropped. Local statistics fall out
of the modes directly: the mean is mode 0 and the variance is the weighted
sum of squared higher modes.

Elements share node count, basis size and time grid, so one time loop
advances a whole batch: state values are (E, n, Q), modes (E, n, m) and
bases (E, m, Q), and model calls see every element's nodes stacked as
(E*Q, d). An element's numbers depend on its own data only, never on which
other elements share its batch. The single-element functions below are the
E = 1 case of the same kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .basis import (
    BasisSet,
    BasisStack,
    gram_schmidt,
    orthogonalize,
    warmstart_candidates,
)
from .flowmap import ModelSpec, check_truncation, fill_germs
from .measures import Distribution, QuadratureGrid, build_quadrature


# A horizon counts as a whole number of steps when duration / dt is within
# this relative distance of an integer, so that rounded products such as
# 1200 * 1e-3 = 1.2000000000000002 pass.
WHOLE_STEP_RTOL = 1e-9

# Size of the block buffer (means and variances together) that streamed local
# moments pass through on their way to ``run_elements``'s ``reduce``, summed
# over the batches of a run.
_BLOCK_BYTES = 1 << 18


def step_count(duration: float, dt: float, what: str = "duration") -> int:
    """Number of ``dt`` steps in ``duration``, which must be a whole number.

    Raises ValueError, naming the nearest whole horizon, rather than
    silently running to a rounded one.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if duration < 0:
        raise ValueError(f"{what} must be >= 0")
    ratio = duration / dt
    steps = round(ratio)
    if abs(ratio - steps) > WHOLE_STEP_RTOL * max(ratio, 1.0):
        raise ValueError(
            f"{what} {duration!r} is not a whole number of steps of dt {dt!r}; "
            f"the nearest whole horizon is {steps * dt!r} ({steps} steps)"
        )
    return steps


class NumericalBlowup(RuntimeError):
    """Raised when an element's state stops being representable."""

    def __init__(self, message: str, t: float, element_id: int):
        # All three go into args so the exception survives pickling across
        # process-pool boundaries.
        super().__init__(message, t, element_id)
        self.t = t
        self.element_id = element_id

    def __str__(self) -> str:
        return f"{self.args[0]} (t={self.t:.6g}, element {self.element_id})"


@dataclass
class ElementState:
    """Spectral state of one element: modes of each component on a basis."""

    t: float
    basis: BasisSet
    modes: np.ndarray
    element_id: int
    grid: QuadratureGrid


@dataclass(frozen=True)
class MomentSample:
    t: float
    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class FallbackEvent:
    """One occasion where the exact transfer was replaced by projection.

    ``row`` is -1: the whole transfer falls back, because a state germ had
    been dropped.
    """

    t: float
    element_id: int
    row: int
    reason: str


@dataclass(frozen=True)
class WarmStart:
    """Fixed polynomial basis used for an initial interval.

    Deterministic initial conditions make every germ constant, so the
    flow-driven basis cannot start from t=0; integrating on a fixed
    polynomial-chaos basis first lets the state pick up parameter dependence.
    """

    degree: int
    duration: float


@dataclass
class LocalSeries:
    """Per-step local moments of one element, plus solver diagnostics.

    ``mean`` and ``variance`` are (n, steps+1) and ``final_state`` is the
    element's state at the horizon when the batch stored its series (see
    ``keep_local`` of :func:`run_elements`). When the batch only handed its
    moments to a reduction, the moment arrays are (n, 0) and ``final_state``
    is None.
    """

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    fallback_events: list[FallbackEvent]
    max_orthogonality_residual: float | None
    final_state: ElementState | None = None


def _element_rows(rows: np.ndarray, n_el: int) -> np.ndarray:
    """(k, E*Q) rows over the stacked nodes as an (E, k, Q) view."""
    return rows.reshape(rows.shape[0], n_el, -1).transpose(1, 0, 2)


def _stack(basis: BasisSet, grid: QuadratureGrid) -> BasisStack:
    """One element's basis as a batch of one."""
    return BasisStack(
        values=basis.values[None],
        projector=basis.projector(grid)[None],
        squared_norms=basis.squared_norms[None],
        kept=basis.kept_flags[None],
        coefficients=basis.coefficients[None],
    )


def _raise_if_not_finite(per_element, message: str, t: float, ids) -> None:
    """Raise for the lowest element id whose slice of an (E, ...) array is not finite.

    Callers screen with one cheap sum first and come here only when it is
    not finite.
    """
    bad = ~np.isfinite(per_element.reshape(len(ids), -1)).all(axis=1)
    if bad.any():
        raise NumericalBlowup(message, t, int(ids[bad].min()))


def _evaluate(modes: np.ndarray, basis: BasisStack) -> np.ndarray:
    """(n, E*Q) node rows of the state held as (E, n, m) modes."""
    return (modes @ basis.values).transpose(1, 0, 2).reshape(modes.shape[1], -1)


def _candidates(model, t, state_rows, nodes, truncation, n_el) -> np.ndarray:
    """(E, truncation+1, Q) germ candidates: the constant, then the germs."""
    cands = np.empty((truncation + 1, state_rows.shape[1]))
    cands[0] = 1.0
    fill_germs(model, t, nodes, state_rows, cands[1:])
    return _element_rows(cands, n_el)


def _transfer(values, basis: BasisStack, t, ids, events) -> np.ndarray:
    """Modes of (E, n, Q) state values on a basis just built from them.

    State component l is germ candidate l+1, so its modes are that
    candidate's Gram-Schmidt coefficients: mode 0 is the mean, mode l+1 is
    1 and higher modes vanish. This is exact, no projection error. An
    element that dropped a state germ falls back to projection.
    """
    n = values.shape[1]
    modes = basis.coefficients[:, 1 : n + 1].copy()
    lost = ~basis.kept[:, 1 : n + 1].all(axis=1)
    for e in np.flatnonzero(lost):
        modes[e] = values[e] @ basis.projector[e]
        if events is not None:
            events[e].append(FallbackEvent(t, int(ids[e]), -1, "state germ dropped"))
    return modes


def _rhs(t, modes, basis: BasisStack, model, nodes, ids) -> np.ndarray:
    n_el = len(ids)
    state = _evaluate(modes, basis)
    if not isfinite(float(state.sum())):
        per_element = _element_rows(state, n_el)
        _raise_if_not_finite(per_element, "non-finite state values", t, ids)
    if model.companion:
        top = model.derivative_chain(t, nodes, state, 0)
        top_modes = _element_rows(top, n_el) @ basis.projector
        return np.concatenate((modes[:, 1:], top_modes), axis=1)
    return _element_rows(model.rhs(t, nodes, state), n_el) @ basis.projector


def _rk4(t, modes, basis: BasisStack, model, nodes, dt, ids) -> np.ndarray:
    half = 0.5 * dt
    k1 = _rhs(t, modes, basis, model, nodes, ids)
    k2 = _rhs(t + half, modes + half * k1, basis, model, nodes, ids)
    k3 = _rhs(t + half, modes + half * k2, basis, model, nodes, ids)
    k4 = _rhs(t + dt, modes + dt * k3, basis, model, nodes, ids)
    out = modes + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    if not isfinite(float(out.sum())):
        _raise_if_not_finite(out, "non-finite modes after step", t + dt, ids)
    return out


def _local_variance(modes: np.ndarray, basis: BasisStack) -> np.ndarray:
    return ((modes[:, :, 1:] ** 2) @ basis.squared_norms[:, 1:, None])[:, :, 0]


def _max_offdiag_residual(basis: BasisStack, weights: np.ndarray) -> np.ndarray:
    """Worst normalized off-diagonal Gram entry per element.

    Masked rows are zero, so they are given a unit scale and contribute
    nothing instead of 0/0.
    """
    gram = basis.values @ (basis.values * weights[:, None, :]).transpose(0, 2, 1)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    scale = np.sqrt(np.where(basis.kept, diag, 1.0))
    normalized = np.abs(gram) / (scale[:, :, None] * scale[:, None, :])
    m = gram.shape[1]
    normalized[:, np.arange(m), np.arange(m)] = 0.0
    return normalized.max(axis=(1, 2))


def rebuild_basis(state: ElementState, model: ModelSpec, truncation: int) -> BasisSet:
    """Fresh orthogonal basis from the current state's germs.

    Evaluates the state at the nodes, forms the germ set (state components
    plus time derivatives), prepends the constant and orthogonalizes.
    """
    check_truncation(model, truncation)
    values = state.modes @ state.basis.values
    cands = _candidates(model, state.t, values, state.grid.nodes, truncation, 1)
    return gram_schmidt(cands[0], state.grid, check=False)


def transfer_modes(
    old_state: ElementState,
    new_basis: BasisSet,
    event_log: list | None = None,
) -> np.ndarray:
    """Modes of ``old_state`` on ``new_basis``, which was built from its germs."""
    values = old_state.modes @ old_state.basis.values
    return _transfer(
        values[None],
        _stack(new_basis, old_state.grid),
        old_state.t,
        np.array([old_state.element_id]),
        None if event_log is None else [event_log],
    )[0]


def galerkin_rhs(
    t: float,
    modes: np.ndarray,
    basis: BasisSet,
    model: ModelSpec,
    grid: QuadratureGrid,
    element_id: int = 0,
) -> np.ndarray:
    """Mode time-derivatives, pseudo-spectrally.

    The state is reconstructed at the nodes, the model right-hand side is
    applied pointwise and the result projected back. For companion-form
    systems the derivative of mode row l is identically mode row l+1 (the
    reconstruction-project round trip is the identity on the span), so only
    the highest-derivative row needs node arithmetic.
    """
    return _rhs(
        t, modes[None], _stack(basis, grid), model, grid.nodes, np.array([element_id])
    )[0]


def rk4_step(state: ElementState, model: ModelSpec, dt: float) -> ElementState:
    """One classical RK4 step on the mode system, basis frozen."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    new_modes = _rk4(
        state.t,
        state.modes[None],
        _stack(state.basis, state.grid),
        model,
        state.grid.nodes,
        dt,
        np.array([state.element_id]),
    )[0]
    return ElementState(
        t=state.t + dt,
        basis=state.basis,
        modes=new_modes,
        element_id=state.element_id,
        grid=state.grid,
    )


def local_moments(state: ElementState) -> MomentSample:
    """Mean and variance of each component under the element measure."""
    modes = state.modes
    variance = (modes[:, 1:] ** 2) @ state.basis.squared_norms[1:]
    return MomentSample(
        t=state.t, mean=modes[:, 0].copy(), variance=np.maximum(variance, 0.0)
    )


def run_elements(
    boxes,
    element_ids,
    distributions: tuple[Distribution, ...],
    model: ModelSpec,
    truncation: int,
    dt: float,
    duration: float,
    warmstart: WarmStart | None = None,
    points_per_axis: int = 10,
    audit_orthogonality: bool = False,
    *,
    reduce=None,
    keep_local: bool = False,
    block_elements: int | None = None,
) -> list[LocalSeries]:
    """Integrate a batch of elements in one time loop.

    Returns one :class:`LocalSeries` per box, in order; ``element_ids`` name
    the boxes in fallback events and blow-up reports. With a warm start the
    basis is a fixed polynomial chaos until the given duration, after which
    the flow-driven rebuild+transfer takes over at every step.
    ``audit_orthogonality`` tracks each element's worst normalized
    off-diagonal Gram entry over all rebuilds (costly, for validation runs).

    With ``reduce`` the local moments are handed over instead of stored:
    they are buffered a block of steps at a time, and
    ``reduce(start, means, variances)`` receives the (E, n, k) means and
    variances of steps ``start`` to ``start + k - 1`` each time the block
    fills and after the last step. The block holds about ``_BLOCK_BYTES``
    for ``block_elements`` elements (default: this batch's), so batches of
    one run that pass the run's element count share block boundaries. The
    series returned then hold (n, 0) moment arrays and no final state.
    Without ``reduce``, or with ``keep_local``, every step is stored: the
    series and final states are returned, and ``reduce`` (if any) receives
    the whole series as one block after the last step.
    """
    check_truncation(model, truncation)
    grids = [
        build_quadrature(np.asarray(box, dtype=float), distributions, points_per_axis)
        for box in boxes
    ]
    ids = np.asarray(element_ids)
    n_el = len(grids)
    nodes = np.concatenate([grid.nodes for grid in grids])
    weights = np.stack([grid.weights for grid in grids])
    n = model.state_dim
    n_steps = step_count(duration, dt)
    times = np.arange(n_steps + 1) * dt
    state = model.initial_state(nodes)

    warm_steps = 0
    if warmstart is not None and warmstart.duration > 0:
        cands = np.stack([warmstart_candidates(g, warmstart.degree) for g in grids])
        warm_steps = step_count(warmstart.duration, dt, "warm-start duration")
        warm_steps = min(n_steps, warm_steps)
    else:
        cands = _candidates(model, 0.0, state, nodes, truncation, n_el)
    basis = orthogonalize(cands, weights)
    del cands
    modes = _element_rows(state, n_el) @ basis.projector

    store = keep_local or reduce is None
    width = n_steps + 1
    if not store:
        grids = None  # only the final states use them
        per_step = 16 * (block_elements or n_el) * n
        width = min(width, max(1, _BLOCK_BYTES // per_step))
    mean = np.empty((n_el, n, width))
    variance = np.empty((n_el, n, width))
    start = 0

    def record(step, modes, basis):
        nonlocal start
        col = step - start
        mean[:, :, col] = modes[:, :, 0]
        variance[:, :, col] = _local_variance(modes, basis)
        if reduce is not None and (col + 1 == width or step == n_steps):
            reduce(start, mean[:, :, : col + 1], variance[:, :, : col + 1])
            start = step + 1

    events: list[list[FallbackEvent]] = [[] for _ in range(n_el)]
    max_residual = np.zeros(n_el) if audit_orthogonality else None
    record(0, modes, basis)

    rebuild_from = warm_steps if warm_steps else 1
    t = 0.0
    for i in range(n_steps):
        if i >= rebuild_from:
            state = _evaluate(modes, basis)
            basis = orthogonalize(
                _candidates(model, t, state, nodes, truncation, n_el), weights
            )
            if i == warm_steps and warm_steps:
                alone = basis.kept.sum(axis=1) == 1
                if alone.any():
                    raise NumericalBlowup(
                        "all germs degenerate after warm start", t, int(ids[alone].min())
                    )
            modes = _transfer(_element_rows(state, n_el), basis, t, ids, events)
            if audit_orthogonality:
                np.maximum(
                    max_residual, _max_offdiag_residual(basis, weights), out=max_residual
                )
        modes = _rk4(t, modes, basis, model, nodes, dt, ids)
        t = times[i + 1]
        record(i + 1, modes, basis)

    if not store:
        mean = variance = np.empty((n_el, n, 0))
    return [
        LocalSeries(
            times=times,
            mean=mean[e],
            variance=variance[e],
            fallback_events=events[e],
            max_orthogonality_residual=(
                float(max_residual[e]) if audit_orthogonality else None
            ),
            final_state=(
                ElementState(
                    t=times[-1],
                    basis=basis.element(e),
                    modes=modes[e][:, basis.kept[e]],
                    element_id=int(ids[e]),
                    grid=grids[e],
                )
                if store
                else None
            ),
        )
        for e in range(n_el)
    ]


def run_element(
    box,
    distributions: tuple[Distribution, ...],
    model: ModelSpec,
    truncation: int,
    dt: float,
    duration: float,
    warmstart: WarmStart | None = None,
    element_id: int = 0,
    points_per_axis: int = 10,
    audit_orthogonality: bool = False,
) -> LocalSeries:
    """Integrate one element and record its local moments at every step.

    The one-element case of :func:`run_elements`.
    """
    return run_elements(
        [box],
        [element_id],
        distributions,
        model,
        truncation,
        dt,
        duration,
        warmstart,
        points_per_axis,
        audit_orthogonality,
    )[0]
