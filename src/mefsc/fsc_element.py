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
other elements share its batch, so one element is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral

import numpy as np

from .basis import BasisStack, empty_stack, orthogonalize, warmstart_candidates
from .flowmap import ModelSpec, check_truncation, fill_germs
from .measures import Distribution, build_quadrature


# A horizon counts as a whole number of steps when duration / dt is within
# this relative distance of an integer, so that rounded products such as
# 1200 * 1e-3 = 1.2000000000000002 pass.
WHOLE_STEP_RTOL = 1e-9

# Most steps a horizon may take. Each step is a column of every moment
# series (8 GB per row at 10**9 steps), so more is a mistyped step or
# horizon; the presets take at most 150000. Past float range, round() fails.
MAX_STEPS = 10**9

# Size of the block buffer (means and variances together) that streamed local
# moments pass through on their way to ``run_elements``'s ``reduce``, summed
# over the batches of a run.
_BLOCK_BYTES = 1 << 18


def step_count(duration: float, dt: float, what: str = "duration") -> int:
    """Number of ``dt`` steps in ``duration``, which must be a whole number.

    Raises ValueError, naming the nearest whole horizon, rather than
    silently running to a rounded one, and for more than MAX_STEPS steps.
    """
    if not (dt > 0 and isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not isfinite(duration):
        raise ValueError(f"{what} must be finite, got {duration!r}")
    if duration < 0:
        raise ValueError(f"{what} must be >= 0")
    ratio = duration / dt
    if not ratio < MAX_STEPS + 0.5:
        raise ValueError(f"{what} {duration!r} is over {MAX_STEPS} steps of dt {dt!r}")
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
        # All three go into args so the exception survives pickling from a
        # worker process to the parent.
        super().__init__(message, t, element_id)
        self.t = t
        self.element_id = element_id

    def __str__(self) -> str:
        return f"{self.args[0]} (t={self.t:.6g}, element {self.element_id})"


@dataclass(frozen=True)
class FallbackEvent:
    """One occasion where an element's whole transfer was replaced by projection."""

    t: float
    element_id: int
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

    def __post_init__(self):
        degree = self.degree
        if isinstance(degree, bool) or not isinstance(degree, Integral) or degree < 0:
            raise ValueError(
                f"warm-start degree must be an integer >= 0, got {degree!r}"
            )


@dataclass
class LocalSeries:
    """One element's solver diagnostics.

    Its moments went to ``reduce`` of :func:`run_elements`, so ``times`` is
    the time grid and ``mean`` and ``variance`` are always (n, 0). The three
    fields stay only because perfbench's ``spans.BatchProbe`` reads
    ``times.size`` and ``mean.nbytes`` of every series; they go with the
    benchmark upkeep of ROADMAP item 6.
    """

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    fallback_events: list[FallbackEvent]
    max_orthogonality_residual: float | None


def _raise_if_not_finite(per_element, message: str, t: float, ids) -> None:
    """Raise for the lowest element id whose slice of an (E, ...) array is not finite.

    Callers screen with one cheap sum first and come here only when it is
    not finite.
    """
    bad = ~np.isfinite(per_element.reshape(len(ids), -1)).all(axis=1)
    if bad.any():
        raise NumericalBlowup(message, t, int(ids[bad].min()))


def _rebuild(model, t, nodes, rows, weights, flow: BasisStack) -> BasisStack:
    """Rebuild the basis in ``flow`` from the germs of (n, E*Q) state ``rows``,
    writing its candidates (the constant, then the germs) into ``flow.values``."""
    values = flow.values.transpose(1, 0, 2)
    values[0] = 1.0
    fill_germs(model, t, nodes, rows, values[1:].reshape(len(values) - 1, -1))
    return orthogonalize(flow.values, weights, work=flow)


def _transfer(values, basis: BasisStack, t, ids, events, modes) -> None:
    """Write into ``modes`` the modes of (E, n, Q) state values on a basis
    just built from them.

    State component l is germ candidate l+1, so its modes are that
    candidate's Gram-Schmidt coefficients: mode 0 is the mean, mode l+1 is
    1 and higher modes vanish. This is exact, no projection error. An
    element that dropped a state germ falls back to projection.
    """
    n = values.shape[1]
    modes[...] = basis.coefficients[:, 1 : n + 1]
    lost = ~basis.kept[:, 1 : n + 1].all(axis=1)
    for e in np.flatnonzero(lost):
        modes[e] = values[e] @ basis.projector[e]
        events[e].append(FallbackEvent(t, int(ids[e]), "state germ dropped"))


def _galerkin_rhs(model, basis: BasisStack, ids, state: np.ndarray):
    """``rhs(t, nodes, modes, *, out)`` of (E, n, m) modes on ``basis``.

    It evaluates the modes into ``state``, (n, E, Q) and read by the model as
    (n, E*Q) rows, and writes the modes of the model's derivative into
    ``out``; a companion model's shifted components keep their modes.
    """
    rows = state.reshape(state.shape[0], -1)
    at_nodes = state.transpose(1, 0, 2)
    derivs = np.empty_like(state[:1] if model.companion else state)
    derivs_rows = derivs.reshape(len(derivs), -1)

    def rhs(t, nodes, modes, *, out):
        np.matmul(modes, basis.values, out=at_nodes)
        if not isfinite(float(rows.sum())):
            _raise_if_not_finite(at_nodes, "non-finite state values", t, ids)
        if model.companion:
            model.derivative_chain(t, nodes, rows, 0, out=derivs_rows)
            out[:, :-1] = modes[:, 1:]
            out = out[:, -1:]
        else:
            model.rhs(t, nodes, rows, out=derivs_rows)
        np.matmul(derivs.transpose(1, 0, 2), basis.projector, out=out)

    return rhs


def rk4_step(rhs, t: float, dt: float, nodes, y: np.ndarray, work) -> None:
    """One classical RK4 step of y' = rhs(t, nodes, y) in place, with ``rhs``
    called as ``ModelSpec.rhs`` and ``work`` five arrays shaped like ``y``.

    The arithmetic is that of y + (dt/6) (k1 + 2 (k2 + k3) + k4) with stage
    points y + h k, operation for operation: the bits of fresh arrays.
    """
    k1, k2, k3, k4, stage = work
    half = 0.5 * dt
    rhs(t, nodes, y, out=k1)
    np.multiply(k1, half, out=stage)
    stage += y
    rhs(t + half, nodes, stage, out=k2)
    np.multiply(k2, half, out=stage)
    stage += y
    rhs(t + half, nodes, stage, out=k3)
    np.multiply(k3, dt, out=stage)
    stage += y
    rhs(t + dt, nodes, stage, out=k4)
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    y += k2


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
    reduce,
    block_elements: int | None = None,
) -> list[LocalSeries]:
    """Integrate a batch of elements in one time loop.

    The local moments are handed to ``reduce``, not stored: they are
    buffered a block of steps at a time, and ``reduce(start, means,
    variances)`` receives the (E, n, k) means and variances of steps
    ``start`` to ``start + k - 1`` each time the block fills and after the
    last step. The buffer is reused for the next block, so ``reduce`` must
    copy what it keeps. The block holds about ``_BLOCK_BYTES`` for
    ``block_elements`` elements (default: this batch's), so batches of one
    run that pass the run's element count share block boundaries.

    Returns one :class:`LocalSeries` per box, in order; ``element_ids`` name
    the boxes in fallback events and blow-up reports. With a warm start the
    basis is a fixed polynomial chaos until the given duration, after which
    the flow-driven rebuild+transfer takes over at every step.
    ``audit_orthogonality`` tracks each element's worst normalized
    off-diagonal Gram entry over all rebuilds (costly, for validation runs).
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
    # The batch's workspace, reused at every step: the state at the nodes,
    # (n, E, Q) and (n, E*Q) rows for the models, and the flow-driven basis.
    state = np.empty((n, n_el, weights.shape[1]))
    rows = state.reshape(n, -1)
    rows[...] = model.initial_state(nodes)
    at_nodes = state.transpose(1, 0, 2)
    flow = empty_stack(n_el, truncation + 1, weights.shape[1])

    warm_steps = 0
    if warmstart is not None and warmstart.duration > 0:
        warm_steps = min(n_steps, step_count(warmstart.duration, dt, "warm-start duration"))
        basis = orthogonalize(
            np.stack([warmstart_candidates(g, warmstart.degree) for g in grids]), weights
        )
    else:
        basis = _rebuild(model, 0.0, nodes, rows, weights, flow)
    del grids
    modes, *work = np.empty((6, n_el, n, basis.values.shape[1]))
    rhs = _galerkin_rhs(model, basis, ids, state)
    np.matmul(at_nodes, basis.projector, out=modes)

    per_step = 16 * (block_elements or n_el) * n
    width = min(n_steps + 1, max(1, _BLOCK_BYTES // per_step))
    mean = np.empty((n_el, n, width))
    variance = np.empty((n_el, n, width))
    start = 0

    def record(step, modes, basis):
        nonlocal start
        col = step - start
        mean[:, :, col] = modes[:, :, 0]
        variance[:, :, col] = _local_variance(modes, basis)
        if col + 1 == width or step == n_steps:
            reduce(start, mean[:, :, : col + 1], variance[:, :, : col + 1])
            start = step + 1

    events: list[list[FallbackEvent]] = [[] for _ in range(n_el)]
    max_residual = np.zeros(n_el) if audit_orthogonality else None
    record(0, modes, basis)

    rebuild_from = warm_steps if warm_steps else 1
    t = 0.0
    for i in range(n_steps):
        if i >= rebuild_from:
            np.matmul(modes, basis.values, out=at_nodes)
            basis = _rebuild(model, t, nodes, rows, weights, flow)
            if i == warm_steps and warm_steps:
                alone = basis.kept.sum(axis=1) == 1
                if alone.any():
                    raise NumericalBlowup(
                        "all germs degenerate after warm start", t, int(ids[alone].min())
                    )
                modes, *work = np.empty((6, n_el, n, truncation + 1))
                rhs = _galerkin_rhs(model, basis, ids, state)
            _transfer(at_nodes, basis, t, ids, events, modes)
            if audit_orthogonality:
                np.maximum(
                    max_residual, _max_offdiag_residual(basis, weights), out=max_residual
                )
        rk4_step(rhs, t, dt, nodes, modes, work)
        if not isfinite(float(modes.sum())):
            _raise_if_not_finite(modes, "non-finite modes after step", t + dt, ids)
        t = times[i + 1]
        record(i + 1, modes, basis)

    moments = np.empty((n, 0))
    return [
        LocalSeries(
            times=times,
            mean=moments,
            variance=moments,
            fallback_events=events[e],
            max_orthogonality_residual=(
                float(max_residual[e]) if audit_orthogonality else None
            ),
        )
        for e in range(n_el)
    ]

