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

For the same reason a batch may be stepped in element blocks: runs of its
elements that are each rebuilt, transferred and stepped before the next
starts. A block holds at most ``_ELEMENT_BLOCK_BYTES`` of flow-driven basis
values and projector, a core's L2 cache, which every Gram-Schmidt candidate
and RK4 stage streams through; at 1000 nodes per element (the three-mode
problem) that is 16 elements, while batches of 10-node elements stay one
block. The blocks work on views of the batch's workspace cut along the
element axis, which keep every array's inner strides, so each element keeps
its bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral

import numpy as np

from .basis import (
    BasisStack,
    aligned_empty,
    empty_stack,
    orthogonalize,
    stack_rows,
    warmstart_candidates,
)
from .flowmap import ModelSpec, check_truncation, fill_germs, germ_scratch_rows
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

# Bytes of flow-driven basis values and projector that one element block
# streams through every Gram-Schmidt candidate and RK4 stage: a core's 2 MiB
# L2 cache. Larger batches are stepped in blocks of near-equal sizes, also
# on a warm-start basis, which runs for a short first interval only.
_ELEMENT_BLOCK_BYTES = 1 << 21


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


def _lowest_not_finite(per_element: np.ndarray, ids) -> int | None:
    """The lowest element id whose slice of an (E, ...) array is not finite.

    Callers screen with one cheap sum first and come here only when it is
    not finite.
    """
    bad = ~np.isfinite(per_element.reshape(len(ids), -1)).all(axis=1)
    return int(ids[bad].min()) if bad.any() else None


def _rows(values: np.ndarray) -> np.ndarray:
    """(k, E, Q) ``values`` read as (k, E*Q) rows, as a view."""
    return values.reshape(len(values), -1)


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
    kept = basis.kept[:, 1 : n + 1]
    if kept.all():
        return
    for e in np.flatnonzero(~kept.all(axis=1)):
        modes[e] = values[e] @ basis.projector[e]
        events[e].append(FallbackEvent(t, int(ids[e]), "state germ dropped"))


class _GalerkinRHS:
    """``rhs(t, nodes, modes, *, out)`` of (E, n, m) modes on ``basis``.

    It evaluates the modes into ``state``, (n, E, Q) and read by the model as
    (n, E*Q) rows, and writes the modes of the model's derivative into
    ``out``; a companion model's shifted components keep their modes. The
    model writes that derivative into ``derivs``, (1, E, Q) for a companion
    model and shaped like ``state`` otherwise; a companion model's chain
    gets ``scratch``. ``calls`` counts the calls, so that a blow-up can be
    placed in its RK4 stage.
    """

    def __init__(self, model, basis: BasisStack, ids, state, derivs, scratch):
        self.model = model
        self.basis = basis
        self.ids = ids
        self.rows = _rows(state)
        self.at_nodes = state.transpose(1, 0, 2)
        self.derivs = derivs.transpose(1, 0, 2)
        self.derivs_rows = _rows(derivs)
        self.scratch = scratch
        self.calls = 0

    def __call__(self, t, nodes, modes, *, out):
        self.calls += 1
        model, basis = self.model, self.basis
        np.matmul(modes, basis.values, out=self.at_nodes)
        if not isfinite(float(self.rows.sum())):
            bad = _lowest_not_finite(self.at_nodes, self.ids)
            if bad is not None:
                raise NumericalBlowup("non-finite state values", t, bad)
        if model.companion:
            model.derivative_chain(
                t, nodes, self.rows, 0, out=self.derivs_rows, scratch=self.scratch
            )
            out[:, :-1] = modes[:, 1:]
            out = out[:, -1:]
        else:
            model.rhs(t, nodes, self.rows, out=self.derivs_rows)
        np.matmul(self.derivs, basis.projector, out=out)


class _Block:
    """The elements ``span`` of a batch, stepped together: views of the
    batch's workspace cut along the element axis, built once per batch.

    A cut along the element axis keeps each array's inner strides, so every
    matmul makes the same BLAS call per element as on the whole batch, and
    each element keeps its bits.
    """

    def __init__(self, model, span: slice, ids, nodes, weights, state, derivs, scratch,
                 flow: BasisStack, events):
        q = weights.shape[1]
        nodes_span = slice(span.start * q, span.stop * q)
        self.model = model
        self.span = span
        self.ids = ids[span]
        self.nodes = nodes[nodes_span]
        self.weights = weights[span]
        self.state = state[:, span]
        self.rows = _rows(self.state)
        self.at_nodes = self.state.transpose(1, 0, 2)
        self.derivs = derivs[:, span]
        self.scratch = scratch[:, nodes_span]
        self.flow = stack_rows(flow, span)
        # The constant candidate is written once: orthogonalize never writes
        # row 0 of the values it works on in place, and fill_germs writes
        # only the rows after it.
        candidates = self.flow.values.transpose(1, 0, 2)
        candidates[0] = 1.0
        self.germs = _rows(candidates[1:])
        self.events = events[span]

    def use(self, basis: BasisStack, modes, work) -> None:
        """Step this block's rows of the batch's ``modes`` on its rows of
        ``basis``, with its rows of the RK4 ``work``."""
        self.basis = stack_rows(basis, self.span)
        self.modes = modes[self.span]
        self.work = [stage[self.span] for stage in work]
        chain_scratch = self.scratch[len(self.scratch) - self.model.chain_scratch_rows :]
        self.rhs = _GalerkinRHS(
            self.model, self.basis, self.ids, self.state, self.derivs, chain_scratch
        )

    def rebuild(self, t: float) -> None:
        """Rebuild the flow-driven basis from the germs of the state values,
        writing them into the rows of its values after the constant."""
        fill_germs(self.model, t, self.nodes, self.rows, self.germs, scratch=self.scratch)
        self.basis = orthogonalize(self.flow.values, self.weights, work=self.flow)

    def evaluate(self) -> None:
        """Evaluate the modes at the nodes into the state values."""
        np.matmul(self.modes, self.basis.values, out=self.at_nodes)

    def transfer(self, t: float) -> None:
        _transfer(self.at_nodes, self.basis, t, self.ids, self.events, self.modes)

    def step(self, t: float, dt: float):
        """One RK4 step of the modes in place.

        Returns None, or the first screen that found a non-finite value as
        (stage, element id, NumericalBlowup): stages 1-4 screen the RK4
        stages' state values, stage 5 the modes after the step.
        """
        rhs = self.rhs
        rhs.calls = 0
        try:
            rk4_step(rhs, t, dt, self.nodes, self.modes, self.work)
        except NumericalBlowup as blowup:
            return rhs.calls, blowup.element_id, blowup
        if not isfinite(float(self.modes.sum())):
            bad = _lowest_not_finite(self.modes, self.ids)
            if bad is not None:
                return 5, bad, NumericalBlowup("non-finite modes after step", t + dt, bad)
        return None


def _element_blocks(n_el: int, element_bytes: int) -> list[slice]:
    """Split ``n_el`` elements into the fewest runs, of near-equal sizes, whose
    bases of ``element_bytes`` each fit in ``_ELEMENT_BLOCK_BYTES``."""
    count = -(-n_el // max(1, _ELEMENT_BLOCK_BYTES // element_bytes))
    return [slice(n_el * k // count, n_el * (k + 1) // count) for k in range(count)]


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


def _local_variance(modes: np.ndarray, basis: BasisStack, out=None, squares=None) -> np.ndarray:
    """(E, n) local variances of (E, n, m) ``modes``: the squared higher
    modes weighted by the basis's squared norms.

    ``out``, (E, n, 1) and possibly a column of a larger buffer, takes the
    product and ``squares``, (E, n, m - 1), the squared modes; each is
    allocated when not given. ``squares`` must be contiguous, as a fresh
    array is, so that the product's operands keep their layout and bits.
    """
    squares = np.square(modes[:, :, 1:], out=squares)
    return np.matmul(squares, basis.squared_norms[:, 1:, None], out=out)[:, :, 0]


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

    The time loop steps the batch one element block at a time (see the
    module docstring): each block is rebuilt, transferred and stepped before
    the next starts. A blow-up is reported as for one block: the earliest
    screen (an RK4 stage, then the modes after the step) that finds a
    non-finite value, and the lowest element id it finds there.

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
    # (n, E, Q) and (n, E*Q) rows for the models, the model's derivative,
    # the germ scratch and the flow-driven basis. The state, the derivative
    # and the basis start on cache lines: on the three-mode workload's
    # one-worker solve, moving the basis 16 bytes off a line raised the
    # median time by 6-19 % in three sets of 10-14 interleaved rounds, the
    # derivative by 3-8 % and the state by -1 to 5 %; the scratch by -3 to
    # 3 %, so it stays plain.
    q = weights.shape[1]
    state = aligned_empty((n, n_el, q))
    _rows(state)[...] = model.initial_state(nodes)
    derivs = aligned_empty((1 if model.companion else n, n_el, q))
    scratch = np.empty((germ_scratch_rows(model, truncation), n_el * q))
    flow = empty_stack(n_el, truncation + 1, q)
    events: list[list[FallbackEvent]] = [[] for _ in range(n_el)]

    warm_steps = 0
    if warmstart is not None and warmstart.duration > 0:
        warm_steps = min(n_steps, step_count(warmstart.duration, dt, "warm-start duration"))
        basis = orthogonalize(
            np.stack([warmstart_candidates(g, warmstart.degree) for g in grids]), weights
        )
    else:
        basis = flow
    del grids
    blocks = [
        _Block(model, span, ids, nodes, weights, state, derivs, scratch, flow, events)
        for span in _element_blocks(n_el, 16 * (truncation + 1) * q)
    ]
    if basis is flow:
        for block in blocks:
            block.rebuild(0.0)
    modes, *work = np.empty((6, n_el, n, basis.values.shape[1]))
    squares = np.empty((n_el, n, basis.values.shape[1] - 1))
    np.matmul(state.transpose(1, 0, 2), basis.projector, out=modes)
    for block in blocks:
        block.use(basis, modes, work)

    per_step = 16 * (block_elements or n_el) * n
    width = min(n_steps + 1, max(1, _BLOCK_BYTES // per_step))
    mean = np.empty((n_el, n, width))
    variance = np.empty((n_el, n, width))
    start = 0

    def record(step, modes, basis):
        nonlocal start
        col = step - start
        mean[:, :, col] = modes[:, :, 0]
        _local_variance(modes, basis, out=variance[:, :, col : col + 1], squares=squares)
        if col + 1 == width or step == n_steps:
            reduce(start, mean[:, :, : col + 1], variance[:, :, : col + 1])
            start = step + 1

    max_residual = np.zeros(n_el) if audit_orthogonality else None
    record(0, modes, basis)

    rebuild_from = warm_steps if warm_steps else 1
    t = 0.0
    for i in range(n_steps):
        rebuild = i >= rebuild_from
        handover = rebuild and i == warm_steps
        if handover:
            # The hand-over check is batch-wide, so every block is rebuilt
            # before any is stepped.
            for block in blocks:
                block.evaluate()
                block.rebuild(t)
            alone = flow.kept.sum(axis=1) == 1
            if alone.any():
                raise NumericalBlowup(
                    "all germs degenerate after warm start", t, int(ids[alone].min())
                )
            basis = flow
            modes, *work = np.empty((6, n_el, n, truncation + 1))
            squares = np.empty((n_el, n, truncation))
            for block in blocks:
                block.use(basis, modes, work)
        # Each block is rebuilt, transferred and stepped before the next
        # starts. A blow-up is raised once every block has stepped, for the
        # earliest screen and, at that screen, the lowest element id: what
        # stepping the batch as one block reports.
        first = None
        for block in blocks:
            if rebuild:
                if not handover:
                    block.evaluate()
                    block.rebuild(t)
                block.transfer(t)
            found = block.step(t, dt)
            if found is not None and (first is None or found[:2] < first[:2]):
                first = found
        if first is not None:
            raise first[2]
        if rebuild and audit_orthogonality:
            np.maximum(max_residual, _max_offdiag_residual(basis, weights), out=max_residual)
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

