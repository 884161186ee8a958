"""Element orchestration and global moments.

Global statistics come from the per-element conditional moments through the
laws of total expectation and total variance. Elements are solved together
in one batched time loop; with several workers each takes a contiguous range
of element indices as its batch, and a fixed by-index reduction keeps the
result independent of scheduling. Each worker call runs in its own forked
child, with one pipe that carries its messages and then its outcome to the
parent (:class:`_Child`); the solve and the Monte Carlo oracle's
:func:`fan_out` both fork through :func:`_forked`.
"""
from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice

import numpy as np

from .flowmap import ModelSpec, check_truncation
from .fsc_element import FallbackEvent, WarmStart, run_elements, step_count
from .measures import Distribution, RandomSpacePartition, partition_random_domain

MASS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Everything a multi-element run needs, minus CLI concerns."""

    model: ModelSpec
    distributions: tuple[Distribution, ...]
    element_counts: tuple[int, ...]
    truncation: int
    dt: float
    duration: float
    warmstart: WarmStart | None = None
    workers: int = 1
    points_per_axis: int = 10
    audit_orthogonality: bool = False

    def __post_init__(self):
        step_count(self.duration, self.dt)
        if self.warmstart is not None:
            step_count(self.warmstart.duration, self.dt, "warm-start duration")
        check_truncation(self.model, self.truncation)
        if len(self.distributions) != self.model.param_dim:
            raise ValueError("one distribution per model parameter required")
        if len(self.element_counts) != self.model.param_dim:
            raise ValueError("one element count per model parameter required")
        if any(c < 1 for c in self.element_counts):
            raise ValueError("element counts must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class MomentSeries:
    """Global mean and variance of each component on a uniform time grid."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    component_names: tuple[str, ...]
    partition: RandomSpacePartition | None = None
    fallback_events: list[FallbackEvent] = field(default_factory=list)
    max_orthogonality_residual: float | None = None


def _check_masses(masses: np.ndarray) -> None:
    total = float(np.sum(masses))
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise ValueError(f"element masses sum to {total!r}, expected 1")


def _total_moments(means: np.ndarray, variances: np.ndarray, masses: np.ndarray):
    """Laws of total expectation and variance over the leading (element) axis.

    The total variance is sum mu (V + (E - Ebar)^2): the mass-weighted
    conditional variances plus the spread of the conditional means about the
    total mean. Every term is non-negative, so cancellation between nearly
    equal conditional means cannot make the result negative.
    """
    mu = masses.reshape(masses.shape + (1,) * (means.ndim - 1))
    mean = np.sum(mu * means, axis=0)
    variance = np.sum(mu * (variances + (means - mean) ** 2), axis=0)
    return mean, variance


# glibc's mallopt parameter numbers.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _reuse_freed_heap(step_bytes: int) -> None:
    """Keep the heap that one step frees for the next, here and in forked workers.

    Every step of a batch allocates and frees arrays of up to about
    ``step_bytes``. glibc hands a freed heap top back to the OS once it
    passes twice the largest block the process has freed so far, so a
    process that never freed a much larger block faults the same pages in
    again at every step. On the three-mode benchmark's two-worker solve
    that was 25000 minor faults per batch against 5000, and about 9% of
    the solve. Fixing the mmap and trim thresholds at about two and four
    times ``step_bytes`` keeps that memory for reuse; forked workers
    inherit them. Where the C library has no ``mallopt`` nothing is done.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mmap_bytes = min(32 << 20, max(4 << 20, 2 * step_bytes))
        mallopt(_M_MMAP_THRESHOLD, mmap_bytes)
        mallopt(_M_TRIM_THRESHOLD, 2 * mmap_bytes)


# prctl's option number that asks for a signal when the parent dies.
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """End this worker child when the process that forked it dies.

    Called first in each child. A parent killed without unwinding cannot
    kill its children, and a child busy in its call would otherwise run on
    until it next writes to its pipe. Where the C library has ``prctl`` the
    kernel sends the child SIGKILL when its parent dies; a parent that died
    before that was set up is caught by the parent-pid check.
    """
    import ctypes

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


class _Child:
    """One worker call in a forked process, and the read end of its pipe.

    The process runs ``task(send)``: each ``send(*message)`` reaches the
    parent as one tuple, and the call's outcome, ``(True, result)`` or
    ``(False, error)``, follows as the last message. The call is forked,
    not pickled, so ``task`` may be any callable.
    """

    def __init__(self, task):
        from multiprocessing import Pipe, get_context

        self.conn, theirs = Pipe(duplex=False)
        self.process = get_context("fork").Process(
            target=_run_child, args=(task, theirs, os.getpid())
        )
        self.process.start()
        theirs.close()

    def receive(self):
        """The next message; an error outcome if the process died before its own."""
        try:
            return self.conn.recv()
        except EOFError:
            self.process.join()
            return False, RuntimeError(
                f"worker process {self.process.pid} died "
                f"(exit code {self.process.exitcode})"
            )

    def result(self):
        """The call's result, read after every message before it; errors are raised."""
        ok, value = self.receive()
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        """Kill the process if it still runs, and reap it."""
        self.process.kill()
        self.process.join()
        self.conn.close()


def _run_child(task, conn, parent: int) -> None:
    _die_with_parent(parent)
    try:
        outcome = True, task(lambda *message: conn.send(message))
    except Exception as error:
        outcome = False, error
    try:
        conn.send(outcome)
    except Exception as error:  # the result or error does not pickle
        value = outcome[1]
        message = f"worker could not send {type(value).__name__}: {value} ({error})"
        conn.send((False, RuntimeError(message)))


@contextmanager
def _forked(tasks):
    """Fork a :class:`_Child` for each task; kill and reap them all on exit."""
    children = []
    try:
        for task in tasks:
            children.append(_Child(task))
        yield children
    finally:
        for child in children:
            child.stop()


def fan_out(fn, calls, workers: int):
    """Yield ``fn(*call)`` for each call in ``calls``, in call order.

    ``calls`` is drawn lazily, ``workers`` calls at a time, so at most one
    group's arguments are held at once. Of each group the parent runs the
    first call itself and forks one child for each of the rest (see
    :func:`_forked`). A group's results are yielded once every call of the
    group has finished. The calls are read in order: if one fails, its
    error is raised once every call before it has succeeded, the rest of
    the group is killed rather than waited for, and no later call is drawn,
    so the error is that of the lowest-index failing call. No child
    outlives its group, and children die with the parent (see
    :func:`_die_with_parent`). With one worker or one call everything runs
    inline and nothing is forked.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    calls = iter(calls)
    group = list(islice(calls, workers))
    if len(group) < 2:
        yield from (fn(*call) for call in chain(group, calls))
        return
    while group:
        tasks = [lambda _, call=call: fn(*call) for call in group[1:]]
        with _forked(tasks) as children:
            results = [fn(*group[0])]
            results += [child.result() for child in children]
        # Free this group's arguments before the next group is drawn.
        del group, tasks, children
        yield from results
        group = list(islice(calls, workers))


class _BlockReducer:
    """The parent's side of a solve: global moments from every batch's blocks.

    The parent's own batch, the first, hands it each block of its local
    moments. It then takes the same block from each worker batch's child,
    in batch order, and reduces their concatenation, which is in
    element-index order. All batches use one block width, so the blocks
    line up.

    A worker batch that fails, or whose process dies, sends its outcome in
    place of a block. From then on nothing is reduced: the batches after it
    are killed, and those before it are still read to their end, so that
    every batch that could raise a lower element id still runs.
    """

    def __init__(self, masses, mean, variance, children):
        self.masses = masses
        self.mean = mean
        self.variance = variance
        self.children = children
        # Worker batches still sending blocks are children[:reading].
        self.reading = len(children)
        self.error = None

    def __call__(self, start, means, variances) -> None:
        parts = [(means, variances)]
        for b in range(self.reading):
            message = self.children[b].receive()
            if len(message) == 2:  # the outcome, (False, error), not a block
                self.reading, self.error = b, message[1]
                for child in self.children[b + 1 :]:
                    child.stop()
                break
            parts.append(message[1:])
        if self.error is not None:
            return
        if len(parts) > 1:
            means = np.concatenate([m for m, _ in parts])
            variances = np.concatenate([v for _, v in parts])
        stop = start + means.shape[2]
        self.mean[:, start:stop], self.variance[:, start:stop] = _total_moments(
            means, variances, self.masses
        )

    def results(self) -> list:
        """Every worker batch's result, once the parent's batch has finished.

        The error of the lowest failing batch is raised instead.
        """
        results = [child.result() for child in self.children[: self.reading]]
        if self.error is not None:
            raise self.error
        return results


def _solve_batch(n_elements: int, args, outlet):
    """Solve one batch, handing its moment blocks to ``outlet``.

    Returns the batch's fallback events and orthogonality residuals.
    """
    series = run_elements(*args, reduce=outlet, block_elements=n_elements)
    events = [ev for one in series for ev in one.fallback_events]
    residuals = [
        one.max_orthogonality_residual
        for one in series
        if one.max_orthogonality_residual is not None
    ]
    return events, residuals


def _batch_args(config: SolverConfig, partition: RandomSpacePartition, ids):
    return (
        partition.boxes[ids],
        ids,
        config.distributions,
        config.model,
        config.truncation,
        config.dt,
        config.duration,
        config.warmstart,
        config.points_per_axis,
        config.audit_orthogonality,
    )


def run_me_fsc(config: SolverConfig) -> MomentSeries:
    """Partition, solve every element, and aggregate at each time step.

    The elements are split into contiguous index ranges, one batch per
    worker; the parent solves the first range and a forked child each of
    the rest (see :func:`_forked`). Each batch hands its local moments on a
    block of steps at a time, the children's through their pipes, and the
    parent reduces each block to global moments once every batch has
    delivered it, so no per-element series is stored. An element's numbers
    do not depend on its batch, and the reduction sums over elements in
    index order, so the output is bit-identical for any worker count, block
    size and completion order. A blow-up names the lowest offending element
    id (see :class:`_BlockReducer`).
    """
    partition = partition_random_domain(config.distributions, config.element_counts)
    masses = partition.masses
    _check_masses(masses)
    n_elements = partition.n_elements
    n_steps = step_count(config.duration, config.dt)
    global_mean = np.empty((config.model.state_dim, n_steps + 1))
    global_var = np.empty_like(global_mean)

    batches = np.array_split(np.arange(n_elements), min(config.workers, n_elements))
    args = [_batch_args(config, partition, ids) for ids in batches]
    if len(args) > 1:
        nodes = config.points_per_axis ** len(config.distributions)
        _reuse_freed_heap(8 * len(batches[0]) * (config.truncation + 1) * nodes)
    tasks = [partial(_solve_batch, n_elements, batch) for batch in args[1:]]
    with _forked(tasks) as children:
        reducer = _BlockReducer(masses, global_mean, global_var, children)
        outcomes = [_solve_batch(n_elements, args[0], reducer), *reducer.results()]
    events = [ev for batch_events, _ in outcomes for ev in batch_events]
    residuals = [r for _, batch_residuals in outcomes for r in batch_residuals]
    return MomentSeries(
        times=np.arange(n_steps + 1) * config.dt,
        mean=global_mean,
        variance=global_var,
        component_names=config.model.component_names,
        partition=partition,
        fallback_events=events,
        max_orthogonality_residual=max(residuals) if residuals else None,
    )
