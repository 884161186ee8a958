"""Element orchestration and global moments.

Global statistics come from the per-element conditional moments through the
laws of total expectation and total variance. Elements are solved together
in one batched time loop; with several workers each takes a contiguous range
of element indices as its batch, and a fixed by-index reduction keeps the
result independent of scheduling. :func:`fan_out` is the one place that
spreads calls over worker processes, for the solve and the Monte Carlo
oracle alike.
"""
from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
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
    """Pool initializer: end this worker when the process that forked it dies.

    An idle worker holds the write ends of its own call-queue pipe, so it
    would never see EOF and would wait for good once its parent is killed
    without unwinding. Where the C library has ``prctl`` the kernel sends
    the worker SIGKILL when its parent dies; a parent that died before that
    was set up is caught by the parent-pid check.
    """
    import ctypes

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def fan_out(fn, calls, workers: int):
    """Yield ``fn(*call)`` for each call in ``calls``, in call order.

    ``calls`` is drawn lazily, ``workers`` calls at a time, so at most one
    group's arguments are held at once. Of each group the parent runs the
    first call itself and ``workers - 1`` forked processes run the rest. A
    group's results are yielded once every call of the group has finished;
    if any of them failed, the error of the first failing call is raised
    instead and no later call is drawn, so the error is that of the
    lowest-index failing call. The pool is shut down before the error leaves
    and when the generator ends or is closed, and its workers die with the
    parent (see :func:`_die_with_parent`). With one worker or one call
    everything runs inline and no pool is built.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    calls = iter(calls)
    group = list(islice(calls, workers))
    if len(group) < 2:
        yield from (fn(*call) for call in chain(group, calls))
        return
    from concurrent.futures import ProcessPoolExecutor, wait
    from multiprocessing import get_context

    # Forked workers inherit the solve's block pipes (see run_me_fsc).
    with ProcessPoolExecutor(
        len(group) - 1,
        mp_context=get_context("fork"),
        initializer=_die_with_parent,
        initargs=(os.getpid(),),
    ) as pool:
        while group:
            futures = [pool.submit(fn, *call) for call in group[1:]]
            try:
                results = [fn(*group[0])]
            finally:
                wait(futures)
            results += [future.result() for future in futures]
            # Free this group's arguments before the next group is drawn.
            del group, futures
            yield from results
            group = list(islice(calls, workers))


class _Stopped(Exception):
    """A worker batch was told to stop because an earlier batch failed."""


# Both ends of each block pipe of the solves in progress, keyed by the
# descriptor of the worker's end. The pipes are made before the pool forks,
# so a forked worker finds its end here, and closes every parent end it
# inherited: then a pipe joins only its worker and the parent, and a worker
# whose parent has gone gets an error instead of waiting to send for good.
_PIPES: dict = {}


class _BlockSender:
    """A worker batch's end of its block pipe to the parent.

    It pickles as the key of its pipe in ``_PIPES``. Each block of local
    moments goes to the parent as it fills; a batch that fails, or that the
    parent has stopped, sends ``None``.
    """

    def __init__(self, key: int):
        self.key = key
        self.conn = None

    def open(self) -> None:
        for parent_end, _ in _PIPES.values():
            parent_end.close()
        self.conn = _PIPES[self.key][1]

    def __call__(self, start, means, variances) -> None:
        if self.conn.poll():
            raise _Stopped("an earlier batch failed")
        self.conn.send((start, means, variances))

    def close(self, failed: bool) -> None:
        try:
            if failed:
                self.conn.send(None)
        except OSError:
            pass  # the parent has already stopped reading
        finally:
            self.conn.close()


class _BlockReducer:
    """The parent's side of a solve: global moments from every batch's blocks.

    The parent's own batch, the first, hands it each block of its local
    moments. It then takes the same block from each worker batch's pipe, in
    batch order, and reduces their concatenation, which is in element-index
    order. All batches use one block width, so the blocks line up.

    A worker batch that fails, or whose process dies, ends its pipe early.
    From then on nothing is reduced: the batches after it are stopped, and
    those before it are still read to their end, so that every batch that
    could raise a lower element id still runs (see :func:`fan_out`). When
    the parent's own batch fails, every worker batch is stopped and read to
    its end, so none is left blocked on a full pipe.
    """

    def __init__(self, masses, mean, variance, n_workers: int):
        self.masses = masses
        self.mean = mean
        self.variance = variance
        self.failed = False
        self.pipes = []
        self.senders = []
        if n_workers:
            from multiprocessing import Pipe

            for _ in range(n_workers):
                mine, theirs = Pipe()
                _PIPES[theirs.fileno()] = (mine, theirs)
                self.pipes.append(mine)
                self.senders.append(_BlockSender(theirs.fileno()))

    def open(self) -> None:
        # The pool has forked by now, so the workers hold their ends. With
        # the parent's copies closed, a worker that dies ends its pipe.
        for sender in self.senders:
            _PIPES[sender.key][1].close()

    def __call__(self, start, means, variances) -> None:
        parts = [(means, variances)]
        for b in range(len(self.pipes)):
            if self.pipes[b] is not None:
                block = self._receive(b)
                if block is not None:
                    parts.append(block[1:])
        if self.failed:
            return
        if len(parts) > 1:
            means = np.concatenate([m for m, _ in parts])
            variances = np.concatenate([v for _, v in parts])
        stop = start + means.shape[2]
        self.mean[:, start:stop], self.variance[:, start:stop] = _total_moments(
            means, variances, self.masses
        )

    def close(self, failed: bool) -> None:
        if failed:
            self.failed = True
            self._stop(range(len(self.pipes)))
            for b in range(len(self.pipes)):
                while self.pipes[b] is not None:
                    self._receive(b)

    def release(self) -> None:
        """Close and forget every pipe, whether or not the solve got to run."""
        for sender in self.senders:
            for end in _PIPES.pop(sender.key):
                end.close()

    def _receive(self, b: int):
        """Next block from worker batch ``b``; None once the batch has failed."""
        try:
            block = self.pipes[b].recv()
        except (EOFError, ConnectionResetError):
            # The process died (a reset if it left our stop unread); the
            # pool reports it.
            block = None
        if block is None:
            self.failed = True
            self._stop(range(b + 1, len(self.pipes)))
        if block is None or block[0] + block[1].shape[2] == self.mean.shape[1]:
            self.pipes[b] = None
        return block

    def _stop(self, batches) -> None:
        for b in batches:
            if self.pipes[b] is not None:
                try:
                    self.pipes[b].send(None)
                except OSError:
                    pass  # the batch has already ended


def _solve_batch(outlet, n_elements: int, *args):
    """Solve one batch, handing its moment blocks to ``outlet``.

    Returns the batch's fallback events and orthogonality residuals.
    """
    outlet.open()
    try:
        series = run_elements(*args, reduce=outlet, block_elements=n_elements)
    except BaseException:
        outlet.close(failed=True)
        raise
    outlet.close(failed=False)
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
    worker; the parent solves the first range and forked processes the rest
    (see :func:`fan_out`). Each batch hands its local moments on a block of
    steps at a time, the workers' through a pipe, and the parent reduces
    each block to global moments once every batch has delivered it, so no
    per-element series is stored. An element's numbers do not depend on its
    batch, and the reduction sums over elements in index order, so the
    output is bit-identical for any worker count, block size and completion
    order.
    """
    partition = partition_random_domain(config.distributions, config.element_counts)
    masses = partition.masses
    _check_masses(masses)
    n_elements = partition.n_elements
    n_steps = step_count(config.duration, config.dt)
    global_mean = np.empty((config.model.state_dim, n_steps + 1))
    global_var = np.empty_like(global_mean)

    batches = np.array_split(np.arange(n_elements), min(config.workers, n_elements))
    reducer = _BlockReducer(masses, global_mean, global_var, len(batches) - 1)
    events, residuals = [], []
    try:
        calls = [
            (outlet, n_elements, *_batch_args(config, partition, ids))
            for outlet, ids in zip([reducer, *reducer.senders], batches)
        ]
        if len(calls) > 1:
            # A call that cannot be pickled never reaches its worker, and the
            # parent would wait on that batch's pipe for good: fail here.
            import pickle

            pickle.dumps(calls[1])
            nodes = config.points_per_axis ** len(config.distributions)
            _reuse_freed_heap(8 * len(batches[0]) * (config.truncation + 1) * nodes)
        for batch_events, batch_residuals in fan_out(_solve_batch, calls, config.workers):
            events += batch_events
            residuals += batch_residuals
    finally:
        reducer.release()
    return MomentSeries(
        times=np.arange(n_steps + 1) * config.dt,
        mean=global_mean,
        variance=global_var,
        component_names=config.model.component_names,
        partition=partition,
        fallback_events=events,
        max_orthogonality_residual=max(residuals) if residuals else None,
    )
