"""Element orchestration and global moments.

Global statistics come from the per-element conditional moments through the
laws of total expectation and total variance. Elements are solved together
in one batched time loop; with several workers each takes a contiguous range
of element indices as its batch, and a fixed by-index reduction keeps the
result independent of scheduling. The solve and the Monte Carlo oracle
both fork through :func:`fork_reduce`: the parent runs the first call, each
other call runs in its own forked child, with one pipe that carries its
blocks and then its outcome to the parent (:class:`_Child`), and the parent
combines each block of all the calls in call order.
"""
from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

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


class _BlockReducer:
    """The parent's side of :func:`fork_reduce`: one ``combine`` per block.

    The parent's own call, the first, hands it each block as
    ``(start, *arrays)``. It then takes the same block from each worker
    call's child, in call order, and calls ``combine(start, *arrays)`` with
    each array concatenated over the calls along axis 0.

    A worker call that fails, or whose process dies, sends its outcome in
    place of a block. From then on nothing is combined: the calls after it
    are killed, and those before it are still read to their end, so that
    every call that could raise an earlier error still runs.
    """

    def __init__(self, combine, children):
        self.combine = combine
        self.children = children
        # Worker calls still sending blocks are children[:reading].
        self.reading = len(children)
        self.error = None

    def __call__(self, start, *arrays) -> None:
        parts = [arrays]
        for b in range(self.reading):
            message = self.children[b].receive()
            # A block is (start, *arrays) with two arrays or more; the
            # outcome, (False, error), has two items.
            if len(message) == 2:
                self.reading, self.error = b, message[1]
                for child in self.children[b + 1 :]:
                    child.stop()
                break
            parts.append(message[1:])
        if self.error is not None:
            return
        if len(parts) > 1:
            arrays = [np.concatenate(column) for column in zip(*parts)]
        self.combine(start, *arrays)


def fork_reduce(calls, combine) -> list:
    """Run ``call(outlet)`` for each call; return their results in call order.

    The parent runs the first call itself and forks a child for each of the
    rest (see :func:`_forked`); with one call nothing is forked. Every call
    hands ``outlet(start, *arrays)`` the same number of blocks, so the
    blocks line up (see :class:`_BlockReducer`). The error raised is that
    of the lowest-index failing call. No child outlives this call, and
    children die with the parent (see :func:`_die_with_parent`).
    """
    with _forked(calls[1:]) as children:
        reducer = _BlockReducer(combine, children)
        first = calls[0](reducer)
        results = [child.result() for child in children[: reducer.reading]]
        if reducer.error is not None:
            raise reducer.error
        return [first, *results]


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
    worker, run through :func:`fork_reduce`: the parent solves the first
    range and a forked child each of the rest. Each batch hands its local
    moments on a block of steps at a time, the children's through their
    pipes, and the parent reduces each block to global moments once every
    batch has delivered it, so no per-element series is stored. An
    element's numbers do not depend on its batch, and the reduction sums
    over elements in index order, so the output is bit-identical for any
    worker count, block size and completion order. A blow-up names the
    lowest offending element id (see :class:`_BlockReducer`).
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

    def write(start, means, variances):
        stop = start + means.shape[2]
        global_mean[:, start:stop], global_var[:, start:stop] = _total_moments(
            means, variances, masses
        )

    calls = [partial(_solve_batch, n_elements, batch) for batch in args]
    outcomes = fork_reduce(calls, write)
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
