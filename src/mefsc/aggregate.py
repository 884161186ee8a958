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

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice

import numpy as np

from .flowmap import ModelSpec, check_truncation
from .fsc_element import (
    FallbackEvent,
    LocalSeries,
    WarmStart,
    run_elements,
    step_count,
)
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
    keep_local: bool = False
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
    local_series: list[LocalSeries] | None = None


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


def total_expectation(local_means, masses) -> float:
    """Mass-weighted combination of conditional means."""
    local_means = np.asarray(local_means, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if local_means.shape != masses.shape:
        raise ValueError("one mean per element required")
    _check_masses(masses)
    return float(np.sum(masses * local_means))


def total_variance(local_means, local_vars, masses) -> float:
    """Law of total variance for a partition of the random domain.

    Sum of mass-weighted conditional variances, plus the mass-weighted
    spread of the conditional means about the total mean.
    """
    local_means = np.asarray(local_means, dtype=float)
    local_vars = np.asarray(local_vars, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if local_means.shape != masses.shape or local_vars.shape != masses.shape:
        raise ValueError("one mean and one variance per element required")
    _check_masses(masses)
    return float(_total_moments(local_means, local_vars, masses)[1])


def fan_out(fn, calls, workers: int):
    """Yield ``fn(*call)`` for each call in ``calls``, in call order.

    ``calls`` is drawn lazily, ``workers`` calls at a time, so at most one
    group's arguments are held at once. Of each group the parent runs the
    first call itself and ``workers - 1`` forked processes run the rest. A
    group's results are yielded once every call of the group has finished;
    if any of them failed, the error of the first failing call is raised
    instead and no later call is drawn, so the error is that of the
    lowest-index failing call. The pool is shut down before the error leaves
    and when the generator ends or is closed. With one worker or one call
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

    with ProcessPoolExecutor(max_workers=len(group) - 1) as pool:
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

    With one worker and no ``keep_local`` the elements form one batch whose
    local moments are reduced to global ones inside its time loop, a block of
    steps at a time, so no per-element series is stored. With ``workers > 1``
    the elements are split into contiguous index ranges, one batch per worker
    (the parent solves the first range; see :func:`fan_out`), and their
    series are reduced once all have returned. An
    element's numbers do not depend on its batch, and the reduction sums
    over elements in index order, so the output is bit-identical for any
    worker count, block size and completion order.
    """
    partition = partition_random_domain(config.distributions, config.element_counts)
    masses = partition.masses
    _check_masses(masses)
    n_elements = partition.n_elements
    n_steps = step_count(config.duration, config.dt)
    global_mean = np.empty((config.model.state_dim, n_steps + 1))
    global_var = np.empty_like(global_mean)

    def reduce(start, means, variances):
        stop = start + means.shape[2]
        global_mean[:, start:stop], global_var[:, start:stop] = _total_moments(
            means, variances, masses
        )

    batches = np.array_split(np.arange(n_elements), min(config.workers, n_elements))
    streamed = len(batches) == 1 and not config.keep_local
    solve = partial(run_elements, reduce=reduce) if streamed else run_elements
    calls = [_batch_args(config, partition, ids) for ids in batches]
    locals_ = [
        series for batch in fan_out(solve, calls, config.workers) for series in batch
    ]
    if not streamed:
        reduce(
            0,
            np.stack([series.mean for series in locals_]),
            np.stack([series.variance for series in locals_]),
        )

    events = [ev for series in locals_ for ev in series.fallback_events]
    residuals = [
        series.max_orthogonality_residual
        for series in locals_
        if series.max_orthogonality_residual is not None
    ]
    return MomentSeries(
        times=locals_[0].times,
        mean=global_mean,
        variance=global_var,
        component_names=config.model.component_names,
        partition=partition,
        fallback_events=events,
        max_orthogonality_residual=max(residuals) if residuals else None,
        local_series=list(locals_) if config.keep_local else None,
    )
