"""Element orchestration and global moments.

Global statistics come from the per-element conditional moments through the
laws of total expectation and total variance. Elements are solved together
in one batched time loop; with several workers each takes a contiguous range
of element indices as its batch, and a fixed by-index reduction keeps the
result independent of scheduling.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .flowmap import ModelSpec
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
        n = self.model.state_dim
        if self.truncation < n + 1:
            raise ValueError(
                f"truncation must be at least state_dim+1 = {n + 1} "
                f"for model {self.model.name!r}"
            )
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

    With ``workers > 1`` the elements are split into contiguous index ranges,
    one batch per worker process. An element's numbers do not depend on its
    batch, and the reduction is a pairwise sum over elements in index order,
    so the output is bit-identical for any worker count and completion order.
    """
    partition = partition_random_domain(config.distributions, config.element_counts)
    masses = partition.masses
    _check_masses(masses)
    n_elements = partition.n_elements

    batches = np.array_split(np.arange(n_elements), min(config.workers, n_elements))
    if len(batches) > 1:
        with ProcessPoolExecutor(max_workers=len(batches)) as pool:
            futures = [
                pool.submit(run_elements, *_batch_args(config, partition, ids))
                for ids in batches
            ]
            locals_ = [series for future in futures for series in future.result()]
    else:
        locals_ = run_elements(*_batch_args(config, partition, batches[0]))

    global_mean, global_var = _total_moments(
        np.stack([series.mean for series in locals_]),
        np.stack([series.variance for series in locals_]),
        masses,
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
