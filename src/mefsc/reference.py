"""Reference solutions and error metrics for the benchmark harness.

Three oracles of decreasing exactness: a closed-form solution for the random
oscillator, dense per-node integration ("quasi-exact") for anything without a
closed form, and plain Monte Carlo. All three report moments on the same
uniform time grid as the solver so errors are a direct subtraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isfinite

import numpy as np

from .aggregate import MomentSeries, fork_reduce
from .basis import aligned_empty
from .flowmap import ModelSpec
from .fsc_element import NumericalBlowup, rk4_step, step_count
from .measures import Distribution, DistributionKind, build_quadrature, gauss_legendre
from .models import _OSC_MASS, _OSC_U0, _OSC_V0

# Quantile at which the untruncated gamma reference window is cut.
_GAMMA_TAIL = 1e-12
# Times per block of the closed-form oracle. Its (64, 200) float64
# temporaries are 100 kB: they stay in a core's L2 cache and below glibc's
# default 128 kB mmap threshold, so every call reuses heap memory instead of
# faulting in fresh pages, whatever the process allocated before.
_TIME_BLOCK = 64
_MC_BATCH = 50_000
# Points per axis of the quasi-exact tensor grid, and the largest grid it
# integrates (problem 4's 200^3 = 8e6 nodes would hold hundreds of megabytes
# of node and state arrays and run for hours).
QUASI_EXACT_POINTS = 200
QUASI_EXACT_MAX_NODES = 10**6
# Nodes per RK4 chunk, so that the arrays one step works on stay in a core's
# 2 MB L2 cache for up to three state components. On a shared 2-core Xeon
# host the three-mode Monte Carlo oracle (1e5 samples, 100 steps) took a
# median 0.41 s in chunks of 8192 against 0.51 s in whole 50000-sample
# batches, over six interleaved pairs of runs. The work array starts on a
# cache line (basis.aligned_empty): on the same host one RK4 step of a
# 50000-sample batch (7 chunks) took 0.78-0.82 ms with it on a line and
# 1.08-1.13 ms with it 16 bytes past one, whatever the state's offset
# (minimum of six interleaved rounds). Aligning the state and deviation
# arrays too did not move the 1e5-sample oracle (minima 0.222 against
# 0.224 s over 14 interleaved rounds), so they stay plain.
_RK4_CHUNK = 8192


def _reference_rule(distribution: Distribution, points: int):
    """Nodes and density-weights for integrating against one axis law.

    For the truncated gamma the window runs from the support's lower end to
    the untruncated quantile 1 - 1e-12 and the weights carry the parent
    (untruncated) density; the bounded laws use their own support and
    normalized density.
    """
    if distribution.kind is DistributionKind.TRUNCATED_GAMMA:
        from scipy import special

        shape, rate = distribution.shape_a, distribution.shape_b
        lo = distribution.lower
        hi = lo + float(special.gammaincinv(shape, 1.0 - _GAMMA_TAIL)) / rate
        parent = distribution.support_mass
    else:
        lo, hi = distribution.support
        parent = 1.0
    gl_x, gl_w = gauss_legendre(points)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid + half * gl_x
    weights = gl_w * half * distribution.pdf(nodes) * parent
    return nodes, weights


def exact_problem1_moments(times, distribution: Distribution) -> MomentSeries:
    """Closed-form moments of the random-stiffness oscillator.

    u(t, xi) = u0 cos(w t) + (v0/w) sin(w t) with w = sqrt(xi/mass), the
    mass and initial state being those of ``models.oscillator``; moments
    by 200-point Gauss quadrature against the stiffness law (the parent gamma
    density when the law is a truncated gamma).
    """
    times = np.asarray(times, dtype=float)
    nodes, w = _reference_rule(distribution, 200)
    omega = np.sqrt(nodes / _OSC_MASS)
    mean = np.empty((2, times.size))
    var = np.empty((2, times.size))
    # The last block is padded with zero times to the full _TIME_BLOCK rows:
    # a matrix-vector product of fewer rows may round a row differently, and
    # then a time's moments would depend on the length of the grid.
    padded = np.zeros(-(-times.size // _TIME_BLOCK) * _TIME_BLOCK)
    padded[: times.size] = times
    for start in range(0, times.size, _TIME_BLOCK):
        block = padded[start : start + _TIME_BLOCK, None]
        stop = min(start + _TIME_BLOCK, times.size)
        phase = block * omega
        cos, sin = np.cos(phase), np.sin(phase)
        u = _OSC_U0 * cos + (_OSC_V0 / omega) * sin
        v = _OSC_V0 * cos - _OSC_U0 * omega * sin
        for row, values in enumerate((u, v)):
            first = values @ w
            second = (values * values) @ w
            mean[row, start:stop] = first[: stop - start]
            var[row, start:stop] = (second - first * first)[: stop - start]
    return MomentSeries(
        times=times,
        mean=mean,
        variance=np.maximum(var, 0.0),
        component_names=("u", "dudt"),
    )


def _full_domain_grid(distributions, points_per_axis):
    box = np.array([dist.support for dist in distributions])
    return build_quadrature(box, distributions, points_per_axis)


def _rk4_chunks(nodes, states: np.ndarray) -> list[tuple]:
    """Chunks ``(nodes, states, work)`` of at most _RK4_CHUNK independent
    nodes, for :func:`rk4_step` to step in place: views of the caller's
    arrays and of one work array allocated here, which all chunks share.
    """
    n, size = states.shape
    work = aligned_empty((5, n, min(size, _RK4_CHUNK)))
    return [
        (
            nodes[lo : lo + _RK4_CHUNK],
            states[:, lo : lo + _RK4_CHUNK],
            tuple(work[:, :, : min(_RK4_CHUNK, size - lo)]),
        )
        for lo in range(0, size, _RK4_CHUNK)
    ]


def check_quasi_exact_grid(dimension: int, points_per_axis: int = QUASI_EXACT_POINTS):
    """Refuse a quasi-exact tensor grid of more than QUASI_EXACT_MAX_NODES nodes."""
    nodes = points_per_axis**dimension
    if nodes > QUASI_EXACT_MAX_NODES:
        raise ValueError(
            f"quasi-exact reference grid of {nodes} nodes "
            f"({points_per_axis}^{dimension}) exceeds {QUASI_EXACT_MAX_NODES}; "
            "use the monte_carlo reference for this problem"
        )


def _linear_matrices(model: ModelSpec, t: float, nodes: np.ndarray) -> np.ndarray:
    """A (n, n, Q) of a linear model, ``rhs(t, nodes, x) = A x`` at each node,
    read column by column from ``rhs`` on the n unit states."""
    n, q = model.state_dim, nodes.shape[0]
    a = np.empty((n, n, q))
    unit = np.zeros((n, q))
    for j in range(n):
        unit[j] = 1.0
        model.rhs(t, nodes, unit, out=a[:, j])
        unit[j] = 0.0
    return a


def _rk4_increment(a: np.ndarray, h: float, steps: int) -> np.ndarray:
    """D with I + D = R(hA)^steps at each node of A (n, n, Q), R being RK4's
    polynomial 1 + z + z^2/2 + z^3/6 + z^4/24 of a linear autonomous system.

    D1 = R(hA) - I is formed as hA (I + hA/2 (I + hA/3 (I + hA/4))), and D
    accumulates (I + D)(I + D1) - I = D + D1 + D D1; the result is
    (n, n, Q), like A.
    """
    ha = h * a.transpose(2, 0, 1)
    eye = np.eye(a.shape[0])
    d1 = ha @ (eye + (ha / 2.0) @ (eye + (ha / 3.0) @ (eye + ha / 4.0)))
    d = d1
    for _ in range(steps - 1):
        d = d + d1 + d @ d1
    return np.ascontiguousarray(d.transpose(1, 2, 0))


def quasi_exact_moments(
    model: ModelSpec,
    distributions: tuple[Distribution, ...],
    times,
    *,
    points_per_axis: int = QUASI_EXACT_POINTS,
    refinement: int = 10,
) -> MomentSeries:
    """Moments from dense per-node integration over the whole domain.

    Each of the 200-per-axis tensor nodes is integrated as an ordinary ODE
    with RK4 at one ``refinement``-th of the output step; moments are
    quadrature sums. Quadrature at this density is far beyond the solver's
    resolution, so the result serves as a reference wherever no closed form
    exists. Grids of more than QUASI_EXACT_MAX_NODES nodes are refused, and
    so is a ``refinement`` below 1.

    A nonlinear model is stepped by :func:`rk4_step`, ``refinement``
    sub-steps per output step. For a linear model (``ModelSpec.linear``)
    those sub-steps are one fixed linear map per node, so A is read from
    ``rhs`` once and each output step adds D x to the state, with I + D the
    ``refinement``-th power of RK4's propagator (:func:`_rk4_increment`):
    the same scheme, equal to the sub-stepped one up to rounding. The
    increment form matters: stepping x <- (I + D) x instead loses the low
    bits of D in I + D. Over 2 s of the third-order preset that put the
    means 3 times farther from the per-node matrix exponential (1.3e-14
    against 3.8e-15), and 60 times farther with I + D formed as the product
    of ten I + D1.
    """
    check_quasi_exact_grid(len(distributions), points_per_axis)
    if refinement < 1:
        raise ValueError(f"refinement must be at least 1, got {refinement!r}")
    times = np.asarray(times, dtype=float)
    if times.size > 1:
        spacing = np.diff(times)
        dt = float(spacing[0])
        if not np.allclose(spacing, dt, rtol=1e-9, atol=0.0):
            raise ValueError("time grid must be uniform")
    grid = _full_domain_grid(distributions, points_per_axis)
    nodes, w = grid.nodes, grid.weights
    n = model.state_dim
    states = np.array(model.initial_state(nodes), dtype=float)
    centered = np.empty_like(states)
    mean = np.empty((n, times.size))
    var = np.empty((n, times.size))

    def record(index):
        if not isfinite(float(states.sum())):
            raise NumericalBlowup("non-finite reference state", times[index], -1)
        first = states @ w
        np.subtract(states, first[:, None], out=centered)
        np.multiply(centered, centered, out=centered)
        mean[:, index] = first
        var[:, index] = centered @ w

    record(0)
    if model.linear and times.size > 1:
        # One contraction over j of D[i, j, q] x[j, q] per output step. With
        # the node axis last it took 3.3 us for 200 nodes of a 3-state
        # model, against 14 us for np.matmul of (Q, n, n) by (Q, n, 1).
        a = _linear_matrices(model, float(times[0]), nodes)
        d = _rk4_increment(a, dt / refinement, refinement)
        increment = np.empty_like(states)
        for i in range(times.size - 1):
            np.einsum("ijq,jq->iq", d, states, out=increment)
            states += increment
            record(i + 1)
    else:
        chunks = _rk4_chunks(nodes, states)
        for i in range(times.size - 1):
            sub = dt / refinement
            t = times[i]
            for k in range(refinement):
                for at, chunk, work in chunks:
                    rk4_step(model.rhs, t + k * sub, sub, at, chunk, work)
            record(i + 1)
    return MomentSeries(
        times=times, mean=mean, variance=var, component_names=model.component_names
    )


def _monte_carlo_batch(model: ModelSpec, params: np.ndarray, times: np.ndarray, dt: float):
    """Sample count, per-step mean and per-step sum of squared deviations of
    one Monte Carlo batch, integrated with RK4 steps of ``dt`` on ``times``."""
    n = model.state_dim
    states = np.array(model.initial_state(params), dtype=float)
    chunks = _rk4_chunks(params, states)
    deviation = np.empty_like(states)
    batch_mean = np.empty((n, times.size))
    batch_m2 = np.empty((n, times.size))
    for i in range(times.size):
        if i:
            for at, chunk, work in chunks:
                rk4_step(model.rhs, times[i - 1], dt, at, chunk, work)
        bm = states.mean(axis=1)
        np.subtract(states, bm[:, None], out=deviation)
        deviation *= deviation
        batch_mean[:, i] = bm
        batch_m2[:, i] = deviation.sum(axis=1)
    return states.shape[1], batch_mean, batch_m2


def monte_carlo_moments(
    model: ModelSpec,
    distributions: tuple[Distribution, ...],
    n_samples: int,
    dt: float,
    duration: float,
    seed: int,
    *,
    batch_size: int = _MC_BATCH,
    workers: int = 1,
) -> MomentSeries:
    """Monte Carlo moments with the solver's own step size and integrator.

    Samples come from a single counter-based stream (Philox) through the
    inverse CDFs, are integrated in fixed-size batches, and per-step batch
    statistics are merged in batch order with the standard parallel-variance
    update (Chan, Golub & LeVeque 1983). Batch j runs on worker j mod
    ``workers``, the parent being worker 0 and the others forked children
    (:func:`~mefsc.aggregate.fork_reduce`); each draws its own samples. The
    batches' arithmetic and merge order are fixed, so a (seed, n_samples)
    pair gives bit-identical series on any machine and for any worker
    count. ``duration`` must be a whole number of steps.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_steps = step_count(duration, dt)
    times = np.arange(n_steps + 1) * dt
    axes = len(distributions)
    n_batches = -(-n_samples // batch_size)
    workers = min(workers, n_batches)
    count = 0
    mean = np.zeros((model.state_dim, n_steps + 1))
    m2 = np.zeros_like(mean)
    empty = np.empty((0, *mean.shape))

    def worker(w, outlet):
        # Hands over batch j as a block of sizes (1,), means and m2s (1, n, T),
        # or an empty block past the last batch, so the rounds line up.
        for j in range(w, -(-n_batches // workers) * workers, workers):
            if j >= n_batches:
                outlet(j, np.empty(0, dtype=int), empty, empty)
                continue
            # Philox is counter-based, four 64-bit draws per counter step, so
            # a jump reaches the batch's first draw exactly (Salmon, Moraes,
            # Dror & Shaw, SC 2011); a sample takes one draw per axis.
            first = j * batch_size
            bits = np.random.Philox(seed)
            bits.advance(first * axes // 4)
            bits.random_raw(first * axes % 4)
            size = min(batch_size, n_samples - first)
            uniforms = np.random.Generator(bits).random((size, axes))
            params = np.column_stack(
                [dist.ppf(uniforms[:, k]) for k, dist in enumerate(distributions)]
            )
            del uniforms
            b, batch_mean, batch_m2 = _monte_carlo_batch(model, params, times, dt)
            outlet(j, np.array([b]), batch_mean[None], batch_m2[None])

    def merge(_, sizes, batch_means, batch_m2s):
        nonlocal count, mean, m2
        for b, batch_mean, batch_m2 in zip(sizes.tolist(), batch_means, batch_m2s):
            total = count + b
            delta = batch_mean - mean
            mean += delta * (b / total)
            m2 += batch_m2 + delta * delta * (count * b / total)
            count = total

    # Load what each law's ppf needs (scipy for most) here, once, rather
    # than in every forked worker.
    for dist in distributions:
        dist.ppf(np.empty(0))
    fork_reduce([partial(worker, w) for w in range(workers)], merge)
    variance = m2 / (count - 1) if count > 1 else np.zeros_like(m2)
    return MomentSeries(
        times=times,
        mean=mean,
        variance=variance,
        component_names=model.component_names,
    )


@dataclass(frozen=True)
class ErrorSeries:
    """Pointwise and time-averaged absolute moment errors vs a reference."""

    times: np.ndarray
    mean_error: np.ndarray
    variance_error: np.ndarray
    global_mean_error: np.ndarray
    global_variance_error: np.ndarray
    component_names: tuple[str, ...]


def error_metrics(series: MomentSeries, reference: MomentSeries) -> ErrorSeries:
    """Absolute errors per step and their time averages.

    The global error is (dt/T) * sum over ALL steps, both endpoints
    included. A single-sample series (duration zero) reports its pointwise
    error as the global one.
    """
    if not np.array_equal(series.times, reference.times):
        raise ValueError("series and reference are on different time grids")
    if series.mean.shape != reference.mean.shape:
        raise ValueError("series and reference have different components")
    mean_error = np.abs(series.mean - reference.mean)
    variance_error = np.abs(series.variance - reference.variance)
    horizon = float(series.times[-1])
    if horizon > 0.0:
        dt = float(series.times[1] - series.times[0])
        scale = dt / horizon
        global_mean = scale * mean_error.sum(axis=1)
        global_var = scale * variance_error.sum(axis=1)
    else:
        global_mean = mean_error[:, 0].copy()
        global_var = variance_error[:, 0].copy()
    return ErrorSeries(
        times=series.times,
        mean_error=mean_error,
        variance_error=variance_error,
        global_mean_error=global_mean,
        global_variance_error=global_var,
        component_names=series.component_names,
    )
