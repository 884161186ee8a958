"""Reference solutions and error metrics for the benchmark harness.

Three oracles of decreasing exactness: a closed-form solution for the random
oscillator, dense per-node integration ("quasi-exact") for anything without a
closed form, and plain Monte Carlo. All three report moments on the same
uniform time grid as the solver so errors are a direct subtraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy import special

from .aggregate import MomentSeries
from .flowmap import ModelSpec
from .fsc_element import NumericalBlowup, step_count
from .measures import Distribution, DistributionKind, build_quadrature, gauss_legendre

# Quantile at which the untruncated gamma reference window is cut.
_GAMMA_TAIL = 1e-12
_TIME_BLOCK = 2048
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
# batches, over six interleaved pairs of runs.
_RK4_CHUNK = 8192


def _reference_rule(distribution: Distribution, points: int):
    """Nodes and density-weights for integrating against one axis law.

    For the truncated gamma the window runs from the support's lower end to
    the untruncated quantile 1 - 1e-12 and the weights carry the parent
    (untruncated) density; the bounded laws use their own support and
    normalized density.
    """
    if distribution.kind is DistributionKind.TRUNCATED_GAMMA:
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


def exact_problem1_moments(
    times,
    distribution: Distribution,
    *,
    mass: float = 100.0,
    displacement: float = 0.05,
    velocity: float = 0.20,
) -> MomentSeries:
    """Closed-form moments of the random-stiffness oscillator.

    u(t, xi) = u0 cos(w t) + (v0/w) sin(w t) with w = sqrt(xi/mass); moments
    by 200-point Gauss quadrature against the stiffness law (the parent gamma
    density when the law is a truncated gamma).
    """
    times = np.asarray(times, dtype=float)
    nodes, w = _reference_rule(distribution, 200)
    omega = np.sqrt(nodes / mass)
    mean = np.empty((2, times.size))
    var = np.empty((2, times.size))
    for start in range(0, times.size, _TIME_BLOCK):
        block = times[start : start + _TIME_BLOCK, None]
        phase = block * omega
        cos, sin = np.cos(phase), np.sin(phase)
        u = displacement * cos + (velocity / omega) * sin
        v = velocity * cos - displacement * omega * sin
        for row, values in enumerate((u, v)):
            first = values @ w
            second = (values * values) @ w
            mean[row, start : start + block.size] = first
            var[row, start : start + block.size] = second - first * first
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
    """Views that :func:`_pointwise_rk4` steps ``states`` through, in place.

    The nodes are independent, so they are stepped in chunks of at most
    _RK4_CHUNK. Each chunk is (nodes, states, k1, k2, k3, k4, stage): views
    of the caller's arrays and of one work array allocated here, which all
    chunks share.
    """
    n, size = states.shape
    work = np.empty((5, n, min(size, _RK4_CHUNK)))
    return [
        (
            nodes[lo : lo + _RK4_CHUNK],
            states[:, lo : lo + _RK4_CHUNK],
            *work[:, :, : min(_RK4_CHUNK, size - lo)],
        )
        for lo in range(0, size, _RK4_CHUNK)
    ]


def _pointwise_rk4(model: ModelSpec, chunks, t, dt) -> None:
    """One classical RK4 step of every node's ODE, in place.

    ``chunks`` come from :func:`_rk4_chunks`. The arithmetic is that of
    states + (dt/6) (k1 + 2 (k2 + k3) + k4) with each stage at
    states + h k, operation for operation, so in-place updates give the
    same bits as fresh arrays would.
    """
    half = 0.5 * dt
    for nodes, states, k1, k2, k3, k4, stage in chunks:
        model.rhs(t, nodes, states, out=k1)
        np.multiply(k1, half, out=stage)
        stage += states
        model.rhs(t + half, nodes, stage, out=k2)
        np.multiply(k2, half, out=stage)
        stage += states
        model.rhs(t + half, nodes, stage, out=k3)
        np.multiply(k3, dt, out=stage)
        stage += states
        model.rhs(t + dt, nodes, stage, out=k4)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= dt / 6.0
        states += k2


def check_quasi_exact_grid(dimension: int, points_per_axis: int = QUASI_EXACT_POINTS):
    """Refuse a quasi-exact tensor grid of more than QUASI_EXACT_MAX_NODES nodes."""
    nodes = points_per_axis**dimension
    if nodes > QUASI_EXACT_MAX_NODES:
        raise ValueError(
            f"quasi-exact reference grid of {nodes} nodes "
            f"({points_per_axis}^{dimension}) exceeds {QUASI_EXACT_MAX_NODES}; "
            "use the monte_carlo reference for this problem"
        )


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
    with RK4 at one tenth of the output step; moments are quadrature sums.
    Quadrature at this density is far beyond the solver's resolution, so the
    result serves as a reference wherever no closed form exists. Grids of
    more than QUASI_EXACT_MAX_NODES nodes are refused.
    """
    check_quasi_exact_grid(len(distributions), points_per_axis)
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
    chunks = _rk4_chunks(nodes, states)
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
    for i in range(times.size - 1):
        sub = dt / refinement
        t = times[i]
        for k in range(refinement):
            _pointwise_rk4(model, chunks, t + k * sub, sub)
        record(i + 1)
    return MomentSeries(
        times=times, mean=mean, variance=var, component_names=model.component_names
    )


def monte_carlo_moments(
    model: ModelSpec,
    distributions: tuple[Distribution, ...],
    n_samples: int,
    dt: float,
    duration: float,
    seed: int,
    *,
    batch_size: int = _MC_BATCH,
) -> MomentSeries:
    """Monte Carlo moments with the solver's own step size and integrator.

    Samples come from a single counter-based stream (Philox) through the
    inverse CDFs, are integrated in fixed-size batches, and per-step batch
    statistics are merged with the standard parallel-variance update. The
    whole pipeline is sequential and order-fixed, so a given (seed,
    n_samples) pair reproduces bit-identical series on any machine.
    ``duration`` must be a whole number of steps.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n_steps = step_count(duration, dt)
    times = np.arange(n_steps + 1) * dt
    n = model.state_dim
    rng = np.random.Generator(np.random.Philox(seed))

    count = 0
    mean = np.zeros((n, n_steps + 1))
    m2 = np.zeros((n, n_steps + 1))
    for start in range(0, n_samples, batch_size):
        b = min(batch_size, n_samples - start)
        uniforms = rng.random((b, len(distributions)))
        params = np.column_stack(
            [dist.ppf(uniforms[:, k]) for k, dist in enumerate(distributions)]
        )
        states = np.array(model.initial_state(params), dtype=float)
        chunks = _rk4_chunks(params, states)
        deviation = np.empty_like(states)
        batch_mean = np.empty((n, n_steps + 1))
        batch_m2 = np.empty((n, n_steps + 1))

        for i in range(n_steps + 1):
            if i:
                _pointwise_rk4(model, chunks, times[i - 1], dt)
            bm = states.mean(axis=1)
            np.subtract(states, bm[:, None], out=deviation)
            deviation *= deviation
            batch_mean[:, i] = bm
            batch_m2[:, i] = deviation.sum(axis=1)

        total = count + b
        delta = batch_mean - mean
        mean += delta * (b / total)
        m2 += batch_m2 + delta * delta * (count * b / total)
        count = total

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
