"""Reference oracles: closed form, dense per-node integration, Monte Carlo."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mefsc import (
    MODELS,
    Distribution,
    MomentSeries,
    error_metrics,
    exact_problem1_moments,
    monte_carlo_moments,
    quasi_exact_moments,
)
from mefsc import reference
from stepping import stacked_rhs

OSC = MODELS["oscillator"]
THIRD = MODELS["third_order"]

UNIFORM_K = Distribution.uniform(340.0, 460.0)
BETA_K = Distribution.beta(2.0, 5.0, 340.0, 460.0)
GAMMA_K = Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0)


def closed_form_u(t, k):
    omega = np.sqrt(k / 100.0)
    return 0.05 * np.cos(omega * t) + (0.2 / omega) * np.sin(omega * t)


def test_exact_initial_instant():
    series = exact_problem1_moments(np.array([0.0]), UNIFORM_K)
    assert np.allclose(series.mean[:, 0], [0.05, 0.2], rtol=1e-14)
    assert np.max(series.variance[:, 0]) < 1e-16


@pytest.mark.parametrize(
    "law,sampler",
    [
        (UNIFORM_K, lambda rng, n: rng.uniform(340.0, 460.0, n)),
        (BETA_K, lambda rng, n: 340.0 + 120.0 * rng.beta(2.0, 5.0, n)),
        # the oracle treats the gamma law as its untruncated parent
        (GAMMA_K, lambda rng, n: 340.0 + rng.gamma(10.0, 10.0, n)),
    ],
)
def test_exact_moments_vs_direct_sampling(law, sampler):
    rng = np.random.Generator(np.random.Philox(1234))
    n = 10**7
    k = sampler(rng, n)
    t = 1.0
    u = closed_form_u(t, k)
    series = exact_problem1_moments(np.array([t]), law)
    se_mean = u.std() / np.sqrt(n)
    assert abs(series.mean[0, 0] - u.mean()) < 3.0 * se_mean
    var_sample = u.var(ddof=1)
    se_var = var_sample * np.sqrt(2.0 / n)  # normal-theory scale, loose
    assert abs(series.variance[0, 0] - var_sample) < 5.0 * se_var


@pytest.mark.parametrize("law", [UNIFORM_K, BETA_K, GAMMA_K])
def test_exact_moments_do_not_depend_on_grid_length(law):
    times = np.arange(2001) * 1e-3
    full = exact_problem1_moments(times, law)
    for k in (1, 2, 65, 66, 129, 1025):
        prefix = exact_problem1_moments(times[:k], law)
        assert np.array_equal(prefix.mean, full.mean[:, :k])
        assert np.array_equal(prefix.variance, full.variance[:, :k])


def test_gamma_reference_keeps_parent_mass():
    # Under the parent-gamma convention the weights sum to the parent mass
    # of the quantile window, not to one.
    series = exact_problem1_moments(np.array([0.0]), GAMMA_K)
    assert abs(series.mean[0, 0] - 0.05) < 1e-10
    assert abs(series.mean[1, 0] - 0.2) < 1e-10


def test_quasi_exact_matches_closed_form():
    times = np.linspace(0.0, 10.0, 1001)
    quasi = quasi_exact_moments(OSC, (UNIFORM_K,), times)
    exact = exact_problem1_moments(times, UNIFORM_K)
    assert np.max(np.abs(quasi.mean - exact.mean)) < 1e-10
    assert np.max(np.abs(quasi.variance - exact.variance)) < 1e-10


def test_quasi_exact_point_mass_variance():
    half = 5e-10
    law = Distribution.uniform(400.0 - half, 400.0 + half)
    times = np.linspace(0.0, 1.0, 101)
    series = quasi_exact_moments(OSC, (law,), times)
    assert np.max(series.variance) < 1e-20
    exact = closed_form_u(times, 400.0)
    assert np.max(np.abs(series.mean[0] - exact)) < 1e-9


def test_quasi_exact_refinement_converged():
    times = np.linspace(0.0, 10.0, 1001)
    law = Distribution.uniform(2.0, 3.0)
    coarse = quasi_exact_moments(THIRD, (law,), times, refinement=10)
    fine = quasi_exact_moments(THIRD, (law,), times, refinement=20)
    assert np.max(np.abs(coarse.mean - fine.mean)) < 1e-10
    assert np.max(np.abs(coarse.variance - fine.variance)) < 1e-10


def test_quasi_exact_requires_uniform_grid():
    times = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        quasi_exact_moments(OSC, (UNIFORM_K,), times)


def test_mc_single_sample_has_zero_variance():
    series = monte_carlo_moments(OSC, (UNIFORM_K,), 1, 1e-2, 0.1, seed=4)
    assert np.all(series.variance == 0.0)
    assert np.all(np.isfinite(series.mean))


def test_mc_same_seed_reproduces():
    a = monte_carlo_moments(OSC, (UNIFORM_K,), 5000, 1e-2, 0.2, seed=11)
    b = monte_carlo_moments(OSC, (UNIFORM_K,), 5000, 1e-2, 0.2, seed=11)
    c = monte_carlo_moments(OSC, (UNIFORM_K,), 5000, 1e-2, 0.2, seed=12)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)
    assert not np.array_equal(a.mean, c.mean)


def test_mc_batching_only_reorders_arithmetic():
    # The Philox stream makes the samples independent of the batch size, so
    # different batch splits change only the summation order.
    big = monte_carlo_moments(OSC, (UNIFORM_K,), 20_000, 1e-2, 0.2, seed=8)
    small = monte_carlo_moments(
        OSC, (UNIFORM_K,), 20_000, 1e-2, 0.2, seed=8, batch_size=1024
    )
    assert np.allclose(big.mean, small.mean, rtol=0, atol=1e-13)
    assert np.allclose(big.variance, small.variance, rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize(
    "name,dists,dt",
    [
        ("oscillator", (UNIFORM_K,), 1e-2),
        ("vanderpol", (Distribution.uniform(150.0, 450.0), BETA_K), 5e-3),
    ],
)
def test_mc_worker_count_does_not_change_bits(name, dists, dt):
    # 7300 samples in batches of 1000: eight batches, more than the workers,
    # and a partial last one.
    model = MODELS[name]
    runs = [
        monte_carlo_moments(
            model, dists, 7300, dt, 20 * dt, seed=5, batch_size=1000, workers=workers
        )
        for workers in (1, 2, 3)
    ]
    for run in runs[1:]:
        assert np.array_equal(run.mean, runs[0].mean)
        assert np.array_equal(run.variance, runs[0].variance)
    with pytest.raises(ValueError, match="workers"):
        monte_carlo_moments(model, dists, 10, dt, dt, seed=5, workers=0)


def test_mc_parent_draws_only_its_own_batches(tmp_path, monkeypatch):
    # Four batches on two workers: the parent maps batches 0 and 2 through
    # the inverse CDF, and its child batches 1 and 3. (The parent's call on
    # no samples, which loads the law's dependencies, maps no batch.)
    log = tmp_path / "ppf.log"
    ppf = Distribution.ppf

    def logged_ppf(self, u):
        if np.size(u):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
        return ppf(self, u)

    monkeypatch.setattr(Distribution, "ppf", logged_ppf)
    monte_carlo_moments(
        OSC, (UNIFORM_K,), 4000, 1e-2, 0.02, seed=2, batch_size=1000, workers=2
    )
    pids = log.read_text().split()
    assert len(pids) == 4
    assert pids.count(str(os.getpid())) == 2


MC_LAW_LOAD_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
import numpy as np
from mefsc import MODELS, Distribution, monte_carlo_moments

parent = os.getpid()
ppf = Distribution.ppf

def logged_ppf(self, u):
    if os.getpid() != parent:
        with open({log!r}, "a") as handle:
            handle.write(f"{{'scipy.special' in sys.modules}}\\n")
    return ppf(self, u)

Distribution.ppf = logged_ppf
laws = (Distribution.uniform(150.0, 450.0), Distribution.beta(2.0, 5.0, 340.0, 460.0))
args = (MODELS["vanderpol"], laws, 4000, 5e-3, 0.05, 7)
assert "scipy.special" not in sys.modules
two = monte_carlo_moments(*args, batch_size=1000, workers=2)
assert "scipy.special" in sys.modules
one = monte_carlo_moments(*args, batch_size=1000, workers=1)
assert np.array_equal(two.mean, one.mean)
assert np.array_equal(two.variance, one.variance)
"""


def test_mc_workers_find_the_laws_loaded(tmp_path):
    # In a fresh interpreter, a beta axis needs scipy.special. The parent
    # loads it before it forks, so no worker child imports it itself, and
    # two workers give the bits of one.
    src = str(Path(__file__).resolve().parents[1] / "src")
    log = tmp_path / "child-ppf.log"
    script = MC_LAW_LOAD_SCRIPT.format(src=src, log=str(log))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    # The child maps batches 1 and 3 (two axes each); scipy was loaded for all.
    assert log.read_text().split() == ["True"] * 4


def test_mc_standard_error_scaling():
    # Spread of the mean estimate should shrink like 1/n: slope -1 on a
    # log-log plot across a 16x sample-size step.
    sizes = (4000, 64000)
    spreads = []
    for n in sizes:
        estimates = [
            monte_carlo_moments(OSC, (UNIFORM_K,), n, 5e-3, 0.5, seed=100 + s).mean[0, -1]
            for s in range(16)
        ]
        spreads.append(np.var(estimates, ddof=1))
    slope = np.log(spreads[0] / spreads[1]) / np.log(sizes[1] / sizes[0])
    assert abs(slope - 1.0) < 0.2


def test_mc_matches_exact_within_sampling_error():
    n = 200_000
    series = monte_carlo_moments(OSC, (UNIFORM_K,), n, 1e-3, 1.0, seed=21)
    exact = exact_problem1_moments(series.times, UNIFORM_K)
    spread = np.sqrt(exact.variance[0, -1] / n)
    assert abs(series.mean[0, -1] - exact.mean[0, -1]) < 4.0 * spread


def test_error_metrics_zero_for_identical_series():
    times = np.linspace(0.0, 1.0, 11)
    mean = np.vstack([np.sin(times), np.cos(times)])
    var = np.vstack([times, times**2])
    a = MomentSeries(times=times, mean=mean, variance=var, component_names=("u", "dudt"))
    b = MomentSeries(times=times, mean=mean.copy(), variance=var.copy(), component_names=("u", "dudt"))
    errors = error_metrics(a, b)
    assert np.all(errors.mean_error == 0.0)
    assert np.all(errors.global_mean_error == 0.0)


def test_error_metrics_constant_offset():
    # A constant offset d averages to d * (N+1) * dt / T because both
    # endpoints enter the sum.
    times = np.linspace(0.0, 2.0, 21)
    base = np.zeros((1, 21))
    a = MomentSeries(times=times, mean=base, variance=base, component_names=("u",))
    b = MomentSeries(times=times, mean=base + 0.5, variance=base, component_names=("u",))
    errors = error_metrics(a, b)
    dt = times[1] - times[0]
    assert errors.global_mean_error[0] == pytest.approx(0.5 * 21 * dt / 2.0, rel=1e-14)
    assert errors.global_variance_error[0] == 0.0


def test_error_metrics_single_instant_is_pointwise():
    times = np.array([0.0])
    a = MomentSeries(times=times, mean=np.array([[1.0]]), variance=np.array([[0.0]]), component_names=("u",))
    b = MomentSeries(times=times, mean=np.array([[1.25]]), variance=np.array([[0.0]]), component_names=("u",))
    errors = error_metrics(a, b)
    assert errors.global_mean_error[0] == 0.25


def test_error_metrics_rejects_mismatched_grids():
    a = MomentSeries(
        times=np.array([0.0, 1.0]),
        mean=np.zeros((1, 2)),
        variance=np.zeros((1, 2)),
        component_names=("u",),
    )
    b = MomentSeries(
        times=np.array([0.0, 2.0]),
        mean=np.zeros((1, 2)),
        variance=np.zeros((1, 2)),
        component_names=("u",),
    )
    with pytest.raises(ValueError):
        error_metrics(a, b)


# The oracles as they were before they stepped in place: right-hand sides
# that np.stack fresh rows (``stacked_rhs``), and an RK4 step that allocates
# every stage. The in-place oracles must reproduce them bit for bit.
def _allocating_rk4(rhs, nodes, states, t, dt):
    k1 = rhs(t, nodes, states)
    k2 = rhs(t + 0.5 * dt, nodes, states + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, nodes, states + (0.5 * dt) * k2)
    k4 = rhs(t + dt, nodes, states + dt * k3)
    return states + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _allocating_quasi_exact(model, dists, times, points, refinement=10):
    rhs = stacked_rhs(model.name)
    grid = reference._full_domain_grid(dists, points)
    nodes, w = grid.nodes, grid.weights
    states = model.initial_state(nodes)
    mean = np.empty((model.state_dim, times.size))
    var = np.empty((model.state_dim, times.size))
    sub = float(times[1] - times[0]) / refinement
    for i in range(times.size):
        if i:
            for k in range(refinement):
                t = times[i - 1] + k * sub
                states = _allocating_rk4(rhs, nodes, states, t, sub)
        first = states @ w
        centered = states - first[:, None]
        mean[:, i] = first
        var[:, i] = (centered * centered) @ w
    return mean, var


def _allocating_monte_carlo(model, dists, n_samples, dt, n_steps, seed, batch_size):
    rhs = stacked_rhs(model.name)
    times = np.arange(n_steps + 1) * dt
    rng = np.random.Generator(np.random.Philox(seed))
    count = 0
    mean = np.zeros((model.state_dim, n_steps + 1))
    m2 = np.zeros((model.state_dim, n_steps + 1))
    for start in range(0, n_samples, batch_size):
        b = min(batch_size, n_samples - start)
        uniforms = rng.random((b, len(dists)))
        params = np.column_stack([d.ppf(uniforms[:, k]) for k, d in enumerate(dists)])
        states = model.initial_state(params)
        batch_mean = np.empty_like(mean)
        batch_m2 = np.empty_like(m2)
        for i in range(n_steps + 1):
            if i:
                states = _allocating_rk4(rhs, params, states, times[i - 1], dt)
            bm = states.mean(axis=1)
            batch_mean[:, i] = bm
            batch_m2[:, i] = ((states - bm[:, None]) ** 2).sum(axis=1)
        total = count + b
        delta = batch_mean - mean
        mean += delta * (b / total)
        m2 += batch_m2 + delta * delta * (count * b / total)
        count = total
    return mean, m2 / (count - 1)


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# (model, laws, dt, quasi-exact points per axis). Odd point counts put a
# node at 0 for the three-mode problem, where the sign of zero matters; the
# Van der Pol grid of 101^2 nodes is stepped in more than one chunk.
ORACLE_CASES = [
    ("oscillator", (UNIFORM_K,), 1e-3, 41),
    ("third_order", (Distribution.uniform(2.0, 3.0),), 1e-3, 41),
    (
        "vanderpol",
        (Distribution.uniform(150.0, 450.0), Distribution.beta(2.0, 5.0, 340.0, 460.0)),
        5e-3,
        101,
    ),
    ("kraichnan_orszag", (Distribution.uniform(-1.0, 1.0),) * 3, 5e-3, 5),
]


@pytest.mark.parametrize("name,dists,dt,points", ORACLE_CASES)
def test_quasi_exact_matches_allocating_reference(name, dists, dt, points):
    model = MODELS[name]
    times = np.arange(6) * dt
    got = quasi_exact_moments(model, dists, times, points_per_axis=points)
    mean, var = _allocating_quasi_exact(model, dists, times, points)
    _assert_same_bits(got.mean, mean)
    _assert_same_bits(got.variance, var)


@pytest.mark.parametrize("name,dists,dt,points", ORACLE_CASES)
def test_monte_carlo_matches_allocating_reference(name, dists, dt, points):
    model = MODELS[name]
    # Batches of 12000 and 8000 samples; the first is stepped in two chunks.
    # A second batch after 12001 samples starts 12001 draws per axis into
    # the stream, which for one to three axes is not a whole number of
    # Philox's four draws per counter step, so the jump to it must also skip
    # part of a step.
    assert 8000 < reference._RK4_CHUNK < 12000
    for batch_size, workers in [(12000, 1), (12001, 1), (12001, 2)]:
        got = monte_carlo_moments(
            model,
            dists,
            20000,
            dt,
            20 * dt,
            seed=3,
            batch_size=batch_size,
            workers=workers,
        )
        mean, var = _allocating_monte_carlo(model, dists, 20000, dt, 20, 3, batch_size)
        _assert_same_bits(got.mean, mean)
        _assert_same_bits(got.variance, var)


def test_quasi_exact_refuses_large_grid():
    dists = (Distribution.uniform(-1.0, 1.0),) * 3
    with pytest.raises(ValueError, match="8000000 nodes.*monte_carlo"):
        quasi_exact_moments(MODELS["kraichnan_orszag"], dists, np.arange(3) * 5e-3)


@pytest.mark.parametrize("duration", [0.0105, 0.0004])
def test_mc_rejects_partial_step_horizon(duration):
    with pytest.raises(ValueError, match="not a whole number of steps"):
        monte_carlo_moments(OSC, (UNIFORM_K,), 10, 1e-3, duration, seed=1)


def test_mc_accepts_rounded_whole_horizon():
    series = monte_carlo_moments(OSC, (UNIFORM_K,), 10, 1e-3, 1200 * 1e-3, seed=1)
    assert series.times.size == 1201
