"""End-to-end acceptance runs for the four benchmark problems.

Each test prints one summary line; the expensive solver runs are shared
through module-scoped fixtures so every criterion still gets its own
pass/fail verdict without re-running anything.
"""

import filecmp
import time

import numpy as np
import pytest

from mefsc import (
    MODELS,
    Distribution,
    SolverConfig,
    WarmStart,
    build_quadrature,
    error_metrics,
    exact_problem1_moments,
    monte_carlo_moments,
    partition_random_domain,
    quasi_exact_moments,
    run_me_fsc,
)
from mefsc.aggregate import _total_moments
from mefsc.basis import orthogonalize
from mefsc.bench_cli import parse_config, run_and_emit
from mefsc.fsc_element import _local_variance
from stepping import galerkin_rk4, germ_candidates, transfer

P1_LAW = (Distribution.uniform(340.0, 460.0),)
P2_LAW = (Distribution.uniform(2.0, 3.0),)
P3_LAWS = (
    Distribution.uniform(150.0, 450.0),
    Distribution.beta(2.0, 5.0, 340.0, 460.0),
)
P4_LAWS = tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3))

MC_SEED = 2026


def timed_run(config):
    start = time.perf_counter()
    series = run_me_fsc(config)
    return series, time.perf_counter() - start


@pytest.fixture(scope="module")
def p1_bundle():
    runs = {}
    for elements in (2, 4, 8):
        config = SolverConfig(
            model=MODELS["oscillator"],
            distributions=P1_LAW,
            element_counts=(elements,),
            truncation=4,
            dt=1e-3,
            duration=150.0,
            warmstart=WarmStart(7, 1.0),
        )
        runs[elements] = timed_run(config)
    reference = exact_problem1_moments(runs[8][0].times, P1_LAW[0])
    return runs, reference


@pytest.fixture(scope="module")
def p2_bundle():
    config = SolverConfig(
        model=MODELS["third_order"],
        distributions=P2_LAW,
        element_counts=(8,),
        truncation=5,
        dt=1e-3,
        duration=30.0,
        warmstart=WarmStart(7, 1.0),
    )
    series, wall = timed_run(config)
    start = time.perf_counter()
    reference = quasi_exact_moments(MODELS["third_order"], P2_LAW, series.times)
    ref_wall = time.perf_counter() - start
    return series, reference, wall, ref_wall


@pytest.fixture(scope="module")
def p3_bundle():
    config = SolverConfig(
        model=MODELS["vanderpol"],
        distributions=P3_LAWS,
        element_counts=(8, 8),
        truncation=4,
        dt=5e-3,
        duration=20.0,
        warmstart=WarmStart(9, 1.0),
        audit_orthogonality=True,
    )
    series, wall = timed_run(config)
    start = time.perf_counter()
    reference = monte_carlo_moments(
        MODELS["vanderpol"], P3_LAWS, 100_000, 5e-3, 20.0, seed=MC_SEED
    )
    ref_wall = time.perf_counter() - start
    return series, reference, wall, ref_wall


@pytest.fixture(scope="module")
def p4_bundle():
    config = SolverConfig(
        model=MODELS["kraichnan_orszag"],
        distributions=P4_LAWS,
        element_counts=(4, 4, 4),
        truncation=6,
        dt=5e-3,
        duration=10.0,
    )
    series, wall = timed_run(config)
    start = time.perf_counter()
    reference = monte_carlo_moments(
        MODELS["kraichnan_orszag"], P4_LAWS, 100_000, 5e-3, 10.0, seed=MC_SEED
    )
    ref_wall = time.perf_counter() - start
    return series, reference, wall, ref_wall


def test_criterion_1_oscillator_global_error(p1_bundle):
    runs, reference = p1_bundle
    series, wall = runs[8]
    errors = error_metrics(series, reference)
    eg_mean = errors.global_mean_error[0]
    eg_var = errors.global_variance_error[0]
    ok = eg_mean <= 1e-8 and eg_var <= 1e-8 and wall < 180.0
    line = (
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(eG_mean={eg_mean:.3e}, eG_var={eg_var:.3e}, wall={wall:.1f}s)"
    )
    print(line)
    assert ok, line


def test_criterion_2_oscillator_element_refinement(p1_bundle):
    runs, reference = p1_bundle
    errs = {}
    total_wall = 0.0
    for elements, (series, wall) in runs.items():
        errs[elements] = error_metrics(series, reference).global_variance_error[0]
        total_wall += wall
    ratio_24 = errs[2] / errs[4]
    ratio_48 = errs[4] / errs[8]
    ok = ratio_24 >= 2.0 and ratio_48 >= 2.0 and total_wall < 300.0
    line = (
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(eG_var E2={errs[2]:.3e} E4={errs[4]:.3e} E8={errs[8]:.3e}, "
        f"wall={total_wall:.1f}s)"
    )
    print(line)
    assert ok, line


def test_criterion_3_third_order_vs_dense_reference(p2_bundle):
    series, reference, wall, ref_wall = p2_bundle
    errors = error_metrics(series, reference)
    eg_mean = errors.global_mean_error[0]
    eg_var = errors.global_variance_error[0]
    ok = eg_mean <= 1e-7 and eg_var <= 1e-7 and (wall + ref_wall) < 120.0
    line = (
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(eG_mean={eg_mean:.3e}, eG_var={eg_var:.3e}, "
        f"wall={wall + ref_wall:.1f}s)"
    )
    print(line)
    assert ok, line


def test_criterion_4_vanderpol_vs_monte_carlo(p3_bundle):
    series, reference, wall, ref_wall = p3_bundle
    errors = error_metrics(series, reference)
    eg_mean = errors.global_mean_error[0]
    eg_var = errors.global_variance_error[0]
    ok = eg_mean <= 5e-3 and eg_var <= 5e-3 and (wall + ref_wall) < 600.0
    line = (
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"(eG_mean={eg_mean:.3e}, eG_var={eg_var:.3e}, "
        f"wall={wall + ref_wall:.1f}s)"
    )
    print(line)
    assert ok, line


def test_criterion_5_kraichnan_orszag_symmetry_and_variance(p4_bundle):
    series, reference, wall, ref_wall = p4_bundle
    peak_mean = float(np.max(np.abs(series.mean[0])))
    errors = error_metrics(series, reference)
    eg_var = errors.global_variance_error[0]
    ok = peak_mean <= 1e-3 and eg_var <= 5e-3 and (wall + ref_wall) < 900.0
    line = (
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(max|E[u1]|={peak_mean:.3e}, eG_var={eg_var:.3e}, "
        f"wall={wall + ref_wall:.1f}s)"
    )
    print(line)
    assert ok, line


def test_criterion_6_transfer_exactness_over_1000_steps(warm_oscillator):
    model = MODELS["oscillator"]
    grid, basis, modes = warm_oscillator
    ids = np.zeros(1, dtype=int)
    t = 1.0
    worst_gap = 0.0
    worst_mean_drift = 0.0
    worst_var_drift = 0.0
    for _ in range(1000):
        before_mean, before_var = modes[0, :, 0], _local_variance(modes, basis)[0]
        values = modes @ basis.values
        cands = germ_candidates(model, t, values[0], grid.nodes, 4)
        basis = orthogonalize(cands, grid.weights[None])
        modes = transfer(values, basis, t, ids, None)
        proj_modes = values @ basis.projector
        worst_gap = max(worst_gap, float(np.max(np.abs(modes - proj_modes))))
        after_mean, after_var = modes[0, :, 0], _local_variance(modes, basis)[0]
        worst_mean_drift = max(
            worst_mean_drift,
            float(np.max(np.abs(after_mean - before_mean) / np.abs(before_mean))),
        )
        worst_var_drift = max(
            worst_var_drift,
            float(np.max(np.abs(after_var - before_var) / before_var)),
        )
        modes = galerkin_rk4(t, modes, basis, model, grid.nodes, 1e-3, ids)
        t += 1e-3
    ok = worst_gap <= 1e-10 and worst_mean_drift <= 1e-10 and worst_var_drift <= 1e-10
    line = (
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(max|det-proj|={worst_gap:.3e}, mean_drift={worst_mean_drift:.3e}, "
        f"var_drift={worst_var_drift:.3e})"
    )
    print(line)
    assert ok, line


def test_criterion_7_orthogonality_and_masses(p3_bundle):
    series, _, _, _ = p3_bundle
    residual = series.max_orthogonality_residual
    mass_gaps = []
    for laws, counts in [
        (P1_LAW, (8,)),
        (P2_LAW, (8,)),
        (P3_LAWS, (8, 8)),
        (P4_LAWS, (8, 8, 8)),
        ((Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0),), (6,)),
    ]:
        part = partition_random_domain(laws, counts)
        mass_gaps.append(abs(part.masses.sum() - 1.0))
    worst_gap = max(mass_gaps)
    ok = residual is not None and residual <= 1e-10 and worst_gap <= 1e-12
    line = (
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(max_residual={residual:.3e}, worst_mass_gap={worst_gap:.3e})"
    )
    print(line)
    assert ok, line


def test_criterion_8_aggregation_matches_dense_quadrature():
    rng = np.random.Generator(np.random.Philox(77))
    worst_mean = 0.0
    worst_var = 0.0
    for _ in range(100):
        lo = rng.uniform(-3.0, 3.0)
        width = rng.uniform(0.5, 4.0)
        hi = lo + width
        if rng.random() < 0.5:
            law = Distribution.uniform(lo, hi)
        else:
            law = Distribution.beta(2.0, 5.0, lo, hi)
        coeffs = rng.uniform(-1.0, 1.0, size=rng.integers(1, 9))
        poly = np.polynomial.Polynomial(coeffs)

        def f(x):
            z = (2.0 * x - lo - hi) / width
            return poly(z)

        part = partition_random_domain((law,), (int(rng.integers(2, 9)),))
        means, variances = [], []
        for box in part.boxes:
            grid = build_quadrature(box, (law,), points_per_axis=10)
            values = f(grid.nodes[:, 0])
            m = float(np.dot(grid.weights, values))
            means.append(m)
            variances.append(float(np.dot(grid.weights, (values - m) ** 2)))
        agg_mean, agg_var = _total_moments(
            np.array(means), np.array(variances), part.masses
        )

        dense = build_quadrature([lo, hi], (law,), points_per_axis=400)
        dvals = f(dense.nodes[:, 0])
        dmean = float(np.dot(dense.weights, dvals))
        dvar = float(np.dot(dense.weights, (dvals - dmean) ** 2))
        worst_mean = max(worst_mean, abs(agg_mean - dmean))
        worst_var = max(worst_var, abs(agg_var - dvar))
    ok = worst_mean <= 1e-12 and worst_var <= 1e-12
    line = (
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(worst_mean_gap={worst_mean:.3e}, worst_var_gap={worst_var:.3e})"
    )
    print(line)
    assert ok, line


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    args = [
        "--problem", "1",
        "--basis", "4",
        "--elements", "4",
        "--duration", "0.5",
        "--out", str(out),
    ]
    config = parse_config(args)
    assert run_and_emit(config) == 0
    first = {
        name: (out / name).read_bytes() for name in ("moments.csv", "errors.csv")
    }
    assert run_and_emit(config) == 0
    byte_identical = all(
        (out / name).read_bytes() == blob for name, blob in first.items()
    )

    base = dict(
        model=MODELS["kraichnan_orszag"],
        distributions=P4_LAWS,
        element_counts=(2, 2, 2),
        truncation=6,
        dt=5e-3,
        duration=0.2,
    )
    solo = run_me_fsc(SolverConfig(**base, workers=1))
    pooled = run_me_fsc(SolverConfig(**base, workers=8))
    workers_identical = np.array_equal(solo.mean, pooled.mean) and np.array_equal(
        solo.variance, pooled.variance
    )
    ok = byte_identical and workers_identical
    line = (
        f"criterion 9: {'PASS' if ok else 'FAIL'} "
        f"(csv_bytes_identical={byte_identical}, workers_1_vs_8_identical={workers_identical})"
    )
    print(line)
    assert ok, line
