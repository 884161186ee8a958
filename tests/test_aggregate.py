"""Element-to-global moment aggregation and the multi-element driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mefsc import (
    MODELS,
    Distribution,
    SolverConfig,
    WarmStart,
    run_element,
    run_me_fsc,
    total_expectation,
    total_variance,
)

OSC = MODELS["oscillator"]
KO = MODELS["kraichnan_orszag"]


def test_total_expectation_two_halves():
    assert total_expectation([1.0, 3.0], [0.5, 0.5]) == 2.0


def test_total_expectation_rejects_bad_masses():
    with pytest.raises(ValueError):
        total_expectation([1.0, 3.0], [0.5, 0.4])


def test_total_variance_two_halves():
    # mu = (1/2, 1/2): total = (v1+v2)/2 + (m1-m2)^2/4
    v = total_variance([1.0, 3.0], [0.2, 0.6], [0.5, 0.5])
    assert v == pytest.approx(0.4 + 1.0, rel=1e-15)


def test_total_variance_single_element_is_identity():
    assert total_variance([1.7], [0.31], [1.0]) == 0.31


def test_total_variance_splits_uniform_exactly():
    # U(0,1) split in half: element means 1/4, 3/4; element variances 1/48.
    v = total_variance([0.25, 0.75], [1.0 / 48.0, 1.0 / 48.0], [0.5, 0.5])
    assert abs(v - 1.0 / 12.0) < 1e-16


@given(
    data=st.lists(
        st.tuples(
            st.floats(-10.0, 10.0),
            st.floats(0.0, 10.0),
            st.floats(0.1, 1.0),
        ),
        min_size=2,
        max_size=6,
    )
)
@settings(deadline=None, max_examples=60)
def test_total_variance_matches_mixture_identity(data):
    means = np.array([d[0] for d in data])
    variances = np.array([d[1] for d in data])
    masses = np.array([d[2] for d in data])
    masses = masses / masses.sum()
    got = total_variance(means, variances, masses)
    second = float(np.dot(masses, variances + means**2))
    expected = second - float(np.dot(masses, means)) ** 2
    assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))
    assert got >= 0.0


def test_run_me_fsc_single_element_matches_run_element():
    dists = (Distribution.uniform(340.0, 460.0),)
    config = SolverConfig(
        model=OSC,
        distributions=dists,
        element_counts=(1,),
        truncation=4,
        dt=1e-3,
        duration=0.2,
        warmstart=WarmStart(7, 0.1),
    )
    combined = run_me_fsc(config)
    alone = run_element(
        [[340.0, 460.0]], dists, OSC, 4, 1e-3, 0.2, warmstart=WarmStart(7, 0.1)
    )
    assert np.array_equal(combined.mean, alone.mean)
    assert np.array_equal(combined.variance, alone.variance)


def test_run_me_fsc_agrees_with_scalar_aggregation():
    # The vectorized time-series aggregation must match the scalar formulas
    # applied one output instant at a time.
    dists = (Distribution.uniform(340.0, 460.0),)
    config = SolverConfig(
        model=OSC,
        distributions=dists,
        element_counts=(4,),
        truncation=4,
        dt=1e-3,
        duration=0.3,
        warmstart=WarmStart(7, 0.1),
        keep_local=True,
    )
    series = run_me_fsc(config)
    masses = series.partition.masses
    locals_ = series.local_series
    for idx in (0, 150, 300):
        means = [ls.mean[0, idx] for ls in locals_]
        variances = [ls.variance[0, idx] for ls in locals_]
        want_mean = total_expectation(means, masses)
        want_var = total_variance(means, variances, masses)
        assert series.mean[0, idx] == pytest.approx(want_mean, rel=1e-14, abs=1e-16)
        assert series.variance[0, idx] == pytest.approx(want_var, rel=1e-13, abs=1e-18)


def test_run_me_fsc_workers_do_not_change_results():
    dists = tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3))
    base = dict(
        model=KO,
        distributions=dists,
        element_counts=(2, 1, 1),
        truncation=6,
        dt=5e-3,
        duration=0.1,
    )
    sequential = run_me_fsc(SolverConfig(**base, workers=1))
    parallel = run_me_fsc(SolverConfig(**base, workers=2))
    assert np.array_equal(sequential.mean, parallel.mean)
    assert np.array_equal(sequential.variance, parallel.variance)


def test_solver_config_validation():
    dists = (Distribution.uniform(340.0, 460.0),)
    with pytest.raises(ValueError):
        SolverConfig(OSC, dists, (8,), 4, dt=0.0, duration=1.0)
    with pytest.raises(ValueError):
        SolverConfig(OSC, dists, (8,), 2, dt=1e-3, duration=1.0)
    with pytest.raises(ValueError):
        SolverConfig(OSC, dists, (8, 8), 4, dt=1e-3, duration=1.0)
    with pytest.raises(ValueError):
        SolverConfig(OSC, dists, (8,), 4, dt=1e-3, duration=1.0, workers=0)
    for duration in (0.0105, 0.0004):
        with pytest.raises(ValueError, match="nearest whole horizon"):
            SolverConfig(OSC, dists, (8,), 4, dt=1e-3, duration=duration)
        with pytest.raises(ValueError, match="warm-start duration"):
            SolverConfig(
                OSC, dists, (8,), 4, dt=1e-3, duration=1.0,
                warmstart=WarmStart(7, duration),
            )
    SolverConfig(OSC, dists, (8,), 4, dt=1e-3, duration=1200 * 1e-3)


def test_partition_metadata_attached():
    dists = (Distribution.uniform(340.0, 460.0),)
    config = SolverConfig(OSC, dists, (3,), 4, dt=1e-3, duration=0.0)
    series = run_me_fsc(config)
    assert series.partition is not None
    assert series.partition.n_elements == 3
    assert abs(series.partition.masses.sum() - 1.0) < 1e-12
    assert series.component_names == ("u", "dudt")
