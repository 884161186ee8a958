"""Element-to-global moment aggregation and the multi-element driver."""

import dataclasses
import multiprocessing
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mefsc import (
    MODELS,
    Distribution,
    NumericalBlowup,
    RandomSpacePartition,
    SolverConfig,
    WarmStart,
    aggregate,
    fsc_element,
    partition_random_domain,
    run_element,
    run_elements,
    run_me_fsc,
    total_expectation,
    total_variance,
)

OSC = MODELS["oscillator"]
KO = MODELS["kraichnan_orszag"]
THIRD = MODELS["third_order"]
P1_DIST = (Distribution.uniform(340.0, 460.0),)


def block_bytes(steps: int, n_elements: int, state_dim: int) -> int:
    """Block buffer size that holds ``steps`` steps of the streamed moments."""
    return steps * 16 * n_elements * state_dim


def assert_streamed_matches_stored(config: SolverConfig):
    """The one-batch streamed result equals the keep_local one bit for bit."""
    streamed = run_me_fsc(config)
    stored = run_me_fsc(dataclasses.replace(config, keep_local=True))
    assert streamed.local_series is None
    assert np.array_equal(streamed.times, stored.times)
    assert np.array_equal(streamed.mean, stored.mean)
    assert np.array_equal(streamed.variance, stored.variance)
    assert streamed.fallback_events == stored.fallback_events
    assert streamed.max_orthogonality_residual == stored.max_orthogonality_residual
    return streamed


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


@given(
    model=st.sampled_from([OSC, THIRD]),
    law=st.sampled_from(["uniform", "beta"]),
    extra_germs=st.integers(1, 3),
    steps=st.integers(0, 40),
    warm=st.one_of(st.none(), st.tuples(st.integers(1, 7), st.integers(1, 20))),
)
@example(model=OSC, law="uniform", extra_germs=2, steps=200, warm=(7, 100))
@settings(deadline=None, max_examples=30)
def test_run_me_fsc_single_element_matches_run_element(
    model, law, extra_germs, steps, warm
):
    lo, hi = (340.0, 460.0) if model is OSC else (2.0, 3.0)
    dists = (
        Distribution.uniform(lo, hi)
        if law == "uniform"
        else Distribution.beta(2.0, 5.0, lo, hi),
    )
    truncation = model.state_dim + extra_germs
    warmstart = None if warm is None else WarmStart(warm[0], warm[1] * 1e-3)
    config = SolverConfig(
        model, dists, (1,), truncation, dt=1e-3, duration=steps * 1e-3,
        warmstart=warmstart,
    )
    combined = run_me_fsc(config)
    alone = run_element(
        [[lo, hi]], dists, model, truncation, 1e-3, steps * 1e-3, warmstart=warmstart
    )
    assert np.array_equal(combined.times, alone.times)
    assert np.array_equal(combined.mean, alone.mean)
    assert np.array_equal(combined.variance, alone.variance)
    assert combined.fallback_events == alone.fallback_events


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


@pytest.mark.parametrize("unstable,named", [((1, 2, 3), 1), ((2, 3), 2)])
def test_pool_blowup_names_lowest_offending_element(monkeypatch, unstable, named):
    # With dt = 1 RK4 keeps stiffness 340-460 bounded and blows up stiffness
    # 3000-3600 (test_batch_blowup_names_lowest_offending_element). Two
    # workers split elements 0-3 into ranges {0, 1}, solved by the parent,
    # and {2, 3}, solved by a forked worker.
    dists = (Distribution.uniform(340.0, 3600.0),)
    boxes = np.array(
        [[[3000.0, 3600.0]] if e in unstable else [[340.0, 460.0]] for e in range(4)]
    )
    partition = RandomSpacePartition(dists, (4,), boxes, np.full(4, 0.25))
    monkeypatch.setattr(aggregate, "partition_random_domain", lambda *_: partition)
    config = SolverConfig(OSC, dists, (4,), 4, dt=1.0, duration=1000.0, workers=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as info:
            run_me_fsc(config)
    assert info.value.element_id == named
    assert info.value.t > 0.0
    assert multiprocessing.active_children() == []


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


@pytest.mark.parametrize("block_steps", [None, 1, 7])
@pytest.mark.parametrize("duration", [0.0, 0.6])
def test_streamed_moments_match_stored_oscillator(monkeypatch, block_steps, duration):
    # 601 steps is not a multiple of the default block (512 steps of 64
    # oscillator elements) nor of 7.
    if block_steps is not None:
        monkeypatch.setattr(fsc_element, "_BLOCK_BYTES", block_bytes(block_steps, 64, 2))
    config = SolverConfig(
        OSC, P1_DIST, (64,), 4, dt=1e-3, duration=duration, warmstart=WarmStart(7, 0.1)
    )
    assert_streamed_matches_stored(config)


@pytest.mark.parametrize("block_steps", [None, 5])
def test_streamed_moments_match_stored_third_order(monkeypatch, block_steps):
    # Germs are masked after the warm start in this run, and the audit
    # residual must come through the streamed path unchanged.
    if block_steps is not None:
        monkeypatch.setattr(fsc_element, "_BLOCK_BYTES", block_bytes(block_steps, 8, 3))
    config = SolverConfig(
        THIRD,
        (Distribution.uniform(2.0, 3.0),),
        (8,),
        7,
        dt=1e-3,
        duration=1.2,
        warmstart=WarmStart(7, 1.0),
        audit_orthogonality=True,
    )
    streamed = assert_streamed_matches_stored(config)
    assert streamed.max_orthogonality_residual is not None


def test_run_elements_hands_moment_blocks_to_reduce(monkeypatch):
    monkeypatch.setattr(fsc_element, "_BLOCK_BYTES", block_bytes(4, 3, 2))
    boxes = partition_random_domain(P1_DIST, (3,)).boxes
    args = (boxes, [0, 1, 2], P1_DIST, OSC, 4, 1e-3, 0.01, WarmStart(7, 0.005))
    blocks = []

    def reduce(start, means, variances):
        blocks.append((start, means.copy(), variances.copy()))

    streamed = run_elements(*args, reduce=reduce)
    stored = run_elements(*args)
    assert [(start, m.shape) for start, m, _ in blocks] == [
        (0, (3, 2, 4)),
        (4, (3, 2, 4)),
        (8, (3, 2, 3)),
    ]
    assert np.array_equal(
        np.concatenate([m for _, m, _ in blocks], axis=2),
        np.stack([series.mean for series in stored]),
    )
    assert np.array_equal(
        np.concatenate([v for _, _, v in blocks], axis=2),
        np.stack([series.variance for series in stored]),
    )
    for series in streamed:
        assert series.mean.shape == series.variance.shape == (2, 0)
        assert series.times.size == 11


def test_workers_do_not_change_streamed_oscillator_results():
    config = SolverConfig(
        OSC, P1_DIST, (7,), 4, dt=1e-3, duration=0.2, warmstart=WarmStart(7, 0.1)
    )
    sequential = run_me_fsc(config)
    parallel = run_me_fsc(dataclasses.replace(config, workers=3))
    assert np.array_equal(sequential.mean, parallel.mean)
    assert np.array_equal(sequential.variance, parallel.variance)
    assert sequential.fallback_events == parallel.fallback_events


def test_streamed_solve_memory_does_not_grow_with_elements_times_steps():
    # 256 elements x 1001 steps of stored mean and variance series are
    # 8.2 MB, and stacking them doubled that: the traced peak was 26.5 MB
    # when every series was stored. Streamed, it is about 3.8 MB.
    config = SolverConfig(OSC, P1_DIST, (256,), 4, dt=1e-3, duration=1.0)
    tracemalloc.start()
    try:
        run_me_fsc(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@given(
    n_elements=st.integers(1, 6),
    steps=st.integers(0, 30),
    warm=st.one_of(st.none(), st.tuples(st.integers(1, 7), st.integers(1, 30))),
    law=st.sampled_from(["uniform", "beta"]),
    truncation=st.integers(3, 5),
    block_steps=st.integers(1, 8),
)
@settings(deadline=None, max_examples=40)
def test_streamed_oscillator_properties(
    n_elements, steps, warm, law, truncation, block_steps
):
    dist = (
        Distribution.uniform(340.0, 460.0)
        if law == "uniform"
        else Distribution.beta(2.0, 5.0, 340.0, 460.0)
    )
    warmstart = None if warm is None else WarmStart(warm[0], warm[1] * 1e-3)
    config = SolverConfig(
        OSC, (dist,), (n_elements,), truncation, dt=1e-3, duration=steps * 1e-3,
        warmstart=warmstart,
    )
    bytes_ = block_bytes(block_steps, n_elements, 2)
    with mock.patch.object(fsc_element, "_BLOCK_BYTES", bytes_):
        streamed = assert_streamed_matches_stored(config)
    assert abs(streamed.partition.masses.sum() - 1.0) <= 1e-12
    assert streamed.times.size == steps + 1
    assert (streamed.variance >= 0.0).all()
