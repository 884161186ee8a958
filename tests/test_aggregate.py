"""Element-to-global moment aggregation and the multi-element driver."""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial
from pathlib import Path
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
    run_elements,
    run_me_fsc,
)
from mefsc.aggregate import _check_masses, _total_moments, fork_reduce
from stepping import stored_run

OSC = MODELS["oscillator"]
KO = MODELS["kraichnan_orszag"]
THIRD = MODELS["third_order"]
VDP = MODELS["vanderpol"]
P1_DIST = (Distribution.uniform(340.0, 460.0),)


def block_bytes(steps: int, n_elements: int, state_dim: int) -> int:
    """Block buffer size that holds ``steps`` steps of the streamed moments."""
    return steps * 16 * n_elements * state_dim


def stored_reference(config: SolverConfig):
    """Every element's moments at every step, from one batch, reduced in one go.

    Returns the series and the global mean and variance.
    """
    partition = partition_random_domain(config.distributions, config.element_counts)
    ids = np.arange(partition.n_elements)
    series, means, variances = stored_run(*aggregate._batch_args(config, partition, ids))
    mean, variance = _total_moments(means, variances, partition.masses)
    return series, mean, variance


def assert_streamed_matches_stored(config: SolverConfig):
    """The streamed result equals the stored reference bit for bit."""
    streamed = run_me_fsc(config)
    series, mean, variance = stored_reference(config)
    residuals = [s.max_orthogonality_residual for s in series]
    assert np.array_equal(streamed.times, series[0].times)
    assert np.array_equal(streamed.mean, mean)
    assert np.array_equal(streamed.variance, variance)
    assert streamed.fallback_events == [ev for s in series for ev in s.fallback_events]
    assert streamed.max_orthogonality_residual == (
        max(residuals) if config.audit_orthogonality else None
    )
    return streamed


HALVES = np.array([0.5, 0.5])


def test_total_expectation_two_halves():
    assert _total_moments(np.array([1.0, 3.0]), np.zeros(2), HALVES)[0] == 2.0


def test_total_expectation_rejects_bad_masses():
    with pytest.raises(ValueError):
        _check_masses(np.array([0.5, 0.4]))
    _check_masses(HALVES)


def test_total_variance_two_halves():
    # mu = (1/2, 1/2): total = (v1+v2)/2 + (m1-m2)^2/4
    v = _total_moments(np.array([1.0, 3.0]), np.array([0.2, 0.6]), HALVES)[1]
    assert v == pytest.approx(0.4 + 1.0, rel=1e-15)


def test_total_variance_single_element_is_identity():
    assert _total_moments(np.array([1.7]), np.array([0.31]), np.ones(1))[1] == 0.31


def test_total_variance_splits_uniform_exactly():
    # U(0,1) split in half: element means 1/4, 3/4; element variances 1/48.
    v = _total_moments(np.array([0.25, 0.75]), np.full(2, 1.0 / 48.0), HALVES)[1]
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
    got = float(_total_moments(means, variances, masses)[1])
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
    (alone,), (mean,), (variance,) = stored_run(
        [[[lo, hi]]], [0], dists, model, truncation, 1e-3, steps * 1e-3, warmstart
    )
    assert np.array_equal(combined.times, alone.times)
    assert np.array_equal(combined.mean, mean)
    assert np.array_equal(combined.variance, variance)
    assert combined.fallback_events == alone.fallback_events


def test_run_me_fsc_agrees_with_scalar_aggregation():
    # The streamed time-series aggregation must match the formulas applied
    # to the stored element moments one output instant at a time.
    dists = (Distribution.uniform(340.0, 460.0),)
    config = SolverConfig(
        model=OSC,
        distributions=dists,
        element_counts=(4,),
        truncation=4,
        dt=1e-3,
        duration=0.3,
        warmstart=WarmStart(7, 0.1),
    )
    series = run_me_fsc(config)
    masses = series.partition.masses
    _, means, variances = stored_run(
        *aggregate._batch_args(config, series.partition, np.arange(4))
    )
    for idx in (0, 150, 300):
        want_mean, want_var = _total_moments(
            means[:, 0, idx], variances[:, 0, idx], masses
        )
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


@contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError if the block runs longer than ``seconds``.

    The worker processes are killed first: a parent stuck reading from a
    worker that never sends could not otherwise unwind.
    """

    def expire(*_):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "unstable,named,n_elements,workers,block_steps",
    [
        pytest.param((1, 2, 3), 1, 4, 2, None, id="unstable0-1"),
        pytest.param((2, 3), 2, 4, 2, None, id="unstable1-2"),
        pytest.param((1,), 1, 4, 2, None, id="parent-range"),
        pytest.param((1,), 1, 4, 2, 2, id="parent-range-small-blocks"),
        pytest.param((2, 3), 2, 4, 2, 2, id="worker-range-small-blocks"),
        pytest.param((1, 2, 3), 1, 4, 2, 2, id="both-ranges-small-blocks"),
        pytest.param((3, 5), 3, 6, 3, None, id="two-worker-ranges"),
        pytest.param((3, 5), 3, 6, 3, 2, id="two-worker-ranges-small-blocks"),
        pytest.param((5,), 5, 6, 3, 2, id="last-worker-range-small-blocks"),
    ],
)
def test_pool_blowup_names_lowest_offending_element(
    monkeypatch, unstable, named, n_elements, workers, block_steps
):
    # With dt = 1 RK4 keeps stiffness 340-460 bounded and blows up stiffness
    # 3000-3600 (test_batch_blowup_names_lowest_offending_element). The
    # workers split the elements into contiguous ranges; the parent solves
    # the first and forked workers the rest. With blocks of two steps every
    # failing range has sent blocks before it raises, and the batches after
    # a failing one are stopped.
    if block_steps is not None:
        monkeypatch.setattr(
            fsc_element, "_BLOCK_BYTES", block_bytes(block_steps, n_elements, 2)
        )
    dists = (Distribution.uniform(340.0, 3600.0),)
    boxes = np.array(
        [
            [[3000.0, 3600.0]] if e in unstable else [[340.0, 460.0]]
            for e in range(n_elements)
        ]
    )
    masses = np.full(n_elements, 1.0 / n_elements)
    partition = RandomSpacePartition(boxes, masses)
    monkeypatch.setattr(aggregate, "partition_random_domain", lambda *_: partition)
    config = SolverConfig(
        OSC, dists, (n_elements,), 4, dt=1.0, duration=1000.0, workers=workers
    )
    with np.errstate(over="ignore", invalid="ignore"), time_limit(60):
        with pytest.raises(NumericalBlowup) as info:
            run_me_fsc(config)
    assert info.value.element_id == named
    assert info.value.t > 0.0
    assert multiprocessing.active_children() == []


def test_parent_failure_frees_a_worker_blocked_on_a_full_pipe(monkeypatch):
    # 256 elements: a default block is 128 steps, and the worker's half of
    # it (512 kB) is more than the pipe holds. The parent's range stalls at
    # t = 100 and then fails, by which time the worker is blocked sending its
    # first block. The parent must kill the blocked worker and reap it rather
    # than wait for it to finish sending, or the solve never returns.
    parent = os.getpid()
    galerkin_rhs = fsc_element._galerkin_rhs

    def stalling_galerkin_rhs(model, basis, ids, state):
        rhs = galerkin_rhs(model, basis, ids, state)

        def stalling_rhs(t, nodes, modes, *, out):
            if os.getpid() == parent and t >= 100.0:
                time.sleep(0.5)
                raise NumericalBlowup("stalled", t, int(ids[0]))
            rhs(t, nodes, modes, out=out)

        return stalling_rhs

    monkeypatch.setattr(fsc_element, "_galerkin_rhs", stalling_galerkin_rhs)
    config = SolverConfig(OSC, P1_DIST, (256,), 4, dt=1.0, duration=1000.0, workers=2)
    with time_limit(60):
        with pytest.raises(NumericalBlowup, match="stalled") as info:
            run_me_fsc(config)
    assert (info.value.element_id, info.value.t) == (0, 100.0)
    assert multiprocessing.active_children() == []


def test_worker_killed_mid_solve_is_reported(monkeypatch):
    # The worker's batch kills itself at t = 50; the parent's range runs on
    # to the end, and the solve then reports how the worker died.
    parent = os.getpid()
    galerkin_rhs = fsc_element._galerkin_rhs

    def dying_galerkin_rhs(model, basis, ids, state):
        rhs = galerkin_rhs(model, basis, ids, state)

        def dying_rhs(t, nodes, modes, *, out):
            if os.getpid() != parent and t >= 50.0:
                os.kill(os.getpid(), signal.SIGKILL)
            rhs(t, nodes, modes, out=out)

        return dying_rhs

    monkeypatch.setattr(fsc_element, "_galerkin_rhs", dying_galerkin_rhs)
    config = SolverConfig(OSC, P1_DIST, (256,), 4, dt=1.0, duration=1000.0, workers=2)
    with time_limit(60):
        with pytest.raises(RuntimeError, match=r"died \(exit code -9\)"):
            run_me_fsc(config)
    assert multiprocessing.active_children() == []


def fail_with_a_lambda(i, outlet):
    if i:
        error = ValueError(f"call {i} failed")
        error.callback = lambda: None
        raise error


def test_unpicklable_worker_error_is_reported():
    # The worker's error does not pickle, so it cannot reach the parent as
    # it is; a RuntimeError that names it does.
    calls = [partial(fail_with_a_lambda, i) for i in (0, 1)]
    with time_limit(60):
        with pytest.raises(RuntimeError, match="ValueError: call 1 failed"):
            fork_reduce(calls, combine=None)
    assert multiprocessing.active_children() == []


ORPHAN_SCRIPT = """
import os, sys, time
sys.path.insert(0, {src!r})
from functools import partial
from mefsc.aggregate import fork_reduce

def call(i, outlet):
    if i:
        print(os.getpid(), flush=True)
    if not i or {busy}:
        time.sleep(60)

fork_reduce([partial(call, 0), partial(call, 1)], combine=None)
"""


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("busy", [False, True], ids=["idle", "busy"])
def test_pool_worker_dies_with_a_killed_parent(busy):
    # The parent sleeps in its own call while its worker is done with the
    # other call (idle) or sleeps in it (busy); then the parent is killed
    # outright.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ORPHAN_SCRIPT.format(src=src, busy=busy)
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
    )
    try:
        worker = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert not running(worker)
    finally:
        if running(worker):
            os.kill(worker, signal.SIGKILL)


WORKER_COUNT_CASES = {
    "oscillator": SolverConfig(
        OSC, P1_DIST, (5,), 4, dt=1e-3, duration=0.12, warmstart=WarmStart(7, 0.05)
    ),
    "third_order": SolverConfig(
        THIRD,
        (Distribution.uniform(2.0, 3.0),),
        (5,),
        7,
        dt=1e-3,
        duration=1.05,
        warmstart=WarmStart(7, 1.0),
    ),
    "vanderpol": SolverConfig(
        VDP,
        (Distribution.uniform(150.0, 450.0), Distribution.beta(2.0, 5.0, 340.0, 460.0)),
        (3, 2),
        4,
        dt=5e-3,
        duration=0.1,
        warmstart=WarmStart(9, 0.05),
        points_per_axis=4,
    ),
    "kraichnan_orszag": SolverConfig(
        KO,
        tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3)),
        (2, 2, 1),
        6,
        dt=5e-3,
        duration=0.1,
        points_per_axis=4,
    ),
    # Levels of three rows: five germs end part way through the second.
    "kraichnan_orszag_truncation5": SolverConfig(
        KO,
        tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3)),
        (2, 2, 1),
        5,
        dt=5e-3,
        duration=0.1,
        points_per_axis=4,
    ),
}


@pytest.mark.parametrize("name", WORKER_COUNT_CASES)
def test_workers_do_not_change_multi_block_results(monkeypatch, name):
    # Blocks of three steps: every batch hands over several blocks, and the
    # last one is partial for some horizons.
    config = dataclasses.replace(WORKER_COUNT_CASES[name], audit_orthogonality=True)
    n_elements = int(np.prod(config.element_counts))
    monkeypatch.setattr(
        fsc_element,
        "_BLOCK_BYTES",
        block_bytes(3, n_elements, config.model.state_dim),
    )
    sequential = run_me_fsc(config)
    for workers in (2, 3):
        parallel = run_me_fsc(dataclasses.replace(config, workers=workers))
        assert np.array_equal(sequential.times, parallel.times)
        assert np.array_equal(sequential.mean, parallel.mean)
        assert np.array_equal(sequential.variance, parallel.variance)
        assert sequential.fallback_events == parallel.fallback_events
        assert (
            sequential.max_orthogonality_residual
            == parallel.max_orthogonality_residual
        )
    _, mean, variance = stored_reference(config)
    assert np.array_equal(sequential.mean, mean)
    assert np.array_equal(sequential.variance, variance)
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
    for degree in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="warm-start degree"):
            SolverConfig(
                OSC, dists, (8,), 4, dt=1e-3, duration=1.0,
                warmstart=WarmStart(degree, 0.005),
            )
    for duration in (0.0105, 0.0004):
        with pytest.raises(ValueError, match="nearest whole horizon"):
            SolverConfig(OSC, dists, (8,), 4, dt=1e-3, duration=duration)
        with pytest.raises(ValueError, match="warm-start duration"):
            SolverConfig(
                OSC, dists, (8,), 4, dt=1e-3, duration=1.0,
                warmstart=WarmStart(7, duration),
            )
    SolverConfig(OSC, dists, (8,), 4, dt=1e-3, duration=1200 * 1e-3)
    warmstart = WarmStart(np.int64(0), 0.5)
    SolverConfig(OSC, dists, (8,), 4, dt=1e-3, duration=1.0, warmstart=warmstart)


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
    # 601 steps is not a multiple of the default block (128 steps of 64
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
    _, mean, variance = stored_run(*args)
    assert [(start, m.shape) for start, m, _ in blocks] == [
        (0, (3, 2, 4)),
        (4, (3, 2, 4)),
        (8, (3, 2, 3)),
    ]
    assert np.array_equal(np.concatenate([m for _, m, _ in blocks], axis=2), mean)
    assert np.array_equal(np.concatenate([v for _, _, v in blocks], axis=2), variance)
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


def test_two_worker_solve_memory_does_not_grow_with_elements_times_steps():
    # The parent's traced peak was 28.7 MB when every batch returned its
    # elements' series and final states; the worker's blocks now stream
    # through a pipe and are reduced as they arrive.
    config = SolverConfig(OSC, P1_DIST, (256,), 4, dt=1e-3, duration=1.0, workers=2)
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


AXIS_LAWS = {
    "uniform": (Distribution.uniform(-1.0, 1.0), 0.0, 1.0 / 3.0),
    "beta": (Distribution.beta(2.0, 5.0, -1.0, 1.0), -3.0 / 7.0, 10.0 / 98.0),
}


@given(
    laws=st.lists(st.sampled_from(sorted(AXIS_LAWS)), min_size=3, max_size=3),
    counts=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    points=st.integers(4, 10),
)
@settings(deadline=None, max_examples=30)
def test_splitting_axes_keeps_polynomial_moments_exact(laws, counts, points):
    # At t = 0 each three-mode component is its own coordinate, so its global
    # moments are the law's. Gauss-Legendre with 4 or more points integrates
    # the beta density times xi^2 (degree 7) exactly on every element, so
    # the split only adds rounding.
    config = SolverConfig(
        KO,
        tuple(AXIS_LAWS[law][0] for law in laws),
        tuple(counts),
        6,
        dt=5e-3,
        duration=0.0,
        points_per_axis=points,
    )
    series = run_me_fsc(config)
    for i, law in enumerate(laws):
        _, mean, variance = AXIS_LAWS[law]
        assert series.mean[i, 0] == pytest.approx(mean, rel=1e-13, abs=1e-13)
        assert series.variance[i, 0] == pytest.approx(variance, rel=1e-13)
