"""Batched element solver on batches of one: transfer, Galerkin stepping,
moments, full runs."""

import numpy as np
import pytest

from mefsc import (
    MODELS,
    Distribution,
    MomentSeries,
    NumericalBlowup,
    WarmStart,
    build_quadrature,
    error_metrics,
    exact_problem1_moments,
    fsc_element,
    partition_random_domain,
    run_elements,
)
from mefsc.basis import orthogonalize
from mefsc.fsc_element import _local_variance
from stepping import galerkin_rhs, galerkin_rk4, germ_candidates, stored_run, transfer

OSC = MODELS["oscillator"]
KO = MODELS["kraichnan_orszag"]
THIRD = MODELS["third_order"]

P1_DIST = (Distribution.uniform(340.0, 460.0),)
P1_BOX = [[340.0, 460.0]]
ONE = np.zeros(1, dtype=int)


def deterministic_grid(center=400.0):
    dists = (Distribution.uniform(center - 1.0, center + 1.0),)
    return build_quadrature([[center - 1.0, center + 1.0]], dists, points_per_axis=1)


def test_transfer_structure_against_new_basis(warm_oscillator):
    # Re-expressing the state in a basis built from its own germs must give
    # mode l+1 of component l equal to one, zeros beyond, and the local mean
    # in mode zero.
    grid, basis, modes = warm_oscillator
    values = modes @ basis.values
    new_basis = orthogonalize(
        germ_candidates(OSC, 1.0, values[0], grid.nodes, 4), grid.weights[None]
    )
    new = transfer(values, new_basis, 1.0, ONE, None)[0]
    means = values[0] @ grid.weights
    assert np.allclose(new[:, 0], means, rtol=0, atol=1e-14)
    assert new[0, 1] == 1.0
    assert np.all(new[0, 2:] == 0.0)
    assert new[1, 2] == 1.0
    assert np.all(new[1, 3:] == 0.0)


def test_transfer_matches_projection(warm_oscillator):
    grid, basis, modes = warm_oscillator
    values = modes @ basis.values
    new_basis = orthogonalize(
        germ_candidates(OSC, 1.0, values[0], grid.nodes, 4), grid.weights[None]
    )
    det_modes = transfer(values, new_basis, 1.0, ONE, None)
    proj_modes = values @ new_basis.projector
    assert np.max(np.abs(det_modes - proj_modes)) < 1e-10


def test_transfer_preserves_moments(warm_oscillator):
    grid, basis, modes = warm_oscillator
    values = modes @ basis.values
    new_basis = orthogonalize(
        germ_candidates(OSC, 1.0, values[0], grid.nodes, 4), grid.weights[None]
    )
    new = transfer(values, new_basis, 1.0, ONE, None)
    assert np.allclose(new[:, :, 0], modes[:, :, 0], rtol=1e-10, atol=0)
    assert np.allclose(
        _local_variance(new, new_basis),
        _local_variance(modes, basis),
        rtol=1e-10,
        atol=1e-30,
    )


def test_transfer_falls_back_when_germ_dropped(warm_oscillator):
    # Make dudt a multiple of u so its germ is discarded; the transfer must
    # degrade to plain projection and log the event.
    grid, basis, modes = warm_oscillator
    values = modes @ basis.values
    values[0, 1] = 2.0 * values[0, 0]
    values = (values @ basis.projector) @ basis.values
    new_basis = orthogonalize(
        germ_candidates(OSC, 1.0, values[0], grid.nodes, 4), grid.weights[None]
    )
    assert not np.all(new_basis.kept[0, 1:3])
    events = []
    got = transfer(values, new_basis, 1.0, np.array([3]), [events])
    assert np.array_equal(got, values @ new_basis.projector)
    assert len(events) == 1
    assert events[0].element_id == 3


def test_galerkin_rhs_deterministic_node():
    grid = deterministic_grid(400.0)
    basis = orthogonalize(np.ones((1, 1, 1)), grid.weights[None])
    modes = np.array([[[0.05], [0.0]]])
    out = galerkin_rhs(0.0, modes, basis, OSC, grid.nodes, ONE)[0]
    assert out[0, 0] == 0.0
    assert out[1, 0] == -0.2  # -(400/100) * 0.05


def test_galerkin_rhs_linear_stiffness_modes():
    # With u constant and the stiffness expanded in {1, k - E[k]}, the
    # acceleration modes follow from k = 400 + (k - 400) exactly.
    grid = build_quadrature(P1_BOX, P1_DIST, points_per_axis=10)
    k = grid.nodes[:, 0]
    basis = orthogonalize(np.vstack([np.ones_like(k), k])[None], grid.weights[None])
    c = 0.05
    modes = np.array([[[c, 0.0], [0.0, 0.0]]])
    out = galerkin_rhs(0.0, modes, basis, OSC, grid.nodes, ONE)[0]
    assert np.allclose(out[0], [0.0, 0.0], atol=1e-16)
    assert out[1, 0] == pytest.approx(-4.0 * c, rel=1e-14)
    assert out[1, 1] == pytest.approx(-c / 100.0, rel=1e-12)


def test_rk4_single_step_matches_closed_form():
    grid = deterministic_grid(400.0)
    basis = orthogonalize(np.ones((1, 1, 1)), grid.weights[None])
    dt = 1e-3
    modes = np.array([[[0.05], [0.2]]])
    stepped = galerkin_rk4(0.0, modes, basis, OSC, grid.nodes, dt, ONE)
    exact = 0.05 * np.cos(2.0 * dt) + 0.1 * np.sin(2.0 * dt)
    assert abs(stepped[0, 0, 0] - exact) < 1e-13


def test_rk4_is_fourth_order():
    grid = deterministic_grid(400.0)
    basis = orthogonalize(np.ones((1, 1, 1)), grid.weights[None])
    period = np.pi  # omega = 2
    errs = []
    for n in (200, 400):
        modes = np.array([[[0.05], [0.2]]])
        dt = period / n
        for i in range(n):
            modes = galerkin_rk4(i * dt, modes, basis, OSC, grid.nodes, dt, ONE)
        errs.append(abs(modes[0, 0, 0] - 0.05))  # full period returns to u0
    rate = np.log2(errs[0] / errs[1])
    assert abs(rate - 4.0) < 0.2


def test_local_moments_simple_cases():
    dist = (Distribution.uniform(-1.0, 1.0),)
    grid = build_quadrature([[-1.0, 1.0]], dist, points_per_axis=10)
    x = grid.nodes[:, 0]
    basis = orthogonalize(np.vstack([np.ones_like(x), x])[None], grid.weights[None])
    modes = np.array([[[0.0, 1.0]]])
    assert modes[0, 0, 0] == 0.0
    assert abs(_local_variance(modes, basis)[0, 0] - 1.0 / 3.0) < 1e-15
    assert _local_variance(np.array([[[7.5, 0.0]]]), basis)[0, 0] == 0.0


def test_local_moments_match_node_quadrature(warm_oscillator):
    grid, basis, modes = warm_oscillator
    values = (modes @ basis.values)[0]
    variance = _local_variance(modes, basis)[0]
    for row in range(2):
        mean = float(np.dot(grid.weights, values[row]))
        var = float(np.dot(grid.weights, (values[row] - mean) ** 2))
        assert abs(modes[0, row, 0] - mean) < 1e-14
        assert abs(variance[row] - var) < 1e-12 * max(var, 1e-12)


def local_error_vs_exact(times, mean, variance, distribution):
    wrapped = MomentSeries(
        times=times, mean=mean, variance=variance, component_names=("u", "dudt")
    )
    reference = exact_problem1_moments(times, distribution)
    return error_metrics(wrapped, reference)


def test_run_elements_requires_reduce():
    with pytest.raises(TypeError):
        run_elements([P1_BOX], [0], P1_DIST, OSC, 4, 1e-3, 0.0)


def test_run_element_single_element_accuracy():
    (series,), (mean,), (variance,) = stored_run(
        [P1_BOX], [0], P1_DIST, OSC, 4, 1e-3, 10.0, warmstart=WarmStart(7, 1.0)
    )
    errors = local_error_vs_exact(series.times, mean, variance, P1_DIST[0])
    assert errors.global_mean_error[0] < 1e-6
    assert errors.global_variance_error[0] < 1e-6


def test_run_element_pure_warm_start(monkeypatch):
    # Warm start spanning the whole run means no germ rebuild ever happens:
    # the only basis is the degree-7 polynomial one.
    shapes = []

    def recording(cands, weights):
        shapes.append(cands.shape)
        return orthogonalize(cands, weights)

    monkeypatch.setattr(fsc_element, "orthogonalize", recording)
    (series,), (mean,), (variance,) = stored_run(
        [P1_BOX], [0], P1_DIST, OSC, 4, 1e-3, 2.0, warmstart=WarmStart(7, 2.0)
    )
    assert shapes == [(1, 8, 10)]
    assert series.fallback_events == []
    errors = local_error_vs_exact(series.times, mean, variance, P1_DIST[0])
    assert errors.global_mean_error[0] < 1e-8


def test_run_element_duration_zero():
    (series,), (mean,), (variance,) = stored_run(
        [P1_BOX], [0], P1_DIST, OSC, 4, 1e-3, 0.0
    )
    assert series.times.tolist() == [0.0]
    assert np.allclose(mean[:, 0], [0.05, 0.2], rtol=1e-14)
    # deterministic ICs: only projection rounding can leak into the variance
    assert np.max(variance[:, 0]) < 1e-30


@pytest.mark.parametrize("duration", [0.0105, 0.0004])
def test_run_element_rejects_partial_step_horizon(duration):
    with pytest.raises(ValueError, match="not a whole number of steps"):
        stored_run([P1_BOX], [0], P1_DIST, OSC, 4, 1e-3, duration)
    warmstart = WarmStart(7, duration)
    with pytest.raises(ValueError, match="warm-start duration"):
        stored_run([P1_BOX], [0], P1_DIST, OSC, 4, 1e-3, 0.02, warmstart=warmstart)


def test_run_element_ko_initial_variance():
    # Initial conditions are the coordinates themselves, so the variance of
    # u1 at t=0 is the conditional variance of xi_1 on the element.
    dists = tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3))
    box = [[0.0, 0.5], [-1.0, -0.5], [0.25, 0.75]]
    _, (mean,), (variance,) = stored_run([box], [0], dists, KO, 6, 5e-3, 0.0)
    width_var = 0.5**2 / 12.0
    assert np.allclose(variance[:, 0], width_var, rtol=1e-12)
    assert np.allclose(mean[:, 0], [0.25, -0.75, 0.5], rtol=1e-14)


def test_run_element_point_mass_tracks_deterministic():
    # A vanishingly narrow stiffness law reduces to a deterministic
    # oscillator: the mean must follow it and the variance must stay tiny.
    half = 5e-10
    box = [[400.0 - half, 400.0 + half]]
    dists = (Distribution.uniform(400.0 - half, 400.0 + half),)
    (series,), (mean,), (variance,) = stored_run([box], [0], dists, OSC, 4, 1e-3, 1.0)
    t = series.times
    exact = 0.05 * np.cos(2.0 * t) + 0.1 * np.sin(2.0 * t)
    assert np.max(np.abs(mean[0] - exact)) < 1e-8
    assert np.max(variance) < 1e-12


def test_unstable_step_raises_blowup():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as info:
            stored_run([P1_BOX], [5], P1_DIST, OSC, 4, 2.0, 1000.0)
    assert info.value.element_id == 5
    assert "non-finite" in str(info.value)
    assert info.value.t > 0.0


# Batches whose elements drop germs at different steps: third-order with a
# hand-over from its warm start, three-mode at a truncation that cuts a
# derivative level, and Van der Pol; the last two as in
# test_aggregate.WORKER_COUNT_CASES.
BATCH_CASES = {
    "third_order": (
        (Distribution.uniform(2.0, 3.0),), (4,), THIRD, 5, 1e-3, 1.5, WarmStart(7, 1.0), 10
    ),
    "kraichnan_orszag_truncation5": (
        tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3)),
        (2, 2, 1), KO, 5, 5e-3, 0.1, None, 4,
    ),
    "vanderpol": (
        (Distribution.uniform(150.0, 450.0), Distribution.beta(2.0, 5.0, 340.0, 460.0)),
        (3, 2), MODELS["vanderpol"], 4, 5e-3, 0.1, WarmStart(9, 0.05), 4,
    ),
}


@pytest.mark.parametrize("name", BATCH_CASES)
def test_batch_results_do_not_depend_on_batch_members(monkeypatch, name):
    # An element's bits must not depend on which elements share its batch,
    # nor on the blocks the batch is stepped in: the batch is run in one
    # block, in blocks of one element, and each element alone.
    dists, counts, model, truncation, dt, duration, warmstart, points = BATCH_CASES[name]
    part = partition_random_domain(dists, counts)
    ids = range(len(part.boxes))
    args = (dists, model, truncation, dt, duration, warmstart, points)
    audit = {"audit_orthogonality": True}
    batch, means, variances = stored_run(part.boxes, ids, *args, **audit)
    with monkeypatch.context() as patch:
        patch.setattr(fsc_element, "_ELEMENT_BLOCK_BYTES", 1)
        blocked, blocked_means, blocked_variances = stored_run(
            part.boxes, ids, *args, **audit
        )
    assert np.array_equal(means, blocked_means)
    assert np.array_equal(variances, blocked_variances)
    for e, together in enumerate(batch):
        assert blocked[e].fallback_events == together.fallback_events
        assert (
            blocked[e].max_orthogonality_residual == together.max_orthogonality_residual
        )
        (alone,), (mean,), (variance,) = stored_run(
            part.boxes[e : e + 1], [e], *args, **audit
        )
        assert np.array_equal(means[e], mean)
        assert np.array_equal(variances[e], variance)
        assert together.max_orthogonality_residual == alone.max_orthogonality_residual
        assert together.max_orthogonality_residual < 1e-10


# Budgets of the element blocks: the default, one block per batch here, and
# blocks of one element.
BLOCK_BUDGETS = (fsc_element._ELEMENT_BLOCK_BYTES, 1)


def test_batch_blowup_names_lowest_offending_element(monkeypatch):
    # With dt = 1 RK4 is stable for stiffness up to about 800 (omega*dt < 2.8)
    # and diverges for stiffness above 3000, so only elements 7 and 5 blow up.
    # Stepped in blocks of one, they must be reported as in one block.
    dists = (Distribution.uniform(340.0, 3600.0),)
    boxes = [[[3000.0, 3600.0]], [[340.0, 460.0]], [[3000.0, 3600.0]]]
    reports = []
    for budget in BLOCK_BUDGETS:
        monkeypatch.setattr(fsc_element, "_ELEMENT_BLOCK_BYTES", budget)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalBlowup) as info:
                stored_run(boxes, [7, 3, 5], dists, OSC, 4, 1.0, 1000.0)
        reports.append((str(info.value), info.value.t, info.value.element_id))
    assert reports[0][2] == 5
    assert reports[0][1] > 0.0
    assert reports[1] == reports[0]
    _, stable_mean, _ = stored_run(boxes[1:2], [3], dists, OSC, 4, 1.0, 1000.0)
    assert np.all(np.isfinite(stable_mean))


def test_degenerate_germs_after_warm_start_raise(monkeypatch):
    # Constant-only warm basis plus a practically deterministic parameter:
    # at the hand-over there is no germ left to build a basis from. The
    # second element is one too; the check is batch-wide, so it names the
    # lowest id whatever the blocks.
    half = 5e-13
    box = [[400.0 - half, 400.0 + half]]
    dists = (Distribution.uniform(400.0 - half, 400.0 + half),)
    for budget in BLOCK_BUDGETS:
        monkeypatch.setattr(fsc_element, "_ELEMENT_BLOCK_BYTES", budget)
        with pytest.raises(NumericalBlowup) as info:
            stored_run([box, box], [4, 2], dists, OSC, 4, 1e-3, 1.0, WarmStart(0, 0.5))
        assert "degenerate" in str(info.value)
        assert info.value.element_id == 2
        assert info.value.t == 0.5


def test_rebuild_basis_deterministic(warm_oscillator):
    grid, basis, modes = warm_oscillator
    values = modes @ basis.values
    a = orthogonalize(
        germ_candidates(OSC, 1.0, values[0], grid.nodes, 4), grid.weights[None]
    )
    b = orthogonalize(
        germ_candidates(OSC, 1.0, values[0], grid.nodes, 4), grid.weights[None]
    )
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.squared_norms, b.squared_norms)


def test_fallback_events_survive_pickling():
    import pickle

    err = NumericalBlowup("non-finite state values", 1.25, 7)
    clone = pickle.loads(pickle.dumps(err))
    assert clone.t == 1.25
    assert clone.element_id == 7
    assert "t=1.25" in str(clone)
