"""Single-element solver: transfer, Galerkin stepping, moments, full runs."""

import numpy as np
import pytest

from mefsc import (
    MODELS,
    Distribution,
    ElementState,
    MomentSeries,
    NumericalBlowup,
    WarmStart,
    build_quadrature,
    enriched_germs,
    error_metrics,
    exact_problem1_moments,
    galerkin_rhs,
    gram_schmidt,
    inner_product,
    local_moments,
    partition_random_domain,
    project,
    rebuild_basis,
    rk4_step,
    run_element,
    run_elements,
    transfer_modes,
)

OSC = MODELS["oscillator"]
KO = MODELS["kraichnan_orszag"]
THIRD = MODELS["third_order"]

P1_DIST = (Distribution.uniform(340.0, 460.0),)
P1_BOX = [[340.0, 460.0]]


def fresh_state(model, dists, box, truncation, state_values=None, t=0.0):
    grid = build_quadrature(box, dists, points_per_axis=10)
    if state_values is None:
        state_values = model.initial_state(grid.nodes)
    germs = enriched_germs(model, t, state_values, grid, truncation)
    cands = np.vstack([np.ones(grid.n_nodes), germs.values])
    basis = gram_schmidt(cands, grid)
    modes = project(state_values, basis, grid)
    return ElementState(t=t, basis=basis, modes=modes, element_id=0, grid=grid)


def evolved_oscillator_state(steps=1200, dt=1e-3):
    """Run the oscillator into the flow-driven phase (warm start ends at 1 s)."""
    series = run_element(
        P1_BOX, P1_DIST, OSC, 4, dt, steps * dt, warmstart=WarmStart(7, 1.0)
    )
    return series.final_state


def deterministic_grid(center=400.0):
    dists = (Distribution.uniform(center - 1.0, center + 1.0),)
    return build_quadrature([[center - 1.0, center + 1.0]], dists, points_per_axis=1)


def test_transfer_structure_against_new_basis():
    # Re-expressing the state in a basis built from its own germs must give
    # mode l+1 of component l equal to one, zeros beyond, and the local mean
    # in mode zero.
    state = evolved_oscillator_state()
    new_basis = rebuild_basis(state, OSC, 4)
    modes = transfer_modes(state, new_basis)
    values = state.modes @ state.basis.values
    means = values @ state.grid.weights
    assert np.allclose(modes[:, 0], means, rtol=0, atol=1e-14)
    assert modes[0, 1] == 1.0
    assert np.all(modes[0, 2:] == 0.0)
    assert modes[1, 2] == 1.0
    assert np.all(modes[1, 3:] == 0.0)


def test_transfer_matches_projection():
    state = evolved_oscillator_state()
    new_basis = rebuild_basis(state, OSC, 4)
    det_modes = transfer_modes(state, new_basis)
    proj_modes = project(state.modes @ state.basis.values, new_basis, state.grid)
    assert np.max(np.abs(det_modes - proj_modes)) < 1e-10


def test_transfer_preserves_moments():
    state = evolved_oscillator_state()
    before = local_moments(state)
    new_basis = rebuild_basis(state, OSC, 4)
    after = local_moments(
        ElementState(
            t=state.t,
            basis=new_basis,
            modes=transfer_modes(state, new_basis),
            element_id=0,
            grid=state.grid,
        )
    )
    assert np.allclose(after.mean, before.mean, rtol=1e-10, atol=0)
    assert np.allclose(after.variance, before.variance, rtol=1e-10, atol=1e-30)


def test_transfer_falls_back_when_germ_dropped():
    # Make dudt a multiple of u so its germ is discarded; the transfer must
    # degrade to plain projection and log the event.
    state = evolved_oscillator_state()
    values = state.modes @ state.basis.values
    values[1] = 2.0 * values[0]
    modes = project(values, state.basis, state.grid)
    degenerate = ElementState(
        t=state.t, basis=state.basis, modes=modes, element_id=3, grid=state.grid
    )
    new_basis = rebuild_basis(degenerate, OSC, 4)
    assert not np.all(new_basis.kept_flags[1:3])
    events = []
    got = transfer_modes(degenerate, new_basis, events)
    expected = project(degenerate.modes @ state.basis.values, new_basis, state.grid)
    assert np.array_equal(got, expected)
    assert len(events) == 1
    assert events[0].row == -1
    assert events[0].element_id == 3


def test_galerkin_rhs_deterministic_node():
    grid = deterministic_grid(400.0)
    cands = np.ones((1, 1))
    basis = gram_schmidt(cands, grid)
    modes = np.array([[0.05], [0.0]])
    out = galerkin_rhs(0.0, modes, basis, OSC, grid)
    assert out[0, 0] == 0.0
    assert out[1, 0] == -0.2  # -(400/100) * 0.05


def test_galerkin_rhs_linear_stiffness_modes():
    # With u constant and the stiffness expanded in {1, k - E[k]}, the
    # acceleration modes follow from k = 400 + (k - 400) exactly.
    grid = build_quadrature(P1_BOX, P1_DIST, points_per_axis=10)
    k = grid.nodes[:, 0]
    basis = gram_schmidt(np.vstack([np.ones_like(k), k]), grid)
    c = 0.05
    modes = np.array([[c, 0.0], [0.0, 0.0]])
    out = galerkin_rhs(0.0, modes, basis, OSC, grid)
    assert np.allclose(out[0], [0.0, 0.0], atol=1e-16)
    assert out[1, 0] == pytest.approx(-4.0 * c, rel=1e-14)
    assert out[1, 1] == pytest.approx(-c / 100.0, rel=1e-12)


def test_rk4_single_step_matches_closed_form():
    grid = deterministic_grid(400.0)
    basis = gram_schmidt(np.ones((1, 1)), grid)
    state = ElementState(
        t=0.0, basis=basis, modes=np.array([[0.05], [0.2]]), element_id=0, grid=grid
    )
    dt = 1e-3
    stepped = rk4_step(state, OSC, dt)
    exact = 0.05 * np.cos(2.0 * dt) + 0.1 * np.sin(2.0 * dt)
    assert stepped.t == dt
    assert abs(stepped.modes[0, 0] - exact) < 1e-13


def test_rk4_is_fourth_order():
    grid = deterministic_grid(400.0)
    basis = gram_schmidt(np.ones((1, 1)), grid)
    period = np.pi  # omega = 2
    errs = []
    for n in (200, 400):
        state = ElementState(
            t=0.0, basis=basis, modes=np.array([[0.05], [0.2]]), element_id=0, grid=grid
        )
        dt = period / n
        for _ in range(n):
            state = rk4_step(state, OSC, dt)
        errs.append(abs(state.modes[0, 0] - 0.05))  # full period returns to u0
    rate = np.log2(errs[0] / errs[1])
    assert abs(rate - 4.0) < 0.2


def test_rk4_rejects_nonpositive_dt():
    state = evolved_oscillator_state(steps=1050)
    with pytest.raises(ValueError):
        rk4_step(state, OSC, 0.0)


def test_local_moments_simple_cases():
    dist = (Distribution.uniform(-1.0, 1.0),)
    grid = build_quadrature([[-1.0, 1.0]], dist, points_per_axis=10)
    x = grid.nodes[:, 0]
    basis = gram_schmidt(np.vstack([np.ones_like(x), x]), grid)
    state = ElementState(
        t=0.0, basis=basis, modes=np.array([[0.0, 1.0]]), element_id=0, grid=grid
    )
    sample = local_moments(state)
    assert sample.mean[0] == 0.0
    assert abs(sample.variance[0] - 1.0 / 3.0) < 1e-15
    flat = ElementState(
        t=0.0, basis=basis, modes=np.array([[7.5, 0.0]]), element_id=0, grid=grid
    )
    assert local_moments(flat).variance[0] == 0.0


def test_local_moments_match_node_quadrature():
    state = evolved_oscillator_state()
    sample = local_moments(state)
    values = state.modes @ state.basis.values
    for row in range(2):
        mean = float(np.dot(state.grid.weights, values[row]))
        centered = values[row] - mean
        var = inner_product(centered, centered, state.grid)
        assert abs(sample.mean[row] - mean) < 1e-14
        assert abs(sample.variance[row] - var) < 1e-12 * max(var, 1e-12)


def local_error_vs_exact(series, distribution):
    wrapped = MomentSeries(
        times=series.times,
        mean=series.mean,
        variance=series.variance,
        component_names=("u", "dudt"),
    )
    reference = exact_problem1_moments(series.times, distribution)
    return error_metrics(wrapped, reference)


def test_run_element_single_element_accuracy():
    series = run_element(
        P1_BOX, P1_DIST, OSC, 4, 1e-3, 10.0, warmstart=WarmStart(7, 1.0)
    )
    errors = local_error_vs_exact(series, P1_DIST[0])
    assert errors.global_mean_error[0] < 1e-6
    assert errors.global_variance_error[0] < 1e-6


def test_run_element_pure_warm_start():
    # Warm start spanning the whole run means no germ rebuild ever happens:
    # the final basis is still the degree-7 polynomial one.
    series = run_element(
        P1_BOX, P1_DIST, OSC, 4, 1e-3, 2.0, warmstart=WarmStart(7, 2.0)
    )
    assert series.final_state.basis.count == 8
    assert series.fallback_events == []
    errors = local_error_vs_exact(series, P1_DIST[0])
    assert errors.global_mean_error[0] < 1e-8


def test_run_element_duration_zero():
    series = run_element(P1_BOX, P1_DIST, OSC, 4, 1e-3, 0.0)
    assert series.times.tolist() == [0.0]
    assert np.allclose(series.mean[:, 0], [0.05, 0.2], rtol=1e-14)
    # deterministic ICs: only projection rounding can leak into the variance
    assert np.max(series.variance[:, 0]) < 1e-30


@pytest.mark.parametrize("duration", [0.0105, 0.0004])
def test_run_element_rejects_partial_step_horizon(duration):
    with pytest.raises(ValueError, match="not a whole number of steps"):
        run_element(P1_BOX, P1_DIST, OSC, 4, 1e-3, duration)
    warmstart = WarmStart(7, duration)
    with pytest.raises(ValueError, match="warm-start duration"):
        run_element(P1_BOX, P1_DIST, OSC, 4, 1e-3, 0.02, warmstart=warmstart)


def test_run_element_ko_initial_variance():
    # Initial conditions are the coordinates themselves, so the variance of
    # u1 at t=0 is the conditional variance of xi_1 on the element.
    dists = tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3))
    box = [[0.0, 0.5], [-1.0, -0.5], [0.25, 0.75]]
    series = run_element(box, dists, KO, 6, 5e-3, 0.0)
    width_var = 0.5**2 / 12.0
    assert np.allclose(series.variance[:, 0], width_var, rtol=1e-12)
    assert np.allclose(series.mean[:, 0], [0.25, -0.75, 0.5], rtol=1e-14)


def test_run_element_point_mass_tracks_deterministic():
    # A vanishingly narrow stiffness law reduces to a deterministic
    # oscillator: the mean must follow it and the variance must stay tiny.
    half = 5e-10
    box = [[400.0 - half, 400.0 + half]]
    dists = (Distribution.uniform(400.0 - half, 400.0 + half),)
    series = run_element(box, dists, OSC, 4, 1e-3, 1.0)
    t = series.times
    exact = 0.05 * np.cos(2.0 * t) + 0.1 * np.sin(2.0 * t)
    assert np.max(np.abs(series.mean[0] - exact)) < 1e-8
    assert np.max(series.variance) < 1e-12


def test_unstable_step_raises_blowup():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as info:
            run_element(P1_BOX, P1_DIST, OSC, 4, 2.0, 1000.0, element_id=5)
    assert info.value.element_id == 5
    assert "non-finite" in str(info.value)
    assert info.value.t > 0.0


def test_batch_results_do_not_depend_on_batch_members():
    # The third-order model drops derivative germs in some elements at some
    # steps and not in others, so this batch runs with masked basis rows.
    dists = (Distribution.uniform(2.0, 3.0),)
    part = partition_random_domain(dists, (4,))
    args = (dists, THIRD, 5, 1e-3, 1.5, WarmStart(7, 1.0))
    batch = run_elements(part.boxes, range(4), *args, audit_orthogonality=True)
    for e, together in enumerate(batch):
        alone = run_element(
            part.boxes[e], *args, element_id=e, audit_orthogonality=True
        )
        assert np.array_equal(together.mean, alone.mean)
        assert np.array_equal(together.variance, alone.variance)
        assert together.max_orthogonality_residual == alone.max_orthogonality_residual
        assert together.max_orthogonality_residual < 1e-10
        basis = together.final_state.basis
        assert basis.count == np.count_nonzero(basis.kept_flags)
        assert together.final_state.modes.shape == (3, basis.count)


def test_batch_blowup_names_lowest_offending_element():
    # With dt = 1 RK4 is stable for stiffness up to about 800 (omega*dt < 2.8)
    # and diverges for stiffness above 3000, so only elements 7 and 5 blow up.
    dists = (Distribution.uniform(340.0, 3600.0),)
    boxes = [[[3000.0, 3600.0]], [[340.0, 460.0]], [[3000.0, 3600.0]]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as info:
            run_elements(boxes, [7, 3, 5], dists, OSC, 4, 1.0, 1000.0)
    assert info.value.element_id == 5
    assert info.value.t > 0.0
    stable = run_element([[340.0, 460.0]], dists, OSC, 4, 1.0, 1000.0)
    assert np.all(np.isfinite(stable.mean))


def test_degenerate_germs_after_warm_start_raise():
    # Constant-only warm basis plus a practically deterministic parameter:
    # at the hand-over there is no germ left to build a basis from.
    half = 5e-13
    box = [[400.0 - half, 400.0 + half]]
    dists = (Distribution.uniform(400.0 - half, 400.0 + half),)
    with pytest.raises(NumericalBlowup) as info:
        run_element(box, dists, OSC, 4, 1e-3, 1.0, warmstart=WarmStart(0, 0.5))
    assert "degenerate" in str(info.value)


def test_rebuild_basis_deterministic():
    state = evolved_oscillator_state()
    a = rebuild_basis(state, OSC, 4)
    b = rebuild_basis(state, OSC, 4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.squared_norms, b.squared_norms)


def test_fallback_events_survive_pickling():
    import pickle

    err = NumericalBlowup("non-finite state values", 1.25, 7)
    clone = pickle.loads(pickle.dumps(err))
    assert clone.t == 1.25
    assert clone.element_id == 7
    assert "t=1.25" in str(clone)
