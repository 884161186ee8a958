"""Germ construction and the truncated Taylor flow map."""

import numpy as np
import pytest

from mefsc import MODELS, Distribution, build_quadrature, enriched_germs, taylor_propagate

OSC = MODELS["oscillator"]
THIRD = MODELS["third_order"]
VDP = MODELS["vanderpol"]
KO = MODELS["kraichnan_orszag"]


def point_grid(*centers):
    """One-node quadrature grid pinning each parameter at an exact value."""
    dists = tuple(Distribution.uniform(c - 1.0, c + 1.0) for c in centers)
    box = [[c - 1.0, c + 1.0] for c in centers]
    return build_quadrature(box, dists, points_per_axis=1)


def test_oscillator_germs_at_known_state():
    grid = point_grid(400.0)  # stiffness 400, mass 100 -> k/m = 4
    state = np.array([[0.05], [0.2]])
    germs = enriched_germs(OSC, 0.0, state, grid, 3)
    assert germs.count == 3
    assert germs.values[:, 0].tolist() == [0.05, 0.2, -0.2]
    germs4 = enriched_germs(OSC, 0.0, state, grid, 4)
    assert germs4.values[3, 0] == -0.8  # -(k/m) * dudt


def test_oscillator_germ_labels():
    grid = point_grid(400.0)
    state = np.array([[0.05], [0.2]])
    germs = enriched_germs(OSC, 0.0, state, grid, 4)
    assert germs.labels == ("u", "dudt", "D2[u]", "D3[u]")


def test_ko_germs_at_unit_node():
    grid = point_grid(1.0, 1.0, 0.0)
    state = np.array([[1.0], [1.0], [0.0]])
    germs = enriched_germs(KO, 0.0, state, grid, 6)
    # u1' = u1 u3 = 0, u2' = -u2 u3 = 0, u3' = -u1^2 + u2^2 = 0
    assert germs.values[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert germs.labels[:4] == ("u1", "u2", "u3", "D1[u1]")


def test_truncation_bounds_enforced():
    grid = point_grid(400.0)
    state = np.array([[0.05], [0.2]])
    with pytest.raises(ValueError):
        enriched_germs(OSC, 0.0, state, grid, 2)
    with pytest.raises(ValueError):
        enriched_germs(OSC, 0.0, state, grid, 2 + OSC.max_enrichment + 1)


@pytest.mark.parametrize("model,centers", [
    (OSC, (400.0,)),
    (THIRD, (2.5,)),
    (VDP, (300.0, 400.0)),
    (KO, (0.3, -0.4, 0.6)),
])
def test_chain_order_zero_matches_rhs(model, centers):
    grid = point_grid(*centers)
    nodes = grid.nodes
    rng = np.random.default_rng(5)
    state = rng.uniform(-0.5, 0.5, size=(model.state_dim, nodes.shape[0]))
    chain = model.derivative_chain(0.0, nodes, state, 0)
    rhs = model.rhs(0.0, nodes, state)
    if model.companion:
        assert np.array_equal(chain[0], rhs[-1])
    else:
        assert np.array_equal(chain, rhs)


@pytest.mark.parametrize("model,centers", [
    (OSC, (400.0,)),
    (THIRD, (2.5,)),
    (VDP, (300.0, 400.0)),
    (KO, (0.3, -0.4, 0.6)),
])
def test_rhs_writes_into_out(model, centers):
    rng = np.random.default_rng(6)
    nodes = np.array(centers) * rng.uniform(0.9, 1.1, size=(7, len(centers)))
    state = rng.uniform(-0.5, 0.5, size=(model.state_dim, 7))
    state[:, 0] = 0.0  # exact zeros, so the sign of a zero row entry is checked too
    out = np.full_like(state, np.nan)
    assert model.rhs(0.0, nodes, state, out=out) is out
    fresh = model.rhs(0.0, nodes, state)
    assert np.array_equal(out, fresh)
    assert np.array_equal(np.signbit(out), np.signbit(fresh))


@pytest.mark.parametrize("model,centers,n", [(OSC, (400.0,), 2), (THIRD, (2.5,), 3)])
def test_germs_are_successive_time_derivatives(model, centers, n):
    # For the linear models, germ j+1 should be d/dt of germ j along the
    # flow. Central finite differences at 1e-6 resolve that to ~1e-12.
    grid = point_grid(*centers)
    nodes = grid.nodes
    state = np.vstack([np.full(1, 0.11 * (i + 1)) for i in range(n)])
    trunc = n + 4
    delta = 1e-6
    plus = taylor_propagate(model, 0.0, nodes, state, delta, 6)
    minus = taylor_propagate(model, 0.0, nodes, state, -delta, 6)
    g_plus = enriched_germs(model, 0.0, plus, grid, trunc).values
    g_minus = enriched_germs(model, 0.0, minus, grid, trunc).values
    g_mid = enriched_germs(model, 0.0, state, grid, trunc).values
    fd = (g_plus - g_minus) / (2.0 * delta)
    scale = np.max(np.abs(g_mid))
    for j in range(trunc - 1):
        assert np.max(np.abs(fd[j] - g_mid[j + 1])) < 1e-6 * scale


def test_taylor_order_zero_is_identity():
    grid = point_grid(400.0)
    state = np.array([[0.05], [0.2]])
    out = taylor_propagate(OSC, 0.0, grid.nodes, state, 0.37, 0)
    assert np.array_equal(out, state)
    assert out is not state


def test_taylor_order_one_is_euler():
    grid = point_grid(400.0)
    state = np.array([[0.05], [0.2]])
    h = 0.01
    out = taylor_propagate(OSC, 0.0, grid.nodes, state, h, 1)
    assert out[0, 0] == pytest.approx(0.05 + h * 0.2, rel=1e-15)
    assert out[1, 0] == pytest.approx(0.2 + h * (-0.2), rel=1e-15)


@pytest.mark.parametrize("order,steps", [(1, (1e-2, 1e-3, 1e-4)), (2, (1e-2, 1e-3, 1e-4)), (3, (0.3, 0.1, 0.03))])
def test_taylor_convergence_order(order, steps):
    # Truncation at order M leaves an O(h^{M+1}) remainder; check the
    # log-log slope of the endpoint error for the oscillator.
    grid = point_grid(400.0)
    u0, v0, omega = 0.05, 0.2, 2.0
    state = np.array([[u0], [v0]])
    errs = []
    for h in steps:
        out = taylor_propagate(OSC, 0.0, grid.nodes, state, h, order)
        exact = u0 * np.cos(omega * h) + (v0 / omega) * np.sin(omega * h)
        errs.append(abs(out[0, 0] - exact))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(slope - (order + 1)) < 0.15


def test_taylor_order_validation():
    grid = point_grid(400.0)
    state = np.array([[0.05], [0.2]])
    with pytest.raises(ValueError):
        taylor_propagate(OSC, 0.0, grid.nodes, state, 0.1, -1)
    with pytest.raises(ValueError):
        taylor_propagate(OSC, 0.0, grid.nodes, state, 0.1, OSC.max_enrichment + 1)


def test_germ_evaluation_is_pure():
    dists = (Distribution.uniform(340.0, 460.0),)
    grid = build_quadrature([340.0, 460.0], dists, points_per_axis=10)
    rng = np.random.default_rng(2)
    state = rng.uniform(-1.0, 1.0, size=(2, grid.n_nodes))
    a = enriched_germs(OSC, 1.5, state, grid, 5)
    b = enriched_germs(OSC, 1.5, state, grid, 5)
    assert np.array_equal(a.values, b.values)
    c = taylor_propagate(OSC, 1.5, grid.nodes, state, 0.01, 4)
    d = taylor_propagate(OSC, 1.5, grid.nodes, state, 0.01, 4)
    assert np.array_equal(c, d)
