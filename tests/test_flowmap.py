"""Germ construction and the truncated Taylor flow map."""

from math import comb

import numpy as np
import pytest

from mefsc import MODELS, Distribution, ModelSpec, build_quadrature
from mefsc.flowmap import check_truncation, fill_germs, germ_scratch_rows
from stepping import stacked_rhs

OSC = MODELS["oscillator"]
THIRD = MODELS["third_order"]
VDP = MODELS["vanderpol"]
KO = MODELS["kraichnan_orszag"]


def point_grid(*centers):
    """One-node quadrature grid pinning each parameter at an exact value."""
    dists = tuple(Distribution.uniform(c - 1.0, c + 1.0) for c in centers)
    box = [[c - 1.0, c + 1.0] for c in centers]
    return build_quadrature(box, dists, points_per_axis=1)


def germ_scratch(model, rows, nodes):
    """NaN-filled scratch for fill_germs to fill ``rows`` germ rows at ``nodes``
    nodes."""
    return np.full((germ_scratch_rows(model, rows), nodes), np.nan)


def chain_scratch(model, nodes):
    """NaN-filled scratch for the model's derivative chain at ``nodes`` nodes."""
    return np.full((model.chain_scratch_rows, nodes), np.nan)


def germ_rows(model, t, state, grid, count):
    rows = np.empty((count, grid.n_nodes))
    fill_germs(
        model, t, grid.nodes, state, rows, scratch=germ_scratch(model, count, grid.n_nodes)
    )
    return rows


def full_chain(model, t, nodes, state, order):
    """Every level of the model's derivative chain to ``order``, written
    into a NaN-filled array of whole levels."""
    rows = 1 if model.companion else model.state_dim
    out = np.full(((order + 1) * rows, state.shape[1]), np.nan)
    return model.derivative_chain(
        t, nodes, state, order, out=out, scratch=chain_scratch(model, state.shape[1])
    )


def test_oscillator_germs_at_known_state():
    grid = point_grid(400.0)  # stiffness 400, mass 100 -> k/m = 4
    state = np.array([[0.05], [0.2]])
    assert germ_rows(OSC, 0.0, state, grid, 3)[:, 0].tolist() == [0.05, 0.2, -0.2]
    assert germ_rows(OSC, 0.0, state, grid, 4)[3, 0] == -0.8  # -(k/m) * dudt


def test_ko_germs_at_unit_node():
    grid = point_grid(1.0, 1.0, 0.0)
    state = np.array([[1.0], [1.0], [0.0]])
    germs = germ_rows(KO, 0.0, state, grid, 6)
    # u1' = u1 u3 = 0, u2' = -u2 u3 = 0, u3' = -u1^2 + u2^2 = 0
    assert germs[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_truncation_bounds_enforced():
    with pytest.raises(ValueError):
        check_truncation(OSC, 2)
    with pytest.raises(ValueError):
        check_truncation(OSC, 2 + OSC.max_enrichment + 1)
    check_truncation(OSC, 2 + OSC.max_enrichment)


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
    levels = full_chain(model, 0.0, nodes, state, 0)
    rhs = model.rhs(0.0, nodes, state, out=np.full_like(state, np.nan))
    if model.companion:
        assert np.array_equal(levels[0], rhs[-1])
    else:
        assert np.array_equal(levels, rhs)


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
    fresh = stacked_rhs(model.name)(0.0, nodes, state)
    assert np.array_equal(out, fresh)
    assert np.array_equal(np.signbit(out), np.signbit(fresh))


@pytest.mark.parametrize("model", [OSC, THIRD, VDP, KO])
def test_model_callables_require_out(model):
    nodes = np.ones((2, model.param_dim))
    state = np.ones((model.state_dim, 2))
    with pytest.raises(TypeError):
        model.rhs(0.0, nodes, state)
    with pytest.raises(TypeError):
        model.derivative_chain(0.0, nodes, state, 1)


@pytest.mark.parametrize("model,centers", [
    (OSC, (400.0,)),
    (THIRD, (2.5,)),
    (VDP, (300.0, 400.0)),
    (KO, (0.3, -0.4, 0.6)),
])
def test_chain_levels_match_shorter_chains(model, centers):
    # One call writes every level into out, level-major, each with the bits
    # it has as the last level of a chain that stops there.
    rng = np.random.default_rng(8)
    nodes = np.array(centers) * rng.uniform(0.9, 1.1, size=(7, len(centers)))
    state = rng.uniform(-0.5, 0.5, size=(model.state_dim, 7))
    rows = 1 if model.companion else model.state_dim
    for k in range(5):
        out = np.full(((k + 1) * rows, 7), np.nan)
        scratch = chain_scratch(model, 7)
        assert model.derivative_chain(0.0, nodes, state, k, out=out, scratch=scratch) is out
        assert not np.isnan(out).any()
        for j in range(k + 1):
            alone = full_chain(model, 0.0, nodes, state, j)
            assert np.array_equal(out[j * rows : (j + 1) * rows], alone[-rows:])


# The chains as they were before they wrote into ``out``: fresh arrays at
# every operation, and Leibniz sums through sum(). The in-place chains must
# reproduce every level of them bit for bit, signed zeros included.
def _allocating_levels(model, nodes, s, order):
    levels = []
    if model is OSC:
        kbar = nodes[:, 0] / 100.0
        d0, d1 = s[0], s[1]
        for _ in range(order + 1):
            d0, d1 = d1, -kbar * d0
            levels.append(d1)
    elif model is THIRD:
        k = nodes[:, 0]
        d0, d1, d2 = s[0], s[1], s[2]
        for _ in range(order + 1):
            d0, d1, d2 = d1, d2, -(0.5 * d2 + k * d1 + d0)
            levels.append(d2)
    elif model is VDP:
        c, k = nodes[:, 0] / 100.0, nodes[:, 1] / 100.0
        d, g = [s[0], s[1]], []
        for m in range(order + 1):
            sq = sum(comb(m, r) * d[r] * d[m - r] for r in range(m + 1))
            g.append(1.0 - 150.0 * sq if m == 0 else -150.0 * sq)
            drive = sum(comb(m, i) * g[i] * d[m - i + 1] for i in range(m + 1))
            d.append(c * drive - k * d[m])
            levels.append(d[-1])
    else:
        a, b, e = [s[0]], [s[1]], [s[2]]
        for j in range(order + 1):
            a.append(sum(comb(j, i) * a[i] * e[j - i] for i in range(j + 1)))
            b.append(-sum(comb(j, i) * b[i] * e[j - i] for i in range(j + 1)))
            e.append(
                sum(comb(j, i) * (b[i] * b[j - i] - a[i] * a[j - i]) for i in range(j + 1))
            )
            levels += [a[-1], b[-1], e[-1]]
    return np.stack(levels)


@pytest.mark.parametrize("model,centers", [
    (OSC, (400.0,)),
    (THIRD, (2.5,)),
    (VDP, (300.0, 400.0)),
    (KO, (0.3, -0.4, 0.6)),
])
def test_chain_matches_the_allocating_chain(model, centers):
    rng = np.random.default_rng(9)
    nodes = np.array(centers) * rng.uniform(0.9, 1.1, size=(7, len(centers)))
    state = rng.uniform(-0.5, 0.5, size=(model.state_dim, 7))
    state[:, 0] = 0.0
    for k in range(5):
        levels = full_chain(model, 0.0, nodes, state, k)
        fresh = _allocating_levels(model, nodes, state, k)
        assert np.array_equal(levels, fresh)
        assert np.array_equal(np.signbit(levels), np.signbit(fresh))


@pytest.mark.parametrize("rows", [4, 5, 7, 8])
def test_germs_cut_inside_a_level_are_leading_rows(rows):
    # Three-mode levels are three rows each, so these truncations cut a
    # derivative level: the germs must be the leading rows of the longer fill.
    rng = np.random.default_rng(10)
    nodes = rng.uniform(-1.0, 1.0, size=(7, 3))
    state = rng.uniform(-0.5, 0.5, size=(3, 7))
    state[:, 0] = 0.0
    cut, full = np.full((rows, 7), np.nan), np.full((9, 7), np.nan)
    fill_germs(KO, 0.0, nodes, state, cut, scratch=germ_scratch(KO, rows, 7))
    fill_germs(KO, 0.0, nodes, state, full, scratch=germ_scratch(KO, 9, 7))
    assert np.array_equal(cut, full[:rows])
    assert np.array_equal(np.signbit(cut), np.signbit(full[:rows]))


def taylor_propagate(
    model: ModelSpec,
    t: float,
    nodes: np.ndarray,
    state_node_values,
    h: float,
    order: int,
) -> np.ndarray:
    """Truncated Taylor push of the state to t + h, per node.

    s(t+h) = sum_{m<=order} h^m/m! D^m s. This is the flow map used to
    justify the germ set; the solver steps with RK4, so it serves only to
    check the derivative chains here.
    """
    s = np.asarray(state_node_values, dtype=float)
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > model.max_enrichment:
        raise ValueError("order exceeds the model's derivative chain")
    out = s.copy()
    if order == 0:
        return out
    n = model.state_dim
    factor = 1.0
    levels = full_chain(model, t, nodes, s, order - 1)
    if model.companion:
        # Rows i..n-1 of the state are already derivatives of row 0, so one
        # scalar chain serves every component.
        chain = [s[i] for i in range(n)] + list(levels)
        for m in range(1, order + 1):
            factor *= h / m
            for i in range(n):
                out[i] += factor * chain[i + m]
    else:
        for m in range(1, order + 1):
            factor *= h / m
            out += factor * levels[(m - 1) * n : m * n]
    return out


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
    g_plus = germ_rows(model, 0.0, plus, grid, trunc)
    g_minus = germ_rows(model, 0.0, minus, grid, trunc)
    g_mid = germ_rows(model, 0.0, state, grid, trunc)
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
    a = germ_rows(OSC, 1.5, state, grid, 5)
    b = germ_rows(OSC, 1.5, state, grid, 5)
    assert np.array_equal(a, b)
    c = taylor_propagate(OSC, 1.5, grid.nodes, state, 0.01, 4)
    d = taylor_propagate(OSC, 1.5, grid.nodes, state, 0.01, 4)
    assert np.array_equal(c, d)
