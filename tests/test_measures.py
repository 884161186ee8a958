"""Distribution, partition and quadrature layer against scipy/numpy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from mefsc import (
    Distribution,
    build_quadrature,
    element_measure,
    gauss_legendre,
    measures,
    partition_random_domain,
)

# Closed-form moments of Beta(2,5) scaled to [340,460]:
# mean = 340 + 120*2/7, var = 120^2 * 10/(49*8).
BETA_MEAN_SCALED = 374.2857142857143
BETA_VAR_SCALED = 367.3469387755102


def test_gauss_legendre_10_matches_numpy():
    x, w = gauss_legendre(10)
    xs, ws = leggauss(10)
    assert np.allclose(x, xs, rtol=0, atol=5e-16)
    assert np.allclose(w, ws, rtol=0, atol=5e-16)
    assert abs(w.sum() - 2.0) < 5e-16


@pytest.mark.parametrize("count", [2, 4, 7, 10, 16, 31])
def test_gauss_legendre_polynomial_exactness(count):
    # A rule with `count` points must integrate degree 2*count-1 exactly.
    x, w = gauss_legendre(count)
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1.0, 1.0, size=2 * count)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(1.0) - poly.integ()(-1.0)
    assert abs(np.dot(w, poly(x)) - exact) < 1e-13
    # one degree higher must not be exact in general
    assert abs(w.sum() - 2.0) < 1e-14


def test_gauss_legendre_single_point():
    x, w = gauss_legendre(1)
    assert x.tolist() == [0.0]
    assert w.tolist() == [2.0]


@pytest.mark.parametrize("count", [1, 10, 200])
def test_gauss_legendre_rule_is_cached_without_sharing_arrays(count):
    x, w = gauss_legendre(count)
    want_x, want_w = x.copy(), w.copy()
    if count != 10:
        built_x, built_w = measures._newton_gauss_legendre.__wrapped__(count)
        assert np.array_equal(want_x, built_x) and np.array_equal(want_w, built_w)
    x[:] = 0.0
    w[:] = 0.0
    again_x, again_w = gauss_legendre(count)
    assert np.array_equal(again_x, want_x) and np.array_equal(again_w, want_w)


def test_uniform_pdf_cdf_ppf():
    dist = Distribution.uniform(340.0, 460.0)
    assert dist.pdf(400.0) == pytest.approx(1.0 / 120.0, rel=1e-15)
    assert dist.cdf(340.0) == 0.0
    assert dist.cdf(460.0) == 1.0
    x = np.linspace(341.0, 459.0, 23)
    assert np.allclose(dist.ppf(dist.cdf(x)), x, rtol=0, atol=1e-10)


def test_beta_interval_mass():
    # Beta(2,5) mass of the lower half interval is I_{1/2}(2,5) = 57/64.
    dist = Distribution.beta(2.0, 5.0, 340.0, 460.0)
    mass = element_measure((dist,), [340.0, 400.0])
    assert abs(mass - 0.890625) < 1e-14


def test_beta_moments_against_closed_form():
    dist = Distribution.beta(2.0, 5.0, 340.0, 460.0)
    grid = build_quadrature([340.0, 460.0], (dist,), points_per_axis=50)
    x = grid.nodes[:, 0]
    mean = np.dot(grid.weights, x)
    var = np.dot(grid.weights, (x - mean) ** 2)
    assert abs(mean - BETA_MEAN_SCALED) < 1e-10
    assert abs(var - BETA_VAR_SCALED) < 1e-9


def test_beta_third_raw_moment_unit_interval():
    # E[z^3] for Beta(2,5) on [0,1] is 2*3*4/(7*8*9) = 1/21.
    dist = Distribution.beta(2.0, 5.0, 0.0, 1.0)
    grid = build_quadrature([0.0, 1.0], (dist,), points_per_axis=10)
    z = grid.nodes[:, 0]
    assert abs(np.dot(grid.weights, z**3) - 1.0 / 21.0) < 1e-14


def test_truncated_gamma_cdf_value():
    dist = Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0)
    assert abs(dist.cdf(630.0) - 0.9999855422216292) < 1e-13
    # independent route: integrate the (normalized) density
    val, err = quad(dist.pdf, 340.0, 630.0, limit=200)
    assert abs(dist.cdf(630.0) - val) < 1e-9


def test_truncated_gamma_pdf_normalized():
    dist = Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0)
    val, err = quad(dist.pdf, 340.0, 920.0, limit=200)
    assert abs(val - 1.0) < 1e-9
    assert dist.support_mass < 1.0  # parent mass actually lost to truncation


def test_truncated_normal_pdf_cdf():
    dist = Distribution.truncated_normal(2.5, 0.125, 1.4, 3.6)
    val, err = quad(dist.pdf, 1.4, 3.6, limit=200)
    assert abs(val - 1.0) < 1e-10
    assert dist.cdf(1.4) == 0.0
    assert dist.cdf(3.6) == 1.0
    assert abs(dist.cdf(2.5) - 0.5) < 1e-14  # symmetric truncation window
    # the window spans +-8.8 sigma, so essentially the whole parent law
    assert abs(dist.support_mass - 1.0) < 1e-15


@given(u=st.floats(min_value=0.01, max_value=0.99))
@settings(deadline=None, max_examples=50)
def test_ppf_cdf_round_trip(u):
    for dist in (
        Distribution.uniform(340.0, 460.0),
        Distribution.beta(2.0, 5.0, 2.0, 3.0),
        Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0),
        Distribution.truncated_normal(2.5, 0.125, 1.4, 3.6),
    ):
        x = dist.ppf(u)
        assert dist.lower <= x <= dist.upper
        assert abs(dist.cdf(x) - u) < 1e-9


@pytest.mark.parametrize(
    "dists,counts",
    [
        ((Distribution.uniform(340.0, 460.0),), (8,)),
        ((Distribution.beta(2.0, 5.0, 340.0, 460.0),), (5,)),
        ((Distribution.truncated_gamma(10.0, 0.1, 340.0, 920.0),), (4,)),
        (
            (
                Distribution.uniform(150.0, 450.0),
                Distribution.beta(2.0, 5.0, 340.0, 460.0),
            ),
            (8, 8),
        ),
        (
            (
                Distribution.uniform(-1.0, 1.0),
                Distribution.uniform(-1.0, 1.0),
                Distribution.uniform(-1.0, 1.0),
            ),
            (4, 4, 4),
        ),
    ],
)
def test_partition_masses_sum_to_one(dists, counts):
    part = partition_random_domain(dists, counts)
    assert part.n_elements == int(np.prod(counts))
    assert abs(part.masses.sum() - 1.0) < 1e-12
    assert np.all(part.masses > 0.0)


def test_partition_boxes_tile_support():
    dist = Distribution.uniform(2.0, 3.0)
    part = partition_random_domain((dist,), (4,))
    edges = part.boxes[:, 0, :]
    assert edges[0, 0] == 2.0
    assert edges[-1, 1] == 3.0
    # contiguous: each upper edge is the next lower edge
    assert np.array_equal(edges[:-1, 1], edges[1:, 0])


def test_partition_last_axis_fastest():
    dists = (Distribution.uniform(0.0, 2.0), Distribution.uniform(0.0, 3.0))
    part = partition_random_domain(dists, (2, 3))
    # first two elements share the axis-0 interval and advance along axis 1
    assert np.array_equal(part.boxes[0, 0], part.boxes[1, 0])
    assert part.boxes[0, 1, 1] == part.boxes[1, 1, 0]
    # element 3 starts the second axis-0 interval
    assert part.boxes[3, 0, 0] == part.boxes[0, 0, 1]


def test_element_measure_rejects_bad_boxes():
    dist = Distribution.uniform(340.0, 460.0)
    with pytest.raises(ValueError):
        element_measure((dist,), [300.0, 400.0])
    with pytest.raises(ValueError):
        element_measure((dist,), [400.0, 400.0])
    assert abs(element_measure((dist,), [340.0, 460.0]) - 1.0) < 1e-15


def test_quadrature_weights_normalized():
    dist = Distribution.beta(2.0, 5.0, 340.0, 460.0)
    grid = build_quadrature([355.0, 370.0], (dist,), points_per_axis=10)
    assert abs(grid.weights.sum() - 1.0) < 5e-16
    assert np.all(grid.nodes[:, 0] > 355.0)
    assert np.all(grid.nodes[:, 0] < 370.0)
    assert grid.mass == pytest.approx(
        element_measure((dist,), [355.0, 370.0]), rel=1e-15
    )


def test_quadrature_conditional_moments_uniform():
    # On the element [0, 1/2] of U(0,1): E[x] = 1/4 and E[x^2] = 1/12.
    dist = Distribution.uniform(0.0, 1.0)
    grid = build_quadrature([0.0, 0.5], (dist,), points_per_axis=10)
    x = grid.nodes[:, 0]
    assert abs(np.dot(grid.weights, x) - 0.25) < 1e-15
    assert abs(np.dot(grid.weights, x * x) - 1.0 / 12.0) < 1e-15


def test_quadrature_beta_element_against_quad():
    dist = Distribution.beta(2.0, 5.0, 340.0, 460.0)
    lo, hi = 370.0, 415.0
    grid = build_quadrature([lo, hi], (dist,), points_per_axis=10)
    mass = element_measure((dist,), [lo, hi])
    expected, _ = quad(lambda x: x * dist.pdf(x) / mass, lo, hi, limit=100)
    got = np.dot(grid.weights, grid.nodes[:, 0])
    assert abs(got - expected) < 1e-12 * abs(expected)


def test_quadrature_tensor_grid_shape():
    dists = (
        Distribution.uniform(150.0, 450.0),
        Distribution.beta(2.0, 5.0, 340.0, 460.0),
    )
    box = [[150.0, 187.5], [340.0, 355.0]]
    grid = build_quadrature(box, dists, points_per_axis=10)
    assert grid.nodes.shape == (100, 2)
    assert grid.weights.shape == (100,)
    assert abs(grid.weights.sum() - 1.0) < 5e-16

