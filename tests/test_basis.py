"""Orthogonalization and projection against analytic Legendre results."""

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from mefsc import (
    Distribution,
    build_quadrature,
    evaluate,
    gram_schmidt,
    inner_product,
    project,
    warmstart_basis,
)
from mefsc.basis import orthogonalize


def unit_grid(points=10):
    dist = Distribution.uniform(-1.0, 1.0)
    return build_quadrature([-1.0, 1.0], (dist,), points_per_axis=points)


def monomial_candidates(grid, degree):
    x = grid.nodes[:, 0]
    return np.vstack([x**k for k in range(degree + 1)])


def test_legendre_emerges_from_monomials():
    # GS of {1, x, x^2} under the uniform measure on [-1,1] gives
    # {1, x, x^2 - 1/3} with squared norms {1, 1/3, 4/45}.
    grid = unit_grid()
    basis = gram_schmidt(monomial_candidates(grid, 2), grid)
    assert basis.count == 3
    assert np.all(basis.kept_flags)
    x = grid.nodes[:, 0]
    assert np.allclose(basis.values[0], 1.0, rtol=0, atol=0)
    assert np.allclose(basis.values[1], x, rtol=0, atol=1e-15)
    assert np.allclose(basis.values[2], x * x - 1.0 / 3.0, rtol=0, atol=1e-15)
    assert np.allclose(basis.squared_norms, [1.0, 1.0 / 3.0, 4.0 / 45.0], rtol=1e-14)


def test_constant_candidate_passes_through_unchanged():
    grid = unit_grid()
    basis = gram_schmidt(monomial_candidates(grid, 3), grid)
    assert np.array_equal(basis.values[0], np.ones(grid.n_nodes))
    assert basis.squared_norms[0] == 1.0


def test_dependent_candidate_dropped():
    grid = unit_grid()
    x = grid.nodes[:, 0]
    cands = np.vstack([np.ones_like(x), x, 2.0 * x])
    basis = gram_schmidt(cands, grid)
    assert basis.count == 2
    assert basis.kept_flags.tolist() == [True, True, False]


def test_zero_candidate_dropped():
    grid = unit_grid()
    x = grid.nodes[:, 0]
    basis = gram_schmidt(np.vstack([np.ones_like(x), x, np.zeros_like(x)]), grid)
    assert basis.kept_flags.tolist() == [True, True, False]
    assert basis.count == 2
    assert np.all(basis.squared_norms > 0.0)
    assert np.all(np.isfinite(basis.projector(grid)))
    assert np.all(np.isfinite(basis.coefficients))


def test_batched_drop_is_masked_in_its_element_only():
    grid = unit_grid()
    x = grid.nodes[:, 0]
    clean = np.vstack([np.ones_like(x), x, x * x])
    dependent = np.vstack([np.ones_like(x), x, 2.0 * x])
    stack = orthogonalize(np.stack([clean, dependent]), np.stack([grid.weights] * 2))
    assert stack.kept.tolist() == [[True, True, True], [True, True, False]]
    assert np.all(stack.values[1, 2] == 0.0)
    assert np.all(stack.projector[1, :, 2] == 0.0)
    for e, cands in enumerate((clean, dependent)):
        alone = gram_schmidt(cands, grid)
        got = stack.element(e)
        assert np.array_equal(got.values, alone.values)
        assert np.array_equal(got.squared_norms, alone.squared_norms)
        assert np.array_equal(got.coefficients, alone.coefficients)
        # every kept candidate is recovered from its coefficients
        kept = cands[got.kept_flags]
        assert np.allclose(got.coefficients[got.kept_flags] @ got.values, kept, atol=1e-14)


def test_first_candidate_must_be_constant():
    grid = unit_grid()
    x = grid.nodes[:, 0]
    with pytest.raises(ValueError):
        gram_schmidt(np.vstack([x, np.ones_like(x)]), grid)


def test_beta_orthogonality_on_dense_replay():
    # Orthogonalize on the working grid, then re-evaluate the same linear
    # combinations on a much denser rule and check the Gram matrix there.
    dist = Distribution.beta(2.0, 5.0, 0.0, 1.0)
    grid = build_quadrature([0.0, 1.0], (dist,), points_per_axis=10)
    basis = gram_schmidt(monomial_candidates(grid, 4), grid, want_transform=True)
    dense = build_quadrature([0.0, 1.0], (dist,), points_per_axis=400)
    dense_values = basis.transform @ monomial_candidates(dense, 4)
    gram = (dense_values * dense.weights) @ dense_values.T
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    off = gram / scale - np.eye(basis.count)
    assert np.max(np.abs(off)) < 1e-12


def test_warmstart_matches_legendre():
    grid = unit_grid()
    basis = warmstart_basis(grid, 1, 7)
    assert basis.count == 8
    x = grid.nodes[:, 0]
    for k in range(8):
        pk = legval(x, [0.0] * k + [1.0])
        corr = inner_product(basis.values[k], pk, grid) / np.sqrt(
            inner_product(basis.values[k], basis.values[k], grid)
            * inner_product(pk, pk, grid)
        )
        assert corr >= 1.0 - 1e-12


def test_warmstart_degree_zero_is_constant():
    grid = unit_grid()
    basis = warmstart_basis(grid, 1, 0)
    assert basis.count == 1
    assert np.allclose(basis.values[0], 1.0, rtol=0, atol=0)


def test_warmstart_two_axes_counts_and_order():
    dists = (Distribution.uniform(0.0, 1.0), Distribution.uniform(0.0, 2.0))
    grid = build_quadrature([[0.0, 1.0], [0.0, 2.0]], dists, points_per_axis=10)
    basis = warmstart_basis(grid, 2, 2)
    # total degree 2 in two variables: 1, x0, x1, x0^2, x0*x1, x1^2
    assert basis.count == 6
    x0 = grid.nodes[:, 0] - np.dot(grid.weights, grid.nodes[:, 0])
    x1 = grid.nodes[:, 1] - np.dot(grid.weights, grid.nodes[:, 1])
    # vector 1 is the axis-0 direction, vector 2 the axis-1 direction
    assert abs(inner_product(basis.values[1], x1, grid)) < 1e-14
    assert inner_product(basis.values[1], x0, grid) > 0.01
    assert abs(inner_product(basis.values[2], x0, grid)) < 1e-14


def test_project_reads_off_modes():
    grid = unit_grid()
    basis = gram_schmidt(monomial_candidates(grid, 2), grid)
    x = grid.nodes[:, 0]
    assert np.allclose(project(3.0 + 2.0 * x, basis, grid), [3.0, 2.0, 0.0], atol=1e-14)
    assert np.allclose(project(basis.values[2], basis, grid), [0.0, 0.0, 1.0], atol=1e-14)
    # x^3 = (3/5) P1 + (2/5) P3; only the P1 part lives in this span
    assert np.allclose(project(x**3, basis, grid), [0.0, 0.6, 0.0], atol=1e-14)


def test_project_accepts_stacked_rows():
    grid = unit_grid()
    basis = gram_schmidt(monomial_candidates(grid, 2), grid)
    x = grid.nodes[:, 0]
    stacked = np.vstack([np.full_like(x, 5.0), x])
    modes = project(stacked, basis, grid)
    assert modes.shape == (2, 3)
    assert np.allclose(modes[0], [5.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(modes[1], [0.0, 1.0, 0.0], atol=1e-14)


def test_round_trip_and_parseval():
    grid = unit_grid()
    basis = gram_schmidt(monomial_candidates(grid, 4), grid)
    rng = np.random.default_rng(11)
    modes = rng.uniform(-2.0, 2.0, size=(3, basis.count))
    values = evaluate(modes, basis)
    back = project(values, basis, grid)
    assert np.allclose(back, modes, rtol=0, atol=1e-13)
    for row in range(3):
        energy = inner_product(values[row], values[row], grid)
        assert energy == pytest.approx(
            float(np.dot(basis.squared_norms, modes[row] ** 2)), rel=1e-13
        )


def test_projection_residual_is_orthogonal():
    grid = unit_grid()
    basis = gram_schmidt(monomial_candidates(grid, 2), grid)
    f = grid.nodes[:, 0] ** 4
    residual = f - evaluate(project(f, basis, grid), basis)
    for k in range(basis.count):
        overlap = inner_product(residual, basis.values[k], grid)
        norm = np.sqrt(
            inner_product(f, f, grid) * inner_product(basis.values[k], basis.values[k], grid)
        )
        assert abs(overlap) < 1e-10 * norm


def test_gram_schmidt_deterministic():
    grid = unit_grid()
    cands = monomial_candidates(grid, 3)
    a = gram_schmidt(cands, grid)
    b = gram_schmidt(cands, grid)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.squared_norms, b.squared_norms)


def test_random_candidates_yield_orthogonal_sets():
    grid = unit_grid()
    x = grid.nodes[:, 0]
    rng = np.random.default_rng(3)
    for trial in range(20):
        n_extra = rng.integers(1, 5)
        cands = [np.ones_like(x)]
        for _ in range(n_extra):
            coeffs = rng.uniform(-2.0, 2.0, size=4)
            cands.append(np.polynomial.Polynomial(coeffs)(x))
        basis = gram_schmidt(np.vstack(cands), grid)
        gram = (basis.values * grid.weights) @ basis.values.T
        scale = np.sqrt(np.outer(basis.squared_norms, basis.squared_norms))
        off = gram / scale - np.eye(basis.count)
        assert np.max(np.abs(off)) < 1e-10
