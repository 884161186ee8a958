"""Orthogonalization and projection against analytic Legendre results."""

import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.linalg import solve_triangular

from mefsc import Distribution, build_quadrature
from mefsc.basis import (
    ALIGN_FROM_BYTES,
    aligned_empty,
    empty_stack,
    orthogonalize,
    stack_rows,
    warmstart_candidates,
)


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
    basis = orthogonalize(monomial_candidates(grid, 2)[None], grid.weights[None])
    assert basis.kept.tolist() == [[True, True, True]]
    x = grid.nodes[:, 0]
    values = basis.values[0]
    assert np.allclose(values[0], 1.0, rtol=0, atol=0)
    assert np.allclose(values[1], x, rtol=0, atol=1e-15)
    assert np.allclose(values[2], x * x - 1.0 / 3.0, rtol=0, atol=1e-15)
    assert np.allclose(basis.squared_norms[0], [1.0, 1.0 / 3.0, 4.0 / 45.0], rtol=1e-14)


def test_constant_candidate_passes_through_unchanged():
    grid = unit_grid()
    basis = orthogonalize(monomial_candidates(grid, 3)[None], grid.weights[None])
    assert np.array_equal(basis.values[0, 0], np.ones(grid.n_nodes))
    assert basis.squared_norms[0, 0] == 1.0


def test_dependent_candidate_dropped():
    grid = unit_grid()
    x = grid.nodes[:, 0]
    cands = np.vstack([np.ones_like(x), x, 2.0 * x])
    basis = orthogonalize(cands[None], grid.weights[None])
    assert basis.kept.tolist() == [[True, True, False]]
    assert np.all(basis.values[0, 2] == 0.0)


def test_zero_candidate_dropped():
    grid = unit_grid()
    x = grid.nodes[:, 0]
    cands = np.vstack([np.ones_like(x), x, np.zeros_like(x)])
    basis = orthogonalize(cands[None], grid.weights[None])
    assert basis.kept.tolist() == [[True, True, False]]
    assert np.all(basis.squared_norms > 0.0)
    assert np.all(np.isfinite(basis.projector))
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
        alone = orthogonalize(cands[None], grid.weights[None])
        for name in ("values", "projector", "squared_norms", "kept", "coefficients"):
            assert np.array_equal(getattr(stack, name)[e], getattr(alone, name)[0])
        # every kept candidate is recovered from its coefficients
        keep = alone.kept[0]
        got = alone.coefficients[0][keep] @ alone.values[0]
        assert np.allclose(got, cands[keep], atol=1e-14)


def candidate_transform(basis):
    """Matrix T with kept basis rows = T @ candidates, to replay a batch-of-one
    basis elsewhere.

    Kept candidates are C @ values with C the unit lower triangular
    coefficients on the kept rows, so T is C's inverse there; the columns of
    dropped candidates are zero.
    """
    keep = basis.kept[0]
    count = np.count_nonzero(keep)
    transform = np.zeros((count, keep.size))
    transform[:, keep] = solve_triangular(
        basis.coefficients[0][keep][:, keep],
        np.eye(count),
        lower=True,
        unit_diagonal=True,
    )
    return transform


def test_beta_orthogonality_on_dense_replay():
    # Orthogonalize on the working grid, then re-evaluate the same linear
    # combinations on a much denser rule and check the Gram matrix there.
    dist = Distribution.beta(2.0, 5.0, 0.0, 1.0)
    grid = build_quadrature([0.0, 1.0], (dist,), points_per_axis=10)
    basis = orthogonalize(monomial_candidates(grid, 4)[None], grid.weights[None])
    dense = build_quadrature([0.0, 1.0], (dist,), points_per_axis=400)
    dense_values = candidate_transform(basis) @ monomial_candidates(dense, 4)
    gram = (dense_values * dense.weights) @ dense_values.T
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    off = gram / scale - np.eye(len(gram))
    assert np.max(np.abs(off)) < 1e-12


def test_warmstart_matches_legendre():
    grid = unit_grid()
    w = grid.weights
    basis = orthogonalize(warmstart_candidates(grid, 7)[None], w[None])
    assert basis.kept.tolist() == [[True] * 8]
    x = grid.nodes[:, 0]
    for k, psi in enumerate(basis.values[0]):
        pk = legval(x, [0.0] * k + [1.0])
        corr = w @ (psi * pk) / np.sqrt(w @ psi**2 * (w @ pk**2))
        assert corr >= 1.0 - 1e-12


def test_warmstart_degree_zero_is_constant():
    grid = unit_grid()
    cands = warmstart_candidates(grid, 0)
    assert cands.shape == (1, grid.n_nodes)
    basis = orthogonalize(cands[None], grid.weights[None])
    assert np.allclose(basis.values[0, 0], 1.0, rtol=0, atol=0)


def test_warmstart_two_axes_counts_and_order():
    dists = (Distribution.uniform(0.0, 1.0), Distribution.uniform(0.0, 2.0))
    grid = build_quadrature([[0.0, 1.0], [0.0, 2.0]], dists, points_per_axis=10)
    w = grid.weights
    basis = orthogonalize(warmstart_candidates(grid, 2)[None], w[None])
    # total degree 2 in two variables: 1, x0, x1, x0^2, x0*x1, x1^2
    assert basis.kept.tolist() == [[True] * 6]
    x0 = grid.nodes[:, 0] - np.dot(w, grid.nodes[:, 0])
    x1 = grid.nodes[:, 1] - np.dot(w, grid.nodes[:, 1])
    # vector 1 is the axis-0 direction, vector 2 the axis-1 direction
    psi = basis.values[0]
    assert abs(w @ (psi[1] * x1)) < 1e-14
    assert w @ (psi[1] * x0) > 0.01
    assert abs(w @ (psi[2] * x0)) < 1e-14


def test_project_reads_off_modes():
    grid = unit_grid()
    basis = orthogonalize(monomial_candidates(grid, 2)[None], grid.weights[None])
    proj = basis.projector[0]
    x = grid.nodes[:, 0]
    assert np.allclose((3.0 + 2.0 * x) @ proj, [3.0, 2.0, 0.0], atol=1e-14)
    assert np.allclose(basis.values[0, 2] @ proj, [0.0, 0.0, 1.0], atol=1e-14)
    # x^3 = (3/5) P1 + (2/5) P3; only the P1 part lives in this span
    assert np.allclose(x**3 @ proj, [0.0, 0.6, 0.0], atol=1e-14)


def test_project_accepts_stacked_rows():
    grid = unit_grid()
    basis = orthogonalize(monomial_candidates(grid, 2)[None], grid.weights[None])
    x = grid.nodes[:, 0]
    stacked = np.vstack([np.full_like(x, 5.0), x])[None]
    modes = (stacked @ basis.projector)[0]
    assert modes.shape == (2, 3)
    assert np.allclose(modes[0], [5.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(modes[1], [0.0, 1.0, 0.0], atol=1e-14)


def test_round_trip_and_parseval():
    grid = unit_grid()
    basis = orthogonalize(monomial_candidates(grid, 4)[None], grid.weights[None])
    rng = np.random.default_rng(11)
    modes = rng.uniform(-2.0, 2.0, size=(1, 3, 5))
    values = modes @ basis.values
    back = values @ basis.projector
    assert np.allclose(back, modes, rtol=0, atol=1e-13)
    for row in range(3):
        energy = grid.weights @ values[0, row] ** 2
        assert energy == pytest.approx(
            float(np.dot(basis.squared_norms[0], modes[0, row] ** 2)), rel=1e-13
        )


def test_projection_residual_is_orthogonal():
    grid = unit_grid()
    w = grid.weights
    basis = orthogonalize(monomial_candidates(grid, 2)[None], w[None])
    f = grid.nodes[:, 0] ** 4
    residual = f - (f @ basis.projector[0]) @ basis.values[0]
    for psi in basis.values[0]:
        overlap = w @ (residual * psi)
        norm = np.sqrt(w @ f**2 * (w @ psi**2))
        assert abs(overlap) < 1e-10 * norm


def test_gram_schmidt_deterministic():
    grid = unit_grid()
    cands = monomial_candidates(grid, 3)[None]
    a = orthogonalize(cands, grid.weights[None])
    b = orthogonalize(cands, grid.weights[None])
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.squared_norms, b.squared_norms)


def whole_stack(n_el, m, q):
    return empty_stack(n_el, m, q), slice(None)


def stack_cut(n_el, m, q):
    # Elements 1-3 of a 5-element stack: a cut along the element axis, the
    # layout of the solver's element blocks.
    parent = empty_stack(n_el + 2, m, q)
    for name in ("values", "projector", "squared_norms", "coefficients"):
        getattr(parent, name)[...] = np.nan
    parent.kept[...] = True
    return parent, slice(1, n_el + 1)


@pytest.mark.parametrize("layout", [whole_stack, stack_cut])
def test_reused_workspace_gives_the_bits_of_a_fresh_call(layout):
    # The solver rebuilds every basis of a batch in one workspace, or in a
    # block of it. A set with masked rows (a dependent germ in element 1, a
    # zero one in element 2) followed by a set with none must leave nothing
    # stale behind: kept flags, coefficients and norms are those of a fresh
    # call. Like the solver, the test writes the constant row once and then
    # only the germ rows; an in-place call never writes row 0.
    grid = unit_grid()
    x = grid.nodes[:, 0]
    weights = np.stack([grid.weights] * 3)
    rng = np.random.default_rng(11)

    def random_set():
        polys = rng.uniform(-2.0, 2.0, size=(3, 4, 5))
        cands = np.ones((3, 5, x.size))
        for e in range(3):
            for i in range(4):
                cands[e, i + 1] = np.polynomial.Polynomial(polys[e, i])(x)
        return cands

    masked = random_set()
    masked[1, 3] = 2.0 * masked[1, 2]
    masked[2, 4] = 0.0
    parent, cut = layout(3, 5, x.size)
    work = stack_rows(parent, cut)
    before = {
        name: getattr(parent, name).copy()
        for name in ("values", "projector", "squared_norms", "kept", "coefficients")
    }
    work.values[:, 0] = 1.0
    for cands in (masked, random_set(), masked):
        fresh = orthogonalize(cands, weights)
        work.values[:, 1:] = cands[:, 1:]
        built = orthogonalize(work.values, weights, work=work)
        assert built is work
        assert np.array_equal(work.values[:, 0], np.ones((3, x.size)))
        for name in ("values", "projector", "squared_norms", "kept", "coefficients"):
            assert np.array_equal(getattr(built, name), getattr(fresh, name)), name
            # Elements outside the cut are left as they were.
            outside = np.ones(len(before[name]), dtype=bool)
            outside[cut] = False
            assert np.array_equal(
                getattr(parent, name)[outside], before[name][outside], equal_nan=True
            ), name
    kept = orthogonalize(masked, weights).kept
    assert kept[0].all() and not kept[1, 3] and not kept[2, 4]


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
        basis = orthogonalize(np.vstack(cands)[None], grid.weights[None])
        keep = basis.kept[0]
        values, norms = basis.values[0, keep], basis.squared_norms[0, keep]
        gram = (values * grid.weights) @ values.T
        scale = np.sqrt(np.outer(norms, norms))
        off = gram / scale - np.eye(len(norms))
        assert np.max(np.abs(off)) < 1e-10


def test_aligned_arrays_start_on_cache_lines():
    # numpy promises 16 bytes; the helper must give 64 to every array of at
    # least ALIGN_FROM_BYTES, whatever the heap held before, so interleave
    # allocations of odd sizes.
    kept = []
    for shape, dtype in [
        ((16384,), float), ((131072,), np.uint8), ((3, 50000), float),
        ((2, 3, 10001), float), ((140001,), bool), ((6, 9000), np.int32),
    ]:
        kept.append(np.empty(13, dtype=np.uint8))
        a = aligned_empty(shape, dtype)
        assert a.nbytes >= ALIGN_FROM_BYTES
        assert a.shape == shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data % 64 == 0
        kept.append(a)
    # The three-mode workload's worker batches and blocks, and the
    # oscillator's batch of 512 elements.
    for n_el, m, q in [(32, 7, 1000), (16, 7, 1000), (512, 5, 10)]:
        stack = empty_stack(n_el, m, q)
        for view in (stack.values, stack.projector):
            assert view.ctypes.data % 64 == 0
