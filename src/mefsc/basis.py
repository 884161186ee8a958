"""Orthogonal bases on an element grid: Gram-Schmidt, warm-start polynomials,
projection and evaluation.

A basis lives entirely as node values plus squared norms; there is no symbolic
polynomial behind it. Orthogonality is with respect to the grid's weighted
inner product, i.e. the element's conditional measure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .measures import QuadratureGrid

# Squared-norm ratio under which a candidate counts as degenerate (1e-12 in
# amplitude relative to its pre-orthogonalization size).
DROP_RATIO = 1e-24


@dataclass
class BasisSet:
    """Orthogonal basis vectors sampled at the element's quadrature nodes.

    ``values`` is (count, n_nodes) with row 0 identically one. ``kept_flags``
    has one entry per original candidate and records which survived the
    degeneracy drop. ``coefficients`` is (n_candidates, count): row i holds
    the Gram-Schmidt coefficients of candidate i on the basis, so a kept
    candidate equals ``coefficients[i] @ values`` (a trailing 1 on its own
    vector) and a dropped one its projection. ``transform``, when requested,
    maps candidate rows to basis rows (values = transform @ candidates); it
    exists so tests can re-evaluate the same basis on denser grids.
    """

    values: np.ndarray
    squared_norms: np.ndarray
    kept_flags: np.ndarray
    coefficients: np.ndarray
    transform: np.ndarray | None = None
    _projector: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    def projector(self, grid: QuadratureGrid) -> np.ndarray:
        """(n_nodes, count) matrix P such that values @ P = modes of a projection.

        Cached; a BasisSet is only ever used with the grid it was built on.
        """
        if self._projector is None:
            self._projector = (self.values * grid.weights).T / self.squared_norms
        return self._projector


@dataclass
class BasisStack:
    """Bases of a batch of elements that share node and candidate counts.

    Candidate slot i of every element is basis row i. A candidate dropped in
    one element is masked there: its row of ``values`` and column of
    ``projector`` are zero, its squared norm is a placeholder 1 and ``kept``
    is False. Projected modes on a masked row are therefore always zero,
    which lets elements with different surviving germ counts share one array
    program.

    ``values`` is (E, m, Q). ``projector`` is (E, Q, m) with columns
    psi_j * w / |psi_j|^2, so ``f @ projector`` projects node values, as
    :meth:`BasisSet.projector` does for one element.
    ``coefficients`` is (E, m, m) and unit lower triangular: row i holds the
    summed coefficients of both Gram-Schmidt passes of candidate i.
    """

    values: np.ndarray
    projector: np.ndarray
    squared_norms: np.ndarray
    kept: np.ndarray
    coefficients: np.ndarray

    def element(self, e: int) -> BasisSet:
        """Element ``e``'s basis with its masked rows removed."""
        keep = self.kept[e]
        return BasisSet(
            values=self.values[e, keep],
            squared_norms=self.squared_norms[e, keep],
            kept_flags=keep.copy(),
            coefficients=self.coefficients[e][:, keep],
            _projector=self.projector[e][:, keep],
        )


def orthogonalize(
    candidates: np.ndarray, weights: np.ndarray, drop_ratio: float = DROP_RATIO
) -> BasisStack:
    """Batched Gram-Schmidt of (E, m, Q) candidates against (E, Q) weights.

    Classical Gram-Schmidt with one re-orthogonalization pass, run for all
    elements at once. Candidate 0 must be the constant one; it passes
    through untouched. A candidate whose squared norm after
    orthogonalization drops to ``drop_ratio`` times its
    pre-orthogonalization squared norm or below, including one that is zero
    at every node, is masked in that element (see
    :class:`BasisStack`). Each element's result depends on its own
    candidates only, never on the rest of the batch.
    """
    n_el, m, _ = candidates.shape
    # Work candidate-major, (m, E, Q), so that every row operation below is
    # on contiguous memory; the result is returned as (E, m, Q) views.
    values = candidates.transpose(1, 0, 2).copy()
    wvals = values * weights
    pre = (values[:, :, None, :] @ wvals[:, :, :, None])[:, :, 0, 0]
    floor = drop_ratio * pre
    norms = pre.copy()
    projector = np.empty_like(values)
    np.divide(wvals[0], pre[0][:, None], out=projector[0])
    kept = np.ones((m, n_el), dtype=bool)
    coefs = np.zeros((m, n_el, m))
    coefs[0, :, 0] = 1.0
    for i in range(1, m):
        v = values[i]
        seen = values[:i].transpose(1, 0, 2)
        seen_proj = projector[:i].transpose(1, 2, 0)
        # Two passes: the second removes what rounding left of the first.
        first = v[:, None, :] @ seen_proj
        v -= (first @ seen)[:, 0]
        second = v[:, None, :] @ seen_proj
        v -= (second @ seen)[:, 0]
        coefs[i, :, :i] = (first + second)[:, 0]
        coefs[i, :, i] = 1.0
        vw = v * weights
        post = (v[:, None, :] @ vw[:, :, None])[:, 0, 0]
        # <= so that a candidate that is zero at every node (0 <= 0) is
        # dropped too, rather than kept with a zero norm.
        dropped = post <= floor[i]
        if np.count_nonzero(dropped):
            v[dropped] = 0.0
            vw[dropped] = 0.0
            post[dropped] = 1.0
            kept[i, dropped] = False
        norms[i] = post
        np.divide(vw, post[:, None], out=projector[i])
    return BasisStack(
        values=values.transpose(1, 0, 2),
        projector=projector.transpose(1, 2, 0),
        squared_norms=norms.T,
        kept=kept.T,
        coefficients=coefs.transpose(1, 0, 2),
    )


def gram_schmidt(
    candidate_values,
    grid: QuadratureGrid,
    *,
    drop_ratio: float = DROP_RATIO,
    want_transform: bool = False,
    check: bool = True,
) -> BasisSet:
    """Orthogonalize candidate node-value rows against the grid measure.

    The one-element case of :func:`orthogonalize`, with dropped candidates
    removed from the result. The first candidate must be the constant one;
    row 0 of the result is exactly one at every node.

    ``check=False`` skips validating the constant first row; callers that
    fill the candidate buffer themselves and are called once per step can
    afford to promise it instead.
    """
    cands = np.asarray(candidate_values, dtype=float)
    if cands.ndim != 2:
        cands = np.atleast_2d(cands)
    n_cands, n_nodes = cands.shape
    if n_nodes != grid.n_nodes:
        raise ValueError("candidate values do not match the node count")
    if n_cands < 1:
        raise ValueError("need at least one candidate")
    if check and not np.all(cands[0] == 1.0):
        raise ValueError("first candidate must be identically 1")
    basis = orthogonalize(cands[None], grid.weights[None], drop_ratio).element(0)
    if want_transform:
        # Kept candidates are C @ values with C unit lower triangular, so the
        # transform is C's inverse on the kept rows; dropped columns are zero.
        keep = basis.kept_flags
        square = basis.coefficients[keep]
        basis.transform = np.zeros((basis.count, n_cands))
        basis.transform[:, keep] = solve_triangular(
            square, np.eye(basis.count), lower=True, unit_diagonal=True
        )
    return basis


def _graded_lex_exponents(dimension: int, degree: int) -> list[tuple[int, ...]]:
    exps = [
        e
        for e in itertools.product(range(degree + 1), repeat=dimension)
        if sum(e) <= degree
    ]
    exps.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return exps


def warmstart_basis(grid: QuadratureGrid, dimension: int, degree: int) -> BasisSet:
    """Element-local polynomial chaos basis of total degree ``degree``.

    Monomials in graded-lexicographic order (constant first) are formed in
    per-axis coordinates rescaled to [-1, 1] -- the same span, but conditioned
    well enough for high degrees -- and orthogonalized against the element
    measure. Works for any of the supported laws, which is what makes it a
    usable warm start when deterministic initial conditions leave the germ
    set degenerate.
    """
    if dimension != grid.dimension:
        raise ValueError("dimension does not match the grid")
    return gram_schmidt(warmstart_candidates(grid, degree), grid)


def warmstart_candidates(grid: QuadratureGrid, degree: int) -> np.ndarray:
    """Rescaled monomial candidate rows of :func:`warmstart_basis`."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lo = grid.nodes.min(axis=0)
    hi = grid.nodes.max(axis=0)
    unit = 2.0 * (grid.nodes - lo) / (hi - lo) - 1.0
    exponent_rows = _graded_lex_exponents(grid.dimension, degree)
    cands = np.empty((len(exponent_rows), grid.n_nodes))
    for row, exps in enumerate(exponent_rows):
        v = np.ones(grid.n_nodes)
        for ax, p in enumerate(exps):
            if p:
                v = v * unit[:, ax] ** p
        cands[row] = v
    return cands


def project(f_values, basis: BasisSet, grid: QuadratureGrid) -> np.ndarray:
    """Galerkin coefficients of node values on the basis.

    mode_j = <Psi_j, f> / <Psi_j, Psi_j>. Accepts a single (n_nodes,) array
    or a stack (m, n_nodes); returns matching (count,) or (m, count).
    """
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape[-1] != grid.n_nodes:
        raise ValueError("value array does not match the node count")
    return f_values @ basis.projector(grid)


def evaluate(modes, basis: BasisSet) -> np.ndarray:
    """Reconstruct node values from modes: sum_j mode_j * Psi_j(node)."""
    modes = np.asarray(modes, dtype=float)
    if modes.shape[-1] != basis.count:
        raise ValueError("mode count does not match the basis")
    return modes @ basis.values
