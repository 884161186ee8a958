"""Orthogonal bases on element grids: batched Gram-Schmidt and warm-start
polynomial candidates.

A basis lives entirely as node values plus squared norms; there is no symbolic
polynomial behind it. Orthogonality is with respect to the grid's weighted
inner product, i.e. the element's conditional measure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .measures import QuadratureGrid

# Squared-norm ratio under which a candidate counts as degenerate (1e-12 in
# amplitude relative to its pre-orthogonalization size).
DROP_RATIO = 1e-24

# Byte boundary on which aligned_empty starts an array: one cache line.
CACHE_LINE = 64
# Smallest array that aligned_empty pads onto a cache line. glibc serves
# smaller ones from its heap, where padding them moved oscillator-e512's peak
# resident set up by about 0.1 MB; larger ones get pages of their own and
# start 16 bytes past a page, off a line, unless padded.
ALIGN_FROM_BYTES = 1 << 17


def aligned_empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An unfilled C-ordered array that starts on a CACHE_LINE boundary when
    it holds at least ALIGN_FROM_BYTES.

    numpy's allocator promises 16 bytes, so where a large array starts within
    a cache line would otherwise depend on what the process allocated
    before, and so would the speed of the loops over it (see
    ``reference._RK4_CHUNK``).
    """
    dtype = np.dtype(dtype)
    nbytes = prod(shape) * dtype.itemsize
    if nbytes < ALIGN_FROM_BYTES:
        return np.empty(shape, dtype)
    raw = np.empty(nbytes + CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % CACHE_LINE
    return raw[start : start + nbytes].view(dtype).reshape(shape)


@dataclass(frozen=True)
class BasisStack:
    """Bases of a batch of elements that share node and candidate counts.

    Candidate slot i of every element is basis row i. A candidate dropped in
    one element is masked there: its row of ``values`` and column of
    ``projector`` are zero, its squared norm is a placeholder 1 and ``kept``
    is False. Projected modes on a masked row are therefore always zero,
    which lets elements with different surviving germ counts share one array
    program.

    ``values`` is (E, m, Q). ``projector`` is (E, Q, m) with columns
    psi_j * w / |psi_j|^2, so ``f @ projector`` gives the modes of the
    projection of node values ``f``, and ``modes @ values`` evaluates modes
    at the nodes.
    ``coefficients`` is (E, m, m) and unit lower triangular: row i holds the
    summed coefficients of both Gram-Schmidt passes of candidate i.

    ``plan`` is the stack's Gram-Schmidt plan (:class:`_GramSchmidtPlan`),
    built by the first ``orthogonalize(work=)`` in the stack and reused by
    every later one. The stack is frozen, so the plan's views stay views of
    its arrays.
    """

    values: np.ndarray
    projector: np.ndarray
    squared_norms: np.ndarray
    kept: np.ndarray
    coefficients: np.ndarray

    @cached_property
    def plan(self) -> _GramSchmidtPlan:
        """This stack's Gram-Schmidt plan, built when first read."""
        return _GramSchmidtPlan(self)


class _GramSchmidtPlan:
    """What :func:`orthogonalize` needs of one stack besides its arithmetic:
    candidate-major views of the stack's arrays, every per-candidate operand
    and output view, and outputs with unit inner stride for the second
    pass's coefficients, the drop floor and the drop flags. The first pass's
    coefficients and the pre- and post-norms are written into the stack's
    ``coefficients`` and ``squared_norms``.

    ``rows[i - 1]`` holds candidate i's views: its values row ``v`` and its
    projector row ``vw`` (also as (E, 1, Q) rows and an (E, Q, 1) column),
    the rows before it (``seen``, (E, i, Q)) and their projector columns
    (``seen_proj``, (E, Q, i)), its pass outputs (E, 1, i), its norm as an
    output and a column, its floor, its drop flags and its ``kept`` row.
    Building the plan sets the diagonal of ``coefficients`` to 1 and its
    upper triangle, like that of ``second``, to 0: entries that no call
    writes, so adding ``second`` to the first pass's coefficients makes
    them unit lower triangular.
    No matmul operand is a copy: numpy picks its BLAS call by layout, and a
    contiguous copy of the projector view was measured to change bits.
    """

    def __init__(self, stack: BasisStack):
        values = stack.values.transpose(1, 0, 2)
        projector = stack.projector.transpose(2, 0, 1)
        norms = stack.squared_norms.T
        kept = stack.kept.T
        m, n_el = norms.shape
        self.values, self.projector, self.kept = values, projector, kept
        self.coefficients = coefs = stack.coefficients.transpose(1, 0, 2)
        self.value_rows = values[:, :, None, :]
        self.projector_cols = projector[:, :, :, None]
        self.norms, self.norm_outs = norms, norms[:, :, None, None]
        self.norm_cols = norms[:, :, None]
        self.floor = np.empty((m, n_el))
        dropped = np.empty((m, n_el), dtype=bool)
        self.second = second = np.zeros((m, n_el, m))
        coefs[...] = 0.0
        coefs[np.arange(m), :, np.arange(m)] = 1.0
        self.rows = [
            (
                values[i], values[i][:, None, :],
                values[:i].transpose(1, 0, 2), projector[:i].transpose(1, 2, 0),
                projector[i], projector[i][:, None, :], projector[i][:, :, None],
                coefs[i][:, None, :i], second[i][:, None, :i],
                norms[i], self.norm_outs[i], self.norm_cols[i],
                self.floor[i], dropped[i], kept[i],
            )
            for i in range(1, m)
        ]


def empty_stack(n_el: int, m: int, q: int) -> BasisStack:
    """A :class:`BasisStack` of unfilled arrays for ``orthogonalize(work=)``: views
    of candidate-major arrays, so that its row operations are contiguous, with
    values and projector allocated by :func:`aligned_empty`."""
    return BasisStack(
        aligned_empty((m, n_el, q)).transpose(1, 0, 2),
        aligned_empty((m, n_el, q)).transpose(1, 2, 0),
        np.empty((m, n_el)).T,
        np.empty((m, n_el), dtype=bool).T,
        np.empty((m, n_el, m)).transpose(1, 0, 2),
    )


def stack_rows(stack: BasisStack, elements: slice) -> BasisStack:
    """The bases of ``elements`` of ``stack``: views that write through, with
    a Gram-Schmidt plan of their own."""
    return BasisStack(
        stack.values[elements],
        stack.projector[elements],
        stack.squared_norms[elements],
        stack.kept[elements],
        stack.coefficients[elements],
    )


def orthogonalize(
    candidates: np.ndarray, weights: np.ndarray, *, work: BasisStack | None = None
) -> BasisStack:
    """Batched Gram-Schmidt of (E, m, Q) candidates against (E, Q) weights.

    Classical Gram-Schmidt with one re-orthogonalization pass, run for all
    elements at once. Candidate 0 must be the constant one; it passes
    through untouched. A candidate whose squared norm after
    orthogonalization drops to DROP_RATIO times its
    pre-orthogonalization squared norm or below, including one that is zero
    at every node, is masked in that element (see
    :class:`BasisStack`). Each element's result depends on its own
    candidates only, never on the rest of the batch.

    The basis is built in ``work`` (from :func:`empty_stack` or
    :func:`stack_rows`, same shape), else in a new stack, and returned.
    ``candidates`` may be ``work.values`` itself, and are then
    orthogonalized in place; row 0 of ``values`` is then never written, so
    a caller that refills only the rows after it keeps its constant row.
    The views and outputs of each candidate come from the stack's plan
    (``BasisStack.plan``), built at the first call in that stack, so each
    candidate costs only its five matmuls and its in-place arithmetic. A
    call without ``work`` builds a plan for the stack it makes and drops it.
    """
    if work is None:
        basis = empty_stack(*candidates.shape)
        plan = _GramSchmidtPlan(basis)
    else:
        basis, plan = work, work.plan
    values, projector, norms = plan.values, plan.projector, plan.norms
    if candidates is not basis.values:
        values[...] = candidates.transpose(1, 0, 2)
    # Until a projector row is final it holds the candidate's weighted
    # values, then its projections onto the rows before it. Each norm holds
    # its candidate's pre-orthogonalization squared norm until the
    # candidate's turn.
    np.multiply(values, weights, out=projector)
    np.matmul(plan.value_rows, plan.projector_cols, out=plan.norm_outs)
    np.multiply(DROP_RATIO, norms, out=plan.floor)
    projector[0] /= plan.norm_cols[0]
    plan.kept[...] = True
    for (v, v_row, seen, seen_proj, vw, vw_row, vw_col, first, second,
         norm, norm_out, norm_col, floor, dropped, kept) in plan.rows:
        # Two passes: the second removes what rounding left of the first.
        np.matmul(v_row, seen_proj, out=first)
        np.matmul(first, seen, out=vw_row)
        v -= vw
        np.matmul(v_row, seen_proj, out=second)
        np.matmul(second, seen, out=vw_row)
        v -= vw
        np.multiply(v, weights, out=vw)
        np.matmul(v_row, vw_col, out=norm_out)
        # <= so that a candidate that is zero at every node (0 <= 0) is
        # dropped too, rather than kept with a zero norm.
        np.less_equal(norm, floor, out=dropped)
        if np.count_nonzero(dropped):
            v[dropped] = 0.0
            vw[dropped] = 0.0
            norm[dropped] = 1.0
            kept[dropped] = False
        vw /= norm_col
    plan.coefficients += plan.second
    return basis


def _graded_lex_exponents(dimension: int, degree: int) -> list[tuple[int, ...]]:
    exps = [
        e
        for e in itertools.product(range(degree + 1), repeat=dimension)
        if sum(e) <= degree
    ]
    exps.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return exps


def warmstart_candidates(grid: QuadratureGrid, degree: int) -> np.ndarray:
    """Candidate rows of an element-local polynomial chaos of total degree ``degree``.

    Monomials in graded-lexicographic order (constant first) are formed in
    per-axis coordinates rescaled to [-1, 1] -- the same span, but conditioned
    well enough for high degrees. Orthogonalized against the element measure
    they give a basis for any of the supported laws, which is what makes it a
    usable warm start when deterministic initial conditions leave the germ
    set degenerate.
    """
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
