"""The solver's in-place stepping pieces, wrapped to return new arrays.

``run_elements`` rebuilds, transfers and steps in one workspace per batch,
and hands its moments on a block at a time. The tests drive those pieces on
their own, on batches of one, through these wrappers; each gives the bits
the solver's own call gives. ``stored_run`` keeps every step's moments, and
``stacked_rhs`` gives the models' right-hand sides in fresh arrays.
"""

import sys
from unittest import mock

import numpy as np

from mefsc import fsc_element, models
from mefsc.flowmap import fill_germs
from mefsc.fsc_element import _galerkin_rhs, _transfer, rk4_step


def stored_run(*args, **kwargs):
    """``run_elements(*args, **kwargs)`` with every step's moments kept.

    Returns the series and the (E, n, steps+1) means and variances. The
    block buffer is made large enough for every step, whatever block size
    the caller has patched in, so ``reduce`` is called once, with them all.
    """
    blocks = []

    def keep(start, means, variances):
        # The solver reuses its block buffer, so each block is copied.
        blocks.append((start, means.copy(), variances.copy()))

    with mock.patch.object(fsc_element, "_BLOCK_BYTES", sys.maxsize):
        series = fsc_element.run_elements(*args, reduce=keep, **kwargs)
    ((start, means, variances),) = blocks
    assert start == 0
    return series, means, variances


def stacked_rhs(name):
    """The right-hand side of model ``name`` as it was before it wrote into
    ``out``: rows formed in fresh arrays, then stacked."""

    def osc(t, nodes, s):
        return np.stack([s[1], -(nodes[:, 0] / models._OSC_MASS) * s[0]])

    def third(t, nodes, s):
        k = nodes[:, 0]
        return np.stack([s[1], s[2], -(0.5 * s[2] + k * s[1] + s[0])])

    def vdp(t, nodes, s):
        c = nodes[:, 0] / models._VDP_MASS
        k = nodes[:, 1] / models._VDP_MASS
        u, du = s[0], s[1]
        return np.stack([du, c * (1.0 - models._VDP_RHO * u * u) * du - k * u])

    def ko(t, nodes, s):
        a, b, e = s[0], s[1], s[2]
        return np.stack([a * e, -(b * e), b * b - a * a])

    return {"oscillator": osc, "third_order": third, "vanderpol": vdp,
            "kraichnan_orszag": ko}[name]


def germ_candidates(model, t, rows, nodes, truncation):
    """(1, truncation+1, Q) candidates of one element: the constant, then
    the germs of its (n, Q) state rows."""
    cands = np.empty((truncation + 1, rows.shape[1]))
    cands[0] = 1.0
    fill_germs(model, t, nodes, rows, cands[1:])
    return cands[None]


def transfer(values, basis, t, ids, events):
    """Modes of (E, n, Q) state values on a basis just built from them;
    ``events`` None drops the fallback events."""
    n_el, n, _ = values.shape
    modes = np.empty((n_el, n, basis.values.shape[1]))
    if events is None:
        events = [[] for _ in range(n_el)]
    _transfer(values, basis, t, ids, events, modes)
    return modes


def _rhs_on(modes, basis, model, ids):
    n_el, n, _ = modes.shape
    state = np.empty((n, n_el, basis.values.shape[2]))
    return _galerkin_rhs(model, basis, ids, state)


def galerkin_rhs(t, modes, basis, model, nodes, ids):
    """Modes of the model's derivative at (E, n, m) modes on ``basis``."""
    out = np.empty_like(modes)
    _rhs_on(modes, basis, model, ids)(t, nodes, modes, out=out)
    return out


def galerkin_rk4(t, modes, basis, model, nodes, dt, ids):
    """The modes after one RK4 step on a frozen basis."""
    stepped = modes.copy()
    rhs = _rhs_on(modes, basis, model, ids)
    rk4_step(rhs, t, dt, nodes, stepped, np.empty((5, *modes.shape)))
    return stepped
