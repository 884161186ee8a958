"""The solver's in-place stepping pieces, wrapped to return new arrays.

``run_elements`` rebuilds, transfers and steps in one workspace per batch.
The tests drive those pieces on their own, on batches of one, through these
wrappers; each gives the bits the solver's own call gives.
"""

import numpy as np

from mefsc.flowmap import fill_germs
from mefsc.fsc_element import _galerkin_rhs, _transfer, rk4_step


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
