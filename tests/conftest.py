"""A warm-started one-element oscillator state, shared by the transfer tests."""

import numpy as np
import pytest

from mefsc import MODELS, Distribution, build_quadrature
from mefsc.basis import orthogonalize, warmstart_candidates
from stepping import galerkin_rk4


@pytest.fixture(scope="session")
def warm_oscillator():
    """(grid, basis, modes) of one problem-1 element at t = 1 s.

    The element spans the whole stiffness law and has run 1000 RK4 steps of
    1 ms on its degree-7 warm-start basis, as the solver does with
    ``WarmStart(7, 1.0)``. ``basis`` and ``modes`` are batches of one.
    """
    law = (Distribution.uniform(340.0, 460.0),)
    grid = build_quadrature([[340.0, 460.0]], law, points_per_axis=10)
    basis = orthogonalize(warmstart_candidates(grid, 7)[None], grid.weights[None])
    osc = MODELS["oscillator"]
    modes = osc.initial_state(grid.nodes)[None] @ basis.projector
    ids = np.zeros(1, dtype=int)
    for i in range(1000):
        modes = galerkin_rk4(i * 1e-3, modes, basis, osc, grid.nodes, 1e-3, ids)
    return grid, basis, modes
