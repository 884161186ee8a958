"""Benchmark systems: harmonic oscillator with random stiffness, a damped
third-order linear equation, the Van der Pol oscillator, and the
Kraichnan-Orszag three-mode problem.

Each model supplies its derivative chain analytically. For the linear models
the chain is the obvious recursion; for the nonlinear ones it follows from
the general Leibniz rule applied to the products in the right-hand side.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .flowmap import ModelSpec

_CHAIN_CAP = 16

_OSC_MASS = 100.0
_OSC_U0 = 0.05
_OSC_V0 = 0.20


def _osc_rhs(t, nodes, state, *, out):
    out[0] = state[1]
    np.multiply(-(nodes[:, 0] / _OSC_MASS), state[0], out=out[1])
    return out


def _osc_chain(t, nodes, state, order, *, out):
    d0, d1 = state[0], state[1]
    for level in out:
        d0, d1 = d1, np.multiply(-(nodes[:, 0] / _OSC_MASS), d0, out=level)
    return out


def _osc_init(nodes):
    q = nodes.shape[0]
    return np.stack([np.full(q, _OSC_U0), np.full(q, _OSC_V0)])


oscillator = ModelSpec(
    name="oscillator",
    state_dim=2,
    param_dim=1,
    max_enrichment=_CHAIN_CAP,
    companion=True,
    component_names=("u", "dudt"),
    rhs=_osc_rhs,
    derivative_chain=_osc_chain,
    initial_state=_osc_init,
)


# u''' + 0.5 u'' + k u' + u = 0 with random k; companion state (u, u', u'').
def _third_rhs(t, nodes, state, *, out):
    k = nodes[:, 0]
    out[0] = state[1]
    out[1] = state[2]
    np.negative(0.5 * state[2] + k * state[1] + state[0], out=out[2])
    return out


def _third_chain(t, nodes, state, order, *, out):
    d0, d1, d2 = state[0], state[1], state[2]
    for level in out:
        d0, d1, d2 = d1, d2, np.negative(0.5 * d2 + nodes[:, 0] * d1 + d0, out=level)
    return out


def _third_init(nodes):
    q = nodes.shape[0]
    return np.stack([np.full(q, 1.0), np.full(q, -1.0), np.full(q, 2.0)])


third_order = ModelSpec(
    name="third_order",
    state_dim=3,
    param_dim=1,
    max_enrichment=_CHAIN_CAP,
    companion=True,
    component_names=("u", "dudt", "d2udt2"),
    rhs=_third_rhs,
    derivative_chain=_third_chain,
    initial_state=_third_init,
)


_VDP_MASS = 100.0
_VDP_RHO = 150.0
_VDP_U0 = 0.20
_VDP_V0 = 0.30


def _vdp_rhs(t, nodes, state, *, out):
    c = nodes[:, 0] / _VDP_MASS
    k = nodes[:, 1] / _VDP_MASS
    u, du = state[0], state[1]
    out[0] = du
    np.subtract(c * (1.0 - _VDP_RHO * u * u) * du, k * u, out=out[1])
    return out


def _vdp_chain(t, nodes, state, order, *, out):
    # D^{m+2} u = (c/m) sum_i C(m,i) g_i D^{m-i+1} u - (k/m) D^m u, where
    # g_i is the i-th derivative of (1 - rho u^2), itself a Leibniz sum.
    c = nodes[:, 0] / _VDP_MASS
    k = nodes[:, 1] / _VDP_MASS
    d = [state[0], state[1]]
    g = []
    for m in range(order + 1):
        sq = sum(comb(m, r) * d[r] * d[m - r] for r in range(m + 1))
        g.append(1.0 - _VDP_RHO * sq if m == 0 else -_VDP_RHO * sq)
        drive = sum(comb(m, i) * g[i] * d[m - i + 1] for i in range(m + 1))
        d.append(np.subtract(c * drive, k * d[m], out=out[m]))
    return out


def _vdp_init(nodes):
    q = nodes.shape[0]
    return np.stack([np.full(q, _VDP_U0), np.full(q, _VDP_V0)])


vanderpol = ModelSpec(
    name="vanderpol",
    state_dim=2,
    param_dim=2,
    max_enrichment=_CHAIN_CAP,
    companion=True,
    component_names=("u", "dudt"),
    rhs=_vdp_rhs,
    derivative_chain=_vdp_chain,
    initial_state=_vdp_init,
)


def _ko_chain(t, nodes, state, order, *, out):
    # Leibniz on the quadratic couplings: with a=D^i u1, b=D^i u2, e=D^i u3,
    #   a_{j+1} =  sum_i C(j,i) a_i e_{j-i}
    #   b_{j+1} = -sum_i C(j,i) b_i e_{j-i}
    #   e_{j+1} =  sum_i C(j,i) (b_i b_{j-i} - a_i a_{j-i})
    # Each sum is accumulated in place from 0, term by term, as sum() adds
    # fresh arrays; two scratch rows hold the terms.
    term, other = np.empty((2, state.shape[1]))
    d = [state, *np.split(out, order + 1)]
    for j in range(order + 1):
        sums = d[j + 1]
        sums.fill(0.0)
        for i in range(j + 1):
            c = comb(j, i)
            (a, b, e), (a_k, b_k, e_k) = d[i], d[j - i]
            sums[0] += np.multiply(np.multiply(c, a, out=term), e_k, out=term)
            sums[1] += np.multiply(np.multiply(c, b, out=term), e_k, out=term)
            np.multiply(b, b_k, out=term)
            term -= np.multiply(a, a_k, out=other)
            sums[2] += np.multiply(term, c, out=term)
        np.negative(sums[1], out=sums[1])
    return out


def _ko_rhs(t, nodes, state, *, out):
    # Order 0 of _ko_chain, without the Leibniz sums (whose 0 + x turns a
    # -0.0 product into +0.0). Row 0 holds a*a until row 2 is formed.
    a, b, e = state[0], state[1], state[2]
    np.multiply(a, a, out=out[0])
    np.multiply(b, b, out=out[2])
    out[2] -= out[0]
    np.multiply(a, e, out=out[0])
    np.multiply(b, e, out=out[1])
    np.negative(out[1], out=out[1])
    return out


def _ko_init(nodes):
    return np.asarray(nodes, dtype=float).T.copy()


kraichnan_orszag = ModelSpec(
    name="kraichnan_orszag",
    state_dim=3,
    param_dim=3,
    max_enrichment=_CHAIN_CAP,
    companion=False,
    component_names=("u1", "u2", "u3"),
    rhs=_ko_rhs,
    derivative_chain=_ko_chain,
    initial_state=_ko_init,
)


MODELS = {
    "oscillator": oscillator,
    "third_order": third_order,
    "vanderpol": vanderpol,
    "kraichnan_orszag": kraichnan_orszag,
}
