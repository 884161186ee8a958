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


def _osc_rhs(t, nodes, state, *, out=None):
    if out is None:
        out = np.empty_like(state)
    out[0] = state[1]
    np.multiply(-(nodes[:, 0] / _OSC_MASS), state[0], out=out[1])
    return out


def _osc_chain(t, nodes, state, order):
    kbar = nodes[:, 0] / _OSC_MASS
    d0, d1 = state[0], state[1]
    for _ in range(order + 1):
        d0, d1 = d1, -kbar * d0
    return d1[None, :]


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
def _third_rhs(t, nodes, state, *, out=None):
    if out is None:
        out = np.empty_like(state)
    k = nodes[:, 0]
    out[0] = state[1]
    out[1] = state[2]
    np.negative(0.5 * state[2] + k * state[1] + state[0], out=out[2])
    return out


def _third_chain(t, nodes, state, order):
    k = nodes[:, 0]
    d0, d1, d2 = state[0], state[1], state[2]
    for _ in range(order + 1):
        d0, d1, d2 = d1, d2, -(0.5 * d2 + k * d1 + d0)
    return d2[None, :]


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


def _vdp_rhs(t, nodes, state, *, out=None):
    if out is None:
        out = np.empty_like(state)
    c = nodes[:, 0] / _VDP_MASS
    k = nodes[:, 1] / _VDP_MASS
    u, du = state[0], state[1]
    out[0] = du
    np.subtract(c * (1.0 - _VDP_RHO * u * u) * du, k * u, out=out[1])
    return out


def _vdp_chain(t, nodes, state, order):
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
        d.append(c * drive - k * d[m])
    return d[-1][None, :]


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


def _ko_chain(t, nodes, state, order):
    # Leibniz on the quadratic couplings: with a=D^i u1, b=D^i u2, e=D^i u3,
    #   a_{j+1} =  sum_i C(j,i) a_i e_{j-i}
    #   b_{j+1} = -sum_i C(j,i) b_i e_{j-i}
    #   e_{j+1} =  sum_i C(j,i) (b_i b_{j-i} - a_i a_{j-i})
    a = [state[0]]
    b = [state[1]]
    e = [state[2]]
    for j in range(order + 1):
        a.append(sum(comb(j, i) * a[i] * e[j - i] for i in range(j + 1)))
        b.append(-sum(comb(j, i) * b[i] * e[j - i] for i in range(j + 1)))
        e.append(
            sum(comb(j, i) * (b[i] * b[j - i] - a[i] * a[j - i]) for i in range(j + 1))
        )
    return np.stack([a[-1], b[-1], e[-1]])


def _ko_rhs(t, nodes, state, *, out=None):
    # Order 0 of _ko_chain, without the Leibniz sums (whose 0 + x turns a
    # -0.0 product into +0.0; the values are otherwise the same).
    if out is None:
        out = np.empty_like(state)
    a, b, e = state[0], state[1], state[2]
    np.multiply(a, e, out=out[0])
    np.negative(b * e, out=out[1])
    np.subtract(b * b, a * a, out=out[2])
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
