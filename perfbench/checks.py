"""Correctness checks on the CLI's output, against computations of the
benchmark's own.

Moments are read back from the written CSVs. Each check is a
(name, deviation, limit) triple and passes when the deviation is at most the
limit. The references below share no code with mefsc: the third-order system
is solved by eigen-decomposition of its companion matrix, the oscillator in
closed form, both integrated over the random coefficient with numpy's
Gauss-Legendre rule.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Gauss-Legendre nodes for the benchmark's own integrals over the coefficient.
REFERENCE_POINTS = 100
# Largest allowed |z| between solver and Monte Carlo moments.
Z_LIMIT = 5.0


def read_csv(path: Path) -> tuple[dict[str, np.ndarray], list[str] | None]:
    """Columns of a CLI CSV, and its trailing GLOBAL row if it has one."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    final = None
    if body and body[-1][0] == "GLOBAL":
        final, body = body[-1][1:], body[:-1]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}, final


def _components(moments: dict) -> list[str]:
    return [key[len("mean_") :] for key in moments if key.startswith("mean_")]


def _worst(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def common(moments, errors, global_row, masses, steps: int, dt: float) -> list:
    """Checks every workload runs: time grid, masses, variances, errors.csv."""
    names = _components(moments)
    t = moments["t"]
    grid = _worst(t, np.arange(steps + 1) * dt) if t.size == steps + 1 else np.inf
    variances = np.array(
        [moments[f"{p}var_{c}"] for c in names for p in ("", "ref_")]
    )
    pointwise = max(
        _worst(errors[f"err_{q}_{c}"], np.abs(moments[f"{q}_{c}"] - moments[f"ref_{q}_{c}"]))
        for c in names
        for q in ("mean", "var")
    ) if errors["t"].size == t.size else np.inf
    scale = dt / (steps * dt)
    expected = np.array(
        [scale * np.sum(errors[f"err_{q}_{c}"]) for c in names for q in ("mean", "var")]
    )
    stated = np.array(global_row, dtype=float)
    average = float(np.max(np.abs(stated - expected) / np.maximum(np.abs(expected), 1e-300)))
    return [
        ("time grid is k*dt for every step", grid, 1e-12),
        ("element masses sum to 1", abs(float(np.sum(masses)) - 1.0), 1e-13),
        ("element masses are 1/E", _worst(masses * masses.size, 1.0), 1e-12),
        ("variances are >= 0", max(0.0, -float(variances.min())), 0.0),
        ("errors.csv is |solver - reference|", pointwise, 0.0),
        ("errors.csv GLOBAL row is the time average (relative)", average, 1e-12),
    ]


def _moments_over(values: np.ndarray, weights: np.ndarray):
    """Mean and variance over axis 1 of (components, nodes, times) values."""
    mean = np.einsum("cnt,n->ct", values, weights)
    centered = values - mean[:, None, :]
    return mean, np.einsum("cnt,n->ct", centered * centered, weights)


def _uniform_rule(lower: float, upper: float):
    x, w = np.polynomial.legendre.leggauss(REFERENCE_POINTS)
    return 0.5 * (lower + upper) + 0.5 * (upper - lower) * x, 0.5 * w


def companion_moments(times: np.ndarray, lower=2.0, upper=3.0):
    """Moments of u''' + 0.5 u'' + k u' + u = 0, (u, u', u'')(0) = (1, -1, 2),
    k uniform on [lower, upper]: x(t) = V exp(L t) V^-1 x0 per node."""
    k, w = _uniform_rule(lower, upper)
    a = np.zeros((k.size, 3, 3))
    a[:, 0, 1] = a[:, 1, 2] = 1.0
    a[:, 2, 0], a[:, 2, 1], a[:, 2, 2] = -1.0, -k, -0.5
    lam, vec = np.linalg.eig(a)
    coef = np.linalg.solve(vec, np.broadcast_to([1.0, -1.0, 2.0], (k.size, 3))[..., None])
    x = np.einsum("kij,kj,kjt->ikt", vec, coef[..., 0], np.exp(lam[:, :, None] * times))
    return _moments_over(x.real, w)


def oscillator_moments(times: np.ndarray, lower=340.0, upper=460.0):
    """Moments of 100 u'' + k u = 0, u(0) = 0.05, u'(0) = 0.2, k uniform:
    u = u0 cos(wt) + (v0/w) sin(wt) with w = sqrt(k/100)."""
    k, w = _uniform_rule(lower, upper)
    omega = np.sqrt(k / 100.0)[:, None]
    cos, sin = np.cos(omega * times), np.sin(omega * times)
    u = 0.05 * cos + (0.20 / omega) * sin
    v = 0.20 * cos - 0.05 * omega * sin
    return _moments_over(np.stack([u, v]), w)


def against(moments, mean, var, who: str, prefix: str, tol_mean, tol_var) -> list:
    names = _components(moments)
    return [
        (
            f"{who} mean vs own solution",
            max(_worst(moments[f"{prefix}mean_{c}"], mean[i]) for i, c in enumerate(names)),
            tol_mean,
        ),
        (
            f"{who} variance vs own solution",
            max(_worst(moments[f"{prefix}var_{c}"], var[i]) for i, c in enumerate(names)),
            tol_var,
        ),
    ]


def third_order(moments, mc_samples: int) -> list:
    mean, var = companion_moments(moments["t"])
    return against(moments, mean, var, "solver", "", 1e-11, 1e-11) + against(
        moments, mean, var, "quasi-exact", "ref_", 1e-11, 1e-11
    )


def oscillator(moments, mc_samples: int) -> list:
    mean, var = oscillator_moments(moments["t"])
    return against(moments, mean, var, "solver", "", 1e-11, 1e-11) + against(
        moments, mean, var, "closed form", "ref_", 1e-11, 1e-11
    )


def three_mode(moments, mc_samples: int) -> list:
    """Symmetry, the |u|^2 invariant, and agreement with Monte Carlo.

    The law and the partition are symmetric under u1 -> -u1 and u2 -> -u2,
    which the system also is, so E[u1] = E[u2] = 0; |u|^2 is invariant, and
    E|u|^2 = 1 for three independent uniform laws on [-1, 1]. Monte Carlo
    reports unbiased variances, so its own sample mean of |u|^2 is
    sum(mean^2 + var (N-1)/N). The solver's variance is compared with the
    oracle's through an upper bound on the standard error of a sample
    variance, sqrt(B^2 var / N), where B >= |u_c - E u_c| since |u_c| <= sqrt(3).
    """
    names = ("u1", "u2", "u3")
    n = mc_samples
    mean = np.array([moments[f"mean_{c}"] for c in names])
    var = np.array([moments[f"var_{c}"] for c in names])
    ref_mean = np.array([moments[f"ref_mean_{c}"] for c in names])
    ref_var = np.array([moments[f"ref_var_{c}"] for c in names])
    energy = np.sum(var + mean * mean, axis=0)
    sample_energy = np.sum(ref_mean * ref_mean + ref_var * (n - 1) / n, axis=0)
    se_mean = np.sqrt(ref_var / n)
    spread = np.sqrt(3.0) + np.abs(ref_mean)
    se_var = np.sqrt(spread * spread * ref_var / n)
    return [
        ("solver E[u1], E[u2] are 0", float(np.max(np.abs(mean[:2]))), 1e-13),
        ("solver sum Var + E^2 is 1", float(np.max(np.abs(energy - 1.0))), 1e-10),
        (
            "Monte Carlo conserves its mean |u|^2",
            float(np.max(np.abs(sample_energy - sample_energy[0]))),
            1e-10,
        ),
        ("solver vs Monte Carlo mean, |z|", float(np.max(np.abs(mean - ref_mean) / se_mean)), Z_LIMIT),
        ("solver vs Monte Carlo variance, |z|", float(np.max(np.abs(var - ref_var) / se_var)), Z_LIMIT),
    ]


WORKLOAD_CHECKS = {
    "third-order-e8": third_order,
    "three-mode-e64-w2": three_mode,
    "oscillator-e512": oscillator,
}


def run_checks(workload, out: Path, masses: np.ndarray) -> list:
    """Every check of ``workload`` on the CSVs in ``out``."""
    moments, _ = read_csv(out / "moments.csv")
    errors, global_row = read_csv(out / "errors.csv")
    return common(
        moments, errors, global_row, masses, workload.steps, workload.dt
    ) + WORKLOAD_CHECKS[workload.name](moments, workload.mc_samples)


def failures(results: list) -> list:
    return [(name, value, limit) for name, value, limit in results if not value <= limit]
