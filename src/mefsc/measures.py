"""Probability measures on bounded intervals, domain partitioning, and quadrature.

Every random input is a scalar law on a closed interval; laws with unbounded
natural support (gamma, normal) enter pre-truncated and renormalized so each
axis carries a proper probability measure. A multi-dimensional random domain
is the tensor product of such axes, split into equal-width boxes whose masses
come from CDF differences. Per element, a tensor Gauss-Legendre grid with the
density folded into the weights realizes the renormalized conditional measure,
so every inner product downstream is a plain weighted sum of node values.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

# scipy.special is imported inside the branches of the non-uniform laws only:
# a run whose laws are all uniform never loads scipy, which would add about
# 0.3 s and 30 MB to its start.


class DistributionKind(Enum):
    UNIFORM = "uniform"
    BETA = "beta"
    TRUNCATED_GAMMA = "gamma"
    TRUNCATED_NORMAL = "normal"


@dataclass(frozen=True)
class Distribution:
    """A scalar probability law on the closed interval [lower, upper].

    Use the named constructors (:meth:`uniform`, :meth:`beta`,
    :meth:`truncated_gamma`, :meth:`truncated_normal`) rather than filling
    fields by hand. ``shape_a``/``shape_b`` hold (alpha, beta) for the beta
    law, (shape, rate) for the gamma law, and (mean, stddev) for the normal
    law; the uniform law ignores them.

    Truncated laws are renormalized over [lower, upper], so ``pdf``
    integrates to one and ``cdf`` runs exactly from 0 to 1 on the support.
    """

    kind: DistributionKind
    lower: float
    upper: float
    shape_a: float = 0.0
    shape_b: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValueError("support must be bounded; truncate the law first")
        if self.upper <= self.lower:
            raise ValueError(f"empty support [{self.lower}, {self.upper}]")
        if self.kind in (DistributionKind.BETA, DistributionKind.TRUNCATED_GAMMA):
            if self.shape_a <= 0.0 or self.shape_b <= 0.0:
                raise ValueError("shape parameters must be positive")
        if self.kind is DistributionKind.TRUNCATED_NORMAL and self.shape_b <= 0.0:
            raise ValueError("stddev must be positive")

    # -- named constructors -------------------------------------------------

    @staticmethod
    def uniform(lower: float, upper: float) -> "Distribution":
        return Distribution(DistributionKind.UNIFORM, float(lower), float(upper))

    @staticmethod
    def beta(alpha: float, beta: float, lower: float, upper: float) -> "Distribution":
        return Distribution(
            DistributionKind.BETA, float(lower), float(upper), float(alpha), float(beta)
        )

    @staticmethod
    def truncated_gamma(shape: float, rate: float, lower: float, upper: float) -> "Distribution":
        """Gamma(shape, rate) supported on [lower, infinity), cut at ``upper``.

        ``rate`` is the inverse scale, so the untruncated mean sits at
        lower + shape/rate.
        """
        return Distribution(
            DistributionKind.TRUNCATED_GAMMA, float(lower), float(upper), float(shape), float(rate)
        )

    @staticmethod
    def truncated_normal(mean: float, std: float, lower: float, upper: float) -> "Distribution":
        return Distribution(
            DistributionKind.TRUNCATED_NORMAL, float(lower), float(upper), float(mean), float(std)
        )

    # -- law evaluation ------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    @property
    def support_mass(self) -> float:
        """Mass the untruncated parent law puts on [lower, upper].

        1 for the intrinsically bounded laws; the renormalization constant
        for truncated gamma and normal. Multiplying ``pdf`` by this recovers
        the parent density, which reference oracles integrate directly.
        """
        if self.kind is DistributionKind.TRUNCATED_GAMMA:
            return self._gamma_norm()
        if self.kind is DistributionKind.TRUNCATED_NORMAL:
            lo_cdf, hi_cdf = self._normal_cdf_ends()
            return hi_cdf - lo_cdf
        return 1.0

    def _gamma_norm(self) -> float:
        # mass the untruncated shifted gamma assigns to [lower, upper]
        from scipy import special

        return float(special.gammainc(self.shape_a, self.shape_b * (self.upper - self.lower)))

    def _normal_cdf_ends(self) -> tuple[float, float]:
        from scipy import special

        mean, std = self.shape_a, self.shape_b
        return (
            float(special.ndtr((self.lower - mean) / std)),
            float(special.ndtr((self.upper - mean) / std)),
        )

    def pdf(self, x):
        """Probability density at ``x`` (scalar or array), normalized on the support."""
        x = np.asarray(x, dtype=float)
        width = self.upper - self.lower
        if self.kind is DistributionKind.UNIFORM:
            return np.full_like(x, 1.0 / width)
        from scipy import special

        if self.kind is DistributionKind.BETA:
            a, b = self.shape_a, self.shape_b
            z = (x - self.lower) / width
            return z ** (a - 1.0) * (1.0 - z) ** (b - 1.0) / (special.beta(a, b) * width)
        if self.kind is DistributionKind.TRUNCATED_GAMMA:
            shape, rate = self.shape_a, self.shape_b
            y = rate * (x - self.lower)
            raw = rate * y ** (shape - 1.0) * np.exp(-y) / special.gamma(shape)
            return raw / self._gamma_norm()
        mean, std = self.shape_a, self.shape_b
        lo_cdf, hi_cdf = self._normal_cdf_ends()
        z = (x - mean) / std
        raw = np.exp(-0.5 * z * z) / (std * np.sqrt(2.0 * np.pi))
        return raw / (hi_cdf - lo_cdf)

    def cdf(self, x):
        """Cumulative probability at ``x``; exactly 0 at ``lower`` and 1 at ``upper``."""
        x = np.asarray(x, dtype=float)
        width = self.upper - self.lower
        if self.kind is DistributionKind.UNIFORM:
            return np.clip((x - self.lower) / width, 0.0, 1.0)
        from scipy import special

        if self.kind is DistributionKind.BETA:
            z = np.clip((x - self.lower) / width, 0.0, 1.0)
            out = special.betainc(self.shape_a, self.shape_b, z)
        elif self.kind is DistributionKind.TRUNCATED_GAMMA:
            y = self.shape_b * np.clip(x - self.lower, 0.0, None)
            out = special.gammainc(self.shape_a, y) / self._gamma_norm()
        else:
            mean, std = self.shape_a, self.shape_b
            lo_cdf, hi_cdf = self._normal_cdf_ends()
            out = (special.ndtr((x - mean) / std) - lo_cdf) / (hi_cdf - lo_cdf)
        return np.clip(out, 0.0, 1.0)

    def ppf(self, u):
        """Inverse CDF; maps [0, 1] onto the support."""
        u = np.asarray(u, dtype=float)
        width = self.upper - self.lower
        if self.kind is DistributionKind.UNIFORM:
            return self.lower + width * u
        from scipy import special

        if self.kind is DistributionKind.BETA:
            return self.lower + width * special.betaincinv(self.shape_a, self.shape_b, u)
        if self.kind is DistributionKind.TRUNCATED_GAMMA:
            y = special.gammaincinv(self.shape_a, u * self._gamma_norm())
            return self.lower + y / self.shape_b
        mean, std = self.shape_a, self.shape_b
        lo_cdf, hi_cdf = self._normal_cdf_ends()
        return mean + std * special.ndtri(lo_cdf + u * (hi_cdf - lo_cdf))


@dataclass(frozen=True)
class RandomSpacePartition:
    """Equal-width tensor split of the random domain into boxes with masses.

    ``boxes`` has shape (n_elements, dimension, 2) holding per-axis
    [low, high] bounds; element order is row-major in the per-axis interval
    indices (last axis fastest). ``masses`` are the probability masses
    mu(element), which sum to one.
    """

    distributions: tuple[Distribution, ...]
    counts: tuple[int, ...]
    boxes: np.ndarray
    masses: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.distributions)

    @property
    def n_elements(self) -> int:
        return self.boxes.shape[0]


def partition_random_domain(
    distributions: list[Distribution] | tuple[Distribution, ...],
    counts: list[int] | tuple[int, ...],
) -> RandomSpacePartition:
    """Split the tensor-product random domain into equal-width elements.

    Parameters
    ----------
    distributions : sequence of Distribution
        One law per random axis (bounded support).
    counts : sequence of int
        Number of equal-width intervals per axis; the partition holds the
        Cartesian product of the per-axis intervals.

    Returns
    -------
    RandomSpacePartition
    """
    distributions = tuple(distributions)
    counts = tuple(int(c) for c in counts)
    if len(distributions) != len(counts):
        raise ValueError("one element count required per axis")
    if not distributions:
        raise ValueError("at least one axis required")
    if any(c < 1 for c in counts):
        raise ValueError(f"element counts must be >= 1, got {counts}")

    axis_edges = [
        np.linspace(dist.lower, dist.upper, c + 1) for dist, c in zip(distributions, counts)
    ]
    boxes = np.array(
        [
            [[axis_edges[ax][i], axis_edges[ax][i + 1]] for ax, i in enumerate(idx)]
            for idx in itertools.product(*[range(c) for c in counts])
        ]
    )
    masses = np.array([element_measure(distributions, box) for box in boxes])
    return RandomSpacePartition(distributions, counts, boxes, masses)


def element_measure(
    distributions: tuple[Distribution, ...] | list[Distribution], box
) -> float:
    """Probability mass of an axis-aligned box under the product measure.

    The mass is the product over axes of CDF differences. Raises if the box
    sticks out of any axis support or is degenerate.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box.reshape(1, 2)
    if box.shape != (len(distributions), 2):
        raise ValueError(f"box shape {box.shape} does not match {len(distributions)} axes")
    mass = 1.0
    for dist, (lo, hi) in zip(distributions, box):
        if lo < dist.lower - 1e-12 * (dist.upper - dist.lower) or hi > dist.upper + 1e-12 * (
            dist.upper - dist.lower
        ):
            raise ValueError(f"box [{lo}, {hi}] outside support {dist.support}")
        if hi <= lo:
            raise ValueError(f"degenerate box [{lo}, {hi}]")
        mass *= float(dist.cdf(hi) - dist.cdf(lo))
    return mass


# Ten-point Gauss-Legendre rule on [-1, 1], from standard tables
# (correctly rounded doubles of the published 20-digit values).
_GL10_NODES = np.array(
    [
        -0.9739065285171717,
        -0.8650633666889845,
        -0.6794095682990244,
        -0.4333953941292472,
        -0.14887433898163122,
        0.14887433898163122,
        0.4333953941292472,
        0.6794095682990244,
        0.8650633666889845,
        0.9739065285171717,
    ]
)
_GL10_WEIGHTS = np.array(
    [
        0.06667134430868814,
        0.1494513491505806,
        0.21908636251598204,
        0.26926671930999635,
        0.29552422471475287,
        0.29552422471475287,
        0.26926671930999635,
        0.21908636251598204,
        0.1494513491505806,
        0.06667134430868814,
    ]
)


def gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``count``-point Gauss-Legendre rule on [-1, 1].

    The ten-point rule is served from a frozen table; any other count is
    generated by Newton iteration on the Legendre recurrence (used by the
    reference oracles, which run much denser rules) once per count and
    cached. Every call returns fresh copies, so a caller that writes into
    them cannot change the rule a later call gets.
    """
    if count < 1:
        raise ValueError("need at least one quadrature point")
    if count == 10:
        return _GL10_NODES.copy(), _GL10_WEIGHTS.copy()
    nodes, weights = _newton_gauss_legendre(count)
    return nodes.copy(), weights.copy()


@lru_cache(maxsize=8)
def _newton_gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    if count == 1:
        return np.zeros(1), np.full(1, 2.0)
    k = np.arange(count)
    x = np.cos(np.pi * (k + 0.75) / (count + 0.5))
    dp = np.empty_like(x)
    for _ in range(100):
        p_prev, p = np.ones_like(x), x.copy()
        for order in range(2, count + 1):
            p_prev, p = p, ((2 * order - 1) * x * p - (order - 1) * p_prev) / order
        dp = count * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor quadrature realizing the renormalized measure on one element.

    ``nodes`` has shape (n_nodes, dimension); ``weights`` sum to one and
    include the probability density, so a weighted sum of node values is an
    expectation under the element's conditional law. ``mass`` is the
    element's own probability mu(element).
    """

    nodes: np.ndarray
    weights: np.ndarray
    mass: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]


def build_quadrature(
    box,
    distributions: tuple[Distribution, ...] | list[Distribution],
    points_per_axis: int = 10,
) -> QuadratureGrid:
    """Tensor Gauss-Legendre grid over one element, density in the weights.

    Per axis the Gauss-Legendre rule is affinely mapped onto the element
    interval and its weights are scaled by the half-width and the axis
    density at the node. The tensor weights are divided by the element mass
    and renormalized so they sum to one exactly.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box.reshape(1, 2)
    mass = element_measure(distributions, box)
    if mass <= 0.0:
        raise ValueError(f"element {box.tolist()} has vanishing probability mass")
    gl_x, gl_w = gauss_legendre(points_per_axis)
    axis_nodes = []
    axis_weights = []
    for dist, (lo, hi) in zip(distributions, box):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + half * gl_x
        axis_nodes.append(x)
        axis_weights.append(gl_w * half * dist.pdf(x))
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*axis_weights, indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wm in wmesh:
        weights = weights * wm.ravel()
    weights /= mass
    weights /= weights.sum()
    return QuadratureGrid(nodes, weights, mass)

