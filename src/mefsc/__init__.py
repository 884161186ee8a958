"""Multi-element flow-driven spectral propagation of parametric uncertainty.

The random domain of a stochastic ODE system is split into elements, each
element carries an orthogonal basis rebuilt every time step from the flow
map's germs (state plus time derivatives), and global moments come from the
laws of total expectation and variance. Reference oracles and a benchmark
CLI are included.
"""
from .aggregate import MomentSeries, SolverConfig, run_me_fsc
from .flowmap import ModelSpec
from .fsc_element import (
    FallbackEvent,
    LocalSeries,
    NumericalBlowup,
    WarmStart,
    run_elements,
)
from .measures import (
    Distribution,
    DistributionKind,
    QuadratureGrid,
    RandomSpacePartition,
    build_quadrature,
    element_measure,
    gauss_legendre,
    partition_random_domain,
)
from .models import MODELS, kraichnan_orszag, oscillator, third_order, vanderpol
from .reference import (
    ErrorSeries,
    error_metrics,
    exact_problem1_moments,
    monte_carlo_moments,
    quasi_exact_moments,
)

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "DistributionKind",
    "ErrorSeries",
    "FallbackEvent",
    "LocalSeries",
    "MODELS",
    "ModelSpec",
    "MomentSeries",
    "NumericalBlowup",
    "QuadratureGrid",
    "RandomSpacePartition",
    "SolverConfig",
    "WarmStart",
    "build_quadrature",
    "element_measure",
    "error_metrics",
    "exact_problem1_moments",
    "gauss_legendre",
    "kraichnan_orszag",
    "monte_carlo_moments",
    "oscillator",
    "partition_random_domain",
    "quasi_exact_moments",
    "run_elements",
    "run_me_fsc",
    "third_order",
    "vanderpol",
]
