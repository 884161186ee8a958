"""Multi-element flow-driven spectral propagation of parametric uncertainty.

The random domain of a stochastic ODE system is split into elements, each
element carries an orthogonal basis rebuilt every time step from the flow
map's germs (state plus time derivatives), and global moments come from the
laws of total expectation and variance. Reference oracles and a benchmark
CLI are included.
"""
from .aggregate import (
    MomentSeries,
    SolverConfig,
    run_me_fsc,
    total_expectation,
    total_variance,
)
from .basis import BasisSet, evaluate, gram_schmidt, project, warmstart_basis
from .flowmap import GermSet, ModelSpec, enriched_germs
from .fsc_element import (
    ElementState,
    FallbackEvent,
    LocalSeries,
    MomentSample,
    NumericalBlowup,
    WarmStart,
    galerkin_rhs,
    local_moments,
    rebuild_basis,
    rk4_step,
    run_element,
    run_elements,
    transfer_modes,
)
from .measures import (
    Distribution,
    DistributionKind,
    QuadratureGrid,
    RandomSpacePartition,
    build_quadrature,
    element_measure,
    gauss_legendre,
    inner_product,
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
    "BasisSet",
    "Distribution",
    "DistributionKind",
    "ElementState",
    "ErrorSeries",
    "FallbackEvent",
    "GermSet",
    "LocalSeries",
    "MODELS",
    "ModelSpec",
    "MomentSample",
    "MomentSeries",
    "NumericalBlowup",
    "QuadratureGrid",
    "RandomSpacePartition",
    "SolverConfig",
    "WarmStart",
    "build_quadrature",
    "element_measure",
    "enriched_germs",
    "error_metrics",
    "evaluate",
    "exact_problem1_moments",
    "galerkin_rhs",
    "gauss_legendre",
    "gram_schmidt",
    "inner_product",
    "kraichnan_orszag",
    "local_moments",
    "monte_carlo_moments",
    "oscillator",
    "partition_random_domain",
    "project",
    "quasi_exact_moments",
    "rebuild_basis",
    "rk4_step",
    "run_element",
    "run_elements",
    "run_me_fsc",
    "third_order",
    "total_expectation",
    "total_variance",
    "transfer_modes",
    "vanderpol",
    "warmstart_basis",
]
