"""Coarse-grained Lindblad generators for projected weak-coupling
dynamics of finite-dimensional quantum systems."""

__version__ = "0.1.0"

from .coarsegrain import (
    CoarseGrainSchedule,
    T_of_lambda,
    coarse_grained_L,
    lamb_shift,
    pv_gaussian,
)
from .generator import (
    GeneratorBundle,
    LindbladDecomposition,
    build_generator,
    evolve,
    export_bundle,
    k_t_oracle,
    qds_certificate,
    steady_state,
)
from .linalg import EigenSystem, choi_matrix, expm, hermitian_eig, is_psd
from .subsystem import (
    PhysicalSubsystem,
    build_projection,
    commutant,
    partial_trace_family,
    sector_family,
    validate_cppnce,
)

__all__ = [
    "__version__",
    "CoarseGrainSchedule",
    "EigenSystem",
    "GeneratorBundle",
    "LindbladDecomposition",
    "PhysicalSubsystem",
    "T_of_lambda",
    "build_generator",
    "build_projection",
    "choi_matrix",
    "coarse_grained_L",
    "commutant",
    "evolve",
    "export_bundle",
    "expm",
    "hermitian_eig",
    "is_psd",
    "k_t_oracle",
    "lamb_shift",
    "partial_trace_family",
    "pv_gaussian",
    "qds_certificate",
    "sector_family",
    "steady_state",
    "validate_cppnce",
]
