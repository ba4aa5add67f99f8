"""Structured matrix pencil analysis.

Pencils whose coefficients split into a skew-Hermitian part and a PSD
Hermitian part: canonical structure extraction, dissipative-Hamiltonian
equivalence and realization, numerical-range localization, half-plane
stability certificates, and linearizations of matrix polynomials with
PSD coefficients.
"""

__version__ = "0.1.0"

from .core import (
    EPS,
    DhPencil,
    Pencil,
    PoshPencil,
    hermitian_part,
    is_positive_definite,
    posh_from_parts,
    psd_spectrum,
    skew_part,
    spectral_norm,
    validate_posh,
)
from .dh import (
    GENERAL_Q,
    Q_IDENTITY,
    DhVerdict,
    check_dh_equivalence,
    realize_dh,
)
from .errors import (
    DimensionError,
    InputFormatError,
    PencilLabError,
    PoshValidationError,
    PreconditionError,
    RankAmbiguityError,
    SingularPencilError,
)
from .kcf import (
    KroneckerStructure,
    kronecker_structure,
    structures_match,
)
from .localization import (
    LhpCertificate,
    eejjx_by_kronecker,
    eejjx_by_norms,
    eejjx_by_spectral,
    eejjx_falsify,
    lhp_certificate,
    regularity_conditions_report,
    sector_membership,
)
from .matpoly import (
    CubicStabilityReport,
    MatrixPolynomial,
    cubic_stability,
    linearize_cubic,
    linearize_even,
    linearize_odd,
    mgt_polynomial,
    mgt_stability,
    polynomial_index,
    psd_validated,
    sample_rayleigh_roots,
)
from .numrange import (
    BetaThresholds,
    NocommonChainReport,
    NumRangeSample,
    PacmanRegion,
    beta_thresholds,
    beta_thresholds_scaled,
    definiteness_threshold,
    nocommon_chain_report,
    pacman_excludes,
    rayleigh_point,
    sample_numerical_range,
)

__all__ = [
    "__version__",
    "EPS",
    "DhPencil",
    "Pencil",
    "PoshPencil",
    "hermitian_part",
    "is_positive_definite",
    "posh_from_parts",
    "psd_spectrum",
    "skew_part",
    "spectral_norm",
    "validate_posh",
    "GENERAL_Q",
    "Q_IDENTITY",
    "DhVerdict",
    "check_dh_equivalence",
    "realize_dh",
    "DimensionError",
    "InputFormatError",
    "PencilLabError",
    "PoshValidationError",
    "PreconditionError",
    "RankAmbiguityError",
    "SingularPencilError",
    "KroneckerStructure",
    "kronecker_structure",
    "structures_match",
    "LhpCertificate",
    "eejjx_by_kronecker",
    "eejjx_by_norms",
    "eejjx_by_spectral",
    "eejjx_falsify",
    "lhp_certificate",
    "regularity_conditions_report",
    "sector_membership",
    "CubicStabilityReport",
    "MatrixPolynomial",
    "cubic_stability",
    "linearize_cubic",
    "linearize_even",
    "linearize_odd",
    "mgt_polynomial",
    "mgt_stability",
    "polynomial_index",
    "psd_validated",
    "sample_rayleigh_roots",
    "BetaThresholds",
    "NocommonChainReport",
    "NumRangeSample",
    "PacmanRegion",
    "beta_thresholds",
    "beta_thresholds_scaled",
    "definiteness_threshold",
    "nocommon_chain_report",
    "pacman_excludes",
    "rayleigh_point",
    "sample_numerical_range",
]
