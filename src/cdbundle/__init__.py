"""Curvature invariants of Hermitian holomorphic bundles on the unit disc.

The package computes, for reproducing-kernel bundles over the disc:
coefficient-level curvature invariants via truncated series and kernel
normalization, an independent oracle for the same quantities (Cauchy-integral
jets of the closed-form kernel), structured deciders for (simultaneous)
unitary equivalence of
the invariants, and the inverse problem of realizing a prescribed
curvature diagonal inside the homogeneous kernel family.
"""

from .equivalence import (
    EquivalenceReport,
    Verdict,
    full_report,
    simultaneous_pair_equiv,
    zzbar_distinguishes,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    DiscDomainError,
    MetricDegeneracyError,
    SingularLeadingTermError,
    TruncationOrderError,
    UnsupportedShapeError,
    WitnessVerificationError,
)
from .feasibility import (
    FeasibilityResult,
    PermutationAnalysis,
    check_region,
    permutation_analysis,
    rank2_feasibility,
    roundtrip_check,
    solve_triple,
)
from .invariants import (
    PointInvariants,
    covd_zbar_n_at_zero,
    homogeneous_invariants_closed,
    invariants_at_zero,
    normalize,
    transport_eigenvalues,
)
from .kernels import (
    BergmanPower,
    DirectSum,
    Homogeneous,
    Jet,
    KernelSpec,
    Permuted,
    kernel_taylor,
    spec_from_dict,
    spec_to_dict,
)
from .oracle import (
    covd_zbar_fd,
    covd_zzbar_fd,
    curvature_eigenvalues_fd,
    curvature_fd,
    oracle_invariants_at_zero,
    to_orthonormal_frame,
)
from .series import MatrixPowerSeries2

__version__ = "0.1.0"
