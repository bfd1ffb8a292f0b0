"""Spectral simulator and verification toolkit for power curvature flows.

The flow acts on a strictly positive 2*pi/lam-periodic curvature profile
k(theta, t) in the normal-angle frame,

    k_t = k^{p+1} k_thth + (p-1) k^p k_th^2 + (1/p) k^{p+2},

with integer exponent p >= 1 and lam > sqrt((p+2)/p).  The package evolves
the Galerkin truncation of the mode system, certifies the trapping cone,
measures blow-up rates and mode-decay exponents, integrates the normalized
flow, and reconstructs the underlying plane curves.
"""

from .blowup import (
    RateFit,
    TrapCertificate,
    alpha_exponent,
    beta_rate,
    certify,
    check_hypothesis,
    envelope_check,
    estimate_T,
    fit_power,
    select_c,
    trap_margin,
)
from .errors import (
    AnalysisError,
    ConfigError,
    FlowError,
    GridTooSmallError,
    IntegrationError,
    OversizeError,
    PositivityError,
    TrajectoryError,
    VersionError,
)
from .geometry import (
    CurvePolyline,
    PerturbationSpec,
    hausdorff_to_circle,
    mfold_curvature,
    radial_perturbation_curvature,
    reconstruct_curve,
)
from .normalize import (
    NormalizedSeries,
    fit_exponential,
    normalized_frame,
    normalized_series,
    tau_of_t,
)
from .rhs import h_kernel, normalized_rhs, rhs_convolution, rhs_direct, rhs_fast
from .spectral import (
    FlowParams,
    SpectralState,
    analyze_grid,
    coeff_cl_bound,
    coeff_seminorm,
    default_grid_size,
    lambda_threshold,
    synthesize,
)
from .stepping import StepControl, Trajectory, integrate, integrate_normalized, step

__version__ = "0.1.0"
