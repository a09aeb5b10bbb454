"""Stable-subordinator simulation and singular-integral verification toolkit.

The library samples nondecreasing stable processes exactly in distribution at
grid points, encloses the pathwise integrals of monotone kernels against them
in rigorous lower/upper brackets, and turns the closed-form moment bounds and
the finiteness threshold of those integrals into reproducible Monte Carlo
verdicts.
"""

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, GridConfig, parse_config, render_config
from .experiments import (
    BoundCheckReport,
    CdfCheckReport,
    IbpConsistencyReport,
    LaplaceCheckReport,
    MomentEstimate,
    ScalingCheckReport,
    SlopeReport,
    classify_power_kernel,
    draw_standard_samples,
    ks_distance,
    run_blowup_diagnostics,
    run_cdf_check,
    run_ibp_consistency,
    run_laplace_check,
    run_moment_checks,
    run_scaling_check,
)
from .integrals import (
    ExpKernel,
    IntegralBracket,
    SingularKernel,
    abel_identity_check,
    ibp_estimate,
    stieltjes_bracket,
)
from .reporting import (
    ResultRecord,
    comparable_record_json,
    emit_plot_data,
    record_to_json,
    run,
)
from .special import (
    FracMomentQuery,
    QuadratureError,
    frac_moment_closed_form,
    frac_moment_quadrature,
    gamma_fn,
    levy_half_cdf,
)
from .subordinator import (
    NonFiniteDrawError,
    SeedSpec,
    StableParams,
    SubordinatorPath,
    TimeGrid,
    deterministic_path,
    sample_path,
    sample_path_values,
    sample_standard_stable_batch,
)
