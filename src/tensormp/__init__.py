"""Desk-scale laboratory for the spectra of sample correlation and covariance
matrices built from k-fold tensor products of random vectors."""

from .config import (
    EntryLaw,
    EntryLawKind,
    ModelKind,
    ModelParams,
    TauKind,
    TauScheme,
    constant_tau,
    entry_law,
    explicit_tau,
    make_params,
    make_tau,
    params_from_json,
    params_to_json,
    two_point_tau,
)
from .sampling import (
    BaseSample,
    DegenerateSampleError,
    MomentReport,
    norm_moment_check,
    norm_profile,
    sample_base,
)
from .gram import (
    GramMatrix,
    SpectralDistribution,
    build_correlation_gram,
    build_covariance_gram,
    build_normalized_level_gram,
    eigenvalues,
    esd,
    materialize_dense,
    nonzero_eigenvalues,
    tensor_vector,
)
from .mp import MPLaw, cdf, density, density_mass, moment
from .metrics import (
    EmpiricalCDF,
    column_normalization_identity,
    empirical_moment,
    ks_distance,
    levy_distance,
    levy_distance_trace_bound,
)
from .experiments import (
    FixedK,
    PowerK,
    SweepPlan,
    SweepResult,
    make_sweep_plan,
    run_convergence,
    run_model_comparison,
    run_sphere_model,
    run_sweep,
    selftest,
    sweep_plan_from_json,
)

__version__ = "0.1.0"
