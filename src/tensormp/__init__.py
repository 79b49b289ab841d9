"""Desk-scale laboratory for the spectra of sample correlation and covariance
matrices built from k-fold tensor products of random vectors."""

from .config import (
    EntryLaw,
    ModelKind,
    ModelParams,
    SweepPlan,
    TauScheme,
    make_params,
    make_tau,
    params_from_json,
    params_to_json,
    sweep_plan_from_json,
)
from .sampling import BaseSample, MomentReport, norm_moment_check, sample_base
from .gram import (
    SpectralDistribution,
    build_correlation_gram,
    build_normalized_level_gram,
    eigenvalues,
    esd,
    materialize_dense,
    model_spectra,
    nonzero_eigenvalues,
    tensor_vector,
)
from .mp import MPLaw, cdf, density, density_mass, moment
from .metrics import (
    column_normalization_identity,
    empirical_moment,
    ks_distance,
    levy_distance,
    levy_distance_trace_bound,
)
from .experiments import SweepResult, run_convergence, run_sphere_model, run_sweep, selftest

__version__ = "0.1.0"
