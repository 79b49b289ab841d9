"""Replicated experiments: convergence of the tensor correlation spectrum to
the Marchenko-Pastur law, the coupled correlation/covariance comparison, the
unit-sphere construction, and a self-test that exercises every module's exact
identities.

All randomness is keyed, in tensormp.sampling's namespaces, so no replica's
result depends on the replicas run before it. Replicas run serially in the
caller's thread and leave the cores to LAPACK, whose eigensolve dominates.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, fields
from operator import itemgetter

import numpy as np

from . import mp
from .checks import Check, nearest_failure, require
from .config import MAX_REPLICAS, EntryLaw, ModelKind, ModelParams, SweepPlan, make_params
from .gram import (
    SpectralDistribution,
    build_correlation_gram,
    build_normalized_level_gram,
    eigenvalues,
    esd,
    gram_buffer,
    materialize_dense,
    max_difference,
    model_spectra,
    nonzero_eigenvalues,
)
from .metrics import (
    LEVY_TOL,
    column_normalization_identity,
    empirical_moment,
    ks_distance,
    levy_distance,
    levy_distance_trace_bound,
)
from .sampling import norm_moment_check, sample_base, stream_entries, stream_uniforms

# regression bounds frozen from the first calibration run (measured mean
# times 1.5); see the acceptance suite
CONVERGENCE_KS_BOUND = 0.0034  # mean KS to the limit law at n=30, k=2, c=0.5, 5 replicas, seed 0
COMPARISON_LEVY_BOUND = 0.016  # mean coupled Levy distance at the same point, two-point tau


@dataclass(frozen=True)
class ReplicaRecord:
    """One replica of a point. Each field after params is a column of
    sweep.csv under its own name, and each after replica a measurement."""

    params: ModelParams
    replica: int
    ks_mp: float
    levy_mp: float
    levy_models: float
    m1: float
    m2: float
    m3: float
    m4_emp: float
    ms: float


# sweep.csv column -> ModelParams attribute, for the columns of a row's point
_POINT_COLUMNS = {"n": "n", "k": "k", "m": "sample_count", "N": "ambient_dim", "c": "c"}
SWEEP_COLUMNS = (*_POINT_COLUMNS, *(field.name for field in fields(ReplicaRecord)[1:]))
MEASURED_COLUMNS = SWEEP_COLUMNS[SWEEP_COLUMNS.index("replica") + 1 :]


@dataclass(frozen=True)
class PointSummary:
    """The replicas of one point: mean and standard error of each of its
    MEASURED_COLUMNS, keyed by the column."""

    params: ModelParams
    replicas: int
    mean: dict[str, float]
    se: dict[str, float]


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return float(arr.mean()) if arr.size else float("nan"), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


@dataclass(frozen=True)
class SweepResult:
    records: tuple[ReplicaRecord, ...]

    def summaries(self) -> list[PointSummary]:
        by_point: dict[ModelParams, list[ReplicaRecord]] = {}
        for record in self.records:
            by_point.setdefault(record.params, []).append(record)
        out = []
        for params, group in by_point.items():
            stats = {column: _mean_se([getattr(r, column) for r in group]) for column in MEASURED_COLUMNS}
            mean = {column: m for column, (m, _) in stats.items()}
            se = {column: s for column, (_, s) in stats.items()}
            out.append(PointSummary(params=params, replicas=len(group), mean=mean, se=se))
        return out


def _evaluate_replica(
    params: ModelParams, replica: int, *, with_comparison: bool, buffer: np.ndarray | None = None
) -> tuple[ReplicaRecord, np.ndarray, SpectralDistribution]:
    """One replica of a point: its record, and the m Gram eigenvalues (structural zeros included) and
    spectral distribution of the point's own model. Limit-law distances are taken where tau is identically 1,
    the only case where the law exists; the coupled model distance only on request, 0.0 with none taken where
    model_spectra returns one spectrum for both models (D = I). model_spectra draws and drops the sample."""
    start = time.perf_counter()
    models = tuple(ModelKind) if with_comparison else (params.model,)
    spectra, d2 = model_spectra(params, replica, models, buffer)
    eigs = spectra.pop(params.model)
    dist = esd(eigs, params.ambient_dim)
    ks_mp = levy_mp = levy_models = float("nan")
    if params.tau.is_constant_one:
        reference = mp.MPLaw.from_ratio(params.c)
        ks_mp = ks_distance(dist, reference)
        levy_mp = levy_distance(dist, reference)
    if with_comparison:
        (other,) = spectra.values()
        levy_models = 0.0 if other is eigs else levy_distance(dist, esd(other, params.ambient_dim))
        _check_levy_models(levy_models, params, d2)
    moments = [empirical_moment(dist, q) for q in (1, 2, 3, 4)]
    ms = (time.perf_counter() - start) * 1000.0
    return ReplicaRecord(params, replica, ks_mp, levy_mp, levy_models, *moments, ms), eigs, dist


def _check_levy_models(levy_models: float, params: ModelParams, d2: np.ndarray) -> float:
    """The trace bound L^4(F^{AA*}, F^{BB*}) <= (2/N^2) Tr((A-B)(A-B)*) Tr(AA* + BB*)
    (Bai and Silverstein 2010, Cor. A.42) on the coupled Levy distance: returns
    the right-hand side, and raises through tensormp.checks.require if
    levy_models breaks it, as eigenvalues does on a missed trace identity.

    The columns of A are the correlation model's tensor vectors and B = A D
    with d_a^2 = prod_l ||y_a^(l)||^2 / n, so the bound is
    (2/N^2) sum tau_a (1 - d_a)^2 sum tau_a (1 + d_a^2), at O(m) cost from
    the d^2 that model_spectra returns; a unit-modulus law has D = I by the
    law, so both sides are exactly 0. levy_models is a bisection's upper end,
    so LEVY_TOL comes off it first.
    """
    tau = params.tau.as_array()
    scaled = tau * d2
    bound = float(2.0 / params.ambient_dim**2 * np.sum((np.sqrt(tau) - np.sqrt(scaled)) ** 2) * np.sum(tau + scaled))
    excess = max(levy_models - LEVY_TOL, 0.0) ** 4
    message = f"coupled Levy distance {levy_models:.3e} breaks the trace bound: {excess:.3e} > {bound:.3e}"
    return require("levy_models_trace_bound", excess, bound, message).bound


def run_replicas(
    plan: SweepPlan, *, with_comparison: bool
) -> Iterator[tuple[ReplicaRecord, np.ndarray, SpectralDistribution]]:
    """_evaluate_replica's result for each replica of each point, in plan order. A caller that keeps only the
    records maps itemgetter(0) over it: a for target would keep a replica's spectra alive while the next runs.
    One Gram buffer, sized by gram.gram_buffer to the largest Gram, serves every replica, so a freed Gram never
    stays resident under the next."""
    buffer = gram_buffer(plan.points)
    for params in plan.points:
        for replica in range(params.replicas):
            yield _evaluate_replica(params, replica, with_comparison=with_comparison, buffer=buffer)


def _require_limit_law_point(point: ModelParams) -> None:
    """The limit law is the reference only for the correlation model with tau identically 1."""
    if not point.tau.is_constant_one:
        raise ValueError("the limit-law reference requires tau identically equal to 1")
    if point.model is not ModelKind.CORRELATION:
        raise ValueError("the limit-law reference requires the correlation model")


def run_convergence(plan: SweepPlan) -> SweepResult:
    """Correlation spectrum against the limit law; requires tau identically 1."""
    for point in plan.points:
        _require_limit_law_point(point)
    return SweepResult(tuple(map(itemgetter(0), run_replicas(plan, with_comparison=False))))


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Everything at once: limit-law distances where tau is constant, the
    coupled model comparison, and the first four spectral moments.

    Both Gram matrices of a replica are built from the same draw, mirroring
    the coupling of the two constructions; independent samples would only
    test equality of the limits, a strictly weaker statement.
    """
    return SweepResult(tuple(map(itemgetter(0), run_replicas(plan, with_comparison=True))))


@dataclass(frozen=True)
class SphereReport:
    """Per replica, in order: the entrywise deviation of the normalized-level
    Gram from the correlation Gram, and the KS distance to the limit law."""

    params: ModelParams
    gram_deviations: tuple[float, ...]
    ks_distances: tuple[float, ...]

    @property
    def max_gram_deviation(self) -> float:
        return float(np.max(self.gram_deviations))  # np.max, unlike max(), propagates a NaN

    def ks_stats(self) -> tuple[float, float]:
        return _mean_se(self.ks_distances)


def run_sphere_model(params: ModelParams) -> SphereReport:
    """The unit-sphere model: Gaussian base vectors rescaled to unit length
    level by level, which is exactly the correlation construction.

    Each replica verifies the normalized-level Gram against the correlation
    Gram entrywise and records the KS distance of its spectrum to the limit
    law, so it takes the points run_convergence takes: the correlation model
    with tau identically 1. Sphere replica r draws under the replica index
    2^20 + r (``config.MAX_REPLICAS`` + r), past every sweep replica.
    """
    if params.entry_law is not EntryLaw.COMPLEX_GAUSSIAN:
        raise ValueError("the unit-sphere construction requires the complex Gaussian law")
    _require_limit_law_point(params)

    law = mp.MPLaw.from_ratio(params.c)
    deviations, distances = [], []
    for replica in range(params.replicas):
        sample = sample_base(params, MAX_REPLICAS + replica)
        # solve one Gram before the other is built; drop both before the next replica
        normalized = build_normalized_level_gram(sample)
        distances.append(ks_distance(esd(eigenvalues(normalized), params.ambient_dim), law))
        deviations.append(max_difference(normalized, build_correlation_gram(sample)))
        del normalized
    return SphereReport(params=params, gram_deviations=tuple(deviations), ks_distances=tuple(distances))


def sweep_rows(result: SweepResult, *, timings: bool = False) -> list[dict]:
    """One dict per record, keyed by SWEEP_COLUMNS in order: the content of
    sweep.csv and sweep.json alike.

    Wall-clock milliseconds are inherently nondeterministic, so the ms column
    is written as 0 unless timings are explicitly requested; the default
    output is byte-identical across runs.
    """
    rows = []
    for record in result.records:
        row = {column: getattr(record.params, name) for column, name in _POINT_COLUMNS.items()}
        row.update((column, getattr(record, column)) for column in SWEEP_COLUMNS[len(_POINT_COLUMNS) :])
        if not timings:
            row["ms"] = 0.0
        rows.append(row)
    return rows


def _check_gram_oracle(seed: int) -> Check:
    gaps = []
    for n, k, m in [(2, 1, 3), (2, 2, 2), (3, 2, 4), (2, 3, 5), (3, 1, 1)]:
        dim = n**k
        params = make_params(n, k, m / dim, seed=seed)
        sample = sample_base(params, 0)
        for model in ModelKind:  # through model_spectra, the path every sweep runs: it draws this sample again
            dense_nonzero = np.sort(nonzero_eigenvalues(eigenvalues(materialize_dense(sample, model))))
            gram_nonzero = np.sort(nonzero_eigenvalues(model_spectra(params, 0, (model,))[0][model]))
            if len(dense_nonzero) != len(gram_nonzero):
                gaps.append(1.0)  # a rank mismatch fails the row
                continue
            gaps.append(float(np.max(np.abs(dense_nonzero - gram_nonzero), initial=0.0)))
    return nearest_failure("gram_oracle_equivalence", gaps, 1e-9)


def _check_trace_identity(seed: int) -> Check:
    gaps = []
    cases = [
        make_params(6, 2, 0.5, seed=seed),
        make_params(5, 2, 0.8, tau={"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}, seed=seed),
        make_params(8, 1, 0.75, entry_law="rademacher", seed=seed),
    ]
    for params in cases:
        sample = sample_base(params, 0)
        eigs = eigenvalues(build_correlation_gram(sample))
        target = float(np.sum(params.tau.as_array()))
        gaps.append(abs(float(np.sum(eigs)) - target) / target)
    return nearest_failure("correlation_trace_identity", gaps, 1e-9)


def _check_unit_modulus_collapse(seed: int) -> Check:
    # why a unit-modulus law may share its correlation Gram as the covariance Gram
    gaps = []
    for law in ("rademacher", "unit_circle"):
        params = make_params(6, 2, 0.25, entry_law=law, seed=seed)
        sample = sample_base(params, 0)
        gaps.append(max_difference(*(materialize_dense(sample, model) for model in ModelKind)))
        ratio = np.prod(sample.level_norms / params.n, axis=1)
        gaps.append(float(np.max(np.abs(ratio - 1.0))))
    return nearest_failure("unit_modulus_collapse", gaps, 1e-12)


def _check_column_identity(seed: int) -> Check:
    # trial t reads uniforms (n, p, then the weights) under key (1, 0, t, 0),
    # and the re/im planes of an 8 x 8 normal matrix under (1, 0, t, 1)
    uniforms = stream_uniforms(seed, 1, 100, range(1), 10)[:, 0]
    normals = stream_entries(EntryLaw.REAL_GAUSSIAN, seed, 1, 100, range(1, 2), 128).reshape(100, 2, 8, 8)
    gaps = []
    for u, z in zip(uniforms, normals):
        n, p = 2 + int(7 * u[0]), 1 + int(8 * u[1])  # in [2, 9) and [1, 9)
        a = z[0, :n, :p] + 1j * z[1, :n, :p]
        w = u[2 : 2 + p] + 0.1
        lhs, rhs = column_normalization_identity(a, w)
        gaps.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    return nearest_failure("column_normalization_identity", gaps, 1e-10)


def _check_levy_bound(seed: int) -> Check:
    # trial t reads the re/im planes of two 5 x 8 matrices under key (2, 0, t, 0)
    normals = stream_entries(EntryLaw.REAL_GAUSSIAN, seed, 2, 100, range(1), 160).reshape(100, 4, 5, 8)
    gaps, bounds = [], []
    for z in normals:
        lhs, rhs = levy_distance_trace_bound(z[0] + 1j * z[1], z[2] + 1j * z[3])
        gaps.append(lhs)
        bounds.append(rhs + 1e-12)
    return nearest_failure("levy_trace_bound", gaps, bounds)


def _random_esd(u: np.ndarray) -> SpectralDistribution:
    """The ESD of 1-11 atoms on [0, 3) among 0-3 more zeros, from 13 uniforms."""
    count = 1 + int(11 * u[0])
    return esd(np.sort(u[2 : 2 + count] * 3.0), count + int(4 * u[1]))


def _check_levy_ks_domination(seed: int) -> Check:
    # trial t reads its two distributions' uniforms under keys (3, 0, t, 0) and (3, 0, t, 1)
    gaps, bounds = [], []
    for u in stream_uniforms(seed, 3, 50, range(2), 13):
        fa, fb = _random_esd(u[0]), _random_esd(u[1])
        gaps.append(levy_distance(fa, fb))
        bounds.append(ks_distance(fa, fb) + 1e-9)
    return nearest_failure("levy_ks_domination", gaps, bounds)


def _check_norm_moments(seed: int) -> Check:
    params = make_params(10, 2, 0.2, seed=seed)
    bands = norm_moment_check(params, 2000).bands
    return nearest_failure("tensor_norm_moments", [c.gap for c in bands], [c.bound for c in bands])


def _check_mp_normalization(_: int) -> Check:
    gaps = []
    for c in (0.1, 0.25, 0.5, 0.9, 1.0):
        law = mp.MPLaw.from_ratio(c)
        gaps.append(abs(law.atom_mass + mp.density_mass(law) - 1.0))
        gaps.append(abs(mp.moment(law, 1) - c))
    return nearest_failure("mp_normalization", gaps, 1e-8)


def _check_mp_cdf_monotone(_: int) -> Check:
    law = mp.MPLaw.from_ratio(0.5)
    xs = np.linspace(-0.5, law.lambda_plus + 0.5, 10_000)
    values = mp.cdf(law, xs)
    # the largest decrease: x - y of equal values is +0, where -(y - x) would be -0
    gaps = [np.max(values[:-1] - values[1:], initial=0.0), abs(float(values[-1]) - 1.0)]
    return nearest_failure("mp_cdf_monotone", gaps, 1e-8)


def _check_entry_laws(seed: int) -> Check:
    # 1000 draws under each of the 1000 keys (4, 0, row, law index) of a law;
    # a unit-modulus law's |xi|^2 is 1 by the law, which unit_modulus_collapse
    # pins, so only the Gaussian laws' second moments are Monte Carlo bands
    trials = 1_000_000
    gaps, bounds = [], []
    for index, law in enumerate(EntryLaw):
        draws = stream_entries(law, seed, 4, 1000, range(index, index + 1), 1000).reshape(-1)
        se_mean = max(float(np.std(draws.real, ddof=1)), float(np.std(draws.imag, ddof=1))) / np.sqrt(trials)
        gaps.append(abs(np.mean(draws)))
        bounds.append(4.0 * se_mean + 1e-12)
        if not law.unit_modulus:
            sq = np.abs(draws) ** 2
            se_sq = float(np.std(sq, ddof=1)) / np.sqrt(trials)
            gaps.append(abs(float(np.mean(sq)) - 1.0))
            bounds.append(4.0 * se_sq + 1e-12)
    return nearest_failure("entry_law_moments", gaps, bounds)


def _check_esd_counting(_: int) -> Check:
    dist = esd(np.array([0.9, 0.9, 1.2]), 4)
    gaps = [
        abs(float(dist.evaluate(0.0)) - 0.25),
        abs(float(dist.evaluate(1.0)) - 0.75),
        abs(float(dist.evaluate(1.2)) - 1.0),
        abs(dist.zero_mass + len(dist.atoms) / dist.ambient_dim - 1.0),
    ]
    return nearest_failure("esd_counting", gaps, 0.0)


_SELFTEST_CHECKS = (
    _check_gram_oracle,
    _check_trace_identity,
    _check_unit_modulus_collapse,
    _check_column_identity,
    _check_levy_bound,
    _check_levy_ks_domination,
    _check_norm_moments,
    _check_mp_normalization,
    _check_mp_cdf_monotone,
    _check_entry_laws,
    _check_esd_counting,
)


def selftest(seed: int = 0) -> tuple[Check, ...]:
    """Run every module's invariant suite: one Check row per check."""
    return tuple(check(seed) for check in _SELFTEST_CHECKS)
