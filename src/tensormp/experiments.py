"""Replicated experiments: convergence of the tensor correlation spectrum to
the Marchenko-Pastur law, the coupled correlation/covariance comparison, the
unit-sphere construction, and a self-test that exercises every module's exact
identities.

All randomness is keyed by (seed, replica, sample, level), so no replica's
result depends on the replicas run before it. Replicas run serially in the
caller's thread and leave the cores to LAPACK, whose eigensolve dominates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import mp
from .config import EntryLawKind, ModelKind, ModelParams, entry_law, make_params, params_from_json
from .gram import (
    _covariance_from_correlation,
    build_correlation_gram,
    build_covariance_gram,
    build_normalized_level_gram,
    eigenvalues,
    esd,
    materialize_dense,
    nonzero_eigenvalues,
)
from .metrics import (
    EmpiricalCDF,
    column_normalization_identity,
    empirical_moment,
    ks_distance,
    levy_distance,
    levy_distance_trace_bound,
)
from .sampling import norm_moment_check, norm_profile, sample_base

# regression bounds frozen from the first calibration run (measured mean
# times 1.5); see the acceptance suite
CONVERGENCE_KS_BOUND = 0.0034  # mean KS to the limit law at n=30, k=2, c=0.5, 5 replicas, seed 0
COMPARISON_LEVY_BOUND = 0.016  # mean coupled Levy distance at the same point, two-point tau

_SPHERE_STREAM_OFFSET = 1 << 20  # replica namespace for the unit-sphere runs

SWEEP_COLUMNS = ("n", "k", "m", "N", "c", "replica", "ks_mp", "levy_mp", "levy_models", "m1", "m2", "m3", "m4_emp", "ms")


@dataclass(frozen=True)
class FixedK:
    k: int


@dataclass(frozen=True)
class PowerK:
    """k = ceil(n^gamma) with gamma in (0, 1), so k/n -> 0 along a sweep."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")


def schedule_k(schedule, n: int) -> int:
    if isinstance(schedule, FixedK):
        return schedule.k
    if isinstance(schedule, PowerK):
        return max(1, math.ceil(n**schedule.gamma))
    raise TypeError(f"unknown k schedule {schedule!r}")


@dataclass(frozen=True)
class SweepPlan:
    points: tuple[ModelParams, ...]
    replicas: int
    out_dir: str | None = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if not self.points:
            raise ValueError("a sweep needs at least one point")
        # every point runs plan.replicas replicas; a point's own replicas field is ignored
        if len({replace(p, replicas=1) for p in self.points}) != len(self.points):
            raise ValueError("a sweep lists the same point twice; its replicas would repeat the same draws")


def make_sweep_plan(
    ns,
    *,
    c: float,
    k_schedule=FixedK(2),
    model: ModelKind | str = ModelKind.CORRELATION,
    entry_law_kind: EntryLawKind | str = EntryLawKind.COMPLEX_GAUSSIAN,
    tau="constant_one",
    seed: int = 0,
    replicas: int = 5,
    out_dir: str | None = None,
) -> SweepPlan:
    points = tuple(
        make_params(
            n=n,
            k=schedule_k(k_schedule, n),
            c=c,
            model=model,
            entry_law_kind=entry_law_kind,
            tau=tau,
            seed=seed,
            replicas=replicas,
        )
        for n in ns
    )
    return SweepPlan(points=points, replicas=replicas, out_dir=out_dir)


def _k_schedule_from_json(doc) -> FixedK | PowerK:
    if doc is None:
        return FixedK(2)
    if doc.get("kind") == "power":
        return PowerK(float(doc["gamma"]))
    if doc.get("kind") == "fixed":
        return FixedK(int(doc["k"]))
    raise ValueError(f"unknown k_schedule {doc!r}")


def sweep_plan_from_json(doc: dict) -> SweepPlan:
    """Either an explicit {"points": [config, ...]} list or the grid shorthand
    {"ns": [...], "c": .., "k_schedule": {...}, ...}.

    Every point runs the plan's "replicas" (default 5); a point that sets a
    different "replicas" of its own raises ValueError.
    """
    replicas = int(doc.get("replicas", 5))
    out_dir = doc.get("out")
    if "points" in doc:
        points = []
        for index, point in enumerate(doc["points"]):
            if int(point.get("replicas", replicas)) != replicas:
                raise ValueError(f"point {index} sets replicas={point['replicas']}, but the plan runs {replicas}")
            points.append(params_from_json({**point, "replicas": replicas}))
        return SweepPlan(points=tuple(points), replicas=replicas, out_dir=out_dir)
    return make_sweep_plan(
        [int(n) for n in doc["ns"]],
        c=float(doc["c"]),
        k_schedule=_k_schedule_from_json(doc.get("k_schedule")),
        model=doc.get("model", "correlation"),
        entry_law_kind=doc.get("entry_law", "complex_gaussian"),
        tau=doc.get("tau", "constant_one"),
        seed=int(doc.get("seed", 0)),
        replicas=replicas,
        out_dir=out_dir,
    )


@dataclass(frozen=True)
class ReplicaRecord:
    params: ModelParams
    replica: int
    ks_mp: float
    levy_mp: float
    levy_models: float
    moments: tuple[float, float, float, float]
    ms: float


@dataclass(frozen=True)
class PointSummary:
    params: ModelParams
    replicas: int
    ks_mp_mean: float
    ks_mp_se: float
    levy_mp_mean: float
    levy_mp_se: float
    levy_models_mean: float
    levy_models_se: float
    moment_means: tuple[float, float, float, float]
    moment_ses: tuple[float, float, float, float]


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
            ks_mean, ks_se = _mean_se([r.ks_mp for r in group])
            levy_mean, levy_se = _mean_se([r.levy_mp for r in group])
            models_mean, models_se = _mean_se([r.levy_models for r in group])
            moment_stats = [_mean_se([r.moments[i] for r in group]) for i in range(4)]
            out.append(
                PointSummary(
                    params=params,
                    replicas=len(group),
                    ks_mp_mean=ks_mean,
                    ks_mp_se=ks_se,
                    levy_mp_mean=levy_mean,
                    levy_mp_se=levy_se,
                    levy_models_mean=models_mean,
                    levy_models_se=models_se,
                    moment_means=tuple(s[0] for s in moment_stats),
                    moment_ses=tuple(s[1] for s in moment_stats),
                )
            )
        return out


def _evaluate_replica(params: ModelParams, replica: int, *, with_mp: bool, with_comparison: bool) -> ReplicaRecord:
    start = time.perf_counter()
    sample = sample_base(params, replica)
    corr = build_correlation_gram(sample, params.tau)
    cov = _covariance_from_correlation(corr, sample)
    primary, secondary = (corr, cov) if params.model is ModelKind.CORRELATION else (cov, corr)
    primary_dist = esd(eigenvalues(primary), params.ambient_dim)
    primary_cdf = EmpiricalCDF.from_spectral(primary_dist)
    ks_mp = levy_mp = levy_models = float("nan")
    if with_mp and params.tau.is_constant_one:
        reference = mp.MPLaw.from_ratio(params.c)
        ks_mp = ks_distance(primary_cdf, reference)
        levy_mp = levy_distance(primary_cdf, reference)
    if with_comparison:
        if secondary.entries is primary.entries:  # unit-modulus laws: one matrix, one solve
            secondary_cdf = primary_cdf
        else:
            secondary_cdf = EmpiricalCDF.from_spectral(esd(eigenvalues(secondary), params.ambient_dim))
        levy_models = levy_distance(primary_cdf, secondary_cdf)
    moments = tuple(empirical_moment(primary_dist, q) for q in (1, 2, 3, 4))
    ms = (time.perf_counter() - start) * 1000.0
    return ReplicaRecord(
        params=params,
        replica=replica,
        ks_mp=ks_mp,
        levy_mp=levy_mp,
        levy_models=levy_models,
        moments=moments,
        ms=ms,
    )


def _run(plan: SweepPlan, *, with_mp: bool, with_comparison: bool) -> SweepResult:
    return SweepResult(
        records=tuple(
            _evaluate_replica(params, replica, with_mp=with_mp, with_comparison=with_comparison)
            for params in plan.points
            for replica in range(plan.replicas)
        )
    )


def run_convergence(plan: SweepPlan) -> SweepResult:
    """Correlation spectrum against the limit law; requires tau identically 1."""
    for point in plan.points:
        if not point.tau.is_constant_one:
            raise ValueError("the limit-law reference requires tau identically equal to 1")
        if point.model is not ModelKind.CORRELATION:
            raise ValueError("convergence sweeps evaluate the correlation model")
    return _run(plan, with_mp=True, with_comparison=False)


def run_model_comparison(plan: SweepPlan) -> SweepResult:
    """Coupled correlation/covariance distance from a shared base sample.

    Both Gram matrices are built from the same draw, mirroring the coupling
    of the two constructions; independent samples would only test equality of
    the limits, a strictly weaker statement.
    """
    return _run(plan, with_mp=False, with_comparison=True)


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Everything at once: limit-law distances where tau is constant, the
    coupled model comparison, and the first four spectral moments."""
    return _run(plan, with_mp=True, with_comparison=True)


@dataclass(frozen=True)
class SphereReplica:
    replica: int
    gram_deviation: float
    ks_mp: float


@dataclass(frozen=True)
class SphereReport:
    params: ModelParams
    records: tuple[SphereReplica, ...]

    @property
    def max_gram_deviation(self) -> float:
        return max(r.gram_deviation for r in self.records)

    def ks_stats(self) -> tuple[float, float]:
        return _mean_se([r.ks_mp for r in self.records])


def run_sphere_model(params: ModelParams) -> SphereReport:
    """The unit-sphere model: Gaussian base vectors rescaled to unit length
    level by level, which is exactly the correlation construction.

    Each replica verifies the normalized-level Gram against the correlation
    Gram entrywise and records the KS distance of its spectrum to the limit
    law. Replica streams live in a namespace disjoint from the convergence
    sweeps, so the comparison of the two experiments is statistically
    independent.
    """
    if params.entry_law.kind is not EntryLawKind.COMPLEX_GAUSSIAN:
        raise ValueError("the unit-sphere construction requires the complex Gaussian law")

    law = mp.MPLaw.from_ratio(params.c)
    records = []
    for replica in range(params.replicas):
        sample = sample_base(params, replica + _SPHERE_STREAM_OFFSET)
        normalized = build_normalized_level_gram(sample, params.tau)
        correlation = build_correlation_gram(sample, params.tau)
        deviation = float(np.max(np.abs(normalized.entries - correlation.entries)))
        dist = esd(eigenvalues(normalized), params.ambient_dim)
        ks = ks_distance(EmpiricalCDF.from_spectral(dist), law)
        records.append(SphereReplica(replica=replica, gram_deviation=deviation, ks_mp=ks))
    return SphereReport(params=params, records=tuple(records))


def sweep_rows(result: SweepResult, *, timings: bool = False) -> list[dict]:
    """One dict per record, keyed by SWEEP_COLUMNS in order: the content of
    sweep.csv and sweep.json alike.

    Wall-clock milliseconds are inherently nondeterministic, so the ms column
    is written as 0 unless timings are explicitly requested; the default
    output is byte-identical across runs.
    """
    rows = []
    for record in result.records:
        p = record.params
        values = (
            p.n,
            p.k,
            p.sample_count,
            p.ambient_dim,
            p.c,
            record.replica,
            record.ks_mp,
            record.levy_mp,
            record.levy_models,
            *record.moments,
            record.ms if timings else 0.0,
        )
        rows.append(dict(zip(SWEEP_COLUMNS, values, strict=True)))
    return rows


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class SelfTestReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'check':<{width}}  status  max-residual"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{c.name:<{width}}  {status:<6}  {c.residual:.3e}")
        return "\n".join(lines)


def _check_gram_oracle(seed: int) -> CheckResult:
    worst = 0.0
    ok = True
    for n, k, m in [(2, 1, 3), (2, 2, 2), (3, 2, 4), (2, 3, 5), (3, 1, 1)]:
        dim = n**k
        params = make_params(n, k, m / dim, seed=seed)
        sample = sample_base(params, 0)
        for model, builder in (
            (ModelKind.CORRELATION, build_correlation_gram),
            (ModelKind.COVARIANCE, build_covariance_gram),
        ):
            dense = materialize_dense(sample, params.tau, model)
            dense_nonzero = np.sort(nonzero_eigenvalues(eigenvalues(dense)))
            gram_nonzero = np.sort(nonzero_eigenvalues(eigenvalues(builder(sample, params.tau))))
            if len(dense_nonzero) != len(gram_nonzero):
                ok = False
                worst = max(worst, 1.0)
                continue
            worst = max(worst, float(np.max(np.abs(dense_nonzero - gram_nonzero))) if len(dense_nonzero) else 0.0)
    return CheckResult("gram_oracle_equivalence", ok and worst <= 1e-9, worst)


def _check_trace_identity(seed: int) -> CheckResult:
    worst = 0.0
    cases = [
        make_params(6, 2, 0.5, seed=seed),
        make_params(5, 2, 0.8, tau={"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}, seed=seed),
        make_params(8, 1, 0.75, entry_law_kind="rademacher", seed=seed),
    ]
    for params in cases:
        sample = sample_base(params, 0)
        eigs = eigenvalues(build_correlation_gram(sample, params.tau))
        target = float(np.sum(params.tau.as_array()))
        worst = max(worst, abs(float(np.sum(eigs)) - target) / target)
    return CheckResult("correlation_trace_identity", worst <= 1e-9, worst)


def _check_unit_modulus_collapse(seed: int) -> CheckResult:
    # why a unit-modulus law may share its correlation Gram as the covariance Gram
    worst = 0.0
    for law in ("rademacher", "unit_circle"):
        params = make_params(6, 2, 0.25, entry_law_kind=law, seed=seed)
        sample = sample_base(params, 0)
        corr = materialize_dense(sample, params.tau, ModelKind.CORRELATION)
        cov = materialize_dense(sample, params.tau, ModelKind.COVARIANCE)
        worst = max(worst, float(np.max(np.abs(corr - cov))))
        ratio = np.prod(norm_profile(sample) / params.n, axis=1)
        worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
    return CheckResult("unit_modulus_collapse", worst <= 1e-12, worst)


def _check_column_identity(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        a = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        w = rng.random(p) + 0.1
        lhs, rhs = column_normalization_identity(a, w)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return CheckResult("column_normalization_identity", worst <= 1e-10, worst)


def _check_levy_bound(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(2,))))
    worst = -np.inf
    for _ in range(100):
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        b = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        lhs, rhs = levy_distance_trace_bound(a, b)
        worst = max(worst, lhs - rhs)
    return CheckResult("levy_trace_bound", worst <= 1e-12, worst)


def _check_levy_ks_domination(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(3,))))
    worst = -np.inf
    for _ in range(50):
        na, nb = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        fa = EmpiricalCDF.from_spectral(esd(np.sort(rng.random(na) * 3.0), na + int(rng.integers(0, 4))))
        fb = EmpiricalCDF.from_spectral(esd(np.sort(rng.random(nb) * 3.0), nb + int(rng.integers(0, 4))))
        worst = max(worst, levy_distance(fa, fb) - ks_distance(fa, fb))
    return CheckResult("levy_ks_domination", worst <= 1e-9, worst)


def _check_norm_moments(seed: int) -> CheckResult:
    params = make_params(10, 2, 0.2, seed=seed)
    report = norm_moment_check(params, 2000)
    residual = max(
        abs(report.sq_mean - report.sq_target),
        abs(report.quartic_mean - report.quartic_target),
    )
    return CheckResult("tensor_norm_moments", report.passed, residual)


def _check_mp_normalization(_: int) -> CheckResult:
    worst = 0.0
    for c in (0.1, 0.25, 0.5, 0.9, 1.0):
        law = mp.MPLaw.from_ratio(c)
        worst = max(worst, abs(law.atom_mass + mp.density_mass(law) - 1.0))
        worst = max(worst, abs(mp.moment(law, 1) - c))
    return CheckResult("mp_normalization", worst <= 1e-8, worst)


def _check_mp_cdf_monotone(_: int) -> CheckResult:
    law = mp.MPLaw.from_ratio(0.5)
    xs = np.linspace(-0.5, law.lambda_plus + 0.5, 10_000)
    values = mp.cdf(law, xs)
    worst = max(float(np.max(-np.diff(values), initial=0.0)), abs(float(values[-1]) - 1.0))
    return CheckResult("mp_cdf_monotone", worst <= 1e-8, worst)


def _check_entry_laws(seed: int) -> CheckResult:
    from .sampling import _draw, _stream

    worst = 0.0
    trials = 1_000_000
    for index, kind in enumerate(EntryLawKind):
        law = entry_law(kind)
        draws = _draw(law, _stream(seed, 4, index), trials)
        mean = np.mean(draws)
        se_mean = max(float(np.std(draws.real, ddof=1)), float(np.std(draws.imag, ddof=1))) / np.sqrt(trials)
        sq = np.abs(draws) ** 2
        se_sq = float(np.std(sq, ddof=1)) / np.sqrt(trials)
        worst = max(worst, max(0.0, abs(mean) - 4.0 * se_mean - 1e-12))
        worst = max(worst, max(0.0, abs(float(np.mean(sq)) - 1.0) - 4.0 * se_sq - 1e-12))
    return CheckResult("entry_law_moments", worst <= 0.0, worst)


def _check_esd_counting(_: int) -> CheckResult:
    dist = esd(np.array([0.9, 0.9, 1.2]), 4)
    f = EmpiricalCDF.from_spectral(dist)
    worst = max(
        abs(float(f.evaluate(0.0)) - 0.25),
        abs(float(f.evaluate(1.0)) - 0.75),
        abs(float(f.evaluate(1.2)) - 1.0),
        abs(dist.zero_mass + len(dist.atoms) / dist.ambient_dim - 1.0),
    )
    return CheckResult("esd_counting", worst == 0.0, worst)


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


def selftest(seed: int = 0) -> SelfTestReport:
    """Run every module's invariant suite and collect one row per check."""
    return SelfTestReport(checks=tuple(check(seed) for check in _SELFTEST_CHECKS))
