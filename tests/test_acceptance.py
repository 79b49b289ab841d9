"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The asymptotic statements are checked through their desk-scale surrogates:
exact identities hold at solver precision, oracle equivalences at 1e-9, and
Monte Carlo trends against regression thresholds frozen from the first
calibration run (seed 0).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tensormp import mp
from tensormp.config import ModelKind, make_params, sweep_plan_from_json
from tensormp.experiments import (
    COMPARISON_LEVY_BOUND,
    CONVERGENCE_KS_BOUND,
    run_convergence,
    run_sphere_model,
    run_sweep,
)
from tensormp.gram import (
    build_correlation_gram,
    eigenvalues,
    materialize_dense,
    model_spectra,
    nonzero_eigenvalues,
)
from tensormp.metrics import column_normalization_identity, levy_distance_trace_bound
from tensormp.sampling import norm_moment_check, sample_base


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def convergence():
    plan = sweep_plan_from_json({"ns": [10, 20, 30], "c": 0.5, "seed": 0, "replicas": 5})
    start = time.perf_counter()
    result = run_convergence(plan)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_gram_dense_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in (2, 3):
        for k in (1, 2, 3):
            dim = n**k
            for m in range(1, 6):
                for model in ModelKind:
                    for seed in (0, 1, 2):
                        params = make_params(n, k, m / dim, seed=seed)
                        sample = sample_base(params, 0)
                        dense = np.sort(nonzero_eigenvalues(eigenvalues(materialize_dense(sample, model))))
                        gram = np.sort(nonzero_eigenvalues(model_spectra(params, 0, (model,))[0][model]))
                        assert len(dense) == len(gram), (n, k, m, model, seed)
                        if len(dense):
                            worst = max(worst, float(np.max(np.abs(dense - gram))))
                        cases += 1
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"{cases} cases, worst nonzero-spectrum deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_trace_identity():
    worst = 0.0
    cases = [
        make_params(6, 2, 0.5, seed=0),
        make_params(5, 2, 0.8, tau={"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}, seed=0),
        make_params(8, 1, 0.75, entry_law="rademacher", seed=0),
        make_params(4, 3, 0.4, tau={"kind": "two_point", "a": 0.5, "b": 3.0, "weight": 0.3}, seed=1),
        make_params(10, 2, 0.3, entry_law="real_gaussian", seed=2),
    ]
    for params in cases:
        sample = sample_base(params, 0)
        total = float(np.sum(eigenvalues(build_correlation_gram(sample))))
        target = float(np.sum(params.tau.as_array()))
        worst = max(worst, abs(total - target) / target)
    _criterion(2, worst <= 1e-9, f"max relative trace deviation {worst:.3e} over {len(cases)} samples")


def test_criterion_03_column_normalization_identity():
    rng = np.random.Generator(np.random.Philox(2))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        a = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        w = rng.random(p) + 0.1
        lhs, rhs = column_normalization_identity(a, w)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    _criterion(3, worst <= 1e-10, f"max normalized identity residual {worst:.3e} over 100 instances")


def test_criterion_04_levy_trace_bound():
    rng = np.random.Generator(np.random.Philox(3))
    worst = -np.inf
    for _ in range(200):
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        b = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        lhs, rhs = levy_distance_trace_bound(a, b)
        worst = max(worst, lhs - rhs)
    _criterion(4, worst <= 1e-12, f"max (lhs - rhs) = {worst:.3e} over 200 random 5x8 pairs")


def test_criterion_05_tensor_norm_moments():
    rademacher = norm_moment_check(make_params(6, 3, 0.1, entry_law="rademacher", seed=0), 2000)
    unit_circle = norm_moment_check(make_params(6, 3, 0.1, entry_law="unit_circle", seed=0), 2000)
    exact = (
        rademacher.sq_mean == 1.0
        and rademacher.sq_se == 0.0
        and abs(unit_circle.sq_mean - 1.0) <= 1e-12
        and unit_circle.sq_se <= 1e-12
    )
    gaussian = norm_moment_check(make_params(10, 3, 0.01, seed=0), 10_000)
    deviation = abs(gaussian.quartic_mean - 1.331)
    gaussian_ok = (
        abs(gaussian.quartic_target - 1.331) <= 1e-12 and deviation <= 4.0 * gaussian.quartic_se
    )
    _criterion(
        5,
        exact and gaussian_ok,
        "unit-modulus norms exact (zero variance); "
        f"gaussian quartic {gaussian.quartic_mean:.4f} vs 1.331 within "
        f"{deviation / gaussian.quartic_se:.2f} standard errors",
    )


def test_criterion_06_limit_law_analytics():
    start = time.perf_counter()
    worst_mass = 0.0
    worst_mean = 0.0
    for c in (0.1, 0.25, 0.5, 0.9, 1.0):
        law = mp.MPLaw.from_ratio(c)
        worst_mass = max(worst_mass, abs(law.atom_mass + mp.density_mass(law) - 1.0))
        worst_mean = max(worst_mean, abs(mp.moment(law, 1) - c))
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        worst_mass <= 1e-8 and worst_mean <= 1e-8 and elapsed < 1.0,
        f"normalization residual {worst_mass:.3e}, first-moment residual {worst_mean:.3e}, {elapsed:.3f}s",
    )


def test_criterion_07_convergence_to_the_limit_law(convergence):
    result, elapsed = convergence
    summaries = {s.params.n: s for s in result.summaries()}
    ks_10 = summaries[10].mean["ks_mp"]
    ks_30 = summaries[30].mean["ks_mp"]
    _criterion(
        7,
        ks_30 < CONVERGENCE_KS_BOUND and ks_30 < ks_10 and elapsed < 30.0,
        f"mean KS {ks_10:.5f} (n=10) -> {ks_30:.5f} (n=30), bound {CONVERGENCE_KS_BOUND}, {elapsed:.1f}s",
    )


def test_criterion_08_model_comparison():
    plan = sweep_plan_from_json({"ns": [10, 30], "c": 0.5, "seed": 0, "replicas": 5})
    result = run_sweep(plan)
    summaries = {s.params.n: s for s in result.summaries()}
    levy_10 = summaries[10].mean["levy_models"]
    levy_30 = summaries[30].mean["levy_models"]
    zeros_ok = True
    for law in ("rademacher", "unit_circle"):
        unit_plan = sweep_plan_from_json({"ns": [10], "c": 0.5, "entry_law": law, "seed": 0, "replicas": 3})
        zeros_ok &= all(r.levy_models == 0.0 for r in run_sweep(unit_plan).records)
    _criterion(
        8,
        levy_30 < levy_10 and levy_30 < COMPARISON_LEVY_BOUND and zeros_ok,
        f"coupled Levy {levy_10:.5f} (n=10) -> {levy_30:.5f} (n=30); unit-modulus distances exactly 0: {zeros_ok}",
    )


def test_criterion_09_unit_sphere_construction(convergence):
    result, _ = convergence
    summary = {s.params.n: s for s in result.summaries()}[30]
    params = make_params(30, 2, 0.5, seed=0, replicas=5)
    report = run_sphere_model(params)
    mean, se = report.ks_stats()
    pooled = float(np.hypot(se, summary.se["ks_mp"]))
    gap = abs(mean - summary.mean["ks_mp"])
    _criterion(
        9,
        report.max_gram_deviation <= 1e-12 and gap <= 2.0 * pooled,
        f"gram deviation {report.max_gram_deviation:.2e}; KS gap {gap:.5f} <= 2 x pooled SE {pooled:.5f}",
    )


def test_criterion_10_empirical_moments(convergence):
    result, _ = convergence
    summary = {s.params.n: s for s in result.summaries()}[30]
    params = summary.params
    ratio = params.sample_count / params.ambient_dim
    first_exact = abs(summary.mean["m1"] - ratio) <= 1e-9 * ratio
    law = mp.MPLaw.from_ratio(params.c)
    deviations = []
    ok = first_exact
    for q, column in ((2, "m2"), (3, "m3"), (4, "m4_emp")):
        gap = abs(summary.mean[column] - mp.moment(law, q))
        se = summary.se[column]
        deviations.append(gap / se)
        ok &= gap <= 3.0 * se
    _criterion(
        10,
        ok,
        f"m1 = m/N exactly; q=2..4 deviations {', '.join(f'{d:.2f}' for d in deviations)} standard errors",
    )


def test_criterion_11_sweep_determinism_across_thread_counts(tmp_path):
    plan = {"ns": [10, 20], "c": 0.5, "seed": 0, "replicas": 3}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for threads in (1, 8):
        out_dir = tmp_path / f"threads_{threads}"
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "tensormp",
                "sweep",
                "--config",
                str(plan_path),
                "--threads",
                str(threads),
                "--out",
                str(out_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append((out_dir / "sweep.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    _criterion(11, identical, f"sweep.csv byte-identical across thread counts 1 and 8: {identical}")
