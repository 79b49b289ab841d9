"""Sweep orchestration, the sphere construction, selftest, and the CLI."""

import json
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tensormp.experiments
import tensormp.mp
from tensormp.cli import main
from tensormp.config import make_params
from tensormp.experiments import (
    COMPARISON_LEVY_BOUND,
    SWEEP_COLUMNS,
    FixedK,
    PowerK,
    ReplicaRecord,
    SweepPlan,
    SweepResult,
    make_sweep_plan,
    run_convergence,
    run_model_comparison,
    run_sphere_model,
    run_sweep,
    schedule_k,
    selftest,
    sweep_csv_lines,
    sweep_plan_from_json,
    write_sweep_csv,
    write_sweep_json,
)
from tensormp.gram import read_eigenvalue_csv


def test_k_schedules():
    assert schedule_k(FixedK(3), 100) == 3
    assert schedule_k(PowerK(0.5), 10) == 4
    assert schedule_k(PowerK(0.5), 100) == 10
    assert schedule_k(PowerK(0.5), 101) > 10
    with pytest.raises(ValueError):
        PowerK(1.0)
    with pytest.raises(ValueError):
        PowerK(0.0)
    with pytest.raises(TypeError):
        schedule_k("fixed", 10)


def test_power_schedule_shrinks_fold_ratio():
    ratios = [schedule_k(PowerK(0.6), n) / n for n in (10, 40, 160, 640)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_plan_builders():
    plan = make_sweep_plan([10, 20], c=0.5, k_schedule=PowerK(0.5), replicas=3)
    assert [p.k for p in plan.points] == [4, 5]
    assert plan.replicas == 3
    with pytest.raises(ValueError):
        make_sweep_plan([], c=0.5)
    with pytest.raises(ValueError):
        make_sweep_plan([10], c=0.5, replicas=0)
    with pytest.raises(ValueError, match="same point twice"):
        make_sweep_plan([10, 10], c=0.5)
    with pytest.raises(ValueError, match="same point twice"):
        SweepPlan(points=(make_params(6, 2, 0.5, seed=1), make_params(6, 2, 0.5, seed=1)), replicas=1)
    # a sweep runs plan.replicas of every point, so a point's own replicas
    # field does not make it a different point
    point = make_params(6, 2, 0.5, seed=1)
    with pytest.raises(ValueError, match="same point twice"):
        SweepPlan(points=(point, replace(point, replicas=3)), replicas=2)


def test_plan_from_json_grid_and_points():
    plan = sweep_plan_from_json(
        {
            "ns": [6, 8],
            "c": 0.5,
            "k_schedule": {"kind": "fixed", "k": 2},
            "entry_law": "rademacher",
            "seed": 3,
            "replicas": 2,
        }
    )
    assert [p.n for p in plan.points] == [6, 8]
    assert plan.points[0].entry_law.kind.value == "rademacher"

    plan = sweep_plan_from_json(
        {
            "points": [
                {"n": 6, "k": 2, "c": 0.5, "seed": 1},
                {"n": 8, "k": 1, "c": 0.25, "seed": 1},
            ],
            "replicas": 4,
        }
    )
    assert [p.k for p in plan.points] == [2, 1]
    assert plan.replicas == 4

    power = sweep_plan_from_json({"ns": [9], "c": 0.5, "k_schedule": {"kind": "power", "gamma": 0.5}})
    assert power.points[0].k == 3
    with pytest.raises(ValueError):
        sweep_plan_from_json({"ns": [9], "c": 0.5, "k_schedule": {"kind": "bogus"}})


def test_convergence_preconditions():
    tau_plan = make_sweep_plan(
        [6], c=0.5, tau={"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}, replicas=1
    )
    with pytest.raises(ValueError, match="tau identically"):
        run_convergence(tau_plan)
    cov_plan = make_sweep_plan([6], c=0.5, model="covariance", replicas=1)
    with pytest.raises(ValueError, match="correlation"):
        run_convergence(cov_plan)


def test_model_comparison_unit_modulus_is_exactly_zero():
    for law in ("rademacher", "unit_circle"):
        plan = make_sweep_plan([8], c=0.5, entry_law_kind=law, seed=0, replicas=3)
        result = run_model_comparison(plan)
        assert all(r.levy_models == 0.0 for r in result.records)


@pytest.mark.parametrize("law, solves", [("unit_circle", 1), ("complex_gaussian", 2)])
def test_sweep_solves_one_matrix_per_unit_modulus_replica(monkeypatch, law, solves):
    # a unit-modulus covariance Gram is the correlation Gram, so its spectrum is reused
    calls = []
    solve = tensormp.experiments.eigenvalues

    def counted(gram):
        calls.append(gram)
        return solve(gram)

    monkeypatch.setattr(tensormp.experiments, "eigenvalues", counted)
    plan = make_sweep_plan([6, 8], c=0.5, entry_law_kind=law, seed=3, replicas=2)
    result = run_sweep(plan)
    assert len(calls) == solves * len(result.records)


def test_model_comparison_two_point_regression_bound():
    plan = make_sweep_plan(
        [30], c=0.5, tau={"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}, seed=0, replicas=5
    )
    summary = run_model_comparison(plan).summaries()[0]
    assert summary.levy_models_mean < COMPARISON_LEVY_BOUND


def test_sweep_records_and_summaries():
    plan = make_sweep_plan([6, 8], c=0.5, seed=1, replicas=2)
    result = run_sweep(plan)
    assert len(result.records) == 4
    assert [(r.params.n, r.replica) for r in result.records] == [(6, 0), (6, 1), (8, 0), (8, 1)]
    for record in result.records:
        assert 0.0 <= record.ks_mp <= 1.0
        assert 0.0 <= record.levy_mp <= 1.0
        assert 0.0 <= record.levy_models <= 1.0
        assert all(np.isfinite(record.moments))
        assert record.ms > 0.0
    summaries = result.summaries()
    assert summaries[0].replicas == 2
    expected = np.mean([r.ks_mp for r in result.records[:2]])
    assert summaries[0].ks_mp_mean == pytest.approx(expected, abs=1e-15)


def test_summaries_group_records_by_equal_params():
    # equal but distinct ModelParams objects, as after a JSON round trip
    first, second = make_params(6, 2, 0.5, seed=1), make_params(6, 2, 0.5, seed=1)
    assert first is not second
    records = tuple(
        ReplicaRecord(params=p, replica=r, ks_mp=ks, levy_mp=ks, levy_models=0.0, moments=(0.5, 0.75, 1.4, 2.8), ms=0.0)
        for p, r, ks in ((first, 0, 0.1), (second, 1, 0.3))
    )
    (summary,) = SweepResult(records=records).summaries()
    assert summary.replicas == 2
    assert summary.ks_mp_mean == pytest.approx(0.2, abs=1e-15)
    assert summary.ks_mp_se == pytest.approx(0.1, abs=1e-15)


def test_sweep_without_constant_tau_has_nan_mp_distances():
    plan = make_sweep_plan(
        [6], c=0.5, tau={"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}, replicas=1
    )
    record = run_sweep(plan).records[0]
    assert np.isnan(record.ks_mp) and np.isnan(record.levy_mp)
    assert 0.0 <= record.levy_models <= 1.0


def test_sweep_csv_is_thread_count_invariant():
    # replicas always run serially; two runs of one plan give the same bytes
    plan = make_sweep_plan([6, 8], c=0.5, seed=5, replicas=3)
    lines_1 = sweep_csv_lines(run_sweep(plan))
    lines_2 = sweep_csv_lines(run_sweep(plan))
    assert lines_1 == lines_2
    assert lines_1[0] == "n,k,m,N,c,replica,ks_mp,levy_mp,levy_models,m1,m2,m3,m4_emp,ms"
    assert all(line.endswith(",0.0") for line in lines_1[1:])  # ms suppressed by default

    timed = sweep_csv_lines(run_sweep(plan), timings=True)
    assert any(not line.endswith(",0.0") for line in timed[1:])


def test_sweep_json_rows_match_csv_columns(tmp_path):
    result = run_sweep(make_sweep_plan([6], c=0.5, seed=5, replicas=2))
    write_sweep_csv(tmp_path / "sweep.csv", result)
    write_sweep_json(tmp_path / "sweep.json", result)
    header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert tuple(header.split(",")) == SWEEP_COLUMNS
    records = json.loads((tmp_path / "sweep.json").read_text())
    assert len(records) == len(rows) == 2
    for record, row in zip(records, rows):
        assert set(record) == set(SWEEP_COLUMNS)
        for column, field in zip(SWEEP_COLUMNS, row.split(",")):
            assert float(field) == record[column]


def test_sphere_model_requires_gaussian_law():
    params = make_params(6, 2, 0.5, entry_law_kind="unit_circle", replicas=1)
    with pytest.raises(ValueError, match="Gaussian"):
        run_sphere_model(params)


def test_sphere_model_matches_correlation_gram():
    params = make_params(8, 2, 0.5, seed=2, replicas=2)
    report = run_sphere_model(params)
    assert report.max_gram_deviation <= 1e-12
    mean, se = report.ks_stats()
    assert 0.0 <= mean <= 1.0 and se >= 0.0


def test_selftest_passes_and_reports():
    report = selftest(seed=0)
    assert report.passed
    table = report.table()
    assert "gram_oracle_equivalence" in table
    assert "FAIL" not in table


def test_selftest_catches_a_corrupted_density(monkeypatch):
    original = tensormp.mp._density_integral

    def broken(law, t):
        return original(law, t) * (2.0 * np.pi)  # drop the 1/(2 pi)

    monkeypatch.setattr(tensormp.mp, "_density_integral", broken)
    report = selftest(seed=0)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "mp_normalization" in failed


def test_single_fold_reduces_to_classical_model():
    plan = make_sweep_plan([24], c=0.5, k_schedule=FixedK(1), seed=4, replicas=2)
    result = run_convergence(plan)
    summary = result.summaries()[0]
    assert summary.ks_mp_mean < 0.2
    assert all(np.isfinite(r.ks_mp) for r in result.records)


def test_cli_mp_grid(tmp_path, capsys):
    assert main(["mp", "--c", "0.5", "--out", str(tmp_path), "--points", "64", "--moments", "1,2"]) == 0
    lines = (tmp_path / "mp_grid.csv").read_text().splitlines()
    assert lines[0] == "x,density,cdf"
    assert len(lines) == 65  # header + 64 grid points
    out = capsys.readouterr().out
    assert "moment q=1" in out


def test_cli_simulate_and_distance(tmp_path):
    config = {"n": 6, "k": 2, "c": 0.5, "seed": 3, "replicas": 2}
    config_path = tmp_path / "point.json"
    config_path.write_text(json.dumps(config))
    out_a = tmp_path / "a"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
    meta, eigs = read_eigenvalue_csv(out_a / "eigenvalues.csv")
    assert meta["N"] == 36 and set(eigs) == {0, 1}
    histogram = (out_a / "histogram.csv").read_text().splitlines()
    assert histogram[0] == "bin_left,bin_right,count,density_estimate"
    counts = sum(int(line.split(",")[2]) for line in histogram[1:])
    assert counts == 2 * 36  # every ESD point of both replicas, zeros included

    out_b = tmp_path / "b"
    config["seed"] = 4
    config_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
    out_d = tmp_path / "d"
    assert (
        main(
            [
                "distance",
                "--a",
                str(out_a / "eigenvalues.csv"),
                "--b",
                str(out_b / "eigenvalues.csv"),
                "--out",
                str(out_d),
            ]
        )
        == 0
    )
    lines = (out_d / "distances.csv").read_text().splitlines()
    assert lines[0] == "replica,metric,value"
    assert len(lines) == 5  # two replicas x two metrics


def test_cli_sweep_and_selftest(tmp_path):
    plan = {"ns": [6, 8], "c": 0.5, "seed": 2, "replicas": 2}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["sweep", "--config", str(plan_path), "--out", str(tmp_path), "--threads", "2"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("n,k,m,N,c,replica")
    assert len(lines) == 5

    assert main(["sweep", "--config", str(plan_path), "--out", str(tmp_path), "--format", "json"]) == 0
    records = json.loads((tmp_path / "sweep.json").read_text())
    assert len(records) == 4 and records[0]["ms"] == 0.0

    assert main(["selftest", "--out", str(tmp_path)]) == 0


def test_cli_sweep_explicit_out_beats_the_plan_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("plan.json").write_text(json.dumps({"ns": [6], "c": 0.5, "seed": 2, "replicas": 1, "out": "planout"}))
    assert main(["sweep", "--config", "plan.json", "--out", "."]) == 0
    assert Path("sweep.csv").is_file() and not Path("planout").exists()
    assert main(["sweep", "--config", "plan.json"]) == 0
    assert Path("planout", "sweep.csv").read_bytes() == Path("sweep.csv").read_bytes()


def test_cli_sweep_starts_no_thread(tmp_path, monkeypatch):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"ns": [6], "c": 0.5, "seed": 2, "replicas": 2}))

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["sweep", "--config", str(plan_path), "--out", str(tmp_path), "--threads", "2"]) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize(
    "argv", [["mp", "--c", "0.5", "--seed", "3"], ["distance", "--a", "a", "--b", "b", "--threads", "2"]]
)
def test_cli_rejects_flags_a_subcommand_never_reads(argv, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--out", str(tmp_path)])
    assert excinfo.value.code == 2


def test_cli_seed_override(tmp_path):
    config = {"n": 6, "k": 1, "c": 0.5, "seed": 3, "replicas": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", str(path), "--out", str(out1), "--seed", "9"]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2), "--seed", "9"]) == 0
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()
    meta, _ = read_eigenvalue_csv(out1 / "eigenvalues.csv")
    assert meta["seed"] == 9
