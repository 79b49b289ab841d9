"""Sweep orchestration, the sphere construction, selftest, and the CLI."""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tensormp.cli
import tensormp.config
import tensormp.experiments
import tensormp.gram
import tensormp.mp
import tensormp.sampling
from helpers import levy_bisection
from oracles import _draw, _stream, gram_out_of_place
from tensormp.checks import Check, require
from tensormp.cli import main, read_eigenvalue_csv
from tensormp.config import EntryLaw, ModelKind, SweepPlan, make_params, params_from_json, sweep_plan_from_json
from tensormp.experiments import (
    COMPARISON_LEVY_BOUND,
    MEASURED_COLUMNS,
    SWEEP_COLUMNS,
    ReplicaRecord,
    SphereReport,
    SweepResult,
    _check_levy_models,
    run_convergence,
    run_sphere_model,
    run_sweep,
    selftest,
    sweep_rows,
)
from tensormp.gram import eigenvalues, esd, model_spectra, tensor_vector
from tensormp.metrics import empirical_moment, ks_distance, levy_distance, levy_distance_trace_bound
from tensormp.mp import MPLaw
from tensormp.sampling import BaseSample, sample_base

TWO_POINT_TAU = {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}
POWER_HALF = {"kind": "power", "gamma": 0.5}  # k = ceil(sqrt(n))

def _k_of_n(k_schedule, n):
    """The k that a grid plan with this k_schedule document gives the point at
    n, read by the plan reader's own schedule reader: most of these (n, k)
    have n^k beyond 2^53, which no point may have."""
    return tensormp.config._k_schedule_from_json(k_schedule)(n)


def test_k_schedules():
    assert _k_of_n({"kind": "fixed", "k": 3}, 100) == 3
    assert _k_of_n(None, 100) == 2
    assert _k_of_n(POWER_HALF, 10) == 4
    assert _k_of_n(POWER_HALF, 100) == 10
    assert _k_of_n(POWER_HALF, 101) > 10
    assert [p.k for p in sweep_plan_from_json({"ns": [10], "c": 0.5, "k_schedule": POWER_HALF}).points] == [4]
    for gamma in (1.0, 0.0):
        with pytest.raises(ValueError, match=r"power k_schedule key 'gamma' must lie in \(0, 1\)"):
            sweep_plan_from_json({"ns": [10], "c": 0.5, "k_schedule": {"kind": "power", "gamma": gamma}})


def test_power_schedule_shrinks_fold_ratio():
    ratios = [_k_of_n({"kind": "power", "gamma": 0.6}, n) / n for n in (10, 40, 160, 640)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_plan_builders():
    # n = 20 gives k = 5, so m = 0.5 * 20^5 = 1 600 000, past the desk-scale bound
    assert _k_of_n(POWER_HALF, 20) == 5
    with pytest.raises(ValueError, match=r"sample count m = 1600000 exceeds the desk-scale bound"):
        sweep_plan_from_json({"ns": [10, 20], "c": 0.5, "k_schedule": POWER_HALF, "replicas": 3})
    plan = sweep_plan_from_json({"ns": [10], "c": 0.5, "k_schedule": POWER_HALF, "replicas": 3})
    assert [(p.k, p.replicas) for p in plan.points] == [(4, 3)]
    with pytest.raises(ValueError, match="at least one point"):
        sweep_plan_from_json({"ns": [], "c": 0.5})
    with pytest.raises(ValueError, match="replicas must be at least 1"):
        sweep_plan_from_json({"ns": [10], "c": 0.5, "replicas": 0})
    with pytest.raises(ValueError, match="same point twice"):
        sweep_plan_from_json({"ns": [10, 10], "c": 0.5})
    with pytest.raises(ValueError, match="same point twice"):
        SweepPlan(points=(make_params(6, 2, 0.5, seed=1), make_params(6, 2, 0.5, seed=1)))
    # explicit ones are constant_one: same weights, same draws
    ones = {"n": 2, "k": 1, "c": 1.5, "tau": {"kind": "explicit", "values": [1, 1, 1]}}
    with pytest.raises(ValueError, match="same point twice"):
        sweep_plan_from_json({"points": [ones, {**ones, "tau": "constant_one"}]})
    # a scheme is its weights: a two-point tau with a == b is constant_one, and
    # two weights with the same floor(weight * m) fill the same weights (m = 10)
    flat = {"kind": "two_point", "a": 1.0, "b": 1.0, "weight": 0.5}
    with pytest.raises(ValueError, match="same point twice"):
        sweep_plan_from_json({"points": [{**ones, "tau": flat}, {**ones, "tau": "constant_one"}]})
    halves = [{"n": 4, "k": 1, "c": 2.5, "tau": {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": w}} for w in (0.5, 0.55)]
    with pytest.raises(ValueError, match="same point twice"):
        sweep_plan_from_json({"points": halves})
    # replica r of a point draws the same sample whatever the point's replicas
    # field, so that field does not make it a different point
    point = make_params(6, 2, 0.5, seed=1)
    with pytest.raises(ValueError, match="same point twice"):
        SweepPlan(points=(point, replace(point, replicas=3)))


def test_each_point_of_a_plan_runs_its_own_replicas():
    plan = SweepPlan(points=(make_params(6, 2, 0.5, seed=1, replicas=1), make_params(8, 1, 0.5, seed=1, replicas=3)))
    result = run_sweep(plan)
    assert [(r.params.n, r.replica) for r in result.records] == [(6, 0), (8, 0), (8, 1), (8, 2)]
    assert [s.replicas for s in result.summaries()] == [1, 3]


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
    assert plan.points[0].entry_law.value == "rademacher"

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
    assert [p.replicas for p in plan.points] == [4, 4]

    power = sweep_plan_from_json({"ns": [9], "c": 0.5, "k_schedule": {"kind": "power", "gamma": 0.5}})
    assert power.points[0].k == 3
    with pytest.raises(ValueError):
        sweep_plan_from_json({"ns": [9], "c": 0.5, "k_schedule": {"kind": "bogus"}})


@pytest.mark.parametrize("k_schedule", [{"kind": "fixed", "k": 2}, {"kind": "power", "gamma": 0.6}])
def test_a_grid_plan_equals_the_points_plan_it_lists(k_schedule):
    # the ks of n = 6 and 9; ceil(6^0.6) = ceil(2.93) = 3 and ceil(9^0.6) = ceil(3.74) = 4
    ks = (2, 2) if k_schedule["kind"] == "fixed" else (3, 4)
    shared = {"c": 0.5, "model": "covariance", "entry_law": "rademacher", "tau": "constant_one", "seed": 3}
    grid = sweep_plan_from_json({"ns": [6, 9], "k_schedule": k_schedule, "replicas": 2, **shared})
    points = [{**shared, "n": n, "k": k} for n, k in zip((6, 9), ks)]
    assert grid == sweep_plan_from_json({"points": points, "replicas": 2})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"ns": [6], "c": 0.5, "entrylaw": "rademacher"}, r"sweep plan has unknown key\(s\) 'entrylaw'"),
        ({"ns": [6], "c": 0.5, "n": 8, "k": 1}, r"sweep plan has unknown key\(s\) 'n', 'k'"),
        ({"c": 0.5}, r"sweep plan lacks the required key\(s\) 'ns'"),
        ({"ns": [6]}, r"sweep plan lacks the required key\(s\) 'c'"),
        ({"points": [{"n": 6, "k": 2, "c": 0.5}], "seed": 3}, r"sweep plan has unknown key\(s\) 'seed'"),
        ({"points": [{"n": 6, "k": 2, "c": 0.5, "replica": 2}]}, r"point config has unknown key\(s\) 'replica'"),
        ({"points": [{"k": 2, "c": 0.5}]}, r"point config lacks the required key\(s\) 'n'"),
        ({"ns": [6], "c": 0.5, "k_schedule": {"k": 2}}, r"k_schedule lacks the required key\(s\) 'kind'"),
        ({"ns": [6], "c": 0.5, "k_schedule": {"kind": "fixed"}}, r"fixed k_schedule lacks the required key\(s\) 'k'"),
        ({"ns": [6], "c": 0.5, "k_schedule": {"kind": "power", "gamma": 0.5, "k": 2}}, r"power k_schedule has unknown"),
        ({"ns": [6], "c": 0.5, "k_schedule": {"kind": "fixed", "k": 2, "fold": 3}}, r"k_schedule has unknown key\(s\) 'fold'"),
        ({"ns": [6], "c": 0.5, "k_schedule": {"kind": ["power"]}}, r"k_schedule key 'kind' must be one of 'fixed', 'power'"),
        ({"ns": [6], "c": 0.5, "tau": {"kind": "two_point", "a": 1.0, "b": 2.0}}, r"lacks the required key\(s\) 'weight'"),
    ],
)
def test_sweep_plans_reject_unknown_and_missing_keys(doc, message):
    with pytest.raises(ValueError, match=message):
        sweep_plan_from_json(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"points": [[6, 2, 0.5]]}, r"sweep plan key 'points' must be a list of JSON objects, got \[\[6, 2, 0\.5\]\]"),
        ({"points": {"n": 6, "k": 2, "c": 0.5}}, r"sweep plan key 'points' must be a list of JSON objects"),
        ({"points": [{"n": [6], "k": 2, "c": 0.5}]}, r"point config key 'n' must be an integer, got \[6\]"),
        ({"ns": 6, "c": 0.5}, r"sweep plan key 'ns' must be a list of integers, got 6"),
        ({"ns": [6], "c": [0.5]}, r"point config key 'c' must be a number"),
        ({"ns": [6], "c": 0.5, "replicas": "2"}, r"sweep plan key 'replicas' must be an integer, got '2'"),
        ({"ns": [6], "c": 0.5, "seed": 1.5}, r"point config key 'seed' must be an integer, got 1\.5"),
        ({"ns": [6], "c": 0.5, "k_schedule": {"kind": "fixed", "k": "2"}}, r"fixed k_schedule key 'k' must be an integer"),
        ({"ns": [9], "c": 0.5, "k_schedule": {"kind": "power", "gamma": None}}, r"power k_schedule key 'gamma' must be"),
        ({"ns": [6], "c": 0.5, "out": 3}, r"sweep plan key 'out' must be a string, got 3"),
        ({"points": [{"n": 6, "k": 2, "c": 0.5}], "out": ["x"]}, r"sweep plan key 'out' must be a string, got \['x'\]"),
    ],
)
def test_sweep_plans_reject_a_value_of_the_wrong_type(doc, message):
    with pytest.raises(ValueError, match=message):
        sweep_plan_from_json(doc)


def test_points_plan_runs_the_plan_replicas_of_every_point():
    points = [{"n": 6, "k": 2, "c": 0.5, "seed": 1, "replicas": 2}, {"n": 8, "k": 1, "c": 0.25}]
    doc = {"points": points, "replicas": 2}
    plan = sweep_plan_from_json(doc)
    assert [p.replicas for p in plan.points] == [2, 2]
    summaries = run_sweep(plan).summaries()
    assert [(s.params.replicas, s.replicas) for s in summaries] == [(2, 2), (2, 2)]

    doc["points"][0]["replicas"] = 9
    with pytest.raises(ValueError, match="point 0 sets replicas=9, but the plan runs 2"):
        sweep_plan_from_json(doc)


def test_convergence_preconditions():
    tau_plan = sweep_plan_from_json({"ns": [6], "c": 0.5, "tau": TWO_POINT_TAU, "replicas": 1})
    with pytest.raises(ValueError, match="tau identically"):
        run_convergence(tau_plan)
    cov_plan = sweep_plan_from_json({"ns": [6], "c": 0.5, "model": "covariance", "replicas": 1})
    with pytest.raises(ValueError, match="correlation"):
        run_convergence(cov_plan)


def test_only_a_covariance_reading_run_derives_the_covariance_gram(monkeypatch):
    calls = []
    derive = tensormp.gram._scale_to_covariance
    monkeypatch.setattr(tensormp.gram, "_scale_to_covariance", lambda *args: calls.append(1) or derive(*args))
    plan = sweep_plan_from_json({"ns": [6, 8], "c": 0.5, "replicas": 2})
    run_convergence(plan)
    assert len(calls) == 0
    run_sweep(plan)
    assert len(calls) == 4


@pytest.mark.parametrize("model", ["correlation", "covariance"])
@pytest.mark.parametrize("law", list(EntryLaw))
def test_a_replica_holds_at_most_two_gram_sized_arrays(law, model):
    # tracemalloc sees numpy's arrays, not LAPACK's own workspace; a small
    # replica runs first, so one-time set-up is not counted
    evaluate = tensormp.experiments._evaluate_replica
    evaluate(make_params(6, 2, 0.5, entry_law=law, model=model), 0, with_comparison=True)
    params = make_params(30, 2, 0.5, entry_law=law, model=model, seed=3)
    gram_bytes = tensormp.gram.gram_buffer([params]).nbytes  # allocated and freed before tracing starts
    tracemalloc.start()
    try:
        evaluate(params, 0, with_comparison=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.sample_count == 450
    assert peak <= 2.5 * gram_bytes


@pytest.mark.parametrize("model", ["correlation", "covariance"])
@pytest.mark.parametrize("law", ["complex_gaussian", "unit_circle"])
def test_a_complex_replica_holds_one_gram_sized_array(law, model):
    # each later level is formed one row panel at a time: tracemalloc would see a whole-matrix
    # level as a second numpy block. It sees numpy's arrays only, not the copy eigvalsh makes,
    # so the in-place solve is guarded by the resident-set test below, not by this one
    evaluate = tensormp.experiments._evaluate_replica
    evaluate(make_params(6, 2, 0.5, entry_law=law, model=model), 0, with_comparison=True)
    params = make_params(30, 2, 0.5, entry_law=law, model=model, seed=3)
    tracemalloc.start()
    try:
        evaluate(params, 0, with_comparison=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.sample_count == 450
    assert peak <= 1.5 * params.sample_count**2 * 16


_RSS_PROBE = """
import resource, sys
import tensormp.gram
from tensormp.config import make_params
from tensormp.gram import model_spectra

if sys.argv[1] == "fallback":
    tensormp.gram._openblas = lambda: None
model_spectra(make_params(6, 2, 0.5), 0, with_comparison=True)  # one-time set-up: imports, LAPACK's code pages
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
params = make_params(40, 2, 0.5, seed=3)
model_spectra(params, 0, with_comparison=True)
print(params.sample_count, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_a_complex_replica_solves_in_its_gram_with_no_second_resident_block():
    # the resident-set peak sees what tracemalloc cannot: eigvalsh's copy of the matrix, which
    # the fallback path makes (about 2.2 blocks) and the in-place solve does not (about 1.25)
    fallback = tensormp.gram._openblas() is None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(tensormp.gram.__file__).parents[1]), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", _RSS_PROBE, "fallback" if fallback else "binding"]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120, check=True)
    m, growth_kb = map(int, proc.stdout.split())
    assert m == 800
    assert growth_kb * 1024 < (2.5 if fallback else 1.5) * m**2 * 16, growth_kb


def _gram_blocks(bound: float) -> float:
    """A bound in Gram-sized blocks for the path this numpy runs: as given where its bundled
    OpenBLAS is bound, one block more on the fallback, whose real levels come from numpy's
    whole product (see README's numerical design notes)."""
    return bound if tensormp.gram._openblas() is not None else bound + 1.0


@pytest.mark.parametrize("n, k, c", [(30, 2, 0.5), (9, 3, 0.6)])  # m = 450 and 437
@pytest.mark.parametrize("model", ["correlation", "covariance"])
@pytest.mark.parametrize("law", ["real_gaussian", "rademacher"])
def test_a_real_replica_holds_one_gram_sized_array(law, model, n, k, c):
    # each later level is written by syrk into the Gram's buffer, whose strict lower triangle
    # holds the running product; tracemalloc would see numpy's second block of inner products
    evaluate = tensormp.experiments._evaluate_replica
    evaluate(make_params(6, 2, 0.5, entry_law=law, model=model), 0, with_comparison=True)
    params = make_params(n, k, c, entry_law=law, model=model, seed=3)
    tracemalloc.start()
    try:
        evaluate(params, 0, with_comparison=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.sample_count in (450, 437)
    assert peak <= _gram_blocks(1.5) * params.sample_count**2 * 8


@pytest.mark.parametrize("model", ["correlation", "covariance"])
@pytest.mark.parametrize("law", list(EntryLaw))
def test_both_solves_of_a_replica_share_one_gram_buffer(monkeypatch, law, model):
    addresses = []
    solve = tensormp.gram._solve_in_place

    def recorded(gram):
        addresses.append(gram.__array_interface__["data"][0])
        return solve(gram)

    monkeypatch.setattr(tensormp.gram, "_solve_in_place", recorded)
    params = make_params(9, 2, 0.5, entry_law=law, model=model, seed=2)
    tensormp.experiments._evaluate_replica(params, 0, with_comparison=True)
    # D C D is scaled into C's buffer after C's solve; a unit-modulus law solves its one matrix once
    assert len(addresses) == (1 if params.entry_law.unit_modulus else 2)
    assert len(set(addresses)) == 1
    addresses.clear()
    tensormp.experiments._evaluate_replica(params, 0, with_comparison=False)
    assert len(addresses) == 1
    # every solve of a multi-point sweep, of every replica of every point, runs in one buffer
    addresses.clear()
    plan = sweep_plan_from_json({"ns": [5, 7, 9], "c": 0.5, "entry_law": law.value, "model": model, "seed": 2, "replicas": 2})
    run_sweep(plan)
    assert len(addresses) == (1 if params.entry_law.unit_modulus else 2) * 6
    assert len(set(addresses)) == 1


def _watch_samples_at_each_solve(monkeypatch) -> tuple[list, list]:
    """Keep a weak reference to every entries array that sampling._transform
    returns, and check at every gram._solve_in_place that each is dead: the
    refs and the solves seen, in order."""
    refs, solves = [], []
    transform, solve = tensormp.sampling._transform, tensormp.gram._solve_in_place

    def watched(law, raw):
        entries = transform(law, raw)
        refs.append(weakref.ref(entries))
        return entries

    def checked(gram):
        assert refs and all(ref() is None for ref in refs), "a sample is alive at a solve"
        solves.append(len(refs))
        return solve(gram)

    monkeypatch.setattr(tensormp.sampling, "_transform", watched)
    monkeypatch.setattr(tensormp.gram, "_solve_in_place", checked)
    return refs, solves


@pytest.mark.parametrize("with_comparison", [False, True])
@pytest.mark.parametrize("model", ["correlation", "covariance"])
@pytest.mark.parametrize("law", list(EntryLaw))
def test_a_replica_drops_its_sample_before_its_first_solve(monkeypatch, law, model, with_comparison):
    refs, solves = _watch_samples_at_each_solve(monkeypatch)
    params = make_params(9, 2, 0.5, entry_law=law, model=model, tau=TWO_POINT_TAU, seed=2)
    tensormp.experiments._evaluate_replica(params, 0, with_comparison=with_comparison)
    two = with_comparison and not params.entry_law.unit_modulus
    assert len(refs) == 1 and solves == [1] * (2 if two else 1)


def test_a_sweep_drops_each_sample_before_its_replicas_first_solve(monkeypatch):
    refs, solves = _watch_samples_at_each_solve(monkeypatch)
    plan = sweep_plan_from_json({"ns": [5, 7, 9], "c": 0.5, "entry_law": "real_gaussian", "seed": 2, "replicas": 2})
    run_sweep(plan)
    assert len(refs) == 6 and solves == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]


def test_a_sweep_drops_each_replicas_spectra_before_the_next_solve(monkeypatch):
    # run_sweep keeps only the records: a replica's eigenvalues and ESD atoms, which
    # _evaluate_replica returns with its record, are dead at every later solve
    refs, solves = [], []
    evaluate, solve = tensormp.experiments._evaluate_replica, tensormp.gram._solve_in_place

    def watched(*args, **kwargs):
        record, eigs, dist = evaluate(*args, **kwargs)
        refs.append((weakref.ref(eigs), weakref.ref(dist.atoms)))
        return record, eigs, dist

    def checked(gram):
        assert all(ref() is None for pair in refs for ref in pair), "an earlier replica's spectra are alive at a solve"
        solves.append(len(refs))
        return solve(gram)

    monkeypatch.setattr(tensormp.experiments, "_evaluate_replica", watched)
    monkeypatch.setattr(tensormp.gram, "_solve_in_place", checked)
    plan = sweep_plan_from_json({"ns": [5, 7, 9], "c": 0.5, "seed": 2, "replicas": 2})
    assert len(run_sweep(plan).records) == 6
    assert len(refs) == 6 and solves == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


@pytest.mark.parametrize("law", list(EntryLaw))
def test_a_replica_given_the_sweeps_buffer_allocates_less_than_half_a_gram(law):
    # the Gram and both solves run in the buffer; what is left is the sample, dropped once the
    # Gram is built and before the first solve, row panels and spectra, and the Gaussian laws'
    # sampling tile, about 1.5 MB at the peak, so m is sweep_c05's largest
    evaluate = tensormp.experiments._evaluate_replica
    params = make_params(40, 2, 0.5, entry_law=law, model="covariance", seed=3)
    buffer = tensormp.gram.gram_buffer([params])  # as run_replicas sizes it: one Gram's bytes
    evaluate(make_params(6, 2, 0.5, entry_law=law), 0, with_comparison=True, buffer=buffer)
    tracemalloc.start()
    try:
        evaluate(params, 0, with_comparison=True, buffer=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.sample_count == 800
    assert peak < _gram_blocks(0.5) * buffer.nbytes, peak


def test_a_largest_first_plan_gives_the_rows_of_the_ascending_plan():
    # the later points reuse a buffer whose head holds a larger Gram's bytes; the complex point
    # (m=35) has fewer rows than the Rademacher one (m=41) but more bytes, which the buffer must fit
    points = (
        make_params(5, 2, 0.5, entry_law="real_gaussian", tau=TWO_POINT_TAU, seed=6, replicas=2),
        make_params(6, 2, 35 / 36, entry_law="complex_gaussian", seed=6, replicas=2),
        make_params(9, 2, 0.5, entry_law="rademacher", seed=6, replicas=2),
    )
    assert [p.sample_count for p in points] == [13, 35, 41]
    ascending = sweep_rows(run_sweep(SweepPlan(points=points)))
    descending = sweep_rows(run_sweep(SweepPlan(points=points[::-1])))
    assert repr(descending) == repr(ascending[4:] + ascending[2:4] + ascending[:2])


def _reference_replica(params, replica):
    """_evaluate_replica's record fields and eigenvalues, from the out-of-place
    oracle Grams of both models, solved and compared by the same calls."""
    sample = sample_base(params, replica)
    solved = {model: eigenvalues(gram_out_of_place(sample, params.tau, model)) for model in ModelKind}
    eigs = solved[params.model]
    other = solved[ModelKind.COVARIANCE if params.model is ModelKind.CORRELATION else ModelKind.CORRELATION]
    dist = esd(eigs, params.ambient_dim)
    ks_mp = levy_mp = float("nan")
    if params.tau.is_constant_one:
        law = MPLaw(params.c)
        ks_mp, levy_mp = ks_distance(dist, law), levy_distance(dist, law)
    levy_models = levy_distance(dist, esd(other, params.ambient_dim))
    moments = [empirical_moment(dist, q) for q in (1, 2, 3, 4)]
    return np.array([ks_mp, levy_mp, levy_models, *moments]), eigs


@pytest.mark.parametrize("tau", ["constant_one", {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}])
@pytest.mark.parametrize("model", ["correlation", "covariance"])
@pytest.mark.parametrize("law", list(EntryLaw))
def test_a_compared_replica_equals_the_out_of_place_reference_bitwise(law, model, tau):
    params = make_params(9, 2, 40 / 81, entry_law=law, model=model, tau=tau, seed=6)
    record, eigs, _ = tensormp.experiments._evaluate_replica(params, 1, with_comparison=True)
    values = np.array([record.ks_mp, record.levy_mp, record.levy_models, record.m1, record.m2, record.m3, record.m4_emp])
    expected_values, expected_eigs = _reference_replica(params, 1)
    assert values.tobytes() == expected_values.tobytes()
    assert eigs.tobytes() == expected_eigs.tobytes()


def test_model_comparison_unit_modulus_is_exactly_zero():
    for law in ("rademacher", "unit_circle"):
        plan = sweep_plan_from_json({"ns": [8], "c": 0.5, "entry_law": law, "seed": 0, "replicas": 3})
        result = run_sweep(plan)
        assert all(r.levy_models == 0.0 for r in result.records)


WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_levy_models_stays_within_the_trace_bound_on_the_workload_plans(monkeypatch, workload):
    bounds = []
    check = tensormp.experiments._check_levy_models

    def recorded(levy_models, params, d2):
        bounds.append(check(levy_models, params, d2))
        return bounds[-1]

    monkeypatch.setattr(tensormp.experiments, "_check_levy_models", recorded)
    plan = sweep_plan_from_json({**WORKLOADS[workload]["plan"], "seed": 1})
    records = run_sweep(plan).records
    assert len(bounds) == len(records)
    for record, bound in zip(records, bounds):
        if record.params.entry_law.unit_modulus:
            assert record.levy_models == 0.0 and bound == 0.0
        else:
            assert record.levy_models**4 < bound  # by a wide margin at these sizes


# every checks.require row of a sweep, whichever module calls it: the safeguards a run can report
PIPELINE_ROWS = (
    "level_norms",
    "finite_gram",
    "hermitian",
    "trace_identity",
    "frobenius_identity",
    "finite_spectrum",
    "clamp_floor",
    "rank_bound",
    "levy_models_trace_bound",
)


def _require_runs(monkeypatch, plan) -> dict[str, list[float]]:
    """The gap of each run of each pipeline row in run_sweep(plan), an empty
    list for a row that never runs; a row outside PIPELINE_ROWS fails."""
    gaps = {name: [] for name in PIPELINE_ROWS}
    for module in (tensormp.gram, tensormp.sampling, tensormp.experiments):
        monkeypatch.setattr(module, "require", lambda name, gap, *args: gaps[name].append(gap) or require(name, gap, *args))
    run_sweep(plan)
    return gaps


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_workload_plans_run_each_require_row_a_known_number_of_times(monkeypatch, workload):
    plan = sweep_plan_from_json({**WORKLOADS[workload]["plan"], "seed": 1})
    expected = dict.fromkeys(PIPELINE_ROWS, 0)
    for point in plan.points:
        unit = point.entry_law.unit_modulus
        solves = 1 if unit else 2  # D = I by the law: one matrix, one solve, one ESD
        per_solve = ("finite_gram", "hermitian", "trace_identity", "frobenius_identity", "finite_spectrum", "clamp_floor")
        per_replica = dict.fromkeys(per_solve, solves)
        per_replica |= {"levy_models_trace_bound": 1, "level_norms": 0 if unit else 1}  # a unit-modulus law uses the exact n
        for name, runs in per_replica.items():
            expected[name] += runs * point.replicas
    gaps = _require_runs(monkeypatch, plan)
    runs = {name: len(row) for name, row in gaps.items()}
    assert runs == expected
    assert runs["rank_bound"] == 0  # c < 1: no structural zeros
    assert (runs["level_norms"] == 0) == (workload == "fold_pool_uc")
    # every built Gram is finite and exactly Hermitian: _hermitize mirrors each pair by conjugation
    assert all(gap == 0 for name in ("finite_gram", "hermitian") for gap in gaps[name])


def test_a_point_beyond_its_ambient_dimension_runs_the_rank_bound_row(monkeypatch):
    plan = sweep_plan_from_json({"ns": [4], "c": 1.5, "entry_law": "complex_gaussian", "seed": 1, "replicas": 2})
    (point,) = plan.points
    assert point.sample_count > point.ambient_dim
    runs = {name: len(row) for name, row in _require_runs(monkeypatch, plan).items()}
    assert runs["rank_bound"] == runs["finite_spectrum"] == runs["finite_gram"] == 4  # both solves of each of two replicas
    assert runs["level_norms"] == 2


def _per_key_sample(params, replica):
    """sample_base's reference: one freshly keyed generator per level vector."""
    seed, law, n = params.seed, params.entry_law, params.n
    vectors = [
        [_draw(law, _stream(seed, replica, alpha, level), n) for level in range(params.k)]
        for alpha in range(params.sample_count)
    ]
    entries = np.array(vectors)
    entries.setflags(write=False)
    return BaseSample(entries=entries, params=params)


def test_the_workload_plans_give_the_reference_paths_bytes(monkeypatch):
    # every fast path of a replica (keyed sampling, the in-place Gram, the Levy bracket) against
    # the slow reference it must reproduce bitwise, on one machine and BLAS thread count
    def rows():
        return [repr(sweep_rows(run_sweep(sweep_plan_from_json({**WORKLOADS[name]["plan"], "seed": 4})))) for name in sorted(WORKLOADS)]

    shipped = rows()
    drawn = []  # the binding model_spectra draws through, so the reference does reach the sweep
    monkeypatch.setattr(tensormp.gram, "sample_base", lambda params, replica: drawn.append(replica) or _per_key_sample(params, replica))
    monkeypatch.setattr(tensormp.gram, "build_correlation_gram", lambda s, buffer=None: gram_out_of_place(s, s.params.tau, ModelKind.CORRELATION))
    monkeypatch.setattr(tensormp.experiments, "levy_distance", levy_bisection)
    assert rows() == shipped
    replicas = [point.replicas for name in WORKLOADS for point in sweep_plan_from_json(WORKLOADS[name]["plan"]).points]
    assert len(drawn) == sum(replicas)


@pytest.mark.parametrize("tau", ["constant_one", {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}])
@pytest.mark.parametrize("law", ["complex_gaussian", "real_gaussian", "unit_circle"])
def test_levy_models_bound_equals_the_explicit_matrix_bound(law, tau):
    # A holds the correlation model's tensor vectors, B = A D the covariance model's
    params = make_params(3, 2, 7 / 9, entry_law=law, tau=tau, seed=4)
    sample = sample_base(params, 0)
    _, _, d2 = model_spectra(params, 0, with_comparison=True)
    ys = np.stack([tensor_vector(sample, alpha) for alpha in range(params.sample_count)], axis=1)
    weights = np.sqrt(params.tau.values)
    a = ys / np.linalg.norm(ys, axis=0) * weights
    b = ys / np.sqrt(params.ambient_dim) * weights
    lhs, rhs = levy_distance_trace_bound(a, b)
    bound = _check_levy_models(lhs**0.25, params, d2)
    if params.entry_law.unit_modulus:
        assert bound == 0.0
    else:
        assert bound == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError, match="breaks the trace bound"):
        _check_levy_models(float("nan"), params, d2)


def test_levy_models_beyond_the_trace_bound_raises(monkeypatch):
    monkeypatch.setattr(tensormp.experiments, "levy_distance", lambda f, g: 1.0)
    with pytest.raises(ValueError, match="breaks the trace bound"):
        run_sweep(sweep_plan_from_json({"ns": [6], "c": 0.5, "entry_law": "complex_gaussian", "seed": 2, "replicas": 1}))
    record = run_convergence(sweep_plan_from_json({"ns": [6], "c": 0.5, "seed": 2, "replicas": 1})).records[0]
    assert record.levy_mp == 1.0 and np.isnan(record.levy_models)  # only a coupled replica is checked
    # a unit-modulus law shares one spectrum between the models: 0.0 with no distance taken, still checked
    plan = sweep_plan_from_json({"ns": [6], "c": 0.5, "entry_law": "unit_circle", "seed": 2, "replicas": 1})
    checked = []
    monkeypatch.setattr(tensormp.experiments, "_check_levy_models", lambda levy, params, d2: checked.append(levy))
    assert run_sweep(plan).records[0].levy_models == 0.0 and checked == [0.0]


@pytest.mark.parametrize("law, solves", [("unit_circle", 1), ("complex_gaussian", 2)])
def test_sweep_solves_one_matrix_per_unit_modulus_replica(monkeypatch, law, solves):
    # a unit-modulus covariance Gram is the correlation Gram, so its spectrum is reused
    calls = []
    solve = tensormp.gram._solve_in_place

    def counted(gram):
        calls.append(gram)
        return solve(gram)

    monkeypatch.setattr(tensormp.gram, "_solve_in_place", counted)
    plan = sweep_plan_from_json({"ns": [6, 8], "c": 0.5, "entry_law": law, "seed": 3, "replicas": 2})
    result = run_sweep(plan)
    assert len(calls) == solves * len(result.records)


def test_model_comparison_two_point_regression_bound():
    plan = sweep_plan_from_json({"ns": [30], "c": 0.5, "tau": TWO_POINT_TAU, "seed": 0, "replicas": 5})
    summary = run_sweep(plan).summaries()[0]
    assert summary.mean["levy_models"] < COMPARISON_LEVY_BOUND


def test_sweep_records_and_summaries():
    plan = sweep_plan_from_json({"ns": [6, 8], "c": 0.5, "seed": 1, "replicas": 2})
    result = run_sweep(plan)
    assert len(result.records) == 4
    assert [(r.params.n, r.replica) for r in result.records] == [(6, 0), (6, 1), (8, 0), (8, 1)]
    for record in result.records:
        assert 0.0 <= record.ks_mp <= 1.0
        assert 0.0 <= record.levy_mp <= 1.0
        assert 0.0 <= record.levy_models <= 1.0
        assert all(np.isfinite([record.m1, record.m2, record.m3, record.m4_emp]))
        assert record.ms > 0.0
    summaries = result.summaries()
    assert summaries[0].replicas == 2
    expected = np.mean([r.ks_mp for r in result.records[:2]])
    assert summaries[0].mean["ks_mp"] == pytest.approx(expected, abs=1e-15)


def test_summaries_group_records_by_equal_params():
    # equal but distinct ModelParams objects, as after a JSON round trip
    first, second = make_params(6, 2, 0.5, seed=1), make_params(6, 2, 0.5, seed=1)
    assert first is not second
    records = tuple(
        ReplicaRecord(p, r, ks_mp=ks, levy_mp=ks, levy_models=0.0, m1=0.5, m2=0.75, m3=1.4, m4_emp=2.8, ms=0.0)
        for p, r, ks in ((first, 0, 0.1), (second, 1, 0.3))
    )
    (summary,) = SweepResult(records=records).summaries()
    assert summary.replicas == 2
    assert summary.mean["ks_mp"] == pytest.approx(0.2, abs=1e-15)
    assert summary.se["ks_mp"] == pytest.approx(0.1, abs=1e-15)


def test_sweep_without_constant_tau_has_nan_mp_distances():
    plan = sweep_plan_from_json({"ns": [6], "c": 0.5, "tau": TWO_POINT_TAU, "replicas": 1})
    record = run_sweep(plan).records[0]
    assert np.isnan(record.ks_mp) and np.isnan(record.levy_mp)
    assert 0.0 <= record.levy_models <= 1.0


def _run_sweep_cli(tmp_path, plan, name, *flags) -> Path:
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / name
    assert main(["sweep", "--config", str(plan_path), "--out", str(out), *flags]) == 0
    return out


def test_sweep_csv_is_thread_count_invariant(tmp_path):
    # replicas always run serially; runs of one plan give the same bytes whatever --threads says
    plan = {"ns": [6, 8], "c": 0.5, "seed": 5, "replicas": 3}
    texts = [
        (_run_sweep_cli(tmp_path, plan, f"t{threads}", "--threads", threads) / "sweep.csv").read_text()
        for threads in ("1", "2")
    ]
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert len(lines) == 1 + 2 * 3
    assert lines[0] == "n,k,m,N,c,replica,ks_mp,levy_mp,levy_models,m1,m2,m3,m4_emp,ms"
    assert all(line.endswith(",0.0") for line in lines[1:])  # ms suppressed by default

    timed = (_run_sweep_cli(tmp_path, plan, "timed", "--timings") / "sweep.csv").read_text().splitlines()
    assert any(not line.endswith(",0.0") for line in timed[1:])


def _csv_rows(path: Path) -> list[dict]:
    header, *rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [dict(zip(header.split(","), row.split(","), strict=True)) for row in rows]


def _read_strict_json(path: Path):
    """A written JSON file, parsed as a strict parser would: NaN, Infinity and -Infinity are rejected."""

    def reject(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def _assert_json_rows_match_csv(json_rows: list[dict], csv_path: Path) -> None:
    # value for value: every CSV field is the exact text of the JSON value, and a JSON null a CSV nan
    csv_rows = _csv_rows(csv_path)
    assert len(json_rows) == len(csv_rows) > 0
    for record, row in zip(json_rows, csv_rows):
        assert set(record) == set(row)
        for column, field in row.items():
            value = record[column]
            assert field == ("nan" if value is None else value if isinstance(value, str) else repr(value)), column


def test_sweep_json_rows_match_csv_columns(tmp_path):
    # two-point tau has no limit law: its ks_mp and levy_mp are nan in CSV and null in JSON
    plans = {
        "constant": {"ns": [6], "c": 0.5, "seed": 5, "replicas": 2},
        "two_point": {"ns": [6], "c": 0.5, "tau": TWO_POINT_TAU, "seed": 5, "replicas": 2},
    }
    for name, plan in plans.items():
        csv_path = _run_sweep_cli(tmp_path, plan, f"{name}-csv") / "sweep.csv"
        json_path = _run_sweep_cli(tmp_path, plan, f"{name}-json", "--format", "json") / "sweep.json"
        assert tuple(csv_path.read_text().splitlines()[0].split(",")) == SWEEP_COLUMNS
        records = _read_strict_json(json_path)
        assert len(records) == 2 and all(set(record) == set(SWEEP_COLUMNS) for record in records)
        nulls = {column for record in records for column, value in record.items() if value is None}
        assert nulls == (set() if name == "constant" else {"ks_mp", "levy_mp"})
        _assert_json_rows_match_csv(records, csv_path)


def test_sweep_prints_each_points_mean_and_se_of_its_json_rows(tmp_path, capsys):
    plan = {"ns": [6, 8], "c": 0.5, "seed": 7, "replicas": 3}
    rows = _read_strict_json(_run_sweep_cli(tmp_path, plan, "json", "--format", "json") / "sweep.json")
    expected = []
    for n in (6, 8):
        point = [row for row in rows if row["n"] == n]
        assert len(point) == 3
        first = point[0]
        line = f"n={n} k={first['k']} m={first['m']} N={first['N']}:"
        for column in ("ks_mp", "levy_models"):
            values = np.array([row[column] for row in point])
            mean, se = float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))
            line += f" {column}={mean:.5f}(se {se:.5f})"
        expected.append(line)
    assert capsys.readouterr().out.splitlines() == expected
    summaries = run_sweep(sweep_plan_from_json(plan)).summaries()
    assert MEASURED_COLUMNS == SWEEP_COLUMNS[SWEEP_COLUMNS.index("replica") + 1 :]
    assert all(tuple(s.mean) == tuple(s.se) == MEASURED_COLUMNS for s in summaries)


def _simulate(tmp_path, config, name, *flags) -> Path:
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / name
    assert main(["simulate", "--config", str(config_path), "--out", str(out), *flags]) == 0
    return out


def test_simulate_json_rows_match_csv_rows(tmp_path):
    config = {"n": 3, "k": 2, "c": 1.5, "model": "covariance", "entry_law": "real_gaussian", "seed": 5, "replicas": 2}
    csv_out = _simulate(tmp_path, config, "csv", "--bins", "9")
    json_out = _simulate(tmp_path, config, "json", "--bins", "9", "--format", "json")
    assert sorted(p.name for p in json_out.iterdir()) == ["eigenvalues.json", "histogram.json"]
    grouped = _read_strict_json(json_out / "eigenvalues.json")
    assert [group["replica"] for group in grouped] == [0, 1]
    flat = [
        {"replica": group["replica"], "index": index, "eigenvalue": value}
        for group in grouped
        for index, value in enumerate(group["eigenvalues"])
    ]
    _assert_json_rows_match_csv(flat, csv_out / "eigenvalues.csv")
    histogram = _read_strict_json(json_out / "histogram.json")
    assert len(histogram) == 9
    _assert_json_rows_match_csv(histogram, csv_out / "histogram.csv")


def _materialized_histogram_rows(dists, bins):
    """The simulate histogram with every implied zero written out as an array element."""
    pooled = np.concatenate([np.concatenate([d.atoms, np.zeros(d.implied_zeros)]) for d in dists])
    counts, edges = np.histogram(pooled, bins=bins)
    rows = []
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        density = count / (pooled.size * (right - left)) if right > left else 0.0
        rows.append(dict(bin_left=float(left), bin_right=float(right), count=int(count), density_estimate=float(density)))
    return rows


@pytest.mark.parametrize("bins", [1, 7, 50])
@pytest.mark.parametrize(
    "spectra",
    [
        [(np.array([0.25, 0.5, 1.75, 2.0]), 4)],  # no implied zero
        [(np.zeros(3), 9), (np.zeros(2), 2)],  # every value 0: lo == hi
        [(np.array([0.0, 0.3, 1.2]), 11), (np.array([0.7, 0.7, 2.5]), 3), (np.array([1.2, 4.0]), 30)],
    ],
    ids=["no_zeros", "all_zero", "three_replicas"],
)
def test_histogram_counts_the_implied_zeros_as_the_materialized_array_does(spectra, bins):
    dists = [tensormp.gram.SpectralDistribution(atoms, dim) for atoms, dim in spectra]
    assert repr(tensormp.cli._histogram_rows(dists, bins)) == repr(_materialized_histogram_rows(dists, bins))


def test_histogram_memory_does_not_grow_with_the_implied_zeros():
    # N = 10^6 implied zeros per replica would be 8 MB each as float64 elements
    atoms = np.linspace(0.0, 3.0, 50)
    dists = [tensormp.gram.SpectralDistribution(atoms, 10**6) for _ in range(3)]
    tracemalloc.start()
    try:
        rows = tensormp.cli._histogram_rows(dists, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(row["count"] for row in rows) == 3 * 10**6
    assert peak < 100_000, peak


def test_simulate_runs_the_replica_pipeline_once_per_replica(tmp_path, monkeypatch):
    calls = []
    evaluate = tensormp.experiments._evaluate_replica

    def counted(params, replica, **kwargs):
        calls.append((replica, kwargs["with_comparison"]))
        return evaluate(params, replica, **kwargs)

    monkeypatch.setattr(tensormp.experiments, "_evaluate_replica", counted)
    _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "model": "covariance", "seed": 3, "replicas": 3}, "sim")
    assert calls == [(replica, False) for replica in range(3)]


def test_every_replica_of_a_cli_command_builds_in_one_buffer(tmp_path, monkeypatch):
    buffers = []
    spectra = tensormp.experiments.model_spectra

    def recorded(params, replica, *, with_comparison, buffer):
        buffers.append(buffer)
        return spectra(params, replica, with_comparison=with_comparison, buffer=buffer)

    monkeypatch.setattr(tensormp.experiments, "model_spectra", recorded)
    _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "model": "covariance", "seed": 3, "replicas": 3}, "sim")
    assert len(buffers) == 3 and buffers[0] is not None and all(b is buffers[0] for b in buffers)
    buffers.clear()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"ns": [5, 7], "c": 0.5, "seed": 3, "replicas": 2}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")]) == 0
    assert len(buffers) == 4 and buffers[0] is not None and all(b is buffers[0] for b in buffers)


def test_simulate_prints_the_convergence_distances(tmp_path, capsys):
    config = {"n": 8, "k": 2, "c": 0.5, "seed": 3, "replicas": 3}
    _simulate(tmp_path, config, "sim")
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  replica")]
    records = run_convergence(SweepPlan(points=(params_from_json(config),))).records
    assert printed == [f"  replica {r.replica}: ks_mp={r.ks_mp:.6f} levy_mp={r.levy_mp:.6f}" for r in records]


def test_selftest_json_rows_match_csv_rows(tmp_path, capsys):
    for fmt in ("csv", "json"):
        assert main(["selftest", "--out", str(tmp_path), "--format", fmt]) == 0
    table = capsys.readouterr().out.splitlines()
    records = _read_strict_json(tmp_path / "selftest.json")
    assert [line.split()[:2] for line in table[1 : 1 + len(records)]] == [[r["check"], r["status"]] for r in records]
    assert table == 2 * table[: len(table) // 2]  # the printed table is the same for both formats
    _assert_json_rows_match_csv(records, tmp_path / "selftest.csv")


def test_mp_json_rows_match_csv_rows(tmp_path):
    for fmt in ("csv", "json"):
        assert main(["mp", "--c", "2.0", "--points", "17", "--out", str(tmp_path), "--format", fmt]) == 0
    records = _read_strict_json(tmp_path / "mp_grid.json")
    assert len(records) == 17
    _assert_json_rows_match_csv(records, tmp_path / "mp_grid.csv")


def test_distance_json_rows_match_csv_rows(tmp_path):
    a = _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "seed": 3, "replicas": 2}, "a")
    b = _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "seed": 4, "replicas": 3}, "b")
    dumps = ["--a", str(a / "eigenvalues.csv"), "--b", str(b / "eigenvalues.csv")]
    for fmt in ("csv", "json"):
        assert main(["distance", *dumps, "--out", str(tmp_path / "d"), "--format", fmt]) == 0
    records = _read_strict_json(tmp_path / "d" / "distances.json")
    assert [(r["replica"], r["metric"]) for r in records] == [(0, "ks"), (0, "levy"), (1, "ks"), (1, "levy")]
    _assert_json_rows_match_csv(records, tmp_path / "d" / "distances.csv")


def _assert_input_error(capsys, argv, pattern):
    """main exits as argparse does on a bad flag: status 2 and one line on stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(f"tensormp {argv[0]}: error: {pattern}\n", err), err


def test_distance_rejects_a_dump_without_the_ambient_dimension(tmp_path, capsys):
    good = _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "seed": 3, "replicas": 1}, "good") / "eigenvalues.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text(good.read_text().replace(" N=36", ""))
    capsys.readouterr()
    argv = ["distance", "--a", str(bad), "--b", str(good), "--out", str(tmp_path)]
    _assert_input_error(capsys, argv, r".*bad\.csv: eigenvalue dump header lacks N=, the ambient dimension")


@pytest.mark.parametrize(
    "cut, pattern",
    [
        # the header and the first two rows of an m=18 dump, scored against the whole dump
        (lambda text: "\n".join(text.splitlines()[:4]) + "\n", r"replica 0 has 2 eigenvalue rows, but the header says m=18"),
        (lambda text: text.replace(" m=18", ""), r"eigenvalue dump header lacks m=, the sample count"),
    ],
    ids=["truncated", "no_m"],
)
def test_distance_rejects_a_dump_that_does_not_hold_m_rows(tmp_path, capsys, cut, pattern):
    good = _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "seed": 3, "replicas": 1}, "good") / "eigenvalues.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text(cut(good.read_text()))
    capsys.readouterr()
    argv = ["distance", "--a", str(bad), "--b", str(good), "--out", str(tmp_path / "d")]
    _assert_input_error(capsys, argv, rf".*bad\.csv: {pattern}")
    assert not (tmp_path / "d").exists()


def test_distance_rejects_a_json_dump(tmp_path, capsys):
    config = {"n": 6, "k": 2, "c": 0.5, "seed": 3, "replicas": 1}
    good = _simulate(tmp_path, config, "good") / "eigenvalues.csv"
    dump = _simulate(tmp_path, config, "json", "--format", "json") / "eigenvalues.json"
    capsys.readouterr()
    argv = ["distance", "--a", str(good), "--b", str(dump), "--out", str(tmp_path)]
    _assert_input_error(capsys, argv, r".*eigenvalues\.json: .*reads the CSV dump written by simulate --format csv")


@pytest.mark.parametrize(
    "command, document, flags, pattern",
    [
        ("simulate", {"n": 6, "k": 2, "c": 0.5, "entrylaw": "rademacher"}, [], r"point config has unknown key\(s\) 'entrylaw'; .*"),
        ("simulate", None, [], r"\[Errno 2\] No such file or directory: '.*missing\.json'"),
        ("simulate", '{"n": 6,', [], r".*config\.json: Expecting property name .*"),
        ("sweep", {"ns": [6], "c": 0.5, "entrylaw": "rademacher"}, [], r"sweep plan has unknown key\(s\) 'entrylaw'; .*"),
        ("sweep", {"points": [[6, 2, 0.5]]}, ["--seed", "3"], r"sweep plan key 'points' must be a list of JSON objects, .*"),
        ("sweep", '{"ns": [6] "c": 0.5}', [], r".*config\.json: Expecting ',' delimiter.*"),
        ("sweep", {"ns": [6], "c": 0.5, "out": 3}, [], r"sweep plan key 'out' must be a string, got 3"),
        ("simulate", {"n": 6, "k": 2, "c": 0.5, "replicas": 2**20 + 1}, [], r"replicas must be .* at most 2\^20 = 1048576, .*"),
        ("simulate", {"n": 6, "k": 2, "c": 0.5}, ["--bins", "0"], r"--bins must be at least 1, got 0"),
        # a histogram of 3e9 bins would fail at the allocator, after every replica has run
        ("simulate", {"n": 6, "k": 2, "c": 0.5}, ["--bins", "3000000000"], r"--bins must be at most 2\^20 = 1048576, got 3000000000"),
        ("simulate", {"n": 6, "k": 2, "c": 0.5}, ["--bins", str(2**20 + 1)], r"--bins must be at most 2\^20 = 1048576, got 1048577"),
        ("simulate", {"n": 6, "k": 2, "c": 0.5, "tau": {"kind": ["x"]}}, [], r"tau key 'kind' must be one of .*, got \['x'\]"),
        ("simulate", {"n": 6, "k": 2, "c": 0.5, "tau": {"kind": {"a": 1}}}, [], r"tau key 'kind' must be one of .*"),
        ("simulate", {"n": 6, "k": 2, "c": 0.5, "tau": {"kind": 3}}, [], r"tau key 'kind' must be one of .*, got 3"),
        ("simulate", {"n": 6, "k": 2, "c": 0.5, "tau": "bogus"}, [], r"tau key 'kind' must be one of .*, got 'bogus'"),
        # m = floor(c*N + 0.5) is rounded in float64: an infinite, unindexable or unallocatable m
        ("simulate", {"n": 10, "k": 10, "c": 1e308}, [], r"sample count c\*N \+ 0\.5 = inf is not below 2\^53"),
        ("simulate", {"n": 2, "k": 1, "c": 1e300}, [], r"sample count c\*N \+ 0\.5 = 2e\+300 is not below 2\^53"),
        ("simulate", {"n": 2, "k": 1, "c": 1e18}, [], r"sample count c\*N \+ 0\.5 = 2e\+18 is not below 2\^53"),
        ("sweep", {"ns": [2], "c": 1e18, "k_schedule": {"kind": "fixed", "k": 1}}, [], r"sample count .* not below 2\^53"),
        # a point past desk scale is refused before its tau or its Gram is built; both Grams
        # would be petabytes, so without the bound the run fails at the allocator, not slowly
        ("simulate", {"n": 2, "k": 25, "c": 0.5}, [], r"sample count m = 16777216 exceeds the desk-scale bound 2\^13 = 8192"),
        ("sweep", {"ns": [6, 4096], "c": 0.5}, [], r"sample count m = 8388608 exceeds the desk-scale bound 2\^13 = 8192"),
    ],
)
def test_cli_reports_a_bad_input_file_in_one_line(tmp_path, capsys, command, document, flags, pattern):
    path = tmp_path / ("missing.json" if document is None else "config.json")
    if document is not None:
        path.write_text(document if isinstance(document, str) else json.dumps(document))
    _assert_input_error(capsys, [command, "--config", str(path), "--out", str(tmp_path), *flags], pattern)
    assert not (tmp_path / "eigenvalues.csv").exists() and not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "flags, pattern",
    [
        (["--c", "-1"], r"ratio c must be positive and finite"),
        (["--c", "0.5", "--moments", "1,x"], r"--moments must be comma-separated integers, got '1,x'"),
        (["--c", "0.5", "--points", "1"], r"--points must be at least 2, got 1"),
        (["--c", "0.5", "--points", "3000000000"], r"--points must be at most 2\^20 = 1048576, got 3000000000"),
        (["--c", "0.5", "--points", str(2**20 + 1)], r"--points must be at most 2\^20 = 1048576, got 1048577"),
        (["--c", "0.5", "--points", "3", "--lo", "nan"], r"the grid needs finite bounds lo < hi, got lo=nan, .*"),
        (["--c", "0.5", "--lo", "5", "--hi", "1"], r"the grid needs finite bounds lo < hi, got lo=5\.0, hi=1\.0"),
    ],
)
def test_cli_reports_a_bad_mp_flag_in_one_line(tmp_path, capsys, flags, pattern):
    _assert_input_error(capsys, ["mp", *flags, "--out", str(tmp_path)], pattern)
    assert not (tmp_path / "mp_grid.csv").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_cli_reports_a_selftest_seed_out_of_range_in_one_line(tmp_path, capsys, seed):
    argv = ["selftest", "--seed", str(seed), "--out", str(tmp_path)]
    _assert_input_error(capsys, argv, rf"--seed must fit in 64 unsigned bits, got {seed}")
    assert not (tmp_path / "selftest.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "mp", "distance", "selftest"])
def test_cli_reports_an_unusable_out_before_any_work(tmp_path, capsys, monkeypatch, command):
    config = tmp_path / "config.json"
    if command == "sweep":
        config.write_text(json.dumps({"ns": [6], "c": 0.5, "seed": 1, "replicas": 1}))
    else:
        config.write_text(json.dumps({"n": 6, "k": 2, "c": 0.5, "seed": 1, "replicas": 1}))
    dump = _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "seed": 3, "replicas": 1}, "good") / "eigenvalues.csv"
    capsys.readouterr()
    for work in ("run_replicas", "run_sweep", "selftest"):
        monkeypatch.setattr(tensormp.cli, work, lambda *args, name=work, **kwargs: pytest.fail(f"{name} ran"))
    flags = {
        "simulate": ["--config", str(config)],
        "sweep": ["--config", str(config)],
        "mp": ["--c", "0.5"],
        "distance": ["--a", str(dump), "--b", str(dump)],
        "selftest": ["--seed", "0"],
    }[command]
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    _assert_input_error(capsys, [command, *flags, "--out", str(taken)], r"\[Errno 17\] File exists: '.*taken'")
    assert taken.read_text() == "a file, not a directory\n"
    # each file the command writes, in either format, is checked along with the directory
    written = {
        "simulate": ["eigenvalues", "histogram"],
        "sweep": ["sweep"],
        "mp": ["mp_grid"],
        "distance": ["distances"],
        "selftest": ["selftest"],
    }[command]
    for fmt in ("csv", "json"):
        for name in written:
            out = tmp_path / f"{name}-{fmt}"
            (out / f"{name}.{fmt}").mkdir(parents=True)
            argv = [command, *flags, "--out", str(out), "--format", fmt]
            _assert_input_error(capsys, argv, rf"output file .*{name}-{fmt}/{name}\.{fmt} is a directory")
            assert [path.name for path in out.iterdir()] == [f"{name}.{fmt}"]


@pytest.mark.parametrize(
    "header, rows, pattern",
    [
        ("N=2", "5,0,0.5\n5,1,0.5", r"no shared replica indices between the two dumps"),
        ("N=2", "0,0,0.5\n0,1,nan", r".*other\.csv:4: malformed eigenvalue dump line '0,1,nan': .*not finite"),
        ("N=2", "0,0,0.5\n0,1,inf", r".*other\.csv:4: malformed eigenvalue dump line '0,1,inf': .*not finite"),
        ("N=0", "0,0,0.5\n0,1,0.5", r"ambient dimension must be at least 1"),
        ("N=1", "0,0,0.5\n0,1,1.5", r"rank bound violated: too few near-zero eigenvalues for m > N"),
        ("N=2", "0,0,0.5\n0,1,0.5\n0,2,0.5", r".*other\.csv: replica 0 has 3 eigenvalue rows, but the header says m=2"),
        ("N=2", "0,0,0.5\n0,0,0.5", r".*other\.csv: replica 0 rows are not indexed 0\.\.1 in order"),
        ("N=2", "0,1,0.5\n0,0,0.5", r".*other\.csv: replica 0 rows are not indexed 0\.\.1 in order"),
    ],
    ids=["no_shared_replica", "nan", "inf", "N=0", "rank_bound", "long", "repeated_index", "unordered"],
)
def test_distance_reports_dumps_without_a_shared_replica_in_one_line(tmp_path, capsys, header, rows, pattern):
    # the other cases are dumps it cannot score: each is reported before any output, as a missing replica is
    good = _simulate(tmp_path, {"n": 6, "k": 2, "c": 0.5, "seed": 3, "replicas": 1}, "good") / "eigenvalues.csv"
    other = tmp_path / "other.csv"
    other.write_text(f"# n=2 k=1 m=2 {header} model=correlation seed=0\nreplica,index,eigenvalue\n{rows}\n")
    capsys.readouterr()
    argv = ["distance", "--a", str(good), "--b", str(other), "--out", str(tmp_path / "d")]
    _assert_input_error(capsys, argv, pattern)
    assert not (tmp_path / "d").exists()


def test_cli_lets_an_error_of_the_computation_propagate(tmp_path, monkeypatch):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"ns": [6], "c": 0.5, "seed": 2, "replicas": 1}))
    monkeypatch.setattr(tensormp.experiments, "levy_distance", lambda f, g: 1.0)
    with pytest.raises(ValueError, match="breaks the trace bound"):
        main(["sweep", "--config", str(plan_path), "--out", str(tmp_path)])


def test_eigenvalue_dump_rejects_a_short_row(tmp_path):
    path = tmp_path / "eigs.csv"
    path.write_text("# n=2 k=1 m=1 N=2 model=correlation seed=0\nreplica,index,eigenvalue\n0,0.5\n")
    with pytest.raises(ValueError, match=r"eigs\.csv:3: .*'0,0\.5'.*expected 3 fields"):
        read_eigenvalue_csv(path)


def test_sphere_model_requires_gaussian_law():
    params = make_params(6, 2, 0.5, entry_law="unit_circle", replicas=1)
    with pytest.raises(ValueError, match="Gaussian"):
        run_sphere_model(params)


@pytest.mark.parametrize(
    "point, message",
    [
        (make_params(6, 2, 0.5, tau={"kind": "two_point", "a": 1.0, "b": 5.0, "weight": 0.5}), "tau identically"),
        (make_params(6, 2, 0.5, model="covariance"), "requires the correlation model"),
    ],
)
def test_sphere_model_takes_only_limit_law_points(point, message):
    # the same preconditions as a convergence sweep: the limit law is not the reference elsewhere
    with pytest.raises(ValueError, match=message):
        run_sphere_model(point)
    with pytest.raises(ValueError, match=message):
        run_convergence(SweepPlan(points=(point,)))


def test_sphere_model_matches_correlation_gram():
    params = make_params(8, 2, 0.5, seed=2, replicas=2)
    report = run_sphere_model(params)
    assert report.max_gram_deviation <= 1e-12
    mean, se = report.ks_stats()
    assert 0.0 <= mean <= 1.0 and se >= 0.0


def test_a_nan_gram_deviation_is_the_sphere_reports_maximum():
    # a NaN replica must fail the deviation bound wherever it falls, as np.max propagates it
    params = make_params(8, 2, 0.5, replicas=3)
    for deviations in [(0.0, float("nan"), 1e-15), (float("nan"), 0.0, 1e-15), (0.0, 1e-15, float("nan"))]:
        report = SphereReport(params, gram_deviations=deviations, ks_distances=(0.1, 0.2, 0.3))
        assert np.isnan(report.max_gram_deviation) and not report.max_gram_deviation <= 1e-12
    assert SphereReport(params, (0.0, 2e-15, 1e-15), (0.1, 0.2, 0.3)).max_gram_deviation == 2e-15


def test_a_sphere_replica_holds_at_most_three_gram_sized_arrays():
    # one Gram is solved before the other is built, and both go before the next replica
    run_sphere_model(make_params(6, 2, 0.5, replicas=1))
    params = make_params(30, 2, 0.5, seed=3, replicas=2)
    tracemalloc.start()
    try:
        run_sphere_model(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.sample_count == 450
    assert peak <= 3.4 * params.sample_count**2 * 16


def test_selftest_passes_and_reports():
    rows = selftest(seed=0)
    assert all(c.passed for c in rows)
    assert {type(c) for c in rows} == {type(require("probe", 0.0, 1.0, "unused"))} == {Check}


@pytest.mark.parametrize("seed", [0, 3])
def test_selftest_rows_pass_exactly_when_the_gap_is_within_the_bound(tmp_path, capsys, seed):
    assert main(["selftest", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "selftest.csv")
    assert list(rows[0]) == ["check", "status", "gap", "bound"]
    for row in rows:
        gap, bound = float(row["gap"]), float(row["bound"])
        assert row["status"] == ("PASS" if gap <= bound else "FAIL"), row
        assert not np.signbit(gap), row  # no -0.0
    # a Monte Carlo margin, not the 1e-12 floor of an exact second moment
    assert float(next(row for row in rows if row["check"] == "entry_law_moments")["bound"]) > 1e-6
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["check", "status", "gap", "bound"]
    assert [line.split()[:2] for line in table[1:]] == [[row["check"], row["status"]] for row in rows]
    assert "gram_oracle_equivalence" in table[1] and not any("FAIL" in line for line in table)


def test_selftest_catches_a_corrupted_density(monkeypatch):
    original = tensormp.mp._density_integral

    def broken(law, t):
        return original(law, t) * (2.0 * np.pi)  # drop the 1/(2 pi)

    monkeypatch.setattr(tensormp.mp, "_density_integral", broken)
    rows = selftest(seed=0)
    assert not all(c.passed for c in rows)
    failed = {c.name for c in rows if not c.passed}
    assert "mp_normalization" in failed
    assert all(c.passed == (c.gap <= c.bound) for c in rows)


def test_a_nan_gap_fails_its_selftest_row(monkeypatch):
    monkeypatch.setattr(tensormp.mp, "density_mass", lambda law: float("nan"))
    row = tensormp.experiments._check_mp_normalization(0)
    assert np.isnan(row.gap) and not row.passed


def test_the_gram_oracle_row_draws_each_point_once_on_each_path(monkeypatch):
    # the dense oracle draws the sample once, and one model_spectra call solves both models of it
    drawn = {"experiments": [], "gram": []}

    def counted(seen):
        return lambda params, replica: seen.append((params.n, params.k, params.sample_count, replica)) or sample_base(params, replica)

    for module, seen in drawn.items():
        monkeypatch.setattr(getattr(tensormp, module), "sample_base", counted(seen))
    assert tensormp.experiments._check_gram_oracle(0).passed
    assert drawn["gram"] == drawn["experiments"]
    assert len(drawn["gram"]) == len(set(drawn["gram"])) == 5


def test_single_fold_reduces_to_classical_model():
    k_schedule = {"kind": "fixed", "k": 1}
    plan = sweep_plan_from_json({"ns": [24], "c": 0.5, "k_schedule": k_schedule, "seed": 4, "replicas": 2})
    result = run_convergence(plan)
    summary = result.summaries()[0]
    assert summary.mean["ks_mp"] < 0.2
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
    records = _read_strict_json(tmp_path / "sweep.json")
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
    "argv",
    [
        ["mp", "--c", "0.5", "--seed", "3"],
        ["distance", "--a", "a", "--b", "b", "--threads", "2"],
        ["simulate", "--config", "point.json", "--threads", "2"],
        ["mp", "--c", "0.5", "--timings"],
    ],
)
def test_cli_rejects_flags_a_subcommand_never_reads(argv, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--out", str(tmp_path)])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("n, warned", [(2, True), (4, False)])  # k/n = 1, and the boundary k/n = 0.5
def test_cli_warns_outside_the_fold_regime(tmp_path, capsys, n, warned):
    warning = "warning: k/n = 1.000 is outside the asymptotic regime\n"
    _simulate(tmp_path, {"n": n, "k": 2, "c": 0.5, "seed": 1, "replicas": 1}, "sim")
    assert capsys.readouterr().err == (warning if warned else "")
    _run_sweep_cli(tmp_path, {"ns": [n], "c": 0.5, "seed": 1, "replicas": 1}, "sweep")
    assert capsys.readouterr().err == (warning if warned else "")


def test_cli_seed_override_reaches_every_point_of_a_points_plan(tmp_path):
    points = [{"n": 6, "k": 2, "c": 0.5, "seed": 3}, {"n": 8, "k": 1, "c": 0.5}]
    _run_sweep_cli(tmp_path, {"points": points, "replicas": 1}, "override", "--seed", "9")
    seeded = [{**point, "seed": 9} for point in points]
    _run_sweep_cli(tmp_path, {"points": seeded, "replicas": 1}, "seeded")
    assert (tmp_path / "override" / "sweep.csv").read_bytes() == (tmp_path / "seeded" / "sweep.csv").read_bytes()


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
