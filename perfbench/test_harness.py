"""Self-tests of the benchmark harness: the output checks must catch broken
rows, the tracer must survive targets that no longer exist, and a comparison
must name every machine field that differs.

Run with: python3 -m pytest perfbench/test_harness.py
"""

import json

import pytest

import checks
import compare
import tracer

UNIT_CIRCLE_PLAN = {
    "ns": [8],
    "c": 0.05,
    "k_schedule": {"kind": "fixed", "k": 4},
    "entry_law": "unit_circle",
    "tau": "constant_one",
    "replicas": 2,
    "seed": 1,
}
TWO_POINT_PLAN = {
    "ns": [4],
    "c": 0.5,
    "k_schedule": {"kind": "fixed", "k": 2},
    "entry_law": "real_gaussian",
    "tau": {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5},
    "replicas": 1,
    "seed": 1,
}
HEADER = "n,k,m,N,c,replica,ks_mp,levy_mp,levy_models,m1,m2,m3,m4_emp,ms"


def _row(n, k, m, dim, c, replica, ks, levy, models, m1):
    return f"{n},{k},{m},{dim},{c!r},{replica},{ks!r},{levy!r},{models!r},{m1!r},0.1,0.1,0.1,0.0"


def _unit_circle_csv(m1=205 / 4096, models=0.0) -> str:
    rows = [_row(8, 4, 205, 4096, 0.05, r, 0.0007, 0.0006, models if r == 1 else 0.0, m1 if r == 1 else 205 / 4096)
            for r in range(2)]
    return "\n".join([HEADER, *rows]) + "\n"


def test_plan_points_round_like_the_package():
    assert checks.plan_points(UNIT_CIRCLE_PLAN) == [checks.Point(n=8, k=4, m=205, N=4096, c=0.05)]
    assert checks.tau_sum(TWO_POINT_PLAN["tau"], 8) == 4 * 1.0 + 4 * 2.0


def test_valid_rows_pass():
    text = _unit_circle_csv()
    result = checks.check_sweep(text, UNIT_CIRCLE_PLAN, reference=text)
    assert (result.attempted, result.failed) == (2, 0)


def test_m1_off_by_1e6_fails():
    result = checks.check_sweep(_unit_circle_csv(m1=205 / 4096 + 1e-6), UNIT_CIRCLE_PLAN)
    assert result.failed == 1
    assert result.failures == {1: ["trace identity"]}


def test_unit_circle_levy_models_nonzero_fails():
    result = checks.check_sweep(_unit_circle_csv(models=1e-3), UNIT_CIRCLE_PLAN)
    assert result.failures == {1: ["unit-modulus levy_models"]}


def test_distance_defined_only_for_constant_tau():
    m1 = 12.0 / 16
    good = "\n".join([HEADER, _row(4, 2, 8, 16, 0.5, 0, float("nan"), float("nan"), 0.01, m1)])
    assert checks.check_sweep(good, TWO_POINT_PLAN).failed == 0
    bad = "\n".join([HEADER, _row(4, 2, 8, 16, 0.5, 0, 0.01, float("nan"), 0.01, m1)])
    assert checks.check_sweep(bad, TWO_POINT_PLAN).failures == {0: ["distance range"]}


def test_levy_above_ks_missing_rows_and_reference_mismatch_fail():
    text = _unit_circle_csv()
    swapped = text.replace("0.0007,0.0006", "0.0006,0.0007")
    assert checks.check_sweep(swapped, UNIT_CIRCLE_PLAN).failed == 2
    truncated = "\n".join(text.splitlines()[:2]) + "\n"
    assert checks.check_sweep(truncated, UNIT_CIRCLE_PLAN).failures == {1: ["missing row"]}
    other = text.replace("0.0006", "0.00061", 1)
    assert checks.check_sweep(other, UNIT_CIRCLE_PLAN, reference=text).failures == {0: ["differs from reference run"]}


def test_tracer_reports_absent_targets_and_nests_spans():
    import types
    import sys

    module = types.ModuleType("tracedpkg")
    alias = types.ModuleType("tracedpkg.alias")

    def inner(x):
        return x + 1

    def outer(x):
        if x < 0:
            module.inner(x)
            raise ValueError("negative")
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    alias.inner = inner  # a second binding of the same function
    sys.modules["tracedpkg"], sys.modules["tracedpkg.alias"] = module, alias
    try:
        t = tracer.Tracer()
        t.install({
            "inner": (["tracedpkg:inner", "tracedpkg:gone", "tracedpkg.missing:f"], None),
            "outer": (["tracedpkg:outer"], lambda args, kwargs, result: {"value": result}),
        })
        assert module.outer(1) == 4 and alias.inner(1) == 2
        with pytest.raises(ValueError):
            module.outer(-1)
    finally:
        del sys.modules["tracedpkg"], sys.modules["tracedpkg.alias"]
    dump = json.loads(json.dumps(t.dump()))
    assert dump["absent"] == ["tracedpkg:gone", "tracedpkg.missing:f"]
    summary = tracer.summarize(dump)
    assert summary["inner"]["calls"] == 3 and summary["outer"]["calls"] == 2
    assert summary["outer"]["work"] == {"value": 4}  # a call that raised counts no work
    outer_spans = [s for s in dump["spans"] if s["name"] == "outer"]
    assert [s["raised"] for s in outer_spans] == [False, True]
    for span in outer_spans:
        nested = [s for s in dump["spans"] if s["parent"] == span["id"]]
        assert [s["name"] for s in nested] == ["inner"]
    assert summary["sampling"]["calls"] == 0  # a package target absent from this trace reads zero


def test_compare_warns_on_each_differing_machine_field(tmp_path):
    machine = {"cpu_count": 2, "numpy": "2.4.6", "OPENBLAS_NUM_THREADS": None, "seed": 1}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    base = {"workload": "w", "trace": 0, "machine": machine, "result": result}
    new = dict(base, machine=dict(machine, numpy="2.5.0", OPENBLAS_NUM_THREADS="1"))
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "new.json").write_text(json.dumps(new))
    lines = compare.compare(tmp_path / "base.json", tmp_path / "new.json")
    warnings = [line for line in lines if "warning" in line]
    assert len(warnings) == 2
    assert "'OPENBLAS_NUM_THREADS'" in warnings[0] and "'numpy'" in warnings[1]
    assert not any("warning" in line for line in compare.compare(tmp_path / "base.json", tmp_path / "base.json"))
