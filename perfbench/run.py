"""tensormp benchmark: timed sweeps through the public CLI, with checked output.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_c05 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fold_pool_uc --seed 1 --seconds 30 --trace 1 --save out.json

Each workload in ``workloads.json`` is a sweep plan; ``--seed`` is written
into it as the plan seed, so the same seed gives the same inputs. The plan is
written as ``plan.json`` and every measurement runs in a fresh interpreter
(``child.py``) that imports the package from ``src/`` and calls
``tensormp.cli.main(["sweep", ...])`` in-process. Sweeps run one after
another (a closed loop with one client) until ``--seconds`` is spent, with at
least three per run.

``--trace 0`` reports the end-to-end metrics, the times as medians over the run:
``wall_s`` (the CLI sweep call, writing sweep.csv included), ``setup_s``
(import of ``tensormp.cli`` with numpy, plus loading and validating the plan)
and ``peak_rss_mb`` (the largest ``ru_maxrss`` of the run's sweep processes;
a pooled sweep's peak depends on how its replicas overlap, so the median
would flip between modes from run to run). Pooled workloads
also run one serial sweep first, untimed, as the reference their output must
equal byte for byte.

``--trace 1`` runs untraced sweeps for ``--seconds``, then one serial sweep
with the span tracer installed, and reports the per-layer split (see
``tracer.py``); the traced sweep's output must equal the untraced ones.

Every written sweep.csv is checked (see ``checks.py``); failed replicas are
reported as ``failed`` out of ``attempted`` and as ``failed_ratio`` in the
summary. The last line of standard output is the result as JSON. ``--save``
also writes the full record: machine block, every sample, failure reasons
and, when traced, the spans. Compare two saved records with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MIN_SWEEPS = 3
SETUPS_FIRST = 4  # set-up-only interpreters before the first sweep
SETUPS_BETWEEN = 2  # and after each timed sweep, so set-up samples span the run
CHILD_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def machine_block(seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
        lapack = f"{deps['lapack']['name']} {deps['lapack']['version']}"
    except (TypeError, KeyError):
        blas = lapack = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "lapack": lapack,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


class Runner:
    """Starts the measured interpreters and checks what they write."""

    def __init__(self, run_dir: Path, plan: dict):
        self.run_dir = run_dir
        self.plan = plan
        self.plan_path = run_dir / "plan.json"
        self.plan_path.write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.reference: str | None = None
        self.setups: list[float] = []

    def child(self, threads: int, *, setup_only: bool = False, trace: bool = False) -> dict:
        self.count += 1
        out = self.run_dir / f"out{self.count}"
        result_path = self.run_dir / f"result{self.count}.json"
        spans_path = self.run_dir / f"spans{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.plan_path), str(out), str(threads), str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", str(spans_path)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"measured interpreter exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not result_path.exists():
            raise HarnessError(f"measured interpreter failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        if not Path(result["package"]).resolve().is_relative_to(SRC):
            raise HarnessError(f"imported tensormp from {result['package']}, not from {SRC}")
        self.setups.append(result["setup_s"])
        if trace:
            result["trace"] = json.loads(spans_path.read_text())
        if not setup_only:
            sweep = out / "sweep.csv"
            result["csv"] = sweep.read_text() if result["error"] is None and sweep.is_file() else None
            shutil.rmtree(out, ignore_errors=True)
            self._check(result)
        return result

    def _check(self, result: dict) -> None:
        attempted = len(checks.plan_points(self.plan)) * int(self.plan["replicas"])
        self.attempted += attempted
        if result["csv"] is None:
            self.failed += attempted
            self.reasons["sweep raised or wrote no sweep.csv"] = self.reasons.get("sweep raised or wrote no sweep.csv", 0) + attempted
            return
        if self.reference is None:
            self.reference = result["csv"]
        check = checks.check_sweep(result["csv"], self.plan, reference=self.reference)
        self.failed += check.failed
        for reason, count in check.reasons().items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    def timed_sweeps(self, threads: int, seconds: float, setups_between: int = 0) -> list[dict]:
        """Closed loop: the next sweep starts when the previous has exited."""
        start = time.perf_counter()
        sweeps: list[dict] = []
        while True:
            elapsed = time.perf_counter() - start
            per_sweep = elapsed / len(sweeps) if sweeps else 0.0
            if len(sweeps) >= MIN_SWEEPS and elapsed + per_sweep > seconds:
                return sweeps
            sweeps.append(self.child(threads))
            for _ in range(setups_between):
                self.child(threads, setup_only=True)


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float, output_bytes: int) -> dict:
    def calls(name):
        return summary[name]["calls"]

    def busy(name):
        return summary[name]["busy_s"]

    def work(name, key):
        return summary[name]["work"].get(key, 0)

    level_vectors = work("sampling", "level_vectors")
    m3 = work("gram.eigensolve", "m3")
    replicas = work("experiments.run", "replicas")
    run_busy = busy("experiments.run")
    return {
        "sampling.calls": (calls("sampling"), "count"),
        "sampling.level_vectors": (level_vectors, "count"),
        "sampling.busy_s": (busy("sampling"), "s"),
        "sampling.us_per_level_vector": (busy("sampling") * 1e6 / level_vectors if level_vectors else 0.0, "us"),
        "gram.build.calls": (calls("gram.build"), "count"),
        "gram.build.busy_s": (busy("gram.build"), "s"),
        "gram.build.bytes_computed": (work("gram.build", "bytes_computed"), "B"),
        "gram.eigensolve.calls": (calls("gram.eigensolve"), "count"),
        "gram.eigensolve.calls_per_replica": (calls("gram.eigensolve") / replicas if replicas else 0.0, "count"),
        "gram.eigensolve.busy_s": (busy("gram.eigensolve"), "s"),
        "gram.eigensolve.share_of_run": (busy("gram.eigensolve") / run_busy if run_busy else 0.0, "ratio"),
        "gram.eigensolve.m3": (m3, "count"),
        "gram.eigensolve.gm3_per_s": (m3 / 1e9 / busy("gram.eigensolve") if m3 else 0.0, "Gm3/s"),
        "gram.esd.busy_s": (busy("gram.esd"), "s"),
        "mp.cdf.calls": (calls("mp.cdf"), "count"),
        "mp.cdf.points": (work("mp.cdf", "points"), "count"),
        "mp.cdf.busy_s": (busy("mp.cdf"), "s"),
        "metrics.cdf_build.busy_s": (busy("metrics.cdf_build"), "s"),
        "metrics.ks.calls": (calls("metrics.ks"), "count"),
        "metrics.ks.busy_s": (busy("metrics.ks"), "s"),
        "metrics.levy.calls": (calls("metrics.levy"), "count"),
        "metrics.levy.busy_s": (busy("metrics.levy"), "s"),
        "metrics.moment.busy_s": (busy("metrics.moment"), "s"),
        "experiments.replicas": (replicas, "count"),
        "experiments.run.busy_s": (run_busy, "s"),
        "experiments.self_s": (summary["experiments.run"]["self_s"], "s"),
        "experiments.pool_speedup": (traced_wall / untraced_wall, "ratio"),
        "cli.self_s": (summary["cli"]["self_s"], "s"),
        "cli.output_bytes": (output_bytes, "B"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    plan = dict(spec["plan"], seed=seed)
    threads = int(spec["threads"])
    runner = Runner(run_dir, plan)
    record: dict = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
                    "threads": threads, "plan": plan, "machine": machine_block(seed)}
    if trace:
        # the traced sweep runs last, so it starts as warm as the untraced ones
        sweeps = runner.timed_sweeps(threads, seconds)
        traced = runner.child(1, trace=True)
        wall = statistics.median(s["wall_s"] for s in sweeps)
        summary = tracer.summarize(traced["trace"])
        output_bytes = len(traced["csv"].encode()) if traced["csv"] is not None else 0
        metrics = layer_metrics(summary, traced["wall_s"], wall, output_bytes)
        record["traced_wall_s"] = traced["wall_s"]
        record["absent_targets"] = traced["trace"]["absent"]
        record["counter_errors"] = traced["trace"]["counter_errors"]
        record["trace_summary"] = summary
        record["spans"] = traced["trace"]["spans"]
    else:
        for _ in range(SETUPS_FIRST):
            runner.child(threads, setup_only=True)
        if threads > 1:
            runner.child(1)  # serial reference, untimed
        sweeps = runner.timed_sweeps(threads, seconds, SETUPS_BETWEEN)
        rss = [s["peak_rss_mb"] for s in sweeps]
        metrics = {
            "wall_s": (statistics.median(s["wall_s"] for s in sweeps), "s"),
            "setup_s": (statistics.median(runner.setups), "s"),
            "peak_rss_mb": (max(rss), "MB"),
        }
        record["samples"] = {"wall_s": [s["wall_s"] for s in sweeps], "setup_s": runner.setups, "peak_rss_mb": rss}
    record["untraced_wall_s"] = [s["wall_s"] for s in sweeps]
    record["failure_reasons"] = runner.reasons
    record["result"] = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return record


def print_summary(record: dict) -> None:
    result = record["result"]
    walls = record["untraced_wall_s"]
    q1, _, q3 = statistics.quantiles(walls, n=4)  # MIN_SWEEPS >= 3 samples
    print(f"workload {record['workload']}  seed {record['seed']}  threads {record['threads']}  "
          f"trace {record['trace']}  timed sweeps {len(walls)} (wall q1 {q1:.4f} s, q3 {q3:.4f} s)")
    for key, metric in result["metrics"].items():
        print(f"  {key:<36} {metric['value']:>14.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<36} {ratio:>14.6g} ratio  ({result['failed']} of {result['attempted']} replicas)")
    for reason, count in sorted(record["failure_reasons"].items()):
        print(f"    failed: {reason}: {count}")
    if record.get("absent_targets"):
        print(f"  absent trace targets (zero calls): {', '.join(record['absent_targets'])}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "tensormp" / "cli.py").is_file():
        print(f"error: no tensormp package under {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        record = run(args.workload, workloads[args.workload], args.seed, args.seconds, bool(args.trace), run_dir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    record["workload_spec"] = workloads[args.workload]
    if args.save is not None:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
