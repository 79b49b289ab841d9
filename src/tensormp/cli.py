"""Command line interface: simulate, sweep, mp, distance, selftest."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import mp
from .config import ModelKind, params_from_json, validate
from .gram import (
    build_correlation_gram,
    build_covariance_gram,
    eigenvalues,
    esd,
    read_eigenvalue_csv,
    write_eigenvalue_csv,
)
from .metrics import EmpiricalCDF, ks_distance, levy_distance, write_distance_csv
from .experiments import (
    run_sweep,
    selftest,
    sweep_plan_from_json,
    write_histogram_csv,
    write_sweep_csv,
    write_sweep_json,
)
from .sampling import sample_base


def _add_common(parser: argparse.ArgumentParser, *, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", type=Path, required=True, help="JSON configuration document")
        parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _warn_regime(params) -> None:
    report = validate(params)
    if report.outside_regime:
        print(
            f"warning: k/n = {report.fold_ratio:.3f} is outside the asymptotic regime",
            file=sys.stderr,
        )


def _cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    params = params_from_json(doc)
    _warn_regime(params)
    out = _out_dir(args)
    builder = build_correlation_gram if params.model is ModelKind.CORRELATION else build_covariance_gram
    rows = []
    dists = []
    for replica in range(params.replicas):
        sample = sample_base(params, replica)
        eigs = eigenvalues(builder(sample, params.tau))
        dists.append(esd(eigs, params.ambient_dim))  # validates the clamp floor
        rows.append((replica, np.maximum(eigs, 0.0)))
    if args.format == "json":
        doc_out = [{"replica": r, "eigenvalues": list(map(float, e))} for r, e in rows]
        (out / "eigenvalues.json").write_text(json.dumps(doc_out, indent=2, sort_keys=True) + "\n")
    else:
        write_eigenvalue_csv(out / "eigenvalues.csv", rows, params)
    write_histogram_csv(out / "histogram.csv", dists, bins=args.bins)
    print(
        f"simulated {params.model.value} model: n={params.n} k={params.k} "
        f"m={params.sample_count} N={params.ambient_dim} replicas={params.replicas}"
    )
    if params.tau.is_constant_one:
        reference = mp.MPLaw.from_ratio(params.c)
        for replica, dist in enumerate(dists):
            f = EmpiricalCDF.from_spectral(dist)
            print(
                f"  replica {replica}: ks_mp={ks_distance(f, reference):.6f} "
                f"levy_mp={levy_distance(f, reference):.6f}"
            )
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
        for point in doc.get("points", []):
            point["seed"] = args.seed
    plan = sweep_plan_from_json(doc)
    for point in plan.points:
        _warn_regime(point)
    result = run_sweep(plan)
    out = Path(plan.out_dir) if plan.out_dir and args.out == Path(".") else _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        write_sweep_json(out / "sweep.json", result, timings=args.timings)
    else:
        write_sweep_csv(out / "sweep.csv", result, timings=args.timings)
    for summary in result.summaries():
        p = summary.params
        print(
            f"n={p.n} k={p.k} m={p.sample_count} N={p.ambient_dim}: "
            f"ks_mp={summary.ks_mp_mean:.5f}(se {summary.ks_mp_se:.5f}) "
            f"levy_models={summary.levy_models_mean:.5f}(se {summary.levy_models_se:.5f})"
        )
    return 0


def _cmd_mp(args) -> int:
    law = mp.MPLaw.from_ratio(args.c)
    out = _out_dir(args)
    xs, dens, cdf_values = mp.evaluation_grid(law, points=args.points, lo=args.lo, hi=args.hi)
    if args.format == "json":
        doc = [
            {"x": float(x), "density": float(d), "cdf": float(f)}
            for x, d, f in zip(xs, dens, cdf_values)
        ]
        (out / "mp_grid.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["x,density,cdf"]
        lines += [
            f"{float(x)!r},{float(d)!r},{float(f)!r}" for x, d, f in zip(xs, dens, cdf_values)
        ]
        (out / "mp_grid.csv").write_text("\n".join(lines) + "\n")
    print(
        f"MP law c={law.c}: support [{law.lambda_minus:.6f}, {law.lambda_plus:.6f}], "
        f"atom {law.atom_mass:.6f}"
    )
    if args.moments:
        for q in (int(q) for q in args.moments.split(",")):
            print(f"  moment q={q}: {mp.moment(law, q)!r}")
    return 0


def _cmd_distance(args) -> int:
    meta_a, eigs_a = read_eigenvalue_csv(args.a)
    meta_b, eigs_b = read_eigenvalue_csv(args.b)
    shared = sorted(set(eigs_a) & set(eigs_b))
    if not shared:
        print("no shared replica indices between the two dumps", file=sys.stderr)
        return 2
    out = _out_dir(args)
    rows = []
    for replica in shared:
        fa = EmpiricalCDF.from_spectral(esd(eigs_a[replica], int(meta_a["N"])))
        fb = EmpiricalCDF.from_spectral(esd(eigs_b[replica], int(meta_b["N"])))
        rows.append((replica, "ks", ks_distance(fa, fb)))
        rows.append((replica, "levy", levy_distance(fa, fb)))
    if args.format == "json":
        doc = [{"replica": r, "metric": m, "value": float(v)} for r, m, v in rows]
        (out / "distances.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        write_distance_csv(out / "distances.csv", rows)
    for replica, metric, value in rows:
        print(f"replica {replica}: {metric}={value:.6f}")
    return 0


def _cmd_selftest(args) -> int:
    report = selftest(seed=args.seed)
    print(report.table())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tensormp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one point: eigenvalue dump and histogram")
    _add_common(p_sim)
    p_sim.add_argument("--bins", type=int, default=50, help="histogram bins")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a sweep plan and write the results table")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock ms in the output (breaks byte-for-byte determinism)",
    )
    p_sweep.add_argument(
        "--threads", type=int, help="accepted and ignored: replicas run serially, and the output never depends on it"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mp = sub.add_parser("mp", help="evaluate the limit law on a grid")
    _add_common(p_mp, config=False)
    p_mp.add_argument("--c", type=float, required=True, help="ratio parameter of the law")
    p_mp.add_argument("--points", type=int, default=512)
    p_mp.add_argument("--lo", type=float, default=None)
    p_mp.add_argument("--hi", type=float, default=None)
    p_mp.add_argument("--moments", type=str, default="", help="comma-separated moment orders to print")
    p_mp.set_defaults(func=_cmd_mp)

    p_dist = sub.add_parser("distance", help="distances between two eigenvalue dumps")
    _add_common(p_dist, config=False)
    p_dist.add_argument("--a", type=Path, required=True)
    p_dist.add_argument("--b", type=Path, required=True)
    p_dist.set_defaults(func=_cmd_distance)

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    _add_common(p_self, config=False)
    p_self.add_argument("--seed", type=int, default=0, help="seed of the Monte Carlo checks")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
