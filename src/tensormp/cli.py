"""Command line interface: simulate, sweep, mp, distance, selftest.

Every output file is written here, by `_write`, from a list of row dicts;
the library modules compute and never touch the file system.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import mp
from .config import ModelKind, params_from_json
from .gram import build_correlation_gram, build_covariance_gram, eigenvalues, esd
from .metrics import EmpiricalCDF, ks_distance, levy_distance
from .experiments import run_sweep, selftest, sweep_plan_from_json, sweep_rows
from .sampling import sample_base


def _add_common(parser: argparse.ArgumentParser, *, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", type=Path, required=True, help="JSON configuration document")
        parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory (default: .)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _out_dir(out) -> Path:
    out = Path("." if out is None else out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _write(out: Path, name: str, fmt: str, rows: list[dict], comment: str | None = None) -> None:
    """Write rows to out/name.fmt: JSON holds them as objects; CSV is the
    optional '#' comment line, the first row's keys, then one line per row,
    floats in repr so that they read back exactly."""
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        lines = [] if comment is None else [f"# {comment}"]
        lines.append(",".join(rows[0]))
        lines += [",".join(_cell(v) for v in row.values()) for row in rows]
        text = "\n".join(lines) + "\n"
    (out / f"{name}.{fmt}").write_text(text)


def read_eigenvalue_csv(path) -> tuple[dict, dict[int, np.ndarray]]:
    """Parse an eigenvalue dump back into (metadata, replica -> eigenvalues).

    A JSON dump raises ValueError naming the file; a line that is not a
    `replica,index,eigenvalue` row, or a header without the ambient dimension
    N, raises ValueError naming the file and line.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith(("[", "{")):
        raise ValueError(
            f"{path}: a JSON dump has no run header; distance reads the CSV dump written by simulate --format csv"
        )
    meta: dict = {}
    per_replica: dict[int, list[float]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("replica"):
            continue
        try:
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if value:
                        meta[key] = value if key == "model" else int(value)
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(f"expected 3 fields replica,index,eigenvalue, got {len(fields)}")
            per_replica.setdefault(int(fields[0]), []).append(float(fields[2]))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: malformed eigenvalue dump line {line!r}: {exc}") from None
    if "N" not in meta:
        raise ValueError(f"{path}: eigenvalue dump header lacks N=, the ambient dimension")
    return meta, {r: np.asarray(v) for r, v in sorted(per_replica.items())}


def _histogram_rows(dists, bins: int) -> list[dict]:
    """Pooled spectral histogram over replicas, zeros included, with the
    density estimate normalized so the bar masses sum to one."""
    pooled = np.concatenate([np.concatenate([d.atoms, np.zeros(d.implied_zeros)]) for d in dists])
    counts, edges = np.histogram(pooled, bins=bins)
    rows = []
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        width = right - left
        density = count / (pooled.size * width) if width > 0 else 0.0
        rows.append(
            dict(bin_left=float(left), bin_right=float(right), count=int(count), density_estimate=float(density))
        )
    return rows


def _warn_regime(params) -> None:
    if params.outside_regime:
        print(
            f"warning: k/n = {params.fold_ratio:.3f} is outside the asymptotic regime",
            file=sys.stderr,
        )


def _cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    params = params_from_json(doc)
    _warn_regime(params)
    out = _out_dir(args.out)
    builder = build_correlation_gram if params.model is ModelKind.CORRELATION else build_covariance_gram
    spectra = []
    dists = []
    for replica in range(params.replicas):
        sample = sample_base(params, replica)
        eigs = eigenvalues(builder(sample, params.tau))
        dists.append(esd(eigs, params.ambient_dim))  # validates the clamp floor
        spectra.append((replica, np.maximum(eigs, 0.0)))
    if args.format == "json":  # grouped per replica
        rows = [{"replica": r, "eigenvalues": list(map(float, e))} for r, e in spectra]
    else:
        rows = [{"replica": r, "index": i, "eigenvalue": v} for r, e in spectra for i, v in enumerate(e)]
    header = (
        f"n={params.n} k={params.k} m={params.sample_count} N={params.ambient_dim} "
        f"model={params.model.value} seed={params.seed}"
    )
    _write(out, "eigenvalues", args.format, rows, comment=header)
    _write(out, "histogram", args.format, _histogram_rows(dists, args.bins))
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
    out = _out_dir(plan.out_dir if args.out is None else args.out)  # an explicit --out wins
    _write(out, "sweep", args.format, sweep_rows(result, timings=args.timings))
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
    out = _out_dir(args.out)
    xs, dens, cdf_values = mp.evaluation_grid(law, points=args.points, lo=args.lo, hi=args.hi)
    rows = [
        {"x": float(x), "density": float(d), "cdf": float(f)} for x, d, f in zip(xs, dens, cdf_values)
    ]
    _write(out, "mp_grid", args.format, rows)
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
    out = _out_dir(args.out)
    rows = []
    for replica in shared:
        fa = EmpiricalCDF.from_spectral(esd(eigs_a[replica], meta_a["N"]))
        fb = EmpiricalCDF.from_spectral(esd(eigs_b[replica], meta_b["N"]))
        rows.append({"replica": replica, "metric": "ks", "value": ks_distance(fa, fb)})
        rows.append({"replica": replica, "metric": "levy", "value": levy_distance(fa, fb)})
    _write(out, "distances", args.format, rows)
    for row in rows:
        print(f"replica {row['replica']}: {row['metric']}={row['value']:.6f}")
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
