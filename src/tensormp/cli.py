"""Command line interface: simulate, sweep, mp, distance, selftest.

Every output file is written here, by `_write`, from a list of row dicts;
the library modules compute and never touch the file system.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import mp
from .config import SweepPlan, params_from_json, sweep_plan_from_json
from .gram import esd
from .metrics import ks_distance, levy_distance
from .experiments import run_replicas, run_sweep, selftest, sweep_rows


def _add_common(parser: argparse.ArgumentParser, *, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", type=Path, required=True, help="JSON configuration document")
        parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory (default: .)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_json(path: Path) -> dict:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def _input_errors(args):
    """Report an unreadable or invalid input file, a flag value the command
    cannot take, an output directory it cannot make or an output file that
    is a directory, as argparse reports a bad flag: one line on stderr and
    exit status 2. Only the reading and checking of the inputs named on the
    command line, and then of the outputs (see _out_dir), run inside, so no
    work is lost to an unusable --out; an error of the computation itself
    propagates."""
    try:
        yield
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"tensormp {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _out_dir(out, fmt: str, *names: str) -> Path:
    """Make the output directory, and check that none of the files the
    command will write there, name.fmt for each of names, is a directory."""
    out = Path("." if out is None else out)
    out.mkdir(parents=True, exist_ok=True)
    for path in (out / f"{name}.{fmt}" for name in names):
        if path.is_dir():
            raise IsADirectoryError(f"output file {path} is a directory")
    return out


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _write(out: Path, name: str, fmt: str, rows: list[dict], comment: str | None = None) -> None:
    """Write rows to out/name.fmt: JSON holds them as objects, a non-finite
    float as null; CSV is the optional '#' comment line, the first row's
    keys, then one line per row, floats in repr so that they read back
    exactly (nan included)."""
    if fmt == "json":
        # strict JSON has no NaN or infinity
        rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()} for row in rows]
        text = json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [] if comment is None else [f"# {comment}"]
        lines.append(",".join(rows[0]))
        lines += [",".join(_cell(v) for v in row.values()) for row in rows]
        text = "\n".join(lines) + "\n"
    (out / f"{name}.{fmt}").write_text(text)


def read_eigenvalue_csv(path) -> tuple[dict, dict[int, np.ndarray]]:
    """Parse an eigenvalue dump back into (metadata, replica -> eigenvalues).

    A JSON dump raises ValueError naming the file; a line that is not a
    `replica,index,eigenvalue` row with a finite eigenvalue raises ValueError
    naming the file and line; a header without the ambient dimension N or
    the sample count m, or a replica whose rows are not indexed 0..m-1 in
    order, raises ValueError naming the file.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith(("[", "{")):
        raise ValueError(
            f"{path}: a JSON dump has no run header; distance reads the CSV dump written by simulate --format csv"
        )
    meta: dict = {}
    per_replica: dict[int, list[tuple[int, float]]] = {}
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
            value = float(fields[2])
            if not np.isfinite(value):
                raise ValueError("the eigenvalue is not finite")
            per_replica.setdefault(int(fields[0]), []).append((int(fields[1]), value))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: malformed eigenvalue dump line {line!r}: {exc}") from None
    for key, name in (("N", "the ambient dimension"), ("m", "the sample count")):
        if key not in meta:
            raise ValueError(f"{path}: eigenvalue dump header lacks {key}=, {name}")
    m = meta["m"]
    for replica, rows in per_replica.items():
        if len(rows) != m:
            raise ValueError(f"{path}: replica {replica} has {len(rows)} eigenvalue rows, but the header says m={m}")
        if [index for index, _ in rows] != list(range(m)):
            raise ValueError(f"{path}: replica {replica} rows are not indexed 0..{m - 1} in order")
    return meta, {r: np.array([value for _, value in rows]) for r, rows in sorted(per_replica.items())}


def _histogram_rows(dists, bins: int) -> list[dict]:
    """Pooled spectral histogram over replicas, zeros included, with the
    density estimate normalized so the bar masses sum to one. The implied
    zeros enter as one 0.0 weighted by their count, so the memory is that of
    the atoms however large N is."""
    zeros = sum(d.implied_zeros for d in dists)
    values = np.concatenate([d.atoms for d in dists] + [np.zeros(1 if zeros else 0)])
    weights = np.ones(values.size)
    if zeros:
        weights[-1] = zeros
    counts, edges = np.histogram(values, bins=bins, weights=weights)
    total = sum(d.ambient_dim for d in dists)
    rows = []
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        width = right - left
        density = count / (total * width) if width > 0 else 0.0
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
    with _input_errors(args):
        params = params_from_json(_load_json(args.config))
        if args.seed is not None:
            params = replace(params, seed=args.seed)
        if args.bins < 1:
            raise ValueError(f"--bins must be at least 1, got {args.bins}")
        out = _out_dir(args.out, args.format, "eigenvalues", "histogram")
    _warn_regime(params)
    runs = list(run_replicas(SweepPlan(points=(params,)), with_comparison=False))
    spectra = [(record.replica, np.maximum(eigs, 0.0)) for record, eigs, _ in runs]
    if args.format == "json":  # grouped per replica
        rows = [{"replica": r, "eigenvalues": list(map(float, e))} for r, e in spectra]
    else:
        rows = [{"replica": r, "index": i, "eigenvalue": v} for r, e in spectra for i, v in enumerate(e)]
    header = (
        f"n={params.n} k={params.k} m={params.sample_count} N={params.ambient_dim} "
        f"model={params.model.value} seed={params.seed}"
    )
    _write(out, "eigenvalues", args.format, rows, comment=header)
    _write(out, "histogram", args.format, _histogram_rows([dist for *_, dist in runs], args.bins))
    print(
        f"simulated {params.model.value} model: n={params.n} k={params.k} "
        f"m={params.sample_count} N={params.ambient_dim} replicas={params.replicas}"
    )
    if params.tau.is_constant_one:
        for record, *_ in runs:
            print(f"  replica {record.replica}: ks_mp={record.ks_mp:.6f} levy_mp={record.levy_mp:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    with _input_errors(args):
        doc = _load_json(args.config)
        plan = sweep_plan_from_json(doc)
        if args.seed is not None:  # a grid plan has one seed, a points plan one per point
            plan = replace(plan, points=tuple(replace(point, seed=args.seed) for point in plan.points))
        out = _out_dir(doc.get("out") if args.out is None else args.out, args.format, "sweep")  # an explicit --out wins
    for point in plan.points:
        _warn_regime(point)
    result = run_sweep(plan)
    _write(out, "sweep", args.format, sweep_rows(result, timings=args.timings))
    for summary in result.summaries():
        p, mean, se = summary.params, summary.mean, summary.se
        print(
            f"n={p.n} k={p.k} m={p.sample_count} N={p.ambient_dim}: "
            f"ks_mp={mean['ks_mp']:.5f}(se {se['ks_mp']:.5f}) "
            f"levy_models={mean['levy_models']:.5f}(se {se['levy_models']:.5f})"
        )
    return 0


def _cmd_mp(args) -> int:
    with _input_errors(args):
        law = mp.MPLaw.from_ratio(args.c)
        moments = [(q, mp.moment(law, q)) for q in _moment_orders(args.moments)]
        if args.points < 2:
            raise ValueError(f"--points must be at least 2, got {args.points}")
        xs, dens, cdf_values = mp.evaluation_grid(law, points=args.points, lo=args.lo, hi=args.hi)
        out = _out_dir(args.out, args.format, "mp_grid")
    rows = [
        {"x": float(x), "density": float(d), "cdf": float(f)} for x, d, f in zip(xs, dens, cdf_values)
    ]
    _write(out, "mp_grid", args.format, rows)
    print(
        f"MP law c={law.c}: support [{law.lambda_minus:.6f}, {law.lambda_plus:.6f}], "
        f"atom {law.atom_mass:.6f}"
    )
    for q, value in moments:
        print(f"  moment q={q}: {value!r}")
    return 0


def _moment_orders(text: str) -> list[int]:
    """The orders of a --moments value such as "1,2,4"; "" names none."""
    try:
        return [int(q) for q in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"--moments must be comma-separated integers, got {text!r}") from None


def _cmd_distance(args) -> int:
    with _input_errors(args):
        meta_a, eigs_a = read_eigenvalue_csv(args.a)
        meta_b, eigs_b = read_eigenvalue_csv(args.b)
        shared = sorted(set(eigs_a) & set(eigs_b))
        if not shared:
            raise ValueError("no shared replica indices between the two dumps")
        # esd rejects a spectrum that its dump's N cannot hold
        dists = [(replica, esd(eigs_a[replica], meta_a["N"]), esd(eigs_b[replica], meta_b["N"])) for replica in shared]
        out = _out_dir(args.out, args.format, "distances")
    rows = []
    for replica, fa, fb in dists:
        rows.append({"replica": replica, "metric": "ks", "value": ks_distance(fa, fb)})
        rows.append({"replica": replica, "metric": "levy", "value": levy_distance(fa, fb)})
    _write(out, "distances", args.format, rows)
    for row in rows:
        print(f"replica {row['replica']}: {row['metric']}={row['value']:.6f}")
    return 0


def _cmd_selftest(args) -> int:
    with _input_errors(args):
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
        out = _out_dir(args.out, args.format, "selftest")
    rows = [
        {"check": c.name, "status": "PASS" if c.passed else "FAIL", "gap": float(c.gap), "bound": float(c.bound)}
        for c in selftest(seed=args.seed)
    ]
    _write(out, "selftest", args.format, rows)
    width = max(len(row["check"]) for row in rows)
    print(f"{'check':<{width}}  status  {'gap':<10}  bound")
    for row in rows:
        print(f"{row['check']:<{width}}  {row['status']:<6}  {row['gap']:<10.3e}  {row['bound']:.3e}")
    return 0 if all(row["status"] == "PASS" for row in rows) else 1


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
