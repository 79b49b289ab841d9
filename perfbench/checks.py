"""Correctness checks on a written ``sweep.csv``, the program's public output.

The checks use only the plan and the file, never the package, so a change to
the package cannot change what counts as correct. A replica (one row) fails
when any of these holds:

- its row is missing, or its key columns (n, k, m, N, c, replica) are not the
  ones the plan implies;
- the correlation trace identity breaks: |m1 * N - sum(tau)| > 1e-9 * sum(tau);
- a distance is not finite or lies outside [0, 1] where it is defined, or is
  not nan where it is not defined (the limit-law distances ks_mp and levy_mp
  exist only for tau identically 1; the coupled levy_models always exists);
- levy_mp > ks_mp + 1e-9;
- the entry law is unit-modulus and levy_models != 0.0, since both Gram
  constructions then coincide bitwise;
- the row differs from the same row of a reference run of the same plan
  (another run of the same code and seed, or the serial run of a pooled
  workload), so results never depend on the run or the thread count.

A sweep that raised fails every replica it attempted; the caller counts that.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

TRACE_RTOL = 1e-9
LEVY_KS_SLACK = 1e-9
UNIT_MODULUS_LAWS = frozenset({"unit_circle", "rademacher"})


@dataclass(frozen=True)
class Point:
    n: int
    k: int
    m: int
    N: int
    c: float


@dataclass
class SweepCheck:
    attempted: int
    failures: dict[int, list[str]] = field(default_factory=dict)  # row index -> reasons

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, row: int, reason: str) -> None:
        self.failures.setdefault(row, []).append(reason)

    def reasons(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for reasons in self.failures.values():
            for reason in reasons:
                out[reason] = out.get(reason, 0) + 1
        return out


def plan_points(plan: dict) -> list[Point]:
    """The (n, k, m, N, c) of each point of a grid-shorthand sweep plan with a
    fixed k; m = floor(c * N + 0.5) as the package documents it."""
    schedule = plan["k_schedule"]
    if schedule["kind"] != "fixed":
        raise ValueError(f"the benchmark plans use a fixed k, not {schedule!r}")
    k = int(schedule["k"])
    c = float(plan["c"])
    points = []
    for n in plan["ns"]:
        dim = int(n) ** k
        points.append(Point(n=int(n), k=k, m=int(math.floor(c * dim + 0.5)), N=dim, c=c))
    return points


def _tau_kind(tau) -> str:
    return tau if isinstance(tau, str) else tau["kind"]


def tau_sum(tau, m: int) -> float:
    """sum(tau) over the m sample weights, computed from the plan alone."""
    kind = _tau_kind(tau)
    if kind == "constant_one":
        return float(m)
    if kind == "two_point":
        first = int(math.floor(float(tau["weight"]) * m))
        return first * float(tau["a"]) + (m - first) * float(tau["b"])
    raise ValueError(f"unknown tau scheme {tau!r}")


def _is_distance(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def check_sweep(text: str, plan: dict, reference: str | None = None) -> SweepCheck:
    """Check every replica row of one sweep.csv written for ``plan``."""
    points = plan_points(plan)
    replicas = int(plan["replicas"])
    tau = plan["tau"]
    with_mp = _tau_kind(tau) == "constant_one"
    unit_modulus = plan["entry_law"] in UNIT_MODULUS_LAWS
    result = SweepCheck(attempted=len(points) * replicas)

    lines = text.splitlines()
    rows = list(csv.DictReader(io.StringIO(text)))
    ref_lines = reference.splitlines() if reference is not None else None
    for index in range(result.attempted):
        point, replica = points[index // replicas], index % replicas
        if index >= len(rows):
            result.fail(index, "missing row")
            continue
        row = rows[index]
        try:
            key = (int(row["n"]), int(row["k"]), int(row["m"]), int(row["N"]), float(row["c"]), int(row["replica"]))
            ks_mp, levy_mp, levy_models, m1 = (float(row[name]) for name in ("ks_mp", "levy_mp", "levy_models", "m1"))
        except (KeyError, TypeError, ValueError):
            result.fail(index, "unparsable row")
            continue
        if key != (point.n, point.k, point.m, point.N, point.c, replica):
            result.fail(index, "unexpected key columns")
        total = tau_sum(tau, point.m)
        if not abs(m1 * point.N - total) <= TRACE_RTOL * total:
            result.fail(index, "trace identity")
        for value, defined in ((ks_mp, with_mp), (levy_mp, with_mp), (levy_models, True)):
            if (defined and not _is_distance(value)) or (not defined and not math.isnan(value)):
                result.fail(index, "distance range")
                break
        if with_mp and levy_mp > ks_mp + LEVY_KS_SLACK:
            result.fail(index, "levy above ks")
        if unit_modulus and levy_models != 0.0:
            result.fail(index, "unit-modulus levy_models")
        # line 0 is the header, so row i is line i + 1
        if ref_lines is not None and (index + 1 >= len(ref_lines) or lines[index + 1] != ref_lines[index + 1]):
            result.fail(index, "differs from reference run")
    return result
