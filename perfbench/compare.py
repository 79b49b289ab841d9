"""Compare two saved benchmark records (``run.py --save``) or two directories
of them, paired by file name.

Usage: python3 perfbench/compare.py BASE NEW

Prints a warning naming every machine-block field that differs, since
timings from different machines, BLAS builds, thread settings or seeds are
not comparable, then each metric of each pair with NEW / BASE.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def machine_differences(base: dict, new: dict) -> list[str]:
    fields = sorted(set(base) | set(new))
    return [f for f in fields if base.get(f) != new.get(f)]


def _pairs(base: Path, new: Path) -> list[tuple[Path, Path]]:
    if base.is_dir() and new.is_dir():
        names = sorted({p.name for p in base.glob("*.json")} & {p.name for p in new.glob("*.json")})
        return [(base / name, new / name) for name in names]
    return [(base, new)]


def compare(base_path: Path, new_path: Path) -> list[str]:
    base = json.loads(base_path.read_text())
    new = json.loads(new_path.read_text())
    lines = [f"{base['workload']} (trace {base['trace']}): {base_path} -> {new_path}"]
    for field in machine_differences(base["machine"], new["machine"]):
        lines.append(
            f"  warning: machine field {field!r} differs: {base['machine'].get(field)!r} -> {new['machine'].get(field)!r}"
        )
    base_metrics = base["result"]["metrics"]
    new_metrics = new["result"]["metrics"]
    for name in sorted(set(base_metrics) | set(new_metrics)):
        b = base_metrics.get(name, {}).get("value")
        n = new_metrics.get(name, {}).get("value")
        unit = (base_metrics.get(name) or new_metrics.get(name))["unit"]
        ratio = f"{n / b:.3f}x" if b and n is not None else "-"
        lines.append(f"  {name:<36} {b!s:>22} {n!s:>22} {unit:<6} {ratio}")
    for label, doc in (("base", base), ("new", new)):
        result = doc["result"]
        lines.append(f"  {label} failed {result['failed']} of {result['attempted']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    pairs = _pairs(Path(argv[0]), Path(argv[1]))
    if not pairs:
        print("no records with matching names", file=sys.stderr)
        return 2
    for base, new in pairs:
        print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
