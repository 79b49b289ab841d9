"""Pinned sha256 digests of the CLI's output bytes, keyed by the numerical
environment, and of the package's raw draws, which hold everywhere.

    PYTHONPATH=src python -m tests.golden           # print the fingerprint and digests
    PYTHONPATH=src python -m tests.golden --write   # and write them to tests/golden.json

Each run is one CLI command: the plan of every ``perfbench/workloads.json``
workload swept at seed 4, a two-point-tau covariance point simulated under each
entry law, ``selftest --seed 3`` and ``--seed 0``, in ``--format json`` the
``point_real_tp`` sweep (its NaN distances written as null) and the complex
Gaussian point, the limit law on a 64-point grid with its first four moments,
and ``distance`` between the correlation and covariance dumps of that complex
Gaussian point, written first by two ``simulate`` runs that are not pinned
themselves. A run's digests are those of the files it writes and of its
stdout. Each script in ``demos/`` is pinned by the digest of its stdout. The bits of a spectrum
depend on the numpy build and on the OpenBLAS that numpy bundles (its kernels
and thread count), not on whether tensormp calls that OpenBLAS directly, so
``tests/test_golden.py`` compares run digests, on both Gram paths, and
``tests/test_demos.py`` demo digests only where
``tensormp.gram.blas_fingerprint()`` equals the one stored with them.

The portable digests are those of ``sampling._raw_draws`` under each entry
law at one small point, and of the selftest's draws at seed 3 as it reads
them from ``sampling.stream_uniforms`` and ``sampling.stream_entries``
(streams 1-4): Philox words, uniforms and ziggurat normals, integer
arithmetic and correctly rounded scaling with no BLAS, compared under every
fingerprint. The unit circle's cos and sin, whose last bit may follow the CPU,
and the complex Gaussian's complex arithmetic are left out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from tensormp.cli import main as cli_main
from tensormp.config import EntryLaw
from tensormp.gram import blas_fingerprint
from tensormp.sampling import _philox_keys, _raw_draws, stream_entries, stream_uniforms

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
_WORKLOADS = ROOT / "perfbench" / "workloads.json"
_TWO_POINT_TAU = {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}
# seed, samples m, levels k, entries n: both Gaussian laws reach the ziggurat's
# tail, and two complex Gaussian keys run short and are drawn again
_PORTABLE_POINT = (16, 24, 3, 40)


def _runs() -> dict[str, tuple[str, dict | tuple[dict, dict] | None, list[str], tuple[str, ...]]]:
    """Run name -> (command, config document or None, flags, files written);
    a distance run's config is the pair of points whose dumps it compares."""
    workloads = json.loads(_WORKLOADS.read_text())
    runs = {f"sweep/{name}": ("sweep", w["plan"], ["--seed", "4"], ("sweep.csv",)) for name, w in workloads.items()}
    for law in EntryLaw:
        point = {"n": 12, "k": 2, "c": 0.6, "model": "covariance", "entry_law": law.value, "tau": _TWO_POINT_TAU}
        runs[f"simulate/{law.value}"] = (
            "simulate", {**point, "seed": 4, "replicas": 3}, [], ("eigenvalues.csv", "histogram.csv")
        )
    runs["selftest/3"] = ("selftest", None, ["--seed", "3"], ("selftest.csv",))
    # the JSON writer, which writes a NaN distance as null, and the selftest's default seed
    plan = workloads["point_real_tp"]["plan"]
    runs["sweep-json/point_real_tp"] = ("sweep", plan, ["--seed", "4", "--format", "json"], ("sweep.json",))
    _, point, _, _ = runs["simulate/complex_gaussian"]
    runs["simulate-json/complex_gaussian"] = ("simulate", point, ["--format", "json"], ("eigenvalues.json", "histogram.json"))
    runs["selftest/0"] = ("selftest", None, ["--seed", "0"], ("selftest.csv",))
    runs["mp/0.5"] = ("mp", None, ["--c", "0.5", "--points", "64", "--moments", "1,2,3,4"], ("mp_grid.csv",))
    pair = ({**point, "model": "correlation"}, point)
    runs["distance/complex_gaussian"] = ("distance", pair, [], ("distances.csv",))
    return runs


RUNS = _runs()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stream_draws(seed: int) -> dict[str, np.ndarray]:
    """The selftest's draws at ``seed``, each as one of its checks reads it."""
    normal = EntryLaw.REAL_GAUSSIAN
    draws = {
        "stream1/uniforms": stream_uniforms(seed, 1, 100, range(1), 10),
        "stream1/normals": stream_entries(normal, seed, 1, 100, range(1, 2), 128),
        "stream2/normals": stream_entries(normal, seed, 2, 100, range(1), 160),
        "stream3/uniforms": stream_uniforms(seed, 3, 50, range(2), 13),
    }
    for index, law in enumerate(EntryLaw):
        if law in (EntryLaw.REAL_GAUSSIAN, EntryLaw.RADEMACHER):
            draws[f"stream4/{law.value}"] = stream_entries(law, seed, 4, 1000, range(index, index + 1), 1000)
    return draws


def portable_digests() -> dict[str, str]:
    """Entry law -> the sha256 of its raw draws at _PORTABLE_POINT, and
    "stream<s>/<what>" -> that of the selftest's draws at seed 3."""
    seed, m, k, n = _PORTABLE_POINT
    keys = _philox_keys(seed, (0,), m, range(k))
    found = {law.value: _raw_draws(law, keys, n) for law in EntryLaw} | _stream_draws(3)
    return {name: sha256_hex(np.ascontiguousarray(draws)) for name, draws in found.items()}


def _cli(argv: list[str]) -> str:
    """Run the CLI in this process and return its stdout; a nonzero status raises."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"tensormp {' '.join(argv)} exited with status {code}")
    return stdout.getvalue()


def _config_flag(directory: Path, config: dict) -> list[str]:
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path)]


def digests(name: str, workdir: Path) -> dict[str, str]:
    """The sha256 of each file that run `name` writes, and of its stdout
    ("stdout"), running it in the existing directory workdir."""
    command, config, flags, files = RUNS[name]
    if command == "distance":  # its inputs are the eigenvalue dumps of two simulate runs
        for side, point in zip("ab", config):
            dump = workdir / side
            dump.mkdir()
            _cli(["simulate", *_config_flag(dump, point), "--out", str(dump)])
            flags = [*flags, f"--{side}", str(dump / "eigenvalues.csv")]
    elif config is not None:
        flags = [*_config_flag(workdir, config), *flags]
    out = workdir / "out"
    stdout = _cli([command, *flags, "--out", str(out)])
    found = {file: sha256_hex((out / file).read_bytes()) for file in files}
    found["stdout"] = sha256_hex(stdout.encode())
    return found


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    """Run one demo script against the package in src/, in directory cwd, with
    every warning an error and the import timings on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error", "-X", "importtime", str(demo)]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def fingerprint_mismatch(pinned: dict) -> str:
    """The fields in which blas_fingerprint() differs from pinned, with both
    values, or "" where the two are equal."""
    here = blas_fingerprint()
    differing = [field for field in sorted(pinned.keys() | here.keys()) if pinned.get(field) != here.get(field)]
    return "; ".join(f"{field}: {pinned.get(field)!r} pinned, {here.get(field)!r} here" for field in differing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"write the digests to {GOLDEN.name}")
    args = parser.parse_args(argv)
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            workdir = Path(tmp) / name.replace("/", "-")
            workdir.mkdir()
            found[name] = digests(name, workdir)
        demos = {}
        for demo in DEMOS:
            (workdir := Path(tmp) / demo.stem).mkdir()
            proc = run_demo(demo, workdir)
            if proc.returncode != 0:
                raise RuntimeError(f"{demo.name} exited with status {proc.returncode}: {proc.stderr}")
            demos[demo.name] = sha256_hex(proc.stdout.encode())
    golden = {"fingerprint": blas_fingerprint(), "digests": found, "demos": demos, "portable": portable_digests()}
    text = json.dumps(golden, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
