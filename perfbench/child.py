"""One measured sweep in a fresh interpreter.

Usage: python3 child.py PLAN OUT_DIR THREADS RESULT_JSON [--setup-only] [--trace SPANS_JSON]

Times the set-up a user pays on every run (importing ``tensormp.cli``,
numpy included, then loading and validating the plan), then calls the public
CLI entry point in-process and times it, output writing included. Writes its
measurements to RESULT_JSON. Exits non-zero without a result when the package
cannot be set up; a sweep that raises is reported in the result instead.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(argv) -> int:
    plan_path, out_dir, threads, result_path = argv[:4]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import tensormp.cli as cli
    from tensormp import sweep_plan_from_json

    with open(plan_path) as fh:
        sweep_plan_from_json(json.load(fh))
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "package": cli.__file__}

    if not setup_only:
        tracer = None
        if spans_path is not None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(["sweep", "--config", plan_path, "--out", out_dir, "--threads", threads])
            error = None if code == 0 else f"cli.main returned {code}"
        except Exception:
            error = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        result["error"] = error
        if tracer is not None:
            with open(spans_path, "w") as fh:
                json.dump(tracer.dump(), fh)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
