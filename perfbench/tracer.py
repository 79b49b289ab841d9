"""Span tracer that wraps the package's public functions from outside.

Each target is named by its defining module and qualified name. The wrapper
replaces the function in every loaded ``tensormp`` module that binds it, so
``tensormp.experiments.eigenvalues`` and ``tensormp.cli.eigenvalues`` are
traced as well as ``tensormp.gram.eigenvalues``. A target that no longer
exists is reported as absent and traced with zero calls; the run goes on.

Spans are kept in memory with their parent (a thread-local stack) and dumped
as JSON by the caller once the traced call has returned.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

import numpy as np


def _sample_work(args, kwargs, result) -> dict:
    m, k = np.shape(result.entries)[:2]
    return {"level_vectors": int(m) * int(k)}


def _gram_work(args, kwargs, result) -> dict:
    return {"bytes_computed": int(result.entries.nbytes)}


def _eigen_work(args, kwargs, result) -> dict:
    gram = args[0] if args else kwargs["gram"]
    return {"m3": int(np.shape(getattr(gram, "entries", gram))[0]) ** 3}


def _cdf_work(args, kwargs, result) -> dict:
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


def _run_work(args, kwargs, result) -> dict:
    return {"replicas": len(result.records)}


# span name -> (targets as "module:qualname", work counter or None)
TARGETS = {
    "sampling": (["tensormp.sampling:sample_base"], _sample_work),
    "gram.build": (
        [
            "tensormp.gram:build_correlation_gram",
            "tensormp.gram:build_covariance_gram",
            "tensormp.gram:build_normalized_level_gram",
        ],
        _gram_work,
    ),
    "gram.eigensolve": (["tensormp.gram:eigenvalues"], _eigen_work),
    "gram.esd": (["tensormp.gram:esd"], None),
    "mp.cdf": (["tensormp.mp:cdf"], _cdf_work),
    "metrics.cdf_build": (
        ["tensormp.metrics:EmpiricalCDF.from_spectral", "tensormp.metrics:EmpiricalCDF.from_mp_law"],
        None,
    ),
    "metrics.ks": (["tensormp.metrics:ks_distance"], None),
    "metrics.levy": (["tensormp.metrics:levy_distance"], None),
    "metrics.moment": (["tensormp.metrics:empirical_moment"], None),
    "experiments.run": (["tensormp.experiments:run_sweep"], _run_work),
    "cli": (["tensormp.cli:main"], None),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.present: list[str] = []
        self.absent: list[str] = []
        self.counter_errors = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                # recorded even when the call raises, so its children keep a parent
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "parent": parent, "name": name, "thread": threading.get_ident(),
                        "start": start, "end": end, "raised": raised}
                if work is not None and not raised:
                    try:
                        span["work"] = work(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        with tracer._lock:
                            tracer.counter_errors += 1
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for name, (specs, work) in targets.items():
            for spec in specs:
                if self._install_one(name, spec, work):
                    self.present.append(spec)
                else:
                    self.absent.append(spec)

    def _install_one(self, name: str, spec: str, work) -> bool:
        module_name, _, qualname = spec.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, work)))
                return True
            if callable(raw):
                setattr(owner, attr, self.wrap(name, raw, work))
                return True
            return False
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        traced = self.wrap(name, original, work)
        package = module_name.split(".")[0]
        for loaded_name, module in list(sys.modules.items()):
            if module is None or not (loaded_name == package or loaded_name.startswith(package + ".")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, traced)
        return True

    def dump(self) -> dict:
        return {
            "present": self.present,
            "absent": self.absent,
            "counter_errors": self.counter_errors,
            "spans": sorted(self.spans, key=lambda s: s["id"]),
        }


def _outermost(spans: list[dict], by_id: dict[int, dict]) -> list[dict]:
    """Spans with no ancestor of the same name, so nested calls count once in busy time."""
    out = []
    for span in spans:
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"] != span["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def summarize(trace: dict) -> dict[str, dict]:
    """Per span name: calls, busy_s (outermost spans), self_s and work sums."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
    out: dict[str, dict] = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": {}} for name in TARGETS}
    for span in spans:
        entry = out.setdefault(span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": {}})
        entry["calls"] += 1
        entry["self_s"] += span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        for key, value in span.get("work", {}).items():
            entry["work"][key] = entry["work"].get(key, 0) + value
    for span in _outermost(spans, by_id):
        out[span["name"]]["busy_s"] += span["end"] - span["start"]
    return out
