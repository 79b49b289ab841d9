#!/usr/bin/env python3
"""Coupled comparison of the correlation and covariance constructions.

Both Gram matrices are built from the same base sample (shared randomness),
so the Levy distance between their spectra isolates the effect of the
normalization alone. For entry laws with |xi| = 1 the two constructions are
identical and the distance is exactly zero; for Gaussian entries it shrinks
as n grows.
"""

from tensormp import run_sweep, sweep_plan_from_json

tau = {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}

print("Gaussian entries, two-point tau weights (limit law unknown, so the")
print("two models are compared against each other):")
plan = sweep_plan_from_json({"ns": [10, 20, 30], "c": 0.5, "tau": tau, "seed": 0, "replicas": 5})
for summary in run_sweep(plan).summaries():
    p = summary.params
    print(
        f"  n={p.n:>3}  coupled Levy distance: "
        f"{summary.mean['levy_models']:.5f} (se {summary.se['levy_models']:.5f})"
    )

print("\nUnit-modulus entries collapse the two constructions exactly:")
for law in ("rademacher", "unit_circle"):
    plan = sweep_plan_from_json({"ns": [20], "c": 0.5, "entry_law": law, "tau": tau, "seed": 0, "replicas": 3})
    records = run_sweep(plan).records
    distances = sorted({r.levy_models for r in records})
    print(f"  {law:<12} coupled Levy distances over replicas: {distances}")
