#!/usr/bin/env python3
"""Coupled comparison of the correlation and covariance constructions.

Both Gram matrices are built from the same base sample (shared randomness),
so the Levy distance between their spectra isolates the effect of the
normalization alone. For entry laws with |xi| = 1 the two constructions are
identical and the distance is exactly zero; for Gaussian entries it shrinks
as n grows.
"""

from tensormp import make_sweep_plan, run_model_comparison

tau = {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}

print("Gaussian entries, two-point tau weights (limit law unknown, so the")
print("two models are compared against each other):")
plan = make_sweep_plan([10, 20, 30], c=0.5, tau=tau, seed=0, replicas=5)
for summary in run_model_comparison(plan).summaries():
    p = summary.params
    print(
        f"  n={p.n:>3}  coupled Levy distance: "
        f"{summary.levy_models_mean:.5f} (se {summary.levy_models_se:.5f})"
    )

print("\nUnit-modulus entries collapse the two constructions exactly:")
for law in ("rademacher", "unit_circle"):
    plan = make_sweep_plan([20], c=0.5, entry_law_kind=law, tau=tau, seed=0, replicas=3)
    records = run_model_comparison(plan).records
    distances = sorted({r.levy_models for r in records})
    print(f"  {law:<12} coupled Levy distances over replicas: {distances}")
