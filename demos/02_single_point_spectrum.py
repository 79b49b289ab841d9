#!/usr/bin/env python3
"""One experiment point end to end.

Draws a base sample, builds the m x m correlation Gram (never the N x N
ambient matrix), eigensolves it, and compares the resulting spectral
distribution with the limit law: a text histogram against the density, plus
the KS and Levy distances.
"""

import numpy as np

from tensormp import (
    MPLaw,
    build_correlation_gram,
    density,
    eigenvalues,
    esd,
    ks_distance,
    levy_distance,
    make_params,
    sample_base,
)

params = make_params(30, 2, 0.5, seed=1)
print(f"n={params.n} k={params.k}: ambient dimension N={params.ambient_dim}, samples m={params.sample_count}")

sample = sample_base(params, 0)
gram = build_correlation_gram(sample)
eigs = eigenvalues(gram)
dist = esd(eigs, params.ambient_dim)
print(f"Gram is {len(gram)} x {len(gram)}; zero mass (1 - c side): {dist.zero_mass:.4f}")

law = MPLaw(params.c)
edges = np.linspace(0.0, law.lambda_plus + 0.2, 16)
counts, _ = np.histogram(dist.atoms, bins=edges)
print("\n  bin            empirical   limit density   bar")
for i, count in enumerate(counts):
    left, right = edges[i], edges[i + 1]
    width = right - left
    empirical = count / (dist.ambient_dim * width)
    mid_density = density(law, 0.5 * (left + right))
    bar = "#" * int(round(empirical * 30))
    print(f"  [{left:5.2f},{right:5.2f})  {empirical:9.4f}   {mid_density:13.4f}   {bar}")

ks = ks_distance(dist, law)
print(f"\nKS distance to the limit law:   {ks:.5f}")
print(f"Levy distance to the limit law: {levy_distance(dist, law):.5f}")
