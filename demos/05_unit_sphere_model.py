#!/usr/bin/env python3
"""The unit-sphere sample model.

A Gaussian base vector rescaled to unit length is uniform on the complex unit
sphere, and a k-fold tensor of unit vectors is the unit tensor: normalizing
level by level gives exactly the correlation construction. The demo verifies
the two construction routes agree entrywise at float precision and that the
sphere model's spectrum obeys the same limit law.
"""

import numpy as np

from tensormp import (
    build_correlation_gram,
    build_normalized_level_gram,
    make_params,
    run_sphere_model,
    sample_base,
)

params = make_params(30, 2, 0.5, seed=0, replicas=5)

sample = sample_base(params, 0)
direct = build_normalized_level_gram(sample, params.tau)
via_correlation = build_correlation_gram(sample, params.tau)
deviation = float(np.max(np.abs(direct.entries - via_correlation.entries)))
print(f"normalized-level Gram vs correlation Gram, entrywise deviation: {deviation:.3e}")

report = run_sphere_model(params)
mean, se = report.ks_stats()
print(f"max deviation over {params.replicas} independent replicas: {report.max_gram_deviation:.3e}")
print(f"KS distance of the sphere-model spectrum to the limit law: {mean:.5f} (se {se:.5f})")
print("\nThe sphere model therefore inherits the limit law from the")
print("correlation model: the two are the same construction in disguise.")
