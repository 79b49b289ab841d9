#!/usr/bin/env python3
"""Tour of the Marchenko-Pastur limit law object.

Shows the support endpoints and zero atom as functions of the ratio c, checks
the normalization atom + integral(density) = 1 in closed form, and prints the
first moments (the first one always equals c).
"""

import numpy as np

from tensormp import MPLaw, cdf, density, density_mass, moment

print(f"{'c':>5} {'lambda-':>10} {'lambda+':>10} {'atom':>7} {'mass+atom':>12} {'moment1':>10}")
for c in (0.1, 0.25, 0.5, 0.9, 1.0, 2.0):
    law = MPLaw.from_ratio(c)
    total = law.atom_mass + density_mass(law)
    print(
        f"{c:>5} {law.lambda_minus:>10.5f} {law.lambda_plus:>10.5f} "
        f"{law.atom_mass:>7.3f} {total:>12.9f} {moment(law, 1):>10.6f}"
    )

law = MPLaw.from_ratio(0.5)
print("\ndensity and CDF across the support (c = 0.5):")
for x in np.linspace(law.lambda_minus, law.lambda_plus, 9):
    print(f"  x={x:6.3f}  density={density(law, x):8.5f}  cdf={cdf(law, x):8.5f}")

print("\nmoments q = 1..6 at c = 0.5:")
print(" ", [round(moment(law, q), 8) for q in range(1, 7)])
