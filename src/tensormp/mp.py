"""The Marchenko-Pastur limit law: density, CDF, and moments, all closed-form.

On the support [lambda_minus, lambda_plus] the density sqrt(R(x)) / (2 pi x),
R(x) = (lambda_plus - x)(x - lambda_minus), has the elementary antiderivative

    sqrt(R) + s * asin((x - s) / h) - g * asin(((l- + l+) x - 2 l- l+) / (2 h x))

with s = (l- + l+)/2, h = (l+ - l-)/2 and g = sqrt(l- l+). Both arcsines are
evaluated as atan2 of their opposite and adjacent sides, which stays accurate
where the asin argument approaches +-1 (the support ends). The moments are
the Narayana polynomials in c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_MOMENT = 20


@dataclass(frozen=True)
class MPLaw:
    """Limit law for the constant-tau case: support endpoints and zero atom.

    `evaluate`, `left_limit` and `sides` mirror those of
    `gram.SpectralDistribution`, so the law can stand in as the reference of
    an exact KS or Levy distance.
    """

    c: float
    lambda_minus: float
    lambda_plus: float
    atom_mass: float

    @classmethod
    def from_ratio(cls, c: float) -> "MPLaw":
        if not (c > 0 and math.isfinite(c)):
            raise ValueError("ratio c must be positive and finite")
        root = math.sqrt(c)
        return cls(
            c=float(c),
            lambda_minus=(1.0 - root) ** 2,
            lambda_plus=(1.0 + root) ** 2,
            atom_mass=max(0.0, 1.0 - c),
        )

    def evaluate(self, x) -> np.ndarray:
        return np.asarray(cdf(self, x))

    def left_limit(self, x) -> np.ndarray:
        return self.sides(x)[1]

    def sides(self, x) -> tuple[np.ndarray, np.ndarray]:
        """F(x) and F(x-), from one evaluation of the law: it is continuous
        except for the atom at zero."""
        arr = np.asarray(x, dtype=float)
        value = np.asarray(cdf(self, arr))
        return value, np.where(arr > 0.0, value, 0.0)


def density(law: MPLaw, x) -> np.ndarray | float:
    """Absolutely continuous part only; zero off the open support interval.

    The atom at zero is not part of the density, and the endpoint values are
    defined as the limit 0.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    inside = (arr > law.lambda_minus) & (arr < law.lambda_plus) & (arr > 0.0)
    xs = arr[inside]
    out[inside] = np.sqrt((law.lambda_plus - xs) * (xs - law.lambda_minus)) / (2.0 * np.pi * xs)
    return float(out[0]) if scalar else out


def _density_integral(law: MPLaw, t: np.ndarray) -> np.ndarray:
    """Integral of the density from lambda_minus to t, for t in the support."""
    lo, hi = law.lambda_minus, law.lambda_plus
    r = np.sqrt((hi - t) * (t - lo))
    s = 0.5 * (lo + hi)
    g = math.sqrt(lo * hi)
    theta = np.arctan2(t - s, r)
    phi = np.arctan2((lo + hi) * t - 2.0 * lo * hi, 2.0 * g * r)
    return (r + s * (theta + np.pi / 2.0) - g * (phi + np.pi / 2.0)) / (2.0 * np.pi)


def cdf(law: MPLaw, x) -> np.ndarray | float:
    """atom * 1_{x >= 0} plus the integral of the density up to x.

    Exactly 0 below zero, exactly the atom on [0, lambda_minus] and exactly 1
    from lambda_plus on; vectorized over arrays.
    """
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr)
    values = np.where(flat >= 0.0, law.atom_mass, 0.0)
    inside = (flat > law.lambda_minus) & (flat < law.lambda_plus)
    # rounding near either support end must not leave [atom, 1]: that would break monotonicity
    continuous = np.maximum(_density_integral(law, flat[inside]), 0.0)
    values[inside] = np.minimum(values[inside] + continuous, 1.0)
    values[flat >= law.lambda_plus] = 1.0
    return float(values[0]) if arr.ndim == 0 else values


def moment(law: MPLaw, q: int) -> float:
    """E X^q = sum_r c^(r+1)/(r+1) C(q, r) C(q-1, r) (Narayana); the zero atom
    only contributes at q = 0, where the answer is 1."""
    if q < 0 or q > MAX_MOMENT:
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT}]")
    if q == 0:
        return 1.0
    c = law.c
    return float(sum(c ** (r + 1) / (r + 1) * math.comb(q, r) * math.comb(q - 1, r) for r in range(q)))


def density_mass(law: MPLaw) -> float:
    """Total mass of the absolutely continuous part (should be 1 - atom)."""
    return float(_density_integral(law, law.lambda_plus))


def evaluation_grid(law: MPLaw, points: int = 512, lo: float | None = None, hi: float | None = None):
    """(x, density, cdf) arrays for dumping and plotting, on points evenly
    spaced from lo to hi, which must be finite with lo < hi."""
    if points < 2:
        raise ValueError("need at least two grid points")
    if lo is None:
        lo = min(0.0, law.lambda_minus) - 0.05
    if hi is None:
        hi = law.lambda_plus + 0.05
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"the grid needs finite bounds lo < hi, got lo={lo!r}, hi={hi!r}")
    xs = np.linspace(lo, hi, points)
    return xs, density(law, xs), cdf(law, xs)
