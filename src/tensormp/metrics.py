"""Distances between distribution functions, plus the trace identity and the
Levy fourth-power trace bound as executable, property-testable statements.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import mp
from .gram import SpectralDistribution, eigenvalues, esd

LEVY_TOL = 1e-9


@dataclass(frozen=True)
class EmpiricalCDF:
    """Right-continuous step function: value cumulative[i] on
    [breakpoints[i], breakpoints[i+1]), zero before the first breakpoint,
    and exactly one from the last onwards."""

    breakpoints: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        cm = np.asarray(self.cumulative, dtype=float)
        if bp.ndim != 1 or bp.shape != cm.shape or bp.size == 0:
            raise ValueError("breakpoints and cumulative must be equal-length 1-d arrays")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(cm) < 0.0) or cm[0] < 0.0 or cm[-1] != 1.0:
            raise ValueError("cumulative must be nondecreasing in [0, 1] and end at 1")
        bp.setflags(write=False)
        cm.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "cumulative", cm)

    @classmethod
    def from_spectral(cls, dist: SpectralDistribution) -> "EmpiricalCDF":
        values, counts = np.unique(dist.atoms, return_counts=True)
        zeros = dist.implied_zeros
        if zeros > 0 and not (values.size and values[0] == 0.0):
            values = np.concatenate([[0.0], values])
            counts = np.concatenate([[0], counts])
        if zeros > 0:
            counts = counts.copy()
            counts[values == 0.0] += zeros
        # integer cumsum first: the final mass is then N/N = 1 exactly
        cumulative = np.cumsum(counts) / dist.ambient_dim
        return cls(breakpoints=values, cumulative=cumulative)

    def evaluate(self, x) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate([[0.0], self.cumulative])
        return padded[idx]

    def left_limit(self, x) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="left")
        padded = np.concatenate([[0.0], self.cumulative])
        return padded[idx]


def _canonical(f: EmpiricalCDF, g: EmpiricalCDF | mp.MPLaw):
    """Two step functions in a fixed order, so that both distances are exactly
    symmetric; a continuous reference stays second."""
    if isinstance(g, EmpiricalCDF):
        fk = (f.breakpoints.tobytes(), f.cumulative.tobytes())
        gk = (g.breakpoints.tobytes(), g.cumulative.tobytes())
        if gk < fk:
            return g, f
    return f, g


def _steps(f: EmpiricalCDF) -> tuple[np.ndarray, np.ndarray]:
    """F(b) and F(b-) at F's own breakpoints b, read off the stored steps."""
    return f.cumulative, np.concatenate([[0.0], f.cumulative[:-1]])


def ks_distance(f: EmpiricalCDF, g: EmpiricalCDF | mp.MPLaw) -> float:
    """sup |F - G| for a step function F and a step function or limit law G.

    Between consecutive breakpoints of F it is constant while G is monotone,
    so the sup is attained at a breakpoint b of F or at its left limit b-:
    scanning F's breakpoints alone is exact.
    """
    f, g = _canonical(f, g)
    b = f.breakpoints
    at, before = _steps(f)
    after_gap = np.max(np.abs(at - g.evaluate(b)))
    before_gap = np.max(np.abs(before - g.left_limit(b)))
    return float(max(after_gap, before_gap))


def _levy_feasible(f: EmpiricalCDF, at, before, g: EmpiricalCDF | mp.MPLaw, eps: float) -> bool:
    # with z = x + eps and y = x - eps the sandwich reads G(z-eps) <= F(z)+eps
    # and F(y)-eps <= G(y+eps). F is constant between its breakpoints and G
    # is nondecreasing, so the first binds just before a breakpoint b of F
    # (z -> b-, where F takes the value `before`) and the second exactly at one (y = b).
    b = f.breakpoints
    if np.any(g.left_limit(b - eps) > before + eps):
        return False
    return not np.any(at - eps > g.evaluate(b + eps))


def levy_distance(f: EmpiricalCDF, g: EmpiricalCDF | mp.MPLaw, tol: float = LEVY_TOL) -> float:
    """inf{eps > 0 : F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x}, for a
    step function F and a step function or limit law G.

    Feasibility of a given eps is decided exactly by scanning F's breakpoints
    against G shifted by +-eps; only eps itself is bisected (to absolute
    tolerance 1e-9), starting from the KS distance, which is always feasible.
    Identical step functions give exactly 0, and step-function arguments are
    put in a canonical order first, so the distance is exactly symmetric.
    """
    f, g = _canonical(f, g)
    hi = ks_distance(f, g)
    if hi == 0.0:
        return 0.0
    lo = 0.0
    at, before = _steps(f)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _levy_feasible(f, at, before, g, mid):
            hi = mid
        else:
            lo = mid
    return hi


def column_normalization_identity(a: np.ndarray, weights) -> tuple[float, float]:
    """Both sides of the trace identity for column normalization.

    lhs = Tr((A/sqrt(n) - B) W (A/sqrt(n) - B)*) with B the column-normalized
    A and W = diag(weights); rhs = sum_j w_j (||A_j||^2/n - 1)
    - 2 sum_j w_j (||A_j||/sqrt(n) - 1). The weight matrix is p x p, one
    entry per column (an n x n weight would be dimensionally inconsistent
    unless p = n).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected an n x p matrix")
    n, p = a.shape
    w = np.asarray(weights, dtype=float)
    if w.shape != (p,):
        raise ValueError(f"expected {p} column weights")
    if np.any(w <= 0.0):
        raise ValueError("weights must be positive")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("zero column")
    b = a / norms
    d = a / np.sqrt(n) - b
    lhs = float(np.trace((d * w) @ d.conj().T).real)
    rhs = float(np.sum(w * (norms**2 / n - 1.0)) - 2.0 * np.sum(w * (norms / np.sqrt(n) - 1.0)))
    return lhs, rhs


def levy_distance_trace_bound(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """lhs = L^4 between the spectral CDFs of AA* and BB*; rhs = the trace
    bound (2/p^2) Tr((A-B)(A-B)*) Tr(AA* + BB*). Always lhs <= rhs."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("expected two p x n matrices of equal shape")
    p = a.shape[0]
    ga = a @ a.conj().T
    gb = b @ b.conj().T
    fa = EmpiricalCDF.from_spectral(esd(eigenvalues(0.5 * (ga + ga.conj().T)), p))
    fb = EmpiricalCDF.from_spectral(esd(eigenvalues(0.5 * (gb + gb.conj().T)), p))
    lhs = levy_distance(fa, fb) ** 4
    rhs = float(2.0 / p**2 * np.sum(np.abs(a - b) ** 2) * (np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2)))
    return lhs, rhs


def empirical_moment(dist: SpectralDistribution, q: int) -> float:
    """(1/N) sum atoms^q; the implied zeros contribute nothing for q >= 1."""
    if not 1 <= q <= 20:
        raise ValueError("moment order must be in [1, 20]")
    return float(np.sum(np.asarray(dist.atoms, dtype=float) ** q) / dist.ambient_dim)
