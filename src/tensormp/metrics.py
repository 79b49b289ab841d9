"""Distances between distribution functions, plus the trace identity and the
Levy fourth-power trace bound as executable, property-testable statements.
"""

from __future__ import annotations

import numpy as np

from . import mp
from .gram import SpectralDistribution, eigenvalues, esd

LEVY_TOL = 1e-9
_LEVY_GUARD = 1e-12  # how far beyond a verified end a Levy bisection mid is decided without a scan


def _canonical(f: SpectralDistribution, g: SpectralDistribution | mp.MPLaw):
    """Two step functions in a fixed order, so that both distances are exactly
    symmetric; a continuous reference stays second."""
    if isinstance(g, SpectralDistribution):
        fk = (f.breakpoints.tobytes(), f.cumulative.tobytes())
        gk = (g.breakpoints.tobytes(), g.cumulative.tobytes())
        if gk < fk:
            return g, f
    return f, g


def ks_distance(f: SpectralDistribution, g: SpectralDistribution | mp.MPLaw) -> float:
    """sup |F - G| for a step function F and a step function or limit law G.

    Between consecutive breakpoints of F it is constant while G is monotone,
    so the sup is attained at a breakpoint b of F or at its left limit b-:
    scanning F's breakpoints alone is exact.
    """
    f, g = _canonical(f, g)
    g_at, g_before = g.sides(f.breakpoints)
    return float(max(np.max(np.abs(f.cumulative - g_at)), np.max(np.abs(f.cumulative_before - g_before))))


def _levy_feasible(f: SpectralDistribution, g: SpectralDistribution | mp.MPLaw, eps: float) -> bool:
    # with z = x + eps and y = x - eps the sandwich reads G(z-eps) <= F(z)+eps
    # and F(y)-eps <= G(y+eps). F is constant between its breakpoints and G
    # is nondecreasing, so the first binds just before a breakpoint b of F
    # (z -> b-, where F takes the value cumulative_before) and the second exactly at one (y = b).
    b = f.breakpoints
    if np.any(g.left_limit(b - eps) > f.cumulative_before + eps):
        return False
    return not np.any(f.cumulative - eps > g.evaluate(b + eps))


def _levy_estimate(f: SpectralDistribution, law: mp.MPLaw) -> float:
    """The Levy distance from F to the law, but for the error of at most four
    Newton steps. With H(u) = G(u) + u, of slope >= 1, the constraints of
    _levy_feasible at a breakpoint b read eps >= H^-1(F(b) + b) - b and
    eps >= b - H^-1(F(b-) + b). H^-1(y) is y below 0, 0 in the atom's jump,
    y - atom up to atom + lambda_minus and y - 1 from 1 + lambda_plus on; on
    the support it takes Newton steps from b (H' = 1 + density)."""
    b = f.breakpoints
    y, start = np.concatenate([f.cumulative + b, f.cumulative_before + b]), np.concatenate([b, b])
    atom, low, high = law.atom_mass, law.lambda_minus, law.lambda_plus
    u = np.where(y < 0.0, y, np.maximum(y - atom, 0.0))
    u = np.where(y >= 1.0 + high, y - 1.0, u)
    inside = (y > atom + low) & (y < 1.0 + high)
    x, target = np.clip(start[inside], low, high), y[inside]
    for _ in range(4):
        step = (law.evaluate(x) + x - target) / (1.0 + mp.density(law, x))
        x = np.clip(x - step, low, high)
        if np.max(np.abs(step), initial=0.0) < 1e-13:  # far inside the 1e-12 guard
            break
    u[inside] = x
    return float(max(np.max(u[: b.size] - b), np.max(b - u[b.size :])))


def levy_distance(f: SpectralDistribution, g: SpectralDistribution | mp.MPLaw) -> float:
    """inf{eps > 0 : F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x}, for a
    step function F and a step function or limit law G.

    Feasibility of a given eps is decided exactly by scanning F's breakpoints
    against G shifted by +-eps; only eps itself is bisected (to absolute
    tolerance 1e-9), starting from the pair's own KS distance, which is
    always feasible: the distance depends on its two arguments alone.
    Identical step functions give exactly 0, and step-function arguments
    are put in a canonical order first, so the distance is exactly symmetric.

    Against a limit law the scan first runs at _levy_estimate +- 1e-12. Each
    end it verifies decides, with no scan, every mid beyond it by more than
    1e-12, which moves each side of a constraint far past G's rounding: the
    result has the plain bisection's bits, and a poor estimate only costs scans.
    """
    f, g = _canonical(f, g)
    hi = ks_distance(f, g)
    if hi == 0.0:
        return 0.0
    lo = 0.0
    feasible, infeasible = np.inf, -np.inf  # the verified ends
    if isinstance(g, mp.MPLaw):
        estimate = _levy_estimate(f, g)
        for end in (estimate + _LEVY_GUARD, estimate - _LEVY_GUARD):
            if _levy_feasible(f, g, end):
                feasible = min(feasible, end)
            else:
                infeasible = max(infeasible, end)
    while hi - lo > LEVY_TOL:
        mid = 0.5 * (lo + hi)
        if mid > feasible + _LEVY_GUARD:
            hi = mid
        elif mid >= infeasible - _LEVY_GUARD and _levy_feasible(f, g, mid):
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
    fa = esd(eigenvalues(0.5 * (ga + ga.conj().T)), p)
    fb = esd(eigenvalues(0.5 * (gb + gb.conj().T)), p)
    lhs = levy_distance(fa, fb) ** 4
    rhs = float(2.0 / p**2 * np.sum(np.abs(a - b) ** 2) * (np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2)))
    return lhs, rhs


def empirical_moment(dist: SpectralDistribution, q: int) -> float:
    """(1/N) sum atoms^q; the implied zeros contribute nothing for q >= 1."""
    if not 1 <= q <= mp.MAX_MOMENT:
        raise ValueError(f"moment order must be in [1, {mp.MAX_MOMENT}]")
    return float(np.sum(dist.atoms**q) / dist.ambient_dim)
