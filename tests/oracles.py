"""Independent oracles the tests check the library against.

Nothing here shares a computation path with the package: eigenvalues come
from inertia counting plus bisection, KS and Levy distances from brute-force
scans, the limit-law values from closed forms or QUADPACK, Gram entries
from explicitly formed tensor vectors, or from the builders' arithmetic
written with whole-matrix temporaries, the Hermitian check from two scans
(max |G|, then the upper triangle's asymmetry), and normal draws from a
scalar ziggurat reading one word at a time.

The numpy reference of every keyed draw is here too: ``_stream(seed,
*key)`` is ``Generator(Philox(SeedSequence(seed, spawn_key=key)))``,
``_fill`` draws a law's raw values from it with numpy's own ``random``,
``integers`` and ``standard_normal``, and ``_draw`` makes them entries. The
package's draws (``sample_base``, ``norm_moment_check``, the selftest) read
the same Philox words without numpy's generator, and are tested against
these bitwise.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import comb, exp, log1p, sqrt

import numpy as np
from scipy import integrate

from tensormp._ziggurat import FI, KI, NEG_INV_R, R, WI
from tensormp.config import EntryLaw, ModelKind
from tensormp.gram import _PANEL_ROWS, HERMITIAN_RTOL


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _fill(law: EntryLaw, rng: np.random.Generator, out: np.ndarray) -> None:
    """Draw one stream's raw values into the contiguous float64 array ``out``."""
    if law is EntryLaw.COMPLEX_GAUSSIAN or law is EntryLaw.REAL_GAUSSIAN:
        rng.standard_normal(out=out)
    elif law is EntryLaw.RADEMACHER:
        out[...] = rng.integers(0, 2, size=out.shape)
    else:
        rng.random(out=out)


def _draw(law: EntryLaw, rng: np.random.Generator, shape) -> np.ndarray:
    """Entries of ``law`` from one stream: (re + i im) / sqrt(2) of a real
    and then an imaginary plane of normals, a normal, 2b - 1 of a bit b, or
    cos + i sin of the angle 2 pi u."""
    if isinstance(shape, int):
        shape = (shape,)
    raw = np.empty((2,) + shape if law is EntryLaw.COMPLEX_GAUSSIAN else shape)
    _fill(law, rng, raw)
    if law is EntryLaw.COMPLEX_GAUSSIAN:
        return (np.multiply(1j, raw[1]) + raw[0]) / np.sqrt(2.0)
    if law is EntryLaw.REAL_GAUSSIAN:
        return raw
    if law is EntryLaw.RADEMACHER:
        return raw * 2.0 - 1.0
    theta = raw * (2.0 * np.pi)
    return np.multiply(1j, np.sin(theta)) + np.cos(theta)


def gram_direct(sample, tau, model: ModelKind) -> np.ndarray:
    """G_ab = sqrt(tau_a tau_b) <Y_b, Y_a> / (||Y_a|| ||Y_b||) for the
    correlation model, or / n^k for the covariance model, from the explicit
    n^k-entry tensor vectors Y_a (outer products of the levels, row-major)."""
    m, k, n = sample.entries.shape
    if n**k > 4096:
        raise ValueError(f"ambient dimension {n**k} exceeds the oracle cap 4096")
    tensors = np.array([reduce(np.multiply.outer, sample.entries[a]).ravel() for a in range(m)])
    inner = tensors @ tensors.conj().T  # inner[a, b] = <Y_b, Y_a>
    if model is ModelKind.CORRELATION:
        norms = np.sqrt(np.sum(np.abs(tensors) ** 2, axis=1))
        inner = inner / np.outer(norms, norms)
    else:
        inner = inner / n**k
    values = tau.values
    return np.sqrt(np.outer(values, values)) * inner


def level_ratio_product_out_of_place(sample) -> np.ndarray:
    """The product over levels of the whole level ratios inner_l /
    sqrt(sq_a sq_b) (or inner_l / n for unit-modulus laws), each formed from
    numpy's whole inner-product matrix and multiplied onto a matrix of ones."""
    entries = sample.entries
    m, k, n = entries.shape
    unit = sample.params.entry_law.unit_modulus
    sq = np.einsum("alj,alj->al", entries, entries.conj()).real
    product = np.ones((m, m), dtype=entries.dtype)
    for level in range(k):
        block = entries[:, level, :]
        inner = block @ block.conj().T
        product *= inner / n if unit else inner / np.sqrt(np.outer(sq[:, level], sq[:, level]))
    return product


def gram_out_of_place(sample, tau, model: ModelKind) -> np.ndarray:
    """The Gram builders' arithmetic, one whole-matrix temporary per step.

    The same operations in the same order as the in-place builders, so the
    two must agree bitwise: the level ratios inner_l / sqrt(sq_a sq_b) (or
    inner_l / n for unit-modulus laws) multiplied onto a matrix of ones, the
    sqrt(tau_a tau_b) weights, the strict upper triangle U mirrored as U + U^H
    with tau on the diagonal, and for the covariance model the congruence by
    d_a = sqrt(prod_l sq_a^(l) / n), whose diagonal is tau_a d_a^2.
    """
    product = level_ratio_product_out_of_place(sample)
    n = sample.entries.shape[2]
    unit = sample.params.entry_law.unit_modulus
    sq = np.einsum("alj,alj->al", sample.entries, sample.entries.conj()).real
    values = tau.values
    upper = np.triu(np.sqrt(np.outer(values, values)) * product, 1)
    corr = upper + upper.conj().T
    corr[np.diag_indices_from(corr)] = values
    if model is ModelKind.CORRELATION or unit:
        return corr
    scale = np.prod(sq / n, axis=1)
    d = np.sqrt(scale)
    cov = corr * np.outer(d, d)
    cov[np.diag_indices_from(cov)] = np.diag(corr).real * scale
    return cov


def hermitian_eigen_bisect(matrix, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix by Sylvester inertia bisection.

    count_below(x) runs a symmetric elimination of (A - xI) and counts
    negative pivots; each eigenvalue is then located by bisecting between the
    Gershgorin bounds.
    """
    a = np.asarray(matrix, dtype=complex)
    dim = a.shape[0]
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    lo_all = float(np.min(np.diag(a).real - radii)) - 1.0
    hi_all = float(np.max(np.diag(a).real + radii)) + 1.0

    def count_below(x: float) -> int:
        work = a - x * np.eye(dim)
        negatives = 0
        for i in range(dim):
            pivot = work[i, i].real
            if abs(pivot) < 1e-300:
                # pivot breakdown: nudge the shift; measure-zero event
                return count_below(x + 1e-11)
            if pivot < 0.0:
                negatives += 1
            if i + 1 < dim:
                factors = work[i + 1 :, i] / pivot
                work[i + 1 :, i + 1 :] -= np.outer(factors, work[i, i + 1 :])
        return negatives

    eigs = np.empty(dim)
    for j in range(dim):
        lo, hi = lo_all, hi_all
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_below(mid) >= j + 1:
                hi = mid
            else:
                lo = mid
        eigs[j] = 0.5 * (lo + hi)
    return eigs


def hermitian_row_two_scan(matrix) -> tuple[float, float]:
    """The (gap, bound) of the eigensolver's hermitian check, by two scans of
    the row panels: max |G| over all of them first, then, only if it is
    finite, the asymmetry of each panel's upper part against the columns
    below it. A non-finite entry raises ValueError naming the first
    row-major one."""
    entries = np.asarray(matrix)
    m = entries.shape[0]
    panels = [(start, min(start + _PANEL_ROWS, m)) for start in range(0, m, _PANEL_ROWS)]
    scale = float(np.max([np.max(np.abs(entries[start:stop])) for start, stop in panels], initial=0.0))
    if not np.isfinite(scale):
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(entries))[0])
        raise ValueError(f"matrix has a non-finite entry {entries[index]} at {index}")
    upper = [np.max(np.abs(entries[start:stop, start:] - entries[start:, start:stop].conj().T)) for start, stop in panels]
    return float(np.max(upper, initial=0.0)), HERMITIAN_RTOL * max(scale, 1e-300)


def step_eval(breakpoints, cumulative, x):
    """Right-continuous step-function evaluation, local to the oracle."""
    idx = np.searchsorted(breakpoints, x, side="right")
    padded = np.concatenate([[0.0], cumulative])
    return padded[idx]


def levy_bruteforce(f, g, eps_grid) -> float:
    """Smallest grid eps for which the sandwich holds on a dense x grid."""
    points = np.union1d(f.breakpoints, g.breakpoints)
    span = points[-1] - points[0] + 1.0
    for eps in np.sort(np.asarray(eps_grid, dtype=float)):
        xs = np.unique(
            np.concatenate(
                [
                    points,
                    points - eps,
                    points + eps,
                    np.linspace(points[0] - span, points[-1] + span, 2001),
                ]
            )
        )
        fv_minus = step_eval(f.breakpoints, f.cumulative, xs - eps)
        fv_plus = step_eval(f.breakpoints, f.cumulative, xs + eps)
        gv = step_eval(g.breakpoints, g.cumulative, xs)
        if np.all(fv_minus - eps <= gv + 1e-12) and np.all(gv <= fv_plus + eps + 1e-12):
            return float(eps)
    return float("inf")


def mp_moment_closed_form(c: float, q: int) -> float:
    """Narayana-polynomial closed form of the limit-law moments."""
    return sum(c ** (r + 1) / (r + 1) * comb(q, r) * comb(q - 1, r) for r in range(q))


def _mp_density(c: float, x: float) -> float:
    lo, hi = (1.0 - sqrt(c)) ** 2, (1.0 + sqrt(c)) ** 2
    if not (lo < x < hi and x > 0.0):
        return 0.0
    return sqrt((hi - x) * (x - lo)) / (2.0 * np.pi * x)


def mp_cdf_quad(c: float, x: float) -> float:
    """Limit-law CDF through QUADPACK, atom included."""
    lo = (1.0 - sqrt(c)) ** 2
    hi = (1.0 + sqrt(c)) ** 2
    atom = max(0.0, 1.0 - c) if x >= 0.0 else 0.0
    upper = min(x, hi)
    if upper <= lo:
        return atom
    value, _ = integrate.quad(lambda s: _mp_density(c, s), lo, upper, limit=400)
    return atom + value


def mp_moment_quad(c: float, q: int) -> float:
    lo = (1.0 - sqrt(c)) ** 2
    hi = (1.0 + sqrt(c)) ** 2
    value, _ = integrate.quad(lambda s: s**q * _mp_density(c, s), lo, hi, limit=400)
    return value


def mp_cdf_quad_grid(c: float, xs) -> np.ndarray:
    """mp_cdf_quad at every sorted point of xs, integrating one QUADPACK cell
    per pair of neighbouring points and cumulating the cells."""
    xs = np.asarray(xs, dtype=float)
    lo = (1.0 - sqrt(c)) ** 2
    hi = (1.0 + sqrt(c)) ** 2
    ends = np.clip(xs, lo, hi)
    cells = [
        integrate.quad(lambda s: _mp_density(c, s), a, b, limit=400)[0] if b > a else 0.0
        for a, b in zip(ends[:-1], ends[1:])
    ]
    atom = np.where(xs >= 0.0, max(0.0, 1.0 - c), 0.0)
    below_first = mp_cdf_quad(c, float(xs[0])) - atom[0]
    return atom + below_first + np.concatenate([[0.0], np.cumsum(cells)])


def ks_law_scan(f, c: float, xs) -> float:
    """max |F - G| over the scan points, G from QUADPACK."""
    xs = np.unique(xs)
    return float(np.max(np.abs(step_eval(f.breakpoints, f.cumulative, xs) - mp_cdf_quad_grid(c, xs))))


def levy_law_scan(f, c: float, xs, tol: float = 1e-12) -> float:
    """Smallest eps (bisected to tol) for which the Levy sandwich
    F(x-eps)-eps <= G(x) <= F(x+eps)+eps holds at every scan point, G from
    QUADPACK. The scan check is monotone in eps, so bisection is valid."""
    xs = np.unique(xs)
    g = mp_cdf_quad_grid(c, xs)

    def holds(eps: float) -> bool:
        below = step_eval(f.breakpoints, f.cumulative, xs - eps) - eps
        above = step_eval(f.breakpoints, f.cumulative, xs + eps) + eps
        return bool(np.all(below <= g) and np.all(g <= above))

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def ziggurat_normals(words, count: int, end: int = 0) -> tuple[np.ndarray, Counter]:
    """``count`` draws of numpy's random_standard_normal from the uint64
    stream ``words``, one word at a time as numpy's C loop reads them, and a
    tally of the events on the way: "tail" and "wedge" rejections of a first
    word, "wedge_rejected" wedges that start a new draw, and "words" read.
    With ``end``, it also counts the events that the end of the first
    ``end`` words cuts: "wedge_at_end", a wedge whose first word is the last
    of them, and "tail_past_end", a tail that starts before it and reads past.
    It shares the package's tables, which the comparisons with numpy's own
    generator check."""
    stream = map(int, words)
    events = Counter()

    def word() -> int:
        events["words"] += 1
        return next(stream)

    def uniform() -> float:
        return (word() >> 11) * 2.0**-53

    values = []
    while len(values) < count:
        r = word()
        layer, rabs = r & 0xFF, (r >> 9) & (2**52 - 1)
        x = rabs * float(WI[layer])
        if r >> 8 & 1:
            x = -x
        if rabs < int(KI[layer]):
            values.append(x)
        elif layer == 0:
            events["tail"] += 1
            start = events["words"]
            while True:
                xx = NEG_INV_R * log1p(-uniform())
                yy = -log1p(-uniform())
                if yy + yy > xx * xx:
                    break
            events["tail_past_end"] += start <= end < events["words"]
            values.append(-(R + xx) if rabs >> 8 & 1 else R + xx)
        else:
            events["wedge"] += 1
            events["wedge_at_end"] += events["words"] == end
            if (float(FI[layer - 1]) - float(FI[layer])) * uniform() + float(FI[layer]) < exp(-0.5 * x * x):
                values.append(x)
            else:
                events["wedge_rejected"] += 1
    return np.array(values), events
