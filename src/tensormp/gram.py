"""Gram-path spectra: an m x m Hermitian matrix carries the whole nonzero
spectrum of the n^k-dimensional rank-m model, since X W X* and W^{1/2} X*X
W^{1/2} share nonzero eigenvalues. The k-fold structure collapses each Gram
entry into a product of k per-level inner products, so nothing of ambient
size is ever materialized outside the small dense oracle.

A Gram is built from a BaseSample alone (its weights are the sample's
``params.tau``) and is returned as a read-only m x m array. The covariance
Gram is the diagonal congruence D C D of the correlation Gram C, and
``model_spectra`` writes it into C's own buffer from C's strict lower
triangle, which C's solve leaves as it was. ``model_spectra`` draws a
replica's sample itself and drops it before the first solve. Each level of
a Gram is formed in that buffer, and each solve runs in it, made writable
once, so a replica of every law holds one m x m block: in a sweep, the head
of the one flat buffer (``gram_buffer``) that every replica reuses.
Real levels and solves call numpy's bundled OpenBLAS (``_numpy_openblas``)
through ``_openblas``; without it numpy's products and eigvalsh give the same bits.
"""

from __future__ import annotations

import ctypes
import numbers
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from pathlib import Path

import numpy as np

from .checks import require
from .config import ModelKind, ModelParams
from .sampling import BaseSample, sample_base

DENSE_DIM_CAP = 4096
HERMITIAN_RTOL = 1e-12
INVARIANT_RTOL = 1e-10  # trace/Frobenius gap allowed per eigenvalue, relative to max|w|^p
NEGATIVE_CLAMP_REL = 1e-9  # relative floor below which negatives are an error
NONZERO_THRESHOLD_REL = 1e-9  # separates rank zeros from genuine small atoms
_PANEL_ROWS = 32  # rows per panel of the in-place Gram passes and checks
_NEGATIVE_ZERO_BITS = np.iinfo(np.int64).min  # -0.0 read as an int64: the smallest one
_LAPACK_COL_MAJOR = 102  # LAPACKE's matrix_layout code for column-major storage
_CBLAS_ROW_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS = 101, 121, 111  # CBLAS enum codes


@dataclass(frozen=True, eq=False)
class SpectralDistribution:
    """The empirical spectral distribution of N eigenvalues, and the
    right-continuous step function F the KS and Levy distances read.

    ``atoms``, a finite nondecreasing 1-d sequence of at most N values kept
    as a read-only float64 copy, are the eigenvalues present in the ambient
    spectrum (esd removes the structural rank zeros when m > N); the other
    ``implied_zeros`` are pinned at zero by the rank bound. F is
    cumulative[i] on [breakpoints[i], breakpoints[i+1]) and zero before the
    first breakpoint; the breakpoints are the distinct atoms, and 0 where
    zeros are implied, derived at their first read. Like its array, it
    compares and hashes by identity."""

    atoms: np.ndarray
    ambient_dim: int

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)
        # each check is phrased so that a NaN fails it
        if not (isinstance(self.ambient_dim, numbers.Integral) and self.ambient_dim >= 1):
            raise ValueError(f"ambient dimension must be an integer of at least 1, got {self.ambient_dim!r}")
        if atoms.ndim != 1 or atoms.size > self.ambient_dim:
            raise ValueError(f"atoms must be a 1-d array of at most N={self.ambient_dim} values, got shape {atoms.shape}")
        if not (np.all(np.isfinite(atoms)) and np.all(np.diff(atoms) >= 0.0)):
            raise ValueError("atoms must be finite and nondecreasing")
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @property
    def implied_zeros(self) -> int:
        return self.ambient_dim - len(self.atoms)

    @property
    def zero_mass(self) -> float:
        return self.implied_zeros / self.ambient_dim

    @cached_property
    def _step_function(self) -> tuple[np.ndarray, np.ndarray]:
        """The breakpoints, and F at each after a leading 0."""
        values, counts = np.unique(self.atoms, return_counts=True)
        if self.implied_zeros > 0:
            at = int(np.searchsorted(values, 0.0))
            if at == values.size or values[at] != 0.0:
                values, counts = np.insert(values, at, 0.0), np.insert(counts, at, 0)
            counts[at] += self.implied_zeros
        # integer cumsum first: the final mass is then N/N = 1 exactly
        padded = np.concatenate([[0.0], np.cumsum(counts) / self.ambient_dim])
        values.setflags(write=False)
        padded.setflags(write=False)
        return values, padded

    @property
    def breakpoints(self) -> np.ndarray:
        return self._step_function[0]

    @property
    def cumulative(self) -> np.ndarray:
        return self._step_function[1][1:]

    @property
    def cumulative_before(self) -> np.ndarray:
        """F just before each breakpoint: 0, then cumulative but its last."""
        return self._step_function[1][:-1]

    def evaluate(self, x) -> np.ndarray:
        return self._step_function[1][np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="right")]

    def left_limit(self, x) -> np.ndarray:
        return self._step_function[1][np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="left")]

    def sides(self, x) -> tuple[np.ndarray, np.ndarray]:
        """F(x) and F(x-)."""
        return self.evaluate(x), self.left_limit(x)


def _row_panels(m: int) -> list[tuple[int, int]]:
    """(start, stop) of each run of _PANEL_ROWS rows of an m x m matrix."""
    return [(start, min(start + _PANEL_ROWS, m)) for start in range(0, m, _PANEL_ROWS)]


def max_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over two matrices of one shape, one row panel at a time, so
    no temporary is larger than a panel; NaN where an entry is, as in np.max."""
    return float(np.max([np.max(np.abs(a[start:stop] - b[start:stop])) for start, stop in _row_panels(len(a))]))


def _hermitize(product: np.ndarray, tau: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Scale product by sqrt(tau_a tau_b), mirror the conjugate of its strict
    upper triangle into the lower one and set the diagonal, all in place.

    Each unordered pair is computed once (the upper triangle) and mirrored by
    conjugation, so Hermitian symmetry is exact rather than approximate. The
    result is bitwise U + U^H with U = triu(sqrt(tau tau^T) * product, 1): the
    additions of zero reproduce that sum's signed zeros. It runs one row panel
    at a time, so no temporary is larger than a panel. Both x * 1.0 and
    x + zero are x for a finite x with no -0.0 part, so where every tau is 1
    a panel with no such part skips both steps.
    """
    m = product.shape[0]
    zero = np.conj(np.zeros((), product.dtype))  # what U^H adds above the diagonal: +0, or +0 - 0j
    weighted = not np.all(tau == 1.0)
    for start, stop in _row_panels(m):
        right = product[start:stop, start:]
        unchanged = not weighted and right.view(np.int64).min() != _NEGATIVE_ZERO_BITS  # no -0.0 part
        if not unchanged:
            np.multiply(np.sqrt(np.outer(tau[start:stop], tau[start:])), right, out=right)
        upper = np.triu(product[start:stop, start:stop], 1)
        product[start:stop, start:stop] = upper + upper.conj().T
        if not unchanged:
            product[start:stop, stop:] += zero
        lower = product[start:stop, :start]
        np.conjugate(product[:start, start:stop].T, out=lower)
        lower += 0.0
    product[np.diag_indices(m)] = diag
    return product


def _divide_by_count(rows: np.ndarray, n: int) -> None:
    """rows /= n in place for a complex array of finite entries, bitwise as
    numpy's division.

    numpy divides z by a real n as ((re + im*0) fl(1/n), (im - re*0) fl(1/n)).
    Unless a part is -0.0 that is the product of each part with fl(1/n), so
    the float64 view is multiplied, about ten times faster. A -0.0 part, whose
    sign the other part decides, sends the rows through numpy's division.
    """
    parts = rows.view(np.float64)
    if parts.view(np.int64).min() == _NEGATIVE_ZERO_BITS:
        np.divide(rows, n, out=rows)
    else:
        parts *= 1.0 / n


def _syrk_upper(block: np.ndarray, product: np.ndarray) -> None:
    """Write numpy's block @ block.T, bitwise, into the upper triangle and
    diagonal of the m x m product, leaving its strict lower triangle as it was.

    numpy forms a real A @ A.T by its bundled cblas_dsyrk (row-major, upper,
    no transpose, alpha 1, beta 0) and copies the upper triangle down. That
    call writes the triangle here, in place, where the library is present,
    block is a BLAS-strided float64 array and product a C-contiguous float64
    matrix; otherwise (a hand-built BaseSample, or no library) it is copied
    from numpy's product.
    """
    m, n = block.shape
    rows, cols = block.strides
    strided = block.dtype == np.float64 and cols == 8 and rows % 8 == 0 and rows // 8 >= n
    target = product.dtype == np.float64 and product.shape == (m, m) and product.flags.c_contiguous
    syrk = (_openblas() or {}).get("dsyrk") if strided and target else None
    if syrk is None:
        np.copyto(product, block @ block.T, where=~np.tri(m, k=-1, dtype=bool))
    else:
        syrk(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS, m, n, 1.0, block.ctypes.data, rows // 8, 0.0, product.ctypes.data, m)


def _mirror_upper_rows(product: np.ndarray, start: int, stop: int) -> None:
    """Copy the strict upper triangle of rows start:stop of a real square
    matrix into the matching strict lower entries, by exact copies: no
    arithmetic, so signed zeros are kept."""
    product[stop:, start:stop] = product[start:stop, stop:].T
    block = product[start:stop, start:stop]
    np.copyto(block, block.T, where=np.tri(stop - start, k=-1, dtype=bool))


def gram_buffer(points) -> np.ndarray:
    """The flat buffer whose head holds each Gram of a run of the ModelParams
    points: the bytes of the largest, m^2 float64s for a real law and m^2
    complex128s otherwise, and no more, since numpy asks for huge pages and
    one straddling the Gram's end is faulted in whole."""
    return np.empty(max(p.sample_count**2 * (8 if p.entry_law.real_valued else 16) for p in points), dtype=np.uint8)


def _gram_block(buffer: np.ndarray | None, m: int, dtype) -> np.ndarray:
    """A C-contiguous (m, m) view of the head of the flat buffer, or a fresh block."""
    if buffer is None:
        return np.empty((m, m), dtype)
    return buffer.view(np.uint8)[: m * m * np.dtype(dtype).itemsize].view(dtype).reshape(m, m)


def _level_ratio_product(sample: BaseSample, buffer: np.ndarray | None = None) -> np.ndarray:
    """Entrywise product over levels of the normalized inner products
    <y_a^(l), y_b^(l)> / (||y_a^(l)|| ||y_b^(l)||), exact in the strict
    upper triangle, which is all _hermitize reads.

    Each factor has modulus <= 1 by Cauchy-Schwarz, which makes the k-fold
    product overflow-proof. For unit-modulus laws ||y^(l)||^2 = n almost
    surely, and the exact value n is used, so the covariance Gram of such a
    law is this correlation Gram bitwise. Each level is normalized bitwise as
    inner / den, and the levels are multiplied in level order.

    A complex level is formed only in each row panel's upper part
    [start:stop, start:]: the first straight into the m x m array, each later
    one into a reused panel. Those are bitwise the entries of numpy's whole
    product (a trailing one-row panel, formed by gemv, is a diagonal entry,
    which _hermitize overwrites), and the strict lower triangle is never
    written. numpy forms a real A A^T by syrk, whose row panels would differ
    in the last bit, so each real level is written by _syrk_upper into the
    array's upper triangle while the running product waits in the strict
    lower one. Each row panel normalizes its upper part, multiplies in a
    copy of its lower columns from the second level on and, before a
    further level, is mirrored down by copies.
    """
    entries = sample.entries
    m, k, n = entries.shape
    unit = sample.params.entry_law.unit_modulus
    sq = None if unit else sample.level_norms

    def normalize(rows: np.ndarray, start: int, stop: int, level: int, first: int = 0) -> None:
        """Normalize rows, the entries of rows start:stop and columns first:."""
        if not unit:
            np.divide(rows, np.sqrt(np.outer(sq[start:stop, level], sq[first:, level])), out=rows)
        elif np.iscomplexobj(rows):
            _divide_by_count(rows, n)
        else:  # a real reciprocal multiply is not bitwise a division
            np.divide(rows, n, out=rows)

    if np.iscomplexobj(entries):
        product = _gram_block(buffer, m, entries.dtype)
        scratch = np.empty(min(_PANEL_ROWS, m) * m, dtype=entries.dtype)  # contiguous: faster passes
        for level in range(k):
            adjoint = entries[:, level, :].conj().T
            for start, stop in _row_panels(m):
                upper = product[start:stop, start:]
                rows = scratch[: upper.size].reshape(upper.shape) if level else upper
                np.matmul(entries[start:stop, level, :], adjoint[:, start:], out=rows)
                normalize(rows, start, stop, level, start)
                if level:
                    upper *= rows
        return product
    # zeros, not garbage (a reused buffer holds an earlier Gram's bytes), below the diagonal
    # of each diagonal block: a panel's arithmetic reads that part, though nothing uses it
    product = _gram_block(buffer, m, np.float64)
    product.fill(0.0)
    for level in range(k):
        _syrk_upper(entries[:, level, :], product)
        for start, stop in _row_panels(m):
            rows = product[start:stop, start:]
            if level:
                running = product[start:, start:stop].T.copy()  # read before the panel's rows are written
            normalize(rows, start, stop, level, start)
            if level:
                rows *= running
            if level < k - 1:
                _mirror_upper_rows(product, start, stop)
    return product


def build_correlation_gram(sample: BaseSample, buffer: np.ndarray | None = None) -> np.ndarray:
    """Read-only Gram of the unit-normalized model: sqrt(tau_a tau_b)
    prod_l rho_l(a, b), (m, m) complex128, or float64 for real laws: a fresh
    array, or a view of the head of a flat buffer that is given.

    The diagonal equals tau exactly; the trace of the whole ambient model is
    therefore sum(tau) with no stochastic term.
    """
    tau = sample.params.tau.as_array()
    entries = _hermitize(_level_ratio_product(sample, buffer), tau, tau)
    entries.setflags(write=False)
    return entries


def _scale_to_covariance(entries: np.ndarray, d2: np.ndarray, tau: np.ndarray) -> None:
    """Write D C D into the buffer of a correlation Gram C, from d^2 and tau.
    Only C's strict lower triangle is read, which a solve leaves as it was, so
    a solved and a fresh C give the same bytes. Each row panel scales its
    lower part by d_a d_b and writes its conjugate above (exactly Hermitian:
    a zero imaginary part is +0 below the diagonal, -0 above); the diagonal
    is tau d^2."""
    d = np.sqrt(d2)
    for start, stop in _row_panels(len(d2)):
        lower = entries[start:stop, :stop]
        np.multiply(lower, np.outer(d[start:stop], d[:stop]), out=lower)
        np.conjugate(lower[:, :start].T, out=entries[:start, start:stop])
        block = entries[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        block[upper] = np.conjugate(block.T[upper])
    entries[np.diag_indices(len(d2))] = tau * d2


def build_normalized_level_gram(sample: BaseSample) -> np.ndarray:
    """Read-only Gram built from explicitly unit-normalized level vectors.

    Independent construction route for the unit-sphere model: each level
    vector is rescaled to unit length first and raw inner products are taken
    afterwards. Mathematically identical to the correlation Gram.
    """
    k = sample.entries.shape[1]
    tau = sample.params.tau.as_array()
    normed = sample.entries / np.sqrt(sample.level_norms)[:, :, None]
    levels = (normed[:, level] @ normed[:, level].conj().T for level in range(k))
    product = next(levels)
    for factor in levels:
        product *= factor
    diag = tau * np.prod(np.einsum("alj,alj->al", normed, normed.conj()).real, axis=1)
    entries = _hermitize(product, tau, diag)
    entries.setflags(write=False)
    return entries


@cache
def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (ILP64), the one numpy.libs/libscipy_openblas64_*.so,
    loaded at first use, not at import: the library numpy mapped at its own
    import, so one thread pool and one thread count. None where numpy carries
    no such library (a numpy not built from a wheel) or it does not load."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        return ctypes.CDLL(str(libs[0])) if len(libs) == 1 else None
    except OSError:
        return None


@cache
def _openblas() -> dict | None:
    """The three calls of ``_numpy_openblas`` that tensormp makes, with their
    argument types set: the values-only LAPACKE ?syevd and ?heevd keyed by
    dtype, and cblas_dsyrk keyed "dsyrk". None where there is no library or
    it lacks any of the three, so the calls are present together or not at all.
    """
    lib = _numpy_openblas()
    try:
        calls = {
            np.dtype(np.float64): lib.scipy_LAPACKE_dsyevd64_,
            np.dtype(np.complex128): lib.scipy_LAPACKE_zheevd64_,
            "dsyrk": lib.scipy_cblas_dsyrk64_,
        }
    except AttributeError:  # no library (None), or a call it lacks
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for dtype in (np.float64, np.complex128):
        # (matrix_layout, jobz, uplo, n, a, lda, w) -> info, with 64-bit LAPACK integers
        calls[np.dtype(dtype)].argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr)
        calls[np.dtype(dtype)].restype = i64
    # (order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc), with 64-bit BLAS integers
    calls["dsyrk"].argtypes = (
        ctypes.c_int, ctypes.c_int, ctypes.c_int, i64, i64, ctypes.c_double, ptr, i64, ctypes.c_double, ptr, i64
    )
    calls["dsyrk"].restype = None
    return calls


def blas_fingerprint() -> dict:
    """What the bits of a spectrum depend on: the numpy version, and the build
    string and thread count that ``_numpy_openblas`` reports, each None where
    there is no such library or call. No sweep reads it."""
    lib = _numpy_openblas()

    def read(name: str, restype):
        call = getattr(lib, name, None)
        if call is not None:
            call.argtypes, call.restype = (), restype
            return call()

    config = read("scipy_openblas_get_config64_", ctypes.c_char_p)
    threads = read("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return {"numpy": np.__version__, "openblas_config": None if config is None else config.decode(), "openblas_threads": threads}


def _solve_in_place(buffer: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the square matrix buffer.T, computed in the
    writable buffer itself: bitwise np.linalg.eigvalsh(buffer.T), which also
    solves it (from a copy) where numpy's bundled OpenBLAS is absent, or the
    buffer is not a C-contiguous float64 or complex128 array.

    LAPACK reads a C-order buffer in column-major order, that is as
    buffer.T. The values-only ?heevd/?syevd (jobz='N', uplo='L') reads the
    lower triangle of buffer.T, the upper triangle and diagonal of the
    buffer, and overwrites exactly those: the buffer's strict lower triangle
    is left as it was. For a Hermitian buffer, buffer.T is its conjugate,
    whose eigenvalues LAPACK returns bitwise as the buffer's own.
    """
    driver = (_openblas() or {}).get(buffer.dtype)
    if driver is None or not buffer.flags.c_contiguous:
        return np.linalg.eigvalsh(buffer.T)
    m = buffer.shape[0]
    w = np.empty(m)
    info = driver(_LAPACK_COL_MAJOR, b"N", b"L", m, buffer.ctypes.data, max(1, m), w.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACK info {info})")
    return w


def _solve_checked(entries: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """The checked eigenvalues (see eigenvalues) of the square matrix
    entries, solved in place in buffer: a copy whose transpose is entries,
    or a built Gram's own buffer (see _solve_in_place). One pass over the row
    panels, no temporary larger than a panel, reads the checks before the
    solve overwrites them: a panel's max |G| and, once that is finite, the
    asymmetry of its lower part against rows already read, so no subtraction
    meets a non-finite entry. |G_ab - conj(G_ba)| = |G_ba - conj(G_ab)|
    bitwise, so the lower triangle covers every pair."""
    scale, asym, nonfinite, message = 0.0, 0.0, 0, ""  # the message is written only when finite_gram fails
    for start, stop in _row_panels(entries.shape[0]):
        rows = entries[start:stop]
        top = float(np.max(np.abs(rows)))  # NaN or inf exactly when an entry is
        if not np.isfinite(top):
            bad = np.argwhere(~np.isfinite(entries))
            index = tuple(int(i) for i in bad[0])
            nonfinite, message = len(bad), f"matrix has a non-finite entry {entries[index]} at {index}"
            break
        scale = max(scale, top)
        asym = max(asym, float(np.max(np.abs(rows[:, :stop] - entries[:stop, start:stop].conj().T))))
    require("finite_gram", nonfinite, 0, message)
    message = f"matrix is not Hermitian: asymmetry {asym:.3e} at scale {scale:.3e}"
    require("hermitian", asym, HERMITIAN_RTOL * max(scale, 1e-300), message)
    identities = float(np.trace(entries).real), float(np.vdot(entries, entries).real)
    w = _solve_in_place(buffer)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    for p, name, exact in zip((1, 2), ("trace", "Frobenius"), identities):
        gap = abs(float(np.sum(w**p)) - exact)
        bound = INVARIANT_RTOL * len(w) * norm**p
        require(f"{name.lower()}_identity", gap, bound, f"eigenvalues miss the {name} identity by {gap:.3e} > {bound:.3e}")
    return w


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, bitwise those of
    np.linalg.eigvalsh.

    Delegates the values-only solve to LAPACK but verifies it: every input,
    a built Gram included, must be finite (finite_gram) and Hermitian to
    1e-12 relative (hermitian), both read in one pass over its row panels,
    and the eigenvalues must meet sum w^p = Re tr G^p (p = 1, 2) up to 1e-10
    m max|w|^p. Each check is a tensormp.checks row that raises when it
    fails, so NaN never passes. The argument is never written to: LAPACK
    solves a copy of it, stored column-major as eigvalsh stores its own.
    """
    entries = np.asarray(matrix)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("expected a square matrix")
    return _solve_checked(entries, np.array(entries.T, order="C"))


def model_spectra(
    params: ModelParams, replica: int, models: tuple[ModelKind, ...], buffer: np.ndarray | None = None
) -> tuple[dict[ModelKind, np.ndarray], np.ndarray | None]:
    """Gram eigenvalues of each requested model of a replica, and d^2 (d_a^2 =
    prod_l ||y_a^(l)||^2 / n, exactly 1 for a unit-modulus law) if the
    covariance model is requested, else None. The sample is drawn here and
    dropped once C is built and d^2 taken, before the first solve. One m x m
    block, the flat buffer's head if one is given (a sweep's), serves both
    models, and each solve runs in it: C is solved if requested, then D C D
    is written into it from C's strict lower triangle, which the solve leaves
    as it was, and solved. Where D = I by the law, both map to C's one spectrum array."""
    models = {ModelKind(model) for model in models}
    sample = sample_base(params, replica)
    gram = build_correlation_gram(sample, buffer)
    unit, d2 = params.entry_law.unit_modulus, None
    if ModelKind.COVARIANCE in models:
        d2 = np.ones(params.sample_count) if unit else np.prod(sample.level_norms / params.n, axis=1)
    del sample  # only C and d^2 are read from here on
    gram.setflags(write=True)  # this call's own block, never handed out
    spectra = {ModelKind.CORRELATION: _solve_checked(gram, gram)} if ModelKind.CORRELATION in models else {}
    if d2 is None:
        return spectra, None
    if not unit:
        _scale_to_covariance(gram, d2, params.tau.as_array())
    spectra[ModelKind.COVARIANCE] = spectra[ModelKind.CORRELATION] if unit and spectra else _solve_checked(gram, gram)
    return spectra, d2


def nonzero_eigenvalues(eigs: np.ndarray) -> np.ndarray:
    """Atoms above the rank-deficiency threshold 1e-9 * max(1, largest)."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        return eigs
    threshold = NONZERO_THRESHOLD_REL * max(1.0, float(np.max(eigs)))
    return eigs[eigs > threshold]


def esd(eigs, ambient_dim: int) -> SpectralDistribution:
    """Spectral distribution of the ambient model from the Gram eigenvalues.

    Every eigenvalue must be finite. Small negatives (eigensolver noise) are
    clamped to zero; anything below -1e-9 times the spectral scale is an
    error. When m > N the m - N structural zeros forced by the rank bound
    are checked and removed. Each check is a tensormp.checks row that raises
    when it fails.
    """
    atoms = np.sort(np.asarray(eigs, dtype=float))
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    m = len(atoms)
    if m == 0:
        raise ValueError("need at least one eigenvalue")
    nonfinite = int(np.count_nonzero(~np.isfinite(atoms)))
    require("finite_spectrum", nonfinite, 0, f"{nonfinite} of {m} eigenvalues are not finite")
    scale = max(float(atoms[-1]), 1.0)
    depth = NEGATIVE_CLAMP_REL * scale  # how far below zero an eigenvalue may be clamped
    require("clamp_floor", float(-atoms[0]), depth, f"eigenvalue {atoms[0]:.3e} below the clamp floor {-depth:.3e}")
    if atoms[0] < 0.0:
        atoms = np.where(atoms < 0.0, 0.0, atoms)
    if m > ambient_dim:
        structural = m - ambient_dim
        threshold = NONZERO_THRESHOLD_REL * scale
        message = "rank bound violated: too few near-zero eigenvalues for m > N"
        require("rank_bound", float(atoms[structural - 1]), threshold, message)  # the largest structural zero
        atoms = atoms[structural:]
    return SpectralDistribution(atoms=atoms, ambient_dim=ambient_dim)


def tensor_vector(sample: BaseSample, alpha: int) -> np.ndarray:
    """The explicit n^k-dimensional k-fold tensor product of sample alpha.

    Entry (j_1, ..., j_k) is the product over levels of the level entries,
    flattened row-major (j_1 most significant).
    """
    levels = [sample.entries[alpha, level] for level in range(sample.entries.shape[1])]
    return reduce(np.kron, levels)


def materialize_dense(sample: BaseSample, model: ModelKind | str) -> np.ndarray:
    """Explicit ambient N x N matrix; the test oracle for the Gram path."""
    model = ModelKind(model)
    m, k, n = sample.entries.shape
    dim = n**k
    if dim > DENSE_DIM_CAP:
        raise ValueError(f"ambient dimension {dim} exceeds the dense cap {DENSE_DIM_CAP}")
    tau = sample.params.tau.as_array()
    out = np.zeros((dim, dim), dtype=np.complex128)
    for alpha in range(m):
        v = tensor_vector(sample, alpha)
        outer = np.outer(v, v.conj())
        if model is ModelKind.CORRELATION:
            sq = float(np.vdot(v, v).real)
            if sq <= 0.0:
                raise ValueError(f"degenerate tensor vector at sample {alpha}")
            out += (tau[alpha] / sq) * outer
        else:
            out += (tau[alpha] / dim) * outer
    return out

