"""Gram-path spectra: an m x m Hermitian matrix carries the whole nonzero
spectrum of the n^k-dimensional rank-m model, since X W X* and W^{1/2} X*X
W^{1/2} share nonzero eigenvalues. The k-fold structure collapses each Gram
entry into a product of k per-level inner products, so nothing of ambient
size is ever materialized outside the small dense oracle.

A Gram is built from a BaseSample alone (its weights are the sample's
``params.tau``) and is returned as a read-only m x m array. The covariance
Gram is the diagonal congruence D C D of the correlation Gram C, and
``model_spectra`` scales it into C's own buffer after C's solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import ModelKind
from .sampling import BaseSample, norm_profile

log = logging.getLogger(__name__)

DENSE_DIM_CAP = 4096
HERMITIAN_RTOL = 1e-12
INVARIANT_RTOL = 1e-10  # trace/Frobenius gap allowed per eigenvalue, relative to max|w|^p
NEGATIVE_CLAMP_REL = 1e-9  # relative floor below which negatives are an error
NONZERO_THRESHOLD_REL = 1e-9  # separates rank zeros from genuine small atoms
_PANEL_ROWS = 32  # rows per panel of the in-place Gram passes and checks


@dataclass(frozen=True)
class SpectralDistribution:
    """Eigenvalue atoms plus the implied point mass at zero.

    ``atoms`` carries the Gram eigenvalues actually present in the ambient
    spectrum (when m > N the structural rank zeros have been removed), and
    ``zero_mass`` the (N - m)/N of eigenvalues the rank bound pins at zero.
    """

    atoms: np.ndarray
    ambient_dim: int

    @property
    def implied_zeros(self) -> int:
        return self.ambient_dim - len(self.atoms)

    @property
    def zero_mass(self) -> float:
        return self.implied_zeros / self.ambient_dim


def _row_panels(m: int) -> list[tuple[int, int]]:
    """(start, stop) of each run of _PANEL_ROWS rows of an m x m matrix."""
    return [(start, min(start + _PANEL_ROWS, m)) for start in range(0, m, _PANEL_ROWS)]


def _hermitize(product: np.ndarray, tau: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Scale product by sqrt(tau_a tau_b), mirror the conjugate of its strict
    upper triangle into the lower one and set the diagonal, all in place.

    Each unordered pair is computed once (the upper triangle) and mirrored by
    conjugation, so Hermitian symmetry is exact rather than approximate. The
    result is bitwise U + U^H with U = triu(sqrt(tau tau^T) * product, 1): the
    additions of zero reproduce that sum's signed zeros. It runs one row panel
    at a time, so no temporary is larger than a panel.
    """
    m = product.shape[0]
    zero = np.conj(np.zeros((), product.dtype))  # what U^H adds above the diagonal: +0, or +0 - 0j
    for start, stop in _row_panels(m):
        right = product[start:stop, start:]
        np.multiply(np.sqrt(np.outer(tau[start:stop], tau[start:])), right, out=right)
        upper = np.triu(product[start:stop, start:stop], 1)
        product[start:stop, start:stop] = upper + upper.conj().T
        product[start:stop, stop:] += zero
        lower = product[start:stop, :start]
        np.conjugate(product[:start, start:stop].T, out=lower)
        lower += 0.0
    product[np.diag_indices(m)] = diag
    return product


def _level_ratio_product(sample: BaseSample) -> np.ndarray:
    """Entrywise product over levels of the normalized inner products
    <y_a^(l), y_b^(l)> / (||y_a^(l)|| ||y_b^(l)||).

    Each factor has modulus <= 1 by Cauchy-Schwarz, which makes the k-fold
    product overflow-proof. For unit-modulus laws ||y^(l)||^2 = n almost
    surely, and the exact value n is used, so the covariance Gram of such a
    law is this correlation Gram bitwise. Each level is normalized in place by
    the same division loop as inner / den, and the first level's ratio is the
    product, so at most two m x m arrays are alive.
    """
    entries = sample.entries
    m, k, n = entries.shape
    unit = sample.params.entry_law.unit_modulus
    sq = None if unit else norm_profile(sample)
    product = None
    for level in range(k):
        block = entries[:, level, :]
        inner = block @ block.conj().T
        if unit:
            np.divide(inner, n, out=inner)
        else:
            for start, stop in _row_panels(m):
                rows = inner[start:stop]
                np.divide(rows, np.sqrt(np.outer(sq[start:stop, level], sq[:, level])), out=rows)
        if product is None:
            product = inner
        else:
            product *= inner
        del inner  # freed before the next level's product is allocated
    return product


def build_correlation_gram(sample: BaseSample) -> np.ndarray:
    """Read-only Gram of the unit-normalized model: sqrt(tau_a tau_b)
    prod_l rho_l(a, b), (m, m) complex128, or float64 for real laws.

    The diagonal equals tau exactly; the trace of the whole ambient model is
    therefore sum(tau) with no stochastic term.
    """
    tau = sample.params.tau.as_array()
    entries = _hermitize(_level_ratio_product(sample), tau, tau)
    entries.setflags(write=False)
    return entries


def _scale_to_covariance(entries: np.ndarray, sample: BaseSample) -> np.ndarray:
    """Scale the correlation Gram C of this sample into D C D in its own
    buffer, one row panel at a time, and return d^2 with
    d_a^2 = ||Y_a||^2 / n^k = prod_l ||y_a^(l)||^2 / n; d_a d_b = d_b d_a
    keeps it exactly Hermitian. For unit-modulus laws D = I by the law: the
    buffer is left as it is and d^2 is exactly 1. The only code that lifts a
    Gram's read-only flag, and only for the length of the scaling."""
    m, _, n = sample.entries.shape
    if sample.params.entry_law.unit_modulus:
        return np.ones(m)
    d2 = np.prod(norm_profile(sample) / n, axis=1)
    d = np.sqrt(d2)
    diag = entries.diagonal().real * d2  # read before any row is scaled
    entries.setflags(write=True)
    for start, stop in _row_panels(m):
        rows = entries[start:stop]
        np.multiply(rows, np.outer(d[start:stop], d), out=rows)
    entries[np.diag_indices(m)] = diag
    entries.setflags(write=False)
    return d2


def build_normalized_level_gram(sample: BaseSample) -> np.ndarray:
    """Read-only Gram built from explicitly unit-normalized level vectors.

    Independent construction route for the unit-sphere model: each level
    vector is rescaled to unit length first and raw inner products are taken
    afterwards. Mathematically identical to the correlation Gram.
    """
    k = sample.entries.shape[1]
    tau = sample.params.tau.as_array()
    normed = sample.entries / np.sqrt(norm_profile(sample))[:, :, None]
    product = None
    for level in range(k):
        block = normed[:, level, :]
        if product is None:
            product = block @ block.conj().T
        else:
            product *= block @ block.conj().T
    diag = tau * np.prod(
        np.einsum("alj,alj->al", normed, normed.conj()).real, axis=1
    )
    entries = _hermitize(product, tau, diag)
    entries.setflags(write=False)
    return entries


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Delegates the values-only solve to LAPACK but verifies it: every input,
    a built Gram included, must be finite and Hermitian to 1e-12 relative,
    and every eigenvalue enters the identities sum w^p = Re tr G^p (p = 1, 2)
    up to 1e-10 m max|w|^p; NaN never passes. eigvalsh copies the matrix
    into a workspace of its own, outside numpy's allocator, so tracemalloc
    does not see that copy.
    """
    entries = np.asarray(matrix)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("expected a square matrix")
    # both scans run one row panel at a time, so no temporary is larger than a panel;
    # np.max, unlike max(), propagates a NaN
    panels = _row_panels(entries.shape[0])
    scale = float(np.max([np.max(np.abs(entries[start:stop])) for start, stop in panels], initial=0.0))
    if not np.isfinite(scale):  # max|G| is NaN or inf exactly when an entry is; checked before any subtraction
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(entries))[0])
        raise ValueError(f"matrix has a non-finite entry {entries[index]} at {index}")

    def panel_asymmetry(start: int, stop: int) -> float:
        # |G_ab - conj(G_ba)| = |G_ba - conj(G_ab)| bitwise, so the upper triangle covers every pair
        return np.max(np.abs(entries[start:stop, start:] - entries[start:, start:stop].conj().T))

    asym = float(np.max([panel_asymmetry(start, stop) for start, stop in panels], initial=0.0))
    if asym > HERMITIAN_RTOL * max(scale, 1e-300):
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} at scale {scale:.3e}")
    w = np.linalg.eigvalsh(entries)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    for p, name, exact in ((1, "trace", np.trace(entries).real), (2, "Frobenius", np.vdot(entries, entries).real)):
        gap = abs(float(np.sum(w**p)) - float(exact))
        bound = INVARIANT_RTOL * len(w) * norm**p
        if not gap <= bound:  # written so that a NaN gap fails
            raise ValueError(f"eigenvalues miss the {name} identity by {gap:.3e} > {bound:.3e}")
    return w


def model_spectra(
    sample: BaseSample, models: tuple[ModelKind, ...]
) -> tuple[dict[ModelKind, np.ndarray], np.ndarray | None]:
    """Gram eigenvalues of each requested model of one sample, and d^2 (see
    _scale_to_covariance) if the covariance model is requested, else None.
    One m x m buffer, never seen by the caller, serves both: C is built and,
    if requested, solved; D C D is then scaled into it and solved, unless the
    law is unit-modulus and C was solved (D = I by the law: one solve)."""
    models = {ModelKind(model) for model in models}
    gram = build_correlation_gram(sample)
    spectra = {ModelKind.CORRELATION: eigenvalues(gram)} if ModelKind.CORRELATION in models else {}
    if ModelKind.COVARIANCE not in models:
        return spectra, None
    d2 = _scale_to_covariance(gram, sample)
    reuse = sample.params.entry_law.unit_modulus and spectra
    spectra[ModelKind.COVARIANCE] = spectra[ModelKind.CORRELATION] if reuse else eigenvalues(gram)
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

    Small negatives (eigensolver noise) are clamped to zero; anything below
    -1e-9 times the spectral scale is an error. When m > N the m - N
    structural zeros forced by the rank bound are checked and removed.
    """
    atoms = np.sort(np.asarray(eigs, dtype=float))
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    m = len(atoms)
    if m == 0:
        raise ValueError("need at least one eigenvalue")
    scale = max(float(atoms[-1]), 1.0)
    floor = -NEGATIVE_CLAMP_REL * scale
    if atoms[0] < floor:
        raise ValueError(f"eigenvalue {atoms[0]:.3e} below the clamp floor {floor:.3e}")
    negatives = int(np.sum(atoms < 0.0))
    if negatives:
        log.debug("clamping %d small negative eigenvalues to zero", negatives)
        atoms = np.where(atoms < 0.0, 0.0, atoms)
    if m > ambient_dim:
        structural = m - ambient_dim
        threshold = NONZERO_THRESHOLD_REL * scale
        if np.any(atoms[:structural] > threshold):
            raise ValueError("rank bound violated: too few near-zero eigenvalues for m > N")
        atoms = atoms[structural:]
    atoms.setflags(write=False)
    return SpectralDistribution(atoms=atoms, ambient_dim=ambient_dim)


def tensor_vector(sample: BaseSample, alpha: int) -> np.ndarray:
    """The explicit n^k-dimensional k-fold tensor product of sample alpha.

    Entry (j_1, ..., j_k) is the product over levels of the level entries,
    flattened row-major (j_1 most significant).
    """
    levels = [sample.entries[alpha, level] for level in range(sample.entries.shape[1])]
    return reduce(np.kron, levels)


def materialize_dense(sample: BaseSample, model: ModelKind) -> np.ndarray:
    """Explicit ambient N x N matrix; the test oracle for the Gram path."""
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

