"""Gram-path spectra: an m x m Hermitian matrix carries the whole nonzero
spectrum of the n^k-dimensional rank-m model, since X W X* and W^{1/2} X*X
W^{1/2} share nonzero eigenvalues. The k-fold structure collapses each Gram
entry into a product of k per-level inner products, so nothing of ambient
size is ever materialized outside the small dense oracle. The covariance
Gram is the diagonal congruence D C D of the correlation Gram C.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import ModelKind, TauScheme
from .sampling import BaseSample, norm_profile

log = logging.getLogger(__name__)

DENSE_DIM_CAP = 4096
HERMITIAN_RTOL = 1e-12
INVARIANT_RTOL = 1e-10  # trace/Frobenius gap allowed per eigenvalue, relative to max|w|^p
NEGATIVE_CLAMP_REL = 1e-9  # relative floor below which negatives are an error
NONZERO_THRESHOLD_REL = 1e-9  # separates rank zeros from genuine small atoms


@dataclass(frozen=True)
class GramMatrix:
    order: int
    entries: np.ndarray  # (m, m) complex128, or float64 for real laws; exactly Hermitian by construction
    model: ModelKind


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


def _tau_values(tau: TauScheme, m: int) -> np.ndarray:
    values = tau.as_array()
    if values.shape != (m,):
        raise ValueError(f"tau scheme has length {len(values)}, expected m={m}")
    return values


def _hermitize(product: np.ndarray, diag: np.ndarray) -> np.ndarray:
    # each unordered pair is computed once (the upper triangle) and mirrored
    # by conjugation, so Hermitian symmetry is exact rather than approximate
    upper = np.triu(product, 1)
    out = upper + upper.conj().T
    out[np.diag_indices_from(out)] = diag
    return out


def _level_ratio_product(sample: BaseSample) -> np.ndarray:
    """Entrywise product over levels of the normalized inner products
    <y_a^(l), y_b^(l)> / (||y_a^(l)|| ||y_b^(l)||).

    Each factor has modulus <= 1 by Cauchy-Schwarz, which makes the k-fold
    product overflow-proof. For unit-modulus laws ||y^(l)||^2 = n almost
    surely, and the exact value n is used, so the covariance Gram of such a
    law is this correlation Gram bitwise.
    """
    entries = sample.entries
    m, k, n = entries.shape
    unit = sample.params.entry_law.unit_modulus
    sq = None if unit else norm_profile(sample)
    product = np.ones((m, m), dtype=entries.dtype)
    for level in range(k):
        block = entries[:, level, :]
        inner = block @ block.conj().T
        product *= inner / n if unit else inner / np.sqrt(np.outer(sq[:, level], sq[:, level]))
    return product


def build_correlation_gram(sample: BaseSample, tau: TauScheme) -> GramMatrix:
    """Gram of the unit-normalized model: sqrt(tau_a tau_b) prod_l rho_l(a, b).

    The diagonal equals tau exactly; the trace of the whole ambient model is
    therefore sum(tau) with no stochastic term.
    """
    m = sample.entries.shape[0]
    values = _tau_values(tau, m)
    entries = np.sqrt(np.outer(values, values)) * _level_ratio_product(sample)
    entries = _hermitize(entries, values)
    entries.setflags(write=False)
    return GramMatrix(order=m, entries=entries, model=ModelKind.CORRELATION)


def _covariance_from_correlation(corr: GramMatrix, sample: BaseSample) -> GramMatrix:
    """Covariance Gram D C D of the correlation Gram C of the same sample, with
    d_a^2 = ||Y_a||^2 / n^k = prod_l ||y_a^(l)||^2 / n; d_a d_b = d_b d_a keeps
    it exactly Hermitian. For unit-modulus laws D = I and C's array is shared."""
    if corr.model is not ModelKind.CORRELATION or corr.order != sample.entries.shape[0]:
        raise ValueError(f"expected the order-{sample.entries.shape[0]} correlation Gram of this sample")
    if sample.params.entry_law.unit_modulus:
        return GramMatrix(order=corr.order, entries=corr.entries, model=ModelKind.COVARIANCE)
    scale = np.prod(norm_profile(sample) / sample.entries.shape[2], axis=1)
    d = np.sqrt(scale)
    entries = corr.entries * np.outer(d, d)
    entries[np.diag_indices_from(entries)] = np.diag(corr.entries).real * scale
    entries.setflags(write=False)
    return GramMatrix(order=corr.order, entries=entries, model=ModelKind.COVARIANCE)


def build_covariance_gram(sample: BaseSample, tau: TauScheme) -> GramMatrix:
    """Gram of the 1/n^k-normalized model: sqrt(tau_a tau_b) prod_l inner_l/n."""
    return _covariance_from_correlation(build_correlation_gram(sample, tau), sample)


def build_normalized_level_gram(sample: BaseSample, tau: TauScheme) -> GramMatrix:
    """Gram built from explicitly unit-normalized level vectors.

    Independent construction route for the unit-sphere model: each level
    vector is rescaled to unit length first and raw inner products are taken
    afterwards. Mathematically identical to the correlation Gram.
    """
    m, k, n = sample.entries.shape
    values = _tau_values(tau, m)
    normed = sample.entries / np.sqrt(norm_profile(sample))[:, :, None]
    product = np.ones((m, m), dtype=normed.dtype)
    for level in range(k):
        block = normed[:, level, :]
        product *= block @ block.conj().T
    entries = np.sqrt(np.outer(values, values)) * product
    diag = values * np.prod(
        np.einsum("alj,alj->al", normed, normed.conj()).real, axis=1
    )
    entries = _hermitize(entries, diag)
    entries.setflags(write=False)
    return GramMatrix(order=m, entries=entries, model=ModelKind.CORRELATION)


def eigenvalues(gram: GramMatrix | np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Delegates the values-only solve to LAPACK but verifies it: the input must
    be finite and Hermitian to 1e-12 relative, and every eigenvalue enters the
    identities sum w^p = Re tr G^p (p = 1, 2) up to 1e-10 m max|w|^p; NaN
    never passes.
    """
    entries = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("expected a square matrix")
    scale = float(np.max(np.abs(entries))) if entries.size else 0.0
    if not np.isfinite(scale):  # max|G| is NaN or inf exactly when an entry is
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(entries))[0])
        raise ValueError(f"matrix has a non-finite entry {entries[index]} at {index}")
    asym = float(np.max(np.abs(entries - entries.conj().T))) if entries.size else 0.0
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


def materialize_dense(sample: BaseSample, tau: TauScheme, model: ModelKind) -> np.ndarray:
    """Explicit ambient N x N matrix; the test oracle for the Gram path."""
    m, k, n = sample.entries.shape
    dim = n**k
    if dim > DENSE_DIM_CAP:
        raise ValueError(f"ambient dimension {dim} exceeds the dense cap {DENSE_DIM_CAP}")
    values = _tau_values(tau, m)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for alpha in range(m):
        v = tensor_vector(sample, alpha)
        outer = np.outer(v, v.conj())
        if model is ModelKind.CORRELATION:
            sq = float(np.vdot(v, v).real)
            if sq <= 0.0:
                raise ValueError(f"degenerate tensor vector at sample {alpha}")
            out += (values[alpha] / sq) * outer
        else:
            out += (values[alpha] / dim) * outer
    return out

