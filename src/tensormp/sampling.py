"""Base-vector sampling with keyed, order-independent random streams.

Every (seed, replica, sample, level) tuple keys its own counter-based Philox
stream, so a level vector's entries never depend on how many workers generated
the batch or in what order. Tensor norms are accumulated in the log domain:
||Y||^2 = prod_l ||y^(l)||^2 grows like n^k and would overflow a float64 long
before the per-level factors stop being perfectly representable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import EntryLaw, EntryLawKind, ModelParams, validate

# spawn-key namespace for the Monte Carlo moment check, disjoint from the
# three-component (replica, sample, level) keys used by sample_base
_MOMENT_STREAM = 0x4D43

_LAW_CODES = {kind: code for code, kind in enumerate(EntryLawKind)}
_CODE_LAWS = {code: kind for kind, code in _LAW_CODES.items()}

_DUMP_MAGIC = b"TPBS"
_DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<4sBQQQQB")


class DegenerateSampleError(RuntimeError):
    """A level vector with zero norm; the replica is aborted, never resampled."""

    def __init__(self, alpha: int, level: int):
        super().__init__(f"degenerate sample: zero norm at sample {alpha}, level {level}")
        self.alpha = alpha
        self.level = level


@dataclass(frozen=True)
class BaseSample:
    """The (m, k, n) array of base-vector entries; the only stored randomness."""

    entries: np.ndarray
    params: ModelParams
    replica: int


@dataclass(frozen=True)
class NormProfile:
    """Per-level squared norms and the log-domain tensor norms built from them."""

    level_sq_norms: np.ndarray  # (m, k) real
    log_sq_norms: np.ndarray  # (m,) real, log ||Y_alpha||^2


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _draw(law: EntryLaw, rng: np.random.Generator, shape) -> np.ndarray:
    if isinstance(shape, int):
        shape = (shape,)
    kind = law.kind
    if kind is EntryLawKind.COMPLEX_GAUSSIAN:
        z = rng.standard_normal(size=(2,) + shape)
        return (z[0] + 1j * z[1]) / np.sqrt(2.0)
    if kind is EntryLawKind.REAL_GAUSSIAN:
        return rng.standard_normal(size=shape)
    if kind is EntryLawKind.RADEMACHER:
        return 2.0 * rng.integers(0, 2, size=shape) - 1.0
    theta = rng.random(size=shape) * (2.0 * np.pi)
    return np.cos(theta) + 1j * np.sin(theta)


def sample_base(params: ModelParams, replica_index: int = 0) -> BaseSample:
    """Draw the (m, k, n) entries array for one replica.

    The stream key is (seed, replica_index, alpha, level), so the same key
    always yields the same level vector, bitwise, regardless of execution
    order or worker count.
    """
    validate(params)
    if replica_index < 0:
        raise ValueError("replica index must be non-negative")
    m, k, n = params.sample_count, params.k, params.n
    law, seed = params.entry_law, params.seed
    entries = np.array(
        [[_draw(law, _stream(seed, replica_index, alpha, level), n) for level in range(k)] for alpha in range(m)]
    )
    entries.setflags(write=False)
    return BaseSample(entries=entries, params=params, replica=replica_index)


def level_inner(sample: BaseSample, alpha: int, beta: int, level: int) -> complex:
    """<y_alpha, y_beta> at one level, conjugating the second argument."""
    ya = sample.entries[alpha, level]
    yb = sample.entries[beta, level]
    return complex(np.vdot(yb, ya))


def norm_profile(sample: BaseSample) -> NormProfile:
    """Level norms and log-accumulated tensor norms.

    Never forms an n^k-entry product of raw entries; the tensor norm exists
    only as a sum of per-level logs.
    """
    sq = np.einsum("alj,alj->al", sample.entries, sample.entries.conj()).real
    if np.any(sq <= 0.0):
        alpha, level = map(int, np.argwhere(sq <= 0.0)[0])
        raise DegenerateSampleError(alpha, level)
    logs = np.sum(np.log(sq), axis=1)
    sq.setflags(write=False)
    logs.setflags(write=False)
    return NormProfile(level_sq_norms=sq, log_sq_norms=logs)


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo tensor-norm moments on the normalized scale.

    ``sq_mean`` estimates E||Y||^2 / n^k (exact value 1) and ``quartic_mean``
    estimates E||Y||^4 / n^2k (exact value (1 + (m4-1)/n)^k). The pass band is
    four standard errors with a small absolute floor so that the unit-modulus
    laws, whose estimates are deterministic up to rounding, are judged at
    float64 granularity instead of against a zero-width band.
    """

    trials: int
    sq_mean: float
    sq_target: float
    sq_se: float
    quartic_mean: float
    quartic_target: float
    quartic_se: float
    passed: bool


def norm_moment_check(params: ModelParams, trials: int) -> MomentReport:
    """Estimate E||Y||^2 and E||Y||^4 over independent tensor samples.

    Per-trial statistics are products of the normalized per-level ratios
    ||y^(l)||^2 / n, so nothing of size n^k is ever exponentiated.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    rng = _stream(params.seed, _MOMENT_STREAM)
    n, k = params.n, params.k
    e = _draw(params.entry_law, rng, (trials, k, n))
    ratios = np.einsum("tlj,tlj->tl", e, e.conj()).real / n
    x = np.prod(ratios, axis=1)
    x2 = x * x
    sq_mean = float(np.mean(x))
    sq_se = float(np.std(x, ddof=1) / np.sqrt(trials))
    quartic_mean = float(np.mean(x2))
    quartic_target = (1.0 + (params.entry_law.m4 - 1.0) / n) ** k
    quartic_se = float(np.std(x2, ddof=1) / np.sqrt(trials))
    floor = 1e-12
    passed = abs(sq_mean - 1.0) <= 4.0 * sq_se + floor and abs(
        quartic_mean - quartic_target
    ) <= 4.0 * quartic_se + floor * max(1.0, quartic_target)
    return MomentReport(
        trials=trials,
        sq_mean=sq_mean,
        sq_target=1.0,
        sq_se=sq_se,
        quartic_mean=quartic_mean,
        quartic_target=quartic_target,
        quartic_se=quartic_se,
        passed=passed,
    )


def dump_base_sample(sample: BaseSample, path) -> None:
    """Binary debug dump: (n, k, m, seed, law) header, then the entries as
    row-major little-endian float64 (re, im) pairs."""
    m, k, n = sample.entries.shape
    header = _DUMP_HEADER.pack(
        _DUMP_MAGIC,
        _DUMP_VERSION,
        n,
        k,
        m,
        sample.params.seed,
        _LAW_CODES[sample.params.entry_law.kind],
    )
    data = np.ascontiguousarray(sample.entries).astype("<c16").tobytes()
    Path(path).write_bytes(header + data)


def load_base_sample(path) -> tuple[dict, np.ndarray]:
    """Read a dump back as (header dict, (m, k, n) complex array)."""
    raw = Path(path).read_bytes()
    magic, version, n, k, m, seed, law_code = _DUMP_HEADER.unpack_from(raw)
    if magic != _DUMP_MAGIC or version != _DUMP_VERSION:
        raise ValueError("not a base-sample dump")
    entries = np.frombuffer(raw, dtype="<c16", offset=_DUMP_HEADER.size)
    if entries.size != m * k * n:
        raise ValueError("truncated base-sample dump")
    header = {"n": n, "k": k, "m": m, "seed": seed, "law": _CODE_LAWS[law_code]}
    return header, entries.reshape(m, k, n).astype(np.complex128)
