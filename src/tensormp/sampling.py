"""Base-vector sampling with keyed, order-independent random streams.

Every (seed, replica, sample, level) tuple keys its own counter-based Philox
stream, so a level vector's entries never depend on how many workers generated
the batch or in what order. The per-key reference is
``Generator(Philox(SeedSequence(seed, spawn_key=(replica, sample, level))))``
(``_stream``/``_draw``); ``sample_base`` draws bitwise the same values but
derives all m*k Philox keys of a replica in one vectorized pass of
SeedSequence's hash and re-keys a single generator for each level vector.
No tensor norm ||Y||^2 = prod_l ||y^(l)||^2 is ever formed, since it grows
like n^k: consumers multiply the per-level ratios ||y^(l)||^2 / n, which stay
near 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EntryLaw, EntryLawKind, ModelParams

# spawn-key namespace for the Monte Carlo moment check, disjoint from the
# three-component (replica, sample, level) keys used by sample_base
_MOMENT_STREAM = 0x4D43


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


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (pool of four uint32 words); the constants, and
# hence the whole hash-constant schedule, do not depend on the data
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 split of a non-negative int (0 -> [0])."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    # uint32 array times a Python int below 2**32 stays uint32 and wraps
    value = value ^ const
    const = (const * mult) & _MASK32
    value = value * const
    return value ^ (value >> 16), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _philox_keys(seed: int, replica: int, m: int, k: int) -> np.ndarray:
    """The (m, k, 2) uint64 Philox keys of every (alpha, level) of a replica.

    Entry [alpha, level] equals ``SeedSequence(entropy=seed, spawn_key=(replica,
    alpha, level)).generate_state(2, np.uint64)``: the entropy is the seed's
    words zero-padded to the pool size, then the replica's words, then alpha,
    then level. Every word is an (m, k) uint32 array, so no stream is looped
    over and all wrapping arithmetic is array arithmetic.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    alpha, level = np.indices((m, k), dtype=np.uint32)
    entropy = [np.full((m, k), word, dtype=np.uint32) for word in run + _uint32_words(replica)]
    entropy += [alpha, level]

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)

    const = _INIT_B
    state = []
    for word in pool:  # generate_state(2, uint64) reads the pool once, in order
        hashed, const = _hash(word, const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def _raw_shape(law: EntryLaw, shape: tuple) -> tuple:
    """Shape of the raw draws behind ``shape`` entries: re and im planes for
    the complex Gaussian, one value per entry otherwise."""
    return (2,) + shape if law.kind is EntryLawKind.COMPLEX_GAUSSIAN else shape


def _fill(law: EntryLaw, rng: np.random.Generator, out: np.ndarray) -> None:
    """Draw one stream's raw values into the contiguous float64 array ``out``."""
    kind = law.kind
    if kind is EntryLawKind.COMPLEX_GAUSSIAN or kind is EntryLawKind.REAL_GAUSSIAN:
        rng.standard_normal(out=out)
    elif kind is EntryLawKind.RADEMACHER:
        out[...] = rng.integers(0, 2, size=out.shape)
    else:
        rng.random(out=out)


def _transform(law: EntryLaw, raw: np.ndarray) -> np.ndarray:
    """Entries from raw draws, reusing ``raw`` where the law's dtype allows.

    ``raw`` has the layout of ``_raw_shape`` (complex Gaussian: re/im planes on
    axis 0, possibly a strided view). Each law allocates at most the complex
    output and one float temporary.
    """
    kind = law.kind
    if kind is EntryLawKind.COMPLEX_GAUSSIAN:
        z = np.multiply(1j, raw[1])
        z += raw[0]
        z /= np.sqrt(2.0)
        return z
    if kind is EntryLawKind.REAL_GAUSSIAN:
        return raw
    if kind is EntryLawKind.RADEMACHER:
        raw *= 2.0
        raw -= 1.0
        return raw
    theta = raw
    theta *= 2.0 * np.pi
    z = np.multiply(1j, np.sin(theta))
    z += np.cos(theta)
    return z


def _draw(law: EntryLaw, rng: np.random.Generator, shape) -> np.ndarray:
    if isinstance(shape, int):
        shape = (shape,)
    raw = np.empty(_raw_shape(law, shape))
    _fill(law, rng, raw)
    return _transform(law, raw)


def sample_base(params: ModelParams, replica_index: int = 0) -> BaseSample:
    """Draw the (m, k, n) entries array for one replica.

    The stream key is (seed, replica_index, alpha, level), so the same key
    always yields the same level vector, bitwise, regardless of execution
    order or worker count: entry [alpha, level] is
    ``_draw(law, _stream(seed, replica_index, alpha, level), n)``. The keys are
    derived together and one generator, local to the call, is re-keyed per
    level vector (counter 0, empty buffer, as freshly constructed).
    """
    if replica_index < 0:
        raise ValueError("replica index must be non-negative")
    m, k, n = params.sample_count, params.k, params.n
    law = params.entry_law
    keys = _philox_keys(params.seed, replica_index, m, k)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    fresh = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": fresh, "key": None},
        "buffer": fresh,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = np.empty((m, k) + _raw_shape(law, (n,)))
    for alpha in range(m):
        for level in range(k):
            state["state"]["key"] = keys[alpha, level]
            bitgen.state = state
            _fill(law, rng, raw[alpha, level])
    if law.kind is EntryLawKind.COMPLEX_GAUSSIAN:
        raw = np.moveaxis(raw, 2, 0)  # re/im planes first, as _transform expects
    entries = _transform(law, raw)
    entries.setflags(write=False)
    return BaseSample(entries=entries, params=params, replica=replica_index)


def norm_profile(sample: BaseSample) -> np.ndarray:
    """The read-only (m, k) array of level squared norms ||y_alpha^(l)||^2.

    A zero norm raises DegenerateSampleError naming the first (alpha, level).
    """
    sq = np.einsum("alj,alj->al", sample.entries, sample.entries.conj()).real
    if np.any(sq <= 0.0):
        alpha, level = map(int, np.argwhere(sq <= 0.0)[0])
        raise DegenerateSampleError(alpha, level)
    sq.setflags(write=False)
    return sq


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
