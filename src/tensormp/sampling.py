"""Base-vector sampling with keyed, order-independent random streams.

Every draw is keyed: a seed and a SeedSequence spawn key name one Philox
stream, so no value depends on how many workers drew the batch or in what
order. The package's key namespaces, which share no key, are:

- sweep keys (r, alpha, l): replica r < 2^20 (``config.MAX_REPLICAS``),
  sample alpha, level l, drawn by ``sample_base``;
- sphere keys (2^20 + r, alpha, l): replica r of ``run_sphere_model``;
- streams (s, 0, row, column) of ``stream_uniforms`` and ``stream_entries``:
  the selftest's 1-4 and the norm-moment check's 0x4D43 (row trial, column
  level). A replica key is three uint32 words and a stream key four.

``sample_base`` draws bitwise the per-key reference
``Generator(Philox(SeedSequence(seed, spawn_key=key)))`` of tests/oracles.py
(``_stream``/``_draw``), but derives all m*k Philox keys of a replica in one
vectorized pass of SeedSequence's hash, runs Philox4x64-10 itself over the
(sample, level, block) counters of a tile of samples at a time, and
transforms the words as numpy's generator would: a uniform law (unit circle,
Rademacher) reads one word per entry or per two, a Gaussian law numpy's
256-layer ziggurat (``random_standard_normal``, tables in
``tensormp._ziggurat``). Every draw runs this one pass, ``_raw_draws``. No
tensor norm ||Y||^2 = prod_l ||y^(l)||^2 is ever formed, since it grows
like n^k: consumers multiply the per-level ratios ||y^(l)||^2 / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._ziggurat import FI, KI, NEG_INV_R, R, WI
from .checks import Check, require
from .config import EntryLaw, ModelParams


@dataclass(frozen=True)
class BaseSample:
    """The (m, k, n) array of base-vector entries; the only stored randomness,
    and the one place its level norms are derived."""

    entries: np.ndarray
    params: ModelParams

    def __post_init__(self):
        expected = (self.params.sample_count, self.params.k, self.params.n)
        shape = np.shape(self.entries)
        if shape != expected:
            raise ValueError(f"sample entries have shape {shape}, but params give (m, k, n) = {expected}")

    @cached_property
    def level_norms(self) -> np.ndarray:
        """The read-only (m, k) array of level squared norms ||y_alpha^(l)||^2,
        derived at first read. A zero norm fails the checks row level_norms,
        whose message names the first (alpha, level); the replica is aborted,
        never resampled."""
        sq = np.einsum("alj,alj->al", self.entries, self.entries.conj()).real
        zeros = np.argwhere(sq <= 0.0).tolist()
        alpha, level = zeros[0] if zeros else (0, 0)  # read only when the row fails
        require("level_norms", len(zeros), 0, f"degenerate sample: zero norm at sample {alpha}, level {level}")
        sq.setflags(write=False)
        return sq


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


def _hash(value, const: int, mult: int):
    # a Python int below 2**32 or a uint32 array, which wraps by itself
    value = value ^ const
    const = (const * mult) & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    out = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return out ^ (out >> 16)


def _philox_keys(seed: int, prefix: tuple[int, ...], m: int, columns: range) -> np.ndarray:
    """The (m, len(columns), 2) uint64 Philox keys of every (row, column),
    column in ``columns``, under a spawn-key prefix of any length, such as
    (replica,) for a replica's (alpha, level) grid.

    Entry [row, column] equals ``SeedSequence(entropy=seed, spawn_key=prefix
    + (row, column)).generate_state(2, np.uint64)``: the entropy is the seed's
    words zero-padded to the pool size, then each prefix component's words,
    then row, then column. The seed and prefix words, the same for every key,
    are hashed and mixed once as Python ints; the pool becomes (m, 1) uint32
    arrays at the row word and (m, len(columns)) ones at the column word.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    row = np.arange(m, dtype=np.uint32)[:, None]
    column = np.array(columns, dtype=np.uint32)
    entropy = run + [word for part in prefix for word in _uint32_words(part)] + [row, column]

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


def _u64(*values: int) -> tuple[np.ndarray, ...]:
    return tuple(np.array(value, dtype=np.uint64) for value in values)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11), the bijection behind numpy's Philox: round multipliers, each with its
# 32-bit halves, and key bumps; 0-d arrays are cheaper operands than Python ints
_PHILOX_M0, _PHILOX_M1 = (_u64(c, c & _MASK32, c >> 32) for c in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W0, _PHILOX_W1 = _u64(0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = _u64(_MASK32, 32)


def _mulhilo(const: tuple[np.ndarray, ...], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products c * x over a uint64 array,
    for const = (c, cl, ch): with x = xh 2**32 + xl and c = ch 2**32 + cl,
    the high word is xh ch + (u >> 32) + (v >> 32) for u = xl ch + (xl cl >> 32)
    and v = xh cl + (u & 0xFFFFFFFF), and no partial sum reaches 2**64."""
    c, c_lo, c_hi = const
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    u = (x_lo * c_lo >> _SHIFT32) + x_lo * c_hi
    v = (u & _LOW32) + x_hi * c_lo
    return x_hi * c_hi + (u >> _SHIFT32) + (v >> _SHIFT32), x * c


def _philox_words(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4*blocks uint64 outputs of numpy's Philox under every key of
    the (..., 2) array ``keys``, as a (..., 4*blocks) array.

    The generator increments its counter before it generates, so block j
    (j = 1..blocks) is the ten-round bijection of counter (j, 0, 0, 0) under
    the key: all blocks of all keys are one array pass, with no re-keying.
    Round 0 multiplies the counters alone, once for every key, and skips the
    zero x2 word; round 1 multiplies the x0 word, which is the key alone,
    once per key.
    """
    key0, key1 = keys[..., :1], keys[..., 1:]
    hi0, lo0 = _mulhilo(_PHILOX_M0, np.arange(1, blocks + 1, dtype=np.uint64))
    x0, x1, x2, x3 = key0, 0, hi0 ^ key1, lo0
    for _ in range(1, _PHILOX_ROUNDS):
        key0, key1 = key0 + _PHILOX_W0, key1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, x0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    return np.stack([x0, x1, x2, x3], axis=-1).reshape(keys.shape[:-1] + (4 * blocks,))


def _transform(law: EntryLaw, raw: np.ndarray) -> np.ndarray:
    """Entries from raw draws, reusing ``raw`` where the law's dtype allows.

    ``raw`` holds one value per entry, or for the complex Gaussian re and im
    planes on axis 0, possibly a strided view. Each law allocates at most
    the complex output and one float temporary. The unit circle's cos and
    sin are written into the output's parts: bitwise 1j * sin + cos, which
    only a -0.0 sine would tell apart, and no angle 2 pi u, u >= 0, has one.
    """
    if law is EntryLaw.COMPLEX_GAUSSIAN:
        z = np.multiply(1j, raw[1])
        z += raw[0]
        z /= np.sqrt(2.0)
        return z
    if law is EntryLaw.REAL_GAUSSIAN:
        return raw
    if law is EntryLaw.RADEMACHER:
        raw *= 2.0
        raw -= 1.0
        return raw
    theta = raw
    theta *= 2.0 * np.pi
    z = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


# bit offsets of the top bits of a uint64's low and high uint32 halves
_HALF_TOP_BITS = np.array([31, 63], dtype=np.uint64)


def _uniform(words):
    """numpy's next_double of each word, a Python int or a uint64 array: its
    top 53 bits times 2**-53."""
    return (words >> 11) * 2.0**-53


def _uniform_fill(per_word: int, keys: np.ndarray, out: np.ndarray, blocks: int) -> np.ndarray:
    """``_normals`` for a uniform law, which never runs short: ``random()``
    is (u64 >> 11) * 2**-53, one word per entry; ``integers(0, 2)``, for
    per_word = 2, is the top bit of each uint32 half, low half first."""
    words = _philox_words(keys, blocks)
    if per_word == 2:
        words = ((words[..., None] >> _HALF_TOP_BITS) & 1).reshape(len(keys), -1)
    else:
        words = _uniform(words)
    out[...] = words[:, : out.shape[1]]
    return np.empty(0, dtype=np.intp)


# numpy's random_standard_normal reads a draw's first word as a layer (bits
# 0-7), a sign (bit 8) and a 52-bit magnitude rabs (bits 9-60): x is
# +-rabs * wi[layer], taken at once if rabs < ki[layer]. The tables here are
# indexed by sign and layer together, wi negated for the sign: rabs * -wi is
# -(rabs * wi) bitwise, -0.0 included.
_SIGNED_WI = np.concatenate([WI, -WI])
_KI_TWICE = np.concatenate([KI, KI])
_SIGN_LAYER_BITS, _LAYER_BITS, _MAGNITUDE_BITS, _SHIFT9 = _u64(0x1FF, 0xFF, 2**52 - 1, 9)


def _first_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each word read as a normal draw's first word: its x, and whether the
    fast path takes it."""
    index = (words & _SIGN_LAYER_BITS).astype(np.intp)
    rabs = words >> _SHIFT9
    rabs &= _MAGNITUDE_BITS
    x = rabs.astype(np.float64)
    x *= np.take(_SIGNED_WI, index)
    return x, rabs < np.take(_KI_TWICE, index)


def _wedge_accepts(layer: np.ndarray, x: np.ndarray, word: np.ndarray) -> np.ndarray:
    """The wedge test of each rejected first word: with u the next word's
    double, (fi[layer-1] - fi[layer]) u + fi[layer] < exp(-x^2/2), decided by
    libm's exponential through ``math``, as numpy's C calls it. np.exp
    differs from it by an ulp or so, far inside the 1e-14 band in which a
    comparison is re-decided by libm."""
    edge = FI[layer]
    threshold = (FI[layer - 1] - edge) * _uniform(word) + edge
    exponent = -0.5 * x * x
    density = np.exp(exponent)
    close = np.flatnonzero(np.abs(threshold - density) <= 1e-14 * density)
    density[close] = [math.exp(v) for v in exponent[close].tolist()]
    return threshold < density


def _resolve_in_order(words, x, keep, events, accepts, width: int) -> None:
    """Resolve the rejected first words at the ascending flat ``events`` of
    (rows, width) word arrays in word order, as numpy's loop reads them,
    writing ``keep`` and ``x`` in place.

    An event that an earlier event of its row read as a uniform is skipped.
    A wedge keeps its x if it ``accepts`` and its uniform is dropped; the tail
    (layer 0) reads uniform pairs until yy + yy > xx^2, with xx = -log1p(-u1)
    / r and yy = -log1p(-u2) from libm, and keeps +-(r + xx). Words an event
    would read past its row's end are dropped, so the row comes up short.
    """
    pos = 0
    for event, accept in zip(events.tolist(), accepts.tolist()):
        if event < pos:
            continue
        end = event - event % width + width
        word = int(words[event])
        if word & 0xFF:
            if event + 1 < end:
                keep[event] = accept
                keep[event + 1] = False
            pos = min(event + 2, end)
            continue
        pos = event + 1
        while pos + 1 < end:
            xx = NEG_INV_R * math.log1p(-_uniform(int(words[pos])))
            yy = -math.log1p(-_uniform(int(words[pos + 1])))
            pos += 2
            if yy + yy > xx * xx:
                x[event] = -(R + xx) if word >> 17 & 1 else R + xx
                keep[event] = True
                break
        else:
            pos = end
        keep[event + 1 : pos] = False


def _normals(keys: np.ndarray, out: np.ndarray, blocks: int) -> np.ndarray:
    """Fill each row of the (rows, draws) ``out`` with numpy's
    ``standard_normal`` from a fresh Philox under the matching (rows, 2) key,
    reading the first ``blocks`` blocks of each key's words; return the rows
    whose words ran out first, which hold no draws.

    Every word is first read as a draw's first word. A rejected one that no
    earlier event reads is a wedge or the tail; in a row with no tail and no
    two adjacent rejections, each is a wedge whose uniform is the next word,
    with the next draw at the word after, and these rows are resolved as
    arrays. The other rows are resolved in word order. A row's draws are its
    first ``draws`` kept words, so only the kept words past its first
    ``draws`` words need trimming.
    """
    rows, draws = out.shape
    words = _philox_words(keys, blocks)
    x, keep = _first_words(words)
    width = words.shape[1]
    flat_words, flat_x, flat_keep = words.reshape(-1), x.reshape(-1), keep.reshape(-1)

    events = np.flatnonzero(~flat_keep)
    layer = (flat_words[events] & _LAYER_BITS).astype(np.intp)
    accepts = _wedge_accepts(layer, flat_x[events], flat_words[np.minimum(events + 1, words.size - 1)])
    row = events // width
    in_order = layer == 0
    in_order[1:] |= events[1:] == events[:-1] + 1
    walked_rows = np.zeros(rows, dtype=bool)
    walked_rows[row[in_order]] = True
    walked = walked_rows[row]
    _resolve_in_order(flat_words, flat_x, flat_keep, events[walked], accepts[walked], width)
    wedges = ~walked & (events % width < width - 1)
    flat_keep[events[wedges]] = accepts[wedges]
    flat_keep[events[wedges] + 1] = False

    need = draws - np.count_nonzero(keep[:, :draws], axis=1)
    past = keep[:, draws:]
    got = np.cumsum(past, axis=1)
    past &= got <= need[:, None]
    short = got[:, -1] < need
    keep[short] = np.arange(width) < draws
    out[...] = x[keep].reshape(rows, draws)
    return np.flatnonzero(short)


# the words drawn at once, a whole number of samples' worth where a sample
# fits: a replica's words never exist at once, and a tile's arrays stay in cache
_CHUNK_WORDS = 2**15


def _tiled(fill, keys: np.ndarray, out: np.ndarray, blocks: int, group: int) -> np.ndarray:
    # fill the rows of out a tile of whole groups of rows at a time; return the short rows
    tile = group * max(1, _CHUNK_WORDS // (4 * blocks * group))
    starts = range(0, len(keys), tile)
    return np.concatenate([start + fill(keys[start : start + tile], out[start : start + tile], blocks) for start in starts])


def _raw_draws(law: EntryLaw, keys: np.ndarray, n: int) -> np.ndarray:
    """The raw draws of n entries of ``law`` under each key of the (m, k, 2)
    ``keys``, as (m, k, n), or for the complex Gaussian law re and im planes
    on axis 0, which ``_transform`` makes entries: the one dispatch on the
    law behind every draw of the package. Keys are read a tile of samples at
    a time. A Gaussian key first gets 4 + draws/32 spare words, rounded up to
    a whole block (its rejections take about 2.2% more words than its draws),
    so at most about 1.5 keys in 100 run short; those are drawn again
    together, from twice the blocks, until none is.
    """
    m, k = keys.shape[:2]
    complex_law = law is EntryLaw.COMPLEX_GAUSSIAN
    draws = 2 * n if complex_law else n
    if law is EntryLaw.UNIT_CIRCLE or law is EntryLaw.RADEMACHER:
        per_word = 2 if law is EntryLaw.RADEMACHER else 1
        blocks, fill = -(-n // (4 * per_word)), partial(_uniform_fill, per_word)
    else:
        blocks, fill = -(-(draws + 4 + draws // 32) // 4), _normals
    out = np.empty((m * k, draws))
    keys = keys.reshape(-1, 2)
    retry = _tiled(fill, keys, out, blocks, k)
    while retry.size:
        blocks *= 2
        redo = np.empty((retry.size, draws))
        short = _tiled(fill, keys[retry], redo, blocks, 1)
        out[retry] = redo
        retry = retry[short]
    if complex_law:  # re/im planes first, as _transform expects
        return np.moveaxis(out.reshape(m, k, 2, n), 2, 0)
    return out.reshape(m, k, n)


def sample_base(params: ModelParams, replica_index: int = 0) -> BaseSample:
    """Draw the (m, k, n) entries array for one replica.

    The stream key is (seed, replica_index, alpha, level), so the same key
    always yields the same level vector, bitwise, regardless of execution
    order or worker count: entry [alpha, level] is the reference
    ``_draw(law, _stream(seed, replica_index, alpha, level), n)`` of
    tests/oracles.py. The keys are derived together, and every law reads
    them through one counter-mode Philox pass, a tile of samples at a time.
    """
    if replica_index < 0:
        raise ValueError("replica index must be non-negative")
    law = params.entry_law
    keys = _philox_keys(params.seed, (replica_index,), params.sample_count, range(params.k))
    entries = _transform(law, _raw_draws(law, keys, params.n))
    entries.setflags(write=False)
    return BaseSample(entries=entries, params=params)


def stream_uniforms(seed: int, stream: int, rows: int, columns: range, n: int) -> np.ndarray:
    """The (rows, len(columns), n) uniforms on [0, 1), numpy's ``random()``,
    under the keys (stream, 0, row, column): a unit-circle law's raw draws."""
    return _raw_draws(EntryLaw.UNIT_CIRCLE, _philox_keys(seed, (stream, 0), rows, columns), n)


def stream_entries(law: EntryLaw, seed: int, stream: int, rows: int, columns: range, n: int) -> np.ndarray:
    """The (rows, len(columns), n) entries of ``law``, drawn as ``sample_base``
    draws, under the keys (stream, 0, row, column); real Gaussian ones are normals."""
    return _transform(law, _raw_draws(law, _philox_keys(seed, (stream, 0), rows, columns), n))


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
    sq_se: float
    quartic_mean: float
    quartic_target: float
    quartic_se: float

    @property
    def bands(self) -> tuple[Check, Check]:
        """One check per estimate: its distance to the exact value (gap), and
        four standard errors plus the floor (bound)."""
        floor = 1e-12
        quartic_floor = floor * max(1.0, self.quartic_target)
        return (
            Check("sq_mean", abs(self.sq_mean - 1.0), 4.0 * self.sq_se + floor),
            Check("quartic_mean", abs(self.quartic_mean - self.quartic_target), 4.0 * self.quartic_se + quartic_floor),
        )


def norm_moment_check(params: ModelParams, trials: int) -> MomentReport:
    """Estimate E||Y||^2 and E||Y||^4 over independent tensor samples.

    Trial t's level l is row t, column l of stream 0x4D43 (``stream_entries``).
    Per-trial statistics are products of the normalized per-level ratios
    ||y^(l)||^2 / n, so nothing of size n^k is ever exponentiated.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    law, n, k = params.entry_law, params.n, params.k
    e = stream_entries(law, params.seed, 0x4D43, trials, range(k), n)
    ratios = np.einsum("tlj,tlj->tl", e, e.conj()).real / n
    x = np.prod(ratios, axis=1)
    x2 = x * x
    sq_mean = float(np.mean(x))
    sq_se = float(np.std(x, ddof=1) / np.sqrt(trials))
    quartic_mean = float(np.mean(x2))
    quartic_target = (1.0 + (params.entry_law.m4 - 1.0) / n) ** k
    quartic_se = float(np.std(x2, ddof=1) / np.sqrt(trials))
    return MomentReport(
        trials=trials,
        sq_mean=sq_mean,
        sq_se=sq_se,
        quartic_mean=quartic_mean,
        quartic_target=quartic_target,
        quartic_se=quartic_se,
    )
