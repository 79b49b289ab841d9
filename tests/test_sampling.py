"""Sampling layer: keyed streams, level norms, the norm-moment check."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import forged_sample
from tensormp.config import EntryLawKind, make_params
from tensormp.experiments import _SPHERE_STREAM_OFFSET
from tensormp.sampling import (
    DegenerateSampleError,
    _draw,
    _philox_keys,
    _stream,
    norm_moment_check,
    norm_profile,
    sample_base,
)


def test_sample_shape():
    params = make_params(4, 3, 2 / 64)
    sample = sample_base(params, 0)
    assert sample.entries.shape == (2, 3, 4)
    assert sample.entries.dtype == np.complex128
    assert not sample.entries.flags.writeable
    for law, dtype in (
        ("real_gaussian", np.float64),
        ("rademacher", np.float64),
        ("complex_gaussian", np.complex128),
        ("unit_circle", np.complex128),
    ):
        assert sample_base(make_params(4, 3, 2 / 64, entry_law_kind=law), 0).entries.dtype == dtype


def test_repeat_draw_is_bitwise_identical():
    params = make_params(5, 2, 0.4, seed=11)
    a = sample_base(params, 3)
    b = sample_base(params, 3)
    assert np.array_equal(a.entries, b.entries)
    c = sample_base(params, 4)
    assert not np.array_equal(a.entries, c.entries)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize("replica", [0, 3, _SPHERE_STREAM_OFFSET + 2])
def test_philox_keys_match_seed_sequence(seed, replica):
    keys = _philox_keys(seed, replica, 9, 3)
    assert keys.shape == (9, 3, 2) and keys.dtype == np.uint64
    for alpha in range(9):
        for level in range(3):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(replica, alpha, level))
            assert np.array_equal(keys[alpha, level], ss.generate_state(2, np.uint64))


def test_streams_are_order_and_thread_independent():
    # sample_base against the per-key reference _draw(law, _stream(...), n)
    points = [
        (2, 1, 0.5, 0, 0),  # smallest n, k = 1, m = 1
        (3, 1, 2.0, 77, 1),  # odd n leaves a cached half word in the generator
        (4, 2, 0.5, 77, 1),
        (5, 3, 0.1, 2**64 - 1, _SPHERE_STREAM_OFFSET + 2),
    ]
    for law in EntryLawKind:
        for n, k, c, seed, replica in points:
            params = make_params(n, k, c, entry_law_kind=law, seed=seed)
            sample = sample_base(params, replica)
            keys = [(alpha, level) for alpha in range(params.sample_count) for level in range(k)]

            rebuilt = np.empty_like(np.asarray(sample.entries))
            for alpha, level in reversed(keys):
                vec = _draw(params.entry_law, _stream(seed, replica, alpha, level), n)
                assert vec.dtype == sample.entries.dtype
                rebuilt[alpha, level] = vec
            assert rebuilt.tobytes() == sample.entries.tobytes(), (law, n, k)

            def one(key):
                alpha, level = key
                return key, _draw(params.entry_law, _stream(seed, replica, alpha, level), n)

            with ThreadPoolExecutor(max_workers=8) as pool:
                for (alpha, level), vec in pool.map(one, keys):
                    assert vec.tobytes() == sample.entries[alpha, level].tobytes()


def test_concurrent_sample_base_calls_match_serial():
    # each call re-keys its own generator; a shared one would mix streams
    params = make_params(10, 2, 0.5, entry_law_kind="rademacher", seed=5)
    serial = [sample_base(params, replica).entries.tobytes() for replica in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda replica: sample_base(params, replica).entries.tobytes(), range(16)))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_unit_circle_support():
    params = make_params(2, 1, 0.5, entry_law_kind="unit_circle", seed=5)
    sample = sample_base(params, 0)
    assert sample.entries.shape == (1, 1, 2)
    assert np.all(np.abs(np.abs(sample.entries) - 1.0) < 1e-15)


def test_norm_profile_unit_modulus_exact():
    for law in ("rademacher", "unit_circle"):
        params = make_params(6, 4, 4 / 6**4, entry_law_kind=law, seed=1)
        sample = sample_base(params, 0)
        sq = norm_profile(sample)
        assert sq.shape == (params.sample_count, params.k) and not sq.flags.writeable
        if law == "rademacher":
            assert np.all(sq == params.n)  # a sum of n ones
        else:  # cos^2 + sin^2 rounds: a few ulps of n
            assert np.all(np.abs(sq - params.n) <= 4 * np.finfo(float).eps * params.n)


def test_norm_profile_single_level_and_hand_case():
    params = make_params(5, 1, 0.4, seed=3)
    sample = sample_base(params, 0)
    sq = norm_profile(sample)
    assert np.allclose(sq[:, 0], np.linalg.norm(sample.entries[:, 0], axis=1) ** 2, rtol=1e-14, atol=0.0)

    sample = forged_sample([[[1.0, 1.0], [1.0, -1.0]]])
    sq = norm_profile(sample)
    assert np.array_equal(sq, [[2.0, 2.0]]) and np.prod(sq) == 4.0


def test_degenerate_sample_error_names_indices():
    entries = np.ones((2, 2, 2), dtype=complex)
    entries[1, 0] = 0.0
    with pytest.raises(DegenerateSampleError) as info:
        norm_profile(forged_sample(entries))
    assert info.value.alpha == 1
    assert info.value.level == 0


def test_norm_moment_check_trial_floor():
    with pytest.raises(ValueError):
        norm_moment_check(make_params(4, 2, 0.5), 999)


def test_norm_moment_check_unit_modulus_is_deterministic():
    report = norm_moment_check(make_params(6, 3, 0.1, entry_law_kind="rademacher"), 2000)
    assert report.sq_mean == 1.0
    assert report.sq_se == 0.0
    assert report.quartic_mean == 1.0
    assert report.passed

    report = norm_moment_check(make_params(6, 3, 0.1, entry_law_kind="unit_circle"), 2000)
    assert abs(report.sq_mean - 1.0) <= 1e-12
    assert report.sq_se <= 1e-12
    assert report.passed


def test_norm_moment_check_complex_gaussian():
    report = norm_moment_check(make_params(10, 3, 0.01, seed=0), 10_000)
    assert report.quartic_target == pytest.approx(1.331, abs=1e-12)
    assert abs(report.quartic_mean - report.quartic_target) <= 4.0 * report.quartic_se
    assert report.passed


def test_norm_moment_check_real_gaussian_quartic():
    # raw fourth-moment target n^2 (1 + (m4-1)/n) = 16 * 1.5 = 24 at n=4, k=1
    report = norm_moment_check(make_params(4, 1, 0.5, entry_law_kind="real_gaussian"), 5000)
    assert 16.0 * report.quartic_target == 24.0
    assert report.passed

