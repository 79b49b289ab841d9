"""Sampling layer: keyed streams, level inner products, log-domain norms."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import forged_sample
from tensormp.config import make_params
from tensormp.sampling import (
    DegenerateSampleError,
    _draw,
    _stream,
    dump_base_sample,
    level_inner,
    load_base_sample,
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


def test_streams_are_order_and_thread_independent():
    params = make_params(4, 2, 0.5, seed=77)
    sample = sample_base(params, 1)
    m, k, n = sample.entries.shape
    keys = [(alpha, level) for alpha in range(m) for level in range(k)]

    rebuilt = np.empty_like(np.asarray(sample.entries))
    for alpha, level in reversed(keys):
        rng = _stream(params.seed, 1, alpha, level)
        rebuilt[alpha, level] = _draw(params.entry_law, rng, n)
    assert np.array_equal(rebuilt, sample.entries)

    def one(key):
        alpha, level = key
        return key, _draw(params.entry_law, _stream(params.seed, 1, alpha, level), n)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for (alpha, level), vec in pool.map(one, keys):
            assert np.array_equal(vec, sample.entries[alpha, level])


def test_unit_circle_support():
    params = make_params(2, 1, 0.5, entry_law_kind="unit_circle", seed=5)
    sample = sample_base(params, 0)
    assert sample.entries.shape == (1, 1, 2)
    assert np.all(np.abs(np.abs(sample.entries) - 1.0) < 1e-15)


def test_level_inner_examples():
    sample = forged_sample([[[1.0, 0.0]], [[0.0, 1.0]]])
    assert level_inner(sample, 0, 1, 0) == 0.0

    sample = forged_sample([[[1.0, 1j]], [[1.0, 1.0]]])
    assert level_inner(sample, 0, 1, 0) == 1.0 + 1.0j

    profile = norm_profile(sample)
    for alpha in range(2):
        self_inner = level_inner(sample, alpha, alpha, 0)
        assert self_inner.imag == 0.0
        assert self_inner.real == profile.level_sq_norms[alpha, 0]


def test_level_inner_hermitian_and_cauchy_schwarz():
    params = make_params(7, 3, 0.3, seed=2)
    sample = sample_base(params, 0)
    profile = norm_profile(sample)
    m, k, _ = sample.entries.shape
    for alpha in range(m):
        for beta in range(m):
            for level in range(k):
                forward = level_inner(sample, alpha, beta, level)
                assert forward == np.conj(level_inner(sample, beta, alpha, level))
                bound = profile.level_sq_norms[alpha, level] * profile.level_sq_norms[beta, level]
                assert abs(forward) ** 2 <= bound * (1.0 + 1e-12)


def test_norm_profile_unit_modulus_exact():
    for law in ("rademacher", "unit_circle"):
        params = make_params(6, 4, 4 / 6**4, entry_law_kind=law, seed=1)
        sample = sample_base(params, 0)
        profile = norm_profile(sample)
        k, n = params.k, params.n
        assert np.all(np.abs(profile.log_sq_norms - k * math.log(n)) <= 1e-12 * k)


def test_norm_profile_single_level_and_hand_case():
    params = make_params(5, 1, 0.4, seed=3)
    profile = norm_profile(sample_base(params, 0))
    assert np.array_equal(profile.log_sq_norms, np.log(profile.level_sq_norms[:, 0]))

    sample = forged_sample([[[1.0, 1.0], [1.0, -1.0]]])
    profile = norm_profile(sample)
    assert profile.log_sq_norms[0] == pytest.approx(math.log(4.0), abs=1e-15)


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


def test_dump_round_trip(tmp_path):
    params = make_params(3, 2, 0.5, entry_law_kind="unit_circle", seed=9)
    sample = sample_base(params, 0)
    path = tmp_path / "sample.bin"
    dump_base_sample(sample, path)
    header, entries = load_base_sample(path)
    assert header == {"n": 3, "k": 2, "m": 5, "seed": 9, "law": params.entry_law.kind}
    assert np.array_equal(entries, sample.entries)


def test_dump_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a dump at all" * 4)
    with pytest.raises(ValueError):
        load_base_sample(path)
