"""Property tests for the Gram builders, the distances and the limit-law CDF
over random inputs."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import covariance_gram, spectra_of
from oracles import _draw, _stream, gram_direct, gram_out_of_place
from tensormp import mp
from tensormp.config import MAX_REPLICAS, EntryLaw, ModelKind, make_params
from tensormp.gram import (
    _PANEL_ROWS,
    build_correlation_gram,
    build_normalized_level_gram,
)
from tensormp.gram import SpectralDistribution
from tensormp.metrics import ks_distance, levy_distance
from tensormp.sampling import sample_base

# a coarse lattice next to free floats makes shared breakpoints between two
# step functions likely
_points = st.one_of(
    st.integers(-16, 64).map(lambda i: i / 16.0),
    st.floats(-1.0, 4.0, allow_nan=False, allow_infinity=False),
)

ratios = st.floats(0.0, 2.0, exclude_min=True, allow_nan=False)


@st.composite
def step_functions(draw):
    breakpoints = sorted(draw(st.sets(_points, min_size=1, max_size=12)))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(breakpoints), max_size=len(breakpoints)))
    # each breakpoint an atom of its count's multiplicity among N = sum(counts)
    return SpectralDistribution(np.repeat(np.array(breakpoints, dtype=float), counts), sum(counts))


_fast = settings(max_examples=150, deadline=None)


@_fast
@given(step_functions(), step_functions())
def test_step_distances_are_bounded_symmetric_and_levy_below_ks(f, g):
    ks = ks_distance(f, g)
    levy = levy_distance(f, g)
    assert 0.0 <= levy <= ks + 1e-9
    assert ks <= 1.0
    assert ks == ks_distance(g, f)
    assert levy == levy_distance(g, f)


@_fast
@given(step_functions(), ratios)
def test_law_distances_are_bounded_and_levy_below_ks(f, c):
    law = mp.MPLaw(c)
    ks = ks_distance(f, law)
    levy = levy_distance(f, law)
    assert 0.0 <= levy <= ks + 1e-9
    assert ks <= 1.0


@_fast
@given(ratios, st.sets(st.integers(-1_000_000, 5_000_000), min_size=1, max_size=200))
def test_mp_cdf_is_nondecreasing_with_left_limit_below(c, ticks):
    law = mp.MPLaw(c)
    # points at least 1e-6 apart, plus the support ends and the atom
    xs = np.union1d(np.array(sorted(ticks)) * 1e-6, [0.0, law.lambda_minus, law.lambda_plus])
    values = law.evaluate(xs)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(law.left_limit(xs) <= values)


@st.composite
def gram_points(draw):
    """(n, k, m) with N = n^k <= 4096, one of the four laws, constant or
    two-point tau, and a seed."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, max(k for k in range(1, 13) if n**k <= 4096)))
    m = draw(st.integers(1, 24))
    law = draw(st.sampled_from(list(EntryLaw)))
    tau = draw(
        st.one_of(
            st.just("constant_one"),
            st.builds(
                lambda a, b, w: {"kind": "two_point", "a": a, "b": b, "weight": w},
                st.floats(0.25, 4.0),
                st.floats(0.25, 4.0),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            ),
        )
    )
    return make_params(n, k, m / n**k, entry_law=law, tau=tau, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=100, deadline=None)
@given(gram_points())
def test_gram_builders_match_the_explicit_tensor_oracle(params):
    sample = sample_base(params, 0)
    corr = build_correlation_gram(sample)
    cov = covariance_gram(sample)
    for gram, model in ((corr, ModelKind.CORRELATION), (cov, ModelKind.COVARIANCE)):
        direct = gram_direct(sample, params.tau, model)
        assert np.max(np.abs(gram - direct)) <= 1e-13 * np.max(np.abs(direct))
    normalized = build_normalized_level_gram(sample)
    assert not corr.flags.writeable and not normalized.flags.writeable  # what each builder hands out
    for gram in (corr, cov, normalized):
        assert np.array_equal(gram, gram.conj().T)  # eigenvalues() relies on it
    if params.entry_law.unit_modulus:
        # D = I by the law: model_spectra takes d^2 as exactly 1 and solves C as the covariance Gram
        eigs, _, d2 = spectra_of(sample, ModelKind.COVARIANCE)
        assert d2.tobytes() == np.ones(params.sample_count).tobytes()
        assert eigs.tobytes() == np.linalg.eigvalsh(corr).tobytes()


@st.composite
def panel_points(draw):
    """(n, k, m) with m up to four row panels and more, N = n^k >= m, any law and tau."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, min(4 * _PANEL_ROWS + 3, n**k)))
    law = draw(st.sampled_from(list(EntryLaw)))
    tau = draw(
        st.one_of(
            st.just("constant_one"),
            st.builds(
                lambda a, b, w: {"kind": "two_point", "a": a, "b": b, "weight": w},
                st.floats(0.25, 4.0),
                st.floats(0.25, 4.0),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            ),
        )
    )
    return make_params(n, k, m / n**k, entry_law=law, tau=tau, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=80, deadline=None)
@given(panel_points())
def test_in_place_builders_equal_the_out_of_place_formula_bitwise(params):
    sample = sample_base(params, 0)
    corr = build_correlation_gram(sample)
    cov = covariance_gram(sample)
    for gram, model in ((corr, ModelKind.CORRELATION), (cov, ModelKind.COVARIANCE)):
        expected = gram_out_of_place(sample, params.tau, model)
        assert gram.dtype == expected.dtype
        assert np.array_equal(gram, expected)
        assert np.array_equal(np.signbit(gram.view(float)), np.signbit(expected.view(float)))


_seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.just(2**64 - 1))
_replicas = st.one_of(st.integers(0, 40), st.integers(0, 40).map(lambda r: MAX_REPLICAS + r))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([EntryLaw.UNIT_CIRCLE, EntryLaw.RADEMACHER]),
    _seeds,
    _replicas,
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(2, 19),
)
@example(EntryLaw.UNIT_CIRCLE, 2**64 - 1, MAX_REPLICAS + 3, 3, 2, 2)
@example(EntryLaw.RADEMACHER, 2**64 - 1, MAX_REPLICAS + 3, 3, 2, 2)
@example(EntryLaw.UNIT_CIRCLE, 2**33 + 5, 1, 5, 3, 7)  # n not a multiple of 4: a part block
@example(EntryLaw.RADEMACHER, 2**33 + 5, 1, 5, 3, 13)  # n not a multiple of 8: a part word
def test_counter_mode_uniform_laws_equal_the_per_key_generator(law_kind, seed, replica, m, k, n):
    params = make_params(n, k, m / n**k, entry_law=law_kind, seed=seed)
    assert params.sample_count == m
    entries = sample_base(params, replica).entries
    for alpha in range(m):
        for level in range(k):
            expected = _draw(params.entry_law, _stream(seed, replica, alpha, level), n)
            assert entries[alpha, level].tobytes() == expected.tobytes(), (alpha, level)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([EntryLaw.REAL_GAUSSIAN, EntryLaw.COMPLEX_GAUSSIAN]),
    _seeds,
    st.one_of(_replicas, st.just(2**32 + 7)),
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(2, 45),
)
@example(EntryLaw.REAL_GAUSSIAN, 2**33 + 9, 2**32 + 7, 3, 2, 5)  # a tail
@example(EntryLaw.COMPLEX_GAUSSIAN, 2**33 + 9, 2**32 + 7, 3, 2, 5)
@example(EntryLaw.REAL_GAUSSIAN, 2**33, 2**32 + 7, 4, 1, 3)  # a rejected wedge
@example(EntryLaw.COMPLEX_GAUSSIAN, 2**33, 2**32 + 7, 4, 1, 3)
@example(EntryLaw.REAL_GAUSSIAN, 2**33 + 11119, 2**32 + 7, 2, 1, 3)  # words past the first allocation
@example(EntryLaw.COMPLEX_GAUSSIAN, 2**33 + 11119, 2**32 + 7, 2, 1, 2)
def test_ziggurat_gaussian_laws_equal_the_per_key_generator(law_kind, seed, replica, m, k, n):
    params = make_params(n, k, m / n**k, entry_law=law_kind, seed=seed)
    assert params.sample_count == m
    entries = sample_base(params, replica).entries
    for alpha in range(m):
        for level in range(k):
            expected = _draw(params.entry_law, _stream(seed, replica, alpha, level), n)
            assert entries[alpha, level].tobytes() == expected.tobytes(), (alpha, level)
