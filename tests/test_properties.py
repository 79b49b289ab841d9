"""Property tests for the distances and the limit-law CDF over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensormp import mp
from tensormp.metrics import EmpiricalCDF, ks_distance, levy_distance

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
    # integer cumsum first, so the final mass is exactly 1
    cumulative = np.cumsum(counts) / sum(counts)
    return EmpiricalCDF(np.array(breakpoints, dtype=float), cumulative)


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
    law = mp.MPLaw.from_ratio(c)
    ks = ks_distance(f, law)
    levy = levy_distance(f, law)
    assert 0.0 <= levy <= ks + 1e-9
    assert ks <= 1.0


@_fast
@given(ratios, st.sets(st.integers(-1_000_000, 5_000_000), min_size=1, max_size=200))
def test_mp_cdf_is_nondecreasing_with_left_limit_below(c, ticks):
    law = mp.MPLaw.from_ratio(c)
    # points at least 1e-6 apart, plus the support ends and the atom
    xs = np.union1d(np.array(sorted(ticks)) * 1e-6, [0.0, law.lambda_minus, law.lambda_plus])
    values = law.evaluate(xs)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(law.left_limit(xs) <= values)
