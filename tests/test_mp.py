"""Limit-law analytics against closed forms and an independent quadrature."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import mp_cdf_quad, mp_moment_closed_form, mp_moment_quad
from tensormp import mp

C_GRID = (0.1, 0.25, 0.5, 0.9, 1.0)

# regression constant: CDF at x=1 for c=1, frozen from the QUADPACK oracle
# (analytically 1/3 + sqrt(3)/(2 pi))
CDF_C1_AT_1 = 0.6089977810442293


def test_law_fields():
    law = mp.MPLaw(0.25)
    assert law.lambda_minus == 0.25
    assert law.lambda_plus == 2.25
    assert law.atom_mass == 0.75

    law = mp.MPLaw(1.0)
    assert law.lambda_minus == 0.0
    assert law.atom_mass == 0.0

    law = mp.MPLaw(4.0)
    assert law.atom_mass == 0.0
    assert law.lambda_minus == 1.0

    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="ratio c must be positive and finite"):
            mp.MPLaw(bad)


def test_a_law_is_its_ratio():
    # the support and the atom follow c, however the law is made
    assert replace(mp.MPLaw(0.5), c=2.0) == mp.MPLaw(2.0)
    with pytest.raises(ValueError, match="ratio c must be positive and finite"):
        replace(mp.MPLaw(0.5), c=0.0)
    with pytest.raises(TypeError):
        mp.MPLaw(c=0.5, lambda_minus=0.0)
    with pytest.raises(TypeError):
        mp.MPLaw(0.5, 0.0, 2.0, 0.5)  # every field but c is derived, never given
    assert mp.MPLaw(1) == mp.MPLaw(1.0) and type(mp.MPLaw(1).c) is float


def test_density_pointwise():
    law = mp.MPLaw(1.0)
    assert mp.density(law, 0.0) == 0.0  # boundary of the open support
    assert mp.density(law, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
    assert mp.density(law, 4.0) == 0.0
    assert mp.density(law, -1.0) == 0.0

    law = mp.MPLaw(0.25)
    xs = np.array([0.0, 0.2, 0.25, 1.0, 2.25, 3.0])
    values = mp.density(law, xs)
    assert values[0] == values[1] == values[2] == 0.0
    assert values[3] > 0.0
    assert values[4] == values[5] == 0.0


def test_cdf_support_bounds_and_atom():
    law = mp.MPLaw(0.25)
    assert mp.cdf(law, -1e-9) == 0.0
    assert mp.cdf(law, 0.0) == 0.75  # the atom alone
    assert mp.cdf(law, 0.2) == 0.75
    assert mp.cdf(law, law.lambda_minus) == 0.75
    assert mp.cdf(law, law.lambda_plus) == 1.0
    assert mp.cdf(law, 10.0) == 1.0
    for c in (0.5, 1.0, 2.0):
        law = mp.MPLaw(c)
        values = mp.cdf(law, np.array([-1.0, 0.0, law.lambda_minus, law.lambda_plus, 9.0]))
        assert np.array_equal(values, [0.0, law.atom_mass, law.atom_mass, 1.0, 1.0])


def test_cdf_frozen_median_region_value():
    law = mp.MPLaw(1.0)
    value = mp.cdf(law, 1.0)
    assert 0.5 < value < 0.7
    assert value == pytest.approx(CDF_C1_AT_1, abs=1e-9)


@pytest.mark.parametrize("c", (0.3, 0.7, 1.0, 1.3))
def test_cdf_against_quadpack_oracle(c):
    law = mp.MPLaw(c)
    xs = np.linspace(law.lambda_minus - 0.2, law.lambda_plus + 0.2, 23)
    ours = mp.cdf(law, xs)
    for x, value in zip(xs, ours):
        assert value == pytest.approx(mp_cdf_quad(c, float(x)), abs=2e-9)


def test_cdf_monotone_on_dense_grid():
    for c in C_GRID:
        law = mp.MPLaw(c)
        xs = np.linspace(-0.5, law.lambda_plus + 0.5, 10_000)
        values = mp.cdf(law, xs)
        assert np.all(np.diff(values) >= 0.0)
        assert abs(values[-1] - 1.0) <= 1e-8


def test_density_mass_plus_atom_is_one():
    for c in C_GRID + (2.0,):
        law = mp.MPLaw(c)
        assert abs(law.atom_mass + mp.density_mass(law) - 1.0) <= 1e-8


def test_moments_zeroth_and_first():
    assert mp.moment(mp.MPLaw(0.5), 0) == 1.0
    for c in C_GRID:
        assert abs(mp.moment(mp.MPLaw(c), 1) - c) <= 1e-8


def test_moments_against_closed_form_and_quadpack():
    for c in (0.25, 0.5, 1.0, 2.0):
        law = mp.MPLaw(c)
        for q in range(1, 9):
            ours = mp.moment(law, q)
            assert ours == pytest.approx(mp_moment_closed_form(c, q), rel=1e-12, abs=1e-12)
            # the library shares the Narayana formula; QUADPACK is the independent check
            assert ours == pytest.approx(mp_moment_quad(c, q), rel=1e-8)
    assert mp.moment(mp.MPLaw(0.5), 2) == pytest.approx(0.75, abs=1e-12)


def test_moment_order_bounds():
    law = mp.MPLaw(0.5)
    with pytest.raises(ValueError):
        mp.moment(law, 21)
    with pytest.raises(ValueError):
        mp.moment(law, -1)
    mp.moment(law, 20)


def test_evaluation_grid():
    law = mp.MPLaw(0.5)
    xs, dens, cdf_values = mp.evaluation_grid(law, points=256)
    assert xs.shape == dens.shape == cdf_values.shape == (256,)
    assert np.all(np.diff(cdf_values) >= 0.0)
    assert np.all(dens >= 0.0)
    with pytest.raises(ValueError):
        mp.evaluation_grid(law, points=1)
    for lo, hi in [(float("nan"), None), (None, float("inf")), (5.0, 1.0), (1.0, 1.0)]:
        with pytest.raises(ValueError, match="finite bounds lo < hi"):
            mp.evaluation_grid(law, lo=lo, hi=hi)


def test_analytics_are_fast():
    start = time.perf_counter()
    for c in C_GRID:
        law = mp.MPLaw(c)
        mp.density_mass(law)
        mp.moment(law, 1)
    assert time.perf_counter() - start < 1.0
