"""The one pass/fail rule: a check passes exactly when gap <= bound."""

import pytest

from tensormp.checks import Check, nearest_failure, require
from tensormp.config import make_params
from tensormp.sampling import norm_moment_check

NAN = float("nan")


@pytest.mark.parametrize(
    "gap, bound, passed",
    [(NAN, 1.0, False), (0.5, NAN, False), (NAN, NAN, False), (1.0, 1.0, True), (0.0, 0.0, True), (2.0, 1.0, False)],
)
def test_a_check_passes_exactly_when_the_gap_is_within_the_bound(gap, bound, passed):
    assert Check("probe", gap, bound).passed is passed
    assert nearest_failure("probe", [0.0, gap], [1.0, bound]).passed is passed
    if passed:
        assert require("probe", gap, bound, "unused") == Check("probe", gap, bound)
    else:
        with pytest.raises(ValueError) as excinfo:
            require("probe", gap, bound, "probe missed: (1 > 0) [x]")
        assert str(excinfo.value) == "probe missed: (1 > 0) [x]"  # verbatim, not a pattern


def test_the_nearest_failure_is_the_largest_excess():
    row = nearest_failure("probe", [0.1, 0.9, 0.5], [1.0, 1.0, 0.2])
    assert (row.gap, row.bound) == (0.5, 0.2) and not row.passed


def test_moment_bands_are_checks():
    report = norm_moment_check(make_params(4, 2, 0.5), 1000)
    assert [type(band) for band in report.bands] == [Check, Check]
    assert all(band.passed for band in report.bands)
