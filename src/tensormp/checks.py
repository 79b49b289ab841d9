"""One pass/fail rule for every numerical check: a check passes exactly when
its gap <= its bound, so a NaN gap or bound fails. The selftest reports its
checks as rows; the pipeline's safeguards raise through require. Imports
nothing from the package, which builds on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """A named gap and the bound it must not exceed."""

    name: str
    gap: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.gap <= self.bound)


def nearest_failure(name: str, gaps, bounds) -> Check:
    """The row of a check's instance with the largest gap - bound (``bounds``
    is one bound or one per gap). np.argmax returns the first NaN, so one NaN
    gap fails the row, where a running max() would drop it."""
    gaps, bounds = np.broadcast_arrays(np.asarray(gaps, dtype=float), np.asarray(bounds, dtype=float))
    worst = int(np.argmax(gaps - bounds))
    return Check(name, float(gaps[worst]), float(bounds[worst]))


def require(name: str, gap: float, bound: float, message: str) -> Check:
    """The row Check(name, gap, bound); raises ValueError(message) unless it passes."""
    check = Check(name, gap, bound)
    if not check.passed:
        raise ValueError(message)
    return check
