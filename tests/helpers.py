"""Shared test fixtures: forged samples with hand-chosen entries, the
spectra and covariance Gram that model_spectra solves for a given sample,
and the plain Levy bisection."""

from __future__ import annotations

import numpy as np
import pytest

import tensormp.gram
from tensormp.config import make_params
from tensormp.gram import _scale_to_covariance, build_correlation_gram, model_spectra
from tensormp.metrics import LEVY_TOL, _canonical, _levy_feasible, ks_distance
from tensormp.sampling import BaseSample


def forged_sample(entries, law_kind="complex_gaussian", seed=0) -> BaseSample:
    """Wrap an explicit (m, k, n) array as a BaseSample with matching params."""
    entries = np.array(entries, dtype=np.complex128)
    m, k, n = entries.shape
    params = make_params(n, k, m / n**k, entry_law=law_kind, seed=seed)
    assert params.sample_count == m
    entries.setflags(write=False)
    return BaseSample(entries=entries, params=params)


def spectra_of(sample: BaseSample, models, buffer=None):
    """model_spectra of a given sample: replica 0 of its params, with
    tensormp.gram.sample_base, the binding model_spectra draws through,
    returning this sample for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensormp.gram, "sample_base", lambda params, replica: sample)
        return model_spectra(sample.params, 0, models, buffer)


def covariance_scales(sample: BaseSample) -> np.ndarray:
    """d^2 as model_spectra takes it from a sample of a law that is not unit-modulus."""
    return np.prod(sample.level_norms / sample.params.n, axis=1)


def covariance_gram(sample: BaseSample) -> np.ndarray:
    """D C D of the sample: its correlation Gram, made writable and scaled in
    its own buffer by the same calls model_spectra makes before the
    covariance solve; none for a unit-modulus law, whose D = I by the law."""
    gram = build_correlation_gram(sample)
    gram.setflags(write=True)
    if not sample.params.entry_law.unit_modulus:
        _scale_to_covariance(gram, covariance_scales(sample), sample.params.tau.as_array())
    return gram


def levy_bisection(f, g) -> float:
    """metrics.levy_distance as a plain bisection, every mid decided by the
    package's own feasibility scan: the reference that the limit-law
    distance's verified bracket must reproduce bitwise (it shares the scan,
    so it is no independent oracle; see oracles.levy_bruteforce)."""
    f, g = _canonical(f, g)
    hi = ks_distance(f, g)
    if hi == 0.0:
        return 0.0
    lo = 0.0
    while hi - lo > LEVY_TOL:
        mid = 0.5 * (lo + hi)
        if _levy_feasible(f, g, mid):
            hi = mid
        else:
            lo = mid
    return hi
