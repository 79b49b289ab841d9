"""Shared test fixtures: forged samples with hand-chosen entries, and the
covariance Gram as model_spectra solves it."""

from __future__ import annotations

import numpy as np

from tensormp.config import make_params
from tensormp.gram import _scale_to_covariance, build_correlation_gram
from tensormp.sampling import BaseSample


def forged_sample(entries, law_kind="complex_gaussian", seed=0) -> BaseSample:
    """Wrap an explicit (m, k, n) array as a BaseSample with matching params."""
    entries = np.array(entries, dtype=np.complex128)
    m, k, n = entries.shape
    params = make_params(n, k, m / n**k, entry_law_kind=law_kind, seed=seed)
    assert params.sample_count == m
    entries.setflags(write=False)
    return BaseSample(entries=entries, params=params, replica=0)


def covariance_gram(sample: BaseSample) -> np.ndarray:
    """D C D of the sample: its correlation Gram, made writable and scaled in
    its own buffer by the same calls model_spectra makes before the
    covariance solve."""
    gram = build_correlation_gram(sample)
    gram.setflags(write=True)
    _scale_to_covariance(gram, sample)
    return gram
