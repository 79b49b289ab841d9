"""Every pinned CLI run writes the bytes whose digests tests/golden.json holds,
and the package's raw draws and the selftest's stream draws hash to its
portable digests (tests/test_demos.py compares the demos' stdout digests).

The run digests hold for the numpy and the bundled OpenBLAS and its thread
count that ``tensormp.gram.blas_fingerprint()`` reports, on either Gram path:
the ``-p tests.no_openblas`` pass checks the same digests. Under any other
fingerprint each run skips, naming the fields that differ. The portable
digests are compared under every fingerprint. Regenerate both with
``PYTHONPATH=src python -m tests.golden --write``.
"""

import json

import pytest

from golden import DEMOS, GOLDEN, RUNS, digests, fingerprint_mismatch, portable_digests
from tensormp.config import EntryLaw

_PINNED = json.loads(GOLDEN.read_text())


def test_the_golden_file_pins_every_run():
    assert sorted(_PINNED["digests"]) == sorted(RUNS)
    assert sorted(_PINNED["demos"]) == [demo.name for demo in DEMOS]


def test_the_raw_draws_of_every_law_match_their_portable_digests():
    streams = ["stream1/normals", "stream1/uniforms", "stream2/normals", "stream3/uniforms"]
    streams += ["stream4/rademacher", "stream4/real_gaussian"]
    assert sorted(_PINNED["portable"]) == sorted([law.value for law in EntryLaw] + streams)
    assert portable_digests() == _PINNED["portable"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_runs_output_bytes_match_their_golden_digests(name, tmp_path):
    fields = fingerprint_mismatch(_PINNED["fingerprint"])
    if fields:
        pytest.skip(f"golden digests were written under another fingerprint ({fields})")
    assert digests(name, tmp_path) == _PINNED["digests"][name]
