"""Every pinned CLI run writes the bytes whose digests tests/golden.json holds,
and the package's raw draws hash to its portable digests.

The run digests hold for the numpy and the bundled OpenBLAS and its thread
count that ``tensormp.gram.blas_fingerprint()`` reports, on either Gram path:
the ``-p tests.no_openblas`` pass checks the same digests. Under any other
fingerprint each run skips, naming the fields that differ. The portable
digests are compared under every fingerprint. Regenerate both with
``PYTHONPATH=src python -m tests.golden --write``.
"""

import json

import pytest

from golden import GOLDEN, RUNS, digests, portable_digests
from tensormp.config import EntryLaw
from tensormp.gram import blas_fingerprint

_PINNED = json.loads(GOLDEN.read_text())


def test_the_golden_file_pins_every_run():
    assert sorted(_PINNED["digests"]) == sorted(RUNS)


def test_the_raw_draws_of_every_law_match_their_portable_digests():
    assert sorted(_PINNED["portable"]) == sorted(law.value for law in EntryLaw)
    assert portable_digests() == _PINNED["portable"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_runs_output_bytes_match_their_golden_digests(name, tmp_path):
    pinned, here = _PINNED["fingerprint"], blas_fingerprint()
    differing = [field for field in sorted(pinned.keys() | here.keys()) if pinned.get(field) != here.get(field)]
    if differing:
        fields = "; ".join(f"{field}: {pinned.get(field)!r} pinned, {here.get(field)!r} here" for field in differing)
        pytest.skip(f"golden digests were written under another fingerprint ({fields})")
    assert digests(name, tmp_path) == _PINNED["digests"][name]
