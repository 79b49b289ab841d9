"""Every pinned CLI run writes the bytes whose digests tests/golden.json holds.

The digests hold for the numpy, the bundled OpenBLAS and its thread count, and
the Gram path that wrote them; under any other fingerprint each run skips,
naming the fields that differ. Regenerate with
``PYTHONPATH=src python -m tests.golden --write``.
"""

import json

import pytest

from golden import GOLDEN, RUNS, digests, fingerprint

_PINNED = json.loads(GOLDEN.read_text())


def test_the_golden_file_pins_every_run():
    assert sorted(_PINNED["digests"]) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_runs_output_bytes_match_their_golden_digests(name, tmp_path):
    pinned, here = _PINNED["fingerprint"], fingerprint()
    differing = [field for field in sorted(pinned.keys() | here.keys()) if pinned.get(field) != here.get(field)]
    if differing:
        fields = "; ".join(f"{field}: {pinned.get(field)!r} pinned, {here.get(field)!r} here" for field in differing)
        pytest.skip(f"golden digests were written under another fingerprint ({fields})")
    assert digests(name, tmp_path) == _PINNED["digests"][name]
