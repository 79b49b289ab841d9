"""Every demo script runs to completion against the package in src/, with
every warning an error as in the rest of the suite and without importing
numpy.random or logging, and prints the stdout whose digest tests/golden.json
pins where the BLAS fingerprint is the pinned one; every JSON example of
README.md is a document the shipped readers accept."""

import json
import re

import pytest

from golden import DEMOS, GOLDEN, ROOT, fingerprint_mismatch, run_demo, sha256_hex
from tensormp.config import params_from_json
from tensormp.config import sweep_plan_from_json

_PINNED = json.loads(GOLDEN.read_text())
README_JSON = re.findall(r"^```json\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.M | re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "numpy" in imported and "numpy.random" not in imported  # every law samples from the package's Philox
    assert "logging" not in imported
    fields = fingerprint_mismatch(_PINNED["fingerprint"])
    if fields:  # only the digest comparison is skipped: the demo ran and its imports were checked
        pytest.skip(f"demo digests were written under another fingerprint ({fields})")
    assert sha256_hex(proc.stdout.encode()) == _PINNED["demos"][demo.name], proc.stdout


def test_readme_has_json_examples():
    assert len(README_JSON) >= 2  # a point configuration and a sweep plan


@pytest.mark.parametrize("block", README_JSON)
def test_readme_json_examples_parse_through_the_shipped_readers(block):
    doc = json.loads(block)
    if "ns" in doc or "points" in doc:
        assert sweep_plan_from_json(doc).points
    else:
        assert params_from_json(doc).sample_count >= 1
