"""Sampling layer: keyed streams, level norms, the norm-moment check."""

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import tensormp.sampling
from helpers import forged_sample
from oracles import _draw, _stream, ziggurat_normals
from tensormp._ziggurat import FI, KI, NEG_INV_R, R, WI
from tensormp.config import MAX_REPLICAS, EntryLaw, make_params, params_to_json
from tensormp.sampling import (
    _CHUNK_WORDS,
    BaseSample,
    _philox_keys,
    _philox_words,
    _raw_draws,
    _transform,
    _resolve_in_order,
    norm_moment_check,
    sample_base,
    stream_entries,
    stream_uniforms,
)


def test_sample_shape():
    params = make_params(4, 3, 2 / 64)
    sample = sample_base(params, 0)
    assert sample.entries.shape == (2, 3, 4)
    assert sample.entries.dtype == np.complex128
    assert not sample.entries.flags.writeable
    for law, dtype in (
        ("real_gaussian", np.float64),
        ("rademacher", np.float64),
        ("complex_gaussian", np.complex128),
        ("unit_circle", np.complex128),
    ):
        assert sample_base(make_params(4, 3, 2 / 64, entry_law=law), 0).entries.dtype == dtype


def test_sample_rejects_entries_of_another_shape_than_its_params():
    # 4 samples with params for m=5: the Gram would not broadcast, and the dense oracle would
    # silently weigh them with the first 4 weights
    params = make_params(5, 1, 1.0)
    entries = np.ones((4, 1, 5), dtype=complex)
    with pytest.raises(ValueError, match=r"shape \(4, 1, 5\), but params give \(m, k, n\) = \(5, 1, 5\)"):
        BaseSample(entries=entries, params=params)


def test_repeat_draw_is_bitwise_identical():
    params = make_params(5, 2, 0.4, seed=11)
    a = sample_base(params, 3)
    b = sample_base(params, 3)
    assert np.array_equal(a.entries, b.entries)
    c = sample_base(params, 4)
    assert not np.array_equal(a.entries, c.entries)


_REPLICA_PREFIXES = [(0,), (3,), (MAX_REPLICAS + 2,), (2**32 + 7,)]  # the last has two words
_OTHER_PREFIXES = [(), (4,), (4, 2), (0x4D43, 0), (2**32 + 7, 1, 9)]  # lengths 0 to 3


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize("prefix", _REPLICA_PREFIXES + _OTHER_PREFIXES)
@pytest.mark.parametrize("columns", [range(3), range(2, 5)])
def test_philox_keys_match_seed_sequence(seed, prefix, columns):
    keys = _philox_keys(seed, prefix, 9, columns)
    assert keys.shape == (9, 3, 2) and keys.dtype == np.uint64
    for alpha in range(9):
        for index, level in enumerate(columns):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=prefix + (alpha, level))
            assert np.array_equal(keys[alpha, index], ss.generate_state(2, np.uint64))


@pytest.mark.parametrize("law", list(EntryLaw))
def test_stream_entries_are_the_keyed_reference(law):
    # row r, column c of stream s is numpy's draw under the spawn key (s, 0, r, c)
    seed, columns = 2**32 + 5, range(2, 4)
    entries = stream_entries(law, seed, 7, 5, columns, 9)
    assert entries.shape == (5, 2, 9)
    for row in range(5):
        for index, column in enumerate(columns):
            assert entries[row, index].tobytes() == _draw(law, _stream(seed, 7, 0, row, column), 9).tobytes()


@pytest.mark.parametrize("seed, stream", [(-1, 3), (5, -1), (-(2**40), -2)])
def test_a_negative_seed_or_stream_is_refused(seed, stream):
    # as SeedSequence refuses it; -1 >> 32 is -1, so its uint32 words would never end
    with pytest.raises(ValueError, match=rf"a seed or spawn key must be non-negative, got {min(seed, stream)}"):
        stream_uniforms(seed, stream, 2, range(1), 3)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(seed, spawn_key=(stream, 0, 0, 0))


def test_stream_uniforms_are_numpys_random_under_the_keyed_reference():
    seed, columns = 2**32 + 5, range(1, 3)
    uniforms = stream_uniforms(seed, 3, 4, columns, 11)
    assert uniforms.shape == (4, 2, 11)
    for row in range(4):
        for index, column in enumerate(columns):
            assert uniforms[row, index].tobytes() == _stream(seed, 3, 0, row, column).random(11).tobytes()


def test_streams_are_order_and_thread_independent():
    # sample_base against the per-key reference _draw(law, _stream(...), n)
    points = [
        (2, 1, 0.5, 0, 0),  # smallest n, k = 1, m = 1
        (3, 1, 2.0, 77, 1),  # odd n leaves a cached half word in the generator
        (4, 2, 0.5, 77, 1),
        (5, 3, 0.1, 2**64 - 1, MAX_REPLICAS + 2),
    ]
    for law in EntryLaw:
        for n, k, c, seed, replica in points:
            params = make_params(n, k, c, entry_law=law, seed=seed)
            sample = sample_base(params, replica)
            keys = [(alpha, level) for alpha in range(params.sample_count) for level in range(k)]

            rebuilt = np.empty_like(np.asarray(sample.entries))
            for alpha, level in reversed(keys):
                vec = _draw(params.entry_law, _stream(seed, replica, alpha, level), n)
                assert vec.dtype == sample.entries.dtype
                rebuilt[alpha, level] = vec
            assert rebuilt.tobytes() == sample.entries.tobytes(), (law, n, k)

            def one(key):
                alpha, level = key
                return key, _draw(params.entry_law, _stream(seed, replica, alpha, level), n)

            with ThreadPoolExecutor(max_workers=8) as pool:
                for (alpha, level), vec in pool.map(one, keys):
                    assert vec.tobytes() == sample.entries[alpha, level].tobytes()


def _record_philox_calls(monkeypatch) -> list:
    """Patch the one Philox pass to record the (keys, blocks) of each call."""
    calls = []

    def recording(keys, blocks):
        calls.append((keys.copy(), blocks))
        return _philox_words(keys, blocks)

    monkeypatch.setattr(tensormp.sampling, "_philox_words", recording)
    return calls


# (law, seed, m, k, n) grids of several tiles each; the Rademacher n is odd
_TILED_GRIDS = [
    ("complex_gaussian", 0, 60, 2, 300),
    ("real_gaussian", 1, 50, 3, 400),
    ("rademacher", 2, 40, 3, 1001),
    ("unit_circle", 3, 45, 1, 1000),
]


@pytest.mark.parametrize("law, seed, m, k, n", _TILED_GRIDS)
def test_a_grid_of_several_tiles_is_the_per_key_generator_bitwise(monkeypatch, law, seed, m, k, n):
    calls = _record_philox_calls(monkeypatch)
    law = EntryLaw(law)
    entries = _transform(law, _raw_draws(law, _philox_keys(seed, (7,), m, range(k)), n))
    assert entries.shape == (m, k, n)
    for alpha in range(m):
        for level in range(k):
            expected = _draw(law, _stream(seed, 7, alpha, level), n)
            assert entries[alpha, level].tobytes() == expected.tobytes(), (alpha, level)
    assert sum(blocks == calls[0][1] for _, blocks in calls) >= 2


def test_short_keys_of_different_tiles_are_redrawn_together(monkeypatch):
    # the complex Gaussian grid of _TILED_GRIDS: keys 13 and 64 run short, in tiles 0 and 1
    calls = _record_philox_calls(monkeypatch)
    keys = _philox_keys(0, (7,), 60, range(2)).reshape(-1, 2)
    _raw_draws(EntryLaw.COMPLEX_GAUSSIAN, keys.reshape(60, 2, 2), 300)
    blocks, tile = calls[0][1], len(calls[0][0])
    retries = [(call_keys, b) for call_keys, b in calls if b != blocks]
    assert tile == 52 and [b for _, b in retries] == [2 * blocks]
    assert np.array_equal(retries[0][0], keys[[13, 64]])


@pytest.mark.parametrize("law", [law.value for law in EntryLaw])
def test_every_philox_call_reads_at_most_a_tile_of_words(monkeypatch, law):
    # a call may exceed the tile only with one sample's keys, when that sample alone is larger
    calls = _record_philox_calls(monkeypatch)
    law = EntryLaw(law)
    for m, k, n in ((300, 2, 64), (40, 3, 700), (2, 3, 12000)):
        calls.clear()
        _raw_draws(law, _philox_keys(4, (7,), m, range(k)), n)
        first = calls[0][1]
        assert all(len(keys) % k == 0 for keys, blocks in calls if blocks == first)
        assert all(len(keys) * 4 * blocks <= _CHUNK_WORDS or len(keys) <= k for keys, blocks in calls)
        assert (len(calls[0][0]) == k) == (n == 12000)  # only a sample of 12000 entries outgrows a tile
    calls.clear()
    sample_base(make_params(50, 2, 0.5, entry_law=law), 0)
    assert len(calls) > 1 and all(len(keys) * 4 * blocks <= _CHUNK_WORDS for keys, blocks in calls)


def test_a_deep_fold_unit_circle_replica_reads_its_words_in_one_call(monkeypatch):
    # 205 samples of 4 levels, 8 words each: 6560 words, one tile
    calls = _record_philox_calls(monkeypatch)
    params = make_params(8, 4, 0.05, entry_law="unit_circle")
    for replica in range(3):
        sample_base(params, replica)
    assert [(len(keys), blocks) for keys, blocks in calls] == [(820, 2)] * 3


def test_concurrent_sample_base_calls_match_serial():
    # each call re-keys its own generator; a shared one would mix streams
    params = make_params(10, 2, 0.5, entry_law="rademacher", seed=5)
    serial = [sample_base(params, replica).entries.tobytes() for replica in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda replica: sample_base(params, replica).entries.tobytes(), range(16)))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_unit_circle_transform_is_the_sin_cos_sum_bitwise():
    # the angles of both sampling paths are 2 pi u with u >= 0; the edges, and a random spread
    rng = np.random.Generator(np.random.Philox(8))
    u = np.concatenate([[0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53], rng.random(4096)])
    theta = u * (2.0 * np.pi)
    expected = np.multiply(1j, np.sin(theta)) + np.cos(theta)
    law = make_params(2, 1, 0.5, entry_law="unit_circle").entry_law
    assert _transform(law, u.copy()).tobytes() == expected.tobytes()


def test_unit_circle_support():
    params = make_params(2, 1, 0.5, entry_law="unit_circle", seed=5)
    sample = sample_base(params, 0)
    assert sample.entries.shape == (1, 1, 2)
    assert np.all(np.abs(np.abs(sample.entries) - 1.0) < 1e-15)


def test_level_norms_unit_modulus_exact():
    for law in ("rademacher", "unit_circle"):
        params = make_params(6, 4, 4 / 6**4, entry_law=law, seed=1)
        sample = sample_base(params, 0)
        sq = sample.level_norms
        assert sq.shape == (params.sample_count, params.k) and not sq.flags.writeable
        if law == "rademacher":
            assert np.all(sq == params.n)  # a sum of n ones
        else:  # cos^2 + sin^2 rounds: a few ulps of n
            assert np.all(np.abs(sq - params.n) <= 4 * np.finfo(float).eps * params.n)


def test_level_norms_single_level_and_hand_case():
    params = make_params(5, 1, 0.4, seed=3)
    sample = sample_base(params, 0)
    sq = sample.level_norms
    assert np.allclose(sq[:, 0], np.linalg.norm(sample.entries[:, 0], axis=1) ** 2, rtol=1e-14, atol=0.0)

    sample = forged_sample([[[1.0, 1.0], [1.0, -1.0]]])
    sq = sample.level_norms
    assert np.array_equal(sq, [[2.0, 2.0]]) and np.prod(sq) == 4.0


def test_degenerate_sample_error_names_indices():
    entries = np.ones((2, 2, 2), dtype=complex)
    entries[1, 0] = 0.0
    with pytest.raises(ValueError, match=r"^degenerate sample: zero norm at sample 1, level 0$"):
        forged_sample(entries).level_norms


def test_norm_moment_check_trial_floor():
    with pytest.raises(ValueError):
        norm_moment_check(make_params(4, 2, 0.5), 999)


def test_norm_moment_check_unit_modulus_is_deterministic():
    report = norm_moment_check(make_params(6, 3, 0.1, entry_law="rademacher"), 2000)
    assert report.sq_mean == 1.0
    assert report.sq_se == 0.0
    assert report.quartic_mean == 1.0
    assert all(band.passed for band in report.bands)

    report = norm_moment_check(make_params(6, 3, 0.1, entry_law="unit_circle"), 2000)
    assert abs(report.sq_mean - 1.0) <= 1e-12
    assert report.sq_se <= 1e-12
    assert all(band.passed for band in report.bands)


def test_norm_moment_check_complex_gaussian():
    report = norm_moment_check(make_params(10, 3, 0.01, seed=0), 10_000)
    assert report.quartic_target == pytest.approx(1.331, abs=1e-12)
    assert abs(report.quartic_mean - report.quartic_target) <= 4.0 * report.quartic_se
    assert all(band.passed for band in report.bands)


@pytest.mark.parametrize("law", [law.value for law in EntryLaw])
def test_norm_moment_check_draws_the_keyed_reference(law):
    # trial t's level l is numpy's draw under the spawn key (0x4D43, 0, t, l)
    params = make_params(3, 2, 0.5, entry_law=law, seed=2**32 + 5)
    report = norm_moment_check(params, 1000)
    law, seed = params.entry_law, params.seed
    e = np.array([[_draw(law, _stream(seed, 0x4D43, 0, t, level), 3) for level in range(2)] for t in range(1000)])
    x = np.prod(np.einsum("tlj,tlj->tl", e, e.conj()).real / 3, axis=1)
    assert report.sq_mean == float(np.mean(x)) and report.quartic_mean == float(np.mean(x * x))


def test_norm_moment_check_real_gaussian_quartic():
    # raw fourth-moment target n^2 (1 + (m4-1)/n) = 16 * 1.5 = 24 at n=4, k=1
    report = norm_moment_check(make_params(4, 1, 0.5, entry_law="real_gaussian"), 5000)
    assert 16.0 * report.quartic_target == 24.0
    assert all(band.passed for band in report.bands)


def _imported_modules(tmp_path, *argv) -> set[str]:
    """The modules a fresh ``python -m tensormp ...`` in tmp_path imports."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error", "-X", "importtime", "-m", "tensormp", *argv]
    proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("law", [law.value for law in EntryLaw])
def test_no_sweep_imports_numpy_random(tmp_path, law):
    # every law runs Philox in array arithmetic, the Gaussian laws numpy's ziggurat over its words
    plan = {"ns": [5], "c": 0.1, "k_schedule": {"kind": "fixed", "k": 3}, "entry_law": law, "replicas": 2, "seed": 3}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    imported = _imported_modules(tmp_path, "sweep", "--config", "plan.json")
    assert (tmp_path / "sweep.csv").is_file()
    assert "tensormp.sampling" in imported
    assert "numpy.random" not in imported
    assert "logging" not in imported


def test_selftest_does_not_import_numpy_random(tmp_path):
    # its Monte Carlo rows draw keyed grids through the sweeps' Philox
    imported = _imported_modules(tmp_path, "selftest", "--seed", "3")
    assert (tmp_path / "selftest.csv").is_file()
    assert "tensormp.sampling" in imported
    assert "numpy.random" not in imported
    assert "logging" not in imported


@pytest.mark.parametrize("law", ["real_gaussian", "complex_gaussian"])
def test_simulate_does_not_import_numpy_random(tmp_path, law):
    (tmp_path / "point.json").write_text(json.dumps(params_to_json(make_params(6, 2, 0.5, entry_law=law, seed=2))))
    imported = _imported_modules(tmp_path, "simulate", "--config", "point.json")
    assert (tmp_path / "eigenvalues.csv").is_file()
    assert "tensormp.sampling" in imported
    assert "numpy.random" not in imported
    assert "logging" not in imported


def test_ziggurat_tables_hold_numpys_known_entries():
    assert KI.shape == WI.shape == FI.shape == (256,)
    assert KI.dtype == np.uint64 and WI.dtype == FI.dtype == np.float64
    assert int(KI[0]) == 0x000EF33D8025EF6A and int(KI[1]) == 0
    assert float(WI[0]).hex() == "0x1.f493b7815d979p-51"
    assert float(FI[255]).hex() == "0x1.4a605b6b9f70fp-10" and FI[0] == 1.0
    assert R.hex() == "0x1.d3bb48209ad33p+1" and NEG_INV_R == -1.0 / R


def test_ziggurat_tables_are_the_installed_numpys(tmp_path):
    # the extraction written out in tensormp._ziggurat, run on the installed numpy
    library = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not library.is_file() or not all(shutil.which(tool) for tool in ("ar", "nm", "objcopy")):
        pytest.skip("needs numpy's static random library and binutils")
    member = "src_distributions_distributions.c.o"
    subprocess.run(["ar", "x", str(library), member], cwd=tmp_path, check=True, timeout=60)
    symbols = subprocess.run(["nm", "-S", member], cwd=tmp_path, check=True, capture_output=True, text=True, timeout=60)
    found = {}
    for line in symbols.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[3] in ("ki_double", "wi_double", "fi_double"):
            found[fields[3]] = (int(fields[0], 16), int(fields[1], 16))
    for section in (".rodata", ".rodata.cst8"):
        command = ["objcopy", "-O", "binary", f"--only-section={section}", member, f"{section}.bin"]
        subprocess.run(command, cwd=tmp_path, check=True, timeout=60)
    rodata = (tmp_path / ".rodata.bin").read_bytes()
    for name, table in (("ki_double", KI), ("wi_double", WI), ("fi_double", FI)):
        offset, size = found[name]
        assert size == 0x800 and rodata[offset : offset + size] == table.tobytes(), name
    doubles = np.frombuffer((tmp_path / ".rodata.cst8.bin").read_bytes(), dtype="<f8").tolist()
    assert R in doubles and NEG_INV_R in doubles


def test_wedge_test_decides_close_calls_with_libm():
    # rows of a rejected first word of each layer and its uniform, with x within a few ulps of
    # where exp(-x^2/2) meets the threshold, where np.exp and libm's exp, which numpy's C calls,
    # disagree on some decisions
    uniforms = _philox_words(_philox_keys(5, (0,), 64, range(1)), 8).reshape(-1)
    layers = (uniforms & np.uint64(0xFF)).astype(np.intp) % 255 + 1
    thresholds = (FI[layers - 1] - FI[layers]) * ((uniforms >> np.uint64(11)) * 2.0**-53) + FI[layers]
    at = np.sqrt(-2.0 * np.log(thresholds))
    xs = (at[:, None] + np.arange(-6, 7) * np.spacing(at)[:, None]).reshape(-1)
    layers, uniforms, thresholds = (np.repeat(a, 13) for a in (layers, uniforms, thresholds))
    libm = np.array([t < math.exp(-0.5 * x * x) for t, x in zip(thresholds.tolist(), xs.tolist())])
    assert np.any((thresholds < np.exp(-0.5 * xs * xs)) != libm)

    words = np.stack([layers.astype(np.uint64), uniforms], axis=1)
    x = np.stack([xs, np.zeros_like(xs)], axis=1)
    keep = np.stack([np.zeros(xs.size, dtype=bool), np.ones(xs.size, dtype=bool)], axis=1)
    _resolve_in_order(words, x, keep)
    assert np.array_equal(keep[:, 0], libm) and not keep[:, 1].any()
    assert np.array_equal(x[:, 0], xs)


def test_gaussian_sampling_exercises_every_ziggurat_event():
    # 2500 keys of 80 normals: the fast path, wedges kept and rejected, tails, keys whose
    # draws need words past their first allocation, and chunk edges, all bitwise numpy's
    n, k, m, seed, replica = 80, 2, 1250, 9, 2**32 + 7
    params = make_params(n, k, m / n**k, entry_law="real_gaussian", seed=seed)
    assert params.sample_count == m
    entries = sample_base(params, replica).entries
    words = _philox_words(_philox_keys(seed, (replica,), m, range(k)), 32)
    events = Counter()
    for alpha in range(m):
        for level in range(k):
            values, tally = ziggurat_normals(words[alpha, level], n)
            assert entries[alpha, level].tobytes() == values.tobytes(), (alpha, level)
            events += tally
    for alpha, level in ((0, 0), (m // 2, 1), (m - 1, 1)):
        assert entries[alpha, level].tobytes() == _draw(params.entry_law, _stream(seed, replica, alpha, level), n).tobytes()
    assert m * k * n >= 2 * 10**5
    assert events["tail"] >= 20 and events["wedge"] >= 1000 and events["wedge_rejected"] >= 100


def test_pinned_gaussian_examples_hit_each_event():
    # the @examples of test_ziggurat_gaussian_laws_equal_the_per_key_generator, replica 2**32 + 7
    def tallies(law, seed, m, k, n):
        keys = _philox_keys(seed, (2**32 + 7,), m, range(k)).reshape(-1, 2)
        return [ziggurat_normals(_philox_words(key, 16), n if law == "real_gaussian" else 2 * n)[1] for key in keys]

    for law in ("real_gaussian", "complex_gaussian"):
        assert any(t["tail"] for t in tallies(law, 2**33 + 9, 3, 2, 5))
        assert any(t["wedge_rejected"] for t in tallies(law, 2**33, 4, 1, 3))
    # 3 or 4 draws get two blocks of words first: 8 words
    assert any(t["words"] > 8 for t in tallies("real_gaussian", 2**33 + 11119, 2, 1, 3))
    assert any(t["words"] > 8 for t in tallies("complex_gaussian", 2**33 + 11119, 2, 1, 2))


@pytest.mark.parametrize("seed, column, event", [(1, 13060, "wedge_at_end"), (13, 216, "tail_past_end")])
def test_the_walker_stops_at_the_end_of_a_row(monkeypatch, seed, column, event):
    # the key (7, 0, 0, column) needs more words than it first gets: the last of them is a
    # wedge's first word, or the tail reads past them; the next row's words must stay its own
    calls = _record_philox_calls(monkeypatch)
    law, n = EntryLaw.REAL_GAUSSIAN, 300
    entries = stream_entries(law, seed, 7, 3, range(column, column + 1), n)
    keys, blocks = calls[0]
    assert len(keys) == 3 and [len(redrawn) for redrawn, _ in calls[1:]] == [1]  # row 0 alone ran short
    assert ziggurat_normals(_philox_words(keys[0], 2 * blocks), n, 4 * blocks)[1][event] == 1
    for row in range(3):
        assert entries[row, 0].tobytes() == _draw(law, _stream(seed, 7, 0, row, column), n).tobytes(), row
