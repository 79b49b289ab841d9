"""Configuration layer: derived dimensions, tau schemes, entry-law moments."""

import copy
import math
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest

import tensormp.config
from tensormp.config import (
    MAX_REPLICAS,
    MAX_SAMPLE_COUNT,
    EntryLaw,
    ModelKind,
    TauScheme,
    ambient_dim,
    make_params,
    make_tau,
    params_from_json,
    params_to_json,
    sample_count,
    sweep_plan_from_json,
    tau_to_json,
)
from tensormp.sampling import _philox_keys, _raw_draws, _transform


def test_validate_small_grid():
    params = make_params(3, 4, 0.5)
    assert params.ambient_dim == 81
    assert params.sample_count == 41  # round-half-up of 40.5
    assert params.outside_regime  # k/n = 4/3 is far from the thin-fold regime

    params = make_params(30, 2, 0.5)
    assert params.ambient_dim == 900
    assert params.sample_count == 450
    assert params.fold_ratio == pytest.approx(0.0667, abs=5e-5)
    assert not params.outside_regime


def test_ambient_dim_overflow():
    assert ambient_dim(2, 53) == 2**53  # the cap itself is allowed
    with pytest.raises(ValueError, match="2\\^53"):
        ambient_dim(2, 60)
    with pytest.raises(ValueError):
        make_params(2, 60, 1.0)


def test_a_huge_fold_is_rejected_before_its_power_is_taken():
    # n >= 2 makes n^k >= 2^k, so k = 54 is the first fold rejected whatever n is; 3^(10^7)
    # in full took about 2.4 s, and the cost grows faster than linearly in k
    with pytest.raises(ValueError, match="2\\^54 exceeds 2\\^53"):
        ambient_dim(2, 54)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="3\\^10000000 exceeds 2\\^53"):
        params_from_json({"n": 3, "k": 10**7, "c": 0.5})
    assert time.perf_counter() - start < 1.0


def test_degenerate_counts_rejected():
    with pytest.raises(ValueError, match="rounds to zero"):
        make_params(10, 1, 0.01)
    with pytest.raises(ValueError):
        make_params(10, 1, -0.5)
    with pytest.raises(ValueError):
        make_params(1, 2, 0.5)


def test_regime_warning_flag():
    assert make_params(2, 2, 0.5).outside_regime  # k/n = 1 > 0.5, warning not error
    assert not make_params(4, 2, 0.5).outside_regime  # k/n = 0.5 is the boundary


def test_validate_is_pure():
    params = make_params(5, 2, 0.4, seed=9)
    assert params == make_params(5, 2, 0.4, seed=9)
    derived = (params.ambient_dim, params.sample_count, params.fold_ratio, params.outside_regime)
    assert derived == (25, 10, 0.4, False)
    assert replace(params, seed=10).sample_count == 10
    with pytest.raises(ValueError, match="tau scheme has length"):
        replace(params, c=0.8)  # replace re-runs the construction checks


def test_seed_and_replica_bounds():
    with pytest.raises(ValueError):
        make_params(4, 2, 0.5, seed=2**64)
    with pytest.raises(ValueError):
        make_params(4, 2, 0.5, replicas=0)
    make_params(4, 2, 0.5, seed=2**64 - 1)
    # sphere replica r draws as replica 2^20 + r, so no point may reach it
    with pytest.raises(ValueError, match=r"at most 2\^20 = 1048576, got 1048577"):
        make_params(4, 2, 0.5, replicas=2**20 + 1)
    assert make_params(4, 2, 0.5, replicas=2**20).replicas == MAX_REPLICAS == 2**20
    # the fields a run indexes with must be integers, whatever their value
    with pytest.raises(ValueError, match=r"ModelParams field 'n' must be an integer, got 6\.5"):
        make_params(6.5, 2, 0.5)
    with pytest.raises(ValueError, match=r"ModelParams field 'k' must be an integer, got 2\.0"):
        make_params(4, 2.0, 0.5)
    with pytest.raises(ValueError, match=r"ModelParams field 'seed' must be an integer, got 1\.5"):
        make_params(4, 2, 0.5, seed=1.5)
    with pytest.raises(ValueError, match=r"ModelParams field 'replicas' must be an integer, got 2\.5"):
        make_params(4, 2, 0.5, replicas=2.5)
    with pytest.raises(ValueError, match=r"ModelParams field 'seed' must be an integer, got True"):
        make_params(4, 2, 0.5, seed=True)
    assert make_params(4, np.int64(2), 0.5, seed=np.uint64(7)).seed == 7


def test_model_params_holds_an_entry_law_member():
    assert make_params(4, 2, 0.5, entry_law="rademacher").entry_law is EntryLaw.RADEMACHER
    # a plain string would miss every identity dispatch on the law
    with pytest.raises(ValueError, match=r"ModelParams field 'entry_law' must be an EntryLaw, got 'rademacher'"):
        replace(make_params(4, 2, 0.5), entry_law="rademacher")


def test_model_params_holds_a_model_kind_member():
    assert make_params(4, 2, 0.5, model="covariance").model is ModelKind.COVARIANCE
    # a plain string would equal the member, hash like it, and miss every identity dispatch on the model
    with pytest.raises(ValueError, match=r"ModelParams field 'model' must be a ModelKind, got 'correlation'"):
        replace(make_params(4, 2, 0.5), model="correlation")


def test_model_params_holds_a_tau_scheme():
    # a bare tuple of the right length would pass the length check and fail later, in params_to_json
    with pytest.raises(ValueError, match=r"ModelParams field 'tau' must be a TauScheme, got \(1\.0,"):
        replace(make_params(6, 2, 0.5), tau=(1.0,) * 18)


def test_tau_schemes_compare_by_their_weights_and_keep_their_triple():
    flat = {"kind": "two_point", "a": 1.0, "b": 1.0, "weight": 0.5}
    assert make_params(4, 1, 0.75, tau=flat) == make_params(4, 1, 0.75)
    assert hash(make_params(4, 1, 0.75, tau=flat)) == hash(make_params(4, 1, 0.75))
    assert params_to_json(make_params(4, 1, 0.75, tau=flat))["tau"] == flat
    low, high = (_two_point(1.0, 2.0, weight, 10) for weight in (0.5, 0.55))
    assert low == high and low.two_point != high.two_point
    assert tau_to_json(high) == {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.55}


def test_constant_tau_is_exact_ones():
    tau = make_tau("constant_one", 5)
    assert tau.values.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]
    for q in range(1, 21):
        assert np.mean(tau.values**q) == 1.0


def _two_point(a, b, weight, m):
    return make_tau({"kind": "two_point", "a": a, "b": b, "weight": weight}, m)


def test_two_point_fill_is_deterministic():
    assert _two_point(1, 2, 0.5, 4).values.tolist() == [1.0, 1.0, 2.0, 2.0]
    assert _two_point(1, 2, 0.5, 5).values.tolist() == [1.0, 1.0, 2.0, 2.0, 2.0]
    assert np.mean(_two_point(1, 2, 0.5, 2).values ** 3) == 4.5
    assert _two_point(1, 2, 0.5, 5).two_point == (1.0, 2.0, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_two_point_rejects_a_non_finite_value_even_with_an_empty_share(bad):
    # floor(0.2 * 4) = 0 weights take a: no weight holds it, but params_to_json would write it
    for a, b in ((bad, 2.0), (1.0, bad)):
        with pytest.raises(ValueError, match="two-point values must be positive and finite"):
            make_params(4, 1, 0.75, tau={"kind": "two_point", "a": a, "b": b, "weight": 0.2})


def test_explicit_tau_moment():
    tau = make_tau({"kind": "explicit", "values": [1, 1, 4]}, 3)
    assert tau.values.tolist() == [1.0, 1.0, 4.0]
    assert np.mean(tau.values**2) == 6.0


def test_tau_validation_errors():
    with pytest.raises(ValueError, match="two-point values must be positive"):
        _two_point(-1, 2, 0.5, 4)
    with pytest.raises(ValueError, match="two-point values must be positive"):
        _two_point(1, 0, 0.5, 4)
    with pytest.raises(ValueError, match=r"two-point weight must lie in \(0, 1\)"):
        _two_point(1, 2, 1.0, 4)
    with pytest.raises(ValueError, match="positive and finite"):
        make_tau({"kind": "explicit", "values": [1, 0, 2]}, 3)
    with pytest.raises(ValueError, match="tau must be a JSON object"):
        make_tau(make_tau("constant_one", 3), 3)  # a built scheme is not a tau document
    with pytest.raises(ValueError):
        make_tau({"kind": "explicit", "values": [1, 2]}, 3)
    with pytest.raises(ValueError):
        make_tau("constant_one", 0)


def test_entry_law_table():
    table = {
        EntryLaw.COMPLEX_GAUSSIAN: (2.0, False),
        EntryLaw.REAL_GAUSSIAN: (3.0, False),
        EntryLaw.RADEMACHER: (1.0, True),
        EntryLaw.UNIT_CIRCLE: (1.0, True),
    }
    for kind, (m4, unit) in table.items():
        law = EntryLaw(kind)
        assert law.m4 == m4
        assert law.unit_modulus is unit


@pytest.mark.parametrize("law", list(EntryLaw))
def test_a_real_valued_law_draws_float64_entries(law):
    # a sweep sizes its one Gram buffer by this flag: 8 bytes per Gram entry, or 16
    entries = _transform(law, _raw_draws(law, _philox_keys(5, (0,), 3, range(2)), 4))
    assert entries.dtype == (np.float64 if law.real_valued else np.complex128)


@pytest.mark.parametrize("kind", list(EntryLaw))
def test_entry_law_monte_carlo_moments(kind):
    # the package's keyed draws: 1000 keys (99, row, 0) under seed 123, 1000 draws each
    trials = 1_000_000
    law = EntryLaw(kind)
    draws = _transform(law, _raw_draws(law, _philox_keys(123, (99,), 1000, range(1)), 1000)).reshape(-1)
    assert draws.size == trials
    se_mean = max(float(np.std(draws.real, ddof=1)), float(np.std(draws.imag, ddof=1)))
    se_mean /= np.sqrt(trials)
    assert abs(np.mean(draws)) <= 4.0 * se_mean + 1e-12
    sq = np.abs(draws) ** 2
    se_sq = float(np.std(sq, ddof=1)) / np.sqrt(trials)
    assert abs(float(np.mean(sq)) - 1.0) <= 4.0 * se_sq + 1e-12


def test_json_round_trip():
    params = make_params(
        6,
        2,
        0.5,
        model="covariance",
        entry_law="rademacher",
        tau={"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5},
        seed=42,
        replicas=3,
    )
    doc = params_to_json(params)
    assert doc["model"] == "covariance"
    assert doc["entry_law"] == "rademacher"
    assert doc["tau"] == {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}
    assert params_from_json(doc) == params


def test_json_defaults_and_explicit_tau():
    params = params_from_json({"n": 4, "k": 1, "c": 0.75})
    assert params.model is ModelKind.CORRELATION
    assert params.entry_law is EntryLaw.COMPLEX_GAUSSIAN
    assert params_to_json(params)["tau"] == {"kind": "constant_one"}
    assert params.seed == 0 and params.replicas == 1

    # a scheme is its weights: explicit ones are constant_one, and are written so
    ones = make_params(4, 1, 0.75, tau={"kind": "explicit", "values": [1, 1.0, 1]})
    assert ones == params and params_to_json(ones)["tau"] == {"kind": "constant_one"}

    doc = params_to_json(make_params(4, 1, 0.75, tau={"kind": "explicit", "values": [1, 2, 3]}))
    assert doc["tau"] == {"kind": "explicit", "values": [1.0, 2.0, 3.0]}
    assert params_from_json(doc).tau.values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "tau",
    ["constant_one", {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}, {"kind": "explicit", "values": [1, 2, 3]}],
)
def test_tau_values_are_one_read_only_float64_array(tau):
    values = make_tau(tau, 3).values
    assert isinstance(values, np.ndarray) and values.dtype == np.float64 and values.shape == (3,)
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 5.0
    params = make_params(3, 1, 1.0, tau=tau)
    assert params_from_json(params_to_json(params)) == params
    for copied in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
        assert copied == params and copied.tau.two_point == params.tau.two_point
        assert not copied.tau.values.flags.writeable
    assert tau_to_json(params.tau) == tau_to_json(make_tau(tau_to_json(params.tau), 3))


def test_a_scheme_holds_a_copy_of_the_weights_it_is_given():
    weights = np.array([1.0, 2.0])
    tau = TauScheme(weights)
    weights[0] = 7.0
    assert tau.values.tolist() == [1.0, 2.0] and weights.flags.writeable
    for bad in ([], [[1.0, 2.0]], [1.0, math.nan], [1.0, 0.0]):
        with pytest.raises(ValueError, match="tau"):
            TauScheme(bad)


def test_explicit_ones_equal_and_hash_like_constant_one():
    ones, constant = make_tau({"kind": "explicit", "values": [1, 1.0, 1]}, 3), make_tau("constant_one", 3)
    assert ones == constant and hash(ones) == hash(constant)
    assert ones != make_tau({"kind": "explicit", "values": [1, 1, 2]}, 3)
    assert ones != make_tau("constant_one", 4) and ones != (1.0, 1.0, 1.0)
    assert len({ones, constant}) == 1


def test_sample_count_bound():
    assert sample_count(1.0, MAX_SAMPLE_COUNT) == MAX_SAMPLE_COUNT == 2**13
    with pytest.raises(ValueError, match=r"sample count m = 8193 exceeds the desk-scale bound 2\^13 = 8192"):
        sample_count(1.0, MAX_SAMPLE_COUNT + 1)
    assert len(make_params(2, 13, 1.0).tau) == MAX_SAMPLE_COUNT


def test_a_point_past_the_bound_builds_no_tau(monkeypatch):
    monkeypatch.setattr(tensormp.config, "make_tau", lambda *args: pytest.fail("make_tau ran"))
    with pytest.raises(ValueError, match=r"sample count m = 16777216 exceeds the desk-scale bound 2\^13 = 8192"):
        params_from_json({"n": 2, "k": 25, "c": 0.5})
    with pytest.raises(ValueError, match="desk-scale bound"):
        sweep_plan_from_json({"ns": [2], "c": 0.5, "k_schedule": {"kind": "fixed", "k": 25}})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 6, "k": 2, "c": 0.5, "entrylaw": "rademacher"}, r"point config has unknown key\(s\) 'entrylaw'"),
        ({"k": 2, "c": 0.5}, r"point config lacks the required key\(s\) 'n'"),
        ({"n": 6, "k": 2}, r"lacks the required key\(s\) 'c'"),
        ("n=6", "point config must be a JSON object"),
    ],
)
def test_point_config_rejects_unknown_and_missing_keys(doc, message):
    with pytest.raises(ValueError, match=message):
        params_from_json(doc)


@pytest.mark.parametrize(
    "tau, message",
    [
        ({"kind": "two_point", "a": 1.0, "b": 2.0}, r"two_point tau lacks the required key\(s\) 'weight'"),
        ("two_point", r"two_point tau lacks the required key\(s\) 'a', 'b', 'weight'"),
        ({"kind": "explicit"}, r"explicit tau lacks the required key\(s\) 'values'"),
        ({"a": 1.0}, r"tau lacks the required key\(s\) 'kind'"),
        ({"kind": "two_point", "a": 1.0, "b": 2.0, "wieght": 0.5}, r"tau has unknown key\(s\) 'wieght'"),
        ({"kind": "constant_one", "values": [1.0]}, r"constant_one tau has unknown key\(s\) 'values'"),
        ({"kind": "explicit", "values": [1.0, 2.0], "a": 1.0}, r"explicit tau has unknown key\(s\) 'a'"),
    ],
)
def test_tau_dicts_reject_unknown_and_missing_keys(tau, message):
    with pytest.raises(ValueError, match=message):
        make_tau(tau, 2)
    with pytest.raises(ValueError, match=message):
        params_from_json({"n": 2, "k": 1, "c": 1.0, "tau": tau})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": [6], "k": 2, "c": 0.5}, r"point config key 'n' must be an integer, got \[6\]"),
        ({"n": 6, "k": 2.5, "c": 0.5}, r"point config key 'k' must be an integer, got 2\.5"),
        ({"n": 6, "k": 2, "c": "0.5"}, r"point config key 'c' must be a number, got '0\.5'"),
        ({"n": 6, "k": 2, "c": 0.5, "seed": True}, r"point config key 'seed' must be an integer, got True"),
        ({"n": 6, "k": 2, "c": 0.5, "replicas": None}, r"point config key 'replicas' must be an integer, got None"),
    ],
)
def test_point_config_rejects_a_value_of_the_wrong_type(doc, message):
    with pytest.raises(ValueError, match=message):
        params_from_json(doc)


TAU_KINDS = r"tau key 'kind' must be one of 'constant_one', 'two_point', 'explicit'"


@pytest.mark.parametrize(
    "tau, message",
    [
        ({"kind": "explicit", "values": 3}, r"explicit tau key 'values' must be a list of numbers, got 3"),
        ({"kind": "explicit", "values": [1.0, "2"]}, r"explicit tau key 'values' must be a list of numbers"),
        ({"kind": "two_point", "a": "1", "b": 2.0, "weight": 0.5}, r"two_point tau key 'a' must be a number, got '1'"),
        ({"kind": "two_point", "a": 1.0, "b": 2.0, "weight": [0.5]}, r"two_point tau key 'weight' must be a number"),
        # a list or an object as the kind is unhashable: it must not reach a dict lookup
        ({"kind": ["x"]}, rf"{TAU_KINDS}, got \['x'\]"),
        ({"kind": {"a": 1}}, rf"{TAU_KINDS}, got {{'a': 1}}"),
        ({"kind": 3}, rf"{TAU_KINDS}, got 3"),
        ({"kind": "bogus"}, rf"{TAU_KINDS}, got 'bogus'"),
        ("bogus", rf"{TAU_KINDS}, got 'bogus'"),
    ],
)
def test_tau_dicts_reject_a_value_of_the_wrong_type(tau, message):
    with pytest.raises(ValueError, match=message):
        make_tau(tau, 2)
    with pytest.raises(ValueError, match=message):
        params_from_json({"n": 2, "k": 1, "c": 1.0, "tau": tau})


def test_integral_floats_still_read_as_integers():
    assert params_from_json({"n": 6.0, "k": 2, "c": 1, "seed": 3.0}) == make_params(6, 2, 1.0, seed=3)
