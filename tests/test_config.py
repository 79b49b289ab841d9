"""Configuration layer: derived dimensions, tau schemes, entry-law moments."""

from dataclasses import replace

import numpy as np
import pytest

from tensormp.config import (
    EntryLawKind,
    ModelKind,
    TauKind,
    ambient_dim,
    constant_tau,
    entry_law,
    explicit_tau,
    make_params,
    make_tau,
    params_from_json,
    params_to_json,
    two_point_tau,
)
from tensormp.sampling import _draw, _stream


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


def test_constant_tau_is_exact_ones():
    tau = constant_tau(5)
    assert tau.values == (1.0, 1.0, 1.0, 1.0, 1.0)
    for q in range(1, 21):
        assert np.mean(tau.as_array() ** q) == 1.0


def test_two_point_fill_is_deterministic():
    assert two_point_tau(1, 2, 0.5, 4).values == (1.0, 1.0, 2.0, 2.0)
    assert two_point_tau(1, 2, 0.5, 5).values == (1.0, 1.0, 2.0, 2.0, 2.0)
    assert np.mean(two_point_tau(1, 2, 0.5, 2).as_array() ** 3) == 4.5


def test_explicit_tau_moment():
    tau = explicit_tau([1, 1, 4])
    assert tau.values == (1.0, 1.0, 4.0)
    assert np.mean(tau.as_array() ** 2) == 6.0


def test_tau_validation_errors():
    with pytest.raises(ValueError):
        two_point_tau(-1, 2, 0.5, 4)
    with pytest.raises(ValueError):
        two_point_tau(1, 0, 0.5, 4)
    with pytest.raises(ValueError):
        two_point_tau(1, 2, 1.0, 4)
    with pytest.raises(ValueError):
        explicit_tau([1, 0, 2])
    with pytest.raises(ValueError):
        make_tau({"kind": "explicit", "values": [1, 2]}, 3)
    with pytest.raises(ValueError):
        make_tau("constant_one", 0)


def test_entry_law_table():
    table = {
        EntryLawKind.COMPLEX_GAUSSIAN: (2.0, False),
        EntryLawKind.REAL_GAUSSIAN: (3.0, False),
        EntryLawKind.RADEMACHER: (1.0, True),
        EntryLawKind.UNIT_CIRCLE: (1.0, True),
    }
    for kind, (m4, unit) in table.items():
        law = entry_law(kind)
        assert law.m4 == m4
        assert law.unit_modulus is unit


@pytest.mark.parametrize("kind", list(EntryLawKind))
def test_entry_law_monte_carlo_moments(kind):
    trials = 1_000_000
    draws = _draw(entry_law(kind), _stream(123, 99), trials)
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
        entry_law_kind="rademacher",
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
    assert params.entry_law.kind is EntryLawKind.COMPLEX_GAUSSIAN
    assert params.tau.kind is TauKind.CONSTANT_ONE
    assert params.seed == 0 and params.replicas == 1

    doc = params_to_json(make_params(4, 1, 0.75, tau={"kind": "explicit", "values": [1, 2, 3]}))
    assert doc["tau"] == {"kind": "explicit", "values": [1.0, 2.0, 3.0]}
    assert params_from_json(doc).tau.values == (1.0, 2.0, 3.0)
