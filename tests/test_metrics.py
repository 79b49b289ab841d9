"""Distribution distances and the executable matrix identities."""

import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tensormp.metrics
from helpers import levy_bisection
from oracles import ks_law_scan, levy_bruteforce, levy_law_scan, mp_moment_closed_form, step_eval
from tensormp import mp
from tensormp.config import make_params
from tensormp.config import sweep_plan_from_json
from tensormp.gram import SpectralDistribution, build_correlation_gram, eigenvalues, esd, model_spectra
from tensormp.metrics import (
    column_normalization_identity,
    empirical_moment,
    ks_distance,
    levy_distance,
    levy_distance_trace_bound,
)
from tensormp.sampling import sample_base


def step(at):
    return SpectralDistribution(np.array([at]), 1)


def two_step(x0, x1):
    """Half the mass at x0 and half at x1."""
    return SpectralDistribution(np.array([x0, x1]), 2)


def from_counts(points, counts):
    """The step function with mass counts[i] / sum(counts) at points[i]."""
    return SpectralDistribution(np.repeat(points, counts), int(np.sum(counts)))


def test_esd_step_function_counting():
    f = esd(np.array([0.9, 0.9, 1.2]), 4)
    assert np.array_equal(f.breakpoints, [0.0, 0.9, 1.2])
    assert np.array_equal(f.cumulative, [0.25, 0.75, 1.0])
    assert f.evaluate(0.9) == 0.75
    assert f.left_limit(0.9) == 0.25
    assert f.evaluate(-1.0) == 0.0


@pytest.mark.parametrize(
    "atoms, dim, message",
    [
        (np.array([[0.5, 1.0]]), 2, "1-d array"),
        (np.array([0.5, np.nan]), 2, "finite and nondecreasing"),
        (np.array([0.5, np.inf]), 2, "finite and nondecreasing"),
        (np.array([-np.inf, 0.5]), 2, "finite and nondecreasing"),
        (np.array([1.0, 0.5]), 2, "finite and nondecreasing"),
        (np.array([0.5, 1.0, 2.0]), 2, "at most N=2 values"),
        (np.array([0.5]), 0, "at least 1"),
        (np.array([0.5]), 2.5, "integer"),
    ],
    ids=["two_d", "nan", "inf", "minus_inf", "decreasing", "more_than_n", "n_zero", "n_fraction"],
)
def test_spectral_distribution_checks_direct_construction(atoms, dim, message):
    with pytest.raises(ValueError, match=message):
        SpectralDistribution(atoms, dim)


def test_spectral_distribution_keeps_a_read_only_copy_of_the_atoms():
    atoms = np.array([0.5, 1.0])
    dist = SpectralDistribution(atoms, 3)
    atoms[0] = 0.75
    assert atoms.flags.writeable
    assert not any(array.flags.writeable for array in (dist.atoms, dist.breakpoints, dist.cumulative))
    assert np.array_equal(dist.breakpoints, [0.0, 0.5, 1.0])
    # no sign rule: a negative atom sits below the implied zeros
    assert np.array_equal(SpectralDistribution(np.array([-1.0, 2.0]), 4).cumulative, [0.25, 0.75, 1.0])


def test_mp_law_evaluate_and_left_limit_keep_the_atom():
    law = mp.MPLaw.from_ratio(0.25)
    assert law.evaluate(0.0) == 0.75
    assert law.left_limit(0.0) == 0.0
    assert law.evaluate(law.lambda_minus) == 0.75
    assert law.left_limit(law.lambda_minus) == 0.75
    assert law.evaluate(law.lambda_plus) == 1.0
    assert law.left_limit(-1.0) == law.evaluate(-1.0) == 0.0
    xs = np.array([-1.0, 0.0, 1.0, 3.0])
    assert np.array_equal(law.evaluate(xs), [0.0, 0.75, mp.cdf(law, 1.0), 1.0])
    assert np.array_equal(law.left_limit(xs), [0.0, 0.0, mp.cdf(law, 1.0), 1.0])
    for cdf in (law, two_step(0.0, 1.0)):
        at, before = cdf.sides(xs)
        assert at.tobytes() == cdf.evaluate(xs).tobytes() and before.tobytes() == cdf.left_limit(xs).tobytes()


def test_ks_to_the_law_evaluates_it_once_and_levy_is_the_plain_bisection(monkeypatch):
    f = esd(np.array([0.2, 0.9, 0.9, 1.7, 2.5]), 8)
    law = mp.MPLaw.from_ratio(0.5)
    calls = []
    cdf = mp.cdf
    monkeypatch.setattr(mp, "cdf", lambda *args: calls.append(1) or cdf(*args))
    ks_distance(f, law)
    assert len(calls) == 1
    assert levy_distance(f, law) == levy_bisection(f, law)
    # step vs step, in both orders
    g = esd(np.array([0.4, 1.1, 1.3, 2.2]), 6)
    for a, b in ((f, g), (g, f)):
        assert levy_distance(a, b) == levy_bisection(a, b)


def test_a_distance_takes_its_two_distributions_and_nothing_else():
    # the Levy bisection starts at the pair's own KS distance, so no caller can hand it a start
    for distance in (ks_distance, levy_distance):
        assert list(inspect.signature(distance).parameters) == ["f", "g"]


def test_ks_examples():
    assert ks_distance(step(0.0), step(0.0)) == 0.0
    assert ks_distance(step(0.0), step(1.0)) == 1.0
    assert ks_distance(two_step(0.0, 1.0), step(0.0)) == 0.5


def test_levy_examples_and_bruteforce_oracle():
    assert levy_distance(step(0.0), step(0.0)) == 0.0
    value = levy_distance(step(0.0), step(0.5))
    assert value == pytest.approx(0.5, abs=1e-9)
    brute = levy_bruteforce(step(0.0), step(0.5), np.arange(0.0, 1.01, 0.01))
    assert brute == pytest.approx(0.5, abs=1e-12)

    f = two_step(0.0, 1.0)
    g = step(0.25)
    assert levy_distance(f, g) == pytest.approx(
        levy_bruteforce(f, g, np.arange(0.0, 1.0005, 0.0005)), abs=6e-4
    )


def _random_cdfs(rng, count):
    out = []
    for _ in range(count):
        atoms = np.sort(rng.random(int(rng.integers(1, 10))) * 3.0)
        ambient = len(atoms) + int(rng.integers(0, 4))
        out.append(esd(atoms, ambient))
    return out


def test_levy_dominated_by_ks_and_symmetric():
    rng = np.random.Generator(np.random.Philox(2024))
    cdfs = _random_cdfs(rng, 40)
    for i in range(0, 40, 2):
        f, g = cdfs[i], cdfs[i + 1]
        levy = levy_distance(f, g)
        assert levy <= ks_distance(f, g) + 1e-9
        assert levy == levy_distance(g, f)  # canonical ordering makes this exact
        assert ks_distance(f, g) == ks_distance(g, f)


def test_levy_matches_bruteforce_on_random_pairs():
    rng = np.random.Generator(np.random.Philox(77))
    cdfs = _random_cdfs(rng, 12)
    grid = np.arange(0.0, 1.0005, 0.0005)
    for i in range(0, 12, 2):
        fast = levy_distance(cdfs[i], cdfs[i + 1])
        brute = levy_bruteforce(cdfs[i], cdfs[i + 1], grid)
        assert fast <= brute + 1e-9
        assert brute - fast <= 6e-4  # oracle resolution


def test_triangle_inequality_on_random_triples():
    rng = np.random.Generator(np.random.Philox(5150))
    cdfs = _random_cdfs(rng, 30)
    for i in range(0, 30, 3):
        f, g, h = cdfs[i], cdfs[i + 1], cdfs[i + 2]
        assert levy_distance(f, h) <= levy_distance(f, g) + levy_distance(g, h) + 1e-9
        assert ks_distance(f, h) <= ks_distance(f, g) + ks_distance(g, h) + 1e-9


def test_column_identity_zero_when_columns_have_norm_sqrt_n():
    n, p = 4, 3
    a = np.ones((n, p), dtype=complex)  # every column has norm sqrt(n)
    lhs, rhs = column_normalization_identity(a, np.array([1.0, 2.0, 0.5]))
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_column_identity_single_column_example():
    n = 9
    a = np.full((n, 1), 2.0, dtype=complex)  # single column of norm 2 sqrt(n)
    lhs, rhs = column_normalization_identity(a, np.array([1.0]))
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert lhs == pytest.approx(1.0, abs=1e-12)


def test_column_identity_random_instances():
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        a = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        w = rng.random(p) + 0.1
        lhs, rhs = column_normalization_identity(a, w)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_column_identity_errors():
    a = np.ones((3, 2), dtype=complex)
    a[:, 1] = 0.0
    with pytest.raises(ValueError, match="zero column"):
        column_normalization_identity(a, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        column_normalization_identity(np.ones((3, 2)), np.array([1.0]))


def test_levy_trace_bound_equal_inputs():
    a = np.ones((4, 6), dtype=complex)
    lhs, rhs = levy_distance_trace_bound(a, a)
    assert lhs == 0.0
    assert rhs == 0.0


def test_levy_trace_bound_unit_row_example():
    p, n = 5, 8
    a = np.zeros((p, n), dtype=complex)
    a[0, 0] = 1.0
    b = np.zeros((p, n), dtype=complex)
    lhs, rhs = levy_distance_trace_bound(a, b)
    assert rhs == pytest.approx(2.0 / p**2, abs=1e-15)
    assert lhs == pytest.approx((1.0 / p) ** 4, abs=1e-8)
    assert lhs <= rhs


def test_levy_trace_bound_random_pairs():
    rng = np.random.Generator(np.random.Philox(4096))
    for _ in range(200):
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        b = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        lhs, rhs = levy_distance_trace_bound(a, b)
        assert lhs <= rhs + 1e-12
    with pytest.raises(ValueError):
        levy_distance_trace_bound(np.ones((2, 3)), np.ones((3, 2)))


def test_empirical_moment_examples():
    dist = esd(np.array([2.0]), 2)
    assert empirical_moment(dist, 1) == 1.0
    with pytest.raises(ValueError):
        empirical_moment(dist, 0)
    with pytest.raises(ValueError):
        empirical_moment(dist, 21)


def test_empirical_first_moment_is_the_trace_ratio():
    params = make_params(12, 2, 0.5, seed=31)
    sample = sample_base(params, 0)
    dist = esd(eigenvalues(build_correlation_gram(sample)), params.ambient_dim)
    target = params.sample_count / params.ambient_dim
    assert abs(empirical_moment(dist, 1) - target) <= 1e-12 * target


def test_empirical_second_moment_tracks_the_limit_law():
    params = make_params(20, 2, 0.5, seed=17, replicas=5)
    values = []
    for replica in range(params.replicas):
        sample = sample_base(params, replica)
        dist = esd(eigenvalues(build_correlation_gram(sample)), params.ambient_dim)
        values.append(empirical_moment(dist, 2))
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    assert abs(mean - mp_moment_closed_form(0.5, 2)) <= 4.0 * se


def test_distances_to_the_law_match_a_dense_quadpack_scan():
    params = make_params(20, 2, 0.5, seed=13)
    sample = sample_base(params, 0)
    f = esd(eigenvalues(build_correlation_gram(sample)), params.ambient_dim)
    law = mp.MPLaw.from_ratio(0.5)
    grid = np.linspace(-0.5, law.lambda_plus + 0.5, 40_001)
    spacing = grid[1] - grid[0]
    # every breakpoint and a point just before it, so the KS scan sees both sides of each jump
    xs = np.concatenate([grid, f.breakpoints, f.breakpoints - 1e-9])
    ks = ks_distance(f, law)
    assert ks == pytest.approx(ks_law_scan(f, 0.5, xs), abs=1e-8)
    levy = levy_distance(f, law)
    scan = levy_law_scan(f, 0.5, xs)
    # a scan-feasible eps is within one grid spacing of truly feasible
    assert scan - 1e-8 <= levy <= scan + spacing + 1e-8
    assert 0.0 < levy <= ks


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


def _plan_cdfs(name, seeds):
    """(F, law) of every replica of a benchmark workload's plan at each seed."""
    plan_doc = json.loads(WORKLOADS.read_text())[name]["plan"]
    out = []
    for seed in seeds:
        for params in sweep_plan_from_json({**plan_doc, "seed": seed}).points:
            law = mp.MPLaw.from_ratio(params.c)
            for replica in range(params.replicas):
                spectra, _ = model_spectra(params, replica, (params.model,))
                out.append((esd(spectra[params.model], params.ambient_dim), law))
    return out


@pytest.fixture(scope="module")
def plan_cdfs():
    """108 replicas: fold_pool_uc at seeds 1-3 and sweep_c05 at seed 1.
    point_real_tp has two-point tau, so no limit law to measure against."""
    return {"fold_pool_uc": _plan_cdfs("fold_pool_uc", (1, 2, 3)), "sweep_c05": _plan_cdfs("sweep_c05", (1,))}


def test_levy_to_the_law_replays_the_bisection_bitwise_on_the_plans(plan_cdfs, monkeypatch):
    cases = plan_cdfs["fold_pool_uc"] + plan_cdfs["sweep_c05"]
    assert len(cases) >= 100
    for f, law in cases:
        assert levy_distance(f, law) == levy_bisection(f, law)
    # the verified bracket spares the scans: about 20 per distance for the plain bisection
    calls = []
    scan = tensormp.metrics._levy_feasible
    monkeypatch.setattr(tensormp.metrics, "_levy_feasible", lambda *args: calls.append(args) or scan(*args))
    for f, law in plan_cdfs["fold_pool_uc"]:
        levy_distance(f, law)
    assert len(calls) <= 3 * len(plan_cdfs["fold_pool_uc"])


@pytest.mark.parametrize(
    "wrong",
    [
        lambda e: 0.5 * e,
        lambda e: 1.5 * e,
        lambda e: e + 3e-13,
        lambda e: e - 3e-13,
        lambda e: e + 1e-12,
        lambda e: e - 1e-12,
        lambda e: 0.0,
        lambda e: -e,
        lambda e: 1e6 * e,
        lambda e: np.inf,
        lambda e: np.nan,
    ],
)
def test_a_wrong_levy_estimate_costs_scans_not_bits(plan_cdfs, monkeypatch, wrong):
    estimate = tensormp.metrics._levy_estimate
    monkeypatch.setattr(tensormp.metrics, "_levy_estimate", lambda *args: wrong(estimate(*args)))
    for f, law in plan_cdfs["fold_pool_uc"][:8] + plan_cdfs["sweep_c05"][::3]:
        assert levy_distance(f, law) == levy_bisection(f, law)


def _edge_cdfs(rng, law):
    """Step functions that put breakpoints where the estimate's branches
    change: below lambda_minus, on the support, above lambda_plus, at 0 with
    an atom, a single atom, and the ESD of an m > N sample."""
    low, high = law.lambda_minus, law.lambda_plus
    cdfs = [step(x) for x in (0.0, 0.5 * low, low, 0.5 * (low + high), high + 0.3)]
    for _ in range(6):
        points = np.unique(np.concatenate([[0.0], rng.uniform(-0.3, high + 1.0, int(rng.integers(1, 25)))]))
        cdfs.append(from_counts(points, rng.integers(1, 10, points.size)))
    for m, ambient in ((30, 40), (40, 40), (60, 40), (7, 3)):
        x = rng.standard_normal((ambient, m))
        eigs = np.linalg.eigvalsh(x.T @ x / ambient)
        cdfs.append(esd(np.where(eigs < 1e-9, 0.0, eigs), ambient))
    return cdfs


@pytest.mark.parametrize("c", [0.05, 0.3, 1.0, 2.5])  # c < 1: an atom at 0; c = 1: lambda_minus = 0; c > 1: no atom
def test_levy_to_the_law_replays_the_bisection_on_edge_cases(c):
    rng = np.random.Generator(np.random.Philox(int(c * 100)))
    law = mp.MPLaw.from_ratio(c)
    for f in _edge_cdfs(rng, law):
        assert levy_distance(f, law) == levy_bisection(f, law)


def _counted(atoms, dim):
    """The atoms' distribution as breakpoints and cumulative masses, counted
    with a Counter: the implied zeros join the count at 0."""
    counter = Counter(float(a) for a in atoms)
    counter[0.0] += dim - len(atoms)
    points = sorted(point for point, count in counter.items() if count)
    return np.array(points), np.cumsum([counter[point] for point in points]) / dim


def _m_above_n_esd():
    params = make_params(6, 2, 1.5, entry_law="rademacher", seed=2)  # m = 54 > N = 36
    spectra, _ = model_spectra(params, 0, (params.model,))
    return esd(spectra[params.model], params.ambient_dim)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SpectralDistribution(np.array([0.3, 0.3, 0.3, 1.1, 2.0, 2.0]), 6),  # multiplicities, no zeros
        lambda: SpectralDistribution(np.array([0.0, 0.0, 0.4, 0.4, 1.5]), 8),  # atoms at 0 beside 3 implied zeros
        lambda: SpectralDistribution(np.array([0.2, 0.7]), 5),  # implied zeros alone at 0
        _m_above_n_esd,
    ],
    ids=["multiplicities", "zero_atom_and_implied_zeros", "implied_zeros", "m_above_n"],
)
def test_step_function_matches_the_oracle(make):
    dist = make()
    breakpoints, cumulative = _counted(dist.atoms, dist.ambient_dim)
    assert np.array_equal(dist.breakpoints, breakpoints) and np.array_equal(dist.cumulative, cumulative)
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    xs = np.concatenate([breakpoints, mids, breakpoints - 1e-9, breakpoints + 1e-9, [-1.0, 0.0, 1e3]])
    assert np.array_equal(dist.evaluate(xs), step_eval(breakpoints, cumulative, xs))
    assert np.array_equal(dist.left_limit(xs), step_eval(breakpoints, cumulative, np.nextafter(xs, -np.inf)))
