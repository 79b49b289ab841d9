"""Gram construction, eigensolving, the dense oracle, and the ESD."""

import json
import warnings

import numpy as np
import pytest

from helpers import forged_sample
from oracles import hermitian_eigen_bisect
from tensormp.cli import main, read_eigenvalue_csv
from tensormp.config import ModelKind, constant_tau, explicit_tau, make_params, two_point_tau
from tensormp.gram import (
    GramMatrix,
    _covariance_from_correlation,
    build_correlation_gram,
    build_covariance_gram,
    build_normalized_level_gram,
    eigenvalues,
    esd,
    materialize_dense,
    nonzero_eigenvalues,
    tensor_vector,
)
from tensormp.metrics import EmpiricalCDF
from tensormp.sampling import norm_profile, sample_base


def test_rank_one_gram_is_unit():
    params = make_params(4, 2, 1 / 16, seed=1)
    sample = sample_base(params, 0)
    gram = build_correlation_gram(sample, params.tau)
    assert gram.entries.shape == (1, 1)
    assert gram.entries[0, 0] == 1.0 + 0.0j


def test_correlation_diagonal_is_tau_exactly():
    tau = two_point_tau(1.0, 2.0, 0.5, 8)
    params = make_params(5, 2, 8 / 25, tau=tau, seed=4)
    sample = sample_base(params, 0)
    gram = build_correlation_gram(sample, tau)
    assert np.array_equal(np.diag(gram.entries), tau.as_array().astype(complex))


def test_gram_is_exactly_hermitian_with_bounded_entries():
    params = make_params(6, 3, 0.2, seed=8)
    sample = sample_base(params, 0)
    for gram in (
        build_correlation_gram(sample, params.tau),
        build_covariance_gram(sample, params.tau),
    ):
        assert np.array_equal(gram.entries, gram.entries.conj().T)
    corr = build_correlation_gram(sample, params.tau)
    assert np.max(np.abs(corr.entries)) <= 1.0 + 1e-12  # normalized Cauchy-Schwarz


def test_covariance_diagonal_and_rank_one_case():
    sample = forged_sample([[[1.0, 1.0]]])
    gram = build_covariance_gram(sample, constant_tau(1))
    assert gram.entries[0, 0] == 1.0 + 0.0j  # ||y||^2 / n = 1

    params = make_params(6, 2, 0.25, seed=3)
    drawn = sample_base(params, 0)
    gram = build_covariance_gram(drawn, params.tau)
    expected = np.prod(norm_profile(drawn) / params.n, axis=1)
    assert np.allclose(np.diag(gram.entries), expected, rtol=0, atol=1e-15)


def test_unit_modulus_laws_collapse_the_two_models():
    # the premise on which the covariance Gram of these laws is the correlation Gram
    for law in ("rademacher", "unit_circle"):
        params = make_params(6, 2, 0.25, entry_law_kind=law, seed=5)
        sample = sample_base(params, 0)
        corr = materialize_dense(sample, params.tau, ModelKind.CORRELATION)
        cov = materialize_dense(sample, params.tau, ModelKind.COVARIANCE)
        assert np.max(np.abs(corr - cov)) <= 1e-12
        ratio = np.prod(norm_profile(sample) / params.n, axis=1)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-12


def test_eigenvalues_of_diagonal_and_rank_one():
    tau = np.array([3.0, 1.0, 2.0])
    assert np.array_equal(eigenvalues(np.diag(tau).astype(complex)), np.sort(tau))
    w = eigenvalues(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    assert w == pytest.approx([0.0, 2.0], abs=1e-14)


def test_eigenvalues_match_inertia_bisection_oracle():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(5):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = 0.5 * (a + a.conj().T)
        assert eigenvalues(h) == pytest.approx(hermitian_eigen_bisect(h), abs=1e-8)
    a = rng.standard_normal((6, 6))
    s = a + a.T  # real symmetric, solved without promotion to complex
    assert eigenvalues(s) == pytest.approx(hermitian_eigen_bisect(s), abs=1e-8)


def test_eigenvalues_reject_non_finite_input():
    # eigvalsh itself returns [0, -0] for the NaN matrix, a finite spectrum
    for bad, name in ((np.nan, "nan"), (np.inf, "inf"), (complex(0.0, -np.inf), "-infj")):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=type(bad))
        matrix[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic can warn
            with pytest.raises(ValueError, match=rf"non-finite entry \(?{name}\)? at \(1, 0\)"):
                eigenvalues(matrix)


@pytest.mark.parametrize(
    "corrupt, identity",
    [
        pytest.param(lambda w: w * np.r_[np.ones(len(w) - 1), 1.0 + 1e-6], "trace", id="scaled"),
        # +delta on the largest and -delta on the smallest keep the trace intact
        pytest.param(
            lambda w: w + 1e-6 * np.max(np.abs(w)) * np.r_[-1.0, np.zeros(len(w) - 2), 1.0], "Frobenius", id="shifted"
        ),
    ],
)
def test_eigenvalues_reject_a_corrupted_spectrum(monkeypatch, corrupt, identity):
    params = make_params(6, 2, 0.5, seed=2)
    gram = build_correlation_gram(sample_base(params, 0), params.tau)
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: corrupt(solve(a)))
    with pytest.raises(ValueError, match=identity):
        eigenvalues(gram)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3), dtype=complex))


def test_eigenvalues_reject_a_hand_built_non_hermitian_gram():
    # eigvalsh reads one triangle only: unchecked, this would return 1 -+ 0.5
    # and pass both identities, while the true eigenvalues are 1 -+ 0.5i
    gram = GramMatrix(2, np.array([[1.0, -0.5], [0.5, 1.0]]), ModelKind.CORRELATION)
    with pytest.raises(ValueError, match="Hermitian"):
        eigenvalues(gram)


def test_covariance_congruence_takes_only_this_samples_correlation_gram():
    params = make_params(5, 2, 0.2, entry_law_kind="complex_gaussian", seed=3)
    sample = sample_base(params, 0)
    cov = build_covariance_gram(sample, params.tau)
    with pytest.raises(ValueError, match="correlation Gram"):
        _covariance_from_correlation(cov, sample)
    other = sample_base(make_params(5, 2, 0.4, entry_law_kind="complex_gaussian", seed=3), 0)
    with pytest.raises(ValueError, match="correlation Gram"):
        _covariance_from_correlation(build_correlation_gram(other, other.params.tau), sample)


def test_esd_counting_example():
    dist = esd(np.array([1.2, 0.9, 0.9]), 4)
    assert dist.zero_mass == 0.25
    f = EmpiricalCDF.from_spectral(dist)
    assert f.evaluate(0.0) == 0.25
    assert f.evaluate(1.0) == 0.75
    assert f.evaluate(1.2) == 1.0
    assert f.evaluate(-0.1) == 0.0


def test_esd_full_rank_and_degenerate_step():
    dist = esd(np.array([1.0, 1.0]), 2)
    assert dist.zero_mass == 0.0
    f = EmpiricalCDF.from_spectral(dist)
    assert f.evaluate(0.999) == 0.0
    assert f.evaluate(1.0) == 1.0


def test_esd_clamps_small_negatives_only():
    dist = esd(np.array([-1e-12, 1.0, 5.0]), 3)
    assert dist.atoms[0] == 0.0
    with pytest.raises(ValueError, match="clamp floor"):
        esd(np.array([-1.0, 1.0, 5.0]), 3)


def test_esd_rank_bound_for_m_above_ambient():
    params = make_params(2, 1, 1.5, seed=3)  # N=2, m=3
    sample = sample_base(params, 0)
    w = eigenvalues(build_correlation_gram(sample, params.tau))
    dist = esd(w, params.ambient_dim)
    assert len(dist.atoms) == 2
    assert dist.zero_mass == 0.0
    assert EmpiricalCDF.from_spectral(dist).evaluate(np.max(w)) == 1.0
    with pytest.raises(ValueError, match="rank bound"):
        esd(np.array([0.5, 1.0, 2.0]), 2)


def test_basis_tensor_dense_matrix():
    sample = forged_sample([[[1.0, 0.0], [0.0, 1.0]]])
    dense = materialize_dense(sample, constant_tau(1), ModelKind.CORRELATION)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0  # e_1 (x) e_2 sits at flat index 0*2 + 1
    assert np.array_equal(dense, expected)


def test_hand_vectors_match_dense_computation():
    entries = np.array(
        [
            [[1.0, 1.0j], [1.0, -1.0]],
            [[2.0, 0.5], [0.0, 1.0j]],
        ],
        dtype=complex,
    )
    sample = forged_sample(entries)
    tau = constant_tau(2)
    gram = build_correlation_gram(sample, tau)
    tensors = [tensor_vector(sample, alpha) for alpha in range(2)]
    for a in range(2):
        for b in range(2):
            direct = np.vdot(tensors[b], tensors[a]) / (
                np.linalg.norm(tensors[a]) * np.linalg.norm(tensors[b])
            )
            assert gram.entries[a, b] == pytest.approx(direct, abs=1e-12)


def test_gram_and_dense_share_nonzero_spectrum():
    for model, builder in (
        (ModelKind.CORRELATION, build_correlation_gram),
        (ModelKind.COVARIANCE, build_covariance_gram),
    ):
        for law in ("complex_gaussian", "real_gaussian", "rademacher"):
            params = make_params(3, 2, 4 / 9, entry_law_kind=law, seed=6)
            sample = sample_base(params, 0)
            dense = materialize_dense(sample, params.tau, model)
            nz_dense = np.sort(nonzero_eigenvalues(eigenvalues(dense)))
            nz_gram = np.sort(nonzero_eigenvalues(eigenvalues(builder(sample, params.tau))))
            assert len(nz_dense) == len(nz_gram)
            assert nz_dense == pytest.approx(nz_gram, abs=1e-9)


def test_dense_trace_equals_tau_sum():
    tau = explicit_tau([1.0, 2.0, 0.5, 1.5])
    params = make_params(3, 2, 4 / 9, tau=tau, seed=2)
    sample = sample_base(params, 0)
    dense = materialize_dense(sample, tau, ModelKind.CORRELATION)
    assert np.trace(dense).real == pytest.approx(5.0, abs=1e-10)
    assert abs(np.trace(dense).imag) <= 1e-12


def test_dense_cap_enforced():
    params = make_params(2, 13, 1 / 2**13, seed=0)  # N = 8192 > 4096
    sample = sample_base(params, 0)
    with pytest.raises(ValueError, match="dense cap"):
        materialize_dense(sample, params.tau, ModelKind.CORRELATION)


def test_normalized_level_gram_matches_correlation():
    params = make_params(8, 3, 0.1, seed=12)
    sample = sample_base(params, 0)
    a = build_normalized_level_gram(sample, params.tau)
    b = build_correlation_gram(sample, params.tau)
    assert np.max(np.abs(a.entries - b.entries)) <= 1e-12


def test_eigenvalue_csv_round_trip(tmp_path):
    config = tmp_path / "point.json"
    config.write_text(json.dumps({"n": 4, "k": 2, "c": 0.5, "seed": 21, "replicas": 2}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    meta, loaded = read_eigenvalue_csv(tmp_path / "eigenvalues.csv")
    assert meta == {
        "n": 4,
        "k": 2,
        "m": 8,
        "N": 16,
        "model": "correlation",
        "seed": 21,
    }
    params = make_params(4, 2, 0.5, seed=21, replicas=2)
    for replica in range(2):
        eigs = eigenvalues(build_correlation_gram(sample_base(params, replica), params.tau))
        assert np.array_equal(loaded[replica], np.maximum(eigs, 0.0))  # repr round-trips exactly
