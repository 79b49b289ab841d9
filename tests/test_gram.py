"""Gram construction, eigensolving, the dense oracle, and the ESD."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import tensormp.gram
from helpers import as_bytes, covariance_gram, covariance_scales, forged_sample, spectra_of
from oracles import gram_out_of_place, hermitian_eigen_bisect, hermitian_row_two_scan, level_ratio_product_out_of_place
from tensormp.checks import require
from tensormp.cli import main, read_eigenvalue_csv
from tensormp.config import EntryLaw, ModelKind, make_params, make_tau
from tensormp.gram import (
    _PANEL_ROWS,
    _divide_by_count,
    _level_ratio_product,
    _scale_to_covariance,
    _solve_in_place,
    _syrk_upper,
    build_correlation_gram,
    build_normalized_level_gram,
    eigenvalues,
    esd,
    materialize_dense,
    max_difference,
    model_spectra,
    nonzero_eigenvalues,
    tensor_vector,
)
from tensormp.sampling import sample_base

TWO_POINT_TAU = {"kind": "two_point", "a": 1.0, "b": 2.0, "weight": 0.5}

def test_rank_one_gram_is_unit():
    params = make_params(4, 2, 1 / 16, seed=1)
    sample = sample_base(params, 0)
    gram = build_correlation_gram(sample)
    assert gram.shape == (1, 1)
    assert gram[0, 0] == 1.0 + 0.0j


def test_correlation_diagonal_is_tau_exactly():
    params = make_params(5, 2, 8 / 25, tau=TWO_POINT_TAU, seed=4)
    sample = sample_base(params, 0)
    gram = build_correlation_gram(sample)
    assert np.array_equal(np.diag(gram), params.tau.values.astype(complex))


def test_gram_is_exactly_hermitian_with_bounded_entries():
    params = make_params(6, 3, 0.2, seed=8)
    sample = sample_base(params, 0)
    for gram in (build_correlation_gram(sample), covariance_gram(sample)):
        assert np.array_equal(gram, gram.conj().T)
    corr = build_correlation_gram(sample)
    assert np.max(np.abs(corr)) <= 1.0 + 1e-12  # normalized Cauchy-Schwarz


def test_covariance_diagonal_and_rank_one_case():
    sample = forged_sample([[[1.0, 1.0]]])
    gram = covariance_gram(sample)
    assert gram[0, 0] == 1.0 + 0.0j  # ||y||^2 / n = 1

    params = make_params(6, 2, 0.25, seed=3)
    drawn = sample_base(params, 0)
    gram = covariance_gram(drawn)
    expected = np.prod(drawn.level_norms / params.n, axis=1)
    assert np.allclose(np.diag(gram), expected, rtol=0, atol=1e-15)


def test_unit_modulus_laws_collapse_the_two_models():
    # the premise on which the covariance Gram of these laws is the correlation Gram
    for law in ("rademacher", "unit_circle"):
        params = make_params(6, 2, 0.25, entry_law=law, seed=5)
        sample = sample_base(params, 0)
        corr = materialize_dense(sample, ModelKind.CORRELATION)
        cov = materialize_dense(sample, ModelKind.COVARIANCE)
        assert np.max(np.abs(corr - cov)) <= 1e-12
        ratio = np.prod(sample.level_norms / params.n, axis=1)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-12


@pytest.mark.parametrize("law, passes", [("complex_gaussian", 1), ("real_gaussian", 1), ("unit_circle", 0), ("rademacher", 0)])
def test_a_coupled_replica_takes_its_level_norms_at_most_once(monkeypatch, law, passes):
    # a norm pass is the einsum of the entries with their conjugate; a unit-modulus law uses the exact n
    subscripts = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda spec, *operands, **kwargs: subscripts.append(spec) or einsum(spec, *operands, **kwargs))
    params = make_params(6, 2, 0.5, entry_law=law, tau=TWO_POINT_TAU, seed=2)
    eigs, other, d2 = model_spectra(params, 0, with_comparison=True)
    assert eigs is not None and other is not None and d2 is not None
    assert subscripts.count("alj,alj->al") == passes


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
    gram = build_correlation_gram(sample_base(params, 0))
    solve = tensormp.gram._solve_in_place
    monkeypatch.setattr(tensormp.gram, "_solve_in_place", lambda a: corrupt(solve(a)))
    with pytest.raises(ValueError, match=identity):
        eigenvalues(gram)
    with pytest.raises(ValueError, match=identity):
        model_spectra(params, 0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_in_place_solve_is_eigvalsh_bitwise_and_keeps_the_strict_lower_triangle(monkeypatch, dtype):
    rng = np.random.Generator(np.random.Philox(13))
    for m in (1, 2, 33, 129, 205, 450):
        a = rng.standard_normal((m, m)).astype(dtype)
        if np.iscomplexobj(a):
            a += 1j * rng.standard_normal((m, m))
        matrix = a + a.conj().T  # exactly Hermitian
        expected = np.linalg.eigvalsh(matrix)
        buffer = matrix.copy()
        assert _solve_in_place(buffer).tobytes() == expected.tobytes()
        assert np.tril(buffer, -1).tobytes() == np.tril(matrix, -1).tobytes()
        # without numpy's bundled OpenBLAS, eigvalsh solves a copy, to the same bits
        with monkeypatch.context() as patch:
            patch.setattr(tensormp.gram, "_openblas", lambda: None)
            assert _solve_in_place(matrix).tobytes() == expected.tobytes()
    for m in (33, 129):  # eigenvalues solves its copy as eigvalsh does, so even a matrix
        # Hermitian only to 1e-12 gets eigvalsh's bits
        matrix = rng.standard_normal((m, m)).astype(dtype)
        matrix = matrix + matrix.T + 1e-14 * np.triu(rng.standard_normal((m, m)), 1)
        before = matrix.copy()
        assert eigenvalues(matrix).tobytes() == np.linalg.eigvalsh(matrix).tobytes()
        assert np.array_equal(matrix, before)


@pytest.mark.parametrize("law", ["complex_gaussian", "unit_circle"])
@pytest.mark.parametrize(  # one panel; last panels of 31, 32, 1 and 2 rows; tau = 1 skips _hermitize's multiply
    "m, weights",
    [pytest.param(m, "two_point", id=str(m)) for m in (1, 2, 31, 32, 33, 96, 97, 98)]
    + [pytest.param(m, "constant_one", id=f"{m}-constant_one") for m in (1, 2, 31, 32, 33, 96, 97, 98)],
)
def test_panel_built_levels_match_the_whole_product_formula(law, m, weights):
    assert m % _PANEL_ROWS in (0, 1, 2, 31)
    tau = TWO_POINT_TAU if weights == "two_point" and m > 1 else "constant_one"
    params = make_params(5, 3, m / 125, entry_law=law, tau=tau, seed=m)
    sample = sample_base(params, 0)
    assert params.sample_count == m
    for model in ModelKind:
        built = covariance_gram(sample) if model is ModelKind.COVARIANCE else build_correlation_gram(sample)
        assert built.tobytes() == gram_out_of_place(sample, params.tau, model).tobytes()


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("law, n", [("real_gaussian", 5), ("rademacher", 6)])  # even n: exactly zero inner products
def test_syrk_built_real_levels_match_the_whole_product_formula(monkeypatch, law, n, k):
    signed_zeros = 0
    for m in (1, 2, 31, 32, 33, 97, 205):
        tau = TWO_POINT_TAU if m > 1 else "constant_one"
        params = make_params(n, k, m / n**k, entry_law=law, tau=tau, seed=m + k)
        sample = sample_base(params, 0)
        assert params.sample_count == m
        for model in ModelKind:
            expected = gram_out_of_place(sample, params.tau, model).tobytes()
            built = covariance_gram(sample) if model is ModelKind.COVARIANCE else build_correlation_gram(sample)
            assert built.tobytes() == expected
            # without numpy's bundled OpenBLAS each level's triangle is copied from numpy's product
            with monkeypatch.context() as patch:
                patch.setattr(tensormp.gram, "_openblas", lambda: None)
                built = covariance_gram(sample) if model is ModelKind.COVARIANCE else build_correlation_gram(sample)
                assert built.tobytes() == expected
        # a block that is not BLAS-strided takes numpy's product too
        strided = dataclasses.replace(sample, entries=np.asfortranarray(sample.entries))
        expected = gram_out_of_place(strided, params.tau, ModelKind.CORRELATION).tobytes()
        assert build_correlation_gram(strided).tobytes() == expected
        # the level product itself, signed zeros included, in the strict upper triangle _hermitize reads
        expected = np.triu(level_ratio_product_out_of_place(sample), 1)
        assert np.triu(_level_ratio_product(sample), 1).tobytes() == expected.tobytes()
        signed_zeros += np.count_nonzero((expected == 0.0) & np.signbit(expected))
        # syrk, or the copy from numpy's product where the block is not BLAS-strided, writes
        # numpy's A A^T into the upper triangle and diagonal and nothing below
        upper = np.triu_indices(m)
        for block in (sample.entries[:, k - 1, :], strided.entries[:, k - 1, :]):
            buffer = np.full((m, m), -np.inf)
            _syrk_upper(block, buffer)
            assert buffer[upper].tobytes() == (block @ block.T)[upper].tobytes()
            assert np.all(buffer[np.tril_indices(m, -1)] == -np.inf)
    assert signed_zeros > 0 if law == "rademacher" else signed_zeros == 0


def test_the_openblas_binding_is_all_or_nothing(monkeypatch):
    gram = tensormp.gram
    if gram._openblas() is None:
        pytest.skip("this numpy carries no bundled OpenBLAS")
    names = ("scipy_LAPACKE_dsyevd64_", "scipy_LAPACKE_zheevd64_", "scipy_cblas_dsyrk64_")

    def library(*present):
        """A stand-in for the loaded library, with only the calls present."""
        return lambda: types.SimpleNamespace(**{name: types.SimpleNamespace() for name in present})

    try:
        with monkeypatch.context() as patch:
            patch.setattr(gram, "_numpy_openblas", library(*names))
            gram._openblas.cache_clear()
            calls = gram._openblas()
            keys = (np.dtype(np.float64), np.dtype(np.complex128), "dsyrk")
            assert set(calls) == set(keys) and [len(calls[key].argtypes) for key in keys] == [7, 7, 11]
            for missing in names:  # the syrk among them
                patch.setattr(gram, "_numpy_openblas", library(*(name for name in names if name != missing)))
                gram._openblas.cache_clear()
                assert gram._openblas() is None
            patch.setattr(gram, "_numpy_openblas", lambda: None)  # no library at all
            gram._openblas.cache_clear()
            assert gram._openblas() is None
    finally:
        gram._openblas.cache_clear()
    assert gram._openblas() is not None


def test_the_blas_fingerprint_reads_the_one_loaded_library(monkeypatch):
    gram = tensormp.gram
    here = gram.blas_fingerprint()
    assert list(here) == ["numpy", "openblas_config", "openblas_threads"] and here["numpy"] == np.__version__
    if gram._numpy_openblas() is None:
        assert here["openblas_config"] is None and here["openblas_threads"] is None
    else:
        assert here["openblas_config"].startswith("OpenBLAS") and here["openblas_threads"] >= 1
    monkeypatch.setattr(gram, "_numpy_openblas", lambda: types.SimpleNamespace())  # a library without the calls
    assert gram.blas_fingerprint() == {"numpy": np.__version__, "openblas_config": None, "openblas_threads": None}
    monkeypatch.setattr(gram, "_numpy_openblas", lambda: None)
    assert gram.blas_fingerprint() == {"numpy": np.__version__, "openblas_config": None, "openblas_threads": None}


def test_importing_the_cli_loads_no_blas_library():
    # a fresh interpreter: this one has already built Grams
    probe = "import tensormp.cli, tensormp.gram as g; print(g._numpy_openblas.cache_info(), g._openblas.cache_info())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(tensormp.gram.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.count("currsize=0") == 2, proc.stdout


@pytest.mark.parametrize("with_comparison", [False, True])
@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("law", list(EntryLaw))
def test_a_replica_without_numpy_openblas_gets_the_same_bits(monkeypatch, law, model, with_comparison):
    # m = 70 spans two whole row panels and a partial one; k = 3 mirrors a real level down
    params = make_params(5, 3, 70 / 125, model=model, entry_law=law, tau=TWO_POINT_TAU, seed=8)
    assert params.sample_count == 70
    spectra = model_spectra(params, 0, with_comparison=with_comparison)
    monkeypatch.setattr(tensormp.gram, "_openblas", lambda: None)
    fallback = model_spectra(params, 0, with_comparison=with_comparison)
    assert as_bytes(fallback) == as_bytes(spectra)


def _forged_real_valued_samples() -> list:
    """Complex samples whose entries are real, so every Gram entry has an exactly zero imaginary part."""
    return [forged_sample(np.random.Generator(np.random.Philox(seed)).standard_normal((40, 2, 7))) for seed in range(20)]


def _two_point_sample(law, seed=3):
    """A sampled replica of m=70 (two whole row panels and a partial one) with two-point tau."""
    params = make_params(10, 2, 0.7, entry_law=law, tau=TWO_POINT_TAU, seed=seed)
    return sample_base(params, 0)


@pytest.mark.parametrize("law", [kind.value for kind in EntryLaw] + ["forged"])
def test_the_covariance_step_reads_only_the_strict_lower_triangle(law):
    for sample in _forged_real_valued_samples() if law == "forged" else [_two_point_sample(law)]:
        params = sample.params
        fresh, solved = build_correlation_gram(sample), build_correlation_gram(sample)
        fresh.setflags(write=True)
        solved.setflags(write=True)
        built = fresh.copy()
        _solve_in_place(solved)
        if tensormp.gram._openblas() is not None:  # the fallback's eigvalsh solves a copy
            assert solved.tobytes() != built.tobytes()
        unit = params.entry_law.unit_modulus
        d2 = np.ones(params.sample_count) if unit else covariance_scales(sample)
        for gram in (fresh, solved):
            _scale_to_covariance(gram, d2, params.tau.values)
        assert solved.tobytes() == fresh.tobytes()
        assert np.array_equal(fresh, fresh.conj().T)
        diagonal = params.tau.values * d2
        assert fresh.diagonal().tobytes() == diagonal.astype(fresh.dtype).tobytes()
        if unit:  # D = I by the law: the congruence gives C, so model_spectra skips it
            assert np.array_equal(fresh, built)
            continue
        expected = gram_out_of_place(sample, params.tau, ModelKind.COVARIANCE)
        if law != "forged":
            assert fresh.tobytes() == expected.tobytes()
        else:  # an exactly zero imaginary part is +0 below the diagonal and on it, -0 above it
            assert np.array_equal(fresh, expected) and not np.any(fresh.imag)
            assert np.array_equal(np.signbit(fresh.imag), np.triu(np.ones(fresh.shape, dtype=bool), 1))


def test_reciprocal_division_keeps_numpy_signed_zeros():
    # numpy divides z by n as ((re + im*0) fl(1/n), (im - re*0) fl(1/n)): a -0.0 part turns
    # into +0.0 or stays, as the sign of the other part decides
    parts = [0.0, -0.0, 1.5, -1.5, 3.0e-300, -2.0]
    signed = np.array([complex(re, im) for re in parts for im in parts]).reshape(6, 6)
    unsigned = np.abs(signed) + 1j  # no -0.0 part: the reciprocal multiply of the float64 view
    for n in (8, 13, 40):
        naive = signed.copy()
        naive.view(np.float64)[...] *= 1.0 / n
        assert naive.tobytes() != (signed / n).tobytes()  # the forged zeros are the ones that differ
        for z in (signed, unsigned):
            rows = z.copy()
            _divide_by_count(rows, n)
            assert rows.tobytes() == (z / n).tobytes()
    # a unit-modulus level of +-1 and +-i with signed zero parts, whose inner products have
    # exact zero parts, through the Gram builder
    units = np.array([complex(1.0, -0.0), complex(-0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0)])
    entries = units[np.arange(6 * 2 * 4).reshape(6, 2, 4) * 7 % 4]
    sample = forged_sample(entries, law_kind="unit_circle")
    expected = gram_out_of_place(sample, sample.params.tau, ModelKind.CORRELATION)
    assert build_correlation_gram(sample).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("weights", ["two_point", "constant_one"])
def test_hermitize_is_its_formula_bitwise_with_signed_zero_parts(dtype, weights):
    # with every tau 1 the sqrt(tau_a tau_b) multiply is skipped, except in a complex row panel
    # that holds a -0.0 part, which 1 + 0j would turn into +0.0
    m = 2 * _PANEL_ROWS + 3
    parts = np.array([0.0, -0.0, 1.5, -1.5, 0.25])
    rng = np.random.Generator(np.random.Philox(3))
    product = np.zeros((m, m), dtype)
    product.real = rng.choice(parts, (m, m))
    if np.iscomplexobj(product):
        product.imag = rng.choice(parts, (m, m))
        product[_PANEL_ROWS:, :] = np.abs(product[_PANEL_ROWS:, :]) + 1j  # panels with no -0.0 part
        assert np.count_nonzero(np.signbit(product.real) & (product.real == 0.0)) > 0
    tau = make_tau(TWO_POINT_TAU if weights == "two_point" else {"kind": "explicit", "values": [1.0] * m}, m).values
    upper = np.triu(np.sqrt(np.outer(tau, tau)) * product, 1)
    expected = upper + upper.conj().T
    expected[np.diag_indices(m)] = tau
    assert tensormp.gram._hermitize(product.copy(), tau, tau).tobytes() == expected.tobytes()


def _hermitian_spanning_panels(dtype):
    m = 2 * _PANEL_ROWS + 5  # the last row panel is a partial one
    rng = np.random.Generator(np.random.Philox(11))
    a = rng.standard_normal((m, m)).astype(dtype)
    if np.iscomplexobj(a):
        a += 1j * rng.standard_normal((m, m))
    return a + a.conj().T


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigenvalues_checks_every_row_panel(dtype):
    last = 2 * _PANEL_ROWS + 4
    for bad in (np.nan, np.inf, -np.inf):
        matrix = _hermitian_spanning_panels(dtype)
        matrix[last, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any subtraction can warn
            with pytest.raises(ValueError, match=rf"non-finite entry \(?{bad}(\+0j)?\)? at \({last}, 3\)"):
                eigenvalues(matrix)
    # an asymmetry in one off-diagonal panel, entered above or below the diagonal
    for index in ((5, last - 1), (last - 1, 5)):
        matrix = _hermitian_spanning_panels(dtype)
        matrix[index] += 1e-6
        asym = np.max(np.abs(matrix - matrix.conj().T))
        with pytest.raises(ValueError, match=f"not Hermitian: asymmetry {asym:.3e}"):
            eigenvalues(matrix)
    assert eigenvalues(_hermitian_spanning_panels(dtype)).shape == (last + 1,)


@pytest.mark.parametrize("dtype", [float, complex])
def test_max_difference_reads_every_row_panel_and_holds_no_whole_matrix_temporary(dtype):
    a = _hermitian_spanning_panels(dtype)
    b = a[::-1].copy()
    assert max_difference(a, b) == np.max(np.abs(a - b))  # the max over panels is the whole max, bitwise
    last = 2 * _PANEL_ROWS + 4  # in the partial last panel
    far = a.copy()
    far[last, 2] += 1e3
    assert max_difference(a, far) == np.max(np.abs(a - far)) >= 999.0
    for row in (0, _PANEL_ROWS, last):  # a NaN propagates from any panel, as np.max propagates it
        nan = b.copy()
        nan[row, 7] = np.nan
        assert np.isnan(max_difference(a, nan))
    m = 450
    big = np.ones((m, m), dtype)
    tracemalloc.start()
    try:
        max_difference(big, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * _PANEL_ROWS * m * big.itemsize < big.nbytes / 4, peak


def _recorded_rows(monkeypatch) -> list[tuple]:
    """The (name, gap, bound) of each checks row tensormp.gram runs from now
    on, in order; each row still raises when it fails."""
    rows = []

    def recorded(name, gap, bound, message):
        rows.append((name, gap, bound))
        return require(name, gap, bound, message)

    monkeypatch.setattr(tensormp.gram, "require", recorded)
    return rows


def _hermitian_with_negative_zeros(m: int, dtype) -> np.ndarray:
    """A + A^H with -0.0 parts on its first diagonal entry and its corner pair."""
    rng = np.random.Generator(np.random.Philox(m))
    a = rng.standard_normal((m, m)).astype(dtype)
    if np.iscomplexobj(a):
        a += 1j * rng.standard_normal((m, m))
    h = a + a.conj().T
    if np.iscomplexobj(h):
        h[0, 0], h[m - 1, 0] = complex(h[0, 0].real, -0.0), complex(-0.0, 0.0)
    else:
        h[0, 0] = h[m - 1, 0] = -0.0
    h[0, m - 1] = np.conj(h[m - 1, 0])
    return h


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m", [1, 31, 32, 33, 65, 97])
def test_the_one_pass_hermitian_row_is_the_two_scan_row_bitwise(monkeypatch, m, dtype):
    h = _hermitian_with_negative_zeros(m, dtype)
    noise = np.random.Generator(np.random.Philox(m + 1)).standard_normal((m, m))
    asymmetric = []  # one asymmetry entered above or below the diagonal
    for index in ((0, m - 1), (m - 1, 0)):
        matrix = h.copy()
        matrix[index] += 1e-6 * (1 + 1j) if np.iscomplexobj(h) else 1e-6
        asymmetric.append(matrix)
    # exactly Hermitian, asymmetric within the bound in every pair, and asymmetric beyond it in one
    for matrix in (h, h + 1e-14 * noise, *asymmetric):
        rows = _recorded_rows(monkeypatch)
        gap, bound = hermitian_row_two_scan(matrix)
        if gap <= bound:
            eigenvalues(matrix)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                eigenvalues(matrix)
        assert rows[0] == ("finite_gram", 0, 0)
        assert rows[1][0] == "hermitian"
        assert np.array(rows[1][1:]).view(np.int64).tolist() == np.array([gap, bound]).view(np.int64).tolist()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m", [31, 32, 33, 65, 97])
def test_non_finite_entries_fail_the_finite_gram_row_with_the_two_scan_message(monkeypatch, m, dtype):
    last = m - 1
    for bad in ({(last, 1): np.nan, (1, last): np.inf}, {(last, 2): -np.inf, (2, last): -np.inf}):
        matrix = _hermitian_with_negative_zeros(m, dtype)
        for index, value in bad.items():
            matrix[index] = value
        with pytest.raises(ValueError) as two_scan:
            hermitian_row_two_scan(matrix)
        assert str(two_scan.value).endswith(f" at {min(bad)}")  # the first in row-major order
        rows = _recorded_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no subtraction meets inf - inf
            with pytest.raises(ValueError, match=re.escape(str(two_scan.value))):
                eigenvalues(matrix)
        assert rows == [("finite_gram", 2, 0)]


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3), dtype=complex))


def test_eigenvalues_reject_a_hand_built_non_hermitian_gram():
    # eigvalsh reads one triangle only: unchecked, this would return 1 -+ 0.5
    # and pass both identities, while the true eigenvalues are 1 -+ 0.5i
    gram = np.array([[1.0, -0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        eigenvalues(gram)


@pytest.mark.parametrize("with_comparison", [False, True])
@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("law", list(EntryLaw))
def test_model_spectra_solves_each_requested_model_in_one_buffer(monkeypatch, law, model, with_comparison):
    solves = []  # (buffer address, entries at the time of the solve)
    solve = tensormp.gram._solve_in_place

    def recorded(gram):
        solves.append((gram.__array_interface__["data"][0], gram.copy()))
        return solve(gram)

    monkeypatch.setattr(tensormp.gram, "_solve_in_place", recorded)
    params = make_params(9, 2, 40 / 81, model=model, entry_law=law, tau=TWO_POINT_TAU, seed=7)
    sample = sample_base(params, 0)  # the sample model_spectra draws
    eigs, other, d2 = model_spectra(params, 0, with_comparison=with_comparison)
    (other_model,) = set(ModelKind) - {model}
    spectra = {model: eigs, other_model: other} if with_comparison else {model: eigs}
    assert (other is None) is not with_comparison
    unit = params.entry_law.unit_modulus
    wanted = list(ModelKind) if with_comparison else [model]  # C first, then D C D
    assert len(solves) == (1 if unit else len(wanted))  # D = I by the law: one matrix, one solve
    assert len({address for address, _ in solves}) == 1
    assert (other is eigs) is (unit and with_comparison)
    # each solve sees its model's Gram bitwise, so a covariance-only request never solves C
    for (_, entries), solved in zip(solves, wanted[: len(solves)], strict=True):
        assert entries.tobytes() == gram_out_of_place(sample, params.tau, solved).tobytes()
    for kind, w in spectra.items():
        assert w.tobytes() == np.linalg.eigvalsh(gram_out_of_place(sample, params.tau, kind)).tobytes()
    if model is ModelKind.CORRELATION and not with_comparison:
        assert d2 is None
    elif unit:
        assert d2.tobytes() == np.ones(params.sample_count).tobytes()
    else:
        assert d2.tobytes() == np.prod(sample.level_norms / params.n, axis=1).tobytes()


@pytest.mark.parametrize("law", ["complex_gaussian", "real_gaussian", "forged"])
def test_the_covariance_gram_does_not_depend_on_the_request(monkeypatch, law):
    received = []  # the bytes of each buffer the solver is handed
    solve = tensormp.gram._solve_in_place
    monkeypatch.setattr(tensormp.gram, "_solve_in_place", lambda gram: received.append(gram.tobytes()) or solve(gram))
    samples = _forged_real_valued_samples() if law == "forged" else [_two_point_sample(law, seed) for seed in (1, 4)]
    for sample in samples:
        received.clear()
        spectra_of(sample, ModelKind.COVARIANCE)
        spectra_of(sample, ModelKind.CORRELATION, with_comparison=True)
        spectra_of(sample, ModelKind.COVARIANCE, with_comparison=True)
        covariance_only, correlation, covariance, correlation_again, covariance_again = received
        assert covariance == covariance_only == covariance_again
        assert correlation == correlation_again
        assert correlation != covariance


@pytest.mark.parametrize("law", list(EntryLaw))
def test_a_covariance_point_with_comparison_swaps_the_correlation_points_spectra(law):
    point = make_params(9, 2, 40 / 81, entry_law=law, tau=TWO_POINT_TAU, seed=7)
    eigs, other, d2 = model_spectra(point, 0, with_comparison=True)
    swapped = model_spectra(dataclasses.replace(point, model=ModelKind.COVARIANCE), 0, with_comparison=True)
    assert as_bytes(swapped) == as_bytes((other, eigs, d2))
    assert (swapped[1] is swapped[0]) == (other is eigs) == point.entry_law.unit_modulus


@pytest.mark.parametrize("tau", ["constant_one", TWO_POINT_TAU])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("m", [1, _PANEL_ROWS - 1, _PANEL_ROWS, _PANEL_ROWS + 1, 205])
@pytest.mark.parametrize("with_comparison", [False, True])
@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("law", list(EntryLaw))
def test_model_spectra_never_reads_an_unwritten_entry_of_a_reused_buffer(law, model, with_comparison, m, k, tau):
    # a buffer left full of NaN, +-1e308 or -0.0 gives the fresh block's bytes: a NaN read
    # would spread, and an overflow (a real law's missing zero fill) is an error here
    params = make_params(6, k, m / 6**k, model=model, entry_law=law, tau=tau, seed=5)
    assert params.sample_count == m
    expected = model_spectra(params, 0, with_comparison=with_comparison)
    buffer = np.empty(206**2, dtype=np.complex128)  # larger than any Gram here, as a sweep's is
    for fill in (np.nan, 1e308, -1e308, -0.0):
        buffer.view(np.float64).fill(fill)
        spectra = model_spectra(params, 0, with_comparison=with_comparison, buffer=buffer)
        assert as_bytes(spectra) == as_bytes(expected)
        for w in spectra:  # the results are fresh arrays, not views of the buffer
            assert w is None or not np.shares_memory(w, buffer)


def test_esd_counting_example():
    dist = esd(np.array([1.2, 0.9, 0.9]), 4)
    assert dist.zero_mass == 0.25
    assert dist.evaluate(0.0) == 0.25
    assert dist.evaluate(1.0) == 0.75
    assert dist.evaluate(1.2) == 1.0
    assert dist.evaluate(-0.1) == 0.0


def test_a_distribution_compares_and_hashes_by_identity():
    # the generated __eq__ over the atoms array would raise on its ambiguous truth value
    first, second = esd(np.array([1.0, 2.0]), 2), esd(np.array([1.0, 2.0]), 2)
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2


def test_esd_full_rank_and_degenerate_step():
    dist = esd(np.array([1.0, 1.0]), 2)
    assert dist.zero_mass == 0.0
    assert dist.evaluate(0.999) == 0.0
    assert dist.evaluate(1.0) == 1.0


def test_esd_clamps_small_negatives_only():
    dist = esd(np.array([-1e-12, 1.0, 5.0]), 3)
    assert dist.atoms[0] == 0.0
    with pytest.raises(ValueError, match="clamp floor"):
        esd(np.array([-1.0, 1.0, 5.0]), 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_esd_rejects_a_non_finite_eigenvalue(bad):
    with pytest.raises(ValueError, match="1 of 3 eigenvalues are not finite"):
        esd(np.array([0.5, bad, 1.0]), 3)
    with pytest.raises(ValueError, match="not finite"):
        esd(np.array([0.0, 0.5, bad]), 2)  # before the rank bound reads the structural zero


def test_esd_rank_bound_for_m_above_ambient():
    params = make_params(2, 1, 1.5, seed=3)  # N=2, m=3
    sample = sample_base(params, 0)
    w = eigenvalues(build_correlation_gram(sample))
    dist = esd(w, params.ambient_dim)
    assert len(dist.atoms) == 2
    assert dist.zero_mass == 0.0
    assert dist.evaluate(np.max(w)) == 1.0
    with pytest.raises(ValueError, match="rank bound"):
        esd(np.array([0.5, 1.0, 2.0]), 2)


def test_basis_tensor_dense_matrix():
    sample = forged_sample([[[1.0, 0.0], [0.0, 1.0]]])
    dense = materialize_dense(sample, ModelKind.CORRELATION)
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
    gram = build_correlation_gram(sample)
    tensors = [tensor_vector(sample, alpha) for alpha in range(2)]
    for a in range(2):
        for b in range(2):
            direct = np.vdot(tensors[b], tensors[a]) / (
                np.linalg.norm(tensors[a]) * np.linalg.norm(tensors[b])
            )
            assert gram[a, b] == pytest.approx(direct, abs=1e-12)


def test_gram_and_dense_share_nonzero_spectrum():
    for model in ModelKind:
        for law in ("complex_gaussian", "real_gaussian", "rademacher"):
            params = make_params(3, 2, 4 / 9, model=model, entry_law=law, seed=6)
            sample = sample_base(params, 0)
            dense = materialize_dense(sample, model)
            nz_dense = np.sort(nonzero_eigenvalues(eigenvalues(dense)))
            nz_gram = np.sort(nonzero_eigenvalues(model_spectra(params, 0)[0]))
            assert len(nz_dense) == len(nz_gram)
            assert nz_dense == pytest.approx(nz_gram, abs=1e-9)


def test_dense_trace_equals_tau_sum():
    params = make_params(3, 2, 4 / 9, tau={"kind": "explicit", "values": [1.0, 2.0, 0.5, 1.5]}, seed=2)
    sample = sample_base(params, 0)
    dense = materialize_dense(sample, ModelKind.CORRELATION)
    assert np.trace(dense).real == pytest.approx(5.0, abs=1e-10)
    assert abs(np.trace(dense).imag) <= 1e-12


def test_dense_reads_a_model_named_by_its_string():
    sample = sample_base(make_params(3, 2, 4 / 9, seed=2), 0)  # Gaussian: the two models differ
    for model in ModelKind:
        assert np.array_equal(materialize_dense(sample, model.value), materialize_dense(sample, model))
    with pytest.raises(ValueError, match="'wishart' is not a valid ModelKind"):
        materialize_dense(sample, "wishart")


def test_dense_cap_enforced():
    params = make_params(2, 13, 1 / 2**13, seed=0)  # N = 8192 > 4096
    sample = sample_base(params, 0)
    with pytest.raises(ValueError, match="dense cap"):
        materialize_dense(sample, ModelKind.CORRELATION)


def test_normalized_level_gram_matches_correlation():
    params = make_params(8, 3, 0.1, seed=12)
    sample = sample_base(params, 0)
    a = build_normalized_level_gram(sample)
    b = build_correlation_gram(sample)
    assert np.max(np.abs(a - b)) <= 1e-12


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
        eigs = eigenvalues(build_correlation_gram(sample_base(params, replica)))
        assert np.array_equal(loaded[replica], np.maximum(eigs, 0.0))  # repr round-trips exactly
