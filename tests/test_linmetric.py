"""JSON matrix format, spectral summaries, KKT block, singular values."""

import hashlib
import json
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit import linmetric
from proxsplit.bench import LassoSpec, MpcSpec, gen_lasso, gen_mpc
from proxsplit.prox import (IndicatorAffine, IndicatorZero, PwlPenalty,
                            Quadratic, Separable, Zero)
from proxsplit.errors import (
    DimensionMismatchError,
    EigenConvergenceError,
    NonSymmetricError,
    RankDeficiencyError,
    SingularKktError,
)
from proxsplit.linmetric import (
    DiagonalMetric,
    MetricSpectra,
    SpectralSummary,
    _as_dense,
    _check_symmetric,
    _eigvalsh,
    _row_rank_svdvals,
    kkt_p11,
    matrix_from_json,
    matrix_to_json,
    spectral_summary,
)


class TestSpectralSummary:
    def test_identity(self):
        s = spectral_summary(np.eye(3))
        assert (s.lambda_max, s.lambda_min, s.lambda_min_pos) == (1, 1, 1)

    def test_diagonal_with_zero(self):
        s = MetricSpectra(np.diag([4.0, 1.0, 0.0])).summary(None, 1e-12)
        assert s.lambda_max == pytest.approx(4.0, rel=1e-12)
        assert s.lambda_min == 0.0
        assert s.lambda_min_pos == pytest.approx(1.0, rel=1e-12)

    def test_gram_of_diag_1_2(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        s = spectral_summary(a @ a.T)
        assert s.lambda_max == pytest.approx(4.0, rel=1e-8)
        assert s.lambda_min == pytest.approx(1.0, rel=1e-8)
        assert s.lambda_min_pos == pytest.approx(1.0, rel=1e-8)

    def test_eigenvalues_accurate_on_random_psd(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            m = rng.normal(size=(n, n))
            s = m @ m.T
            expect = np.linalg.eigvalsh(s)
            got = spectral_summary(s)
            assert got.lambda_max == pytest.approx(expect[-1], rel=1e-8)

    def test_identity_metric_scaling_is_exact(self, rng):
        m = rng.normal(size=(5, 5))
        s = m @ m.T
        scaled = DiagonalMetric.identity(5).scale_spectrum_matrix(s)
        raw = spectral_summary(s)
        via = spectral_summary(scaled)
        assert raw == via

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricError):
            spectral_summary(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            spectral_summary(np.diag([1.0, -1.0]))

    def test_zero_matrix(self):
        s = spectral_summary(np.zeros((3, 3)))
        assert s.lambda_max == 0.0
        assert s.lambda_min_pos == 0.0


KINDS = ["psd", "indefinite", "rank_deficient", "diagonal"]


def sample_symmetric(n, kind, seed, scale, negative_zeros):
    """A symmetric n x n matrix of one kind, times ``scale``; with
    ``negative_zeros`` a random symmetric set of entries becomes -0.0."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    if kind == "psd":
        s = m @ m.T
    elif kind == "indefinite":
        s = m + m.T
    elif kind == "rank_deficient":
        b = m[:, :int(rng.integers(0, n))]  # rank 0 (all zero) to n - 1
        s = b @ b.T
    else:
        s = np.diag(rng.normal(size=n))
    s = 0.5 * (s + s.T) * scale
    if negative_zeros:
        mask = rng.random((n, n)) < 0.3
        s[mask | mask.T] = -0.0
    return s


class TestEigvalsh:
    """The bound syevr kernel returns scipy.linalg.eigh's eigenvalues, by
    bytes, and refuses what eigh refuses."""

    @given(n=st.integers(1, 60), kind=st.sampled_from(KINDS),
           seed=st.integers(0, 2**32 - 1), exponent=st.integers(-150, 150),
           negative_zeros=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_eigh_by_bytes(self, n, kind, seed, exponent,
                                  negative_zeros):
        s = sample_symmetric(n, kind, seed, 10.0 ** exponent, negative_zeros)
        expect = scipy.linalg.eigh(s, eigvals_only=True)
        got = _eigvalsh(s)
        assert got.dtype == expect.dtype and got.shape == (n,)
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_refused_with_eighs_message(self, bad):
        s = np.eye(3)
        s[1, 1] = bad
        with pytest.raises(ValueError) as theirs:
            scipy.linalg.eigh(s, eigvals_only=True)
        with pytest.raises(ValueError) as ours:
            _eigvalsh(s)
        assert str(ours.value) == str(theirs.value) == (
            "array must not contain infs or NaNs")

    @pytest.mark.parametrize("call", [
        _eigvalsh,
        spectral_summary,
        lambda s: MetricSpectra(s).summary(None, 0.0),
        Quadratic,
    ], ids=["kernel", "spectral_summary", "summary", "quadratic"])
    def test_empty_matrix_is_refused_by_name(self, call):
        with pytest.raises(DimensionMismatchError,
                           match="expected a nonempty matrix"):
            call(np.zeros((0, 0)))

    def test_failed_convergence_is_named(self, monkeypatch):
        real = linmetric._SYEVR
        monkeypatch.setattr(linmetric, "_SYEVR",
                            lambda *a, **k: (*real(*a, **k)[:4], 3))
        with pytest.raises(EigenConvergenceError, match="info 3"):
            spectral_summary(np.eye(2))


def where_min_summary(s, zero_tol):
    """spectral_summary as it was computed before the kernel, kept as the
    oracle: scipy.linalg.eigh, the clamp by np.where, and two minima."""
    s = _check_symmetric(_as_dense(s))
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    eigs = scipy.linalg.eigh(s, eigvals_only=True)
    lam_max = float(eigs[-1])
    tol_abs = zero_tol * lam_max
    if lam_max < 0 or eigs[0] < -max(tol_abs, 1e-12 * max(lam_max, 1.0)):
        raise ValueError("matrix is not positive semidefinite")
    clamped = np.where(np.abs(eigs) <= tol_abs, 0.0, np.maximum(eigs, 0.0))
    positive = clamped[clamped > 0.0]
    return SpectralSummary(
        lambda_max=lam_max,
        lambda_min=float(clamped.min()) if clamped.size else 0.0,
        lambda_min_pos=float(positive.min()) if positive.size else 0.0)


def outcome(call):
    """The summary's floats by bytes, or the type and text of its error."""
    try:
        got = call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return np.array([got.lambda_max, got.lambda_min,
                     got.lambda_min_pos]).tobytes()


TOL = 1e-13
SUMMARY_CASES = {
    "identity": (np.eye(3), 1e-10),
    "repeated": (3.0 * np.eye(4), 1e-10),
    "singular_zero_tol_0": (np.diag([2.0, 0.0, 1.0]), 0.0),
    "psd_zero_tol_0": (np.array([[2.0, 1.0], [1.0, 2.0]]), 0.0),
    "all_zero": (np.zeros((3, 3)), 1e-10),
    "all_zero_zero_tol_0": (np.zeros((3, 3)), 0.0),
    "all_negative_zero": (np.full((3, 3), -0.0), 0.0),
    "all_zero_tol_inf": (np.zeros((2, 2)), np.inf),
    "tol_inf": (np.diag([1.0, 2.0]), np.inf),
    "at_plus_tol": (np.diag([1.0, TOL, 0.5]), TOL),
    "at_minus_tol": (np.diag([1.0, -TOL, 0.5]), TOL),
    "above_tol": (np.diag([1.0, np.nextafter(TOL, 1.0), 0.5]), TOL),
    "below_minus_tol": (np.diag([1.0, -np.nextafter(TOL, 1.0), 0.5]), TOL),
    "all_at_tol": (np.diag([1.0, TOL, TOL]), 1.0),
    "slightly_negative": (np.diag([1.0, -1e-11, 0.5]), TOL),
    "negative_definite": (-np.eye(2), 1e-10),
    "negative_tol": (np.eye(2), -1e-10),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e-10),
    "inf": (np.diag([np.inf, 1.0]), 1e-10),
    "asymmetric": (np.array([[1.0, 2.0], [0.0, 1.0]]), 1e-10),
}


class TestSummaryClassification:
    """The summary reads its extremes off the ascending eigenvalues and
    returns the floats, and raises the errors, of the where/min oracle."""

    @pytest.mark.parametrize("case", sorted(SUMMARY_CASES))
    def test_matches_the_where_min_oracle(self, case):
        s, zero_tol = SUMMARY_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expect = outcome(lambda: where_min_summary(s, zero_tol))
            got = outcome(lambda: MetricSpectra(s).summary(None, zero_tol))
        assert got == expect
        if case in ("inf", "nan"):  # refused by name, before s - s.T
            assert got == (ValueError, "array must not contain infs or NaNs")
        if case.endswith("_tol"):  # the spectrum is the diagonal, exactly
            assert _eigvalsh(s).tobytes() == np.sort(np.diag(s)).tobytes()

    @given(n=st.integers(1, 30), kind=st.sampled_from(KINDS),
           seed=st.integers(0, 2**32 - 1), exponent=st.integers(-150, 150),
           negative_zeros=st.booleans(),
           zero_tol=st.sampled_from([0.0, 1e-16, 1e-12, 1e-10, 1e-9, 1e-6,
                                     0.1, 1.0, np.inf]),
           metric=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_matrices_match_the_oracle(self, n, kind, seed, exponent,
                                              negative_zeros, zero_tol,
                                              metric):
        s = sample_symmetric(n, kind, seed, 10.0 ** exponent, negative_zeros)
        e = (DiagonalMetric(np.random.default_rng(seed).uniform(0.5, 2.0, n))
             if metric else None)
        spectra = MetricSpectra(s)
        scaled = e.scale_spectrum_matrix(spectra.s) if e else spectra.s
        assert outcome(lambda: spectra.summary(e, zero_tol)) == outcome(
            lambda: where_min_summary(scaled, zero_tol))

    def test_nan_zero_tol_is_refused(self):
        with pytest.raises(ValueError, match="zero_tol must be >= 0"):
            MetricSpectra(np.eye(2)).summary(None, np.nan)

    def test_spectra_and_their_matrix_summarize_alike(self, rng):
        m = rng.normal(size=(4, 4))
        spectra = MetricSpectra(m @ m.T)
        assert spectral_summary(spectra) == spectral_summary(m @ m.T)


class TestKktP11:
    def test_identity_with_single_constraint(self):
        p11 = kkt_p11(np.eye(2), np.array([[1.0, 0.0]]))
        assert np.allclose(p11, np.diag([0.0, 1.0]), atol=1e-12)

    def test_no_constraints_is_inverse(self):
        p11 = kkt_p11(2.0 * np.eye(2), np.zeros((0, 2)))
        assert np.allclose(p11, 0.5 * np.eye(2), atol=1e-12)

    def test_diag_with_constraint_on_second(self):
        p11 = kkt_p11(np.diag([1.0, 2.0]), np.array([[0.0, 1.0]]))
        assert np.allclose(p11, np.diag([1.0, 0.0]), atol=1e-12)

    def test_block_identities_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            m = rng.normal(size=(n, n))
            q = m @ m.T + 0.5 * np.eye(n)
            l = rng.normal(size=(p, n))
            kkt = np.block([[q, l.T], [l, np.zeros((p, p))]])
            full = np.linalg.inv(kkt)
            p11 = kkt_p11(q, l)
            assert np.allclose(p11, full[:n, :n], atol=1e-8)
            p21 = full[n:, :n]
            assert np.allclose(q @ p11 + l.T @ p21, np.eye(n), atol=1e-8)
            assert np.allclose(l @ p11, np.zeros((p, n)), atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_l_is_refused_before_the_rank(self, capfd, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                kkt_p11(np.eye(2), [[bad, 1.0]])
        assert type(err.value) is ValueError
        assert str(err.value) == "array must not contain infs or NaNs"
        assert capfd.readouterr() == ("", "")  # no LAPACK complaint

    def test_singular_kkt_reports_rank(self):
        # duplicated constraint row makes L rank deficient
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularKktError) as err:
            kkt_p11(np.eye(2), l)
        assert err.value.rank is not None
        assert err.value.rank < err.value.size


class TestSmallestSingularValue:
    def test_examples(self):
        assert _row_rank_svdvals(np.diag([1.0, 3.0]))[-1] == pytest.approx(
            1.0, rel=1e-12)
        assert _row_rank_svdvals(np.eye(4))[-1] == pytest.approx(1.0)
        assert _row_rank_svdvals(np.array([[3.0, 4.0]]))[-1] == (
            pytest.approx(5.0, rel=1e-12))

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficiencyError):
            _row_rank_svdvals(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_matches_gram_eigenvalue(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 8))
            a = rng.normal(size=(m, n))
            theta = _row_rank_svdvals(a)[-1]
            lam = spectral_summary(a @ a.T).lambda_min
            assert theta**2 == pytest.approx(lam, rel=1e-8)

    def test_is_a_lower_bound_on_adjoint_norm(self, rng):
        a = rng.normal(size=(3, 6))
        theta = _row_rank_svdvals(a)[-1]
        for _ in range(50):
            mu = rng.normal(size=3)
            assert np.linalg.norm(a.T @ mu) >= theta * np.linalg.norm(
                mu) * (1 - 1e-10)


class TestMatrix:
    def test_triplet_roundtrip_and_canonicalization(self):
        dense = matrix_from_json({"rows": 2, "cols": 3, "triplets": [
            [0, 1, 2.0], [1, 2, -1.0], [0, 1, 3.0]]})
        assert dense[0, 1] == 5.0  # duplicates summed
        again = matrix_from_json(matrix_to_json(dense))
        assert np.array_equal(again, dense)

    def test_dense_json_roundtrip(self):
        m = np.array([[1.0, 0.0], [0.5, 2.0]])
        assert matrix_to_json(m) == {"rows": 2, "cols": 2, "triplets": [
            [0, 0, 1.0], [1, 0, 0.5], [1, 1, 2.0]]}
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2,
                              "triplets": [[2, 0, 1.0]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            matrix_to_json(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2,
                              "triplets": [[0, 0, float("nan")]]})

    def test_unallocatable_size_is_refused_by_name(self, monkeypatch):
        # numpy's MemoryError, simulated: no test allocates a large array
        def refuse(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate array with shape {shape}")

        monkeypatch.setattr(linmetric.np, "zeros", refuse)
        with pytest.raises(ValueError) as err:
            matrix_from_json({"rows": 10 ** 11, "cols": 2, "triplets": []})
        assert type(err.value) is ValueError
        assert str(err.value) == ("a matrix of rows=100000000000, cols=2 is "
                                  "too large to allocate")

    @pytest.mark.parametrize("make, digest", [
        (lambda: gen_lasso(LassoSpec(50, 75, 10, 0)),
         "c9b16b77c25916016d26fbfe9caafecdf2cbabf59e38f50f51bb4f91f2d85042"),
        (lambda: gen_mpc(MpcSpec(), np.zeros(4), np.array([0, 0, 0, 10.0])),
         "2060fecae5cf36fab61ad8867e08527aff619bcefd2b77ecdc0516cb2598e703"),
        (lambda: Separable([
            (0, 2, Zero(2)), (2, 3, IndicatorZero(1)),
            (3, 5, IndicatorAffine(np.array([[1.0, -2.0]]), [0.5])),
            (5, 8, PwlPenalty([-1.0, -0.5, 0.0], [1.0, 0.25, 2.0],
                              [1.0, 3.0, 0.5]))]),
         "3dc1d64565792b5cf14f41c92b6be532fa9d5890de6f7771fe25456fa9dfff21"),
    ], ids=["desk_lasso", "mpc", "other_kinds"])
    def test_wire_format_pinned(self, make, digest):
        text = json.dumps(make().to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCheckSymmetric:
    """0.5*(S + S^T) that overflows is refused by name, without a warning;
    every scale below that keeps the bits of the plain expression."""

    BIG = np.finfo(float).max

    @pytest.mark.parametrize("s", [
        np.diag([1e308, 1.0]),
        np.diag([2.0 ** 1023, 1.0]),
        np.array([[1.0, 1e308], [1e308, 1.0]]),
        np.array([[1.0, BIG], [BIG, 1.0]]),
    ], ids=["diag_1e308", "diag_2^1023", "off_1e308", "off_max"])
    def test_overflowing_symmetrization_is_named(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "symmetrized matrix 0.5*(S + S^T) overflows")):
                _check_symmetric(s)

    @pytest.mark.parametrize("s", [
        np.diag([np.inf, 1.0]),
        np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
    ], ids=["diag_inf", "off_neg_inf", "asym_nan"])
    def test_non_finite_entry_is_refused_before_the_difference(self, s):
        # s - s.T would warn on inf - inf; the input itself is at fault
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "array must not contain infs or NaNs")):
                _check_symmetric(s)

    @pytest.mark.parametrize("s", [
        np.diag([BIG / 2, 1.0]),
        np.array([[-BIG / 2, 1.0], [1.0, BIG / 2]]),
        np.array([[BIG, 0.0], [0.0, -BIG]]) * 0.5,
        np.array([[1e300, 3.0], [3.0 + 1e-6, 2.0]]),
        np.diag([1e-320, 5e-324]),
        np.zeros((0, 0)),
    ], ids=["half_max", "signed_half_max", "half_max_neg", "asym_1e300",
            "subnormal", "empty"])
    def test_largest_finite_sums_keep_their_bits(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _check_symmetric(s)
        assert got.tobytes() == (0.5 * (s + s.T)).tobytes()
        assert np.isfinite(got).all()


class TestDiagonalMetric:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DiagonalMetric(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DiagonalMetric(np.array([1.0, -2.0]))

    def test_scale_spectrum(self, rng):
        e = DiagonalMetric(np.array([2.0, 0.5, 1.5]))
        s = rng.normal(size=(3, 3))
        s = s + s.T
        expect = np.diag(e.diag) @ s @ np.diag(e.diag)
        assert np.allclose(e.scale_spectrum_matrix(s), expect, atol=1e-14)
