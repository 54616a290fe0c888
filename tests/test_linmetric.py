"""JSON matrix format, spectral summaries, KKT block, pseudo-inverse."""

import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from proxsplit.bench import LassoSpec, MpcSpec, gen_lasso, gen_mpc
from proxsplit.errors import (
    NonSymmetricError,
    RankDeficiencyError,
    SingularKktError,
)
from proxsplit.linmetric import (
    DiagonalMetric,
    _check_symmetric,
    kkt_p11,
    matrix_from_json,
    matrix_to_json,
    pseudo_inverse,
    smallest_singular_value,
    spectral_summary,
)


class TestSpectralSummary:
    def test_identity(self):
        s = spectral_summary(np.eye(3))
        assert (s.lambda_max, s.lambda_min, s.lambda_min_pos) == (1, 1, 1)

    def test_diagonal_with_zero(self):
        s = spectral_summary(np.diag([4.0, 1.0, 0.0]), zero_tol=1e-12)
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

    def test_singular_kkt_reports_rank(self):
        # duplicated constraint row makes L rank deficient
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularKktError) as err:
            kkt_p11(np.eye(2), l)
        assert err.value.rank is not None
        assert err.value.rank < err.value.size


class TestPseudoInverse:
    def test_diagonal_examples(self):
        q = np.diag([2.0, 0.0])
        assert np.allclose(pseudo_inverse(q) @ np.array([4.0, 0.0]),
                           [2.0, 0.0], atol=1e-12)
        assert np.allclose(pseudo_inverse(np.eye(3)) @ np.arange(3.0),
                           np.arange(3.0), atol=1e-12)
        # component outside the range is projected away
        assert np.allclose(pseudo_inverse(q) @ np.array([4.0, 3.0]),
                           [2.0, 0.0], atol=1e-12)

    def test_range_consistency(self, rng):
        for _ in range(10):
            n = 6
            basis = rng.normal(size=(n, 3))
            q = basis @ basis.T  # rank 3 psd
            v = q @ rng.normal(size=n)  # guaranteed in range(Q)
            qv = q @ (pseudo_inverse(q) @ v)
            assert np.allclose(qv, v, rtol=1e-8, atol=1e-10)

    def test_linearity_and_weak_inverse(self, rng):
        n = 5
        basis = rng.normal(size=(n, 2))
        q = basis @ basis.T
        v, w = rng.normal(size=n), rng.normal(size=n)
        lhs = pseudo_inverse(q) @ (2.0 * v - 3.0 * w)
        rhs = (2.0 * (pseudo_inverse(q) @ v)
               - 3.0 * (pseudo_inverse(q) @ w))
        assert np.allclose(lhs, rhs, atol=1e-10)
        qd = pseudo_inverse(q)
        assert np.allclose(qd @ q @ qd, qd, atol=1e-8)


class TestSmallestSingularValue:
    def test_examples(self):
        assert smallest_singular_value(np.diag([1.0, 3.0])) == pytest.approx(
            1.0, rel=1e-12)
        assert smallest_singular_value(np.eye(4)) == pytest.approx(1.0)
        assert smallest_singular_value(np.array([[3.0, 4.0]])) == (
            pytest.approx(5.0, rel=1e-12))

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficiencyError):
            smallest_singular_value(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_matches_gram_eigenvalue(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 8))
            a = rng.normal(size=(m, n))
            theta = smallest_singular_value(a)
            lam = spectral_summary(a @ a.T).lambda_min
            assert theta**2 == pytest.approx(lam, rel=1e-8)

    def test_is_a_lower_bound_on_adjoint_norm(self, rng):
        a = rng.normal(size=(3, 6))
        theta = smallest_singular_value(a)
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

    @pytest.mark.parametrize("make, digest", [
        (lambda: gen_lasso(LassoSpec(50, 75, 10, 0)),
         "c9b16b77c25916016d26fbfe9caafecdf2cbabf59e38f50f51bb4f91f2d85042"),
        (lambda: gen_mpc(MpcSpec(), np.zeros(4), np.array([0, 0, 0, 10.0])),
         "2060fecae5cf36fab61ad8867e08527aff619bcefd2b77ecdc0516cb2598e703"),
    ], ids=["desk_lasso", "mpc"])
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
