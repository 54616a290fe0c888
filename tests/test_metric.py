"""Metric selection: objectives, equilibration, step-size consistency."""

import warnings

import numpy as np
import pytest

from proxsplit.admm import EqConstrainedProblem
from proxsplit.bench import (LassoSpec, gen_lasso, lasso_condition_report,
                             lasso_metric, mpc_metric_objective,
                             problem_dual_regularity)
from proxsplit.errors import RankDeficiencyError
from proxsplit.linmetric import DiagonalMetric
from proxsplit.metric import (
    PSEUDO_ZERO_TOL,
    dual_condition_number,
    gamma_from_metric,
    pseudo_condition_of,
    select_diagonal_metric,
)
from proxsplit.prox import Quadratic, QuadraticAffine, Zero
from proxsplit.rates import optimal_parameters


def pinv_objective(metric, a, q):
    """Pseudo condition objective of E A Q^+ A^T E^T, Q^+ by numpy's pinv
    with eigenvalues below ``PSEUDO_ZERO_TOL * lambda_max`` counted zero."""
    s = a @ np.linalg.pinv(q, rcond=PSEUDO_ZERO_TOL, hermitian=True) @ a.T
    return pseudo_condition_of(metric, 0.5 * (s + s.T))


class TestDualConditionNumber:
    def test_identity_metric_example(self):
        obj = dual_condition_number(DiagonalMetric.identity(2),
                                    np.diag([1.0, 3.0]), np.eye(2))
        assert obj.value == pytest.approx(9.0, rel=1e-10)

    def test_perfect_equilibration(self):
        e = DiagonalMetric(np.array([1.0, 1.0 / 3.0]))
        obj = dual_condition_number(e, np.diag([1.0, 3.0]), np.eye(2))
        assert obj.value == pytest.approx(1.0, rel=1e-10)

    def test_diagonal_case_is_exactly_equilibrable(self, rng):
        h = np.diag(rng.uniform(0.5, 4.0, size=2))
        a = np.diag(rng.uniform(0.5, 4.0, size=2))
        s = a @ np.linalg.inv(h) @ a.T
        e = DiagonalMetric(1.0 / np.sqrt(np.diag(s)))
        obj = dual_condition_number(e, a, h)
        assert obj.value == pytest.approx(1.0, rel=1e-10)

    def test_rank_deficiency_raises(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RankDeficiencyError):
            dual_condition_number(DiagonalMetric.identity(2), a, np.eye(2))
        # a singular H is refused by name, not by numpy's solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficiencyError) as err:
                dual_condition_number(DiagonalMetric.identity(2), np.eye(2),
                                      np.zeros((2, 2)))
        assert str(err.value) == "singular H in S = A H^-1 A^T"

    def test_matches_the_problem_memo_bit_for_bit(self):
        problem = gen_lasso(LassoSpec(n=50, m=75, nnz_per_row=10))
        e = lasso_metric(problem)
        obj = dual_condition_number(e, problem.A, problem.f.Q)
        memo = lasso_condition_report(problem, e)
        assert (obj.numerator, obj.denominator, obj.value) == (
            memo.numerator, memo.denominator, memo.value)


class TestPseudoConditionNumber:
    def test_rank_one_curvature(self):
        obj = pinv_objective(DiagonalMetric.identity(2), np.eye(2),
                             np.diag([1.0, 0.0]))
        assert obj.value == pytest.approx(1.0, rel=1e-10)

    def test_identity(self):
        obj = pinv_objective(DiagonalMetric.identity(2), np.eye(2), np.eye(2))
        assert obj.value == pytest.approx(1.0, rel=1e-10)

    def test_diag_1_2(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        obj = pinv_objective(DiagonalMetric.identity(2), a, np.eye(2))
        assert obj.value == pytest.approx(4.0, rel=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(RankDeficiencyError):
            pseudo_condition_of(DiagonalMetric.identity(2), np.zeros((2, 2)))


class TestSelectDiagonalMetric:
    def test_diagonal_is_equilibrated_exactly(self):
        e = select_diagonal_metric(np.diag([1.0, 100.0]))
        assert np.allclose(e.diag, [1.0, 0.1], rtol=1e-12)
        obj = pseudo_condition_of(e, np.diag([1.0, 100.0]))
        assert obj.value == pytest.approx(1.0, rel=1e-10)

    def test_identity_is_fixed_point(self):
        e = select_diagonal_metric(np.eye(3))
        assert np.allclose(e.diag, np.ones(3))

    def test_symmetric_rows_no_op_up_to_scale(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        e = select_diagonal_metric(s)
        assert e.diag[0] == pytest.approx(e.diag[1], rel=1e-12)
        obj = pseudo_condition_of(e, s)
        assert obj.value == pytest.approx(3.0, rel=1e-10)

    def test_never_degrades(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = rng.normal(size=(n, n))
            s = m @ m.T + 0.1 * np.eye(n)
            base = pseudo_condition_of(DiagonalMetric.identity(n), s).value
            e = select_diagonal_metric(s)
            assert pseudo_condition_of(e, s).value <= base * (1 + 1e-10)

    def test_zero_row_exact_mode_rejected(self):
        s = np.diag([1.0, 0.0])
        with pytest.raises(RankDeficiencyError):
            select_diagonal_metric(s, mode="exact")
        e = select_diagonal_metric(s, mode="heuristic")
        assert e.diag[1] == 1.0  # untouched coordinate


class TestGammaFromMetric:
    def test_examples(self):
        obj = pseudo_condition_of(DiagonalMetric.identity(2),
                                  np.diag([4.0, 1.0]))
        assert gamma_from_metric(obj) == pytest.approx(0.5)
        obj1 = pseudo_condition_of(DiagonalMetric.identity(2), np.eye(2))
        assert gamma_from_metric(obj1) == pytest.approx(1.0)

    def test_consistent_with_dual_optimal_step(self, rng):
        # the metric-space optimal step equals 1/sqrt(beta_hat sigma_hat)
        a = rng.normal(size=(3, 5))
        m = rng.normal(size=(5, 5))
        h = m @ m.T + np.eye(5)
        e = DiagonalMetric(rng.uniform(0.5, 2.0, size=3))
        obj = dual_condition_number(e, a, h)
        problem = EqConstrainedProblem(f=Quadratic(h), g=Zero(3), A=a,
                                       B=-np.eye(3), c=np.zeros(3))
        dual = problem_dual_regularity(problem, e)
        gamma_star = optimal_parameters(dual.as_regularity())[0]
        assert gamma_from_metric(obj) == pytest.approx(gamma_star,
                                                       rel=1e-12)

    def test_scale_invariance_of_objective(self, rng):
        a = rng.normal(size=(3, 4))
        m = rng.normal(size=(4, 4))
        h = m @ m.T + np.eye(4)
        e = DiagonalMetric(rng.uniform(0.5, 2.0, size=3))
        base = dual_condition_number(e, a, h).value
        for t in (0.1, 3.0, 42.0):
            scaled = DiagonalMetric(t * e.diag)
            assert dual_condition_number(scaled, a, h).value == (
                pytest.approx(base, rel=1e-12))


def kkt_block_objective(q, lc, a):
    """The KKT-block heuristic on min 0.5 x^T Q x s.t. Lc x = 0, A x = y."""
    f = QuadraticAffine(q, None, lc, np.zeros(len(lc)))
    p = a.shape[0]
    return mpc_metric_objective(EqConstrainedProblem(
        f=f, g=Zero(p), A=a, B=-np.eye(p), c=np.zeros(p)))


class TestHeuristicAffineCase:
    def test_no_constraints_reduces_to_inverse_hessian(self, rng):
        q = np.diag([2.0, 8.0])
        a = np.eye(2)
        obj = kkt_block_objective(q, np.zeros((0, 2)), a)
        # A Q^-1 A^T = diag(0.5, 0.125); equilibration brings it to ratio 1
        assert obj.value == pytest.approx(1.0, rel=1e-8)
        assert obj.mode == "heuristic_p11"

    def test_projector_structure(self):
        obj = kkt_block_objective(np.eye(2), np.array([[1.0, 0.0]]),
                                    np.eye(2))
        # A P11 A^T = diag(0, 1): single nonzero eigenvalue
        assert obj.value == pytest.approx(1.0, rel=1e-10)

    def test_exact_and_heuristic_agree_when_definite(self, rng):
        # positive definite curvature: smallest nonzero = smallest
        m = rng.normal(size=(3, 3))
        q = m @ m.T + np.eye(3)
        a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        e = DiagonalMetric(rng.uniform(0.5, 2.0, size=3))
        exact = dual_condition_number(e, a, q)
        s = a @ np.linalg.inv(q) @ a.T
        heur = pseudo_condition_of(e, 0.5 * (s + s.T))
        assert heur.value == pytest.approx(exact.value, rel=1e-8)
        # same through the pseudo-inverse
        heur2 = pinv_objective(e, a, q)
        assert heur2.value == pytest.approx(exact.value, rel=1e-8)

    def test_rank_deficient_pinv_counts_nonzero_eigenvalues(self, rng):
        basis = rng.normal(size=(4, 2))
        q = basis @ basis.T  # rank deficient
        a = rng.normal(size=(3, 4))
        obj = pinv_objective(DiagonalMetric.identity(3), a, q)
        s = a @ np.linalg.pinv(q, rcond=PSEUDO_ZERO_TOL, hermitian=True) @ a.T
        eigs = np.linalg.eigvalsh(0.5 * (s + s.T))  # one zero, two positive
        assert obj.value == pytest.approx(eigs[2] / eigs[1], rel=1e-8)

    def test_report_schema(self, rng):
        obj = kkt_block_objective(np.diag([2.0, 8.0]), np.zeros((0, 2)),
                                    np.eye(2))
        report = obj.report()
        assert set(report) == {"mode", "E", "lambda_max", "lambda_min",
                               "condition_number", "gamma"}
        assert all(v > 0 for v in report["E"])
        assert report["gamma"] == pytest.approx(gamma_from_metric(obj))
