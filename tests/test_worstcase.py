"""Extremal instances: construction, exact rates, tightness, divergence."""

import math

import numpy as np
import pytest

from proxsplit.prox import IndicatorZero, Quadratic, Zero
from proxsplit.rates import Regularity, contraction_factor, rate_bound
from proxsplit.splitting import dr_step
from proxsplit.worstcase import (
    adversarial_case,
    build,
    divergence_distances,
    dual_constants,
    dual_verify_point,
    exact_rate,
    verify_grid,
    verify_point,
)

REG = Regularity(sigma=1.0, beta=4.0)


class TestBuild:
    def test_primal_g1(self):
        inst = build(REG, "g1", "primal", coordinate=2)
        assert isinstance(inst.f, Quadratic)
        assert np.allclose(inst.f.Q, np.diag([4.0, 1.0]))
        assert isinstance(inst.g, Zero)
        assert np.array_equal(inst.z0, [0.0, 1.0])
        assert np.array_equal(inst.fixed_point, np.zeros(2))

    def test_primal_g2(self):
        inst = build(REG, "g2", "primal", coordinate=1)
        assert isinstance(inst.g, IndicatorZero)
        assert np.array_equal(inst.z0, [1.0, 0.0])

    def test_dual_constants(self):
        dual = dual_constants(REG, theta=1.0, zeta=3.0)
        assert dual.sigma_hat == pytest.approx(0.25)
        assert dual.beta_hat == pytest.approx(9.0)

    def test_dual_problem_shape_and_conjugate_pairing(self):
        inst = build(REG, "g1", "dual", theta=1.0, zeta=3.0, coordinate=2)
        assert inst.problem is not None
        assert np.allclose(inst.problem.A, np.diag([1.0, 3.0]))
        assert np.allclose(inst.problem.B, -np.eye(2))
        # dual variant g1 (zero) corresponds to the primal origin indicator
        assert isinstance(inst.problem.g, IndicatorZero)
        inst2 = build(REG, "g2", "dual", theta=1.0, zeta=3.0, coordinate=2)
        assert isinstance(inst2.problem.g, Zero)

    def test_dual_layout_flip(self):
        # the soft (sigma_hat) curvature sits first in the dual coordinate
        soft = build(REG, "g1", "dual", theta=1.0, zeta=3.0, coordinate=2)
        stiff = build(REG, "g1", "dual", theta=1.0, zeta=3.0, coordinate=1)
        assert np.array_equal(soft.z0, [1.0, 0.0])
        assert np.array_equal(stiff.z0, [0.0, 1.0])

    def test_dual_requires_ordered_gains(self):
        with pytest.raises(ValueError):
            build(REG, "g1", "dual", theta=3.0, zeta=1.0)


class TestExactRate:
    def test_matches_bound_below_kink(self):
        gamma, alpha = 0.3, 0.8  # gamma <= 1/sqrt(beta sigma) = 0.5
        delta = contraction_factor(REG, gamma)
        got = exact_rate(REG, "g1", gamma, alpha, coordinate=2)
        assert got == pytest.approx(rate_bound(delta, alpha), abs=1e-15)

    def test_one_third_at_optimum(self):
        got = exact_rate(REG, "g1", 0.5, 1.0, coordinate=2)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_negative_relaxation_does_not_contract(self):
        got = exact_rate(REG, "g1", 0.3, -0.1, coordinate=2)
        assert got >= 1.0

    def test_all_four_cases_attain_the_bound(self):
        kink = 1.0 / math.sqrt(REG.beta * REG.sigma)
        combos = [
            (0.8, 0.5 * kink), (1.2, 2.0 * kink),
            (0.8, 2.0 * kink), (1.2, 0.5 * kink),
            (1.0, kink), (0.5, kink),
        ]
        for alpha, gamma in combos:
            variant, z0, coordinate = adversarial_case(alpha, gamma, REG)
            delta = contraction_factor(REG, gamma)
            got = exact_rate(REG, variant, gamma, alpha, coordinate)
            assert got == pytest.approx(rate_bound(delta, alpha), abs=1e-12)


class TestAdversarialCase:
    def test_case_i(self):
        variant, z0, coord = adversarial_case(0.8, 0.3, REG)
        assert (variant, coord) == ("g1", 2)
        assert np.array_equal(z0, [0.0, 1.0])

    def test_case_ii(self):
        variant, z0, coord = adversarial_case(1.2, 0.8, REG)
        assert (variant, coord) == ("g1", 1)
        assert np.array_equal(z0, [1.0, 0.0])

    def test_case_iv(self):
        variant, z0, coord = adversarial_case(1.2, 0.3, REG)
        assert (variant, coord) == ("g2", 2)
        assert np.array_equal(z0, [0.0, 1.0])

    def test_case_iii(self):
        variant, z0, coord = adversarial_case(0.8, 0.8, REG)
        assert (variant, coord) == ("g2", 1)


class TestLinearity:
    def test_single_step_reproduces_scalar_recurrence(self):
        for variant in ("g1", "g2"):
            for coordinate, lam in ((1, REG.beta), (2, REG.sigma)):
                for gamma, alpha in ((0.3, 0.9), (0.5, 1.0), (2.0, 1.1)):
                    inst = build(REG, variant, "primal",
                                 coordinate=coordinate)
                    z_next, _, _ = dr_step(inst.f, inst.g, gamma, alpha,
                                           inst.z0)
                    base = (1 - gamma * lam) / (1 + gamma * lam)
                    factor = (1 - alpha) + alpha * base if variant == "g1" \
                        else (1 - alpha) - alpha * base
                    assert np.allclose(z_next, factor * inst.z0, atol=1e-14)


class TestVerification:
    def test_point_measured_equals_exact(self):
        row = verify_point(4.0, 1.0, 0.5, 1.0)
        assert row["max_abs_diff"] <= 1e-12
        assert row["measured_rate"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert row["exact_rate"] == pytest.approx(row["bound"], abs=1e-12)

    def test_grid_tightness(self):
        rows = verify_grid()
        assert len(rows) == 36
        for row in rows:
            assert row["max_abs_diff"] <= 1e-10, row
            assert abs(row["exact_rate"] - row["bound"]) <= 1e-12, row

    def test_divergence_outside_interval(self):
        for kappa, ratio in ((4.0, 1.0), (25.0, 0.2), (100.0, 5.0)):
            reg = Regularity(1.0, kappa)
            gamma = ratio / math.sqrt(reg.beta * reg.sigma)
            dist = divergence_distances(reg.beta, reg.sigma, gamma)
            assert len(dist) == 101
            assert np.all(dist[1:] >= dist[:-1] * (1 - 1e-12))

    def test_dual_point_five_sevenths(self):
        row = dual_verify_point(4.0, 1.0, 1.0, 3.0, 2.0 / 3.0, 1.0)
        assert row["measured_rate"] == pytest.approx(5.0 / 7.0, abs=1e-8)
        assert row["max_abs_diff"] <= 1e-8

    def test_dual_point_beyond_cap_reports_instead_of_raising(self):
        # alpha 5 at the dual gamma* of kappa 100 overflows within 400 steps
        row = dual_verify_point(100.0, 1.0, 1.0, 1.0, 10.0, 5.0, iters=400)
        assert row["bound"] > 1.0
        assert row["measured_rate"] == pytest.approx(row["exact_rate"],
                                                     rel=1e-12)

    def test_dual_grid_tightness(self):
        # constrained instances measured through the primal iteration
        for kappa in (4.0, 25.0):
            reg = Regularity(1.0, kappa)
            for theta, zeta in ((1.0, 2.0), (0.5, 3.0)):
                dual = dual_constants(reg, theta, zeta)
                gamma_star = 1.0 / math.sqrt(dual.sigma_hat * dual.beta_hat)
                for gamma in (0.2 * gamma_star, gamma_star, 5 * gamma_star):
                    delta = contraction_factor(dual.as_regularity(), gamma)
                    for alpha in (0.5, 1.0, 0.99 * 2 / (1 + delta)):
                        row = dual_verify_point(reg.beta, reg.sigma, theta,
                                                zeta, gamma, alpha)
                        assert row["max_abs_diff"] <= 1e-8, row
                        assert abs(row["exact_rate"] - row["bound"]) <= 1e-12
