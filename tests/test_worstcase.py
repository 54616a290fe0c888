"""Extremal instances: construction, exact rates, tightness, divergence."""

import math
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxsplit import worstcase
from proxsplit.prox import IndicatorZero, Quadratic, Zero
from proxsplit.rates import (Regularity, contraction_factor,
                             optimal_parameters, rate_bound)
from proxsplit.splitting import dr_step
from proxsplit.worstcase import (
    _measured_columns,
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

    @pytest.mark.parametrize("theta, zeta", [(1.0, 3.0), (1.0, None),
                                             (None, 3.0)])
    def test_primal_refuses_dual_gains(self, theta, zeta):
        with pytest.raises(ValueError) as info:
            build(REG, "g1", "primal", theta=theta, zeta=zeta)
        assert str(info.value) == (
            "theta and zeta belong to the dual setting, got "
            f"theta={theta}, zeta={zeta} with 'primal'")

    @pytest.mark.parametrize("coordinate", [
        2.0, np.float64(1.0), True, False, 0, 3, np.int64(-1), "1", None])
    @pytest.mark.parametrize("call", [
        lambda c: build(REG, "g1", coordinate=c),
        lambda c: build(REG, "g1", "dual", theta=1.0, zeta=3.0, coordinate=c),
        lambda c: exact_rate(REG, "g1", 0.5, 1.0, c),
        lambda c: exact_rate(REG, "g3", 0.5, 1.0, c)],
        ids=["build", "build-dual", "exact_rate", "exact_rate-bad-variant"])
    def test_coordinate_is_the_integer_1_or_2(self, call, coordinate):
        # a float 2.0 would index np.eye and True (== 1) pass as the beta
        # axis; the coordinate is checked before the variant
        with pytest.raises(ValueError) as info:
            call(coordinate)
        assert str(info.value) == "coordinate must be 1 (beta) or 2 (sigma)"

    @pytest.mark.parametrize("coordinate", [1, 2])
    def test_numpy_integer_coordinate_is_the_int(self, coordinate):
        for kind in (np.int64, np.int32):
            assert np.array_equal(build(REG, "g2", coordinate=kind(
                coordinate)).z0, build(REG, "g2", coordinate=coordinate).z0)
            assert exact_rate(REG, "g2", 0.3, 0.8, kind(coordinate)) == \
                exact_rate(REG, "g2", 0.3, 0.8, coordinate)

    @pytest.mark.parametrize("call", [
        lambda: build(REG, "g3", coordinate=2),
        lambda: exact_rate(REG, "g3", 0.5, 1.0, 2)],
        ids=["build", "exact_rate"])
    def test_variant_is_refused_after_the_coordinate(self, call):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "variant must be one of ('g1', 'g2')"

    @pytest.mark.parametrize("call", [
        lambda: dual_constants(REG, 1.0, 1e200),
        lambda: dual_constants(REG, 1e200, 1e200),
        lambda: dual_constants(REG, 1.0, math.inf),
        lambda: dual_verify_point(4.0, 1.0, 1.0, 1e200, 0.5, 1.0)],
        ids=["zeta", "theta-and-zeta", "infinite-zeta", "dual_verify_point"])
    def test_dual_constants_past_the_largest_double_are_refused(self, call):
        # a float square past the largest double raises OverflowError; it
        # is refused as zeta = inf is
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "need 0 < sigma_hat <= beta_hat < inf"


class TestExactRate:
    def test_matches_bound_below_kink(self):
        gamma, alpha = 0.3, 0.8  # gamma <= 1/sqrt(beta sigma) = 0.5
        delta = contraction_factor(REG, gamma)
        got = exact_rate(REG, "g1", gamma, alpha, coordinate=2)
        assert got == pytest.approx(rate_bound(delta, alpha), abs=1e-15)

    @pytest.mark.parametrize("call", [
        lambda: exact_rate(REG, "g1", math.inf, 1.0, 1),
        lambda: adversarial_case(1.0, math.inf, REG)],
        ids=["exact_rate", "adversarial_case"])
    def test_infinite_gamma_is_refused_by_name(self, call):
        # unchecked, exact_rate gives NaN and adversarial_case a case
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "gamma must be positive and normal, got inf"

    @pytest.mark.parametrize("variant, alpha, want", [
        ("g1", 0.5, 0.0), ("g2", 0.5, 1.0), ("g1", 1.0, 1.0),
        ("g2", 1.0, 1.0), ("g1", 1.5, 2.0)])
    def test_overflowing_step_product_takes_the_limit(self, variant, alpha,
                                                      want):
        # gamma*beta = 1e310: (1 - inf)/(1 + inf) would be NaN; the
        # quotient's limit is -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exact_rate(Regularity(1.0, 1e300), variant, 1e10, alpha, 1)
        assert got == want

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
                    z_next, _, _ = dr_step(inst.f.prox_map(gamma),
                                           inst.g.prox_map(gamma), alpha,
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=1,
                max_size=9))
@example([0.5, math.inf]).via("even count with inf")
@example([math.inf, 0.25, 0.5]).via("odd count with inf")
@example([0.3, 0.1, 0.2, 0.4]).via("even count")
def test_measured_rate_is_numpy_median_to_the_bit(ratios):
    # the median of the valid ratios (here all of them, from iteration 1)
    # has np.median's bits: the middle element, or (a + b) / 2
    trace = SimpleNamespace(contraction_ratios=[math.nan] + ratios,
                            distances=[1.0] * (len(ratios) + 1))
    got = _measured_columns(trace, REG, "g1", 0.5, 1.0, 2)["measured_rate"]
    with np.errstate(over="ignore"):  # (a + b) of two huge ratios
        want = float(np.median(ratios))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestOneAdversarialRun:
    """The three verifiers share one body, which reads ``build``,
    ``dr_solve`` and ``admm_solve`` from the module at each call."""

    CALLS = {
        "verify_point": (verify_point, (4.0, 1.0, 0.5, 1.0), "dr_solve"),
        "dual_verify_point": (dual_verify_point,
                              (4.0, 1.0, 1.0, 3.0, 2.0 / 3.0, 1.0),
                              "admm_solve"),
        "divergence_distances": (divergence_distances, (25.0, 1.0, 0.04),
                                 "dr_solve"),
    }

    @staticmethod
    def key(result):
        return result.tobytes() if isinstance(result, np.ndarray) \
            else repr(result)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_build_and_solver_are_module_attributes(self, monkeypatch, name):
        fn, args, solver = self.CALLS[name]
        want = fn(*args)
        calls = Counter()
        for attr in ("build", "dr_solve", "admm_solve"):
            def counting(*a, _attr=attr, _fn=getattr(worstcase, attr), **k):
                calls[_attr] += 1
                return _fn(*a, **k)
            monkeypatch.setattr(worstcase, attr, counting)
        got = fn(*args)
        assert calls == {"build": 1, solver: 1}
        assert self.key(got) == self.key(want)

    @pytest.mark.parametrize("call, message", [
        (lambda: verify_point(1, 4, math.nan, 1),
         "need 0 < sigma <= beta < inf"),
        (lambda: verify_point(4, 1, 0.5, 0, iters=0),
         "alpha must be nonzero and not NaN"),
        (lambda: dual_verify_point(4, 1, 3, 1, 0.5, math.nan),
         "need zeta >= theta > 0"),
        (lambda: dual_verify_point(4, 1, 1, 3, 1e-320, 1, iters=0),
         "gamma must be positive and normal, got 1e-320"),
        (lambda: divergence_distances(4, 1, 0),
         "gamma must be positive and normal, got 0"),
        (lambda: verify_point(1e300, 1e-300, math.nan, 1),
         "kappa = beta/sigma overflows"),
        (lambda: dual_verify_point(4, 1, 1e-100, 1e100, math.nan, 1),
         "kappa_hat = beta_hat/sigma_hat overflows")],
        ids=["regularity-before-gamma", "alpha-before-iters",
             "gains-before-alpha", "normal-step-before-iters",
             "gamma-before-anything", "kappa-before-gamma",
             "kappa-hat-before-gamma"])
    def test_first_of_two_faults_is_refused(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError
        assert str(info.value) == message


# Drawn tightness: the bound equals the exact rate of the adversarial case
# and the iteration attains it, for every feasible (gamma, alpha) (Ryu,
# Taylor, Bergeling and Giselsson, SIAM J. Optim. 2020; Giselsson, J. Fixed
# Point Theory Appl. 2017).  kappa = beta/sigma in [1, 1e4], gamma within
# 10^1.5 of gamma*, and alpha from 2% to 99% of the cap 2/(1+delta).
LOG_KAPPA = st.floats(min_value=0.0, max_value=4.0)
LOG_GAMMA_RATIO = st.floats(min_value=-1.5, max_value=1.5)
CAP_FRACTION = st.floats(min_value=0.02, max_value=0.99)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(LOG_KAPPA, LOG_GAMMA_RATIO, CAP_FRACTION)
def test_drawn_dr_points_attain_the_bound(log_kappa, log_ratio, fraction):
    reg = Regularity(1.0, 10.0**log_kappa)
    gamma = 10.0**log_ratio * optimal_parameters(reg)[0]
    alpha = fraction * 2.0 / (1.0 + contraction_factor(reg, gamma))
    row = verify_point(reg.beta, reg.sigma, gamma, alpha)
    assert abs(row["measured_rate"] - row["exact_rate"]) <= 1e-10, row
    assert row["max_abs_diff"] <= 1e-10, row
    assert abs(row["bound"] - row["exact_rate"]) <= 1e-12, row


@settings(max_examples=150, deadline=None, derandomize=True)
@given(LOG_KAPPA, LOG_GAMMA_RATIO, CAP_FRACTION,
       st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.5))
def test_drawn_admm_points_attain_the_bound(log_kappa, log_ratio, fraction,
                                            theta, log_gain_ratio):
    reg = Regularity(1.0, 10.0**log_kappa)
    zeta = theta * 10.0**log_gain_ratio
    dreg = dual_constants(reg, theta, zeta).as_regularity()
    gamma = 10.0**log_ratio * optimal_parameters(dreg)[0]
    alpha = fraction * 2.0 / (1.0 + contraction_factor(dreg, gamma))
    row = dual_verify_point(reg.beta, reg.sigma, theta, zeta, gamma, alpha)
    assert abs(row["measured_rate"] - row["exact_rate"]) <= 1e-8, row
    assert row["max_abs_diff"] <= 1e-8, row
    assert abs(row["bound"] - row["exact_rate"]) <= 1e-12, row


@settings(max_examples=100, deadline=None, derandomize=True)
@given(LOG_KAPPA, LOG_GAMMA_RATIO)
def test_drawn_divergence_is_nondecreasing(log_kappa, log_ratio):
    reg = Regularity(1.0, 10.0**log_kappa)
    gamma = 10.0**log_ratio * optimal_parameters(reg)[0]
    dist = divergence_distances(reg.beta, reg.sigma, gamma)
    assert len(dist) == 101
    assert np.all(dist[1:] >= dist[:-1] * (1 - 1e-12))


# Beyond the cap the adversarial factor is 1 - alpha*(1 + delta) < -1, so
# the residual is at least twice the iterate and no tolerance below 2 can
# be met: an alpha at 1.01 to 1.5 times 2/(1+delta) never yields converged.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(LOG_KAPPA, LOG_GAMMA_RATIO, st.floats(min_value=1.01, max_value=1.5),
       st.booleans(), st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.5))
def test_drawn_alpha_beyond_the_cap_never_converges(
        log_kappa, log_ratio, factor, dual, theta, log_gain_ratio):
    reg = Regularity(1.0, 10.0**log_kappa)
    zeta = theta * 10.0**log_gain_ratio
    case = dual_constants(reg, theta, zeta).as_regularity() if dual else reg
    gamma = 10.0**log_ratio * optimal_parameters(case)[0]
    alpha = factor * 2.0 / (1.0 + contraction_factor(case, gamma))
    _, _, trace = worstcase._adversarial_run(
        reg, case, gamma, alpha, theta if dual else None,
        zeta if dual else None, 1e-10, 100)
    assert not trace.converged
    assert trace.distances[-1] > trace.distances[0]
