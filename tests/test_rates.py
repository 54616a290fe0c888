"""Rate formulas: contraction factor, bounds, optimal parameters, dual form."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import warnings_as_errors
from proxsplit.errors import (DimensionMismatchError, RankDeficiencyError,
                             UnboundedIterationError)
from proxsplit.linmetric import DiagonalMetric
from proxsplit.metric import (MetricObjective, dual_condition_number,
                             gamma_from_metric)
from proxsplit.rates import (
    DualRegularity,
    Regularity,
    certificate,
    competing_rates,
    contraction_factor,
    dual_curvature,
    dual_regularity,
    feasible_alpha_interval,
    geometric_mean,
    iteration_bound,
    optimal_parameters,
    rate_bound,
)
from proxsplit.worstcase import adversarial_case, dual_constants, verify_grid

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


class TestContractionFactor:
    def test_unit_kappa_at_unit_gamma(self):
        assert contraction_factor(Regularity(1, 1), 1.0) == 0.0

    def test_kink_value_one_third(self):
        # at gamma = 1/sqrt(beta*sigma) both branches agree
        assert contraction_factor(Regularity(1, 4), 0.5) == pytest.approx(
            1.0 / 3.0, abs=1e-15)

    def test_large_gamma_branch(self):
        assert contraction_factor(Regularity(1, 4), 2.0) == pytest.approx(
            7.0 / 9.0, abs=1e-15)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            contraction_factor(Regularity(1, 2), 0.0)

    @pytest.mark.parametrize("fn", [contraction_factor, certificate])
    def test_infinite_gamma_is_refused_by_name(self, fn):
        # unchecked, inf gives a NaN factor, which certificate blames on delta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fn(Regularity(1.0, 4.0), math.inf)
        assert str(info.value) == "gamma must be positive and normal, got inf"

    def test_piecewise_identity_many_random_triples(self, rng):
        # closed-form split: the soft branch below the kink, stiff above
        for _ in range(10_000):
            sigma = float(10.0 ** rng.uniform(-3, 3))
            beta = sigma * float(10.0 ** rng.uniform(0, 3))
            gamma = float(10.0 ** rng.uniform(-4, 4))
            reg = Regularity(sigma, beta)
            got = contraction_factor(reg, gamma)
            if gamma <= 1.0 / math.sqrt(beta * sigma):
                expect = (1 - gamma * sigma) / (1 + gamma * sigma)
            else:
                expect = (gamma * beta - 1) / (1 + gamma * beta)
            assert got == expect

    def test_kink_branches_within_one_ulp(self, rng):
        for _ in range(100):
            sigma = float(10.0 ** rng.uniform(-2, 2))
            beta = sigma * float(10.0 ** rng.uniform(0, 3))
            gamma = 1.0 / math.sqrt(beta * sigma)
            soft = (1 - gamma * sigma) / (1 + gamma * sigma)
            stiff = (gamma * beta - 1) / (1 + gamma * beta)
            assert abs(soft - stiff) <= 4 * np.spacing(max(abs(soft), 1.0))
            assert contraction_factor(Regularity(sigma, beta), gamma) == max(
                soft, stiff)

    @given(sigma=positive, ratio=st.floats(min_value=1.0, max_value=1e6),
           gamma=positive)
    @settings(max_examples=300, deadline=None)
    def test_delta_in_unit_interval(self, sigma, ratio, gamma):
        delta = contraction_factor(Regularity(sigma, sigma * ratio), gamma)
        assert 0.0 <= delta < 1.0


class TestOverflow:
    """A product or ratio past the largest double saturates or is refused by
    name, instead of a NaN that a later check blames on another input."""

    def test_overflowing_step_product_saturates_to_the_clamp(self):
        # gamma*beta = 1e310: (inf - 1)/(inf + 1) would be NaN, and
        # certificate would then blame delta
        clamp = math.nextafter(1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert contraction_factor(Regularity(1.0, 1e300), 1e10) == clamp
            cert = certificate(Regularity(1.0, 1e300), 1e10)
        assert (cert.delta, cert.alpha_max) == (clamp, 2.0 / (1.0 + clamp))
        # gamma*beta = 1e308 is in range: the quotient rounds to 1.0
        assert contraction_factor(Regularity(1.0, 1e300), 1e8) == clamp

    @pytest.mark.parametrize("call, message", [
        (lambda: Regularity(1e-200, 1e200), "kappa = beta/sigma overflows"),
        (lambda: Regularity(1e-300, 1e10), "kappa = beta/sigma overflows"),
        (lambda: optimal_parameters(Regularity(1e-200, 1e200)),
         "kappa = beta/sigma overflows"),
        (lambda: certificate(Regularity(1e-200, 1e200), 1.0),
         "kappa = beta/sigma overflows"),
        (lambda: competing_rates(DualRegularity(1e-200, 1e200)),
         "kappa_hat = beta_hat/sigma_hat overflows"),
        (lambda: dual_constants(Regularity(1.0, 1e300), 1.0, 1e10),
         "kappa_hat = beta_hat/sigma_hat overflows")],
        ids=["Regularity", "Regularity-tiny-sigma", "optimal_parameters",
             "certificate", "competing_rates", "dual_constants"])
    def test_overflowing_condition_number_is_refused_by_name(self, call,
                                                             message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call()
        assert str(info.value) == message

    @pytest.mark.parametrize("scalar", [float, np.float64],
                             ids=["python", "numpy"])
    @pytest.mark.parametrize("cls, message", [
        (Regularity, "kappa = beta/sigma overflows"),
        (DualRegularity, "kappa_hat = beta_hat/sigma_hat overflows")])
    def test_numpy_scalars_are_refused_without_a_warning(self, cls, message,
                                                         scalar):
        # numpy scalars divide with an "overflow encountered in scalar
        # divide" warning; the named refusal must be the one signal
        with warnings_as_errors(), pytest.raises(ValueError) as info:
            cls(scalar(1e-200), scalar(1e200))
        assert str(info.value) == message


class TestRateBound:
    def test_examples(self):
        assert rate_bound(1.0 / 3.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert rate_bound(1.0 / 3.0, 1.5) == pytest.approx(1.0, abs=1e-15)
        assert rate_bound(0.0, 0.5) == 0.5

    def test_interval_examples(self):
        assert feasible_alpha_interval(0.0) == (0.0, 2.0)
        assert feasible_alpha_interval(1.0 / 3.0)[1] == pytest.approx(1.5)
        assert feasible_alpha_interval(0.9)[1] == pytest.approx(20.0 / 19.0)

    @given(delta=st.floats(min_value=0.0, max_value=0.999),
           frac=st.floats(min_value=1e-6, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_contractive_exactly_inside_interval(self, delta, frac):
        lo, hi = feasible_alpha_interval(delta)
        assert rate_bound(delta, frac * hi) < 1.0
        assert rate_bound(delta, hi) == pytest.approx(1.0, abs=1e-12)
        assert rate_bound(delta, hi * (1.0 + frac)) > 1.0


class TestOptimalParameters:
    def test_examples(self):
        assert optimal_parameters(Regularity(2, 2)) == (0.5, 1.0, 0.0)
        gamma, alpha, rate = optimal_parameters(Regularity(1, 4))
        assert (gamma, alpha) == (0.5, 1.0)
        assert rate == pytest.approx(1.0 / 3.0)
        assert optimal_parameters(Regularity(1, 100))[2] == pytest.approx(
            9.0 / 11.0)

    def test_rate_monotone_in_kappa(self, rng):
        kappas = np.sort(10.0 ** rng.uniform(0, 6, size=30))
        rates = [optimal_parameters(Regularity(1.0, k))[2] for k in kappas]
        assert all(r1 < r2 or k1 == k2
                   for (r1, k1), (r2, k2) in zip(zip(rates, kappas),
                                                 zip(rates[1:], kappas[1:])))

    def test_optimum_is_a_minimum_over_grid(self, rng):
        reg = Regularity(0.7, 23.0)
        gamma_star, alpha_star, rate_star = optimal_parameters(reg)
        for gamma in 10.0 ** rng.uniform(-3, 3, size=40):
            delta = contraction_factor(reg, float(gamma))
            for alpha in rng.uniform(0.01, 2.0 / (1 + delta), size=10):
                assert rate_bound(delta, float(alpha)) >= rate_star - 1e-12


class TestGeometricMean:
    """One geometric step for every sqrt(a*b) in the package."""

    @given(a=st.floats(min_value=1e-150, max_value=1e150),
           b=st.floats(min_value=1e-150, max_value=1e150))
    def test_equals_sqrt_of_the_product(self, a, b):
        assert geometric_mean(a, b, "a*b") == math.sqrt(a * b)

    @pytest.mark.parametrize("a, b", [
        (1e-153, 1e-153),  # 1e-306, normal
        (2.0 ** -511, 2.0 ** -511),  # 2**-1022, the smallest normal
        (1e154, 1e154), (1.7e308, 1.0), (3.0, 7.0)])
    def test_normal_edges_are_accepted(self, a, b):
        assert geometric_mean(a, b, "a*b") == math.sqrt(a * b)

    @pytest.mark.parametrize("a, b", [
        (1e-200, 1e-200),  # underflows to 0
        (1e-160, 1e-160),  # subnormal
        (2.0 ** -511, 2.0 ** -511 * (1 - 2.0 ** -52)),  # below 2**-1022
        (1e200, 1e200),  # overflows
        (math.inf, 1.0), (0.0, 1.0), (-1.0, 4.0), (math.nan, 1.0)])
    def test_other_products_are_refused_by_name(self, a, b):
        with pytest.raises(ValueError, match=re.escape(
                f"gamma_min*gamma_max = {a}*{b} is not a positive normal")):
            geometric_mean(a, b, "gamma_min*gamma_max")

    def test_every_site_refuses_an_underflowing_step(self):
        with pytest.raises(ValueError, match="sigma\\*beta"):
            optimal_parameters(Regularity(1e-300, 1e-300))
        with pytest.raises(ValueError, match="beta\\*sigma"):
            adversarial_case(1.0, 1.0, Regularity(1e-300, 1e-300))
        obj = MetricObjective("exact", 1e-200, 1e-200,
                              DiagonalMetric.identity(1))
        with pytest.raises(ValueError, match="numerator\\*denominator"):
            gamma_from_metric(obj)
        with pytest.raises(ValueError, match="beta\\*sigma"):
            verify_grid([1e-300], sigma=1e-301)


class TestDualRegularity:
    def test_diagonal_gain_instance(self):
        dual = dual_regularity(Regularity(sigma=1, beta=4),
                               np.diag([1.0, 3.0]))
        assert dual.sigma_hat == pytest.approx(0.25, rel=1e-12)
        assert dual.beta_hat == pytest.approx(9.0, rel=1e-12)
        assert dual.kappa_hat == pytest.approx(36.0, rel=1e-12)

    def test_identity_trivial(self):
        dual = dual_regularity(Regularity(1, 1), np.eye(3))
        assert dual.sigma_hat == pytest.approx(1.0)
        assert dual.beta_hat == pytest.approx(1.0)

    def test_metric_form_matches_euclidean_at_identity(self, rng):
        a = rng.normal(size=(3, 5))
        reg = Regularity(0.5, 2.0)
        eu = dual_regularity(reg, a)
        me = dual_condition_number(DiagonalMetric.identity(3), a, np.eye(5))
        assert me.denominator / reg.beta == pytest.approx(eu.sigma_hat,
                                                          rel=1e-10)
        assert me.numerator / reg.sigma == pytest.approx(eu.beta_hat,
                                                         rel=1e-10)

    def test_jacobi_scaling_improves_on_fixed_seed(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 3)) + np.diag([5.0, 0.3, 1.0])
        h = np.eye(3)
        gram = a @ a.T
        e = DiagonalMetric(1.0 / np.sqrt(np.diag(gram)))
        base = dual_condition_number(DiagonalMetric.identity(3), a, h)
        scaled = dual_condition_number(e, a, h)
        assert scaled.value <= base.value

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficiencyError):
            dual_regularity(Regularity(1, 2),
                            np.array([[1.0, 0.0], [2.0, 0.0]]))
        # an H that does not match A is refused before the solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError) as err:
                dual_curvature(np.eye(2), np.eye(3))
        assert str(err.value) == "A (2, 2) does not match H (3, 3)"

    @pytest.mark.parametrize("call", [
        lambda: dual_curvature(np.eye(2), np.diag([1.0, np.inf])),
        lambda: dual_curvature(np.eye(2), np.diag([np.nan, 1.0])),
        lambda: dual_curvature([[np.inf, 0.0]], np.eye(2)),
        lambda: dual_condition_number(DiagonalMetric.identity(1), np.eye(1),
                                      [[np.inf]])],
        ids=["inf-in-H", "nan-in-H", "inf-in-A", "dual_condition_number"])
    def test_non_finite_data_is_refused_before_the_solve(self, call):
        # unchecked, an inf in H solved to a zero row of S, which the rank
        # check then blamed on A
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call()
        assert type(info.value) is ValueError
        assert str(info.value) == "array must not contain infs or NaNs"

    def test_shape_is_checked_before_finiteness(self):
        with pytest.raises(DimensionMismatchError):
            dual_curvature([[np.inf]], np.eye(2))


class TestIterationBound:
    def test_examples(self):
        assert iteration_bound(1.0 / 3.0, 1e-5) == 11
        assert iteration_bound(0.5, 0.5) == 1
        assert iteration_bound(0.99, 1e-5) == 1146

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedIterationError):
            iteration_bound(1.0, 1e-3)
        with pytest.raises(UnboundedIterationError):
            iteration_bound(1.2, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                iteration_bound(float("nan"), 0.1)
        assert str(err.value) == "rate must not be NaN"

    def test_bound_is_sufficient(self, rng):
        for _ in range(100):
            rate = float(rng.uniform(0.01, 0.999))
            tol = float(10.0 ** rng.uniform(-8, -1))
            k = iteration_bound(rate, tol)
            assert rate**k <= tol * (1 + 1e-9)
            assert k == 1 or rate ** (k - 1) > tol * (1 - 1e-9)


class TestCompetingRates:
    def test_unit_kappa(self):
        rates = competing_rates(DualRegularity(1.0, 1.0))
        assert rates["tight"] == 0.0
        assert rates["giselsson_boyd_admm_qp_equiv"] == 0.0
        assert rates["lions_mercier"] == pytest.approx(math.sqrt(0.5))
        assert rates["davis_yin"] == 0.0
        assert rates["deng_yin"] == pytest.approx(math.sqrt(0.5))

    def test_kappa_100(self):
        rates = competing_rates(DualRegularity(1.0, 100.0))
        assert rates["tight"] == pytest.approx(9.0 / 11.0)
        assert rates["davis_yin"] == pytest.approx(math.sqrt(0.99))
        assert rates["tight"] < rates["davis_yin"]

    def test_dominance_on_log_grid(self):
        for kappa in np.logspace(0, 6, 50):
            rates = competing_rates(DualRegularity(1.0, float(kappa)))
            tight = rates["tight"]
            assert tight <= rates["lions_mercier"] + 1e-12
            assert tight <= rates["davis_yin"] + 1e-12
            assert tight <= rates["deng_yin"] + 1e-12

    def test_invalid_dual_regularity_rejected(self):
        with pytest.raises(ValueError):
            DualRegularity(sigma_hat=0.0, beta_hat=1.0)


class TestCertificate:
    def test_json_fields(self):
        cert = certificate(Regularity(1, 4), gamma=0.5)
        payload = cert.to_json()
        assert set(payload) == {"delta", "alpha_max", "gamma_star",
                                "alpha_star", "rate_star", "kappa"}
        assert payload["delta"] == pytest.approx(1.0 / 3.0)
        assert payload["alpha_max"] == pytest.approx(1.5)
        assert payload["gamma_star"] == pytest.approx(0.5)
        assert payload["alpha_star"] == 1.0
        assert payload["rate_star"] == pytest.approx(1.0 / 3.0)
        assert payload["kappa"] == pytest.approx(4.0)

    def test_rate_method(self):
        cert = certificate(Regularity(1, 4), gamma=0.5)
        assert cert.rate(1.0) == pytest.approx(cert.delta)
        assert cert.rate(cert.alpha_max) == pytest.approx(1.0)
