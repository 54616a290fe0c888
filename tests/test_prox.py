"""Prox catalog against brute-force oracles and operator-theoretic laws."""

import copy
import itertools
import json
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    golden_prox_1d,
    golden_section,
    prox_objective,
    sample_catalog_fn,
    sample_quadratic_affine,
    warnings_as_errors,
)
from proxsplit.admm import AdmmEngine, EqConstrainedProblem, admm_solve
from proxsplit.bench import (LassoSpec, MpcSpec, gen_lasso, gen_mpc,
                             mpc_metric_objective)
from proxsplit.errors import (
    CapabilityError,
    DimensionMismatchError,
    InfeasibleConstraintError,
    NonSymmetricError,
    ProxsplitError,
    SingularKktError,
)
from proxsplit import linmetric, prox
from proxsplit.prox import (
    Box,
    ConjugateOf,
    IndicatorAffine,
    IndicatorZero,
    PwlPenalty,
    Quadratic,
    QuadraticAffine,
    Separable,
    WeightedL1,
    Zero,
    diag_scale,
    dual_quadratic,
    proxfn_from_json,
)
from proxsplit.splitting import dr_solve
from proxsplit.worstcase import verify_point


def anisotropic_quadratic(beta=4.0, sigma=1.0) -> Quadratic:
    """The two-dimensional extremal quadratic 0.5*(beta x1^2 + sigma x2^2)."""
    return Quadratic(np.diag([beta, sigma]))


class TestProxValues:
    def test_anisotropic_quadratic_closed_form(self, rng):
        f = anisotropic_quadratic()
        for _ in range(5):
            y = rng.normal(size=2)
            got = f.prox(1.0, y)
            assert np.allclose(got, [y[0] / 5.0, y[1] / 2.0], atol=1e-14)

    def test_zero_is_identity(self, rng):
        z = rng.normal(size=4)
        assert np.array_equal(Zero().prox(3.7, z), z)

    def test_indicator_zero_maps_to_origin(self, rng):
        z = rng.normal(size=4)
        assert np.array_equal(IndicatorZero().prox(0.2, z), np.zeros(4))

    def test_weighted_l1_soft_threshold(self):
        f = WeightedL1([1.0, 1.0])
        got = f.prox(1.0, np.array([2.0, -0.5]))
        assert np.allclose(got, [1.0, 0.0], atol=1e-14)
        # grid-verified: the same point from the brute-force oracle
        for i, z in enumerate([2.0, -0.5]):
            assert golden_prox_1d(WeightedL1([1.0]), 1.0, z) == (
                pytest.approx(got[i], abs=1e-9))

    def test_pwl_penalty_band_edge(self):
        f = PwlPenalty(-1.0, 1.0, 10.0)
        got = f.prox(0.1, np.array([1.5]))
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert golden_prox_1d(f, 0.1, 1.5) == pytest.approx(1.0, abs=1e-9)

    def test_pwl_all_segments_against_oracle(self, rng):
        f = PwlPenalty(-1.0, 2.0, 3.0)
        for z in (-9.0, -1.5, -1.05, 0.3, 2.2, 2.95, 8.0):
            gamma = float(10.0 ** rng.uniform(-1.5, 0.5))
            got = f.prox(gamma, np.array([z]))[0]
            assert got == pytest.approx(golden_prox_1d(f, gamma, z),
                                        abs=1e-8)

    def test_pwl_penalty_per_coordinate_parameters(self):
        f = PwlPenalty([-1.0, 0.0, 2.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0])
        assert f.dim == 3
        # gamma * slope = 0.5, 1.0, 0.0 per coordinate
        got = f.prox(0.5, np.array([3.0, -0.5, 9.0]))
        assert np.array_equal(got, [2.5, 0.0, 9.0])
        assert f(np.array([3.0, -0.5, 9.0])) == pytest.approx(2.0 + 1.0)
        with pytest.raises(DimensionMismatchError):
            f.prox(0.5, np.zeros(2))

    def test_pwl_penalty_validation_is_elementwise(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            PwlPenalty([0.0, 1.0], [1.0, 0.5], 1.0)
        with pytest.raises(ValueError, match="lo <= hi"):
            PwlPenalty(0.0, [1.0, -1.0], 1.0)
        with pytest.raises(ValueError, match="slope"):
            PwlPenalty(0.0, 1.0, [1.0, -1e-9, 2.0])
        with pytest.raises(DimensionMismatchError):
            PwlPenalty([0.0, 0.0], [1.0, 1.0, 1.0], 1.0)
        with pytest.raises(DimensionMismatchError):
            PwlPenalty([0.0, 0.0], 1.0, 1.0, dim=3)

    def test_box_clips(self):
        f = Box([-1.0, 0.0], [1.0, 2.0])
        got = f.prox(5.0, np.array([3.0, -1.0]))
        assert np.array_equal(got, [1.0, 0.0])

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            Zero().prox(0.0, np.zeros(2))
        with pytest.raises(ValueError):
            WeightedL1([1.0, 1.0]).prox(-1.0, np.zeros(2))
        with pytest.raises(ValueError):
            Zero().prox(-0.5, np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            WeightedL1([1.0, 2.0]).prox(1.0, np.zeros(3))

    @pytest.mark.parametrize("make", [
        lambda q: Quadratic(q),
        lambda q: QuadraticAffine(q, None, np.zeros((0, 2)), np.zeros(0)),
    ], ids=["quadratic", "quadratic_affine"])
    def test_q_must_be_square_and_symmetric(self, make):
        with pytest.raises(DimensionMismatchError):
            make(np.ones((2, 3)))
        with pytest.raises(NonSymmetricError):
            make(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("q, q_vector, error, message", [
        (np.ones((2, 3)), [1.0], DimensionMismatchError, "square"),
        (np.array([[1.0, 1.0], [0.0, -1.0]]), [1.0], NonSymmetricError,
         "not symmetric"),
        (np.diag([1.0, -1.0]), [1.0], DimensionMismatchError, "q must match"),
        (np.diag([1.0, -1.0]), None, ValueError, "not positive semidefinite"),
        (np.zeros((0, 0)), None, DimensionMismatchError, "nonempty"),
    ], ids=["not_square", "asymmetric", "q_shape", "not_psd", "empty"])
    def test_quadratic_errors_keep_their_order(self, q, q_vector, error,
                                               message):
        with pytest.raises(error, match=message):
            Quadratic(q, q_vector)

    def test_quadratic_checks_symmetry_once(self, monkeypatch):
        counts = {"check": 0, "summary": 0}

        def counted(key, real):
            def call(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            return call

        for owner in (prox, linmetric):
            monkeypatch.setattr(owner, "_check_symmetric", counted(
                "check", owner._check_symmetric))
        # the hook point perfbench/tracer.py wraps
        monkeypatch.setattr(prox, "spectral_summary", counted(
            "summary", prox.spectral_summary))
        q = np.array([[2.0, 0.5], [0.5 + 2.0 ** -40, 1.0]])
        f = Quadratic(q)
        assert counts == {"check": 1, "summary": 1}
        assert f.Q.tobytes() == (0.5 * (q + q.T)).tobytes()
        eigs = scipy.linalg.eigh(f.Q, eigvals_only=True)
        assert f.regularity == (eigs[0], eigs[-1])

    @pytest.mark.parametrize("make", [
        lambda q: Quadratic(np.eye(3), q),
        lambda q: QuadraticAffine(np.eye(3), q, np.zeros((0, 3)), []),
    ], ids=["quadratic", "quadratic_affine"])
    def test_q_vector_must_match_dimension(self, make):
        with pytest.raises(DimensionMismatchError):
            make([1.0, 2.0])


class TestReflected:
    def test_anisotropic_closed_form(self, rng):
        f = anisotropic_quadratic()
        y = rng.normal(size=2)
        got = f.reflect(1.0, y)
        assert np.allclose(got, [-0.6 * y[0], 0.0 * y[1]], atol=1e-14)

    def test_zero_reflects_to_identity(self, rng):
        z = rng.normal(size=3)
        assert np.allclose(Zero().reflect(1.0, z), z)

    def test_indicator_zero_reflects_to_negation(self, rng):
        z = rng.normal(size=3)
        got = IndicatorZero().reflect(1.0, z)
        assert np.allclose(got, -z)


class TestConjugateProx:
    def test_indicator_zero_conjugate_is_zero_fn(self, rng):
        z = rng.normal(size=3)
        got = ConjugateOf(IndicatorZero()).prox(1.0, z)
        assert np.allclose(got, z, atol=1e-14)

    def test_zero_conjugate_is_origin_indicator(self, rng):
        z = rng.normal(size=3)
        got = ConjugateOf(Zero()).prox(1.0, z)
        assert np.allclose(got, np.zeros(3), atol=1e-14)

    def test_self_conjugate_squared_norm(self, rng):
        z = rng.normal(size=3)
        got = ConjugateOf(Quadratic(np.eye(3))).prox(1.0, z)
        assert np.allclose(got, z / 2.0, atol=1e-13)

    def test_moreau_identity_catalog(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 6))
            f = sample_catalog_fn(rng, dim)
            gamma = float(rng.choice([0.01, 1.0, 100.0]))
            z = 3.0 * rng.normal(size=dim)
            lhs = f.prox(gamma, z) + gamma * ConjugateOf(f).prox(
                1.0 / gamma, z / gamma)
            assert np.allclose(lhs, z, atol=1e-10)

    def test_wrapper_prox_checks_the_point_under_its_own_kind(self, rng):
        f = ConjugateOf(WeightedL1(np.ones(2)))
        with pytest.raises(DimensionMismatchError) as info:
            f.prox(1.0, np.ones(3))
        assert str(info.value) == "conjugate expects dimension 2, got 3"
        z = rng.normal(size=2)
        assert f.prox(0.7, z).tobytes() == f.prox_map(0.7)(z).tobytes()

    def test_subnormal_gamma_is_refused_by_name(self):
        # 1.0 / gamma and z / gamma would overflow and be misreported
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "gamma must be positive and normal, got 1e-320")):
                dr_solve(ConjugateOf(WeightedL1(np.ones(2))), Zero(2),
                         1e-320, 1.0, np.ones(2))

    def test_infinite_gamma_is_refused_by_name(self):
        # unchecked, the conjugate prox fails at a prox step of 1.0 / inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "gamma must be positive and normal, got inf")):
                ConjugateOf(WeightedL1([1.0])).prox(np.inf, np.ones(1))
            with pytest.raises(ValueError, match=re.escape(
                    "gamma must be positive and normal, got inf")):
                dr_solve(Quadratic(np.eye(2)), Zero(2), np.inf, 1.0,
                         np.ones(2))

    def test_value_refuses_a_misshapen_point_by_shape_first(self):
        f = ConjugateOf(WeightedL1(np.ones(2)))
        with pytest.raises(DimensionMismatchError) as err:
            f(np.ones(3))
        assert str(err.value) == "conjugate expects dimension 2, got 3"
        with pytest.raises(CapabilityError):
            f(np.ones(2))


class TestDualProx:
    def test_diagonal_instance(self, rng):
        f = Quadratic(np.diag([4.0, 1.0]))
        a = np.diag([1.0, 3.0])
        z = rng.normal(size=2)
        got = dual_quadratic(f, a, np.zeros(2)).prox(1.0, z)
        assert np.allclose(got, [z[0] / 1.25, z[1] / 10.0], atol=1e-13)

    def test_identity_instance(self, rng):
        f = Quadratic(np.eye(2))
        z = rng.normal(size=2)
        got = dual_quadratic(f, np.eye(2), np.zeros(2)).prox(1.0, z)
        assert np.allclose(got, z / 2.0, atol=1e-13)

    def test_linear_shift(self):
        f = Quadratic(np.eye(2))
        got = dual_quadratic(f, np.eye(2), np.array([1.0, 0.0])).prox(
            1.0, np.array([1.0, 0.0]))
        assert np.allclose(got, np.zeros(2), atol=1e-13)

    def test_requires_positive_definite(self):
        f = Quadratic(np.diag([1.0, 0.0]))
        with pytest.raises(CapabilityError):
            dual_quadratic(f, np.eye(2), None)

    def test_matches_generic_conjugate_composition(self, rng):
        # independent route: gamma*d1 prox via direct quadratic minimization
        n, p = 4, 3
        m = rng.normal(size=(n, n))
        f = Quadratic(m @ m.T + np.eye(n), rng.normal(size=n))
        a = rng.normal(size=(p, n))
        c = rng.normal(size=p)
        gamma = 0.7
        z = rng.normal(size=p)
        got = dual_quadratic(f, a, c).prox(gamma, z)
        qinv = np.linalg.inv(f.Q)
        hess = a @ qinv @ a.T
        lin = a @ qinv @ f.q + c
        expect = np.linalg.solve(gamma * hess + np.eye(p), z - gamma * lin)
        assert np.allclose(got, expect, atol=1e-10)


class TestOperatorLaws:
    def test_prox_optimality_vs_oracle_1d(self, rng):
        fns = [
            Quadratic(np.array([[2.0]]), np.array([0.7])),
            WeightedL1([1.3]),
            PwlPenalty(-0.5, 0.5, 4.0),
            Zero(1),
        ]
        for f in fns:
            for gamma in (0.01, 1.0, 100.0):
                z = float(rng.normal() * 2)
                x = f.prox(gamma, np.array([z]))[0]
                obj = prox_objective(f, gamma, np.array([z]))
                oracle = golden_prox_1d(f, gamma, z,
                                        bracket=(z - 300.0, z + 300.0))
                assert obj(np.array([x])) <= obj(np.array([oracle])) + 1e-10

    def test_box_prox_vs_constrained_oracle(self, rng):
        f = Box([-1.0], [1.0])
        for _ in range(20):
            z = float(rng.normal() * 3)
            x = f.prox(1.0, np.array([z]))[0]
            oracle = golden_section(
                lambda t: 0.5 * (t - z) ** 2, -1.0, 1.0)
            assert x == pytest.approx(oracle, abs=1e-8)

    def test_nonexpansiveness_catalog(self, rng):
        for _ in range(400):
            dim = int(rng.integers(1, 6))
            f = sample_catalog_fn(rng, dim)
            gamma = float(10.0 ** rng.uniform(-2, 2))
            z1 = 3.0 * rng.normal(size=dim)
            z2 = 3.0 * rng.normal(size=dim)
            lhs = np.linalg.norm(f.prox(gamma, z1) - f.prox(gamma, z2))
            rhs = np.linalg.norm(z1 - z2)
            assert lhs <= rhs * (1 + 1e-10) + 1e-12

    def test_reflected_contraction_factor(self, rng):
        for gamma in (0.1, 0.5, 2.0, 10.0):
            beta, sigma = 4.0, 1.0
            f = anisotropic_quadratic(beta, sigma)
            delta = max((gamma * beta - 1) / (gamma * beta + 1),
                        (1 - gamma * sigma) / (gamma * sigma + 1))
            for _ in range(50):
                x, y = rng.normal(size=2), rng.normal(size=2)
                lhs = np.linalg.norm(f.reflect(gamma, x) - f.reflect(gamma, y))
                assert lhs <= delta * np.linalg.norm(x - y) + 1e-12
            # equality along the eigen-direction of the active branch
            axis = np.array([0.0, 1.0]) if gamma <= 0.5 else np.array(
                [1.0, 0.0])
            lhs = np.linalg.norm(f.reflect(gamma, axis)
                                 - f.reflect(gamma, -axis))
            assert lhs == pytest.approx(delta * 2.0, abs=1e-12)

    def test_cocoercive_part_is_nonexpansive(self, rng):
        gamma, beta, sigma = 0.8, 5.0, 0.5
        f = anisotropic_quadratic(beta, sigma)
        top = 1.0 / (1.0 + gamma * sigma)
        bot = 1.0 / (1.0 + gamma * beta)
        scale = 2.0 / (top - bot)

        def c_op(v):
            return scale * (f.prox(gamma, v) - bot * v) - v

        for _ in range(100):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert np.linalg.norm(c_op(x) - c_op(y)) <= np.linalg.norm(
                x - y) * (1 + 1e-12)

    def test_equal_curvature_prox_is_pure_scaling(self, rng):
        gamma, beta = 0.8, 3.0
        f = Quadratic(beta * np.eye(3))
        z = rng.normal(size=3)
        assert np.allclose(f.prox(gamma, z), z / (1 + gamma * beta),
                           atol=1e-13)


class TestAffineKinds:
    def test_projection_prox(self, rng):
        lm = rng.normal(size=(2, 5))
        x_feas = rng.normal(size=5)
        f = IndicatorAffine(lm, lm @ x_feas)
        z = rng.normal(size=5)
        x = f.prox(1.0, z)
        assert np.allclose(lm @ x, lm @ x_feas, atol=1e-10)
        # projection is gamma-independent and idempotent
        assert np.allclose(f.prox(7.0, z), x, atol=1e-12)
        assert np.allclose(f.prox(1.0, x), x, atol=1e-10)

    def test_nan_point_is_off_the_set_for_both_kinds(self):
        # one membership test: a NaN residual is not within the tolerance
        lm, b = np.array([[1.0, 1.0]]), np.array([1.0])
        for f in (IndicatorAffine(lm, b),
                  QuadraticAffine(np.eye(2), None, lm, b)):
            assert f(np.array([np.nan, 0.0])) == np.inf
            assert f(np.array([0.5, 0.5])) < np.inf  # on the set
            assert f(np.array([0.5, 0.5 + 1e-8])) == np.inf  # beyond 1e-9

    def test_infeasible_rejected(self):
        lm = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InfeasibleConstraintError):
            IndicatorAffine(lm, np.array([0.0, 1.0]))

    def test_quadratic_affine_prox_oracle(self, rng):
        for _ in range(10):
            f = sample_quadratic_affine(rng, 5)
            gamma = float(10.0 ** rng.uniform(-1, 1))
            z = rng.normal(size=5)
            x = f.prox(gamma, z)
            assert np.allclose(f.L @ x, f.b, atol=1e-9)
            # oracle: full KKT system solved by a separate route
            n, p = 5, f.L.shape[0]
            kkt = np.block([[gamma * f.Q + np.eye(n), f.L.T],
                            [f.L, np.zeros((p, p))]])
            rhs = np.concatenate([z - gamma * f.q, f.b])
            expect = np.linalg.solve(kkt, rhs)[:n]
            assert np.allclose(x, expect, atol=1e-9)


def smooth_solver(f, top):
    """The bound solve of f's system with matrix ``top``."""
    return prox._smooth_solver(f, lambda: top, "top", 1.0, ValueError)


class TestDirectSolve:
    """The cached LAPACK solves return scipy's cho_solve/lu_solve bits."""

    NAN_MESSAGE = re.escape("array must not contain infs or NaNs")

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_quadratic_matches_cho_solve(self, rng, n):
        m = rng.normal(size=(n, n))
        f = Quadratic(m @ m.T, rng.normal(size=n))
        for gamma in (0.3, 4.0):
            fac = scipy.linalg.cho_factor(gamma * f.Q + np.eye(n))
            for _ in range(3):
                z = rng.normal(size=n)
                assert np.array_equal(f.prox(gamma, z), scipy.linalg.cho_solve(
                    fac, z - gamma * f.q))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_quadratic_affine_matches_lu_solve(self, rng, rows):
        n = 7
        m = rng.normal(size=(n, n))
        lm = rng.normal(size=(rows, n))
        f = QuadraticAffine(m @ m.T + 0.1 * np.eye(n), rng.normal(size=n), lm,
                            lm @ rng.normal(size=n))
        for gamma in (0.3, 4.0):
            fac = scipy.linalg.lu_factor(np.block([
                [gamma * f.Q + np.eye(n), f.L.T],
                [f.L, np.zeros((rows, rows))]]))
            for _ in range(3):
                z = rng.normal(size=n)
                rhs = np.concatenate([z - gamma * f.q, f.b])
                assert np.array_equal(f.prox(gamma, z),
                                      scipy.linalg.lu_solve(fac, rhs)[:n])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_raises(self, rng, bad):
        z = np.array([1.0, bad, 0.0])
        for f in (Quadratic(np.diag([2.0, 1.0, 3.0])),
                  sample_quadratic_affine(rng, 3)):
            with pytest.raises(ValueError, match=self.NAN_MESSAGE):
                f.prox(1.0, z)

    @pytest.mark.parametrize("n", [1, 2, 200])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anywhere_in_rhs_raises(self, n, bad):
        solves = [smooth_solver(f, np.eye(n)) for f in (
            Quadratic(np.eye(n)), QuadraticAffine(np.eye(n), None, [], []),
            QuadraticAffine(np.eye(n), None, np.eye(n)[:1], [1.0]))]
        for i in range(n):
            rhs = np.ones(n)
            rhs[i] = bad
            for solve in solves:
                with pytest.raises(ValueError, match=self.NAN_MESSAGE):
                    solve(rhs)

    @pytest.mark.parametrize("n", [0, 1, 2, 200])
    def test_finite_and_empty_rhs_pass_without_warning(self, rng, n):
        rhs = np.where(rng.random(n) < 0.5, -1.0, 1.0) * np.logspace(
            -308, 308, n)
        if n:
            rhs[0] = np.finfo(float).max  # its square would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prox._finite(rhs) is rhs
            assert np.array_equal(smooth_solver(QuadraticAffine(
                np.eye(n), None, [], []), np.eye(n))(rhs), rhs)
            if n:
                assert np.array_equal(smooth_solver(
                    Quadratic(np.eye(n)), np.eye(n))(rhs), rhs)
                row = QuadraticAffine(np.eye(n), None, np.eye(n)[:1], rhs[:1])
                assert np.array_equal(smooth_solver(row, np.eye(n))(rhs), rhs)

    @pytest.mark.parametrize("z", [[3.0, -0.0, np.nan], [-0.0], [], [1, 2]])
    def test_indicator_zero_prox_is_a_fresh_positive_zero(self, z):
        z = np.array(z)
        out = IndicatorZero().prox(0.5, z)
        assert out.dtype == np.float64 and out.shape == z.shape
        assert out.tobytes() == bytes(8 * z.size)  # +0.0 in every entry
        assert not np.shares_memory(out, z)
        again = IndicatorZero().prox(0.5, z)
        out += 1.0
        assert again.tobytes() == bytes(8 * z.size)


class TestFactorOverflow:
    """A step size whose factor matrix overflows is refused by name, with no
    warning before it; an in-range one at the same instance still solves
    with scipy's bits."""

    def test_quadratic_names_gamma_and_the_matrix(self):
        f = Quadratic(np.diag([1e10, 1.0]))
        with warnings_as_errors(), \
                pytest.raises(ValueError, match=re.escape(
                    "gamma*Q + I is not finite at gamma = 1e+300")) as err:
            f.prox(1e300, np.ones(2))
        assert type(err.value) is ValueError
        fac = scipy.linalg.cho_factor(1e290 * f.Q + np.eye(2))
        assert np.array_equal(f.prox(1e290, np.ones(2)),
                              scipy.linalg.cho_solve(fac, np.ones(2)))

    def test_quadratic_affine_names_gamma_and_the_kkt_matrix(self):
        f = QuadraticAffine(np.diag([1e10, 1.0]), None, [[1.0, 1.0]], [1.0])
        with warnings_as_errors(), \
                pytest.raises(SingularKktError, match=re.escape(
                    "[[gamma*Q + I, L^T], [L, 0]] is not finite at "
                    "gamma = 1e+300")):
            f.prox(1e300, np.ones(2))
        assert np.allclose(f.prox(1.0, np.ones(2)).sum(), 1.0, rtol=0,
                           atol=1e-15)

    def test_refusal_is_not_cached(self):
        f = Quadratic(np.diag([1e10, 1.0]))
        for _ in range(2):
            with warnings_as_errors(), pytest.raises(ValueError):
                f.prox(1e300, np.ones(2))
        assert set(vars(f)) == {"Q", "q", "dim", "regularity"}

    @pytest.mark.parametrize("call, error, message", [
        (lambda: verify_point(1e300, 1.0, 1e10, 0.5), ValueError,
         "gamma*Q + I is not finite at gamma = 10000000000.0"),
        (lambda: QuadraticAffine(np.diag([1e300, 1.0]), None, [[1.0, 1.0]],
                                 [0.0]).prox(1e10, np.ones(2)),
         SingularKktError, "[[gamma*Q + I, L^T], [L, 0]] is not finite at "
         "gamma = 10000000000.0"),
        (lambda: AdmmEngine(EqConstrainedProblem(
            Quadratic(np.eye(2)), Zero(2), np.diag([1e200, 1.0]), -np.eye(2),
            np.zeros(2)), 1e10, 1.0), ValueError,
         "Q + gamma*A^T A is not finite at gamma = 10000000000.0")],
        ids=["verify_point", "quadratic_affine", "admm_x_update"])
    def test_each_matrix_is_formed_without_a_warning(self, call, error,
                                                     message):
        # the named refusal is the one signal: an overflow warning ahead of
        # it would be all a caller under warnings-as-errors sees
        with warnings_as_errors(), pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message


def _scalable_kinds(n: int) -> list:
    """One member of each JSON kind at dimension n, both ``PwlPenalty``
    forms, and two ``Separable``s of one-coordinate members: soft-thresholds,
    bands and boxes (member maps), and bands and boxes (one select)."""
    w, lo = np.linspace(0.0, 3.0, n), -np.linspace(0.5, 2.0, n)
    q, one = np.eye(n) + 0.5, np.ones((1, n))
    l1 = [WeightedL1([wi]) for wi in w]
    band = [PwlPenalty(a, -a, wi) for a, wi in zip(lo, w)]
    box = [Box([a], [-a]) for a in lo]
    return [Quadratic(q, w), QuadraticAffine(q, w, one, [1.0]), Zero(n),
            IndicatorZero(n), IndicatorAffine(one, [1.0]), Box(lo, -lo),
            WeightedL1(w), PwlPenalty(-1.0, 1.0, 2.0, n),
            PwlPenalty(lo, -lo, w, n),
            Separable([(i, i + 1, (l1, band, box)[i % 3][i])
                       for i in range(n)]),
            Separable([(i, i + 1, (band, box)[i % 2][i]) for i in range(n)])]


class TestParameterOverflow:
    """A parameter formed from a diagonal scale or a step size may overflow:
    the result, or the constructor's named refusal, is the one signal."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-320.0, 300.0), st.booleans()),
                    min_size=1, max_size=8),
           st.floats(-1022.0, 300.0 * np.log2(10.0)))
    def test_scaling_and_binding_warn_nothing(self, diagonal, log2_gamma):
        # |s_i| from 1e-320 to 1e300, gamma from 2^-1022 to 1e300
        s = np.array([(-1.0) ** neg * 10.0 ** e for e, neg in diagonal])
        gamma, z = 2.0 ** log2_gamma, np.linspace(-3.0, 3.0, s.size)
        with warnings_as_errors():
            for f in _scalable_kinds(s.size):
                try:
                    scaled = diag_scale(f, s)
                except (ValueError, ProxsplitError):
                    continue
                if isinstance(scaled, (WeightedL1, PwlPenalty, Box,
                                       Separable)):
                    assert np.isfinite(scaled.prox_map(gamma)(z)).all()

    @pytest.mark.parametrize("f, gamma, z, want", [
        (WeightedL1([1e308]), 1e10, [1.0], [0.0]),
        (PwlPenalty([0.0, 0.0], 1.0, [1e308, 1.0]), 1e10, [5.0, 5.0],
         [1.0, 1.0]),
        (PwlPenalty([-1e308, -1e308], 1.0, 1.0), 1e308, [5.0, -5.0],
         [1.0, -5.0])],
        ids=["weighted_l1", "pwl_penalty", "pwl_penalty_edges"])
    def test_an_infinite_threshold_proxes_to_its_limit(self, f, gamma, z,
                                                       want):
        with warnings_as_errors():
            assert np.array_equal(f.prox(gamma, np.array(z)), want)

    def test_scaled_weights_are_refused_by_name_alone(self):
        problem = EqConstrainedProblem(
            Quadratic(np.eye(1)), WeightedL1([1e200]), np.eye(1),
            -np.array([[1e-200]]), [0.0])
        with warnings_as_errors(), pytest.raises(
                ValueError, match="weights must be finite and nonnegative"):
            admm_solve(problem, 1.0, 0.5)
        with warnings_as_errors():
            assert diag_scale(Zero(1), np.array([1e-320])).dim == 1

    @pytest.mark.parametrize("make", [
        lambda: IndicatorAffine([[1e-320, 0.0]], [1.0]),
        # L / s = [[1e-310, 1e-312]]: the set is not empty, but no double
        # reaches it, and the overflow is named instead of "no point"
        lambda: diag_scale(IndicatorAffine([[1e-10, 1e-12]], [1.0]),
                           np.array([1e300, 1e300]))],
        ids=["subnormal", "scaled"])
    def test_an_overflowing_pseudo_inverse_is_refused_by_name(self, make):
        with warnings_as_errors(), pytest.raises(ValueError) as info:
            make()
        assert type(info.value) is ValueError
        assert str(info.value) == "the pseudo-inverse of L overflows"


class TestRewrittenVectors:
    """q and b may change in place between solves, as in the MPC closed
    loop: a prox, and a map bound before the change, read them at the call."""

    @pytest.mark.parametrize("kind", ["quadratic", "quadratic_affine"])
    def test_vectors_rewritten_in_place_are_read_at_the_call(self, rng, kind):
        if kind == "quadratic":
            f = Quadratic(np.diag([4.0, 1.0, 2.0]), rng.normal(size=3))
        else:
            f = sample_quadratic_affine(rng, 3)
        z = rng.normal(size=3)
        maps = [(gamma, f.prox_map(gamma)) for gamma in (0.3, 0.7)]
        f.q[:] = rng.normal(size=3)
        if kind == "quadratic":
            fresh = Quadratic(f.Q, f.q.copy())
        else:
            f.b[:] = f.L @ rng.normal(size=3)
            fresh = QuadraticAffine(f.Q, f.q.copy(), f.L, f.b.copy())
        for gamma, prox_map in maps:
            want = fresh.prox(gamma, z).tobytes()
            assert f.prox(gamma, z).tobytes() == want
            assert prox_map(z).tobytes() == want

    def test_a_map_bound_while_q_is_plus_zero_skips_q(self, rng):
        # the one exception: a Quadratic's map bound while q is all +0.0
        # skips z - gamma*q, so it keeps the old q after a rewrite, while
        # prox and maps bound after the rewrite read the new q
        f = Quadratic(np.diag([4.0, 1.0, 2.0]))
        old = Quadratic(f.Q)
        z = rng.normal(size=3)
        maps = [(gamma, f.prox_map(gamma)) for gamma in (0.3, 0.7, 1.0)]
        f.q[:] = rng.normal(size=3)
        fresh = Quadratic(f.Q, f.q.copy())
        for gamma, prox_map in maps:
            want = fresh.prox(gamma, z).tobytes()
            assert f.prox(gamma, z).tobytes() == want
            assert f.prox_map(gamma)(z).tobytes() == want
            assert prox_map(z).tobytes() == old.prox(gamma, z).tobytes()
        g = Quadratic(np.eye(2))
        bound = g.prox_map(1.0)
        g.q[:] = [1.0, 1.0]
        assert bound(np.zeros(2)).tolist() == [0.0, 0.0]
        np.testing.assert_allclose(g.prox(1.0, np.zeros(2)), [-0.5, -0.5],
                                   rtol=1e-15)


#: one instance of every catalog kind on 4 coordinates, the quadratic with
#: a q of +0.0 (its map skips z - gamma*q), with one -0.0 entry (the map
#: keeps it: -0.0 - -0.0 is +0.0) and with nonzero entries
_Q4 = [[4.0, 1.0, 0.0, 0.0], [1.0, 3.0, 1.0, 0.0], [0.0, 1.0, 2.0, 0.5],
       [0.0, 0.0, 0.5, 1.0]]
_L4 = [[1.0, 1.0, 0.0, -1.0]]
_MAP_KINDS = {
    "quadratic_q_plus_zero": lambda: Quadratic(_Q4),
    "quadratic_q_minus_zero": lambda: Quadratic(_Q4, [0.0, -0.0, 0.0, 0.0]),
    "quadratic_q_nonzero": lambda: Quadratic(_Q4, [1.0, -2.0, 0.5, 0.0]),
    "quadratic_affine": lambda: QuadraticAffine(_Q4, [1.0, -2.0, 0.5, 0.0],
                                                _L4, [0.5]),
    "zero": lambda: Zero(4),
    "zero_any_dim": Zero,
    "indicator_zero": lambda: IndicatorZero(4),
    "indicator_affine": lambda: IndicatorAffine(_L4, [0.5]),
    "box": lambda: Box([-1.0, 0.0, -2.0, -0.0], [1.0, 0.0, 3.0, 0.5]),
    "weighted_l1": lambda: WeightedL1([0.5, 0.0, 2.0, 1.0]),
    "pwl_penalty": lambda: PwlPenalty(-0.5, 0.5, 2.0, 4),
    "pwl_penalty_per_coordinate": lambda: PwlPenalty(
        [-0.5, -1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 2.0], [2.0, 0.5, 1.0, 0.0]),
    "separable_bands": lambda: Separable([
        (0, 2, PwlPenalty(-0.5, 0.5, 2.0)),
        (2, 4, Box([0.0, -1.0], [1.0, 0.0]))]),
    "separable_mixed": lambda: Separable([
        (0, 1, Zero(1)), (1, 3, WeightedL1([0.5, 2.0])),
        (3, 4, Quadratic([[2.0]], [1.0]))]),
    "conjugate": lambda: ConjugateOf(Quadratic(_Q4, [1.0, -2.0, 0.5, 0.0])),
}
#: signed zeros, subnormals and +/-1e300 among ordinary values
_MAP_POINTS = [
    [0.0, -0.0, 5e-324, -5e-324],
    [1.0, -0.0, 0.0, -0.0],
    [1e300, -1e300, 0.7, -2.3],
    [-0.0, 1e300, -2.2250738585072014e-308, 3.0],
    [1.5, -0.25, 0.0, -1e300],
]


def reference_prox(f: prox.ProxFn, gamma: float, z: np.ndarray) -> np.ndarray:
    """The prox of every catalog kind written out from its formula, through
    scipy's factorizations and never through ``prox_map`` or ``prox``."""
    if isinstance(f, Quadratic):
        fac = scipy.linalg.cho_factor(gamma * f.Q + np.eye(f.dim))
        return scipy.linalg.cho_solve(fac, z - gamma * f.q)
    if isinstance(f, QuadraticAffine):
        p = f.L.shape[0]
        kkt = np.block([[gamma * f.Q + np.eye(f.dim), f.L.T],
                        [f.L, np.zeros((p, p))]])
        rhs = np.concatenate([z - gamma * f.q, f.b])
        return scipy.linalg.lu_solve(scipy.linalg.lu_factor(kkt), rhs)[:f.dim]
    if isinstance(f, Zero):
        return z.copy()
    if isinstance(f, IndicatorZero):
        return np.zeros(z.shape)
    if isinstance(f, IndicatorAffine):
        return z - np.linalg.pinv(f.L) @ (f.L @ z - f.b)
    if isinstance(f, Box):
        return np.minimum(np.maximum(z, f.lo), f.hi)
    if isinstance(f, WeightedL1):
        return np.sign(z) * np.maximum(np.abs(z) - gamma * f.w, 0.0)
    if isinstance(f, PwlPenalty):
        return nested_select_pwl_prox(f, gamma, z)
    if isinstance(f, Separable):
        return np.concatenate([reference_prox(fn, gamma, z[a:b])
                               for a, b, fn in f.members])
    assert isinstance(f, ConjugateOf)
    return z - gamma * reference_prox(f.inner, 1.0 / gamma, z / gamma)


class TestProxMap:
    """``prox_map(gamma)`` is the prox at one step size: the bits of each
    kind's formula and of the checked ``prox``, with maps of several gammas
    live on one instance, and its constants formed once per bind."""

    GAMMAS = (0.3, 1.7, 0.3, 2.5, 1.7)

    @pytest.mark.parametrize("kind", sorted(_MAP_KINDS))
    def test_map_has_the_bits_of_the_checked_prox(self, kind):
        f = _MAP_KINDS[kind]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maps = [(gamma, f.prox_map(gamma)) for gamma in self.GAMMAS]
            for z in map(np.array, _MAP_POINTS):
                for gamma, prox_map in maps:
                    got = prox_map(z)
                    want = reference_prox(f, gamma, z).tobytes()
                    assert got.tobytes() == want
                    assert f.prox(gamma, z).tobytes() == want
                    assert not np.shares_memory(got, z)

    @pytest.mark.parametrize("max_iters", [1, 7, 10_000])
    def test_a_solve_factors_each_smooth_term_once(self, monkeypatch,
                                                    max_iters):
        # f at gamma and the conjugate member's quadratic at 1/gamma, each
        # factored when its map is bound, whatever the iteration count
        calls = []
        solver = prox._smooth_solver
        monkeypatch.setattr(prox, "_smooth_solver", lambda *args: (
            calls.append(args[3]), solver(*args))[1])
        f = Quadratic(_Q4, [1.0, -2.0, 0.5, 0.0])
        g = Separable([(0, 2, WeightedL1([1.0, 0.5])), (2, 4, ConjugateOf(
            Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.1])))])
        trace = dr_solve(f, g, 0.7, 1.2, np.array([0.4, -1.0, 2.0, 0.5]),
                         max_iters=max_iters)
        assert trace.converged == (max_iters == 10_000)
        assert trace.converged or trace.iterations == max_iters
        assert calls == [0.7, 1.0 / 0.7]
        assert trace.x_final.tobytes() == f.prox(0.7, trace.z_final).tobytes()

    @pytest.mark.parametrize("q", [
        [0.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0], [1.0, -2.0, 0.5, 0.0],
    ], ids=["plus_zero", "minus_zero", "nonzero"])
    @pytest.mark.parametrize("q_matrix", [_Q4, np.diag([4.0, 3.0, 2.0, 1.0])],
                             ids=["coupled", "diagonal"])
    def test_quadratic_map_solves_z_minus_gamma_q(self, q_matrix, q):
        # the checked prox runs the map, so the reference is the formula; a
        # diagonal Q keeps the sign of a zero, which -0.0 - -0.0 flips
        f = Quadratic(q_matrix, q)
        for gamma in self.GAMMAS:
            fac = scipy.linalg.cho_factor(gamma * f.Q + np.eye(4))
            prox_map = f.prox_map(gamma)
            for z in map(np.array, _MAP_POINTS):
                expect = scipy.linalg.cho_solve(fac, z - gamma * f.q)
                assert prox_map(z).tobytes() == expect.tobytes()

    def test_zero_maps_copy_and_indicator_zero_maps_zeros(self):
        for z in map(np.array, _MAP_POINTS):
            for f in (Zero(), Zero(4)):
                got = f.prox_map(0.3)(z)
                assert got.tobytes() == z.tobytes()
                assert not np.shares_memory(got, z)
            zeros = IndicatorZero(4).prox_map(0.3)(z)
            assert zeros.tobytes() == bytes(8 * z.size)


_COPIERS = pytest.mark.parametrize("copier", [
    lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
    ids=["pickle", "deepcopy"])


class TestCopies:
    """Every kind and every problem pickles and deep-copies (nothing holds
    a lock), and the copy solves with the original's bits."""

    @_COPIERS
    @pytest.mark.parametrize("kind", sorted(_MAP_KINDS))
    def test_every_kind_round_trips(self, kind, copier):
        f = _MAP_KINDS[kind]()
        back = copier(f)
        assert type(back) is type(f) and back is not f
        for z in map(np.array, _MAP_POINTS):
            for gamma in (0.3, 1.7):
                assert back.prox(gamma, z).tobytes() == f.prox(
                    gamma, z).tobytes()

    @_COPIERS
    @pytest.mark.parametrize("name", ["lasso", "mpc"])
    def test_desk_problems_round_trip(self, name, copier):
        problem = (gen_lasso(LassoSpec(n=50, m=75, nnz_per_row=10))
                   if name == "lasso" else
                   gen_mpc(MpcSpec(), np.zeros(4), [0.0, 0.0, 0.0, 10.0]))
        back = copier(problem)
        assert back.to_json() == problem.to_json()
        *_, want = admm_solve(problem, 1.0, 0.5, max_iters=20)
        *_, got = admm_solve(back, 1.0, 0.5, max_iters=20)
        assert got.z_final.tobytes() == want.z_final.tobytes()


class TestDiagScale:
    def test_substitution_identity(self, rng):
        # f(sign * t / d) minimized in t must equal the scaled prox
        for _ in range(60):
            dim = int(rng.integers(1, 5))
            f = sample_catalog_fn(rng, dim)
            d = rng.uniform(0.2, 3.0, size=dim)
            sign = int(rng.choice([1, -1]))
            scaled = diag_scale(f, sign * d)
            gamma = float(10.0 ** rng.uniform(-1, 1))
            t = rng.normal(size=dim)
            direct = gamma * scaled(scaled.prox(gamma, t)) + 0.5 * np.sum(
                (scaled.prox(gamma, t) - t) ** 2)
            # check against coarse sampling of the same objective
            for _ in range(30):
                cand = scaled.prox(gamma, t) + 0.1 * rng.normal(size=dim)
                val = gamma * scaled(cand) + 0.5 * np.sum((cand - t) ** 2)
                assert direct <= val + 1e-9

    def test_scaled_evaluation_matches_original(self, rng):
        f = WeightedL1([2.0, 0.5])
        d = np.array([2.0, 4.0])
        scaled = diag_scale(f, -d)
        t = rng.normal(size=2)
        assert scaled(t) == pytest.approx(f(-t / d), abs=1e-12)

    def test_pwl_penalty_stays_one_vectorized_member(self, rng):
        # Reference: a Separable of one-coordinate scalar members, each
        # scaled by its own d_i; the single array member must match it bit
        # for bit.
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            lo = float(rng.normal())
            f = PwlPenalty(lo, lo + float(rng.uniform(0.1, 2.0)),
                           float(rng.uniform(0.1, 10.0)), dim)
            d = rng.uniform(0.2, 3.0, size=dim)
            assert not np.all(d == d[0])
            for sign in (1, -1):
                scaled = diag_scale(f, sign * d)
                assert type(scaled) is PwlPenalty and scaled.dim == dim
                members = []
                for i, di in enumerate(map(float, d)):
                    if sign > 0:
                        fi = PwlPenalty(f.lo * di, f.hi * di, f.slope / di, 1)
                    else:
                        fi = PwlPenalty(-f.hi * di, -f.lo * di,
                                        f.slope / di, 1)
                    members.append((i, i + 1, fi))
                reference = Separable(members)
                for gamma in (0.01, 0.3, 1.0, 7.0, 100.0):
                    t = 4.0 * rng.normal(size=dim)
                    assert np.array_equal(scaled.prox(gamma, t),
                                          reference.prox(gamma, t))
                    assert scaled(t) == pytest.approx(reference(t),
                                                      rel=1e-14, abs=1e-14)

    def test_mixed_signs_match_one_coordinate_scalings(self, rng):
        # Reference: a Separable of one-coordinate members, each scaled by
        # its own signed entry; the mixed-sign scaling must match it bit
        # for bit, and must evaluate as f(S^-1 t).
        s = np.array([1.5, -0.5, 2.0, -3.0])
        lo = rng.normal(size=4)
        hi = lo + rng.uniform(0.1, 2.0, size=4)

        def coordinate(f, i):
            cut = (lambda v: v if np.ndim(v) == 0 else v[i:i + 1])
            if isinstance(f, Box):
                return Box(cut(f.lo), cut(f.hi))
            if isinstance(f, WeightedL1):
                return WeightedL1(cut(f.w))
            if isinstance(f, PwlPenalty):
                return PwlPenalty(cut(f.lo), cut(f.hi), cut(f.slope), 1)
            return type(f)(1)

        for f in (Box(lo, hi), WeightedL1(rng.uniform(0.0, 3.0, size=4)),
                  PwlPenalty(lo, hi, rng.uniform(0.1, 10.0, size=4)),
                  PwlPenalty(-1.0, 0.5, 2.0, 4), Zero(4), IndicatorZero(4)):
            scaled = diag_scale(f, s)
            assert type(scaled) is type(f) and scaled.dim == 4
            reference = Separable([(i, i + 1,
                                    diag_scale(coordinate(f, i), s[i:i + 1]))
                                   for i in range(4)])
            for gamma in (0.01, 0.3, 1.0, 7.0, 100.0):
                t = 4.0 * rng.normal(size=4)
                assert np.array_equal(scaled.prox(gamma, t),
                                      reference.prox(gamma, t))
                assert scaled(t) == pytest.approx(f(t / s), rel=1e-14,
                                                  abs=1e-14)
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError, match="nonzero"):
                diag_scale(Box(lo, hi), np.where(s > 0, s, bad))

    def test_box_scaling(self):
        f = Box([-1.0, 0.0], [2.0, 3.0])
        d = np.array([2.0, 0.5])
        up = diag_scale(f, d)
        assert np.allclose(up.lo, [-2.0, 0.0])
        assert np.allclose(up.hi, [4.0, 1.5])
        down = diag_scale(f, -d)
        assert np.allclose(down.lo, [-4.0, -1.5])
        assert np.allclose(down.hi, [2.0, 0.0])


class TestSeparable:
    def test_prox_composes(self, rng):
        f = Separable([
            (0, 2, WeightedL1([1.0, 2.0])),
            (2, 3, Zero(1)),
            (3, 5, Box([-1.0, -1.0], [1.0, 1.0])),
        ])
        z = rng.normal(size=5) * 3
        got = f.prox(0.7, z)
        assert np.allclose(got[:2], WeightedL1([1.0, 2.0]).prox(0.7, z[:2]))
        assert np.allclose(got[2:3], z[2:3])
        assert np.allclose(got[3:], np.clip(z[3:], -1, 1))

    def test_ranges_must_tile(self):
        with pytest.raises(ValueError):
            Separable([(0, 2, Zero(2)), (3, 4, Zero(1))])
        with pytest.raises(ValueError):
            Separable([(0, 2, Zero(2)), (1, 4, Zero(3))])

    @pytest.mark.parametrize("start, stop, message", [
        (0, 2.7, "stop must be a non-negative integer, got 2.7"),
        (False, True, "start must be a non-negative integer, got False"),
        (0, "2", "stop must be a non-negative integer, got '2'"),
        (-1, 1, "start must be a non-negative integer, got -1"),
    ])
    def test_ranges_are_integers(self, start, stop, message):
        # a fractional stop would be truncated to a shorter range
        with pytest.raises(ValueError) as err:
            Separable([(start, stop, Zero())])
        assert str(err.value) == message
        assert Separable([(np.int64(0), 2.0, Zero())]).dim == 2

    def test_evaluation_checks_its_point_once(self, monkeypatch):
        seen, check = [], prox.ProxFn._check_point
        monkeypatch.setattr(prox.ProxFn, "_check_point", lambda self, z: (
            seen.append(self.kind) or check(self, z)))
        f = Separable([(0, 2, WeightedL1([1.0, 2.0])), (2, 3, Zero(1)),
                       (3, 5, Box([-1.0, -1.0], [1.0, 1.0]))])
        assert f(np.array([1.0, -1.0, 7.0, 0.5, -0.5])) == 3.0
        assert seen == ["separable"]


class TestJsonRoundtrip:
    def test_all_kinds(self, rng):
        candidates = [
            Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]),
                      np.array([1.0, -1.0])),
            QuadraticAffine(np.eye(2), np.zeros(2),
                            np.array([[1.0, 1.0]]), np.array([1.0])),
            Zero(3),
            IndicatorZero(2),
            IndicatorAffine(np.array([[1.0, 0.0]]), np.array([2.0])),
            Box([-1.0], [1.0]),
            WeightedL1([0.5, 1.5]),
            PwlPenalty(-0.5, 0.5, 1e6, 4),
            PwlPenalty([-0.5, 0.0, 1.0], [0.5, 0.0, 3.0], [2.0, 0.0, 1e3]),
            PwlPenalty(-1.0, [0.0, 2.0], 4.0),
            Separable([(0, 2, WeightedL1([1.0, 1.0])), (2, 3, Zero(1))]),
        ]
        for f in candidates:
            back = proxfn_from_json(f.to_json())
            assert back.kind == f.kind
            dim = f.dim or 3
            z = rng.normal(size=dim)
            gamma = 0.9
            assert np.allclose(back.prox(gamma, z), f.prox(gamma, z),
                               atol=1e-12)

    def test_pwl_penalty_encoding(self):
        # the scalar form encodes exactly as before: plain floats
        assert json.dumps(PwlPenalty(-1, 2, 3, 4).to_json()) == (
            '{"kind": "pwl_penalty", "lo": -1.0, "hi": 2.0, "slope": 3.0, '
            '"dim": 4}')
        assert json.dumps(PwlPenalty(-0.5, 0.5, 1e6).to_json()) == (
            '{"kind": "pwl_penalty", "lo": -0.5, "hi": 0.5, '
            '"slope": 1000000.0, "dim": null}')
        f = PwlPenalty([-1.0, 0.0], 2.0, [3.0, 0.5])
        assert f.to_json() == {"kind": "pwl_penalty", "lo": [-1.0, 0.0],
                               "hi": 2.0, "slope": [3.0, 0.5], "dim": 2}

    def test_conjugate_wrapper_prox(self, rng):
        f = WeightedL1([1.0, 1.0])
        wrapped = ConjugateOf(f)
        z = rng.normal(size=2) * 3
        # Moreau's identity, written out
        assert np.allclose(wrapped.prox(0.7, z),
                           z - 0.7 * f.prox(1.0 / 0.7, z / 0.7))
        with pytest.raises(NotImplementedError):
            wrapped.to_json()

    @pytest.mark.parametrize("obj, message", [
        # dim is read first, for a kind that ignores it too
        ({"kind": "quadratic", "dim": -1}, "dim must be a non-negative "
         "integer, got -1"),
        ({"kind": "weighted_l1", "dim": 0.5, "w": None}, "dim must be a "
         "non-negative integer, got 0.5"),
        # then the fields in constructor order
        ({"kind": "box", "lo": None, "hi": None}, "lo must be a list of "
         "finite numbers"),
        ({"kind": "quadratic_affine", "Q": 5, "q": None, "L": 5, "b": None},
         "a matrix must be a JSON object"),
        ({"kind": "quadratic_affine", "Q": {"rows": 1, "cols": 1,
                                            "triplets": []},
          "q": [0.0], "L": 5, "b": None}, "a matrix must be a JSON object"),
        ({"kind": "pwl_penalty", "lo": 0.0, "hi": "1", "slope": None},
         "hi must be a finite number or a list of them"),
        ({"kind": "quadratic"}, "'Q'"),
        ({"kind": "conjugate"}, "unknown ProxFn kind 'conjugate'"),
    ])
    def test_first_error_in_field_order(self, obj, message):
        with pytest.raises((ValueError, KeyError)) as info:
            proxfn_from_json(obj)
        assert str(info.value) == message


class TestNonFiniteParameters:
    """The constructors refuse what ``proxfn_from_json`` refuses."""

    @pytest.mark.parametrize("make", [
        lambda: PwlPenalty(-1.0, 1.0, np.nan),
        lambda: PwlPenalty(-1.0, 1.0, np.inf),
        lambda: PwlPenalty(-1.0, 1.0, [2.0, np.nan]),
        lambda: PwlPenalty(np.nan, 1.0, 1.0),
        lambda: PwlPenalty([-1.0, 0.0], [1.0, np.nan], 1.0),
        lambda: PwlPenalty(np.inf, np.inf, 1.0),
        lambda: PwlPenalty(-np.inf, -np.inf, 1.0),
        lambda: Box([np.nan, 0.0], [1.0, 1.0]),
        lambda: Box([0.0, 0.0], [1.0, np.nan]),
        lambda: WeightedL1([np.nan, 1.0]),
        lambda: WeightedL1([np.inf, 1.0]),
        lambda: Quadratic(np.diag([np.inf, 1.0])),
        lambda: Quadratic(np.eye(2), [np.nan, 1.0]),
        lambda: QuadraticAffine(np.eye(2), [np.inf, 0.0], [[1.0, 1.0]],
                                [1.0]),
    ])
    def test_refused(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(ValueError):
                make()

    @pytest.mark.parametrize("make", [
        lambda: IndicatorAffine(np.array([[np.nan]]), [1.0]),
        lambda: IndicatorAffine([[np.inf, 1.0]], [1.0]),
        lambda: IndicatorAffine([[-np.inf, 1.0]], [1.0]),
        lambda: IndicatorAffine(np.eye(1), [np.nan]),
        lambda: IndicatorAffine(np.eye(1), [np.inf]),
        # refused at construction, not blamed on a harmless gamma at the prox
        lambda: QuadraticAffine(np.eye(2), None, [[np.nan, 1.0]],
                                [1.0]).prox(1.0, np.ones(2)),
        lambda: QuadraticAffine(np.eye(2), None, [[1.0, 1.0]], [np.inf]),
        # the constraint A x + B y = c, refused before a step size or B's
        # diagonal test could be blamed
        lambda: EqConstrainedProblem(Quadratic(np.eye(2)), Zero(2),
                                     [[np.nan, 0.0], [0.0, 1.0]], -np.eye(2),
                                     np.ones(2)),
        lambda: EqConstrainedProblem(Quadratic(np.eye(2)), Zero(2),
                                     np.eye(2), np.diag([-1.0, -np.inf]),
                                     np.ones(2)),
        lambda: EqConstrainedProblem(Quadratic(np.eye(2)), Zero(2),
                                     np.eye(2), -np.eye(2), [np.nan, 1.0]),
    ], ids=["l_nan", "l_inf", "l_minus_inf", "b_nan", "b_inf",
            "quadratic_l_nan", "quadratic_b_inf", "problem_a_nan",
            "problem_b_inf", "problem_c_nan"])
    def test_affine_set_data_is_refused_by_name(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before pinv warns
            with pytest.raises(ValueError) as err:
                make()
        assert type(err.value) is ValueError
        assert str(err.value) == "array must not contain infs or NaNs"

    def test_one_dimensional_l_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^q, L, b shapes inconsistent with Q$"):
            QuadraticAffine(np.eye(2), None, np.ones(2), [1.0])

    @pytest.mark.parametrize("lo, hi", [
        ([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
        ([0.0, np.inf], [1.0, np.inf]), ([-np.inf, 0.0], [-np.inf, 1.0])],
        ids=["inf", "-inf", "inf_row", "-inf_row"])
    def test_box_with_no_real_point_is_refused(self, lo, hi):
        # such a box would send every finite point to inf or -inf
        with pytest.raises(ValueError) as info:
            Box(lo, hi)
        assert str(info.value) == (
            "need lo <= hi elementwise, lo < inf, hi > -inf")

    def test_infinite_edges_stay_legal(self):
        f = PwlPenalty(-np.inf, [np.inf, 1.0], 2.0)
        assert np.array_equal(f.prox(0.5, np.array([5.0, 5.0])), [5.0, 4.0])
        assert f(np.array([-1e300, 2.0])) == 2.0
        box = Box([-np.inf, 0.0], [np.inf, np.inf])
        assert np.array_equal(box.prox(1.0, np.array([-3.0, -3.0])),
                              [-3.0, 0.0])

    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    def test_step_must_be_finite(self, gamma):
        # gamma * slope = inf * 0 would be NaN
        for f in (PwlPenalty(-1.0, 1.0, 0.0, 2), Box([0.0, 0.0], [1.0, 1.0]),
                  Zero(2)):
            with pytest.raises(ValueError, match="gamma"):
                f.prox(gamma, np.array([3.0, -3.0]))
        # every kind refuses it before gamma*Q, gamma*w or gamma*slope warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, make in sorted(_MAP_KINDS.items()):
                with pytest.raises(ValueError, match="^" + re.escape(
                        f"gamma must be positive and normal, got {gamma}")):
                    make().prox(gamma, np.array(_MAP_POINTS[1]))


def four_select_pwl_prox(f: PwlPenalty, gamma: float,
                         z: np.ndarray) -> np.ndarray:
    """The earlier PwlPenalty.prox: four masked selects over a copy of z."""
    t = gamma * f.slope
    out = z.copy()
    out = np.where(z > f.hi + t, z - t, out)
    out = np.where((z > f.hi) & (z <= f.hi + t), f.hi, out)
    out = np.where(z < f.lo - t, z + t, out)
    out = np.where((z < f.lo) & (z >= f.lo - t), f.lo, out)
    return out


def nested_select_pwl_prox(f: PwlPenalty, gamma: float,
                           z: np.ndarray) -> np.ndarray:
    """The earlier PwlPenalty.prox: t and the edges formed on every call,
    then one nested select."""
    lo, hi, t = f.lo, f.hi, gamma * f.slope
    return np.where(z > hi + t, z - t, np.where(z > hi, hi, np.where(
        z < lo - t, z + t, np.where(z < lo, lo, z))))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestKernelBits:
    """The band, box and soft-threshold kernels keep the bits of their
    references, down to NaN and the sign of zero (compared as int64 or by
    ``tobytes``)."""

    EDGES = (-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf)
    SPECIAL = (-np.inf, -1.5, -0.0, 0.0, 1.5, np.inf, np.nan)

    GAMMAS = (1.0, 0.3)

    def legal_pairs(self):
        """Every (lo, hi) of EDGES that a Box or PwlPenalty takes."""
        return [(lo, hi) for lo, hi in itertools.product(self.EDGES,
                                                         self.EDGES)
                if lo <= hi and lo < np.inf and hi > -np.inf]

    def cases(self):
        """(lo, hi, slope, points) for every legal pair of edges: points at
        lo, hi, lo - t and hi + t for t = gamma*slope at each of GAMMAS,
        their float neighbours, and the specials."""
        for lo, hi in self.legal_pairs():
            for slope in (0.0, 0.5, 2.0):
                marks = np.array([m for g in self.GAMMAS for m in (
                    lo, hi, lo - g * slope, hi + g * slope)])
                yield lo, hi, slope, np.concatenate([
                    marks, np.nextafter(marks, np.inf),
                    np.nextafter(marks, -np.inf), self.SPECIAL])

    def check_pwl(self, members):
        # each instance is asked at both gammas in turn, so an edge cached
        # under one gamma and read under the other shows
        for gamma in self.GAMMAS * 2:
            for f, z in members:
                got = f.prox(gamma, z)
                for reference in (nested_select_pwl_prox,
                                  four_select_pwl_prox):
                    assert same_bits(got, reference(f, gamma, z)), (
                        reference.__name__, f.lo, f.hi, f.slope, gamma)

    def test_pwl_scalar_parameters(self):
        self.check_pwl([(PwlPenalty(lo, hi, slope), z)
                        for lo, hi, slope, z in self.cases()])

    def test_pwl_per_coordinate_parameters(self):
        # one member holding every case, one coordinate per point
        cols = [[], [], [], []]
        for lo, hi, slope, z in self.cases():
            for col, v in zip(cols, (lo, hi, slope, z)):
                col.append(np.broadcast_to(v, z.shape))
        self.check_pwl([(PwlPenalty(*map(np.concatenate, cols[:3])),
                         np.concatenate(cols[3]))])

    def test_weighted_l1_matches_soft_threshold_at_alternating_gammas(self):
        weights, points = [], []
        for w in (0.0, 0.5, 2.0, 1e308):
            marks = np.array([s * g * w for g in self.GAMMAS
                              for s in (1.0, -1.0)])
            z = np.concatenate([marks, np.nextafter(marks, np.inf),
                                np.nextafter(marks, -np.inf), self.SPECIAL])
            weights.append(np.full(z.size, w))
            points.append(z)
        w, z = map(np.concatenate, (weights, points))
        f = WeightedL1(w)
        for gamma in self.GAMMAS * 2:
            want = np.sign(z) * np.maximum(np.abs(z) - gamma * w, 0.0)
            assert same_bits(f.prox(gamma, z), want), gamma

    def test_box_matches_clip(self):
        pairs = self.legal_pairs()
        boxes = [(Box(np.full(40, lo), np.full(40, hi)),
                  np.resize(np.array(self.SPECIAL + (lo, hi)), 40))
                 for lo, hi in pairs]
        lo, hi = (np.repeat([p[i] for p in pairs], 9) for i in (0, 1))
        boxes.append((Box(lo, hi), np.resize(
            np.array(self.SPECIAL + (-1.0, 1.0)), lo.size)))
        for box, z in boxes:
            assert box.prox(1.0, z).tobytes() == np.clip(
                z, box.lo, box.hi).tobytes()

    def separable_points(self, f, gammas):
        """One row per candidate point for every coordinate of f: its edges
        and the edges shifted by gamma*slope at each of gammas, their float
        neighbours, and the specials (NaN of either sign among them)."""
        lo, hi, slope = (np.concatenate([
            np.broadcast_to(getattr(fn, name, 0.0), b - a)
            for a, b, fn in f.members]) for name in ("lo", "hi", "slope"))
        marks = np.stack([lo, hi] + [m for g in gammas
                                     for m in (lo - g * slope, hi + g * slope)])
        special = np.array(self.SPECIAL + (-np.nan,))
        return np.concatenate([marks, np.nextafter(marks, np.inf),
                               np.nextafter(marks, -np.inf),
                               np.repeat(special[:, None], f.dim, axis=1)])

    def test_separable_bands_and_boxes_match_their_members(self):
        # the one select over a Separable of bands and boxes against each
        # member's own prox on its slice, at alternating gammas
        gammas = (1e-300, 1e-3, 0.3, 1.0, 1e3, 1e300)
        pairs = self.legal_pairs()  # [0.0, -0.0] and [-0.0, 0.0] too
        bands = [(lo, hi, slope) for lo, hi in pairs
                 for slope in (0.0, 0.5, 1.0)]
        scalar = Separable([(4 * i + 2 * is_box, 4 * i + 2 * is_box + 2, fn)
                            for i, (band, box) in enumerate(zip(
                                bands, itertools.cycle(pairs)))
                            for is_box, fn in (
                                (0, PwlPenalty(*band)),
                                (1, Box(*np.repeat([box], 2, axis=0).T)))])
        band_lo, band_hi, slope = np.array(bands).T
        box_lo, box_hi = np.array(pairs).T
        per_coordinate = Separable([
            (0, len(bands), PwlPenalty(band_lo, band_hi, slope)),
            (len(bands), len(bands) + len(pairs), Box(box_lo, box_hi))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (scalar, per_coordinate):
                signs = np.resize([-2.0, 0.5, -1.0, 4.0, -0.5, 1.0], f.dim)
                for g in (f, diag_scale(f, signs)):
                    assert g._bands
                    points = self.separable_points(g, gammas)
                    for gamma in gammas * 2:
                        # each map bound once per gamma, as a solve binds
                        # it: binding g's map concatenates every member's
                        # edges, milliseconds per bind
                        prox = g.prox_map(gamma)
                        maps = [(a, b, fn.prox_map(gamma))
                                for a, b, fn in g.members]
                        for z in points:
                            want = np.concatenate([m(z[a:b])
                                                   for a, b, m in maps])
                            assert same_bits(prox(z), want), gamma
                        # and the checked prox, once per gamma
                        assert same_bits(g.prox(gamma, z), want), gamma


class TestSoftBandMerge:
    """diag_scale keeps every member of the MPC g, whose scaled prox is
    one select over its bands and its input box."""

    SPEC = MpcSpec()

    def desk_problem(self):
        return gen_mpc(self.SPEC, np.zeros(4), np.array([0.0, 0.0, 0.0, 10.0]))

    def signs(self):
        problem = self.desk_problem()
        metric = mpc_metric_objective(problem).metric
        # B = -I scaled by the metric's E is -E; the identity keeps -I
        return {"metric": -metric.diag, "identity": -np.ones(problem.m)}

    @pytest.mark.parametrize("which", ["metric", "identity"])
    def test_diag_scale_keeps_every_member(self, which):
        g, s = self.desk_problem().g, self.signs()[which]
        n_h = self.SPEC.horizon
        scaled = diag_scale(g, s)
        assert [(a, b, fn.kind) for a, b, fn in scaled.members] == [
            (0, n_h, "pwl_penalty"), (n_h, 2 * n_h, "pwl_penalty"),
            (2 * n_h, 4 * n_h, "box")]
        # each member scaled on its own range, no parameters concatenated
        for (a, b, fn), (_, _, member) in zip(scaled.members, g.members):
            want = diag_scale(member, s[a:b])
            for name in ("lo", "hi", "slope"):
                if hasattr(want, name):
                    assert getattr(fn, name).tobytes() == getattr(
                        want, name).tobytes()

    @pytest.mark.parametrize("which", ["metric", "identity"])
    def test_one_band_prox_per_y_update(self, monkeypatch, rng, which):
        # one select over the bands and the input box, no member prox
        problem = self.desk_problem()
        if which == "metric":
            problem = problem.scaled(mpc_metric_objective(problem).metric)
        engine = AdmmEngine(problem, 1.0, 0.5)
        calls, member_calls = [], []
        select = prox._band_select
        monkeypatch.setattr(prox, "_band_select", lambda z, *edges: (
            calls.append(z.size), select(z, *edges))[1])
        for cls in (PwlPenalty, Box):
            monkeypatch.setattr(cls, "prox", lambda self, gamma, z: (
                member_calls.append(self.kind)))
        engine.y_update.solve(rng.normal(size=problem.p))
        assert calls == [4 * self.SPEC.horizon] and not member_calls
