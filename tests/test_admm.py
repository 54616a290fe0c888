"""Relaxed ADMM: update structure, dual correspondence, certified rates."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from proxsplit import admm, worstcase
from proxsplit.admm import (
    AdmmEngine,
    EqConstrainedProblem,
    _apply,
    _diagonal_signature,
    admm_solve,
    verify_dual_equivalence,
)
from proxsplit.errors import CapabilityError, DimensionMismatchError
from proxsplit.linmetric import DiagonalMetric
from proxsplit.prox import (
    Box,
    Quadratic,
    QuadraticAffine,
    WeightedL1,
    Zero,
)
from proxsplit.rates import Regularity, contraction_factor, rate_bound
from proxsplit.worstcase import adversarial_case, build, dual_constants
from proxsplit.bench import (
    LassoSpec,
    MpcSpec,
    _mpc_vectors,
    gen_lasso,
    gen_mpc,
    lasso_metric,
    mpc_metric_objective,
    problem_dual_regularity,
    sweep_gamma_star,
)
from proxsplit.metric import gamma_from_metric


def consensus_lasso(rng, n=6, m=9):
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    f = Quadratic(a.T @ a, -(a.T @ b))
    g = WeightedL1(rng.uniform(0.1, 1.0, size=n))
    eye = np.eye(n)
    return EqConstrainedProblem(f=f, g=g, A=eye, B=-eye, c=np.zeros(n)), a, b


def random_qp(rng, n=5, g_kind="l1"):
    m = rng.normal(size=(n, n))
    f = Quadratic(m @ m.T + np.eye(n), rng.normal(size=n))
    a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    c = rng.normal(size=n)
    if g_kind == "l1":
        g = WeightedL1(rng.uniform(0.1, 2.0, size=n))
    elif g_kind == "box":
        lo = rng.normal(size=n)
        g = Box(lo, lo + rng.uniform(0.5, 2.0, size=n))
    else:
        g = Zero(n)
    return EqConstrainedProblem(f=f, g=g, A=a, B=-np.eye(n), c=c)


class TestAdmmStep:
    def test_lasso_updates_have_the_expected_closed_forms(self, rng):
        problem, a, b = consensus_lasso(rng)
        gamma = 0.8
        engine = AdmmEngine(problem, gamma, alpha=0.5)
        y = rng.normal(size=problem.m)
        u = rng.normal(size=problem.p)
        x_new, y_new, u_new, _ = engine.step(y, u, engine.b * y)
        # x-update: (A^T A + gamma I) x = A^T b + gamma (y - u)
        lhs = (a.T @ a + gamma * np.eye(problem.n)) @ x_new
        assert np.allclose(lhs, a.T @ b + gamma * (y - u), atol=1e-9)
        # y-update at alpha = 1/2: soft threshold of x_new + u
        w = problem.g.w
        v = x_new + u
        expect_y = np.sign(v) * np.maximum(np.abs(v) - w / gamma, 0.0)
        assert np.allclose(y_new, expect_y, atol=1e-10)
        # scaled dual accumulates the primal residual
        assert np.allclose(u_new, u + x_new - y_new, atol=1e-12)

    def test_half_relaxation_uses_plain_ax(self, rng):
        problem = random_qp(rng)
        engine = AdmmEngine(problem, 1.0, alpha=0.5)
        y = rng.normal(size=problem.m)
        u = rng.normal(size=problem.p)
        x_new, y_new, u_new, _ = engine.step(y, u, engine.b * y)
        # with 1 - 2*alpha = 0 the relaxed point is exactly A x
        xa = problem.A @ x_new
        v = problem.c - xa - u
        expect_y = engine.y_update.solve(v)
        assert np.allclose(y_new, expect_y, atol=1e-12)
        assert np.allclose(u_new, u + xa + problem.B @ y_new - problem.c,
                           atol=1e-12)

    def test_scalar_fixed_point_at_origin(self):
        f = Quadratic(np.array([[1.0]]))
        problem = EqConstrainedProblem(f=f, g=Zero(1), A=np.eye(1),
                                       B=np.eye(1), c=np.zeros(1))
        engine = AdmmEngine(problem, gamma=1.0, alpha=0.5)
        x, y, u, by = engine.step(np.zeros(1), np.zeros(1), np.zeros(1))
        assert np.allclose(x, 0.0)
        assert np.allclose(y, 0.0)
        assert np.allclose(u, 0.0)
        assert np.allclose(by, 0.0)
        assert np.allclose(engine.z_equiv(y, u), 0.0)

    def test_state_invariant_z_equals_gamma_u_minus_by(self, rng):
        problem = random_qp(rng, g_kind="box")
        gamma = 1.7
        engine = AdmmEngine(problem, gamma, 0.9)
        y, u = np.zeros(problem.m), np.zeros(problem.p)
        by = engine.b * y
        for _ in range(5):
            _, y, u, by = engine.step(y, u, by)
            assert np.array_equal(by, engine.b * y)
            expect = gamma * (u - problem.B @ y)
            assert np.linalg.norm(engine.z_equiv(y, u) - expect) <= 1e-12


def scaled_desk_lasso():
    problem = gen_lasso(LassoSpec(n=50, m=75, nnz_per_row=10, seed=0))
    metric = lasso_metric(problem)
    return problem.scaled(metric), sweep_gamma_star(problem, metric)


def scaled_desk_mpc():
    problem = gen_mpc(MpcSpec(), np.zeros(4), [0.0, 0.0, 0.0, 10.0])
    obj = mpc_metric_objective(problem)
    return problem.scaled(obj.metric), gamma_from_metric(obj)


def diagonal_prox_problem():
    # catalog f under a negative diagonal A: the x-update is a prox
    return EqConstrainedProblem(
        f=WeightedL1([0.5, 1.0, 2.0]), g=Box([-1.0] * 3, [1.0] * 3),
        A=-np.diag([1.0, 2.0, 4.0]), B=np.diag([3.0, 1.0, 0.5]),
        c=np.array([1.0, -2.0, 0.5])), 0.7


def x_update_matrix(problem, gamma):
    """The x-update's system matrix from the dense formula, apart from the
    engine: Q + gamma A^T A, or its saddle system with L."""
    f, a = problem.f, problem.A
    m = f.Q + gamma * (a.T @ a)
    if isinstance(f, Quadratic):
        return m
    p = f.L.shape[0]
    return np.block([[m, f.L.T], [f.L, np.zeros((p, p))]])


def x_update_factor(problem, gamma):
    """scipy's factor of :func:`x_update_matrix`: Cholesky, or LU with L."""
    m = x_update_matrix(problem, gamma)
    if isinstance(problem.f, Quadratic):
        return scipy.linalg.cho_factor(m)
    return scipy.linalg.lu_factor(m)


def dense_step(engine, y, u):
    """The module docstring's iteration with dense A and B products."""
    prob, gamma, alpha = engine.problem, engine.gamma, engine.alpha
    xu, yu = engine.x_update, engine.y_update
    by = prob.B @ y
    v = prob.c - by - u
    if xu.mode == "quadratic":
        x = scipy.linalg.cho_solve(x_update_factor(prob, gamma),
                                   gamma * (prob.A.T @ v) - xu.q)
    elif xu.mode == "quadratic_affine":
        rhs = np.concatenate([gamma * (prob.A.T @ v) - xu.q, xu.b])
        x = scipy.linalg.lu_solve(x_update_factor(prob, gamma), rhs)[:xu.n]
    else:
        x = xu.scaled_f.prox(1.0 / gamma, v) / _diagonal_signature(prob.A)
    xa = 2.0 * alpha * (prob.A @ x) - (1.0 - 2.0 * alpha) * (by - prob.c)
    s_b = _diagonal_signature(prob.B)
    y_new = yu.scaled_g.prox(1.0 / gamma, prob.c - xa - u) / s_b
    return x, y_new, u + xa + prob.B @ y_new - prob.c


class TestStructuredStep:
    """Diagonal A and B act as vectors, with the dense formulas' bits."""

    @pytest.mark.parametrize("make, a_is_vector", [
        (scaled_desk_lasso, True),
        (scaled_desk_mpc, False),
        (diagonal_prox_problem, True),
    ], ids=["desk_lasso", "desk_mpc", "prox_x_update"])
    def test_step_equals_dense_formulas(self, make, a_is_vector):
        problem, gamma = make()
        engine = AdmmEngine(problem, gamma, alpha=0.8)
        assert (engine.a.ndim == 1) == a_is_vector
        assert engine.b.ndim == 1
        rng = np.random.default_rng(0)
        z0 = rng.normal(size=problem.p)
        y, u = engine.consistent_init(z0)
        y_ref = engine.y_update.scaled_g.prox(
            1.0 / gamma, -z0 / gamma) / _diagonal_signature(problem.B)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(u, z0 / gamma + problem.B @ y_ref)
        for _ in range(50):
            expect = dense_step(engine, y, u)
            got = engine.step(y, u, engine.b * y)
            for g, e in zip(got, expect):
                assert np.array_equal(g, e)
            _, y, u, by = got
            assert np.array_equal(by, engine.b * y)
            assert np.array_equal(engine.z_equiv(y, u),
                                  gamma * (u - problem.B @ y))

    @pytest.mark.parametrize("make", [scaled_desk_lasso, scaled_desk_mpc],
                             ids=["desk_lasso", "desk_mpc"])
    def test_nan_query_raises(self, make):
        problem, gamma = make()
        engine = AdmmEngine(problem, gamma, alpha=1.0)
        v = np.zeros(problem.p)
        v[0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            engine.x_update.solve(v)
        z0 = np.zeros(problem.p)
        z0[0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            admm_solve(problem, gamma, 1.0, z0=z0)

    def test_quadratic_prox_nan_query_raises(self):
        f = Quadratic(np.diag([2.0, 1.0]), [1.0, 0.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                f.prox(1.0, [bad, 0.0])
        assert np.allclose(f.prox(1.0, [3.0, 2.0]), [2.0 / 3.0, 1.0],
                           rtol=0, atol=1e-15)


def reference_solve(engine, z0, iters):
    """admm_solve's iteration written out with B y formed afresh at every
    use: (x, y, u, [z^0, ..., z^iters])."""
    prob, gamma, alpha = engine.problem, engine.gamma, engine.alpha
    b, c = engine.b, prob.c
    y, u = engine.consistent_init(z0)
    x, zs = np.zeros(prob.n), [gamma * (u - b * y)]
    for _ in range(iters):
        x = engine.x_update.solve(c - b * y - u)
        xa = 2.0 * alpha * _apply(engine.a, x) - (1.0 - 2.0 * alpha) * (
            b * y - c)
        y = engine.y_update.solve(c - xa - u)
        u = u + xa + b * y - c
        zs.append(gamma * (u - b * y))
    return x, y, u, zs


class TestSubnormalStep:
    """The proxes of both updates take 1.0 / gamma, which overflows for a
    subnormal gamma, so the engine refuses one up front, naming gamma."""

    SMALLEST_NORMAL = 2.0 ** -1022

    @pytest.mark.parametrize("gamma", [
        5e-324, 1e-320, 1e-310, float(np.nextafter(SMALLEST_NORMAL, 0.0))])
    @pytest.mark.parametrize("make", [diagonal_prox_problem,
                                      scaled_desk_lasso])
    def test_subnormal_gamma_is_refused_by_name(self, make, gamma):
        problem, _ = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"gamma must be positive and normal, got {gamma}")):
                AdmmEngine(problem, gamma, alpha=1.0)

    def test_smallest_normal_gamma_keeps_its_bits(self):
        problem, _ = diagonal_prox_problem()
        gamma = self.SMALLEST_NORMAL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = AdmmEngine(problem, gamma, alpha=1.0)
            v = np.array([0.5, -1.0, 2.0])
            got = engine.y_update.solve(v)
        expect = engine.y_update.scaled_g.prox(1.0 / gamma, v) / engine.b
        assert got.tobytes() == expect.tobytes()


class TestCarriedBy:
    """admm_solve forms B y once per iteration and carries it through
    AdmmEngine.step, with the bits of a loop that forms it at every use."""

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.6])
    @pytest.mark.parametrize("make", [scaled_desk_lasso, scaled_desk_mpc],
                             ids=["desk_lasso", "desk_mpc"])
    def test_trace_equals_reference_loop(self, make, alpha):
        problem, gamma = make()
        engine = AdmmEngine(problem, gamma, alpha)
        z0 = np.random.default_rng(1).normal(size=problem.p)
        *got, trace = admm_solve(problem, gamma, alpha, tol=1e-300,
                                 max_iters=200, z0=z0, engine=engine)
        *want, zs = reference_solve(engine, z0, 200)
        assert trace.iterations == 200 and len(trace.z_history) == 201
        for g, w in zip(got + trace.z_history, want + zs):
            assert g.tobytes() == w.tobytes()
        assert trace.z_final.tobytes() == zs[-1].tobytes()

    @pytest.mark.parametrize("kind", ["desk_lasso", "desk_mpc"])
    def test_vectors_rewritten_in_place_match_a_fresh_problem(self, kind):
        # the MPC closed loop rewrites f.q and f.b in place and solves again
        # with the same engine; each solve must equal one on a fresh problem
        solve = dict(alpha=0.8, tol=1e-300, max_iters=60)
        ref = np.array([0.0, 0.0, 0.0, 10.0])
        if kind == "desk_mpc":
            spec = MpcSpec()
            problem = gen_mpc(spec, np.zeros(4), ref)
            obj = mpc_metric_objective(problem)
            scaled, gamma = problem.scaled(obj.metric), gamma_from_metric(obj)
        else:
            scaled, gamma = scaled_desk_lasso()
        engine = AdmmEngine(scaled, gamma, solve["alpha"])
        z0 = np.zeros(scaled.p)
        admm_solve(scaled, gamma, z0=z0, engine=engine, **solve)
        if kind == "desk_mpc":
            x1, ref1 = np.array([0.1, -0.2, 0.3, 0.5]), 0.5 * ref
            scaled.f.q[:], scaled.f.b[:] = _mpc_vectors(spec, x1, ref1)
            fresh = gen_mpc(spec, x1, ref1).scaled(obj.metric)
        else:
            scaled.f.q[:] = np.random.default_rng(2).normal(size=scaled.n)
            fresh = EqConstrainedProblem(
                Quadratic(scaled.f.Q, scaled.f.q.copy()), scaled.g,
                scaled.A, scaled.B, scaled.c)
        *got, got_trace = admm_solve(scaled, gamma, z0=z0, engine=engine,
                                     **solve)
        *want, want_trace = admm_solve(fresh, gamma, z0=z0, **solve)
        assert len(got_trace.z_history) == len(want_trace.z_history)
        for g, w in zip(got + got_trace.z_history,
                        want + want_trace.z_history):
            assert g.tobytes() == w.tobytes()


class TestDirectSolve:
    """The x-update solves its cached factor through LAPACK directly."""

    @pytest.mark.parametrize("make, mode", [
        (scaled_desk_lasso, "quadratic"),
        (scaled_desk_mpc, "quadratic_affine"),
    ], ids=["desk_lasso", "desk_mpc"])
    def test_x_update_matches_scipy_solve(self, make, mode):
        problem, gamma = make()
        xu = AdmmEngine(problem, gamma, alpha=1.0).x_update
        assert xu.mode == mode
        fac = x_update_factor(problem, gamma)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.normal(size=problem.p)
            rhs = gamma * _apply(xu.at, v) - xu.q
            if mode == "quadratic":
                expect = scipy.linalg.cho_solve(fac, rhs)
            else:
                expect = scipy.linalg.lu_solve(
                    fac, np.concatenate([rhs, xu.b]))[:xu.n]
            assert np.array_equal(xu.solve(v), expect)
            v[1] = np.nan
            with pytest.raises(ValueError,
                               match=r"^array must not contain infs or NaNs$"):
                xu.solve(v)

    def test_solvers_skip_scipy_solve_wrappers(self, monkeypatch):
        """DR on the extremal instances and ADMM on both factored kinds run
        without scipy's cho_solve/lu_solve."""
        def refuse(*args, **kwargs):
            raise AssertionError("scipy solve wrapper called")

        monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
        monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
        row = worstcase.verify_point(4.0, 1.0, 0.5, 1.0)
        assert row["max_abs_diff"] <= 1e-10
        row = worstcase.dual_verify_point(4.0, 1.0, 1.0, 3.0, 2.0 / 3.0, 1.0)
        assert row["max_abs_diff"] <= 1e-8
        problem, gamma = scaled_desk_mpc()
        *_, trace = admm_solve(problem, gamma, 0.5, max_iters=20)
        assert trace.iterations == 20


def dense_signature(m):
    """The diagonal test as first written, with two n x n temporaries."""
    if m.shape[0] != m.shape[1]:
        return None
    s = np.diag(m).copy()
    if np.count_nonzero(m - np.diag(s)):
        return None
    return s if np.all(s > 0) or np.all(s < 0) else None


def _signature_cases():
    cases = {"0x0": np.zeros((0, 0)), "1x1": np.array([[2.0]]),
             "1x1_negative": np.array([[-3.0]]),
             "non_square": np.zeros((2, 3)), "tall": np.eye(3)[:, :2],
             "mixed_signs": np.diag([1.0, -2.0, 3.0]),
             "negative": -np.diag([1.0, 2.0, 3.0]),
             "positive": np.diag([1.0, 2.0, 3.0])}
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
        for where, (i, j) in (("on", (1, 1)), ("off", (0, 2))):
            for sign in (1.0, -1.0):
                m = sign * np.diag([1.0, 2.0, 3.0])
                m[i, j] = value
                cases[f"{value}_{where}_{'+' if sign > 0 else '-'}"] = m
    cases["all_zero"] = np.zeros((3, 3))
    cases["all_negative_zero"] = np.full((3, 3), -0.0)
    cases["huge"] = np.diag([np.finfo(float).max, 1e-320])
    return cases


SIGNATURE_CASES = _signature_cases()


class TestDiagonalSignature:
    """The O(n)-memory test returns exactly what the dense one returned."""

    @pytest.mark.parametrize("name", sorted(SIGNATURE_CASES))
    def test_matches_dense_signature(self, name):
        m = SIGNATURE_CASES[name]
        with np.errstate(invalid="ignore"):  # inf - inf in the oracle
            want = dense_signature(m)
        got = _diagonal_signature(m)
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, m)


def _x_update_problem(kind, a):
    """A quadratic (or quadratic on a line) f with constraint matrix a."""
    rng = np.random.default_rng(3)
    n = a.shape[1]
    m = rng.normal(size=(n, n))
    q = m @ m.T + np.eye(n)
    if kind == "quadratic":
        f = Quadratic(q, rng.normal(size=n))
    else:
        lm = rng.normal(size=(1, n))
        f = QuadraticAffine(q, rng.normal(size=n), lm, lm @ rng.normal(size=n))
    return EqConstrainedProblem(f=f, g=WeightedL1(np.ones(n)), A=a,
                                B=-np.eye(n), c=np.zeros(n))


def _recorded_factor_matrices(monkeypatch):
    """Every matrix the engine hands to a factorization, in call order."""
    seen = []
    for name in ("_cho_solver", "_lu_solver"):
        def record(m, real=getattr(admm, name)):
            seen.append(m.copy())
            return real(m)
        monkeypatch.setattr(admm, name, record)
    return seen


class TestDiagonalNormalMatrix:
    """For A = diag(s) the x-update factors Q + diag(gamma s^2), which has
    the bits of the dense Q + gamma A^T A, and solves with them."""

    @pytest.mark.parametrize("kind", ["quadratic", "quadratic_affine"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("magnitude",
                             [1e-160, 1e-155, 1e-100, 1.0, 1e100, 1e150])
    def test_matrix_and_solve_equal_the_dense_formula(self, monkeypatch, kind,
                                                      sign, magnitude):
        s = sign * magnitude * np.array([0.5, 1.0, 1.5, 2.0])
        problem = _x_update_problem(kind, np.diag(s))
        gamma = 0.7
        seen = _recorded_factor_matrices(monkeypatch)
        xu = AdmmEngine(problem, gamma, alpha=1.0).x_update
        assert xu.mode == kind and xu.at.ndim == 1
        dense = x_update_matrix(problem, gamma)
        assert len(seen) == 1 and seen[0].tobytes() == dense.tobytes()
        f, a = problem.f, problem.A
        fac = x_update_factor(problem, gamma)
        rng = np.random.default_rng(4)
        for _ in range(3):
            v = rng.normal(size=problem.p)
            rhs = gamma * (a.T @ v) - f.q
            if kind == "quadratic":
                expect = scipy.linalg.cho_solve(fac, rhs)
            else:
                expect = scipy.linalg.lu_solve(
                    fac, np.concatenate([rhs, f.b]))[:problem.n]
            assert xu.solve(v).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", ["quadratic", "quadratic_affine"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_square_is_refused_by_name(self, monkeypatch, kind,
                                                   sign):
        s = sign * np.array([1.0, 1e160, 2.0])
        problem = _x_update_problem(kind, np.diag(s))
        seen = _recorded_factor_matrices(monkeypatch)
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match=r"A\^T A.* is not finite at "
                              r"gamma = 0\.7$") as err:
            AdmmEngine(problem, 0.7, alpha=1.0)
        # not a ProxsplitError, which run_sweep would keep as a note
        assert type(err.value) is ValueError
        with np.errstate(over="ignore"):
            dense = x_update_matrix(problem, 0.7)
        assert len(seen) == 1 and seen[0].tobytes() == dense.tobytes()
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="infs or NaNs"):
            x_update_factor(problem, 0.7)  # scipy's own refusal, unnamed

    @pytest.mark.parametrize("kind", ["quadratic", "quadratic_affine"])
    def test_general_a_overflow_is_refused_by_name(self, kind):
        problem = _x_update_problem(kind, np.array(
            [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]]))
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="gamma = 1e"):
            AdmmEngine(problem, 1e308, alpha=1.0)

    def test_finite_factor_failure_keeps_its_own_error(self):
        # Q = 0 and A = 0: a finite matrix that is not positive definite
        problem = EqConstrainedProblem(
            f=Quadratic(np.zeros((2, 2))), g=WeightedL1(np.ones(2)),
            A=np.array([[0.0, 0.0], [0.0, 0.0]]), B=-np.eye(2), c=np.zeros(2))
        with pytest.raises(np.linalg.LinAlgError) as err:
            AdmmEngine(problem, 1.0, alpha=1.0)
        assert "gamma" not in str(err.value)


def _dense_gram(a, sig, gamma):
    return gamma * (a.T @ a)


class TestDualVerifyDense:
    """The extremal ADMM rows equal those of an engine that forms the
    dense gamma A^T A for its diagonal A = diag(theta, zeta)."""

    def test_rows_equal_the_dense_formula_engine(self, monkeypatch):
        grid = []
        for beta, theta, zeta in ((4.0, 1.0, 3.0), (25.0, 0.5, 2.0)):
            reg = Regularity(1.0, beta)
            dreg = dual_constants(reg, theta, zeta).as_regularity()
            gamma_star = 1.0 / np.sqrt(dreg.beta * dreg.sigma)
            for ratio in (0.2, 1.0, 5.0):
                for alpha in (0.5, 1.0, 1.5):
                    grid.append((beta, 1.0, theta, zeta, ratio * gamma_star,
                                 alpha))
        got = [worstcase.dual_verify_point(*p) for p in grid]
        monkeypatch.setattr(admm, "_gram", _dense_gram)
        want = [worstcase.dual_verify_point(*p) for p in grid]
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            assert [repr(v) for v in g.values()] == [repr(v)
                                                     for v in w.values()]


class TestAdmmSolve:
    def test_start_of_wrong_shape_is_rejected(self, rng):
        # a length-1 start would broadcast through the elementwise B
        problem, _, _ = consensus_lasso(rng)
        for z0 in (np.zeros(1), np.zeros(problem.p + 1)):
            with pytest.raises(DimensionMismatchError, match=re.escape(
                    "the start must match B's columns/rows")):
                admm_solve(problem, 1.0, 1.0, z0=z0)

    def test_reference_of_wrong_shape_is_rejected(self, rng):
        # raised before the first step, not as a broadcast error inside it
        problem, _, _ = consensus_lasso(rng, n=2, m=3)
        for ref in (np.zeros(3), np.zeros(1)):
            with pytest.raises(DimensionMismatchError) as caught:
                admm_solve(problem, 1.0, 0.5, reference=ref)
            assert f"{ref.shape}" in str(caught.value)
            assert "(2,)" in str(caught.value)

    def test_consensus_split_solves_the_composite_problem(self, rng):
        problem, a, b = consensus_lasso(rng)
        x, y, u, trace = admm_solve(problem, gamma=1.0, alpha=0.5,
                                    tol=1e-10, max_iters=20000)
        assert trace.converged
        assert np.allclose(x, y, atol=1e-8)
        # subgradient optimality of 0.5||Ax-b||^2 + ||Wx||_1
        grad_smooth = a.T @ (a @ x - b)
        w = problem.g.w
        for i in range(problem.n):
            if abs(x[i]) > 1e-7:
                assert abs(grad_smooth[i] + np.sign(x[i]) * w[i]) < 1e-6
            else:
                assert abs(grad_smooth[i]) <= w[i] + 1e-6
        # feasibility at convergence
        assert np.linalg.norm(problem.A @ x + problem.B @ y
                              - problem.c) <= 10 * 1e-10

    def test_engine_is_reused_only_for_its_own_problem(self, rng):
        problem = random_qp(rng)
        engine = AdmmEngine(problem, 0.9, 0.8)
        twin = EqConstrainedProblem(problem.f, problem.g, problem.A,
                                    problem.B, problem.c)
        for args in ((twin, 0.9, 0.8), (problem, 1.0, 0.8),
                     (problem, 0.9, 0.5), (problem, float("nan"), 0.8)):
            with pytest.raises(ValueError, match="another problem"):
                admm_solve(*args, engine=engine)
        xa, _, _, ta = admm_solve(problem, 0.9, 0.8, tol=1e-9,
                                  max_iters=5000, engine=engine)
        xb, _, _, tb = admm_solve(problem, 0.9, 0.8, tol=1e-9,
                                  max_iters=5000)
        assert ta.iterations == tb.iterations
        assert np.array_equal(xa, xb)

    def test_nonconvergence_is_flagged(self, rng):
        problem = random_qp(rng)
        _, _, _, trace = admm_solve(problem, gamma=1.0, alpha=0.5,
                                    tol=1e-14, max_iters=3)
        assert not trace.converged
        assert trace.iterations == 3

    def test_rejects_max_iters_below_one(self, rng):
        problem = random_qp(rng)
        for bad in (0, -3):
            with pytest.raises(ValueError):
                admm_solve(problem, gamma=1.0, alpha=0.5, max_iters=bad)
        for bad in (2.5, float("nan")):  # refused by name, not by range()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as err:
                    admm_solve(problem, gamma=1.0, alpha=0.5, max_iters=bad)
            assert str(err.value) == (
                f"max_iters must be an integer >= 1, got {bad!r}")

    def test_contraction_ratios_match_z_history(self, rng):
        problem = random_qp(rng)
        _, _, _, pre = admm_solve(problem, 1.0, 0.5, tol=1e-13,
                                  max_iters=60000)
        ref = pre.z_final
        _, _, _, trace = admm_solve(problem, 1.0, 0.5, tol=1e-13,
                                    max_iters=60000,
                                    z0=ref + rng.normal(size=problem.p),
                                    reference=ref)
        dist = [float(np.linalg.norm(z - ref)) for z in trace.z_history]
        expect = [b / a if a > 1e-300 else float("nan")
                  for a, b in zip(dist, dist[1:])]
        assert len(expect) == trace.iterations
        np.testing.assert_array_equal(trace.contraction_ratios, expect)

    def test_divergence_stops_without_raising(self):
        # Dual extremal instance (kappa 100, theta = zeta = 1) at the dual
        # gamma* with alpha 5: z grows ~8x per step and overflows.  Another
        # step would hand infs to the Cholesky solve of the x-update.
        reg = Regularity(sigma=1.0, beta=100.0)
        dual = dual_constants(reg, 1.0, 1.0).as_regularity()
        gamma = 1.0 / np.sqrt(dual.sigma * dual.beta)
        variant, _, coordinate = adversarial_case(5.0, gamma, dual)
        inst = build(reg, variant, "dual", theta=1.0, zeta=1.0,
                     coordinate=coordinate)
        _, _, _, trace = admm_solve(inst.problem, gamma, 5.0, z0=inst.z0)
        assert not trace.converged
        assert not np.isfinite(trace.residuals[-1])
        assert np.all(np.isfinite(trace.residuals[:-1]))
        assert trace.iterations == len(trace.residuals) < 10_000

    def test_rate_certified_runs_respect_bound(self, rng):
        for g_kind in ("l1", "box", "zero"):
            problem = random_qp(rng, g_kind=g_kind)
            dual = problem_dual_regularity(problem)
            for gamma, alpha in ((0.5, 1.0), (1.5, 0.7)):
                delta = contraction_factor(dual.as_regularity(), gamma)
                bound = rate_bound(delta, alpha)
                if bound >= 1:
                    continue
                # presolve for the fixed point, then measure
                _, _, _, pre = admm_solve(problem, gamma, alpha, tol=1e-13,
                                          max_iters=60000)
                assert pre.converged
                ref = pre.z_final
                z0 = ref + rng.normal(size=problem.p)
                _, _, _, trace = admm_solve(problem, gamma, alpha,
                                            tol=1e-13, max_iters=60000,
                                            z0=z0, reference=ref)
                dist = trace.distances
                floor = 0.03 * max(dist[0], 1.0)
                checked = 0
                for k, ratio in enumerate(trace.contraction_ratios):
                    if np.isnan(ratio) or dist[k] < floor:
                        continue
                    assert ratio <= bound + 1e-8
                    checked += 1
                assert checked > 0


class TestDualEquivalence:
    def test_small_qp_exact_correspondence(self, rng):
        problem = random_qp(rng)
        dev = verify_dual_equivalence(problem, gamma=1.0, alpha=0.5,
                                      iters=50, z0=rng.normal(size=5))
        assert dev <= 1e-8

    def test_zero_iterations_consistent_start(self, rng):
        problem = random_qp(rng)
        dev = verify_dual_equivalence(problem, gamma=0.7, alpha=0.9,
                                      iters=0, z0=rng.normal(size=5))
        assert dev <= 1e-12

    def test_equivalence_is_relaxation_independent(self, rng):
        problem = random_qp(rng, g_kind="box")
        z0 = rng.normal(size=5)
        for alpha in (0.5, 0.99):
            dev = verify_dual_equivalence(problem, gamma=2.0, alpha=alpha,
                                          iters=40, z0=z0)
            assert dev <= 1e-9

    def test_requires_strongly_convex_quadratic(self, rng):
        problem = EqConstrainedProblem(
            f=Zero(3), g=Zero(3), A=np.eye(3), B=-np.eye(3), c=np.zeros(3))
        with pytest.raises(CapabilityError):
            verify_dual_equivalence(problem, 1.0, 0.5, 5, np.zeros(3))


class TestCapabilities:
    def test_general_b_rejected(self, rng):
        b = rng.normal(size=(3, 3))
        problem = EqConstrainedProblem(
            f=Quadratic(np.eye(3)), g=Zero(3), A=np.eye(3), B=b,
            c=np.zeros(3))
        with pytest.raises(CapabilityError):
            AdmmEngine(problem, 1.0, 0.5)

    def test_nonquadratic_f_with_general_a_rejected(self, rng):
        a = rng.normal(size=(3, 3))
        problem = EqConstrainedProblem(
            f=WeightedL1([1.0, 1.0, 1.0]), g=Zero(3), A=a, B=-np.eye(3),
            c=np.zeros(3))
        with pytest.raises(CapabilityError):
            AdmmEngine(problem, 1.0, 0.5)

    def test_diagonal_a_with_catalog_f_supported(self, rng):
        d = np.diag(rng.uniform(0.5, 2.0, size=3))
        problem = EqConstrainedProblem(
            f=WeightedL1([1.0, 1.0, 1.0]), g=Quadratic(np.eye(3)),
            A=d, B=-np.eye(3), c=rng.normal(size=3))
        x, y, u, trace = admm_solve(problem, 1.0, 0.5, tol=1e-10,
                                    max_iters=5000)
        assert trace.converged
        assert np.allclose(d @ x - y, problem.c, atol=1e-8)

    def test_metric_certificate_bounds_scaled_runs(self, rng):
        # the scaled-space certificate must be valid for plain ADMM run on
        # the row-scaled problem, which is how preconditioning is realized
        problem, _, _ = consensus_lasso(rng)
        metric = DiagonalMetric(rng.uniform(0.3, 3.0, size=problem.p))
        dual = problem_dual_regularity(problem, metric)
        scaled = problem.scaled(metric)
        gamma = 1.0 / np.sqrt(dual.sigma_hat * dual.beta_hat)
        for alpha in (0.6, 1.0):
            bound = rate_bound(
                contraction_factor(dual.as_regularity(), gamma), alpha)
            _, _, _, pre = admm_solve(scaled, gamma, alpha, tol=1e-13,
                                      max_iters=60000)
            assert pre.converged
            ref = pre.z_final
            _, _, _, trace = admm_solve(scaled, gamma, alpha, tol=1e-13,
                                        max_iters=60000,
                                        z0=ref + rng.normal(size=problem.p),
                                        reference=ref)
            dist = trace.distances
            floor = 0.03 * max(dist[0], 1.0)
            checked = 0
            for k, ratio in enumerate(trace.contraction_ratios):
                if np.isnan(ratio) or dist[k] < floor:
                    continue
                assert ratio <= bound + 1e-8
                checked += 1
            assert checked > 0

    def test_metric_scaled_problem_still_solvable(self, rng):
        problem, a, b = consensus_lasso(rng)
        metric = DiagonalMetric(rng.uniform(0.5, 2.0, size=problem.p))
        scaled = problem.scaled(metric)
        x, y, u, trace = admm_solve(scaled, 1.0, 0.5, tol=1e-10,
                                    max_iters=20000)
        assert trace.converged
        # scaling the constraint does not move the solution
        x0, _, _, t0 = admm_solve(problem, 1.0, 0.5, tol=1e-10,
                                  max_iters=20000)
        assert np.allclose(x, x0, atol=1e-7)


class TestProblemJson:
    def test_roundtrip(self, rng):
        problem, _, _ = consensus_lasso(rng)
        again = EqConstrainedProblem.from_json(problem.to_json())
        assert np.allclose(again.A, problem.A)
        assert np.allclose(again.B, problem.B)
        assert np.allclose(again.c, problem.c)
        z = rng.normal(size=problem.n)
        assert np.allclose(again.f.prox(0.7, z), problem.f.prox(0.7, z))
        assert np.allclose(again.g.prox(0.7, z), problem.g.prox(0.7, z))
