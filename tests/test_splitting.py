"""Fixed-point engine: explicit steps, traces, rate bounds, order swap."""

import io
import math
import warnings

import numpy as np
import pytest

from conftest import sample_catalog_fn, sample_quadratic_affine
from proxsplit.admm import EqConstrainedProblem, admm_solve
from proxsplit.errors import DimensionMismatchError
from proxsplit.prox import (
    ConjugateOf,
    IndicatorZero,
    Quadratic,
    WeightedL1,
    Zero,
)
from proxsplit import splitting
from proxsplit.rates import Regularity, contraction_factor, rate_bound
from proxsplit.splitting import (
    CSV_SCHEMA_TAG,
    _norm,
    dr_solve,
    dr_step,
    write_csv,
    write_trace_csv,
)
from proxsplit.worstcase import adversarial_case, exact_rate, verify_point


def worst_quadratic(beta=4.0, sigma=1.0):
    return Quadratic(np.diag([beta, sigma]))


class TestDrStep:
    def test_one_step_kills_soft_coordinate(self):
        z_next, x, y = dr_step(worst_quadratic(), Zero(2), 1.0, 1.0,
                               np.array([0.0, 1.0]))
        assert np.allclose(z_next, [0.0, 0.0], atol=1e-15)
        assert np.allclose(x, [0.0, 0.5], atol=1e-15)
        assert np.allclose(y, [0.0, 0.0], atol=1e-15)

    def test_identity_when_both_zero(self, rng):
        z = rng.normal(size=3)
        z_next, _, _ = dr_step(Zero(3), Zero(3), 2.0, 1.0, z)
        assert np.allclose(z_next, z, atol=1e-15)

    def test_origin_indicator_flips_scaled(self):
        z_next, _, _ = dr_step(worst_quadratic(), IndicatorZero(2), 0.5,
                               1.0, np.array([1.0, 0.0]))
        assert np.allclose(z_next, [1.0 / 3.0, 0.0], atol=1e-15)

    def test_matches_reflection_composition(self, rng):
        f = worst_quadratic(3.0, 0.5)
        g = sample_catalog_fn(rng, 2)
        for alpha in (0.4, 1.0, 1.3):
            z = rng.normal(size=2)
            z_next, _, _ = dr_step(f, g, 0.8, alpha, z)
            composed = g.reflect(0.8, f.reflect(0.8, z))
            expect = (1 - alpha) * z + alpha * composed
            assert np.allclose(z_next, expect, atol=1e-12)

    def test_fixed_point_is_invariant(self, rng):
        # z with z = R_g(R_f(z)): the origin for the extremal instances
        f = worst_quadratic()
        for g in (Zero(2), IndicatorZero(2)):
            for alpha in (0.3, 1.0, 1.4):
                z_next, _, _ = dr_step(f, g, 0.7, alpha, np.zeros(2))
                assert np.allclose(z_next, np.zeros(2), atol=1e-10)


class TestDrSolve:
    def test_exact_one_third_contraction(self):
        trace = dr_solve(worst_quadratic(), Zero(2), 0.5, 1.0,
                         np.array([0.0, 1.0]), tol=1e-12, max_iters=200,
                         reference=np.zeros(2))
        assert trace.converged
        ratios = [r for r in trace.contraction_ratios if not np.isnan(r)]
        assert ratios
        assert max(abs(r - 1.0 / 3.0) for r in ratios) < 1e-10

    def test_unconstrained_quadratic_minimum(self, rng):
        f = Quadratic(np.eye(2), np.array([-1.0, -1.0]))
        for gamma in (0.3, 1.0, 5.0):
            trace = dr_solve(f, Zero(2), gamma, 1.0, rng.normal(size=2),
                             tol=1e-12, max_iters=500)
            assert trace.converged
            assert np.allclose(trace.x_final, [1.0, 1.0], atol=1e-8)

    def test_divergence_flagged_not_raised(self):
        reg = Regularity(1.0, 4.0)
        gamma = 0.5
        delta = contraction_factor(reg, gamma)
        alpha = 1.05 * 2.0 / (1.0 + delta)
        trace = dr_solve(worst_quadratic(), Zero(2), gamma, alpha,
                         np.array([1.0, 0.0]), tol=1e-12, max_iters=100)
        assert not trace.converged
        assert trace.iterations == 100
        res = np.array(trace.residuals)
        assert np.all(res[1:] >= res[:-1] * (1 - 1e-12))

    def test_non_finite_residual_is_not_convergence(self):
        # alpha = 3 is far beyond the cap 2/(1+delta): the iterate overflows
        # after ~220 steps and the stop test once read inf <= tol*inf as met.
        trace = dr_solve(worst_quadratic(100.0, 1.0), Zero(2), 1.0, 3.0,
                         np.ones(2))
        assert not trace.converged
        assert not np.isfinite(trace.residuals[-1])
        assert np.all(np.isfinite(trace.residuals[:-1]))
        assert trace.iterations == len(trace.residuals) < 10_000
        assert np.all(np.isfinite(trace.x_final))

    def test_history_is_the_iterates_and_owns_its_start(self):
        f, g, z0 = worst_quadratic(), Zero(2), np.array([0.0, 1.0])
        trace = dr_solve(f, g, 0.5, 1.0, z0, tol=1e-12, max_iters=50)
        z = z0.copy()
        for kept in trace.z_history:
            assert kept.tobytes() == z.tobytes()
            z = dr_step(f, g, 0.5, 1.0, z)[0]
        assert len({id(kept) for kept in trace.z_history}) == len(trace.z_history)
        z0[:] = 7.0  # the caller's start is copied, each step's result kept
        assert trace.z_history[0].tolist() == [0.0, 1.0]

    def test_reference_of_wrong_shape_is_rejected(self):
        # a length-1 reference would broadcast into every distance
        for ref in (np.zeros(3), np.zeros(1)):
            with pytest.raises(DimensionMismatchError) as caught:
                dr_solve(worst_quadratic(), Zero(2), 0.5, 1.0, np.ones(2),
                         reference=ref)
            assert f"{ref.shape}" in str(caught.value)
            assert "(2,)" in str(caught.value)

    def test_rate_bound_holds_on_alpha_grid(self, rng):
        reg = Regularity(0.5, 8.0)
        f = worst_quadratic(reg.beta, reg.sigma)
        for g in (Zero(2), IndicatorZero(2), sample_catalog_fn(rng, 2)):
            for gamma in (0.05, 1.0 / 2.0, 3.0):
                delta = contraction_factor(reg, gamma)
                hi = 2.0 / (1.0 + delta)
                for alpha in np.linspace(0.15, 0.95, 5) * hi:
                    bound = rate_bound(delta, float(alpha))
                    # enough iterations for the presolve to actually reach
                    # the fixed point at this worst-case rate
                    iters = int(np.ceil(np.log(1e-13) / np.log(bound))) + 50
                    params = (gamma, float(alpha))
                    pre = dr_solve(f, g, *params, rng.normal(size=2),
                                   tol=1e-14, max_iters=iters)
                    assert pre.converged
                    ref = pre.z_final
                    trace = dr_solve(f, g, *params, rng.normal(size=2),
                                     tol=1e-14, max_iters=iters,
                                     reference=ref)
                    dist = trace.distances
                    # the reference itself carries ~1e-13 error, so only
                    # ratios with a comfortably large denominator resolve
                    # the 1e-10 slack
                    floor = 0.03 * max(dist[0], 1.0)
                    for k, ratio in enumerate(trace.contraction_ratios):
                        if np.isnan(ratio) or dist[k] < floor:
                            continue
                        assert ratio <= bound + 1e-10

    def test_x_iterates_r_linear(self):
        # start from the extremal instance with the known fixed point 0
        reg = Regularity(1.0, 4.0)
        f = worst_quadratic()
        for gamma, alpha in ((0.5, 1.0), (0.2, 0.7), (1.5, 1.1)):
            delta = contraction_factor(reg, gamma)
            rate = rate_bound(delta, alpha)
            if rate >= 1:
                continue
            z0 = np.array([0.6, -1.2])
            trace = dr_solve(f, Zero(2), gamma, alpha, z0, tol=1e-14,
                             max_iters=100, reference=np.zeros(2))
            lip = 1.0 / (1.0 + gamma * reg.sigma)
            z_norm0 = np.linalg.norm(z0)
            for k, z in enumerate(trace.z_history):
                x = f.prox(gamma, z)
                assert np.linalg.norm(x) <= rate**k * lip * z_norm0 + 1e-8

    def test_argument_swap_reaches_same_solution(self, rng):
        f = Quadratic(np.diag([3.0, 1.5]), np.array([0.3, -0.7]))
        g = Quadratic(np.eye(2), np.array([1.0, 0.0]))
        t1 = dr_solve(f, g, 0.9, 1.0, rng.normal(size=2), tol=1e-13,
                      max_iters=2000)
        t2 = dr_solve(g, f, 0.9, 1.0, rng.normal(size=2), tol=1e-13,
                      max_iters=2000)
        assert t1.converged and t2.converged
        assert np.allclose(t1.x_final, t2.x_final, atol=1e-8)
        # direct optimality oracle: gradient of (f+g) vanishes
        grad = (f.Q + g.Q) @ t1.x_final + f.q + g.q
        assert np.linalg.norm(grad) < 1e-7

    def test_stopping_is_relative(self):
        f = Quadratic(np.eye(1), np.array([-1e6]))
        trace = dr_solve(f, Zero(1), 1.0, 1.0, np.zeros(1), tol=1e-10,
                         max_iters=5000)
        assert trace.converged
        assert np.allclose(trace.x_final, [1e6], rtol=1e-9)


class TestTrace:
    def test_csv_format_with_reference(self):
        trace = dr_solve(worst_quadratic(), Zero(2), 0.5, 1.0,
                         np.array([0.0, 1.0]), tol=1e-15, max_iters=5,
                         reference=np.zeros(2))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == CSV_SCHEMA_TAG
        assert lines[1] == "iter,residual,contraction_ratio"
        assert len(lines) == 2 + trace.iterations
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[1]) > 0
        assert float(first[2]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_contraction_ratios_match_z_history(self, rng):
        f = Quadratic(np.diag([5.0, 0.5]), np.array([0.2, -0.4]))
        g = sample_catalog_fn(rng, 2)
        ref = dr_solve(f, g, 0.3, 0.9, np.zeros(2), tol=1e-13,
                       max_iters=400).z_final
        trace = dr_solve(f, g, 0.3, 0.9, rng.normal(size=2), tol=1e-13,
                         max_iters=400, reference=ref)
        dist = [float(np.linalg.norm(z - ref)) for z in trace.z_history]
        expect = [b / a if a > 1e-300 else float("nan")
                  for a, b in zip(dist, dist[1:])]
        assert len(expect) == trace.iterations
        assert trace.distances == dist
        np.testing.assert_array_equal(trace.contraction_ratios, expect)

    def test_csv_cell_rule(self):
        """Every v1 CSV cell: a float (numpy's too) as .17g, None empty, a
        bool as 0 or 1, anything else through str.  A numpy bool is written
        as 0 or 1 like a Python one, not as "True"."""
        buf = io.StringIO()
        write_csv(buf, [{"kind": "sweep", "alpha": 0.5, "tol": 1e-5},
                        {"metric": "identity", "note": None, "flag": True}],
                  ("a", "b", "c", "d"),
                  [(None, True, False, np.bool_(True)),
                   (0.1, math.nan, math.inf, -0.0),
                   (np.float64(1.0) / 3.0, 7, np.int64(12), "g1")])
        assert buf.getvalue() == (
            f"{CSV_SCHEMA_TAG}\n"
            "# kind=sweep alpha=0.5 tol=1.0000000000000001e-05\n"
            "# metric=identity note= flag=1\n"
            "a,b,c,d\n"
            ",1,0,1\n"
            "0.10000000000000001,nan,inf,-0\n"
            "0.33333333333333331,7,12,g1\n")

    def test_csv_ratio_column_empty_without_reference(self):
        trace = dr_solve(worst_quadratic(), Zero(2), 0.5, 1.0,
                         np.array([0.0, 1.0]), tol=1e-15, max_iters=5)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        row = buf.getvalue().strip().splitlines()[2]
        assert row.endswith(",")

    def test_history_thinning_budget(self):
        f = Zero(2001)
        trace = dr_solve(f, Zero(2001), 1.0, 0.9, np.ones(2001), tol=1e-12,
                         max_iters=5000)
        assert trace.z_history == []  # 2001 * 5001 scalars over budget
        assert trace.converged

    def test_residuals_nonnegative_and_iterations_capped(self, rng):
        f = sample_catalog_fn(rng, 3)
        g = sample_catalog_fn(rng, 3)
        trace = dr_solve(f, g, 1.0, 0.8, rng.normal(size=3), tol=1e-16,
                         max_iters=50)
        assert trace.iterations <= 50
        assert all(r >= 0 for r in trace.residuals)


class TestOriginReference:
    """With a reference at the origin the fixed-point loop takes ||z+||
    once per step for the distance and the stopping test, with the same
    bits."""

    REFERENCES = {"plus_zero": np.zeros(3), "minus_zero": -np.zeros(3),
                  "nonzero": np.array([0.3, -1.2, 0.05])}

    @staticmethod
    def solve(solver, rng, reference):
        f = Quadratic(np.diag([5.0, 0.5, 2.0]), np.array([0.2, -0.4, 1.0]))
        g = WeightedL1([0.3, 0.1, 0.2])
        z0 = rng.normal(size=3)
        if solver == "dr":
            return dr_solve(f, g, 0.3, 0.9, z0, tol=1e-12, max_iters=60,
                            reference=reference)
        eye = np.eye(3)
        problem = EqConstrainedProblem(f=f, g=g, A=eye, B=-eye,
                                       c=np.zeros(3))
        return admm_solve(problem, 0.3, 0.9, tol=1e-12, max_iters=60, z0=z0,
                          reference=reference)[3]

    @pytest.mark.parametrize("solver", ["dr", "admm"])
    @pytest.mark.parametrize("which", sorted(REFERENCES))
    def test_distances_keep_their_bits(self, rng, solver, which):
        ref = self.REFERENCES[which]
        trace = self.solve(solver, rng, ref)
        assert trace.iterations > 10
        expect = [_norm(z - ref) for z in trace.z_history]
        assert len(trace.distances) == len(expect)
        assert np.array(trace.distances).tobytes() == np.array(
            expect).tobytes()

    @pytest.mark.parametrize("solver", ["dr", "admm"])
    @pytest.mark.parametrize("which", sorted(REFERENCES) + ["none"])
    def test_norms_per_iteration(self, monkeypatch, rng, solver, which):
        ref = self.REFERENCES.get(which)
        calls = []
        norm = splitting._norm
        monkeypatch.setattr(splitting, "_norm",
                            lambda v: (calls.append(1), norm(v))[1])
        trace = self.solve(solver, rng, ref)
        per_step = 3 if which == "nonzero" else 2
        initial = 0 if ref is None else 1
        assert len(calls) == per_step * trace.iterations + initial


class TestConfigValidation:
    def test_rejects_bad_values(self):
        f, z0 = worst_quadratic(), np.ones(2)
        with pytest.raises(ValueError):
            dr_solve(f, Zero(2), 0.0, 1.0, z0)
        with pytest.raises(ValueError):
            dr_solve(f, Zero(2), 1.0, 0.0, z0)
        with pytest.raises(ValueError):
            dr_solve(f, Zero(2), 1.0, 1.0, z0, tol=0.0)
        # a count that is not an integer is refused by name, not by range()
        for bad in (2.5, float("nan")):
            for solve in (
                    lambda: dr_solve(WeightedL1(np.ones(2)), Zero(2), 1.0,
                                     1.0, np.ones(2), max_iters=bad),
                    lambda: verify_point(4.0, 1.0, 0.5, 1.0, iters=bad)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError) as err:
                        solve()
                assert str(err.value) == (
                    f"max_iters must be an integer >= 1, got {bad!r}")


def _one_member_per_kind() -> dict:
    """Every catalog kind: sample_catalog_fn's draws, plus the two kinds it
    does not draw (the affine-restricted quadratic and the conjugate)."""
    rng = np.random.default_rng(0)
    members = {}
    for _ in range(200):
        f = sample_catalog_fn(rng, 3)
        members.setdefault(f.kind, f)
    assert len(members) == 8
    members["quadratic_affine"] = sample_quadratic_affine(rng, 3)
    members["conjugate"] = ConjugateOf(WeightedL1(np.ones(3)))
    return members


def _parameter_calls() -> dict:
    """One call per entry point, taking the value under test."""
    reg = Regularity(1.0, 4.0)
    f, z0 = worst_quadratic(), np.ones(2)
    problem = EqConstrainedProblem(
        f=Quadratic(np.eye(2)), g=WeightedL1([1.0, 1.0]), A=np.eye(2),
        B=-np.eye(2), c=np.zeros(2))
    calls = {
        "dr_solve_gamma": lambda v: dr_solve(f, Zero(2), v, 1.0, z0),
        "dr_solve_alpha": lambda v: dr_solve(f, Zero(2), 1.0, v, z0),
        "admm_solve_gamma": lambda v: admm_solve(problem, v, 1.0),
        "admm_solve_alpha": lambda v: admm_solve(problem, 1.0, v),
        "contraction_factor": lambda v: contraction_factor(reg, v),
        "exact_rate": lambda v: exact_rate(reg, "g1", v, 1.0, 1),
        "adversarial_case": lambda v: adversarial_case(1.0, v, reg),
    }
    for kind, fn in _one_member_per_kind().items():
        calls[f"prox_{kind}"] = lambda v, fn=fn: fn.prox(v, np.ones(3))
    return calls


_CALLS = _parameter_calls()


@pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0],
                         ids=["nan", "zero", "negative"])
@pytest.mark.parametrize("name", sorted(_CALLS))
def test_step_size_and_relaxation_must_be_positive(name, value):
    with pytest.raises(ValueError, match="must be positive"):
        _CALLS[name](value)


@pytest.mark.parametrize("size", [0, 1, 2, 200])
@pytest.mark.parametrize("entries", ["unit", "near_1e200", "nan"])
def test_norm_matches_numpy_bit_for_bit(size, entries):
    v = np.random.default_rng(size).normal(size=size)
    if entries == "near_1e200":
        v *= 1e200  # the squares overflow to inf
    elif entries == "nan" and size:
        v[-1] = np.nan
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        got = _norm(v)
    with warnings.catch_warnings(record=True) as numpys:
        warnings.simplefilter("always")
        expect = float(np.linalg.norm(v))
    assert type(got) is float
    assert got == expect or math.isnan(got) and math.isnan(expect)
    assert [(w.category, str(w.message)) for w in ours] == [
        (w.category, str(w.message)) for w in numpys]
    if size and entries == "near_1e200":
        assert got == math.inf and ours[0].category is RuntimeWarning
    if size and entries == "nan":
        assert math.isnan(got)


_REG = Regularity(1.0, 4.0)


@pytest.mark.parametrize("call", [
    lambda a: rate_bound(0.5, a),
    lambda a: exact_rate(_REG, "g1", 0.5, a, 2),
    lambda a: exact_rate(_REG, "g2", 0.5, a, 1),
    lambda a: adversarial_case(a, 0.5, _REG),
], ids=["rate_bound", "exact_rate_g1", "exact_rate_g2", "adversarial_case"])
def test_nan_relaxation_is_refused(call):
    """The rate formulas refuse a NaN alpha, as dr_solve and admm_solve do;
    a negative alpha stays a valid (non-contracting) input."""
    with pytest.raises(ValueError, match="NaN"):
        call(float("nan"))
    assert call(-0.1) is not None
