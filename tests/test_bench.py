"""Benchmark generators and the sweep harness."""

import io
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import reference_lasso
from proxsplit.bench import (
    AIRCRAFT_A,
    AIRCRAFT_B,
    MPC_MAX_ITERS,
    LassoSpec,
    MpcSpec,
    gen_lasso,
    gen_mpc,
    lasso_condition_report,
    lasso_metric,
    log_gamma_grid,
    mpc_closed_loop,
    mpc_compare,
    mpc_metric_objective,
    pitch_reference,
    problem_dual_regularity,
    run_sweep,
    sweep_gamma_star,
)
from proxsplit import bench, linmetric
from proxsplit.admm import (
    AdmmEngine,
    EqConstrainedProblem,
    admm_solve,
    verify_dual_equivalence,
)
from proxsplit.errors import CapabilityError, RankDeficiencyError
from proxsplit.linmetric import DiagonalMetric, kkt_p11
from proxsplit.metric import (
    gamma_from_metric,
    pseudo_condition_of,
    select_diagonal_metric,
)
from proxsplit.prox import (
    Quadratic,
    QuadraticAffine,
    Separable,
    WeightedL1,
    Zero,
    dual_quadratic,
)
from proxsplit.splitting import CSV_SCHEMA_TAG
from proxsplit.worstcase import build
from proxsplit.rates import Regularity


class TestGenLasso:
    def test_deterministic_from_seed(self):
        spec = LassoSpec(n=4, m=6, nnz_per_row=2, seed=7)
        p1 = gen_lasso(spec)
        p2 = gen_lasso(spec)
        assert np.array_equal(p1.f.Q, p2.f.Q)
        assert np.array_equal(p1.f.q, p2.f.q)
        assert np.array_equal(p1.g.w, p2.g.w)

    def test_different_seeds_differ(self):
        p1 = gen_lasso(LassoSpec(n=4, m=6, nnz_per_row=2, seed=7))
        p2 = gen_lasso(LassoSpec(n=4, m=6, nnz_per_row=2, seed=8))
        assert not np.array_equal(p1.f.Q, p2.f.Q)

    def test_matches_documented_stream(self):
        # rebuild the data matrix from the stream definition itself
        spec = LassoSpec(n=5, m=3, nnz_per_row=2, seed=11)
        problem = gen_lasso(spec)
        a, b, w, _ = reference_lasso(spec)
        assert np.array_equal(problem.f.Q, a.T @ a)
        assert np.array_equal(problem.f.q, -(a.T @ b))
        assert np.array_equal(problem.g.w, w)

    def test_nonzero_count_and_weight_range(self):
        spec = LassoSpec(n=30, m=20, nnz_per_row=10, seed=3)
        problem = gen_lasso(spec)
        a, _, _, _ = reference_lasso(spec)
        assert np.array_equal(problem.f.Q, a.T @ a)
        assert np.count_nonzero(a) == 20 * 10
        w = problem.g.w
        assert np.all((w >= 0) & (w < 1))

    def test_consensus_structure(self):
        problem = gen_lasso(LassoSpec(n=5, m=8, nnz_per_row=3, seed=1))
        assert np.array_equal(problem.A, np.eye(5))
        assert np.array_equal(problem.B, -np.eye(5))
        assert np.array_equal(problem.c, np.zeros(5))


class TestGenMpc:
    def test_dynamics_spectral_radius(self):
        radius = max(abs(np.linalg.eigvals(AIRCRAFT_A)))
        # the printed three-decimal dynamics give 1.31391...
        assert radius == pytest.approx(1.3139115, abs=1e-6)

    def test_stacked_dynamics_full_row_rank(self):
        problem = gen_mpc(MpcSpec(), np.zeros(4), np.zeros(4))
        f = problem.f
        assert isinstance(f, QuadraticAffine)
        assert f.L.shape == (40, 60)
        assert np.linalg.matrix_rank(f.L) == 40

    def test_zero_reference_zero_start_is_optimal_at_origin(self):
        problem = gen_mpc(MpcSpec(horizon=1), np.zeros(4), np.zeros(4))
        x, y, u, trace = admm_solve(problem, gamma=1.0, alpha=0.5,
                                    tol=1e-10, max_iters=2000)
        assert trace.converged
        assert np.allclose(x, np.zeros(6), atol=1e-7)

    def test_cost_and_constraint_blocks(self):
        spec = MpcSpec(horizon=2)
        x0 = np.array([0.1, 0.0, -0.2, 0.0])
        ref = np.array([0.0, 0.0, 0.0, 10.0])
        problem = gen_mpc(spec, x0, ref)
        f = problem.f
        # state cost on x-block, input cost on u-block
        assert np.allclose(f.Q[:4, :4], np.diag([0, 100, 0, 100]))
        assert np.allclose(f.Q[8:10, 8:10], 0.01 * np.eye(2))
        assert np.allclose(f.q[:4], -np.diag([0, 100, 0, 100]) @ ref)
        # first block of dynamics right-hand side carries A x0
        assert np.allclose(f.b[:4], AIRCRAFT_A @ x0)
        # coupled variables: 2 outputs per stage then stacked inputs
        g = problem.g
        assert isinstance(g, Separable)
        assert [(a, b) for a, b, _ in g.members] == [(0, 2), (2, 4), (4, 8)]

    def test_per_stage_reference(self):
        refs = np.zeros((3, 4))
        refs[1, 3] = 5.0
        problem = gen_mpc(MpcSpec(horizon=3), np.zeros(4), refs)
        assert np.allclose(problem.f.q[4:8],
                           -np.diag([0, 100, 0, 100]) @ refs[1])

    @pytest.mark.parametrize("make, message", [
        (lambda: gen_mpc(MpcSpec(horizon=2.5), np.zeros(4), np.zeros(4)),
         "horizon must be an integer >= 1, got 2.5"),
        (lambda: gen_lasso(LassoSpec(n=4.5, m=3, nnz_per_row=1)),
         "n must be an integer >= 1, got 4.5"),
        (lambda: gen_lasso(LassoSpec(n=4, m=3.0, nnz_per_row=1)),
         "m must be an integer >= 1, got 3.0"),
        (lambda: gen_lasso(LassoSpec(n=4, m=3, nnz_per_row=1.5)),
         "nnz_per_row must be an integer >= 1, got 1.5"),
        (lambda: pitch_reference(2.5),
         "n_samples must be an integer >= 0, got 2.5"),
        (lambda: pitch_reference(20, 1.0, 2.5, 8),
         "up_at must be an integer >= 0, got 2.5"),
        (lambda: pitch_reference(20, 1.0, 2, 8.0),
         "down_at must be an integer >= 0, got 8.0"),
    ], ids=["horizon", "n", "m", "nnz_per_row", "n_samples", "up_at",
            "down_at"])
    def test_non_integer_count_is_refused_by_name(self, make, message):
        # not numpy's raw TypeError from inside the generator
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                make()
        assert str(err.value) == message

    def test_pitch_reference_shape(self):
        refs = pitch_reference(120)
        assert refs.shape == (120, 4)
        assert refs[9, 3] == 0.0
        assert refs[10, 3] == 10.0
        assert refs[69, 3] == 10.0
        assert refs[70, 3] == 0.0


class TestSweep:
    def test_history_cap_is_reported_in_note(self, monkeypatch):
        # 85 iterations at gamma*; the patched budget caps the run at
        # 220 // 20 - 1 = 10
        problem = gen_lasso(LassoSpec(n=20, m=30, nnz_per_row=3, seed=0))
        gamma = sweep_gamma_star(problem)
        assert run_sweep(problem, 1.0, [gamma]).entries[0].note == ""
        monkeypatch.setattr(bench, "HISTORY_SCALAR_BUDGET", 220)
        entry = run_sweep(problem, 1.0, [gamma]).entries[0]
        assert not entry.converged
        assert entry.iterations_actual is None
        assert "10 iterations" in entry.note

    def test_stop_cause_is_reported_in_note(self):
        # alpha 3 lies beyond 2/(1+delta) for every gamma, so each point
        # diverges; a cap of 5 iterations stops every convergent point
        problem = gen_lasso(LassoSpec(n=20, m=30, nnz_per_row=3, seed=0))
        gamma = sweep_gamma_star(problem)
        grid = log_gamma_grid(gamma / 3, 3 * gamma, 3)
        for e in run_sweep(problem, 3.0, grid).entries:
            assert not e.converged
            assert e.note.startswith("non-finite residual at iteration ")
        for e in run_sweep(problem, 1.0, grid, max_iters=5).entries:
            assert not e.converged
            assert e.note == "stopped at the max_iters=5 cap"
        for e in run_sweep(problem, 1.0, grid).entries:
            assert e.converged and e.note == ""

    def test_log_grid(self):
        grid = log_gamma_grid(0.01, 100.0, 5)
        assert np.allclose(grid, [0.01, 0.1, 1.0, 10.0, 100.0])
        assert log_gamma_grid(0.25, 4.0, 1)[0] == pytest.approx(1.0)
        assert log_gamma_grid(0.3, 0.7, 1)[0] == math.sqrt(0.3 * 0.7)

    @pytest.mark.parametrize("lo, hi, points", [
        (math.inf, math.inf, 9), (math.inf, math.inf, 1), (1.0, math.inf, 3),
        (math.nan, 1.0, 3), (1.0, math.nan, 1), (2.0, 1.0, 3), (0.0, 1.0, 3),
        (1.0, 2.0, math.nan), (1.0, 2.0, 2.5)])
    def test_log_grid_refuses_bounds_outside_the_positive_floats(
            self, lo, hi, points):
        # and a point count that is not a positive integer
        message = ("need 0 < gamma_min <= gamma_max < inf"
                   if isinstance(points, int)
                   else f"points must be an integer >= 1, got {points!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                log_gamma_grid(lo, hi, points)
        assert str(err.value) == message

    @pytest.mark.parametrize("lo, hi", [(1e-200, 1e-200), (1e200, 1e200)])
    def test_one_point_grid_refuses_a_product_out_of_range(self, lo, hi):
        with pytest.raises(ValueError, match=r"^gamma_min\*gamma_max = "):
            log_gamma_grid(lo, hi, 1)
        assert np.array_equal(log_gamma_grid(lo, hi, 2), [lo, hi])

    def test_noncertifiable_has_empty_bounds(self):
        problem = gen_mpc(MpcSpec(horizon=2), np.zeros(4),
                          np.array([0.0, 0.0, 0.0, 1.0]))
        sweep = run_sweep(problem, 0.5, [0.5, 1.0], tol=1e-4,
                          max_iters=50_000)
        assert all(e.iterations_bound is None for e in sweep.entries)
        assert all(e.iterations_actual is not None for e in sweep.entries)

    def test_certified_bound_holds_on_lasso(self):
        problem = gen_lasso(LassoSpec(n=12, m=18, nnz_per_row=4, seed=5))
        gamma_star = sweep_gamma_star(problem)
        grid = log_gamma_grid(0.1 * gamma_star, 10 * gamma_star, 5)
        sweep = run_sweep(problem, 1.0, grid, tol=1e-5)
        for e in sweep.entries:
            assert e.converged
            assert e.iterations_bound is not None
            assert e.iterations_actual <= e.iterations_bound + 1

    def test_worstcase_dual_sweep_bound_is_tight_at_optimum(self):
        reg = Regularity(sigma=1.0, beta=4.0)
        inst = build(reg, "g1", "dual", theta=1.0, zeta=3.0, coordinate=2)
        gamma_star = sweep_gamma_star(inst.problem)
        assert gamma_star == pytest.approx(2.0 / 3.0, rel=1e-12)
        sweep = run_sweep(inst.problem, 1.0, [gamma_star], tol=1e-5)
        entry = sweep.entries[0]
        assert entry.iterations_bound is not None
        # the default start z=0 sits on the fixed point, so perturb it
        # through a custom start instead
        from proxsplit.admm import admm_solve as solve
        _, _, _, trace = solve(inst.problem, gamma_star, 1.0, tol=1e-12,
                               max_iters=10_000, z0=np.array([1.0, 1.0]))
        dist = np.array([np.linalg.norm(z - trace.z_final)
                         for z in trace.z_history])
        crossed = int(np.nonzero(dist <= 1e-5 * dist[0])[0][0])
        assert abs(crossed - entry.iterations_bound) <= 1

    def test_capability_error_recorded_per_point(self, rng):
        from proxsplit.admm import EqConstrainedProblem
        from proxsplit.prox import WeightedL1, Zero
        b = rng.normal(size=(3, 3))  # unsupported constraint block
        problem = EqConstrainedProblem(
            f=Zero(3), g=WeightedL1([1.0, 1.0, 1.0]), A=np.eye(3), B=b,
            c=np.zeros(3))
        sweep = run_sweep(problem, 0.5, [0.5, 2.0], tol=1e-4)
        assert len(sweep.entries) == 2
        for e in sweep.entries:
            assert e.iterations_actual is None
            assert not e.converged
            assert "y-update" in e.note

    def test_metric_sweep_uses_scaled_problem(self):
        problem = gen_lasso(LassoSpec(n=10, m=15, nnz_per_row=4, seed=2))
        metric = lasso_metric(problem)
        sweep = run_sweep(problem, 1.0,
                          [sweep_gamma_star(problem, metric)],
                          metric=metric, tol=1e-5)
        assert sweep.entries[0].converged
        assert sweep.metric is metric

    def test_csv_schema(self):
        problem = gen_lasso(LassoSpec(n=8, m=12, nnz_per_row=3, seed=9))
        sweep = run_sweep(problem, 1.0, [sweep_gamma_star(problem)],
                          tol=1e-4)
        buf = io.StringIO()
        sweep.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == CSV_SCHEMA_TAG
        assert lines[1].startswith("# kind=sweep alpha=1 ")
        assert lines[2] == "gamma,iterations_actual,iterations_bound,converged"
        assert len(lines) == 4


class TestDualConstantsAgree:
    """The condition report, the dual constants and gamma* read one S."""

    @pytest.fixture(scope="class")
    def desk(self):
        problem = gen_lasso(LassoSpec(n=50, m=75, nnz_per_row=10, seed=0))
        return problem, lasso_metric(problem)

    def test_condition_report_equals_kappa_hat(self, desk):
        problem, e = desk
        assert (lasso_condition_report(problem, e).value
                == problem_dual_regularity(problem, e).kappa_hat)

    def test_gamma_star_equals_metric_step(self, desk):
        problem, e = desk
        assert sweep_gamma_star(problem, e) == gamma_from_metric(
            lasso_condition_report(problem, e))


class TestMpcBenchmark:
    def test_metric_objective_improves_conditioning(self):
        problem = gen_mpc(MpcSpec(), np.zeros(4),
                          np.array([0.0, 0.0, 0.0, 10.0]))
        identity = mpc_metric_objective(problem, identity=True)
        equilibrated = mpc_metric_objective(problem)
        assert equilibrated.value <= identity.value
        assert np.all(equilibrated.metric.diag > 0)
        assert math.isfinite(equilibrated.value)

    def test_compare_preconditioning_strictly_better(self):
        out = mpc_compare(MpcSpec(), np.zeros(4),
                          np.array([0.0, 0.0, 0.0, 10.0]))
        assert out["identity"]["converged"]
        assert out["metric"]["converged"]
        assert out["metric"]["iterations"] < out["identity"]["iterations"]

    def test_compare_steps_at_each_objectives_gamma_star(self):
        # the shared sweep's one-point grid sqrt(g*g) is g, bit for bit
        x0, reference = np.zeros(4), np.array([0.0, 0.0, 0.0, 10.0])
        problem = gen_mpc(MpcSpec(), x0, reference)
        out = mpc_compare(MpcSpec(), x0, reference)
        for name in ("identity", "metric"):
            obj = mpc_metric_objective(problem, identity=name == "identity")
            assert out[name]["gamma_star"] == gamma_from_metric(obj)
            assert out[name]["condition_number"] == obj.value

    def test_lasso_metric_requires_strong_convexity(self):
        problem = gen_mpc(MpcSpec(horizon=1), np.zeros(4), np.zeros(4))
        with pytest.raises(CapabilityError):
            lasso_metric(problem)

    def test_closed_loop_forms_the_objective_once(self, monkeypatch):
        calls = []

        def counting_kkt_p11(q, l):
            calls.append(1)
            return kkt_p11(q, l)

        monkeypatch.setattr(bench, "kkt_p11", counting_kkt_p11)
        out = mpc_closed_loop(MpcSpec(), pitch_reference(3), tol=1e-4,
                              metric=False)
        assert len(out["iterations"]) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("metric, target", [(True, 3.5), (False, 1.0)])
    def test_closed_loop_matches_a_per_sample_rebuild(self, metric, target):
        # the reference loop builds problem, metric, scaled problem and
        # engine afresh for every sample; the shared structure must give
        # the same bits
        spec, refs, tol = MpcSpec(), pitch_reference(8, target, 2, 8), 1e-4
        x, counts, states = np.zeros(4), [], [np.zeros(4)]
        for ref in refs:
            problem = gen_mpc(spec, x, ref)
            obj = mpc_metric_objective(problem, identity=not metric)
            scaled = problem.scaled(obj.metric) if metric else problem
            _, _, _, trace = admm_solve(scaled, gamma_from_metric(obj), 0.5,
                                        tol=tol, max_iters=MPC_MAX_ITERS,
                                        z0=np.zeros(scaled.p))
            counts.append(trace.iterations)
            u0 = trace.x_final[spec.horizon * 4:spec.horizon * 4 + 2]
            x = AIRCRAFT_A @ x + AIRCRAFT_B @ u0
            states.append(x)
        out = mpc_closed_loop(spec, refs, alpha=0.5, tol=tol, metric=metric)
        assert out["iterations"] == counts
        assert len(set(counts)) > 3  # a transient, not only settled samples
        assert np.array_equal(out["states"], np.array(states))

    def test_closed_loop_builds_the_structure_once(self, monkeypatch):
        gens = _counted(monkeypatch, bench, "gen_mpc")
        inits, factors, building = [], [], []
        real_init, real_lu = AdmmEngine.__init__, scipy.linalg.lu_factor

        def init(engine, *args, **kwargs):
            inits.append(1)
            building.append(1)
            try:
                real_init(engine, *args, **kwargs)
            finally:
                building.pop()

        def lu_factor(*args, **kwargs):
            if building:
                factors.append(1)
            return real_lu(*args, **kwargs)

        monkeypatch.setattr(AdmmEngine, "__init__", init)
        monkeypatch.setattr(scipy.linalg, "lu_factor", lu_factor)
        out = mpc_closed_loop(MpcSpec(), pitch_reference(8, 1.0, 2, 8),
                              tol=1e-4)
        assert len(out["iterations"]) == 8
        assert (len(gens), len(inits), len(factors)) == (1, 1, 1)

    def test_closed_loop_refuses_empty_references(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="reference"):
                mpc_closed_loop(MpcSpec(), np.zeros((0, 4)))

    @pytest.mark.parametrize("identity, decompositions", [(False, 2),
                                                          (True, 1)])
    def test_metric_objective_decomposes_each_metric_once(
            self, monkeypatch, identity, decompositions):
        problem = gen_mpc(MpcSpec(), np.zeros(4),
                          np.array([0.0, 0.0, 0.0, 10.0]))
        s = problem.A @ kkt_p11(problem.f.Q, problem.f.L) @ problem.A.T
        s = 0.5 * (s + s.T)
        # selection and objective each decomposing S on their own
        e = (DiagonalMetric.identity(problem.p) if identity
             else select_diagonal_metric(s, mode="heuristic"))
        separate = pseudo_condition_of(e, s)
        decomps = _counted(monkeypatch, linmetric, "_eigvalsh")
        obj = mpc_metric_objective(problem, identity=identity)
        assert len(decomps) == decompositions
        assert ((obj.mode, obj.numerator, obj.denominator, obj.value)
                == (separate.mode, separate.numerator, separate.denominator,
                    separate.value))
        assert np.array_equal(obj.metric.diag, separate.metric.diag)


NO_CERTIFICATE = ("no rate certificate: the smooth term is not a strongly "
                  "convex quadratic")
CERTIFICATE_ENTRY_POINTS = {
    "lasso_metric": lasso_metric,
    "lasso_condition_report": lasso_condition_report,
    "problem_dual_regularity": problem_dual_regularity,
    "sweep_gamma_star": sweep_gamma_star,
    "dual_quadratic": lambda p: dual_quadratic(p.f, p.A, p.c),
    "verify_dual_equivalence": lambda p: verify_dual_equivalence(
        p, 1.0, 0.5, 5, np.zeros(p.p)),
}


@pytest.mark.parametrize("entry", sorted(CERTIFICATE_ENTRY_POINTS))
@pytest.mark.parametrize("f", [Zero(3), Quadratic(np.diag([1.0, 2.0, 0.0]))],
                         ids=["zero", "singular"])
def test_one_gate_for_every_certificate_entry_point(f, entry):
    problem = EqConstrainedProblem(f=f, g=WeightedL1([1.0, 1.0, 1.0]),
                                   A=np.eye(3), B=-np.eye(3), c=np.zeros(3))
    with pytest.raises(CapabilityError) as info:
        CERTIFICATE_ENTRY_POINTS[entry](problem)
    assert str(info.value) == NO_CERTIFICATE


def _counted(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call."""
    calls, real = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestCertifyOnce:
    """Each piece of certificate work runs once per problem object: S =
    A Q^-1 A^T is one solve against Q, and each distinct metric E is one
    eigendecomposition of E S E."""

    def test_certify_sequence(self, monkeypatch):
        problem = gen_lasso(LassoSpec(n=50, m=75, nnz_per_row=10, seed=0))
        solves = _counted(monkeypatch, np.linalg, "solve")
        decomps = _counted(monkeypatch, linmetric, "_eigvalsh")
        metric = lasso_metric(problem)
        lasso_condition_report(problem, metric)
        lasso_condition_report(problem)
        sweep_gamma_star(problem, metric)
        problem_dual_regularity(problem, metric)
        assert not np.array_equal(metric.diag, np.ones(problem.p))
        assert (len(solves), len(decomps)) == (1, 2)

    def test_metric_with_equal_entries_shares_the_spectrum(self, monkeypatch):
        problem = gen_lasso(LassoSpec(n=12, m=18, nnz_per_row=4, seed=5))
        decomps = _counted(monkeypatch, linmetric, "_eigvalsh")
        e = DiagonalMetric(np.linspace(1.0, 2.0, problem.p))
        dual = problem_dual_regularity(problem, e)
        assert problem_dual_regularity(
            problem, DiagonalMetric(e.diag.copy())) == dual
        assert len(decomps) == 1
        problem_dual_regularity(problem, DiagonalMetric(2.0 * e.diag))
        assert len(decomps) == 2
        problem_dual_regularity(problem)
        problem_dual_regularity(problem, DiagonalMetric.identity(problem.p))
        assert len(decomps) == 3

    @pytest.mark.parametrize("entry", sorted(CERTIFICATE_ENTRY_POINTS))
    def test_gate_failure_is_raised_on_every_call(self, entry):
        problem = EqConstrainedProblem(f=Zero(3), g=WeightedL1([1.0] * 3),
                                       A=np.eye(3), B=-np.eye(3),
                                       c=np.zeros(3))
        for _ in range(2):
            with pytest.raises(CapabilityError, match=NO_CERTIFICATE):
                CERTIFICATE_ENTRY_POINTS[entry](problem)

    def test_rank_deficiency_is_raised_on_every_call(self, monkeypatch):
        problem = EqConstrainedProblem(
            f=Quadratic(np.eye(3)), g=WeightedL1([1.0, 1.0]),
            A=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), B=-np.eye(2),
            c=np.zeros(2))
        decomps = _counted(monkeypatch, linmetric, "_eigvalsh")
        for entry in (problem_dual_regularity, sweep_gamma_star,
                      lasso_condition_report) * 2:
            with pytest.raises(RankDeficiencyError):
                entry(problem)
        assert len(decomps) == 1
