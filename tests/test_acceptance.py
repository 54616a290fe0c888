"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 9 includes a spectral-radius check against the published
value 1.313 at tolerance 5e-4.  The radius is that of the unrounded
zero-order-hold discretization of the aircraft model, the model it was
published for; ``bench.AIRCRAFT_A`` and ``bench.AIRCRAFT_B`` are that
discretization rounded to three decimals, and the check asserts that too.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import golden_prox_1d, sample_catalog_fn
from proxsplit import bench, worstcase
from proxsplit.admm import EqConstrainedProblem, verify_dual_equivalence
from proxsplit.prox import (
    Box,
    PwlPenalty,
    Quadratic,
    WeightedL1,
    Zero,
)
from proxsplit.rates import (
    DualRegularity,
    Regularity,
    competing_rates,
    contraction_factor,
)
from proxsplit.splitting import dr_solve


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_tightness_grid():
    t0 = time.time()
    rows = worstcase.verify_grid()
    elapsed = time.time() - t0
    worst_measured = max(r["max_abs_diff"] for r in rows)
    worst_closed = max(abs(r["exact_rate"] - r["bound"]) for r in rows)
    ok = (len(rows) == 36 and worst_measured <= 1e-10
          and worst_closed <= 1e-12 and elapsed < 10.0)
    _report("1", ok,
            f"36-point grid: max|measured-exact|={worst_measured:.2e} "
            f"(<=1e-10), max|exact-bound|={worst_closed:.2e} (<=1e-12), "
            f"runtime {elapsed:.2f}s (<10s)")


def test_criterion_02_optimal_rate():
    inst = worstcase.build(Regularity(1.0, 4.0), "g1", "primal",
                           coordinate=2)
    trace = dr_solve(inst.f, inst.g, 0.5, 1.0, inst.z0, tol=1e-12,
                     max_iters=200, reference=np.zeros(2))
    ratios = [r for r in trace.contraction_ratios if not math.isnan(r)]
    worst = max(abs(r - 1.0 / 3.0) for r in ratios)

    flat = worstcase.build(Regularity(1.0, 1.0), "g1", "primal",
                           coordinate=2)
    trace1 = dr_solve(flat.f, flat.g, 1.0, 1.0, flat.z0, tol=1e-15,
                      max_iters=5, reference=np.zeros(2))
    one_step = trace1.distances[1]

    ok = worst <= 1e-10 and one_step <= 1e-15
    _report("2", ok,
            f"every ratio = 1/3 within {worst:.2e} (<=1e-10); equal "
            f"curvatures converge in one step to {one_step:.2e}")


def test_criterion_03_divergence():
    checked = 0
    for kappa, ratio in ((4.0, 1.0), (25.0, 0.2), (100.0, 5.0)):
        reg = Regularity(1.0, kappa)
        gamma = ratio / math.sqrt(reg.beta * reg.sigma)
        dist = worstcase.divergence_distances(reg.beta, reg.sigma, gamma)
        assert len(dist) == 101
        if not np.all(dist[1:] >= dist[:-1] * (1 - 1e-12)):
            _report("3", False,
                    f"distances decreased for kappa={kappa} ratio={ratio}")
        checked += 1
    _report("3", checked == 3,
            "||z^k - z_fix|| nondecreasing over 100 iterations on 3 "
            "instances with alpha = 1.01 * 2/(1+delta)")


def test_criterion_04_dual_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(10):
        n = int(rng.integers(2, 21))
        m = rng.normal(size=(n, n))
        f = Quadratic(m @ m.T + np.eye(n), rng.normal(size=n))
        a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        c = rng.normal(size=n)
        g_choice = i % 3
        if g_choice == 0:
            g = WeightedL1(rng.uniform(0.1, 2.0, size=n))
        elif g_choice == 1:
            lo = rng.normal(size=n)
            g = Box(lo, lo + rng.uniform(0.5, 2.0, size=n))
        else:
            g = Quadratic(np.eye(n), rng.normal(size=n))
        problem = EqConstrainedProblem(f=f, g=g, A=a, B=-np.eye(n), c=c)
        z0 = rng.normal(size=n)
        for gamma in (0.1, 1.0, 10.0):
            for alpha in (0.5, 0.99, 1.0):
                dev = verify_dual_equivalence(problem, gamma, alpha, 50, z0)
                worst = max(worst, dev)
    _report("4", worst <= 1e-8,
            f"max deviation over 10 QPs x 9 (gamma, alpha) combos x 50 "
            f"iterations: {worst:.2e} (<=1e-8)")


def test_criterion_05_dual_rate():
    dual = worstcase.dual_constants(Regularity(1.0, 4.0), 1.0, 3.0)
    assert dual.kappa_hat == pytest.approx(36.0)
    gamma_star = 1.0 / math.sqrt(dual.sigma_hat * dual.beta_hat)
    row = worstcase.dual_verify_point(4.0, 1.0, 1.0, 3.0, gamma_star, 1.0)
    err = abs(row["measured_rate"] - 5.0 / 7.0)
    ok = err <= 1e-8 and row["max_abs_diff"] <= 1e-8
    _report("5", ok,
            f"constrained extremal instance (kappa_hat=36): measured z "
            f"contraction |rate - 5/7| = {err:.2e} (<=1e-8)")


def test_criterion_06_prox_correctness():
    rng = np.random.default_rng(6)
    worst_moreau = 0.0
    n_samples = 10_000
    for _ in range(n_samples):
        dim = int(rng.integers(1, 6))
        f = sample_catalog_fn(rng, dim)
        gamma = float(10.0 ** rng.uniform(-2, 2))
        z1 = 3.0 * rng.normal(size=dim)
        z2 = 3.0 * rng.normal(size=dim)
        moreau = np.linalg.norm(
            f.prox(gamma, z1)
            + gamma * f.conjugate_prox(1.0 / gamma, z1 / gamma) - z1)
        worst_moreau = max(worst_moreau, float(moreau))
        lhs = np.linalg.norm(f.prox(gamma, z1) - f.prox(gamma, z2))
        rhs = np.linalg.norm(z1 - z2)
        assert lhs <= rhs * (1 + 1e-10) + 1e-12

    worst_oracle = 0.0
    one_d = [
        Quadratic(np.array([[2.0]]), np.array([0.3])),
        WeightedL1([0.8]),
        PwlPenalty(-0.5, 1.0, 7.0),
        Zero(1),
    ]
    for f in one_d:
        for gamma in (0.01, 1.0, 100.0):
            for _ in range(5):
                z = float(rng.normal() * 2)
                got = f.prox(gamma, np.array([z]))[0]
                oracle = golden_prox_1d(f, gamma, z,
                                        bracket=(z - 900.0, z + 900.0))
                worst_oracle = max(worst_oracle, abs(got - oracle))
    ok = worst_moreau <= 1e-10 and worst_oracle <= 1e-8
    _report("6", ok,
            f"{n_samples} samples: max Moreau residual "
            f"{worst_moreau:.2e} (<=1e-10), nonexpansive; 1-D proxes vs "
            f"golden-section oracle within {worst_oracle:.2e} (<=1e-8)")


def test_criterion_07_rate_dominance():
    worst = -np.inf
    for kappa in np.logspace(0, 6, 50):
        rates = competing_rates(DualRegularity(1.0, float(kappa)))
        tight = rates["tight"]
        for name in ("lions_mercier", "davis_yin", "deng_yin"):
            worst = max(worst, tight - rates[name])
    _report("7", worst <= 1e-12,
            f"tight bound <= each competing bound on a 50-point log grid "
            f"in [1, 1e6]; max excess {worst:.2e} (slack 1e-12)")


def test_criterion_08_lasso_desk():
    t0 = time.time()
    problem = bench.gen_lasso(bench.LassoSpec(n=50, m=75, nnz_per_row=10,
                                              seed=0))
    ratios = 10.0 ** np.linspace(-1, 1, 9)
    log_step = np.log10(ratios[1]) - np.log10(ratios[0])

    results = {}
    for label, metric in (("identity", None),
                          ("metric", bench.lasso_metric(problem))):
        gamma_star = bench.sweep_gamma_star(problem, metric)
        sweep = bench.run_sweep(problem, 1.0, ratios * gamma_star,
                                metric=metric, tol=1e-5)
        for entry in sweep.entries:
            assert entry.converged, f"{label} sweep did not converge"
            assert entry.iterations_bound is not None
            assert entry.iterations_actual <= entry.iterations_bound + 1, (
                f"(a) violated at {label} gamma={entry.gamma}")
        best = min(sweep.entries, key=lambda e: e.iterations_actual)
        offset = abs(math.log10(best.gamma / gamma_star))
        assert offset <= log_step * (1 + 1e-9), (
            f"(c) violated: minimum at {offset:.3f} decades from optimum "
            f"({label})")
        results[label] = sweep

    for idx, ratio in ((0, 0.1), (4, 1.0), (8, 10.0)):
        ident = results["identity"].entries[idx].iterations_actual
        scaled = results["metric"].entries[idx].iterations_actual
        assert scaled <= ident, (
            f"(b) violated at gamma/gamma*={ratio}: {scaled} > {ident}")
    elapsed = time.time() - t0
    _report("8", elapsed < 60.0,
            f"desk sparse least squares: actual <= bound at all 9 grid "
            f"points, equilibrated <= identity at matched relative steps, "
            f"minimum within one grid step of gamma*; runtime "
            f"{elapsed:.1f}s (<60s)")


def test_criterion_09_mpc_desk():
    out = bench.mpc_compare(bench.MpcSpec(), np.zeros(4),
                            np.array([0.0, 0.0, 0.0, 10.0]))
    ok = (out["identity"]["converged"] and out["metric"]["converged"]
          and out["metric"]["iterations"] < out["identity"]["iterations"])
    _report("9", ok,
            f"horizon-10 solve converged in both settings; preconditioned "
            f"{out['metric']['iterations']} < unpreconditioned "
            f"{out['identity']['iterations']} iterations at gamma*")


# Continuous-time AFTI-16 aircraft model (Kapasouris, Athans & Stein),
# the unstable MPC benchmark that bench.AIRCRAFT_A/B discretize at 0.05 s.
AFTI16_AC = np.array([
    [-0.0151, -60.5651, 0.0, -32.174],
    [-0.0001, -1.3411, 0.9929, 0.0],
    [0.00018, 43.2541, -0.86939, 0.0],
    [0.0, 0.0, 1.0, 0.0],
])
AFTI16_BC = np.array([
    [-2.516, -13.136],
    [-0.1689, -0.2514],
    [-17.251, -1.5766],
    [0.0, 0.0],
])
AFTI16_TS = 0.05


def test_criterion_09_dynamics_radius():
    # The published radius 1.313 belongs to the exact zero-order-hold
    # discretization; its three-decimal rounding (the embedded constants)
    # moves the radius to 1.31391, beyond the tolerance.  So the radius is
    # measured on the exact discretization, and the embedded constants are
    # checked to be its rounding entry for entry.
    nx, nu = AFTI16_BC.shape
    aug = np.zeros((nx + nu, nx + nu))
    aug[:nx, :nx] = AFTI16_AC
    aug[:nx, nx:] = AFTI16_BC
    zoh = scipy.linalg.expm(aug * AFTI16_TS)
    a_d, b_d = zoh[:nx, :nx], zoh[:nx, nx:]
    radius = float(max(abs(np.linalg.eigvals(a_d))))
    err = abs(radius - 1.313)
    rounds_to_a = np.array_equal(np.round(a_d, 3), bench.AIRCRAFT_A)
    rounds_to_b = np.array_equal(np.round(b_d, 3), bench.AIRCRAFT_B)
    _report("9 (radius)", err <= 5e-4 and rounds_to_a and rounds_to_b,
            f"ZOH spectral radius {radius:.6f} vs published 1.313, "
            f"|diff|={err:.2e} (tolerance 5e-4); rounds to AIRCRAFT_A: "
            f"{rounds_to_a}, to AIRCRAFT_B: {rounds_to_b}")


def test_criterion_10_invariant_suites_present():
    import test_admm
    import test_bench
    import test_linmetric
    import test_metric
    import test_prox
    import test_rates
    import test_splitting
    import test_worstcase

    required = [
        (test_linmetric, "TestSpectralSummary"),
        (test_linmetric, "TestKktP11"),
        (test_prox, "TestOperatorLaws"),
        (test_prox, "TestConjugateProx"),
        (test_splitting, "TestDrSolve"),
        (test_admm, "TestDualEquivalence"),
        (test_admm, "TestAdmmSolve"),
        (test_rates, "TestContractionFactor"),
        (test_rates, "TestCompetingRates"),
        (test_metric, "TestSelectDiagonalMetric"),
        (test_worstcase, "TestVerification"),
        (test_bench, "TestSweep"),
    ]
    missing = [f"{mod.__name__}.{name}" for mod, name in required
               if not hasattr(mod, name)]
    _report("10", not missing,
            "module invariant suites run as seeded property tests in this "
            "same run (pytest exit status is the gate; total runtime "
            "budget 5 min)" if not missing else f"missing: {missing}")
