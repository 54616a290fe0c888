"""The four benchmark workloads and the output checks each pass runs.

Every workload is a closed loop with one caller: one solve at a time, no
threads.  Its inputs are drawn once from the workload seed; each timed pass
then rebuilds every problem object from those inputs, so per-problem
factorization caches never carry over from one pass to the next.

``run_pass`` returns the number of checked items (sweep points, closed-loop
samples, grid points, instances) and a description of each item that
raised, did not converge or failed its check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from proxsplit import admm, bench, rates, worstcase
from proxsplit.prox import Quadratic, WeightedL1

from tracer import SETUP

#: relative accuracy of the lasso sweep and of the certified bounds
TOL = 1e-5


@dataclass
class Outcome:
    """Items checked in one pass and the first failure seen on each."""

    checked: int
    failures: dict = field(default_factory=dict)

    def fail(self, item, message: str) -> None:
        self.failures.setdefault(item, message)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.checked)


def _log_uniform(rand: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rand.random()


def _relabel(problem: admm.EqConstrainedProblem,
             order: np.ndarray) -> admm.EqConstrainedProblem:
    """The same consensus lasso with its coordinates listed in ``order``."""
    f, g = problem.f, problem.g
    return admm.EqConstrainedProblem(
        f=Quadratic(f.Q[np.ix_(order, order)], f.q[order]),
        g=WeightedL1(g.w[order]), A=problem.A, B=problem.B, c=problem.c)


class LassoSweep:
    """``lasso --full --metric auto`` on a narrower grid, alpha = 1.

    Nine step sizes from gamma*/10 to 10 gamma* on the CLI's full 300x200
    instance (instance seed 0), with its coordinates relabelled by a
    permutation drawn from the seed (seed 0 keeps the CLI's order).  Dense
    n = p = 200 linear algebra on every ADMM step; one solve per grid point
    with the full z-history kept.

    The seed does not pick the instance: across instances the iteration
    totals spread by about 20%, which would swamp a change in
    per-iteration cost.  A relabelling leaves the problem's mathematics
    alone and changes every array the solver sees.  The CLI's own grid,
    gamma*/100 to 100 gamma*, is not used: its solve at the smallest step
    runs 10,000 to 13,000 iterations, more than half of the sweep, and the
    count jumps with the relabelling; a pass of it takes about 4 s, too
    long to be repeated often in one run on a shared machine.  On the
    narrower grid a pass takes about half a second and every relabelling
    tried ran the same number of iterations.
    """

    name = "lasso_sweep"
    solves_per_pass = 9
    #: the grid runs from gamma*/SPAN to gamma* * SPAN
    SPAN = 10.0

    def __init__(self, seed: int):
        self.spec = bench.LassoSpec(seed=0)
        order = list(range(self.spec.n))
        if seed != 0:
            random.Random(seed).shuffle(order)
        self.order = np.array(order)

    def run_pass(self, tracer) -> Outcome:
        with tracer.span("perfbench.relabel", SETUP):
            problem = _relabel(bench.gen_lasso(self.spec), self.order)
        metric = bench.lasso_metric(problem)
        gamma_star = bench.sweep_gamma_star(problem, metric)
        grid = bench.log_gamma_grid(gamma_star / self.SPAN,
                                    gamma_star * self.SPAN,
                                    self.solves_per_pass)
        sweep = bench.run_sweep(problem, 1.0, grid, metric=metric, tol=TOL)
        out = Outcome(len(sweep.entries))
        for i, e in enumerate(sweep.entries):
            if not e.converged or e.iterations_actual is None:
                out.fail(i, f"gamma={e.gamma:.6g} not converged {e.note}")
            elif (e.iterations_bound is not None
                  and e.iterations_actual > e.iterations_bound):
                out.fail(i, f"gamma={e.gamma:.6g}: {e.iterations_actual} "
                            f"iterations above the certified "
                            f"{e.iterations_bound}")
        if len(sweep.entries) != self.solves_per_pass:
            out.fail("pass", f"{len(sweep.entries)} sweep points")
        return out


class MpcClosedLoop:
    """Closed-loop pitch manoeuvre through ``bench.mpc_closed_loop``.

    Metric on, alpha = 0.5, as ``mpc --full`` runs it, on a shorter
    manoeuvre: a few samples of level flight, then a pitch step of about
    3.5 degrees held until well after the transient has settled.  Many
    short solves (the settled samples) and a tail of long ones (the
    transient); every sample rebuilds and refactors its problem.  The seed
    moves the step time by a few samples and the target by up to 1%; the
    number of samples is fixed, so that a latency percentile falls on the
    same solve of the transient whatever the seed.  Iteration counts jump
    at some targets (near 2.95 and 3.55 degrees), so the target stays
    inside a range where they change smoothly.
    """

    name = "mpc_closed_loop"
    TARGET_DEG = 3.5
    SAMPLES = 40

    def __init__(self, seed: int):
        rand = random.Random(seed)
        up_at = 2 + int(4 * rand.random())
        target = self.TARGET_DEG * (1.0 + 0.02 * (rand.random() - 0.5))
        self.spec = bench.MpcSpec()
        self.references = bench.pitch_reference(self.SAMPLES, target, up_at,
                                                self.SAMPLES)
        self.solves_per_pass = self.SAMPLES

    def run_pass(self, tracer) -> Outcome:
        first = len(tracer.solves)
        result = bench.mpc_closed_loop(self.spec, self.references, alpha=0.5,
                                       tol=TOL, metric=True)
        solves = tracer.solves[first:]
        out = Outcome(self.solves_per_pass)
        if len(solves) != self.solves_per_pass:
            out.fail("pass", f"{len(solves)} solves for "
                             f"{self.solves_per_pass} samples")
        for t, s in enumerate(solves):
            if not s.converged:
                out.fail(t, f"sample {t} not converged")
        # applied inputs, recovered from x+ = A x + B u
        states = result["states"]
        step = states[1:] - states[:-1] @ bench.AIRCRAFT_A.T
        inputs = np.linalg.lstsq(bench.AIRCRAFT_B, step.T, rcond=None)[0].T
        limit = self.spec.input_bound + 1e-3
        for t in np.nonzero(np.abs(inputs).max(axis=1) > limit)[0]:
            out.fail(int(t), f"sample {t}: |u| = "
                             f"{np.abs(inputs[t]).max():.6g} above "
                             f"{self.spec.input_bound}")
        return out


class WorstcaseGrid:
    """Tightness grids on the 2-d extremal instances.

    Primal relaxed Douglas-Rachford (``verify_point``) and the constrained
    ADMM instance (``dual_verify_point``) over seeded condition numbers,
    step ratios and the three acceptance relaxations.  Vectors of length 2,
    so the time goes to driver bookkeeping and prox dispatch.
    """

    name = "worstcase_grid"
    #: 126 primal and 81 constrained points: the median solve then falls
    #: well inside the primal points that run all ITERS iterations, not on
    #: the seed-dependent edge between the faster primal and the slower
    #: constrained solves
    PRIMAL_PAIRS = 42
    DUAL_KAPPAS = 3
    DUAL_SHAPES = 3
    RATIOS = 3
    ITERS = 120
    #: the ADMM path rounds more than the primal one; both tolerances are
    #: the ones the repository's own tightness criteria state
    PRIMAL_TOL = 1e-10
    DUAL_TOL = 1e-8

    def __init__(self, seed: int):
        rand = random.Random(seed)
        self.primal = [(_log_uniform(rand, 2.0, 200.0),
                        _log_uniform(rand, 0.2, 5.0))
                       for _ in range(self.PRIMAL_PAIRS)]
        self.dual = []
        for _ in range(self.DUAL_KAPPAS):
            kappa = _log_uniform(rand, 2.0, 50.0)
            for _ in range(self.DUAL_SHAPES):
                theta = 0.5 + 0.5 * rand.random()
                zeta = theta * _log_uniform(rand, 1.0, 3.0)
                for _ in range(self.RATIOS):
                    self.dual.append((kappa, theta, zeta,
                                      _log_uniform(rand, 0.2, 5.0)))
        self.solves_per_pass = 3 * (len(self.primal) + len(self.dual))

    def _points(self):
        """(dual shape or None, regularity, gamma, alpha, certified rate)."""
        points = []
        for kappa, ratio in self.primal:
            reg = rates.Regularity(sigma=1.0, beta=kappa)
            gamma = ratio * rates.optimal_parameters(reg)[0]
            cert = rates.certificate(reg, gamma)
            for alpha in worstcase.acceptance_alphas(cert.delta):
                points.append((None, reg, gamma, alpha, cert.rate(alpha)))
        for kappa, theta, zeta, ratio in self.dual:
            reg = rates.Regularity(sigma=1.0, beta=kappa)
            dreg = worstcase.dual_constants(reg, theta, zeta).as_regularity()
            gamma = ratio * rates.optimal_parameters(dreg)[0]
            cert = rates.certificate(dreg, gamma)
            for alpha in worstcase.acceptance_alphas(cert.delta):
                points.append(((theta, zeta), reg, gamma, alpha,
                               cert.rate(alpha)))
        return points

    def run_pass(self, tracer) -> Outcome:
        points = self._points()
        out = Outcome(len(points))
        for i, (shape, reg, gamma, alpha, certified) in enumerate(points):
            try:
                if shape is None:
                    row = worstcase.verify_point(reg.beta, reg.sigma, gamma,
                                                 alpha, iters=self.ITERS)
                    tol = self.PRIMAL_TOL
                else:
                    row = worstcase.dual_verify_point(
                        reg.beta, reg.sigma, *shape, gamma, alpha,
                        iters=self.ITERS)
                    tol = self.DUAL_TOL
            except Exception as exc:  # counted, the grid goes on
                out.fail(i, f"{type(exc).__name__}: {exc}")
                continue
            where = (f"kappa={reg.kappa:.6g} shape={shape} "
                     f"gamma={gamma:.6g} alpha={alpha:.6g}")
            if not abs(row["measured_rate"] - row["exact_rate"]) <= tol:
                out.fail(i, f"{where}: measured {row['measured_rate']!r} "
                            f"vs exact {row['exact_rate']!r}")
            # the bound holds and is attained, to the rounding the
            # repository's tightness criterion allows
            if not (abs(row["bound"] - row["exact_rate"]) <= 1e-12
                    and abs(row["bound"] - certified) <= 1e-12):
                out.fail(i, f"{where}: bound {row['bound']!r}, exact "
                            f"{row['exact_rate']!r}, certificate "
                            f"{certified!r}")
        return out


class Certify:
    """Certification of seeded 300x200 lasso instances.

    Generation, metric selection, the condition report with and without
    the metric, gamma*, the rate certificate and the iteration bound, then a
    short fixed-length solve at gamma* that checks the certified
    contraction on the measured iterates.  Covers ``rng``, ``bench.gen``,
    ``metric``, ``linmetric`` and ``rates``, which are small in every
    other workload.
    """

    name = "certify"
    INSTANCES = 8
    CHECK_ITERS = 30
    solves_per_pass = INSTANCES

    def __init__(self, seed: int):
        self.specs = [bench.LassoSpec(seed=seed * self.INSTANCES + i)
                      for i in range(self.INSTANCES)]

    def run_pass(self, tracer) -> Outcome:
        out = Outcome(len(self.specs))
        for spec in self.specs:
            try:
                failure = self._certify(spec)
            except Exception as exc:  # counted, the other instances go on
                failure = f"{type(exc).__name__}: {exc}"
            if failure:
                out.fail(spec.seed, f"seed {spec.seed}: {failure}")
        return out

    def _certify(self, spec: bench.LassoSpec) -> str:
        """Certify one instance; returns what failed, or an empty string."""
        problem = bench.gen_lasso(spec)
        metric = bench.lasso_metric(problem)
        scaled_obj = bench.lasso_condition_report(problem, metric)
        plain_obj = bench.lasso_condition_report(problem)
        gamma_star = bench.sweep_gamma_star(problem, metric)
        dual = bench.problem_dual_regularity(problem, metric)
        cert = rates.certificate(dual.as_regularity(), gamma_star)
        bound = rates.iteration_bound(cert.rate(1.0), TOL)

        reference = rates.optimal_parameters(dual.as_regularity())
        if not scaled_obj.value <= plain_obj.value:
            return (f"kappa(E) {scaled_obj.value!r} above kappa(I) "
                    f"{plain_obj.value!r}")
        if not math.isclose(scaled_obj.value, dual.kappa_hat, rel_tol=1e-9):
            return (f"condition report {scaled_obj.value!r} vs dual "
                    f"constants {dual.kappa_hat!r}")
        if not gamma_star == cert.gamma_star == reference[0]:
            return (f"gamma* {gamma_star!r}, certificate "
                    f"{cert.gamma_star!r}, optimal {reference[0]!r}")
        if not (cert.rate_star == reference[2]
                and abs(cert.rate(1.0) - cert.rate_star) <= 1e-12):
            return f"rate {cert.rate(1.0)!r} vs optimal {reference[2]!r}"
        if bound != rates.iteration_bound(reference[2], TOL):
            return f"iteration bound {bound} vs optimal rate {reference[2]!r}"

        # the certified rate bounds the contraction of successive
        # differences of the dual iterate z = gamma*(u - B y)
        scaled = problem.scaled(metric)
        _, _, _, trace = admm.admm_solve(
            scaled, gamma_star, 1.0, tol=1e-300,
            max_iters=self.CHECK_ITERS, z0=np.zeros(scaled.p))
        res = trace.residuals
        rate = cert.rate(1.0)
        for k in range(len(res) - 1):
            if res[k + 1] > rate * res[k] * (1 + 1e-9) + 1e-12 * res[0]:
                return (f"step {k + 1}: residual ratio "
                        f"{res[k + 1] / res[k]!r} above the certified "
                        f"{rate!r}")
        return ""


WORKLOADS = {cls.name: cls for cls in (LassoSweep, MpcClosedLoop,
                                       WorstcaseGrid, Certify)}
