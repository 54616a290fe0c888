"""The benchmark tracer's hook points exist and are restored on uninstall.

``perfbench/tracer.py`` wraps named attributes of the package (module
functions, methods, each catalog class's own ``prox``).  Renaming or
removing one of them breaks only traced benchmark runs, so this test
installs and uninstalls both tracer levels and checks every patched
attribute afterwards.
"""

import pathlib
import sys

import numpy as np
import pytest

from proxsplit import admm, worstcase
from proxsplit.prox import Box, Quadratic, Zero

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import tracer  # noqa: E402


def _lookup(owner, attr):
    # the tracer patches and restores class attributes through the class
    # dict, so that an inherited method is not copied onto the subclass
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr)


@pytest.mark.parametrize("detail", [False, True])
def test_install_patches_and_uninstall_restores(detail):
    t = tracer.Tracer(detail=detail)
    try:
        t.install()  # raises AttributeError for a hook point that is gone
        patched = list(t._undo)
        for owner, attr, original in patched:
            assert _lookup(owner, attr) is not original, (owner, attr)
    finally:
        t.uninstall()
    assert len(patched) >= len(tracer.COARSE)
    for owner, attr, original in patched:
        assert _lookup(owner, attr) is original, (owner, attr)


def test_every_step_of_a_solve_is_counted():
    # the timed run reads its BLOCK-step clock off the calls of
    # splitting.dr_step and AdmmEngine.step; a solver that stopped calling
    # them through those names would leave its solves unsegmented
    problem = admm.EqConstrainedProblem(
        Quadratic(np.diag([2.0, 1.0])), Box([-1.0, -1.0], [1.0, 1.0]),
        np.diag([1.0, 3.0]), -np.eye(2), np.array([0.3, 0.1]))
    t = tracer.Tracer(detail=False).install()
    try:
        dr_trace = worstcase.dr_solve(Quadratic(np.diag([4.0, 1.0])),
                                      Zero(2), 0.5, 1.0, np.array([0.0, 1.0]),
                                      tol=1e-12, max_iters=200)
        dr_steps = t._steps
        *_, admm_trace = admm.admm_solve(problem, 0.7, 0.5, tol=1e-12)
        admm_steps = t._steps
    finally:
        t.uninstall()
    assert dr_steps == dr_trace.iterations > tracer.BLOCK
    assert admm_steps == admm_trace.iterations > tracer.BLOCK
    for solve, trace in zip(t.solves, (dr_trace, admm_trace)):
        assert solve.iterations == trace.iterations
        assert len(solve.segments) == -(-trace.iterations // tracer.BLOCK)
