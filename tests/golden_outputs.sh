#!/usr/bin/env bash
# Write every CLI output, the 6 --help texts and the stdout of the demos of
# the proxsplit tree in the current directory into OUTDIR: 47 files.
#
#   cd TREE && bash /path/to/golden_outputs.sh OUTDIR
#
# The rule that CLI outputs and v1 CSVs keep their bits is checked by running
# this script in two trees (say a base commit and a change) and comparing the
# two directories with `diff -r`.  The script only reads the tree it runs in,
# so it can come from either tree.  The full lasso sweep runs with the
# identity metric too: its solves keep the longest z-histories of any sweep,
# and the grid point after each one must still count the same iterations
# once the history before it is freed.  The three problem-file reports print
# eigenvalues at full precision, on the exact 2x2 path (the dual extremal
# instance), on the KKT-block heuristic path (the desk MPC problem) and on
# the lasso path with a weighted l1 term (a small lasso problem).  Six v1
# trace CSVs cover the solves no CLI command reaches: DR with a quadratic on
# an affine set (its saddle-system prox), DR with a quadratic whose q is
# nonzero (its prox map forms z - gamma*q) and a weighted l1 g, DR with a
# g that is a mixed Separable (its member maps) with a conjugate member
# (its map at 1/gamma), ADMM whose x-update is a prox (a diagonal A with a
# weighted l1 f), and two ADMM solves whose y-update is the one select, under a non-identity
# B = -diag(d): over soft bands split by a box with a 0.0 bound, and over
# two adjacent soft bands (one shared, one per coordinate) and a box.  One
# v1 CSV pins the ADMM tightness claim: admm-dual-tightness.csv holds 36
# dual_verify_point rows (variants g1 and g2), beta 4 and 25, two (theta,
# zeta) pairs, 0.2, 1 and 5 times the dual gamma* and the three acceptance
# relaxations.
# Iteration counts depend on the BLAS reduction order, so every BLAS and
# OpenMP runtime gets one thread, as in CI and perfbench/run.py.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 OUTDIR" >&2; exit 2; }
mkdir -p "$1"
out=$(cd "$1" && pwd)
tree=$PWD
export PYTHONPATH="$tree/src"
# argparse wraps --help at the terminal width
export COLUMNS=80
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
python -c 'import proxsplit, sys; sys.exit(not proxsplit.__file__.startswith(sys.argv[1]))' "$tree/src" \
  || { echo "proxsplit is not imported from $tree/src" >&2; exit 1; }

python -m proxsplit --help > "$out/help.txt"
for cmd in lasso mpc worstcase-verify rates-table metric-report; do
  python -m proxsplit "$cmd" --help > "$out/help-$cmd.txt"
done
python -m proxsplit lasso --out "$out/lasso.csv"
python -m proxsplit lasso --metric auto --out "$out/lasso-auto.csv"
python -m proxsplit lasso --full --out "$out/lasso-full.csv"
python -m proxsplit lasso --full --metric auto --out "$out/lasso-full-auto.csv"
python -m proxsplit lasso --seed 7 --out "$out/lasso-seed7.csv"
python -m proxsplit lasso --metric auto --alpha 0.8 --out "$out/lasso-auto-alpha0.8.csv"
python -m proxsplit lasso --gamma-points 1 --out "$out/lasso-points1.csv"
python -m proxsplit mpc --out "$out/mpc-auto.csv"
python -m proxsplit mpc --alpha 0.8 --out "$out/mpc-alpha0.8.csv"
python -m proxsplit mpc --metric identity --out "$out/mpc-identity.csv"
python -m proxsplit mpc --gamma-min 0.2 --gamma-max 1 --gamma-points 3 --out "$out/mpc-grid3.csv"
python -m proxsplit mpc --full --metric auto --out "$out/mpc-full-auto.csv"
python -m proxsplit mpc --full --metric identity --out "$out/mpc-full-identity.csv"
python -m proxsplit worstcase-verify --beta 4 --out "$out/worstcase-beta4.csv"
python -m proxsplit worstcase-verify --out "$out/worstcase.csv"
python -m proxsplit worstcase-verify --sigma 2 --out "$out/worstcase-sigma2.csv"
python -m proxsplit worstcase-verify --beta 8 --sigma 2 --out "$out/worstcase-beta8-sigma2.csv"
python -m proxsplit metric-report --out "$out/metric-report.json"
python -m proxsplit metric-report --full --out "$out/metric-report-full.json"
python -m proxsplit metric-report --full --seed 3 --out "$out/metric-report-full-seed3.json"
python -m proxsplit rates-table --out "$out/rates-table.json"
python -c 'import json, sys; from proxsplit.rates import Regularity; from proxsplit.worstcase import build; json.dump(build(Regularity(1.0, 4.0), "g1", theta=0.5, zeta=3.0).problem.to_json(), open(sys.argv[1], "w"))' "$out/extremal-problem.json"
python -m proxsplit metric-report --problem "$out/extremal-problem.json" --out "$out/metric-report-extremal.json"
python -c 'import json, sys, numpy as np; from proxsplit import bench; json.dump(bench.gen_mpc(bench.MpcSpec(), np.zeros(4), np.array([0.0, 0.0, 0.0, 10.0])).to_json(), open(sys.argv[1], "w"))' "$out/mpc-problem.json"
python -m proxsplit metric-report --problem "$out/mpc-problem.json" --out "$out/metric-report-mpc.json"
python -c 'import json, sys; from proxsplit import bench; json.dump(bench.gen_lasso(bench.LassoSpec(n=8, m=12, nnz_per_row=3)).to_json(), open(sys.argv[1], "w"))' "$out/lasso-problem.json"
python -m proxsplit metric-report --problem "$out/lasso-problem.json" --out "$out/metric-report-lasso.json"
python -c 'import sys, numpy as np; from proxsplit.prox import Box, QuadraticAffine; from proxsplit.splitting import dr_solve, write_trace_csv; t = dr_solve(QuadraticAffine([[4, 1, 0], [1, 3, 1], [0, 1, 2]], [1, -2, 0.5], [[1, 1, 1]], [1]), Box([-0.5] * 3, [0.8] * 3), 0.7, 1.0, np.zeros(3)); write_trace_csv(t, open(sys.argv[1], "w"))' "$out/dr-quadratic-affine.csv"
python -c 'import sys, numpy as np; from proxsplit.prox import Quadratic, WeightedL1; from proxsplit.splitting import dr_solve, write_trace_csv; t = dr_solve(Quadratic([[4, 1, 0], [1, 3, 1], [0, 1, 2]], [1, -2, 0.5]), WeightedL1([1, 0.5, 2]), 0.5, 1.3, np.array([0.4, -1.0, 2.0])); write_trace_csv(t, open(sys.argv[1], "w"))' "$out/dr-quadratic-l1.csv"
python -c 'import sys, numpy as np; from proxsplit.prox import ConjugateOf, Quadratic, Separable, WeightedL1, Zero; from proxsplit.splitting import dr_solve, write_trace_csv; t = dr_solve(Quadratic([[4, 1, 0, 0, 0], [1, 3, 1, 0, 0], [0, 1, 2, 0.5, 0], [0, 0, 0.5, 1, 0], [0, 0, 0, 0, 2]], [1, -2, 0.5, 0, 1]), Separable([(0, 2, WeightedL1([1, 0.5])), (2, 3, Zero(1)), (3, 5, ConjugateOf(Quadratic([[2, 0.5], [0.5, 1]], [0.3, -0.1])))]), 0.7, 1.2, np.array([0.4, -1.0, 2.0, 0.5, -0.3])); write_trace_csv(t, open(sys.argv[1], "w"))' "$out/dr-separable-conjugate.csv"
python -c 'import sys, numpy as np; from proxsplit.admm import EqConstrainedProblem, admm_solve; from proxsplit.prox import Box, WeightedL1; from proxsplit.splitting import write_trace_csv; *_, t = admm_solve(EqConstrainedProblem(WeightedL1([1, 0.5, 2]), Box([-1] * 3, [1] * 3), np.diag([2, 1, 0.5]), -np.eye(3), [0.3, -0.2, 0.9]), 0.8, 0.5, z0=np.ones(3)); write_trace_csv(t, open(sys.argv[1], "w"))' "$out/admm-diagonal-prox.csv"
python -c 'import sys, numpy as np; from proxsplit.admm import EqConstrainedProblem, admm_solve; from proxsplit.prox import Box, PwlPenalty, Quadratic, Separable; from proxsplit.splitting import write_trace_csv; *_, t = admm_solve(EqConstrainedProblem(Quadratic([[4, 1, 0], [1, 3, 1], [0, 1, 2]], [1, -2, 0.5]), Separable([(0, 2, PwlPenalty(-0.5, 0.5, 2.0)), (2, 4, Box([0.0, -1.0], [1.0, 0.0])), (4, 6, PwlPenalty([-1.0, 0.0], [1.0, 0.2], [0.5, 3.0]))]), [[1, 0, 1], [0, 2, -1], [1, 1, 0], [-1, 0, 2], [0, 1, 1], [2, -1, 0]], -np.diag([2.0, 1.0, 0.5, 3.0, 1.0, 0.5]), [1.5, -2.0, 0.7, -0.4, 2.5, -1.2]), 0.8, 0.5); write_trace_csv(t, open(sys.argv[1], "w"))' "$out/admm-bands-box.csv"
python -c 'import sys, numpy as np; from proxsplit.admm import EqConstrainedProblem, admm_solve; from proxsplit.prox import Box, PwlPenalty, Quadratic, Separable; from proxsplit.splitting import write_trace_csv; *_, t = admm_solve(EqConstrainedProblem(Quadratic([[4, 1, 0], [1, 3, 1], [0, 1, 2]], [1, -2, 0.5]), Separable([(0, 2, PwlPenalty(-0.5, 0.5, 2.0)), (2, 5, PwlPenalty([-1.0, 0.0, -0.2], [1.0, 0.2, 0.3], [0.5, 3.0, 1.0])), (5, 7, Box([0.0, -1.0], [1.0, 0.0]))]), [[1, 0, 1], [0, 2, -1], [1, 1, 0], [-1, 0, 2], [0, 1, 1], [2, -1, 0], [1, -1, 1]], -np.diag([2.0, 1.0, 0.5, 3.0, 1.0, 0.25, 1.5]), [1.5, -2.0, 0.7, -0.4, 2.5, -1.2, 0.9]), 0.8, 0.5); write_trace_csv(t, open(sys.argv[1], "w"))' "$out/admm-adjacent-bands.csv"
python -c 'import sys; from proxsplit.rates import Regularity, contraction_factor, optimal_parameters; from proxsplit.splitting import write_csv; from proxsplit.worstcase import acceptance_alphas, dual_constants, dual_verify_point; cols = ("beta", "sigma", "theta", "zeta", "gamma", "alpha", "variant", "bound", "exact_rate", "measured_rate", "max_abs_diff"); pts = [(b, t, z, r * optimal_parameters(d)[0], d) for b in (4.0, 25.0) for t, z in ((1.0, 2.0), (0.5, 3.0)) for d in [dual_constants(Regularity(1.0, b), t, z).as_regularity()] for r in (0.2, 1.0, 5.0)]; rows = [dual_verify_point(b, 1.0, t, z, g, a) for b, t, z, g, d in pts for a in acceptance_alphas(contraction_factor(d, g))]; write_csv(open(sys.argv[1], "w"), (), cols, ([r[c] for c in cols] for r in rows))' "$out/admm-dual-tightness.csv"
for demo in demos/*.py; do
  python "$demo" > "$out/$(basename "$demo" .py).txt"
done
