#!/usr/bin/env bash
# Write every CLI output, the 6 --help texts and the stdout of the demos of
# the proxsplit tree in the current directory into OUTDIR.
#
#   cd TREE && bash /path/to/golden_outputs.sh OUTDIR
#
# The rule that CLI outputs and v1 CSVs keep their bits is checked by running
# this script in two trees (say a base commit and a change) and comparing the
# two directories with `diff -r`.  The script only reads the tree it runs in,
# so it can come from either tree.  The two problem-file reports print
# eigenvalues at full precision, on the exact 2x2 path (the dual extremal
# instance) and on the KKT-block heuristic path (the desk MPC problem).
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
python -c 'import json, sys; from proxsplit.rates import Regularity; from proxsplit.worstcase import build; json.dump(build(Regularity(1.0, 4.0), "g1", "dual", theta=0.5, zeta=3.0).problem.to_json(), open(sys.argv[1], "w"))' "$out/extremal-problem.json"
python -m proxsplit metric-report --problem "$out/extremal-problem.json" --out "$out/metric-report-extremal.json"
python -c 'import json, sys, numpy as np; from proxsplit import bench; json.dump(bench.gen_mpc(bench.MpcSpec(), np.zeros(4), np.array([0.0, 0.0, 0.0, 10.0])).to_json(), open(sys.argv[1], "w"))' "$out/mpc-problem.json"
python -m proxsplit metric-report --problem "$out/mpc-problem.json" --out "$out/metric-report-mpc.json"
for demo in demos/*.py; do
  python "$demo" > "$out/$(basename "$demo" .py).txt"
done
