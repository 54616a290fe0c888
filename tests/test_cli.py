"""Command-line surface: subcommands, exit codes, deterministic output."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit import bench, worstcase
from proxsplit.admm import EqConstrainedProblem
from proxsplit.cli import EXIT_CAPABILITY, EXIT_OK, EXIT_USAGE, cli_main
from proxsplit.prox import (IndicatorAffine, IndicatorZero, PwlPenalty,
                            Quadratic, Separable, WeightedL1, Zero)
from proxsplit.rates import Regularity
from proxsplit.splitting import CSV_SCHEMA_TAG


def test_missing_out_is_usage_error(capsys):
    assert cli_main(["worstcase-verify", "--beta", "4"]) == EXIT_USAGE


def test_unknown_command_is_usage_error():
    assert cli_main(["frobnicate"]) == EXIT_USAGE


def test_worstcase_verify_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = cli_main(["worstcase-verify", "--beta", "4", "--sigma", "1",
                     "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_SCHEMA_TAG
    header = lines[1].split(",")
    assert header == ["beta", "sigma", "gamma", "alpha", "variant", "bound",
                      "exact_rate", "measured_rate", "max_abs_diff"]
    assert len(lines) == 2 + 9  # 3 gammas x 3 alphas
    for row in lines[2:]:
        fields = row.split(",")
        assert float(fields[0]) == 4.0
        assert float(fields[-1]) <= 1e-10


@pytest.mark.parametrize("beta,sigma", [("15", "11"), ("4", "1"),
                                        ("0.3", "0.1")])
def test_worstcase_verify_keeps_beta_exact(tmp_path, beta, sigma):
    """--beta B --sigma S runs and writes the grid at beta = B exactly,
    not at (B / S) * S."""
    out = tmp_path / "report.csv"
    assert cli_main(["worstcase-verify", "--beta", beta, "--sigma", sigma,
                     "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    expect = worstcase.verify_grid((float(beta),), sigma=float(sigma))
    assert len(rows) == len(expect) == 9
    for fields, row in zip(rows, expect):
        assert float(fields[0]) == row["beta"] == float(beta)
        assert float(fields[1]) == row["sigma"] == float(sigma)
        assert [float(v) for v in fields[2:4]] == [row["gamma"], row["alpha"]]
        assert float(fields[-1]) <= 1e-10


def test_rates_table_json(tmp_path):
    out = tmp_path / "rates.json"
    code = cli_main(["rates-table", "--kappa-grid", "1,10,100",
                     "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["kappa_hat"] == [1.0, 10.0, 100.0]
    curves = payload["curves"]
    assert set(curves) == {"tight", "lions_mercier", "davis_yin",
                           "deng_yin", "giselsson_boyd_admm_qp_equiv"}
    assert curves["tight"][0] == 0.0
    assert curves["tight"][2] == pytest.approx(9.0 / 11.0)
    for name in ("lions_mercier", "davis_yin", "deng_yin"):
        for tight, other in zip(curves["tight"], curves[name]):
            assert tight <= other + 1e-12


def test_rates_table_rejects_bad_grid(tmp_path):
    out = tmp_path / "rates.json"
    assert cli_main(["rates-table", "--kappa-grid", "abc",
                     "--out", str(out)]) == EXIT_USAGE
    assert cli_main(["rates-table", "--kappa-grid", "0.5",
                     "--out", str(out)]) == EXIT_USAGE


def test_lasso_csv_deterministic(tmp_path):
    args = ["lasso", "--seed", "3", "--gamma-points", "3", "--tol", "1e-4",
            "--alpha", "1.0"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == EXIT_OK
    assert cli_main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == CSV_SCHEMA_TAG
    assert lines[2] == "gamma,iterations_actual,iterations_bound,converged"
    assert len(lines) == 3 + 3


def test_lasso_metric_flag(tmp_path):
    out = tmp_path / "m.csv"
    code = cli_main(["lasso", "--seed", "3", "--gamma-points", "1",
                     "--metric", "auto", "--tol", "1e-4",
                     "--out", str(out)])
    assert code == EXIT_OK
    assert "metric=diagonal[50]" in out.read_text()


def test_mpc_csv(tmp_path):
    out = tmp_path / "mpc.csv"
    code = cli_main(["mpc", "--metric", "auto", "--tol", "1e-4",
                     "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_SCHEMA_TAG
    assert len(lines) == 4
    fields = lines[3].split(",")
    assert fields[1] != ""  # iterations_actual populated
    assert fields[2] == ""  # no certificate for the soft-constrained QP
    assert fields[3] == "1"


def _iterations_column(path):
    lines = path.read_text().strip().splitlines()
    return [int(row.split(",")[1]) for row in lines[3:]]


@pytest.mark.parametrize("args, expect", [
    (["lasso"], [1819, 807, 304, 99, 30, 75, 241, 763, 2413]),
    (["lasso", "--metric", "auto"],
     [1638, 570, 215, 73, 24, 56, 179, 566, 1791]),
    (["mpc"], [862]),
])
def test_desk_iteration_counts_pinned(tmp_path, args, expect):
    out = tmp_path / "desk.csv"
    assert cli_main(args + ["--out", str(out)]) == EXIT_OK
    assert _iterations_column(out) == expect


def test_metric_report_json(tmp_path):
    out = tmp_path / "metric.json"
    code = cli_main(["metric-report", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"mode", "E", "lambda_max", "lambda_min",
                            "condition_number", "gamma"}
    assert payload["mode"] == "exact"
    assert len(payload["E"]) == 50
    assert payload["condition_number"] >= 1.0
    assert payload["gamma"] > 0


def test_metric_report_from_problem_file(tmp_path, capsys):
    # a zero and a singular quadratic smooth term get the same reason
    for f in (Zero(2), Quadratic(np.diag([1.0, 0.0]))):
        problem = EqConstrainedProblem(
            f=f, g=WeightedL1([1.0, 1.0]), A=np.eye(2), B=-np.eye(2),
            c=np.zeros(2))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem.to_json()))
        out = tmp_path / "metric.json"
        code = cli_main(["metric-report", "--problem", str(path),
                         "--out", str(out)])
        assert code == EXIT_CAPABILITY
        assert capsys.readouterr().err == (
            "capability error: no rate certificate: the smooth term is not "
            "a strongly convex quadratic\n")
        assert not out.exists()


def test_out_path_unwritable_is_usage_error(tmp_path):
    code = cli_main(["rates-table", "--kappa-grid", "1",
                     "--out", str(tmp_path / "nodir" / "x.json")])
    assert code == EXIT_USAGE


_EYE2 = {"rows": 2, "cols": 2, "triplets": [[0, 0, 1.0], [1, 1, 1.0]]}
# each is read as A of an otherwise valid problem file
_MALFORMED_A = {
    "triplets_not_list": {**_EYE2, "triplets": 5},
    "triplet_of_two": {**_EYE2, "triplets": [[0, 0], [1, 1, 1.0]]},
    "index_fraction": {**_EYE2, "triplets": [[0.5, 0, 1.0], [1, 1, 1.0]]},
    "rows_fraction": {**_EYE2, "rows": 2.7},
    "cols_negative": {**_EYE2, "cols": -1},
    "value_true": {**_EYE2, "triplets": [[0, 0, True], [1, 1, 1.0]]},
    # too big for numpy to even try: nothing is allocated
    "size_too_big": {"rows": 10 ** 11, "cols": 10 ** 11, "triplets": []},
    "matrix_not_object": 5,
}


#: the whole stderr line of the cases whose cause used to be misreported
_USAGE_MESSAGES = {
    "lasso --alpha inf": "alpha must be finite",
    "mpc --alpha inf": "alpha must be finite",
    "worstcase-verify --beta 1e-300 --sigma 1e-301":
        "beta*sigma = 1e-300*1e-301 is not a positive normal float",
    "worstcase-verify --beta 1e308":
        "symmetrized matrix 0.5*(S + S^T) overflows",
    "worstcase-verify --beta 1e300 --sigma 1e-300":
        "kappa = beta/sigma overflows",
    "mpc --gamma-min 1e-200 --gamma-max 1e-200 --gamma-points 1":
        "gamma_min*gamma_max = 1e-200*1e-200 is not a positive normal float",
    "lasso --gamma-min inf --gamma-max inf":
        "need 0 < gamma_min <= gamma_max < inf",
    "lasso --gamma-min 1e-320 --gamma-max 1e-310 --gamma-points 2":
        "gamma must be positive and normal, got 1e-320",
    "metric-report --problem {zero_by_zero}": "expected a nonempty matrix",
    "rates-table --kappa-grid abc": "invalid --kappa-grid",
    "rates-table --kappa-grid 0.5": "--kappa-grid needs finite values >= 1",
    "metric-report --problem {value_true}":
        "matrix entries must be numbers, not booleans",
    "metric-report --problem {w_true}":
        "w must be a list of finite numbers, not booleans",
    "metric-report --problem {dim_true}":
        "dim must be a non-negative integer, got True",
    "metric-report --problem {slope_true}":
        "slope must be a finite number or a list of them, not a boolean",
    "metric-report --problem {kind_list}": "unknown ProxFn kind ['x']",
    "metric-report --problem {size_too_big}": "a matrix of rows=100000000000, "
        "cols=100000000000 is too large to allocate",
    "metric-report --problem {kind_object}": "unknown ProxFn kind {'a': 1}",
}


@pytest.mark.parametrize("args", [
    ["rates-table", "--kappa-grid", "nan"],
    ["rates-table", "--kappa-grid", "inf"],
    ["rates-table", "--kappa-grid", "abc"],
    ["rates-table", "--kappa-grid", "0.5"],
    ["lasso", "--gamma-points", "0"],
    ["lasso", "--tol", "0"],
    ["lasso", "--tol", "2"],
    ["lasso", "--alpha", "-1"],
    ["lasso", "--gamma-min", "-1"],
    ["worstcase-verify", "--sigma", "-1"],
    ["worstcase-verify", "--sigma", "0"],
    ["worstcase-verify", "--beta", "4", "--sigma", "0"],
    ["worstcase-verify", "--beta", "1e-300", "--sigma", "1e-301"],
    ["worstcase-verify", "--beta", "1e308"],
    ["worstcase-verify", "--beta", "1e300", "--sigma", "1e-300"],
    ["mpc", "--gamma-min", "1e-200", "--gamma-max", "1e-200",
     "--gamma-points", "1"],
    ["lasso", "--gamma-min", "inf", "--gamma-max", "inf"],
    ["lasso", "--gamma-min", "1e-320", "--gamma-max", "1e-310",
     "--gamma-points", "2"],
    ["worstcase-verify", "--beta", "0.5"],
    ["metric-report", "--problem", "{empty}"],
    ["metric-report", "--problem", "{triplets_not_list}"],
    ["metric-report", "--problem", "{triplet_of_two}"],
    ["metric-report", "--problem", "{index_fraction}"],
    ["metric-report", "--problem", "{rows_fraction}"],
    ["metric-report", "--problem", "{cols_negative}"],
    ["metric-report", "--problem", "{matrix_not_object}"],
    ["metric-report", "--problem", "{problem_not_object}"],
    ["metric-report", "--problem", "{f_not_object}"],
    ["metric-report", "--problem", "{member_not_object}"],
    ["metric-report", "--problem", "{q_null}"],
    ["metric-report", "--problem", "{c_nan}"],
    ["metric-report", "--problem", "{box_lo_null}"],
    ["metric-report", "--problem", "{w_null}"],
    ["metric-report", "--problem", "{slope_null}"],
    ["metric-report", "--problem", "{stop_fraction}"],
    ["metric-report", "--problem", "{start_fraction}"],
    ["metric-report", "--problem", "{mpc_short_q}"],
    ["metric-report", "--problem", "{members_not_list}"],
    ["metric-report", "--problem", "{pwl_dim_list}"],
    ["metric-report", "--problem", "{zero_by_zero}"],
    ["metric-report", "--problem", "{value_true}"],
    ["metric-report", "--problem", "{w_true}"],
    ["metric-report", "--problem", "{dim_true}"],
    ["metric-report", "--problem", "{slope_true}"],
    ["metric-report", "--problem", "{kind_list}"],
    ["metric-report", "--problem", "{kind_object}"],
    ["metric-report", "--problem", "{size_too_big}"],
    ["mpc", "--tol", "-1"],
    ["lasso", "--alpha", "nan"],
    ["mpc", "--alpha", "nan"],
    ["lasso", "--alpha", "inf"],
    ["mpc", "--alpha", "inf"],
    ["mpc", "--full", "--gamma-min", "1e9"],
    ["mpc", "--full", "--gamma-max", "1e9"],
    ["mpc", "--full", "--gamma-points", "3"],
    ["mpc", "--full", "--gamma-points", "1"],
    ["mpc", "--full", "--tol", "2"],
    ["mpc", "--full", "--tol", "1"],
    ["metric-report", "--problem", "{valid}", "--full"],
    ["metric-report", "--problem", "{valid}", "--seed", "3"],
    ["lasso", "--seed", "-1"],
    ["metric-report", "--seed", "18446744073709551616"],
], ids=lambda args: "_".join(a.strip("-{}") for a in args))
def test_invalid_argument_values_are_usage_errors(tmp_path, capsys, args):
    message = _USAGE_MESSAGES.get(" ".join(args))
    paths = {"empty": tmp_path / "empty.json",
             "valid": tmp_path / "valid.json"}
    paths["empty"].write_text("{}")
    problem = EqConstrainedProblem(
        f=Quadratic(np.eye(2)), g=WeightedL1([1.0, 1.0]), A=np.eye(2),
        B=-np.eye(2), c=np.zeros(2)).to_json()
    paths["valid"].write_text(json.dumps(problem))
    bad = {name: {**problem, "A": bad_a}
           for name, bad_a in _MALFORMED_A.items()}
    l1 = {"kind": "weighted_l1", "w": [1.0]}
    empty = {"rows": 0, "cols": 0, "triplets": []}

    def halves(stop, start):
        return {**problem, "g": {"kind": "separable", "members": [
            {"start": 0, "stop": stop, "fn": l1},
            {"start": start, "stop": 2, "fn": l1}]}}

    mpc = bench.gen_mpc(bench.MpcSpec(horizon=2), np.zeros(4),
                        np.zeros(4)).to_json()
    bad.update(
        problem_not_object=[1],
        f_not_object={**problem, "f": 5},
        member_not_object={**problem, "g": {"kind": "separable",
                                            "members": [5]}},
        q_null={**problem, "f": {**problem["f"], "q": [None, 1.0]}},
        c_nan={**problem, "c": [float("nan"), 0.0]},
        box_lo_null={**problem, "g": {"kind": "box", "lo": [None, -1.0],
                                      "hi": [1.0, 1.0]}},
        w_null={**problem, "g": {"kind": "weighted_l1", "w": [1.0, None]}},
        slope_null={**problem, "g": {"kind": "pwl_penalty", "lo": -1.0,
                                     "hi": 1.0, "slope": None, "dim": 2}},
        stop_fraction=halves(1.7, 1),
        start_fraction=halves(1, 1.2),
        mpc_short_q={**mpc, "f": {**mpc["f"], "q": mpc["f"]["q"][:3]}},
        members_not_list={**problem, "g": {"kind": "separable",
                                           "members": 5}},
        pwl_dim_list={**problem, "g": {"kind": "pwl_penalty", "lo": -1.0,
                                       "hi": 1.0, "slope": 1.0,
                                       "dim": [3]}},
        zero_by_zero={"f": {"kind": "quadratic", "Q": empty, "q": []},
                      "g": {"kind": "weighted_l1", "w": []},
                      "A": empty, "B": empty, "c": []},
        w_true={**problem, "g": {"kind": "weighted_l1", "w": [True, 0.5]}},
        dim_true={**problem, "g": {"kind": "zero", "dim": True}},
        slope_true={**problem, "g": {"kind": "pwl_penalty", "lo": -1.0,
                                     "hi": 1.0, "slope": True, "dim": 2}},
        kind_list={**problem, "g": {"kind": ["x"]}},
        kind_object={**problem, "g": {"kind": {"a": 1}}},
    )
    for name, payload in bad.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    out = tmp_path / "out.txt"
    args = [a.format(**paths) for a in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refusal emits no warning
        assert cli_main(args + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()
    if message is not None:
        assert err == f"error: {message}\n"


def _json_paths(node, path=()):
    """The path of every member and element of a JSON tree, root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


#: small valid problem files: a lasso, a desk MPC problem of horizon 1, the
#: dual extremal instance and a quadratic with every other kind in its g
_SMALL_PROBLEMS = [
    bench.gen_lasso(bench.LassoSpec(n=4, m=6, nnz_per_row=2)).to_json(),
    bench.gen_mpc(bench.MpcSpec(horizon=1), np.zeros(4),
                  np.zeros(4)).to_json(),
    worstcase.build(Regularity(1.0, 4.0), "g1", "dual", theta=0.5,
                    zeta=3.0).problem.to_json(),
    EqConstrainedProblem(
        f=Quadratic(np.eye(6)), g=Separable([
            (0, 1, Zero(1)), (1, 2, IndicatorZero(1)),
            (2, 4, IndicatorAffine(np.array([[1.0, -2.0]]), [0.5])),
            (4, 6, PwlPenalty([-1.0, 0.0], [1.0, 2.0], [1.0, 0.5]))]),
        A=np.eye(6), B=-np.eye(6), c=np.zeros(6)).to_json(),
]
_MISSING = object()
#: a nested list stands for a matrix where a vector belongs, and a list
#: in a matrix's size; no replacement is a size above 8
_BAD_VALUES = st.sampled_from([
    None, True, False, "x", [[1.0]], [1.0, [2.0]], {"a": 1},
    float("nan"), -1, -8, 0.5, 2.5, 7.5, _MISSING])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_problem_file_with_one_bad_field_is_refused_in_one_line(data):
    problem = data.draw(st.sampled_from(_SMALL_PROBLEMS))
    problem = json.loads(json.dumps(problem))
    *parents, key = data.draw(st.sampled_from(list(_json_paths(problem))))
    node = problem
    for k in parents:
        node = node[k]
    value = data.draw(_BAD_VALUES)
    if value is _MISSING:
        del node[key]
    else:
        node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "problem.json"), Path(tmp, "out.json")
        path.write_text(json.dumps(problem))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(["metric-report", "--problem", str(path),
                             "--out", str(out)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAPABILITY)
        assert len(err.getvalue().splitlines()) <= 1
        assert "Traceback" not in err.getvalue()
        assert out.exists() == (code == EXIT_OK)
