import csv
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracvar import _csvtext, cli, expansions, indirect
from fracvar._functions import CATALOG, caputo_exact
from fracvar.cli import main
from fracvar.direct import example3_minimizer
from fracvar.operators import Mesh, SampledCurve
from fracvar.specfun import GammaPoleError, SeriesConvergenceError


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_table_b_default_grid(tmp_path):
    out = tmp_path / "tb.csv"
    assert run(["table-b", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "N", "B"]
    assert len(rows) == 42
    table = {(float(a), int(n)): float(b) for a, n, b in rows}
    assert round(table[(0.5, 4)], 4) == 0.3085
    assert round(table[(0.99, 170)], 4) == 0.9498


def test_table_b_small_alpha_matches_mpmath(tmp_path):
    # B(1e-8, 4) used to print -2.52e-9 (exit 0): Gamma(alpha - 1) at the
    # rounded alpha - 1, and 1 + sum cancelling
    out = tmp_path / "tb.csv"
    assert run(["table-b", "--alpha", "1e-8", "--N", "4", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    with mpmath.workdps(50):
        a = mpmath.mpf(1e-8)
        terms = sum(mpmath.gamma(p - 1 + a) / mpmath.factorial(p) for p in range(1, 5))
        exact = float((1 + terms / mpmath.gamma(a - 1)) / mpmath.gamma(2 - a))
    B = float(rows[0][2])
    assert B > 0.0
    assert abs(B - exact) <= 1e-13 * exact


def test_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["derivative", "--function", "t4", "--method", "moment", "--N", "2", "3",
            "--points", "20", "--quad-n", "500"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()  # LF line endings


def test_derivative_integer_t4_exact(tmp_path):
    out = tmp_path / "d.csv"
    assert run([
        "derivative", "--function", "t4", "--method", "integer",
        "--N", "4", "--points", "50", "--out", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["N", "t", "exact", "approx", "abs_error"]
    assert all(float(r[4]) <= 1e-9 for r in rows)


def test_derivative_moment_error_decreases_in_n(tmp_path):
    out = tmp_path / "d.csv"
    assert run([
        "derivative", "--function", "t4", "--method", "moment",
        "--N", "1", "2", "3", "--points", "10", "--quad-n", "2000",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    at_t1 = {int(r[0]): float(r[4]) for r in rows if float(r[1]) == 1.0}
    assert at_t1[1] > at_t1[2] > at_t1[3]


def test_derivative_atanackovic_worse_than_moment(tmp_path):
    errs = {}
    for method in ("moment", "atanackovic"):
        out = tmp_path / f"{method}.csv"
        assert run([
            "derivative", "--function", "exp2t", "--method", method,
            "--N", "3", "--points", "20", "--quad-n", "2000", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        errs[method] = max(float(r[4]) for r in rows)
    assert errs["moment"] < errs["atanackovic"]


def test_derivative_mesh_method(tmp_path):
    out = tmp_path / "gl.csv"
    assert run([
        "derivative", "--function", "t2", "--method", "gl", "--n", "50", "100",
        "--out", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["n", "t", "exact", "approx", "abs_error"]
    worst = {}
    for r in rows:
        n = int(r[0])
        worst[n] = max(worst.get(n, 0.0), float(r[4]))
    assert worst[100] < worst[50]


def test_derivative_diethelm_exact_column_is_array_formula(tmp_path):
    # the power-law exact column is one array evaluation on the nodes, so it
    # carries the bits of Gamma(3)/Gamma(3-alpha) * t^(2-alpha) on an array
    out = tmp_path / "dt.csv"
    assert run([
        "derivative", "--function", "t2", "--method", "diethelm", "--alpha", "0.3",
        "--n", "2000", "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    t = np.array([float(r[1]) for r in rows])
    exact = np.array([float(r[2]) for r in rows])
    approx = np.array([float(r[3]) for r in rows])
    assert np.array_equal(exact, math.gamma(3.0) / math.gamma(2.7) * t**1.7)
    assert np.array_equal(np.array([float(r[4]) for r in rows]), np.abs(approx - exact))


def test_direct_ex1_error_decreases(tmp_path):
    out = tmp_path / "ex1.csv"
    assert run(["direct", "--example", "ex1", "--n", "5", "10", "20", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n", "t", "approx", "exact", "abs_error", "max_error", "converged"]
    errs = {int(r[0]): float(r[5]) for r in rows}
    assert errs[5] > errs[10] > errs[20]
    assert all(r[6] == "1" for r in rows)


def test_direct_ex3_converges(tmp_path):
    out = tmp_path / "ex3.csv"
    assert run(["direct", "--example", "ex3", "--n", "30", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows and all(r[6] == "1" for r in rows)


def test_direct_exact_column_is_per_node_scalar(tmp_path):
    # numpy's array pow rounds 25 of these 414 values 1 ulp differently
    out = tmp_path / "ex3.csv"
    assert run(["direct", "--example", "ex3", "--n", "413", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    nodes = Mesh(0.0, 1.0, 413).nodes()
    assert [r[1] for r in rows] == ["%.17g" % t for t in nodes]
    assert [r[3] for r in rows] == ["%.17g" % example3_minimizer(t) for t in nodes]


def test_direct_debug_log_leaves_output_unchanged(tmp_path, capsys, caplog):
    quiet, logged = tmp_path / "quiet.csv", tmp_path / "logged.csv"
    argv = ["direct", "--example", "ex3", "--n", "10", "20"]
    assert run(argv + ["--out", str(quiet)]) == 0
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        assert run(argv + ["--out", str(logged)]) == 0
    assert any(r.name == "fracvar.direct" for r in caplog.records)
    assert logged.read_bytes() == quiet.read_bytes()
    assert capsys.readouterr().out == ""


def test_indirect_ex2_integer_stays_off(tmp_path):
    out = tmp_path / "ind.csv"
    assert run([
        "indirect", "--example", "ex2-integer", "--N", "1", "2", "3", "4",
        "--n", "200", "--out", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["N", "t", "approx", "exact", "l2_error"]
    l2 = {int(r[0]): float(r[4]) for r in rows}
    assert all(v > 0.01 for v in l2.values())


def test_indirect_ex2_moment_improves(tmp_path):
    out = tmp_path / "ind.csv"
    assert run([
        "indirect", "--example", "ex2-moment", "--N", "2", "4", "8",
        "--n", "200", "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    l2 = {int(r[0]): float(r[4]) for r in rows}
    assert l2[2] > l2[4] > l2[8]


def test_indirect_ex4_moment_improves(tmp_path):
    out = tmp_path / "ind4.csv"
    assert run([
        "indirect", "--example", "ex4-moment", "--N", "2", "4",
        "--n", "200", "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    l2 = {int(r[0]): float(r[4]) for r in rows}
    assert l2[4] < l2[2] < 1.0


def test_bounds_dominated_flags(tmp_path):
    out = tmp_path / "b.csv"
    assert run([
        "bounds", "--function", "exp2t", "--method", "moment", "--N", "10",
        "--points", "10", "--quad-n", "4000", "--out", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["N", "t", "abs_error", "bound", "dominated"]
    assert all(r[4] == "1" for r in rows)


def test_bounds_hadamard_lnt_dominated(tmp_path):
    out = tmp_path / "b.csv"
    assert run([
        "bounds", "--function", "lnt", "--method", "hadamard", "--N", "8",
        "--points", "10", "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert rows and all(r[4] == "1" for r in rows)


def test_table_b_default_run_under_one_second(tmp_path):
    import time

    t0 = time.perf_counter()
    assert run(["table-b", "--out", str(tmp_path / "tb.csv")]) == 0
    assert time.perf_counter() - t0 < 1.0


def test_bounds_integer_zero_bound(tmp_path):
    out = tmp_path / "b.csv"
    assert run([
        "bounds", "--function", "t4", "--method", "integer", "--N", "4",
        "--points", "10", "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert all(float(r[3]) == 0.0 for r in rows)
    assert all(float(r[2]) <= 1e-9 for r in rows)
    assert all(r[4] == "1" for r in rows)


# ---------------------------------------------------------------------------
# configs, overrides, exit codes
# ---------------------------------------------------------------------------


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[table-b]\nalpha = 0.5\nN = 4\nout = %s\n" % (tmp_path / "from_cfg.csv")
    )
    assert run(["table-b", "--config", str(cfg)]) == 0
    _, rows = read_csv(tmp_path / "from_cfg.csv")
    assert len(rows) == 1 and int(rows[0][1]) == 4
    # flags win over config values
    assert run(["table-b", "--config", str(cfg), "--N", "7"]) == 0
    _, rows = read_csv(tmp_path / "from_cfg.csv")
    assert len(rows) == 1 and int(rows[0][1]) == 7


def test_usage_errors_exit_1(tmp_path):
    assert run(["derivative", "--function", "nope", "--out", str(tmp_path / "x.csv")]) == 1
    assert run(["derivative", "--function", "t4", "--method", "nope"]) == 1
    assert run(["derivative", "--function", "lnt", "--method", "gl"]) == 1
    assert run(["derivative", "--function", "t4", "--method", "moment", "--alpha", "1.5"]) == 1
    assert run(["derivative", "--function", "t4", "--method", "moment", "--N", "0"]) == 1
    assert run(["direct", "--example", "ex9"]) == 1
    assert run(["bounds", "--function", "t2", "--method", "hadamard"]) == 1
    assert run(["table-b", "--config", str(tmp_path / "missing.ini")]) == 1
    assert run(["not-a-command"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["derivative", "--method", "moment", "--function", "t4", "--N", "2", "--quad-n", "0"],
        ["bounds", "--method", "moment", "--function", "t4", "--N", "2", "--quad-n", "-3"],
    ],
)
def test_quad_n_below_one_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert "--quad-n must be >= 1" in capsys.readouterr().err
    assert not out.exists()


#: Sizes out of range and inputs an example ignores, with the usage message each gets.
OUT_OF_RANGE = [
    *((["derivative", "--method", method, "--function", "t4", "--points", points],
       f"--points must be >= 1, got {points}")
      for method in ("moment", "integer", "atanackovic", "hadamard-moment")
      for points in ("0", "-2")),
    *((["bounds", "--method", method, "--function", "t4", "--points", points],
       f"--points must be >= 1, got {points}")
      for method in ("integer", "moment")
      for points in ("0", "-2")),
    *((["derivative", "--method", method, "--function", "t2", "--n", n],
       f"--n must be >= 1, got {n}")
      for method in ("gl", "diethelm")
      for n in ("0", "-4")),
    (["derivative", "--method", "gl", "--function", "t2", "--n", "10", "0"],
     "--n must be >= 1, got 0"),
    (["indirect", "--n", "0"], "--n must be >= 1, got 0"),
    (["indirect", "--example", "ex4-moment", "--n", "-1"], "--n must be >= 1, got -1"),
    (["indirect", "--eps", "-1"], "--eps must lie in [0, 1), got -1.0"),
    (["indirect", "--eps", "2"], "--eps must lie in [0, 1), got 2.0"),
    (["indirect", "--example", "ex4-moment", "--eps", "1"], "--eps must lie in [0, 1), got 1.0"),
    (["indirect", "--example", "ex4-moment", "--eps", "0"],
     "ex4-moment needs --eps > 0: its scaled state is singular at t = 0"),
    # orders the derivative bundle or the indirect examples do not have
    *(([command, "--method", "integer", "--function", function, "--N", *Ns],
       f"integer method on {function!r} needs N <= 12, got 13")
      for command in ("derivative", "bounds")
      for function, Ns in (("t4", ["13"]), ("exp2t", ["2", "13", "5"]))),
    (["indirect", "--example", "ex2-moment", "--N", "1"],
     "example 'ex2-moment' needs N >= 2, got 1"),
    (["indirect", "--example", "ex4-moment", "--N", "4", "1"],
     "example 'ex4-moment' needs N >= 2, got 1"),
    (["indirect", "--example", "ex2-integer", "--N", "-1"],
     "example 'ex2-integer' needs N >= 0, got -1"),
    # only the ex4 TPBVP reads eps
    (["indirect", "--example", "ex2-integer", "--eps", "0"],
     "example 'ex2-integer' does not use --eps"),
    (["indirect", "--example", "ex2-moment", "--eps", "0.5"],
     "example 'ex2-moment' does not use --eps"),
    # Newton's tolerance: only ex3 reads it, and it must be finite and positive
    *((["direct", "--example", "ex3", "--n", "10", "--tol", tol],
       f"--tol must lie in (0, inf), got {float(tol)}")
      for tol in ("inf", "-1", "nan", "0")),
    *((["direct", "--example", example, "--tol", tol], f"example {example!r} does not use --tol")
      for example in ("ex1", "ex2")
      for tol in ("5", "inf")),
    (["direct", "--example", "ex3", "--n", "1", "--tol", "nan"],
     "direct needs a list of n values >= 2"),
]


@pytest.mark.parametrize("argv,message", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_size_exits_1(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"fracvar: {message}\n"
    assert not out.exists()


def test_empty_alpha_list_from_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[table-b]\nalpha =\n")
    assert run(["table-b", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("key,value", [("points", "3.5"), ("n", "1e3"), ("alpha", "x")])
def test_malformed_config_value_is_a_usage_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[derivative]\n{key} = {value}\n")
    out = tmp_path / "x.csv"
    method = "gl" if key == "n" else "moment"
    assert run(["derivative", "--method", method, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"fracvar: bad value for {key}: {value!r}\n"
    assert not out.exists()


#: Flags a subcommand never reads, with a value of the flag's type.
IGNORED_FLAGS = [
    *((command, "--eps", "7") for command in ("table-b", "derivative", "direct", "bounds")),
    *((command, "--tol", "3") for command in ("table-b", "derivative", "indirect", "bounds")),
    ("direct", "--alpha", "0.3"),
    ("direct", "--N", "3"),
]


@pytest.mark.parametrize("command,flag,value", IGNORED_FLAGS)
def test_flag_the_subcommand_ignores_exits_1(tmp_path, capsys, command, flag, value):
    out = tmp_path / "x.csv"
    assert run([command, flag, value, "--out", str(out)]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


#: Flags of a subcommand that the chosen method never reads.
UNUSED_METHOD_FLAGS = [
    *(("derivative", method, flag, value)
      for method in ("gl", "diethelm")
      for flag, value in (("--N", "7"), ("--points", "3"), ("--quad-n", "0"))),
    *(("derivative", method, "--n", "10") for method in ("integer", "moment")),
    ("derivative", "integer", "--quad-n", "0"),
    ("bounds", "integer", "--quad-n", "0"),
]


@pytest.mark.parametrize("command,method,flag,value", UNUSED_METHOD_FLAGS)
def test_flag_the_method_ignores_exits_1(tmp_path, capsys, command, method, flag, value):
    out = tmp_path / "x.csv"
    argv = [command, "--function", "t4", "--method", method, flag, value, "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"fracvar: method {method!r} does not use {flag}\n"
    assert not out.exists()


def test_config_value_the_method_ignores_is_not_read(tmp_path):
    # one config section serves every method, so values another method
    # reads are skipped, not validated
    cfg = tmp_path / "shared.ini"
    cfg.write_text("[derivative]\nfunction = t2\nquad-n = 0\nN = 0\npoints = 3\nn = 10\n")
    out = tmp_path / "x.csv"
    assert run(["derivative", "--config", str(cfg), "--method", "gl", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 10


def test_config_tol_is_range_checked_but_not_rejected_as_unused(tmp_path, capsys):
    cfg = tmp_path / "direct.ini"
    cfg.write_text("[direct]\ntol = inf\nn = 10\n")
    out = tmp_path / "x.csv"
    assert run(["direct", "--config", str(cfg), "--example", "ex3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "fracvar: --tol must lie in (0, inf), got inf\n"
    assert not out.exists()
    cfg.write_text("[direct]\ntol = 5\nn = 10\n")
    assert run(["direct", "--config", str(cfg), "--example", "ex1", "--out", str(out)]) == 0


def test_numerical_failure_exits_2(tmp_path, capsys):
    out = tmp_path / "ex3.csv"
    code = run(["direct", "--example", "ex3", "--n", "10", "--tol", "1e-30",
                "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    failures = json.loads(err.strip().splitlines()[-1])
    assert failures and "error" in failures[0] and "run" in failures[0]


@pytest.mark.parametrize(
    "method, function, N",
    [("moment", "t2", "200"), ("atanackovic", "t4", "180"), ("hadamard-moment", "lnt", "300")],
)
def test_moment_expansion_overflow_is_a_failure_record(tmp_path, capsys, method, function, N):
    # at the first points s^(1-p-alpha) overflows a float while V_p underflows
    out = tmp_path / "d.csv"
    code = run(["derivative", "--method", method, "--function", function, "--N", N,
                "--out", str(out)])
    assert code == 2
    failures = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert [f["run"] for f in failures] == [f"{method}:{function}:N={N}"]
    assert "not finite" in failures[0]["error"]
    _, rows = read_csv(out)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_indirect_ill_conditioned_is_a_failure_record(tmp_path, capsys, monkeypatch):
    assemble = indirect.assemble_tpbvp_example4
    monkeypatch.setattr(
        indirect,
        "assemble_tpbvp_example4",
        lambda alpha, N: dataclasses.replace(assemble(alpha, N), scale_powers=()),
    )
    out = tmp_path / "ind4.csv"
    code = run(["indirect", "--example", "ex4-moment", "--N", "2", "12",
                "--n", "200", "--out", str(out)])
    assert code == 2
    failures = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert [f["run"] for f in failures] == ["ex4-moment:N=12"]
    _, rows = read_csv(out)
    assert {int(r[0]) for r in rows} == {2}


def test_indirect_integer_order_past_float_range_is_a_failure_record(tmp_path, capsys):
    # from N = 170 on, k! (k - alpha) Gamma(1 - alpha) overflows a float
    out = tmp_path / "ind.csv"
    code = run(["indirect", "--example", "ex2-integer", "--N", "169", "170",
                "--n", "20", "--out", str(out)])
    assert code == 2
    failures = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert [f["run"] for f in failures] == ["ex2-integer:N=170"]
    _, rows = read_csv(out)
    assert {int(r[0]) for r in rows} == {169}


def test_indirect_ex2_moment_runs_past_integer_orders(tmp_path):
    # the moment route needs no integer-expansion coefficient
    out = tmp_path / "ind.csv"
    assert run(["indirect", "--example", "ex2-moment", "--N", "171",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 401
    exact = [indirect.analytic_solution_example2(0.5, float(r[1])) for r in rows]
    assert max(abs(float(r[2]) - e) for r, e in zip(rows, exact)) <= 1e-4


# ---------------------------------------------------------------------------
# CSV writer: column-wise formatting against the per-cell reference
# ---------------------------------------------------------------------------


def fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv_rowwise(path, header, rows):
    """Reference writer: every cell through its own isinstance chain."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])


def command_output(argv):
    args = cli._build_parser().parse_args(argv)
    return cli.COMMANDS[args.command](cli._Options(args, args.command))


WRITER_CASES = {
    "table-b": ["table-b"],
    "derivative-integer": ["derivative", "--function", "exp2t", "--method", "integer",
                           "--N", "0", "3", "--points", "15"],
    "derivative-moment": ["derivative", "--function", "t4", "--method", "moment",
                          "--N", "1", "4", "--points", "15", "--quad-n", "200"],
    "derivative-atanackovic": ["derivative", "--function", "exp2t", "--method", "atanackovic",
                               "--N", "2", "5", "--points", "15", "--quad-n", "200"],
    "derivative-hadamard-moment": ["derivative", "--function", "exp2t", "--method",
                                   "hadamard-moment", "--N", "2", "5", "--points", "15",
                                   "--quad-n", "200"],
    "derivative-gl": ["derivative", "--function", "t2", "--method", "gl", "--n", "50", "100"],
    "derivative-diethelm": ["derivative", "--function", "exp2t", "--method", "diethelm",
                            "--n", "50", "100"],
    "direct-ex1": ["direct", "--example", "ex1", "--n", "5", "10"],
    "direct-ex2": ["direct", "--example", "ex2", "--n", "5", "10"],
    "direct-ex3": ["direct", "--example", "ex3", "--n", "10"],
    "indirect-ex2-integer": ["indirect", "--example", "ex2-integer", "--N", "1", "2", "--n", "40"],
    "indirect-ex2-moment": ["indirect", "--example", "ex2-moment", "--N", "2", "4", "--n", "40"],
    "indirect-ex4-moment": ["indirect", "--example", "ex4-moment", "--N", "2", "4", "--n", "40"],
    "bounds-integer": ["bounds", "--function", "t4", "--method", "integer", "--N", "2", "5",
                       "--points", "10"],
    "bounds-moment": ["bounds", "--function", "t4", "--method", "moment", "--N", "2", "5",
                      "--points", "10", "--quad-n", "500"],
    "bounds-hadamard": ["bounds", "--function", "exp2t", "--method", "hadamard", "--N", "2", "5",
                        "--points", "10", "--quad-n", "500"],
    "failing-run": ["direct", "--example", "ex3", "--n", "10", "--tol", "1e-30"],
    "derivative-diethelm-large": ["derivative", "--function", "t4", "--method", "diethelm",
                                  "--n", "20000"],
    "indirect-ex4-moment-large": ["indirect", "--example", "ex4-moment", "--n", "1200"],
    "direct-ex3-large": ["direct", "--example", "ex3", "--n", "4160"],
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_csv_writer_matches_rowwise_reference(tmp_path, case):
    header, columns, failures = command_output(WRITER_CASES[case])
    assert bool(failures) == (case == "failing-run")
    if case != "failing-run":
        assert len(columns) == len(header)
    assert all(isinstance(c, np.ndarray) and c.shape == columns[0].shape == (c.size,)
               for c in columns)
    cli._write_csv(tmp_path / "columns.csv", header, columns)
    write_csv_rowwise(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_csv_writer_cell_kinds(tmp_path):
    rows = [
        (np.int64(3), 2, np.True_, True, np.float64(0.1), 1.0 / 3.0, float("nan"), 0.0, 7),
        (np.int64(-1), 0, np.False_, False, np.float64(-1e-300), float("inf"), -0.0, 2.5, np.True_),
        (np.int64(12), 10**17, np.True_, True, np.float64(5e-324), -float("inf"), 1e17, 3, 1.5),
    ]
    header = ("a", "b", "c", "d", "e", "f", "g", "h", "i")
    columns = [np.asarray(column) for column in zip(*rows)]  # numpy picks each dtype
    cli._write_csv(tmp_path / "columns.csv", header, columns)
    write_csv_rowwise(tmp_path / "rows.csv", header, rows)
    text = (tmp_path / "columns.csv").read_text()
    assert text == (tmp_path / "rows.csv").read_text()
    assert text.splitlines()[2] == "-1,0,0,0,-1e-300,inf,-0,2.5,1"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
_COLUMN_KINDS = {
    "float": lambda n: hnp.arrays(np.float64, n, elements=_FLOATS),
    "int": lambda n: hnp.arrays(np.int64, n),
    "bool": lambda n: hnp.arrays(np.bool_, n),
}


@st.composite
def _column_sets(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=6))
    return [draw(_COLUMN_KINDS[kind](n)) for kind in kinds]


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=_column_sets())
def test_csv_writer_property_matches_per_cell_reference(tmp_path, columns):
    # float64 columns cover subnormals, signed zeros, infinities and nans
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(tmp_path / "columns.csv", header, columns)
    write_csv_rowwise(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _rowwise_text(columns):
    return "".join(",".join(fmt_cell(v) for v in row) + "\n" for row in zip(*columns))


#: Tables drawn here have at least this many rows, so that even one column
#: reaches the column kernel.
_KERNEL_ROWS = cli._COLUMN_MIN_CELLS


@st.composite
def _kernel_column_sets(draw):
    n = draw(st.integers(_KERNEL_ROWS, _KERNEL_ROWS + 40))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4))
    return [draw(_COLUMN_KINDS[kind](n)) for kind in kinds]


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(columns=_kernel_column_sets())
def test_csv_kernel_property_matches_per_cell_reference(tmp_path, columns):
    # above the crossover: _write_csv formats through the column kernel
    assert len(columns) * len(columns[0]) >= cli._COLUMN_MIN_CELLS
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(tmp_path / "columns.csv", header, columns)
    write_csv_rowwise(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_csv_kernel_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=1_000_000, dtype=np.int64,
        endpoint=True)
    x = bits.view(np.float64)
    # most of them are proven by the kernel, not sent back to %
    assert np.mean(_csvtext._digits17(x, _csvtext._tables())[2]) > 0.85
    assert _csvtext.csv_body([x]).decode() == "".join(["%.17g\n" % v for v in x.tolist()])


def _powers_of_ten_and_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-250, 251)])
    return np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)])


#: Values at each trap of the column kernel, each with its sign flipped too.
KERNEL_EDGES = np.concatenate([
    _powers_of_ten_and_neighbours(),  # log10 misjudges E next to 10^k (1e-248)
    [1e-248, 1e16, 1e17, 99999999999999999.0, 9999999999999998.0, 1e-4, 1e-5, 1e15, 1e16 - 2],
    # scaled products with a fraction above 1/2 at 5e16, where a - 1.0 == a in float
    [5.0000000000000005e16, 0.50000000000000011, 5.0000000000000011e-5, 5.0000000000000008e-300],
    [74043568487764.5625, 0.5, 1.5, 2.5],  # 17-digit ties, and short exact values
    [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308],  # subnormals
    [1e-280, 1.0000000000000001e-280, 9.9999999999999997e279, 1e280],  # the fast range's ends
    [1.7976931348623157e308, 0.0, np.nan, np.inf],
    [0.1, 0.2, 1.0 / 3.0, 2.0 / 3.0, 123456789.0, 1234567890123456.7, 12345678901234567.0],
    [0.00012345678901234567, 0.0012345678901234567, 0.012345678901234567, 0.99999999999999989],
])


def test_csv_kernel_edge_values():
    x = np.concatenate([KERNEL_EDGES, -KERNEL_EDGES])
    assert _csvtext.csv_body([x]).decode() == "".join(["%.17g\n" % v for v in x.tolist()])
    # the exact tie and the values next to powers of ten are sent back to %
    proven = _csvtext._digits17(np.array([74043568487764.5625, 1e-248]), _csvtext._tables())[2]
    assert not proven.any()


def test_csv_kernel_integer_and_bool_columns():
    n = cli._COLUMN_MIN_CELLS
    big = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10**17, 0, -1, 7])
    columns = [
        np.resize(big, n),
        np.resize(np.array([10**17, 2**63 + 5, 0], dtype=np.uint64), n),
        np.arange(n) % 3 == 0,
        np.resize(np.array([np.True_]), n),
        np.resize(KERNEL_EDGES, n),
    ]
    assert _csvtext.csv_body(columns).decode() == _rowwise_text(columns)


def test_csv_kernel_is_loaded_on_first_use():
    code = ("import sys, fracvar.cli; assert 'fracvar._csvtext' not in sys.modules; "
            "import fracvar._csvtext as t; assert t._tables.cache_info().currsize == 0")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_csv_writer_rejects_ragged_tables(tmp_path):
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="differ in length"):
        cli._write_csv(out, ("a", "b"), [np.arange(3), np.arange(2.0)])
    with pytest.raises(ValueError, match="header names 3 columns, got 2"):
        cli._write_csv(out, ("a", "b", "c"), [np.arange(3), np.arange(3.0)])
    with pytest.raises(ValueError, match="header names 1 columns, got 2"):
        cli._write_csv(out, ("a",), [np.arange(3), np.arange(3.0)])
    cli._write_csv(out, ("a", "b", "c"), [])  # every run failed: header alone
    assert out.read_text() == "a,b,c\n"


@pytest.mark.parametrize(
    "f",
    [
        CATALOG["t2"].x,
        CATALOG["t4"].x,
        CATALOG["exp2t"].x,
        example3_minimizer,
        lambda t: indirect.analytic_solution_example2(0.5, t),
        lambda t: indirect.exact_solution_example4(0.5, t),
    ],
    ids=["t2", "t4", "exp2t", "ex3", "ex2", "ex4"],
)
def test_from_function_matches_per_node_float64_evaluation(f):
    # the sampled curves and the exact columns evaluate per node on Python
    # floats; numpy's array pow would differ in the last bit at some nodes
    mesh = Mesh(0.0, 1.0, 20000)
    per_node = np.array([f(t) for t in mesh.nodes()], dtype=float)
    assert SampledCurve.from_function(mesh, f).values.tobytes() == per_node.tobytes()


# ---------------------------------------------------------------------------
# moment route: moments shared across the N sweep
# ---------------------------------------------------------------------------


def _per_n_approx(method, func, alpha, N, t, quad_n):
    if method in ("hadamard-moment", "hadamard"):
        coeffs = expansions.moment_coeffs(alpha, N)
        return expansions.expand_moment(func.x, func.xdot, coeffs, t, 1.0, quad_n, hadamard=True)
    coeffs = expansions.moment_coeffs(alpha, N)
    if method == "atanackovic":
        return expansions.expand_moment(func.x, None, coeffs, t, 0.0, quad_n)
    return expansions.expand_moment(func.x, func.xdot, coeffs, t, 0.0, quad_n)


@pytest.mark.parametrize("method", ["moment", "atanackovic", "hadamard-moment"])
def test_derivative_shared_moments_match_per_n_expansions(tmp_path, method):
    out = tmp_path / "d.csv"
    assert run(["derivative", "--function", "exp2t", "--method", method, "--alpha", "0.3",
                "--N", "5", "1", "3", "8", "--points", "12", "--quad-n", "300",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [int(r[0]) for r in rows[::12]] == [5, 1, 3, 8]
    func = CATALOG["exp2t"]
    for r in rows:
        N, t, approx = int(r[0]), float(r[1]), float(r[3])
        ref = _per_n_approx(method, func, 0.3, N, t, 300)
        assert abs(approx - ref) <= 1e-13 * abs(ref), (N, t)


@pytest.mark.parametrize("method,function", [("moment", "t4"), ("hadamard", "exp2t")])
def test_bounds_shared_moments_match_per_n_expansions(tmp_path, method, function):
    out = tmp_path / "b.csv"
    assert run(["bounds", "--function", function, "--method", method, "--alpha", "0.7",
                "--N", "2", "6", "4", "--points", "8", "--quad-n", "400",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    func = CATALOG[function]
    for r in rows:
        N, t, err = int(r[0]), float(r[1]), float(r[2])
        exact = func.hadamard_exact(0.7, t) if method == "hadamard" else func.rl_exact(0.7, t)
        ref = _per_n_approx(method, func, 0.7, N, t, 400)
        assert abs(err - abs(ref - exact)) <= 1e-13 * abs(ref), (N, t)


@pytest.mark.parametrize("command,method", [
    ("derivative", "integer"), ("derivative", "moment"), ("bounds", "integer"), ("bounds", "moment"),
])
def test_moment_route_failure_is_one_record_per_n(tmp_path, capsys, monkeypatch, command, method):
    # on the integer and the moment route alike, an exact value that raises
    # at the fourth point stops every N there: three rows per N, then one
    # failure record per N
    func = CATALOG["exp2t"]

    def rl_exact(alpha, t):
        if t == 0.4:
            raise SeriesConvergenceError("no series value")
        return func.rl_exact(alpha, t)

    monkeypatch.setitem(CATALOG, "exp2t", dataclasses.replace(func, rl_exact=rl_exact))
    out = tmp_path / "d.csv"
    quad_n = [] if method == "integer" else ["--quad-n", "100"]
    code = run([command, "--function", "exp2t", "--method", method, "--N", "2", "4",
                "--points", "10", *quad_n, "--out", str(out)])
    assert code == 2
    failures = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    prefix = "bounds:" if command == "bounds" else ""
    assert [f["run"] for f in failures] == [f"{prefix}{method}:exp2t:N={N}" for N in (2, 4)]
    assert all(f["error"] == "no series value" for f in failures)
    _, rows = read_csv(out)
    assert [(int(r[0]), float(r[1])) for r in rows] == [
        (N, t) for N in (2, 4) for t in (0.1, 0.2, 0.30000000000000004)
    ]


def test_moment_overflow_drops_only_its_points(tmp_path, capsys):
    # at N = 200, s^(1-p-alpha) overflows at t = 0.01 and 0.02 only: the
    # other 98 points keep their rows, and the record names the two dropped
    out = tmp_path / "d.csv"
    code = run(["derivative", "--method", "moment", "--function", "t2", "--N", "200",
                "--out", str(out)])
    assert code == 2
    failures = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert failures == [{"run": "moment:t2:N=200",
                         "error": "moment expansion of order 200 is not finite at t = 0.01, 0.02"}]
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == cli._eval_grid(0.0, 1.0, 100)[2:].tolist()
    func = CATALOG["t2"]
    for r in rows:
        t, approx = float(r[1]), float(r[3])
        ref = _per_n_approx("moment", func, 0.5, 200, t, 2000)
        assert abs(approx - ref) <= 1e-13 * abs(ref), t


def _ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.abs(b))


@pytest.mark.parametrize("argv, calls", [
    (["derivative", "--method", "diethelm", "--function", "exp2t", "--n", "200", "400"], 2),
    (["derivative", "--method", "moment", "--function", "exp2t", "--quad-n", "200"], 1),
    (["bounds", "--method", "moment", "--function", "exp2t", "--quad-n", "200"], 1),
])
def test_one_mittag_leffler_call_per_column(tmp_path, monkeypatch, argv, calls):
    from fracvar import operators

    ml, seen = operators.mittag_leffler, []

    def counting(alpha, beta, z):
        seen.append(z)
        return ml(alpha, beta, z)

    monkeypatch.setattr(operators, "mittag_leffler", counting)
    assert run([*argv, "--out", str(tmp_path / "d.csv")]) == 0
    assert len(seen) == calls


@pytest.mark.parametrize("method, function", [
    ("integer", "exp2t"), ("moment", "exp2t"), ("moment", "t4"), ("hadamard", "exp2t"),
    ("hadamard", "t4"),
])
def test_bound_column_matches_per_point_calls(tmp_path, method, function):
    out = tmp_path / "b.csv"
    quad_n = [] if method == "integer" else ["--quad-n", "100"]
    assert run(["bounds", "--method", method, "--function", function, "--alpha", "0.3",
                "--N", "2", "5", *quad_n, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    func = CATALOG[function]
    a = 1.0 if method == "hadamard" else 0.0
    per_point = {
        "integer": lambda N, t: expansions.bound_integer(func.integer_m(N, t), 0.3, N, t, a),
        "moment": lambda N, t: expansions.bound_moment(func.moment_l2(t), 0.3, N, t, a),
        "hadamard": lambda N, t: expansions.bound_hadamard(func.hadamard_lmax(t), 0.3, N, t, a),
    }[method]
    got = [float(r[3]) for r in rows]
    assert _ulps(got, [per_point(int(r[0]), float(r[1])) for r in rows]).max() <= 4


@pytest.mark.parametrize("argv, exact", [
    (["derivative", "--method", "moment", "--function", "exp2t", "--quad-n", "100"],
     lambda func, t: func.rl_exact(0.3, t)),
    (["derivative", "--method", "diethelm", "--function", "exp2t", "--n", "50"],
     lambda func, t: caputo_exact(func, 0.3, t)),
    (["derivative", "--method", "hadamard-moment", "--function", "t4", "--quad-n", "100"],
     lambda func, t: func.hadamard_exact(0.3, t)),
    (["derivative", "--method", "integer", "--function", "t4"],
     lambda func, t: func.rl_exact(0.3, t)),
])
def test_exact_column_matches_per_point_calls(tmp_path, argv, exact):
    out = tmp_path / "d.csv"
    assert run([*argv, "--alpha", "0.3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    func = CATALOG[argv[4]]
    got = [float(r[2]) for r in rows]
    assert _ulps(got, [exact(func, float(r[1])) for r in rows]).max() <= 4


# every subcommand that takes --alpha, with each of its methods or examples
ALPHA_EDGE_RUNS = [
    ["table-b", "--N", "3"],
    ["derivative", "--method", "gl", "--function", "t2", "--n", "20"],
    ["derivative", "--method", "diethelm", "--function", "t2", "--n", "20"],
    ["derivative", "--method", "integer", "--points", "5"],
    ["derivative", "--method", "moment", "--points", "5", "--quad-n", "50"],
    ["derivative", "--method", "atanackovic", "--points", "5", "--quad-n", "50"],
    ["derivative", "--method", "hadamard-moment", "--function", "lnt", "--points", "5",
     "--quad-n", "50"],
    ["bounds", "--method", "integer", "--points", "5"],
    ["bounds", "--method", "moment", "--points", "5", "--quad-n", "50"],
    ["bounds", "--method", "hadamard", "--function", "lnt", "--points", "5", "--quad-n", "50"],
    ["indirect", "--example", "ex2-integer", "--n", "20"],
    ["indirect", "--example", "ex2-moment", "--n", "20"],
    ["indirect", "--example", "ex4-moment", "--n", "20"],
]


# the one failure each alpha may record: gamma raises GammaPoleError within
# 1e-14 of its poles, which Gamma(alpha) and Gamma(1 - alpha) reach; at 1e-13
# B ~ alpha / N enters ex4-moment's collocation matrix as B^-2 >= 4e26, which
# the refinement estimate rejects
ALPHA_EDGE_FAILURE = {
    "1e-15": "gamma pole",
    "1e-13": "collocation solve unreliable",
    repr(1.0 - 1e-15): "gamma pole",
}


@pytest.mark.parametrize("alpha", list(ALPHA_EDGE_FAILURE))
@pytest.mark.parametrize("argv", ALPHA_EDGE_RUNS, ids=" ".join)
def test_alpha_next_to_a_gamma_pole_exits_0_or_2(tmp_path, capsys, argv, alpha):
    # a failure record, not a traceback
    out = tmp_path / "edge.csv"
    code = run([*argv, "--alpha", alpha, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        failures = json.loads(err.strip().splitlines()[-1])
        expected = ALPHA_EDGE_FAILURE[alpha]
        assert failures and all(expected in f["error"] for f in failures)
    assert out.exists()


def test_bound_that_raises_is_a_failure_record(tmp_path, capsys, monkeypatch):
    # the bound column is computed after the sweep; its failure drops that N
    bound_moment = expansions.bound_moment

    def bound_or_pole(L2, alpha, N, t, a):
        if N == 4:
            raise GammaPoleError("pole in the bound")
        return bound_moment(L2, alpha, N, t, a)

    monkeypatch.setattr(expansions, "bound_moment", bound_or_pole)
    out = tmp_path / "b.csv"
    code = run(["bounds", "--method", "moment", "--N", "2", "4", "--points", "5",
                "--quad-n", "50", "--out", str(out)])
    assert code == 2
    failures = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert failures == [{"run": "bounds:moment:t4:N=4", "error": "pole in the bound"}]
    _, rows = read_csv(out)
    assert {int(r[0]) for r in rows} == {2}


def test_main_calls_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    # the parser is built once per process and shared by every main call
    cfg = tmp_path / "direct.ini"
    cfg.write_text("[direct]\nexample = ex2\nn = 5 7\n")
    cases = [
        ["direct", "--example", "ex3", "--n", "10", "20"],
        ["derivative", "--function", "t2", "--method", "gl", "--n", "30"],
        ["direct", "--config", str(cfg)],
        ["direct", "--example", "ex1", "--tol", "1e-8"],
        ["bounds", "--function", "t4", "--N", "2", "3", "--points", "4"],
        ["indirect", "--example", "ex2-moment", "--N", "2", "--n", "20", "--eps", "0.5"],
        ["table-b", "--alpha", "0.5", "--N", "2", "4"],
        ["direct", "--example", "ex3", "--n", "10", "--tol", "1e-30"],
        ["direct", "--bogus"],
        ["derivative", "--function", "t4", "--method", "moment", "--N", "2", "--points", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys; from fracvar.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh, shared = [], []
    for i, argv in enumerate(cases):
        out = tmp_path / f"fresh{i}.csv"
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stderr, out.read_bytes() if out.exists() else None))
    capsys.readouterr()
    for i, argv in enumerate(cases):
        out = tmp_path / f"shared{i}.csv"
        rc = main(argv + ["--out", str(out)])
        shared.append((rc, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
    assert [entry[0] for entry in fresh] == [0, 0, 0, 1, 0, 1, 0, 2, 1, 0]
    assert shared == fresh
