import csv
import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from fracvar import cli, expansions, indirect
from fracvar._functions import CATALOG
from fracvar.cli import main
from fracvar.direct import example3_minimizer
from fracvar.operators import Mesh
from fracvar.specfun import SeriesConvergenceError


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


def test_empty_alpha_list_from_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[table-b]\nalpha =\n")
    assert run(["table-b", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


def test_numerical_failure_exits_2(tmp_path, capsys):
    out = tmp_path / "ex3.csv"
    code = run(["direct", "--example", "ex3", "--n", "10", "--tol", "1e-30",
                "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    failures = json.loads(err.strip().splitlines()[-1])
    assert failures and "error" in failures[0] and "run" in failures[0]


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


# ---------------------------------------------------------------------------
# CSV writer: column-wise formatting against the row-wise reference
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
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_csv_writer_matches_rowwise_reference(tmp_path, case):
    header, rows, failures = command_output(WRITER_CASES[case])
    assert bool(failures) == (case == "failing-run")
    cli._write_csv(tmp_path / "columns.csv", header, rows)
    write_csv_rowwise(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_csv_writer_cell_kinds(tmp_path):
    rows = [
        (np.int64(3), 2, np.True_, True, np.float64(0.1), 1.0 / 3.0, float("nan"), 0.0, 7),
        (np.int64(-1), 0, np.False_, False, np.float64(-1e-300), float("inf"), -0.0, 2.5, np.True_),
        (np.int64(12), 10**17, np.True_, True, np.float64(5e-324), -float("inf"), 1e17, 3, 1.5),
    ]
    header = ("a", "b", "c", "d", "e", "f", "g", "h", "i")
    cli._write_csv(tmp_path / "columns.csv", header, rows)
    write_csv_rowwise(tmp_path / "rows.csv", header, rows)
    text = (tmp_path / "columns.csv").read_text()
    assert text == (tmp_path / "rows.csv").read_text()
    assert text.splitlines()[2] == "-1,0,0,0,-1e-300,inf,-0,2.5,1"


# ---------------------------------------------------------------------------
# moment route: moments shared across the N sweep
# ---------------------------------------------------------------------------


def _per_n_approx(method, func, alpha, N, t, quad_n):
    if method in ("hadamard-moment", "hadamard"):
        coeffs = expansions.moment_coeffs(alpha, N)
        return expansions.hadamard_expand_moment(func.x, func.xdot, coeffs, t, 1.0, quad_n)
    coeffs = expansions.moment_coeffs(alpha, N)
    if method == "atanackovic":
        return expansions.expand_atanackovic(func.x, coeffs, t, 0.0, quad_n)
    return expansions.expand_moment_left(func.x, func.xdot, coeffs, t, 0.0, quad_n)


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


def test_moment_route_failure_is_one_record_per_n(tmp_path, capsys, monkeypatch):
    # an exact value that raises at the fourth point stops every N there:
    # three rows per N, then one failure record per N
    func = CATALOG["exp2t"]

    def rl_exact(alpha, t):
        if t == 0.4:
            raise SeriesConvergenceError("no series value")
        return func.rl_exact(alpha, t)

    monkeypatch.setitem(CATALOG, "exp2t", dataclasses.replace(func, rl_exact=rl_exact))
    out = tmp_path / "d.csv"
    code = run(["derivative", "--function", "exp2t", "--method", "moment", "--N", "2", "4",
                "--points", "10", "--quad-n", "100", "--out", str(out)])
    assert code == 2
    failures = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert [f["run"] for f in failures] == ["moment:exp2t:N=2", "moment:exp2t:N=4"]
    assert all(f["error"] == "no series value" for f in failures)
    _, rows = read_csv(out)
    assert [(int(r[0]), float(r[1])) for r in rows] == [
        (N, t) for N in (2, 4) for t in (0.1, 0.2, 0.30000000000000004)
    ]
