"""fracvar experiment harness.

Subcommands reproduce the reference table, the derivative-approximation
figures (as CSV series), the direct-method convergence studies, the
indirect-method curves, and the truncation-bound dominance checks:

    fracvar table-b    [--alpha ...] [--N ...] [--out PATH]
    fracvar derivative --function ID --method ID [--N ...|--n ...] [...]
    fracvar direct     --example ex1|ex2|ex3 [--n ...] [...]
    fracvar indirect   --example ex2-integer|ex2-moment|ex4-moment [--N ...]
    fracvar bounds     --function ID --method ID [--N ...] [...]

All values may come from an INI config file (one section per subcommand,
``--config PATH``); command-line flags override file values.  Each
subcommand returns its table as columns, one 1-D numpy array per CSV
column, joined from one block per run of its sweep; the writer picks each
column's format from its dtype: integers and booleans in full, floats with
17 significant digits.  From ``_COLUMN_MIN_CELLS`` cells on, the writer
formats a whole column at a time (``_csvtext``): exact int64 and
double-double arithmetic gives each float's 17 digits, and every value that
arithmetic cannot prove (zero, non-finite, outside (1e-280, 1e280), next to
a power of ten, or within 1e-6 of a rounding tie) falls back to ``%``, so
the bytes are those of ``%.17g`` either way.  The four expansion routes of
``derivative`` and ``bounds`` (integer, moment, Atanackovic, Hadamard) share
one sweep, ``_expansion_sweep``.  Output is a headed CSV with LF
line endings, so identical configs produce byte-identical files.

Exit codes: 0 all runs completed, 1 usage error, 2 numerical failure (a
JSON error list goes to stderr).
"""

import argparse
import configparser
import csv
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import expansions, indirect
from ._functions import CATALOG, caputo_exact
from .direct import (
    NewtonConvergenceError,
    NonAffineSystemError,
    SingularSystemError,
    example1_problem,
    example2_problem,
    example3_minimizer,
    example3_problem,
    solve_direct,
)
from .operators import (
    Mesh,
    SampledCurve,
    diethelm_caputo_all,
    gl_left_all,
    l2_error,
    max_error,
)
from .specfun import GammaPoleError, SeriesConvergenceError

#: Default grid of the B(alpha, N) reference table.
TABLE_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
TABLE_NS = (4, 7, 15, 30, 70, 120, 170)

#: Absolute slack on the dominance flag, absorbing quadrature and roundoff
#: where the analytic bound is zero or near machine scale.
DOMINANCE_SLACK = 1e-8

EXPANSION_METHODS = ("integer", "moment", "atanackovic", "hadamard-moment")
MESH_METHODS = ("gl", "diethelm")
#: Methods scored against the Hadamard derivative (derivative, bounds).
_HADAMARD_METHODS = ("hadamard-moment", "hadamard")
#: Tables with at least this many cells are formatted a column at a time
#: (``_csvtext``), smaller ones cell by cell with ``%``: the two cost the same
#: at about 500 cells of 5 or 7 columns (numpy 2.4, one x86-64 core).
_COLUMN_MIN_CELLS = 512

NUMERICAL_ERRORS = (
    NewtonConvergenceError,
    SingularSystemError,
    SeriesConvergenceError,
    GammaPoleError,
    expansions.ExpansionDomainError,
    NonAffineSystemError,
    indirect.IllConditionedSystemError,
    np.linalg.LinAlgError,
)


class UsageError(Exception):
    pass


def _single_alpha(alphas) -> float:
    if len(alphas) != 1:
        raise UsageError("this subcommand uses a single alpha")
    alpha = alphas[0]
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _write_csv(path: str, header, columns) -> None:
    """Write the header and the columns, one 1-D array per CSV column.

    Each column gets one format from its dtype: booleans as 1/0 and integers
    in full (``%d``), anything else as a float with 17 significant digits
    (``%.17g``).  A table of at least ``_COLUMN_MIN_CELLS`` cells is
    formatted a column at a time by ``_csvtext.csv_body``, which writes the
    same bytes and falls back to ``%`` for each value it cannot prove
    exactly; a smaller one row by row from Python scalars.  Columns of
    different lengths, or a header that does not name each column, raise
    ``ValueError``; no columns at all (every run failed) write the header
    alone."""
    if columns and len(header) != len(columns):
        raise ValueError(f"header names {len(header)} columns, got {len(columns)}")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        if columns and len(columns) * len(columns[0]) >= _COLUMN_MIN_CELLS:
            from . import _csvtext  # on first use: small tables never load it

            fh.flush()
            fh.buffer.write(_csvtext.csv_body(columns))  # ASCII
        else:
            line = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + "\n"
            fh.write("".join([line % row for row in zip(*(c.tolist() for c in columns))]))


def _concatenated(blocks) -> list:
    """Per-run tuples of column arrays, joined into one array per column."""
    return [np.concatenate(parts) for parts in zip(*blocks)]


class _Options:
    """Merged view of defaults, config-file section, and CLI flags.  A
    config value is parsed with the ``type`` and ``nargs`` of its flag's
    parser action (lists split at commas and whitespace)."""

    def __init__(self, args: argparse.Namespace, section: str):
        self._args = vars(args)
        self._cfg = {}
        path = self._args.get("config")
        if path:
            parser = configparser.ConfigParser()
            parser.optionxform = str  # keep N and n distinct
            read = parser.read(path)
            if not read:
                raise UsageError(f"config file not found: {path}")
            if parser.has_section(section):
                self._cfg = dict(parser.items(section))

    def get(self, name: str, default=None):
        dest = name.replace("-", "_")
        flag = self._args.get(dest)
        if flag is not None:
            return flag
        if name in self._cfg:
            action = self._args["actions"][dest]
            convert = action.type or str
            raw = self._cfg[name]
            try:
                if action.nargs == "+":
                    return [convert(tok) for tok in raw.replace(",", " ").split()]
                return convert(raw)
            except ValueError:
                raise UsageError(f"bad value for {name}: {raw!r}") from None
        return default

    def on_command_line(self, name: str) -> bool:
        return self._args.get(name.replace("-", "_")) is not None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_table_b(opts: _Options) -> tuple:
    alphas = opts.get("alpha", list(TABLE_ALPHAS))
    ns = opts.get("N", list(TABLE_NS))
    if not alphas or not ns:
        raise UsageError("table-b needs nonempty alpha and N lists")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise UsageError("all alpha values must lie in (0, 1)")
    if any(n < 1 for n in ns):
        raise UsageError("all N values must be >= 1")
    blocks, failures = [], []
    for alpha in alphas:
        try:
            row = expansions.b_table([alpha], ns)[0]
        except NUMERICAL_ERRORS as exc:
            failures.append({"run": f"table-b:alpha={alpha}", "error": str(exc)})
            continue
        blocks.append((np.full(len(ns), alpha), np.array(ns), row))
    return ("alpha", "N", "B"), _concatenated(blocks), failures


def _eval_grid(a: float, b: float, points: int) -> np.ndarray:
    return np.linspace(a, b, points + 1)[1:]  # expansions are singular at a


def _expansion_sweep(func, method, exact, alpha, a, grid, Ns, quad_n):
    """Expansion approximations at each grid point for each N of a sweep.

    Two rules drop points.  The shared part is computed once: the exact
    column in one array call, and on the moment routes each point's s, x(t)
    and dx/ds and its moments at max(Ns).  It stops before the first point
    that raised a numerical error (when the exact column raises, it is
    evaluated point by point to find that point), and that error is reported
    for every N.  Each N then evaluates its formula on the shared points,
    the moment routes in one array call on the moment prefix that N uses;
    a point where the result is not finite is dropped from that N alone, and
    its error names the dropped t values.  Yields (N, t, approx, exact,
    error) in sweep order, with the error that dropped points (or None).
    When the order-N part (its coefficients) raises, N yields empty arrays
    and that error.  An integer order beyond the function's derivative
    bundle is a usage error.
    """
    N_max = max(Ns)
    if method == "integer" and N_max > func.bundle.order:
        raise UsageError(
            f"integer method on {func.name!r} needs N <= {func.bundle.order}, got {N_max}"
        )
    exacts, error = _exact_prefix(exact, grid)
    if method != "integer":
        hadamard = method in _HADAMARD_METHODS
        xdot = None if method == "atanackovic" else func.xdot
        points, moments = [], []
        # one point past the exact prefix: where both raise, the moment error is reported
        for t in grid[: len(exacts) + 1]:
            try:
                point = expansions._moment_point(func.x, xdot, t, a, right=False, hadamard=hadamard)
                values = expansions.moment_values(func.x, N_max, t, a, quad_n,
                                                  hadamard=hadamard)
            except NUMERICAL_ERRORS as exc:
                error = exc
                break
            points.append(point)
            moments.append(values)
        n = min(len(points), len(exacts))
        exacts, points = exacts[:n], points[:n]
        s = np.array([p[0] for p in points], dtype=float)
        x = np.array([p[1] for p in points], dtype=float)
        xs = None if xdot is None else np.array([p[2] for p in points], dtype=float)
        moments = np.array(moments[:n], dtype=float).reshape(n, N_max - 1)
    ts = grid[: len(exacts)]
    for N in Ns:
        try:
            if method == "integer":
                approx = np.array(
                    [expansions.expand_integer(func.bundle, alpha, N, t, a) for t in ts]
                )
            else:
                coeffs = expansions.moment_coeffs(alpha, N)
                approx = expansions._moment_formula(coeffs, s, x, xs, moments)
        except NUMERICAL_ERRORS as exc:
            yield N, ts[:0], exacts[:0], exacts[:0], exc
            continue
        finite = np.isfinite(approx)
        if finite.all():
            yield N, ts, approx, exacts, error
            continue
        dropped = ", ".join(map(repr, ts[~finite].tolist()))
        note = f"{method} expansion of order {N} is not finite at t = {dropped}"
        if error is not None:
            note += f"; {error}"
        yield N, ts[finite], approx[finite], exacts[finite], expansions.ExpansionDomainError(note)


def _exact_prefix(exact, grid) -> tuple:
    """The exact values on ``grid`` up to the first point that raises a
    numerical error, and that error (or None): one array call, and only when
    it raises, one call per point."""
    try:
        return expansions._eval_on(exact, grid), None
    except NUMERICAL_ERRORS:
        values = []
        for t in grid:
            try:
                values.append(float(exact(t)))
            except NUMERICAL_ERRORS as exc:
                return np.array(values, dtype=float), exc
        return np.array(values, dtype=float), None


def _reference(func, method: str, alpha: float) -> tuple:
    """Interval (a, b) and exact derivative of ``func`` that ``method`` is
    scored against: the Hadamard one on [1, 2], else the Riemann-Liouville
    one on [0, 1] (its Caputo form for the Diethelm scheme)."""
    if method in _HADAMARD_METHODS:
        if func.hadamard_exact is None:
            raise UsageError(f"function {func.name!r} has no Hadamard reference")
        return 1.0, 2.0, lambda t: func.hadamard_exact(alpha, t)
    if func.rl_exact is None:
        raise UsageError(f"function {func.name!r} not usable with method {method!r}")
    if method == "diethelm":
        return 0.0, 1.0, lambda t: caputo_exact(func, alpha, t)
    return 0.0, 1.0, lambda t: func.rl_exact(alpha, t)


def _at_least_one(opts: _Options, name: str, default: int) -> int:
    value = opts.get(name, default)
    if value < 1:
        raise UsageError(f"--{name} must be >= 1, got {value}")
    return value


def _reject_unused(opts: _Options, user: str, names) -> None:
    """A command-line flag that ``user`` (a method or an example) does not
    read is a usage error.  Config-file values are not checked: one section
    serves every method and example."""
    given = [f"--{name}" for name in names if opts.on_command_line(name)]
    if given:
        raise UsageError(f"{user} does not use {', '.join(given)}")


def cmd_derivative(opts: _Options) -> tuple:
    fname = opts.get("function", "t4")
    method = opts.get("method", "moment")
    alphas = opts.get("alpha", [0.5])
    if fname not in CATALOG:
        raise UsageError(f"unknown function id {fname!r} (have {sorted(CATALOG)})")
    if method not in EXPANSION_METHODS + MESH_METHODS:
        raise UsageError(
            f"unknown method id {method!r} (have {EXPANSION_METHODS + MESH_METHODS})"
        )
    alpha = _single_alpha(alphas)
    func = CATALOG[fname]
    a, b, exact = _reference(func, method, alpha)

    blocks, failures = [], []
    if method in EXPANSION_METHODS:
        unused = ["n", "quad-n"] if method == "integer" else ["n"]
        _reject_unused(opts, f"method {method!r}", unused)
        sweep = opts.get("N", [1, 2, 3])
        if not sweep:
            raise UsageError("derivative needs a nonempty N list")
        if method == "integer":
            if any(N < 0 for N in sweep):
                raise UsageError("integer method needs N >= 0")
        elif any(N < 1 for N in sweep):
            raise UsageError(f"method {method!r} needs N >= 1")
        grid = _eval_grid(a, b, _at_least_one(opts, "points", 100))
        quad_n = None if method == "integer" else _at_least_one(opts, "quad-n", 2000)
        study = _expansion_sweep(func, method, exact, alpha, a, grid, sweep, quad_n)
        for N, t, approx, ex, exc in study:
            blocks.append((np.full(len(t), N), t, ex, approx, np.abs(approx - ex)))
            if exc is not None:
                failures.append({"run": f"{method}:{fname}:N={N}", "error": str(exc)})
        header = ("N", "t", "exact", "approx", "abs_error")
    else:
        _reject_unused(opts, f"method {method!r}", ["N", "points", "quad-n"])
        sweep = opts.get("n", [100])
        if not sweep:
            raise UsageError("derivative needs a nonempty n list")
        if any(n < 1 for n in sweep):
            raise UsageError(f"--n must be >= 1, got {min(sweep)}")
        for n in sweep:
            try:
                mesh = Mesh(a, b, n)
                curve = SampledCurve.from_function(mesh, func.x)
                tnodes = mesh.nodes()
                if method == "gl":
                    approxes = gl_left_all(curve, alpha)[1:]
                else:
                    approxes = diethelm_caputo_all(curve, alpha, [func.x0])[1:]
                # one array call: one pow, or one Mittag-Leffler sum, per column
                exacts = expansions._eval_on(exact, tnodes[1:])
                errors = np.abs(approxes - exacts)
                blocks.append((np.full(n, n), tnodes[1:], exacts, approxes, errors))
            except NUMERICAL_ERRORS as exc:
                failures.append({"run": f"{method}:{fname}:n={n}", "error": str(exc)})
        header = ("n", "t", "exact", "approx", "abs_error")
    return header, _concatenated(blocks), failures


def cmd_direct(opts: _Options) -> tuple:
    example = opts.get("example", "ex1")
    tol = opts.get("tol", 1e-10)
    if example == "ex1":
        problem, linear = example1_problem(), True
        exact = lambda t: t**2
        default_ns = [5, 10, 20, 40]
    elif example == "ex2":
        problem, linear = example2_problem(), True
        exact = lambda t: indirect.analytic_solution_example2(problem.alpha, t)
        default_ns = [5, 10, 20, 40]
    elif example == "ex3":
        problem, linear = example3_problem(), False
        exact = example3_minimizer
        default_ns = [10, 20, 30]
    else:
        raise UsageError(f"unknown example id {example!r} (have ex1, ex2, ex3)")
    ns = opts.get("n", default_ns)
    if not ns or any(n < 2 for n in ns):
        raise UsageError("direct needs a list of n values >= 2")
    if linear:
        _reject_unused(opts, f"example {example!r}", ["tol"])
    if not 0.0 < tol < math.inf:
        raise UsageError(f"--tol must lie in (0, inf), got {tol}")

    blocks = []
    failures = []
    for n in ns:
        try:
            curve = solve_direct(problem, n, newton_tol=tol, linear=linear)
        except NUMERICAL_ERRORS as exc:
            failures.append({"run": f"{example}:n={n}", "error": str(exc)})
            continue
        tnodes = curve.mesh.nodes()
        # per node: numpy's array pow rounds some of these 1 ulp differently
        exact_curve = SampledCurve.from_function(curve.mesh, exact)
        m = n + 1
        blocks.append((
            np.full(m, n),
            tnodes,
            curve.values,
            exact_curve.values,
            np.abs(curve.values - exact_curve.values),
            np.full(m, max_error(curve, exact_curve)),
            np.full(m, True),
        ))
    header = ("n", "t", "approx", "exact", "abs_error", "max_error", "converged")
    return header, _concatenated(blocks), failures


def cmd_indirect(opts: _Options) -> tuple:
    example = opts.get("example", "ex2-moment")
    alpha = _single_alpha(opts.get("alpha", [0.5]))
    n_mesh = opts.get("n", 400)
    eps = opts.get("eps", 1e-4)
    defaults = {
        "ex2-integer": [1, 2, 3, 4],
        "ex2-moment": [2, 4, 8],
        "ex4-moment": [2, 4],
    }
    if example not in defaults:
        raise UsageError(
            f"unknown example id {example!r} (have {sorted(defaults)})"
        )
    Ns = opts.get("N", defaults[example])
    if not Ns:
        raise UsageError("indirect needs a nonempty N list")
    if n_mesh < 1:
        raise UsageError(f"--n must be >= 1, got {n_mesh}")
    if not 0.0 <= eps < 1.0:
        raise UsageError(f"--eps must lie in [0, 1), got {eps}")
    if example == "ex4-moment" and eps == 0.0:
        raise UsageError("ex4-moment needs --eps > 0: its scaled state is singular at t = 0")
    if example.startswith("ex2"):
        _reject_unused(opts, f"example {example!r}", ["eps"])
    lowest = 0 if example == "ex2-integer" else 2
    if min(Ns) < lowest:
        raise UsageError(f"example {example!r} needs N >= {lowest}, got {min(Ns)}")

    mesh = Mesh(0.0, 1.0, n_mesh)
    tnodes = mesh.nodes()
    if example.startswith("ex2"):
        exact = indirect.analytic_solution_example2
    else:
        exact = indirect.exact_solution_example4
    exact_curve = SampledCurve.from_function(mesh, lambda t: exact(alpha, t))

    blocks = []
    failures = []
    for N in Ns:
        try:
            if example == "ex2-integer":
                x = indirect.solve_example2_integer(alpha, N)
                approx = SampledCurve(mesh, x(tnodes))
            elif example == "ex2-moment":
                x = indirect.solve_example2_moment_closed(alpha, N)
                approx = SampledCurve(mesh, x(tnodes))
            else:
                system = indirect.assemble_tpbvp_example4(alpha, N)
                approx = indirect.solve_linear_tpbvp(system, mesh, eps=eps)[0]
        except NUMERICAL_ERRORS as exc:
            failures.append({"run": f"{example}:N={N}", "error": str(exc)})
            continue
        m = n_mesh + 1
        err = l2_error(approx, exact_curve)
        blocks.append((np.full(m, N), tnodes, approx.values, exact_curve.values, np.full(m, err)))
    header = ("N", "t", "approx", "exact", "l2_error")
    return header, _concatenated(blocks), failures


def cmd_bounds(opts: _Options) -> tuple:
    fname = opts.get("function", "t4")
    method = opts.get("method", "integer")
    alphas = opts.get("alpha", [0.5])
    Ns = opts.get("N", list(range(2, 11)))
    if fname not in CATALOG:
        raise UsageError(f"unknown function id {fname!r} (have {sorted(CATALOG)})")
    if method not in ("integer", "moment", "hadamard"):
        raise UsageError("bounds method must be integer, moment, or hadamard")
    if not Ns or any(N < 1 for N in Ns):
        raise UsageError("bounds needs a nonempty list of N >= 1")
    alpha = _single_alpha(alphas)
    func = CATALOG[fname]
    a, b, exact = _reference(func, method, alpha)

    grid = _eval_grid(a, b, _at_least_one(opts, "points", 20))
    if method == "integer":
        _reject_unused(opts, f"method {method!r}", ["quad-n"])
    quad_n = None if method == "integer" else _at_least_one(opts, "quad-n", 20000)
    bound = {
        "integer": lambda N, t: expansions.bound_integer(func.integer_m(N, t), alpha, N, t, a),
        "moment": lambda N, t: expansions.bound_moment(func.moment_l2(t), alpha, N, t, a),
        "hadamard": lambda N, t: expansions.bound_hadamard(func.hadamard_lmax(t), alpha, N, t, a),
    }[method]
    blocks, failures = [], []
    for N, t, approx, ex, exc in _expansion_sweep(func, method, exact, alpha, a, grid, Ns, quad_n):
        run = f"bounds:{method}:{fname}:N={N}"
        try:
            bounds = expansions._eval_on(lambda ti: bound(N, ti), t)
        except NUMERICAL_ERRORS as bound_exc:
            failures.append({"run": run, "error": str(bound_exc)})
            continue
        err = np.abs(approx - ex)
        blocks.append((np.full(len(t), N), t, err, bounds, err <= bounds + DOMINANCE_SLACK))
        if exc is not None:
            failures.append({"run": run, "error": str(exc)})
    header = ("N", "t", "abs_error", "bound", "dominated")
    return header, _concatenated(blocks), failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "table-b": cmd_table_b,
    "derivative": cmd_derivative,
    "direct": cmd_direct,
    "indirect": cmd_indirect,
    "bounds": cmd_bounds,
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="Fractional-derivative approximation and variational-problem experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        actions = {}  # dest -> the flag's action, which parses config values too

        def add(flag, **spec):
            action = p.add_argument(flag, **spec)
            actions[action.dest] = action

        add("--config", help="INI config file (section per subcommand)")
        add("--out", help="output CSV path")
        if name != "direct":
            add("--alpha", nargs="+", type=float, help="fractional order(s)")
            add("--N", nargs="+", type=int, help="expansion order list")
        if name in ("derivative", "direct"):
            add("--n", nargs="+", type=int, help="mesh size list")
        if name == "indirect":
            add("--n", type=int, help="collocation mesh size")
            add("--eps", type=float, help="singular-origin offset")
        if name in ("derivative", "bounds"):
            add("--function", help="test function id")
            add("--method", help="approximation method id")
            add("--quad-n", type=int, help="moment quadrature panels")
            add("--points", type=int, help="evaluation grid size")
        if name in ("direct", "indirect"):
            add("--example", help="catalog example id")
        if name == "direct":
            add("--tol", type=float, help="nonlinear solver tolerance")
        p.set_defaults(actions=actions)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        opts = _Options(args, args.command)
        header, columns, failures = COMMANDS[args.command](opts)
        out_path = opts.get("out", f"{args.command.replace('-', '_')}.csv")
        _write_csv(out_path, header, columns)
    except UsageError as exc:
        print(f"fracvar: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fracvar: I/O error: {exc}", file=sys.stderr)
        return 1
    if failures:
        print(json.dumps(failures), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
