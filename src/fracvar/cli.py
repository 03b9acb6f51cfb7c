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
``--config PATH``); command-line flags override file values.  Output is a
headed CSV with LF line endings and 17-significant-digit floats, so
identical configs produce byte-identical files.

Exit codes: 0 all runs completed, 1 usage error, 2 numerical failure (a
JSON error list goes to stderr).
"""

import argparse
import configparser
import csv
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
from .specfun import SeriesConvergenceError

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

NUMERICAL_ERRORS = (
    NewtonConvergenceError,
    SingularSystemError,
    SeriesConvergenceError,
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


def _write_csv(path: str, header, rows) -> None:
    """Write the header and the row tuples.  Each column gets one format,
    chosen once from the dtype numpy gives the whole column: booleans as 1/0
    and integers in full (``%d``), anything else as a float with 17
    significant digits (``%.17g``, which spells an integer in a float column
    the same way up to 2**53)."""
    kinds = [np.asarray(column).dtype.kind for column in zip(*rows)]
    line = ",".join("%d" if kind in "biu" else "%.17g" for kind in kinds) + "\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(line % tuple(row) for row in rows)


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
            if action.nargs == "+":
                return [convert(tok) for tok in raw.replace(",", " ").split()]
            return convert(raw)
        return default


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
    rows = []
    for a in alphas:
        for n in ns:
            rows.append((a, n, expansions.moment_coeffs(a, n).B))
    return ("alpha", "N", "B"), rows, []


def _eval_grid(a: float, b: float, points: int) -> np.ndarray:
    return np.linspace(a, b, points + 1)[1:]  # expansions are singular at a


def _moment_sweep(func, method, exact, alpha, a, grid, Ns, quad_n):
    """Moment-route approximations at each grid point for each N of a sweep.

    x(t), x'(t), the moments at max(Ns) and exact(t) are computed once per
    point and shared; each N evaluates the expansion formula on the moment
    prefix it uses (the Hadamard expansion has the RL coefficients).  Yields
    (N, [(t, approx, exact), ...], error) in sweep order, where error is the
    numerical failure at the first point that could not be evaluated (the
    points list stops there), or None.
    """
    hadamard = method in _HADAMARD_METHODS
    N_max = max(Ns)
    shared, error = [], None
    for t in grid:
        try:
            moments = expansions.moment_values(func.x, N_max, t, a, quad_n, hadamard=hadamard)
            if hadamard:
                s, xs = math.log(t / a), t * float(func.xdot(t))
            else:
                s, xs = t - a, None if method == "atanackovic" else float(func.xdot(t))
            shared.append((t, s, float(func.x(t)), xs, moments, exact(t)))
        except NUMERICAL_ERRORS as exc:
            error = exc
            break
    for N in Ns:
        coeffs = expansions.moment_coeffs(alpha, N)
        points = [
            (t, expansions.moment_expansion(coeffs, s, x_t, xs, moments), ex)
            for t, s, x_t, xs, moments, ex in shared
        ]
        yield N, points, error


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


def _quad_n(opts: _Options, default: int) -> int:
    quad_n = opts.get("quad-n", default)
    if quad_n < 1:
        raise UsageError(f"--quad-n must be >= 1, got {quad_n}")
    return quad_n


def cmd_derivative(opts: _Options) -> tuple:
    fname = opts.get("function", "t4")
    method = opts.get("method", "moment")
    alphas = opts.get("alpha", [0.5])
    quad_n = _quad_n(opts, 2000)
    points = opts.get("points", 100)
    if fname not in CATALOG:
        raise UsageError(f"unknown function id {fname!r} (have {sorted(CATALOG)})")
    if method not in EXPANSION_METHODS + MESH_METHODS:
        raise UsageError(
            f"unknown method id {method!r} (have {EXPANSION_METHODS + MESH_METHODS})"
        )
    alpha = _single_alpha(alphas)
    func = CATALOG[fname]
    a, b, exact = _reference(func, method, alpha)

    rows = []
    failures = []
    if method in EXPANSION_METHODS:
        sweep = opts.get("N", [1, 2, 3])
        if not sweep:
            raise UsageError("derivative needs a nonempty N list")
        if method == "integer":
            if any(N < 0 for N in sweep):
                raise UsageError("integer method needs N >= 0")
        elif any(N < 1 for N in sweep):
            raise UsageError(f"method {method!r} needs N >= 1")
        grid = _eval_grid(a, b, points)
        if method == "integer":
            for N in sweep:
                try:
                    for t in grid:
                        approx = expansions.expand_integer_left(func.bundle, alpha, N, t, a)
                        ex = exact(t)
                        rows.append((N, t, ex, approx, abs(approx - ex)))
                except NUMERICAL_ERRORS as exc:
                    failures.append({"run": f"{method}:{fname}:N={N}", "error": str(exc)})
        else:
            for N, points_N, exc in _moment_sweep(func, method, exact, alpha, a, grid, sweep, quad_n):
                rows.extend((N, t, ex, approx, abs(approx - ex)) for t, approx, ex in points_N)
                if exc is not None:
                    failures.append({"run": f"{method}:{fname}:N={N}", "error": str(exc)})
        header = ("N", "t", "exact", "approx", "abs_error")
    else:
        sweep = opts.get("n", [100])
        if not sweep:
            raise UsageError("derivative needs a nonempty n list")
        for n in sweep:
            try:
                mesh = Mesh(a, b, n)
                curve = SampledCurve.from_function(mesh, func.x)
                tnodes = mesh.nodes()
                if method == "gl":
                    approxes = gl_left_all(curve, alpha)[1:]
                else:
                    approxes = diethelm_caputo_all(curve, alpha, [func.x0])[1:]
                # one array call, so the power-law references round like
                # numpy's array pow; Mittag-Leffler ones fall back per node
                exacts = expansions._eval_on(exact, tnodes[1:])
                errors = np.abs(approxes - exacts)
                rows.extend(zip([n] * n, tnodes[1:], exacts, approxes, errors))
            except NUMERICAL_ERRORS as exc:
                failures.append({"run": f"{method}:{fname}:n={n}", "error": str(exc)})
        header = ("n", "t", "exact", "approx", "abs_error")
    return header, rows, failures


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

    rows = []
    failures = []
    for n in ns:
        try:
            curve = solve_direct(problem, n, newton_tol=tol, linear=linear)
        except NUMERICAL_ERRORS as exc:
            failures.append({"run": f"{example}:n={n}", "error": str(exc)})
            continue
        tnodes = curve.mesh.nodes()
        # per node: numpy's array pow rounds some of these 1 ulp differently
        exact_curve = SampledCurve(curve.mesh, np.array([exact(t) for t in tnodes]))
        err = max_error(curve, exact_curve)
        for i, t in enumerate(tnodes):
            rows.append(
                (
                    n,
                    t,
                    curve.values[i],
                    exact_curve.values[i],
                    abs(curve.values[i] - exact_curve.values[i]),
                    err,
                    True,
                )
            )
    header = ("n", "t", "approx", "exact", "abs_error", "max_error", "converged")
    return header, rows, failures


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

    mesh = Mesh(0.0, 1.0, n_mesh)
    tnodes = mesh.nodes()
    if example.startswith("ex2"):
        exact_curve = SampledCurve(
            mesh, np.array([indirect.analytic_solution_example2(alpha, t) for t in tnodes])
        )
    else:
        exact_curve = SampledCurve(
            mesh, np.array([indirect.exact_solution_example4(alpha, t) for t in tnodes])
        )

    rows = []
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
        err = l2_error(approx, exact_curve)
        for i, t in enumerate(tnodes):
            rows.append((N, t, approx.values[i], exact_curve.values[i], err))
    header = ("N", "t", "approx", "exact", "l2_error")
    return header, rows, failures


def cmd_bounds(opts: _Options) -> tuple:
    fname = opts.get("function", "t4")
    method = opts.get("method", "integer")
    alphas = opts.get("alpha", [0.5])
    quad_n = _quad_n(opts, 20000)
    points = opts.get("points", 20)
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

    grid = _eval_grid(a, b, points)
    rows = []
    failures = []

    def record(N, t, approx, ex, bound):
        err = abs(approx - ex)
        rows.append((N, t, err, bound, err <= bound + DOMINANCE_SLACK))

    if method == "integer":
        for N in Ns:
            try:
                for t in grid:
                    approx = expansions.expand_integer_left(func.bundle, alpha, N, t, a)
                    bound = expansions.bound_integer(func.integer_m(N, t), alpha, N, t, a)
                    record(N, t, approx, exact(t), bound)
            except NUMERICAL_ERRORS as exc:
                failures.append({"run": f"bounds:{method}:{fname}:N={N}", "error": str(exc)})
    else:
        for N, points_N, exc in _moment_sweep(func, method, exact, alpha, a, grid, Ns, quad_n):
            for t, approx, ex in points_N:
                if method == "moment":
                    bound = expansions.bound_moment(func.moment_l2(t), alpha, N, t, a)
                else:
                    bound = expansions.bound_hadamard(func.hadamard_lmax(t), alpha, N, t, a)
                record(N, t, approx, ex, bound)
            if exc is not None:
                failures.append({"run": f"bounds:{method}:{fname}:N={N}", "error": str(exc)})
    header = ("N", "t", "abs_error", "bound", "dominated")
    return header, rows, failures


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
        add("--alpha", nargs="+", type=float, help="fractional order(s)")
        add("--N", nargs="+", type=int, help="expansion order list")
        if name in ("derivative", "direct"):
            add("--n", nargs="+", type=int, help="mesh size list")
        if name == "indirect":
            add("--n", type=int, help="collocation mesh size")
        if name in ("derivative", "bounds"):
            add("--function", help="test function id")
            add("--method", help="approximation method id")
            add("--quad-n", type=int, help="moment quadrature panels")
            add("--points", type=int, help="evaluation grid size")
        if name in ("direct", "indirect"):
            add("--example", help="catalog example id")
        add("--eps", type=float, help="singular-origin offset")
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
        header, rows, failures = COMMANDS[args.command](opts)
        out_path = opts.get("out", f"{args.command.replace('-', '_')}.csv")
        _write_csv(out_path, header, rows)
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
