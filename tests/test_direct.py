import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fracvar import direct
from fracvar.direct import (
    STRUCTURED_FLOOR,
    DirectProblem,
    LagrangianSpec,
    NewtonConvergenceError,
    NonAffineSystemError,
    StationaritySystem,
    _newton,
    example1_problem,
    example2_problem,
    example3_minimizer,
    example3_phi,
    example3_problem,
    solve_direct,
    stationarity,
)
from fracvar.expansions import _eval_on
from fracvar.indirect import analytic_solution_example2
from fracvar.operators import Mesh, SampledCurve, _binomial_weights, gl_weights, max_error
from fracvar.specfun import gamma

from direct_oracles import (
    euler_lagrange_residual,
    example1_system,
    example2_system,
    example3_residual,
    gen_binomial,
)

CATALOG = {
    "ex1": (example1_problem(), lambda t: t**2),
    "ex2": (example2_problem(), lambda t: analytic_solution_example2(0.5, t)),
    "ex3": (example3_problem(), example3_minimizer),
}


def exact_curve(mesh, f):
    return SampledCurve(mesh, np.array([f(t) for t in mesh.nodes()]))


# ---------------------------------------------------------------------------
# discretization and stationarity
# ---------------------------------------------------------------------------


def test_psi_zero_for_zero_tracking_problem():
    lag = LagrangianSpec(
        L=lambda t, x, xd, d: d * d,
        dL_dx=lambda t, x, xd, d: 0.0,
        dL_dxdot=lambda t, x, xd, d: 0.0,
        dL_ddalpha=lambda t, x, xd, d: 2.0 * d,
    )
    problem = DirectProblem(0.0, 1.0, 0.0, 0.0, 0.5, lag)
    psi = stationarity(problem, 8).psi
    assert psi(np.zeros(7)) == 0.0


def test_psi_vanishes_at_minimizer_with_refinement():
    problem = example1_problem()
    vals = []
    for n in (10, 40):
        psi = stationarity(problem, n).psi
        t = Mesh(0.0, 1.0, n).nodes()
        vals.append(psi(t[1:-1] ** 2))
    assert vals[1] < vals[0]


def test_single_unknown_quadratic_vertex():
    # n = 2 reduces Psi to a scalar quadratic; its vertex is recoverable from
    # three samples (independent parabola oracle)
    problem = example1_problem()
    psi = stationarity(problem, 2).psi
    f = lambda v: psi(np.array([v]))
    y0, y1, y2 = f(0.0), f(1.0), f(2.0)
    # parabola a v^2 + b v + c through (0,1,2)
    a = (y2 - 2.0 * y1 + y0) / 2.0
    b = y1 - y0 - a
    vertex = -b / (2.0 * a)
    curve = solve_direct(problem, 2, linear=True)
    assert curve.values[1] == pytest.approx(vertex, rel=1e-9)


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("n", [10, 20])
def test_stationarity_matches_fd_gradient(name, n):
    problem, _ = CATALOG[name]
    system = stationarity(problem, n)
    psi = system.psi
    h = 1.0 / n
    rng = np.random.default_rng(42)
    for _ in range(5):
        u = rng.uniform(-1.0, 2.0, n - 1)
        r = system.residual(u)
        grad = np.empty(n - 1)
        for j in range(n - 1):
            e = np.zeros(n - 1)
            e[j] = 1e-6
            grad[j] = (psi(u + e) - psi(u - e)) / 2e-6 / h
        assert np.max(np.abs(r - grad)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


def test_stationarity_zero_for_trivial_lagrangian():
    lag = LagrangianSpec(
        L=lambda t, x, xd, d: t,
        dL_dx=lambda t, x, xd, d: 0.0,
        dL_dxdot=lambda t, x, xd, d: 0.0,
        dL_ddalpha=lambda t, x, xd, d: 0.0,
    )
    problem = DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag)
    system = stationarity(problem, 10)
    assert np.all(system.residual(np.linspace(0.1, 0.9, 9)) == 0.0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_lagrangian_partials_consistent_with_l(name):
    # the stored partials must match central finite differences of L
    problem, _ = CATALOG[name]
    lag = problem.lagrangian
    rng = np.random.default_rng(8)
    d = 1e-6
    for _ in range(5):
        t, x, xd, da = rng.uniform(0.2, 1.0, 4)
        for part, slot in ((lag.dL_dx, 1), (lag.dL_dxdot, 2), (lag.dL_ddalpha, 3)):
            args = [t, x, xd, da]
            hi, lo = args.copy(), args.copy()
            hi[slot] += d
            lo[slot] -= d
            fd = (lag.L(*hi) - lag.L(*lo)) / (2.0 * d)
            got = part(t, x, xd, da)
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd))


def test_example1_residual_is_affine():
    system = stationarity(example1_problem(), 12)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(11)
    d = rng.standard_normal(11)
    r0 = system.residual(u)
    r1 = system.residual(u + d)
    r2 = system.residual(u + 2.0 * d)
    assert np.max(np.abs(r2 - 2.0 * r1 + r0)) <= 1e-9 * max(1.0, np.max(np.abs(r1)))


# ---------------------------------------------------------------------------
# batched evaluation against the per-node loops
# ---------------------------------------------------------------------------


def loop_residual(problem, n, interior):
    """Stationarity residual by one Lagrangian call per node and partial, the
    GL sum by convolution and one dot product per row."""
    lag = problem.lagrangian
    h = (problem.b - problem.a) / n
    t = problem.a + np.arange(n + 1) * h
    x = np.concatenate(([problem.x_a], interior, [problem.x_b]))
    xdot = np.concatenate(([0.0], np.diff(x) / h))
    w = gl_weights(problem.alpha, n)
    dalpha = np.convolve(w, x)[: n + 1] / h**problem.alpha
    args = [(t[i], x[i], xdot[i], dalpha[i]) for i in range(n + 1)]
    dLdD = np.array([lag.dL_ddalpha(*args[i]) for i in range(n + 1)])
    r = np.empty(n - 1)
    for i in range(1, n):
        gl_sum = float(np.dot(w[: n - i + 1], dLdD[i:]))
        r[i - 1] = lag.dL_dx(*args[i]) + gl_sum / h**problem.alpha
        r[i - 1] += (lag.dL_dxdot(*args[i]) - lag.dL_dxdot(*args[i + 1])) / h
    return r


def loop_jacobian(residual, x, r0):
    """Forward-difference Jacobian, one residual call per column."""
    jac = np.empty((len(x), len(x)))
    for j in range(len(x)):
        step = math.sqrt(np.finfo(float).eps) * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += step
        jac[:, j] = (residual(xp) - r0) / step
    return jac


def fd_system(n, residual):
    """A StationaritySystem whose step is the forward-difference Newton step
    of loop_jacobian, logged as "dense" and not floored."""
    return StationaritySystem(
        n,
        residual,
        lambda x, r: (-np.linalg.solve(loop_jacobian(residual, x, r), r), "dense", False),
    )


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("n", [2, 3, 12, 40])
def test_residual_matches_loop_oracle(name, n):
    problem, _ = CATALOG[name]
    system = stationarity(problem, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        u = rng.uniform(-1.0, 2.0, n - 1)
        expect = loop_residual(problem, n, u)
        got = system.residual(u)
        assert got.shape == (n - 1,)
        assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_eval_on_calls_on_the_arrays_as_given():
    t = np.linspace(0.0, 1.0, 5)
    x = np.arange(10.0).reshape(2, 5)
    shapes = []

    def f(t, x):
        shapes.append((np.shape(t), np.shape(x)))
        return t * x

    # one call, unbroadcast, accepted at the broadcast shape
    assert np.array_equal(_eval_on(f, t, x), t * x)
    assert shapes == [((5,), (2, 5))]


def test_eval_on_falls_back_for_scalar_results():
    t = np.linspace(0.0, 1.0, 5)
    x = np.arange(10.0).reshape(2, 5)
    # a 0-d result is never broadcast: it is evaluated again per element
    assert np.array_equal(_eval_on(lambda t, x: 0.0, t, x), np.zeros((2, 5)))
    assert np.array_equal(_eval_on(lambda t, x: np.sum(t + x), t, x), t + x)
    # scalar-only callables raise on arrays and are evaluated per element
    got = _eval_on(lambda t, x: math.pow(t, 2) + float(x), t, x)
    assert np.array_equal(got, t**2 + x)
    # a result of another shape is not accepted either
    calls = []

    def row_sum(t, x):
        calls.append(np.shape(x))
        return np.sum(x, axis=-1)

    assert np.array_equal(_eval_on(row_sum, t, x), x)
    assert calls[0] == (2, 5) and len(calls) == 11


def _f1_scalar(t):
    return 2.0 / gamma(2.5) * math.pow(t, 1.5)


SCALAR_ONLY = {
    "ex1": (
        example1_problem(),
        LagrangianSpec(
            L=lambda t, x, xd, d: math.pow(d - _f1_scalar(t), 2),
            dL_dx=lambda t, x, xd, d: 0.0,
            dL_dxdot=lambda t, x, xd, d: 0.0,
            dL_ddalpha=lambda t, x, xd, d: float(2.0 * (d - _f1_scalar(t))),
        ),
    ),
    "ex3": (
        example3_problem(),
        LagrangianSpec(
            L=lambda t, x, xd, d: math.pow(d - float(example3_phi(t)), 4),
            dL_dx=lambda t, x, xd, d: 0.0,
            dL_dxdot=lambda t, x, xd, d: 0.0,
            dL_ddalpha=lambda t, x, xd, d: 4.0 * math.pow(d - float(example3_phi(t)), 3),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SCALAR_ONLY))
@pytest.mark.parametrize("n", [12, 24])
def test_scalar_only_lagrangian_solves_like_catalog(name, n):
    problem, lag = SCALAR_ONLY[name]
    scalar_problem = dataclasses.replace(problem, lagrangian=lag)
    linear = name == "ex1"
    expect = solve_direct(problem, n, linear=linear).values
    got = solve_direct(scalar_problem, n, linear=linear).values
    assert np.max(np.abs(got - expect)) <= 1e-10


# ---------------------------------------------------------------------------
# solves and convergence
# ---------------------------------------------------------------------------


def test_example1_convergence():
    problem, exact = CATALOG["ex1"]
    errs = []
    for n in (5, 10, 20, 40):
        curve = solve_direct(problem, n, linear=True)
        errs.append(max_error(curve, exact_curve(curve.mesh, exact)))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_example2_convergence():
    problem, exact = CATALOG["ex2"]
    errs = []
    for n in (5, 10, 20, 40):
        curve = solve_direct(problem, n, linear=True)
        errs.append(max_error(curve, exact_curve(curve.mesh, exact)))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_boundary_values_bit_exact():
    for name in sorted(CATALOG):
        problem, _ = CATALOG[name]
        curve = solve_direct(problem, 12, linear=(name != "ex3"), max_iter=200)
        assert curve.values[0] == problem.x_a
        assert curve.values[-1] == problem.x_b


def test_zero_lagrangian_returns_initial_guess():
    lag = LagrangianSpec(
        L=lambda t, x, xd, d: 0.0,
        dL_dx=lambda t, x, xd, d: 0.0,
        dL_dxdot=lambda t, x, xd, d: 0.0,
        dL_ddalpha=lambda t, x, xd, d: 0.0,
    )
    problem = DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag)
    curve = solve_direct(problem, 10)
    assert np.allclose(curve.values, Mesh(0.0, 1.0, 10).nodes())


def test_newton_nonconvergence_raises():
    with pytest.raises(NewtonConvergenceError):
        solve_direct(example3_problem(), 10, newton_tol=1e-30, max_iter=2)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_newton_tol_not_finite_and_positive_raises(name, tol):
    # an infinite tol accepted the linear interpolant as the solution, a
    # non-positive or nan one ran out the iteration budget
    with pytest.raises(ValueError, match="newton_tol must be finite and > 0"):
        solve_direct(CATALOG[name][0], 10, newton_tol=tol, linear=(name == "ex1"))


def test_newton_raises_when_halving_cannot_reduce_residual():
    # |1 + x^2| has its minimum 1 at x = 0, with a vanishing Jacobian: the
    # Newton step overshoots and no damping of it lowers the residual norm
    calls = []

    def residual(x):
        calls.append(x.copy())
        return 1.0 + x**2

    with pytest.raises(NewtonConvergenceError, match="30 halvings"):
        _newton(fd_system(2, residual), np.zeros(1), 1e-10, 50)
    # initial residual, one Jacobian column, 30 damped trials; no step taken
    assert len(calls) == 32


@pytest.mark.parametrize("n", [164, 206, 260])
def test_continuation_converges_within_default_budget(n):
    # from the linear interpolant the exact (unfloored) Newton step needs
    # more than the default 50 iterations at these n; the floored one does not
    problem = example3_problem()
    curve = solve_direct(problem, n)
    interior = curve.values[1:-1]
    linear_guess = curve.mesh.nodes()[1:-1]  # x(0) = 0 and x(1) = 1
    reference = _newton(fd_system(n, stationarity(problem, n).residual), linear_guess, 1e-10, 200)
    assert np.max(np.abs(interior - reference)) <= 1e-8
    assert np.max(np.abs(example3_residual(interior, n))) <= 1e-8


# ---------------------------------------------------------------------------
# structured Newton step against the dense forward-difference Newton
# ---------------------------------------------------------------------------


def dense_solve(problem, n, tol=1e-10, max_iter=50):
    """Damped Newton with the forward-difference loop_jacobian only, from the
    interpolated dense solution on n // 2 once n >= 16: without the floor, the
    iteration count from the linear interpolant passes 50 from n = 164 on."""
    t = Mesh(problem.a, problem.b, n).nodes()
    if n >= 16:
        coarse = dense_solve(problem, n // 2, tol, max_iter)
        guess = np.interp(t[1:-1], Mesh(problem.a, problem.b, n // 2).nodes(), coarse)
    else:
        guess = problem.x_a + (problem.x_b - problem.x_a) * (t[1:-1] - problem.a) / (
            problem.b - problem.a
        )
    interior = _newton(fd_system(n, stationarity(problem, n).residual), guess, tol, max_iter)
    return np.concatenate(([problem.x_a], interior, [problem.x_b]))


def newton_steps(caplog):
    """(n, iteration, residual, damping, step kind) of every logged iteration."""
    return [r.args for r in caplog.records
            if r.name == "fracvar.direct" and r.msg.startswith("newton")]


def without_inverse(problem):
    """The problem with Newton started from the linear interpolant."""
    lag = dataclasses.replace(problem.lagrangian, dL_ddalpha_inverse=None)
    return dataclasses.replace(problem, lagrangian=lag)


@pytest.mark.parametrize("n", [16, 41, 103, 260, 400])
def test_example3_structured_matches_dense(n, caplog):
    problem = without_inverse(example3_problem())
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        got = solve_direct(problem, n).values
    assert {step[4] for step in newton_steps(caplog)} == {"structured"}
    # the oracle runs to 1e-13: stopped at 1e-10, the dense solve at n = 400
    # lies 1.1e-10 from its own 1e-13 solution
    assert np.max(np.abs(got - dense_solve(problem, n, tol=1e-13))) <= 1e-10


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [40, 400, 1640])
def test_example1_newton_matches_linear_solve(alpha, n):
    problem = dataclasses.replace(example1_problem(), alpha=alpha)
    newton = solve_direct(problem, n).values
    linear = solve_direct(problem, n, linear=True).values
    assert np.max(np.abs(newton - linear)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("m", [1, 2, 17, 300])
def test_inverse_gl_weights_invert_gl_toeplitz(alpha, m):
    h = 1.0 / (m + 1)
    gl = toeplitz(gl_weights(alpha, m - 1), np.zeros(m)) / h**alpha
    inverse = toeplitz(_binomial_weights(-alpha, m - 1), np.zeros(m)) * h**alpha
    assert np.max(np.abs(inverse @ gl - np.eye(m))) <= 1e-13


@pytest.mark.parametrize("n", [413, 655, 1310, 2621, 4160])
def test_example3_large_n_within_default_budget(n, caplog):
    # Newton from the linear interpolant: with its inverse, ex3 starts at
    # the reduced-coordinate minimizer and Newton has nothing to do
    problem = without_inverse(example3_problem())
    tracemalloc.start()
    try:
        with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
            curve = solve_direct(problem, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(example3_residual(curve.values[1:-1], n))) <= 1e-8
    per_level = {}
    for step in newton_steps(caplog):
        per_level[step[0]] = per_level.get(step[0], 0) + 1
    assert n in per_level and max(per_level.values()) <= 50
    assert {step[4] for step in newton_steps(caplog)} == {"structured"}
    # the dense G alone takes (n + 1) n 8 bytes = 138 MB at n = 4160
    assert peak < 32 * 2**20


def test_example3_structured_solve_never_builds_dense_g():
    # the dense G alone takes (n + 1) n 8 bytes = 138 MB at n = 4160
    tracemalloc.start()
    try:
        solve_direct(example3_problem(), 4160)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# reduced-coordinate start for Lagrangians of (t, D^alpha x)
# ---------------------------------------------------------------------------


def start_records(caplog):
    """(n, root iterations, z, start residual) of every logged reduced start."""
    return [r.args for r in caplog.records
            if r.name == "fracvar.direct" and r.msg.startswith("reduced start")]


@pytest.mark.parametrize("n", [16, 41, 103, 260, 400])
def test_example3_reduced_start_matches_dense(n):
    problem = example3_problem()
    start = stationarity(problem, n).start()
    # Newton from the linear interpolant, stopped at 1e-10, lies 1.1e-10 away
    assert np.max(np.abs(start - dense_solve(problem, n, tol=1e-13)[1:-1])) <= 1e-12


@pytest.mark.parametrize("n", [10, 80, 4160])
def test_example3_reduced_start_leaves_newton_nothing_to_do(n, caplog):
    problem = example3_problem()
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        curve = solve_direct(problem, n)
    (record,) = [r.args for r in caplog.records if r.name == "fracvar.direct"]
    assert start_records(caplog) == [record]
    got_n, iterations, z, start_residual = record
    assert got_n == n and 0 <= iterations <= 6
    assert start_residual < 1e-10
    assert np.array_equal(curve.values[1:-1], stationarity(problem, n).start())
    # z is D^alpha x at t_n of the returned curve
    d_n = gl_weights(problem.alpha, n)[::-1] @ curve.values / (1.0 / n) ** problem.alpha
    assert abs(d_n - z) <= 1e-12 * abs(z)


def _cosh_target(t):
    return np.sin(3.0 * t) + t


def cosh_problem(alpha, inverse):
    """L = cosh(D^alpha x - g(t)): convex in D, without a closed-form minimizer."""
    lag = LagrangianSpec(
        L=lambda t, x, xd, d: np.cosh(d - _cosh_target(t)),
        dL_dx=lambda t, x, xd, d: 0.0 * d,
        dL_dxdot=lambda t, x, xd, d: 0.0 * d,
        dL_ddalpha=lambda t, x, xd, d: np.sinh(d - _cosh_target(t)),
        dL_ddalpha_inverse=inverse,
    )
    return DirectProblem(0.0, 1.0, 0.0, 1.0, alpha, lag)


def _cosh_inverse(t, mu):
    return _cosh_target(t) + np.arcsinh(mu)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [40, 1640])
def test_reduced_start_matches_newton_on_non_catalog_lagrangian(alpha, n, caplog):
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        got = solve_direct(cosh_problem(alpha, _cosh_inverse), n).values
    assert len(start_records(caplog)) == 1
    reference = solve_direct(cosh_problem(alpha, None), n).values
    assert np.max(np.abs(got - reference)) <= 1e-10


#: Wrong inverses that are right at mu = 0, so that the bracket still holds
WRONG_INVERSES = {
    "doubled": lambda t, mu: _cosh_target(t) + 2.0 * np.arcsinh(mu),
    "third": lambda t, mu: _cosh_target(t) + np.arcsinh(mu) / 3.0,
    "cube-root": lambda t, mu: _cosh_target(t) + np.cbrt(mu),
}


@pytest.mark.parametrize("name", sorted(WRONG_INVERSES))
@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n", [40, 400])
def test_wrong_inverse_costs_iterations_never_values(name, alpha, n):
    # each of these converges; a wrong inverse can also end in ValueError
    # (see test_reduced_start_without_sign_change_raises) or
    # NewtonConvergenceError where Newton from the interpolant converges
    reference = solve_direct(cosh_problem(alpha, None), n).values
    got = solve_direct(cosh_problem(alpha, WRONG_INVERSES[name]), n).values
    assert np.max(np.abs(got - reference)) <= 1e-10


def test_newton_from_reduced_start_keeps_its_budget():
    # this wrong inverse leaves Newton 4 iterations to do
    with pytest.raises(NewtonConvergenceError, match="within 2 iterations"):
        solve_direct(cosh_problem(0.5, WRONG_INVERSES["doubled"]), 40, max_iter=2)


def test_wrong_inverse_on_example3_gives_newton_answer():
    lag = dataclasses.replace(
        example3_problem().lagrangian,
        dL_ddalpha_inverse=lambda t, mu: example3_phi(t) + 2.0 * np.cbrt(mu / 4.0),
    )
    problem = dataclasses.replace(example3_problem(), lagrangian=lag)
    reference = solve_direct(without_inverse(problem), 40).values
    assert np.max(np.abs(solve_direct(problem, 40).values - reference)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_reduced_start_without_sign_change_raises(alpha):
    # with a decreasing "inverse", c + q.y(z) - z has the sign of
    # z_coupled - z_free at both ends of the bracket
    problem = cosh_problem(alpha, lambda t, mu: _cosh_target(t) - np.arcsinh(mu))
    with pytest.raises(ValueError, match="no sign change"):
        solve_direct(problem, 40)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [5, 40, 410])
def test_linear_solve_ignores_inverse(alpha, n):
    problem = dataclasses.replace(example1_problem(), alpha=alpha)
    inverse = lambda t, mu: direct._f1(t) + mu / 2.0  # dL_ddalpha = 2 (D - f1(t))
    lag = dataclasses.replace(problem.lagrangian, dL_ddalpha_inverse=inverse)
    with_inverse = dataclasses.replace(problem, lagrangian=lag)
    plain = solve_direct(problem, n, linear=True).values
    assert np.array_equal(solve_direct(with_inverse, n, linear=True).values, plain)


def _target(t):
    return np.sin(3.0 * t)


COUPLED = {
    # D^alpha and x both couple the stationarity conditions
    "x": LagrangianSpec(
        L=lambda t, x, xd, d: (d - _target(t)) ** 2 + x**4,
        dL_dx=lambda t, x, xd, d: 4.0 * x**3,
        dL_dxdot=lambda t, x, xd, d: 0.0 * d,
        dL_ddalpha=lambda t, x, xd, d: 2.0 * (d - _target(t)),
    ),
    "xdot": LagrangianSpec(
        L=lambda t, x, xd, d: (d - _target(t)) ** 4 + xd**2,
        dL_dx=lambda t, x, xd, d: 0.0 * d,
        dL_dxdot=lambda t, x, xd, d: 2.0 * xd,
        dL_ddalpha=lambda t, x, xd, d: 4.0 * (d - _target(t)) ** 3,
    ),
}


PROBLEMS = {name: problem for name, (problem, _) in CATALOG.items()} | {
    name: DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag) for name, lag in COUPLED.items()
}


def with_xdot(problem, eps=1e-30):
    """The problem with eps (x')^2 added to L: a real but negligible x'
    coupling, so that every Newton step is dense."""
    lag = problem.lagrangian
    coupled = dataclasses.replace(
        lag,
        L=lambda t, x, xd, d: lag.L(t, x, xd, d) + eps * xd * xd,
        dL_dxdot=lambda t, x, xd, d: lag.dL_dxdot(t, x, xd, d) + 2.0 * eps * xd,
    )
    return dataclasses.replace(problem, lagrangian=coupled)


def floor_term(problem, n, interior):
    """G^T diag(max(L_DD, f mean L_DD) - L_DD) G with f = STRUCTURED_FLOOR
    (zero unless L_DD >= 0 with a positive mean): what the floor adds to the
    Newton matrix.  L_DD by forward differences of dL_ddalpha, one node at a
    time, G on the interior nodes by scipy's toeplitz."""
    h = (problem.b - problem.a) / n
    t = problem.a + np.arange(n + 1) * h
    x = np.concatenate(([problem.x_a], interior, [problem.x_b]))
    xdot = np.concatenate(([0.0], np.diff(x) / h))
    g = toeplitz(gl_weights(problem.alpha, n), np.zeros(n + 1)) / h**problem.alpha
    d = g @ x
    l_dd = np.empty(n)
    for i in range(1, n + 1):
        step = math.sqrt(np.finfo(float).eps) * (1.0 + abs(d[i]))
        args = (t[i], x[i], xdot[i])
        partial = problem.lagrangian.dL_ddalpha
        l_dd[i - 1] = (partial(*args, d[i] + step) - partial(*args, d[i])) / step
    mean = l_dd.mean()
    if not (mean > 0.0 and l_dd.min() >= 0.0):
        return 0.0
    g = g[1:, 1:-1]
    return g.T @ ((np.maximum(l_dd, STRUCTURED_FLOOR * mean) - l_dd)[:, None] * g)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("n", [2, 3, 12, 40])
def test_dense_step_matches_loop_jacobian(name, n):
    problem = PROBLEMS[name]
    # a Lagrangian coupled through x' always takes the dense step
    system = stationarity(with_xdot(problem), n)
    x = np.random.default_rng(7 * n).uniform(-1.0, 2.0, n - 1)
    r = system.residual(x)
    step, kind, floored = system.step(x, r)
    jac = loop_jacobian(system.residual, x, r) + floor_term(problem, n, x)
    assert kind == "dense"
    assert floored == (name in ("ex1", "ex3", "x", "xdot"))
    # a backward error: the Newton matrices agree to about 1e-8, but at
    # ex3, n = 40 (condition 8e4) -solve(jac, r) itself lies 1e-4 from the
    # exact Newton step, and the dense step 4e-7
    defect = np.max(np.abs(jac @ step + r))
    assert defect <= 1e-6 * np.linalg.norm(jac, np.inf) * np.max(np.abs(step))


@pytest.mark.parametrize("name", sorted(COUPLED))
def test_coupled_lagrangians_take_dense_step(name, caplog):
    problem = DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, COUPLED[name])
    n = 40
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        curve = solve_direct(problem, n)
    steps = newton_steps(caplog)
    assert steps and {step[4] for step in steps} == {"dense"}
    assert np.max(np.abs(stationarity(problem, n).residual(curve.values[1:-1]))) < 1e-10
    assert np.max(np.abs(curve.values - dense_solve(problem, n))) <= 1e-10


@pytest.mark.parametrize("name", ["ex3", "xdot"])
def test_solve_direct_is_one_newton_run_from_linear_interpolant(name, monkeypatch):
    problem = without_inverse(PROBLEMS[name])
    n = 40
    calls = []
    original = direct.solve_direct

    def spy(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(direct, "solve_direct", spy)
    curve = spy(problem, n)
    assert calls == [n]
    linear_guess = curve.mesh.nodes()[1:-1]  # x(0) = 0 and x(1) = 1
    reference = _newton(stationarity(problem, n), linear_guess, 1e-10, 50)
    assert np.array_equal(curve.values[1:-1], reference)


@pytest.mark.parametrize("n", [164, 413])
def test_floored_dense_step_converges_within_default_budget(n, caplog):
    # without the floor, the dense step from the linear interpolant stops at
    # n = 164 after 50 iterations with the residual at 1.2e-3
    problem = with_xdot(without_inverse(example3_problem()))
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        curve = solve_direct(problem, n)
    steps = newton_steps(caplog)
    assert len(steps) <= 50 and {(step[0], step[4]) for step in steps} == {(n, "dense")}
    assert [step[1] for step in steps] == list(range(1, len(steps) + 1))
    assert np.max(np.abs(example3_residual(curve.values[1:-1], n))) <= 1e-8


@pytest.mark.parametrize("linear", [False, True])
def test_solve_direct_keeps_xdot_dependence(linear):
    # dropping the x' term of the xdot Lagrangian returns x(0.5) = 0.2495
    # (0.4898 with it), a point that does not even minimize Psi
    lag = COUPLED["xdot"]
    if linear:  # a quadratic variant, so the affine check passes
        lag = dataclasses.replace(
            lag,
            L=lambda t, x, xd, d: (d - _target(t)) ** 2 + xd**2,
            dL_ddalpha=lambda t, x, xd, d: 2.0 * (d - _target(t)),
        )
    problem = DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag)
    assert solve_direct(problem, 40, linear=linear).values[20] > 0.4


def test_newton_logs_one_record_per_iteration(caplog):
    problem = example3_problem()
    n = 12
    system = stationarity(problem, n)
    counted = []
    counting = dataclasses.replace(system, residual=lambda x: counted.append(1) or system.residual(x))
    guess = Mesh(0.0, 1.0, n).nodes()[1:-1]
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        x = _newton(counting, guess, 1e-10, 50)
    steps = newton_steps(caplog)
    assert [step[1] for step in steps] == list(range(1, len(steps) + 1))
    assert all(step[0] == n and step[4] == "structured" for step in steps)
    assert all(0.0 < step[3] <= 1.0 for step in steps)
    assert steps[-1][2] == np.max(np.abs(system.residual(x))) < 1e-10
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    # Newton evaluates the residual through the system it was handed
    assert len(counted) >= len(steps) + 1


def test_newton_logs_nothing_above_debug(caplog, monkeypatch):
    calls = []
    monkeypatch.setattr(direct.LOG, "debug", lambda *args: calls.append(args))
    with caplog.at_level(logging.INFO, logger="fracvar.direct"):
        solve_direct(example3_problem(), 12)
    assert calls == []


def test_bare_residual_takes_dense_step(caplog):
    # Newton logs the step kind that the system's step returns
    system = stationarity(example3_problem(), 12)
    guess = Mesh(0.0, 1.0, 12).nodes()[1:-1]
    with caplog.at_level(logging.DEBUG, logger="fracvar.direct"):
        x = _newton(fd_system(12, system.residual), guess, 1e-10, 50)
    assert {step[4] for step in newton_steps(caplog)} == {"dense"}
    assert np.max(np.abs(system.residual(x))) < 1e-10


def test_stationarity_system_survives_replace():
    system = stationarity(example3_problem(), 12)
    replaced = dataclasses.replace(system, residual=system.residual)
    assert isinstance(replaced, StationaritySystem)
    assert replaced.step is system.step
    assert replaced.psi is system.psi
    with pytest.raises(TypeError):
        StationaritySystem(12, system.residual)  # the step is required


@pytest.mark.parametrize("n", [10, 20])
def test_linear_solve_rejects_nonaffine_example3(n):
    with pytest.raises(NonAffineSystemError):
        solve_direct(example3_problem(), n, linear=True)


def test_linear_solve_peak_memory():
    # the probe of residual(eye(m)) peaked at 153 MB here; the Newton matrix
    # needs G, C = diag(L_DD) G, J and the product G^T C, 21.5 MB each
    tracemalloc.start()
    try:
        solve_direct(example1_problem(), 1640, linear=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_linear_solve_calls_scalar_lagrangian_linearly():
    # a scalar-only partial is evaluated once per node and probe: one call
    # per column of the probed Jacobian made 160,403 calls at n = 400
    problem, scalar = SCALAR_ONLY["ex1"]
    calls = []

    def dL_ddalpha(*args):
        calls.append(1)
        return scalar.dL_ddalpha(*args)

    counting = dataclasses.replace(scalar, dL_ddalpha=dL_ddalpha)
    n = 400
    curve = solve_direct(dataclasses.replace(problem, lagrangian=counting), n, linear=True)
    assert len(calls) <= 10 * n
    expect = solve_direct(problem, n, linear=True).values
    assert np.max(np.abs(curve.values - expect)) <= 1e-10


# ---------------------------------------------------------------------------
# dedicated assemblies
# ---------------------------------------------------------------------------


def test_example1_system_structure():
    n = 8
    h = 1.0 / n
    mat, _ = example1_system(n)
    A = np.array([(-1.0) ** i * h**1.5 * gen_binomial(0.5, i) for i in range(n + 1)])
    assert A[0] == pytest.approx(h**1.5, rel=1e-14)
    assert mat[0, 0] == pytest.approx(np.sum(A[:n] ** 2), rel=1e-13)
    assert np.allclose(mat, mat.T, atol=1e-15)


# n = 2 and 160 also pin the affinity check of linear=True at both ends
@pytest.mark.parametrize("n", [2, 12, 40, 160])
def test_example1_system_matches_generic_solver(n):
    mat, rhs = example1_system(n)
    dedicated = np.linalg.solve(mat, rhs)
    generic = solve_direct(example1_problem(), n, linear=True)
    assert np.max(np.abs(dedicated - generic.values[1:-1])) <= 1e-8


def test_example2_system_structure():
    n = 10
    h = 1.0 / n
    mat, rhs = example2_system(n)
    assert np.all(np.diag(mat) == 2.0)
    assert np.all(np.diag(mat, 1) == -1.0)
    assert np.all(np.diag(mat, -1) == -1.0)
    # the last row is boundary-adjusted by +x_n = 1
    w = [(-1.0) ** k * gen_binomial(0.5, k) for k in range(2)]
    assert rhs[-1] == pytest.approx(0.5 * h**1.5 * sum(w) + 1.0, rel=1e-13)


# n = 2 and 160 also pin the affinity check of linear=True at both ends
@pytest.mark.parametrize("n", [2, 12, 40, 160])
def test_example2_system_matches_generic_solver(n):
    mat, rhs = example2_system(n)
    dedicated = np.linalg.solve(mat, rhs)
    generic = solve_direct(example2_problem(), n, linear=True)
    assert np.max(np.abs(dedicated - generic.values[1:-1])) <= 1e-8


def test_example2_system_converges_to_analytic():
    errs = []
    for n in (10, 40):
        mat, rhs = example2_system(n)
        x = np.concatenate(([0.0], np.linalg.solve(mat, rhs), [1.0]))
        mesh = Mesh(0.0, 1.0, n)
        errs.append(
            max_error(
                SampledCurve(mesh, x),
                exact_curve(mesh, lambda t: analytic_solution_example2(0.5, t)),
            )
        )
    assert errs[1] < errs[0]


def test_example3_phi_is_derivative_of_minimizer():
    # phi must equal D^{1/2} of 16t^5 - 20t^3 + 5t by the power rule
    for t in (0.3, 0.7, 1.0):
        expect = (
            16.0 * gamma(6.0) / gamma(5.5) * t**4.5
            - 20.0 * gamma(4.0) / gamma(3.5) * t**2.5
            + 5.0 / gamma(1.5) * t**0.5
        )
        assert example3_phi(t) == pytest.approx(expect, rel=1e-14)


def test_example3_phi_bits_match_the_inline_formula():
    # hoisted coefficients: same operation order, so the same bits on arrays
    t = np.linspace(0.0, 1.0, 4097)
    inline = (
        16.0 * gamma(6.0) / gamma(5.5) * t**4.5
        - 20.0 * gamma(4.0) / gamma(3.5) * t**2.5
        + 5.0 / gamma(1.5) * t**0.5
    )
    assert np.array_equal(example3_phi(t), inline)


def test_example3_residual_formula_oracle():
    # independent re-evaluation of the residual formula with explicit loops
    n = 8
    h = 1.0 / n
    rng = np.random.default_rng(9)
    xin = rng.standard_normal(n - 1)
    x = np.concatenate(([0.0], xin, [1.0]))
    w = [(-1.0) ** k * gen_binomial(0.5, k) for k in range(n + 1)]
    expected = []
    for j in range(1, n):
        total = 0.0
        for i in range(j, n + 1):
            d = sum(w[k] * x[i - k] for k in range(i + 1)) / h**0.5
            total += w[i - j] * (d - example3_phi(i * h)) ** 3
        expected.append(total)
    got = example3_residual(xin, n)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_example3_residual_vanishes_at_minimizer_under_refinement():
    norms = []
    for n in (10, 20, 40):
        t = Mesh(0.0, 1.0, n).nodes()
        norms.append(np.max(np.abs(example3_residual(example3_minimizer(t[1:-1]), n))))
    assert norms[0] > norms[1] > norms[2]


def test_example3_newton_converges_at_n30():
    problem, exact = CATALOG["ex3"]
    curve = solve_direct(problem, 30, newton_tol=1e-10, max_iter=200)
    err = max_error(curve, exact_curve(curve.mesh, exact))
    assert err < 0.5  # discrete minimizer, first-order scheme on a quintic


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------


def window_max(residual_curve, lo=0.1, hi=0.9):
    t = residual_curve.mesh.nodes()
    mask = (t >= lo) & (t <= hi)
    return float(np.max(np.abs(residual_curve.values[mask])))


def test_el_residual_zero_lagrangian():
    lag = LagrangianSpec(
        L=lambda t, x, xd, d: 0.0,
        dL_dx=lambda t, x, xd, d: 0.0,
        dL_dxdot=lambda t, x, xd, d: 0.0,
        dL_ddalpha=lambda t, x, xd, d: 0.0,
    )
    problem = DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag)
    mesh = Mesh(0.0, 1.0, 20)
    res = euler_lagrange_residual(SampledCurve(mesh, mesh.nodes()), problem)
    assert np.all(res.values == 0.0)


def test_el_residual_example1_decreases_at_minimizer():
    # the solution's second derivative and the right-sided operator are both
    # unbounded at the right endpoint, so convergence is measured on a fixed
    # interior window
    problem, exact = CATALOG["ex1"]
    vals = []
    for n in (20, 40, 80):
        mesh = Mesh(0.0, 1.0, n)
        res = euler_lagrange_residual(exact_curve(mesh, exact), problem)
        vals.append(window_max(res))
    assert vals[0] > vals[1] > vals[2]


def test_el_residual_example2_decreases_at_analytic_solution():
    problem, exact = CATALOG["ex2"]
    vals = []
    for n in (20, 40, 80):
        mesh = Mesh(0.0, 1.0, n)
        res = euler_lagrange_residual(exact_curve(mesh, exact), problem)
        vals.append(window_max(res))
    assert vals[0] > vals[1] > vals[2]


def test_el_residual_of_direct_solution_decreases():
    problem, _ = CATALOG["ex2"]
    vals = []
    for n in (20, 40, 80):
        curve = solve_direct(problem, n, linear=True)
        vals.append(window_max(euler_lagrange_residual(curve, problem)))
    assert vals[0] > vals[1] > vals[2]


def test_el_residual_interval_mismatch():
    problem, _ = CATALOG["ex1"]
    mesh = Mesh(0.0, 2.0, 10)
    with pytest.raises(ValueError):
        euler_lagrange_residual(SampledCurve(mesh, np.zeros(11)), problem)
