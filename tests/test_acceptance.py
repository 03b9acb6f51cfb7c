"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; runtime budgets are asserted where
stated.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from fracvar.direct import (
    discretize,
    example1_problem,
    example2_problem,
    example3_minimizer,
    example3_problem,
    solve_direct,
    stationarity,
)
from fracvar.expansions import (
    DerivativeBundle,
    b_table,
    bound_hadamard,
    bound_integer,
    bound_moment,
    expand_integer,
    expand_moment,
    moment_coeffs,
)
from fracvar.indirect import (
    analytic_solution_example2,
    assemble_tpbvp_example2,
    assemble_tpbvp_example4,
    exact_solution_example4,
    solve_example2_integer,
    solve_example2_moment_closed,
    solve_linear_tpbvp,
)
from fracvar.operators import (
    Mesh,
    SampledCurve,
    diethelm_caputo_all,
    gl_left_all,
    hadamard_logpow_exact,
    l2_error,
    max_error,
    rl_exp_exact,
    rl_power_exact,
)
from fracvar.specfun import gamma, gen_binomial, mittag_leffler, stirling_function

from direct_oracles import example1_system, example2_system, example3_residual

#: max interior error of the n=40 Example 1 dense solve (example1_system
#: oracle), recorded on the first verified run: 0.004950149730462816
EX1_N40_GOLDEN = 0.0049502

#: absolute slack on bound dominance, absorbing quadrature/roundoff where the
#: analytic bound is zero or near machine scale
SLACK = 1e-8


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {num} [{name}]: FAIL (runtime {elapsed:.2f}s >= {budget}s)")
        raise AssertionError(f"criterion {num} exceeded runtime budget")
    print(f"ACCEPTANCE {num} [{name}]: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# reference data
# ---------------------------------------------------------------------------

TABLE_ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
TABLE_NS = [4, 7, 15, 30, 70, 120, 170]
TABLE_B = {
    0.1: [0.0310, 0.0188, 0.0095, 0.0051, 0.0024, 0.0015, 0.0011],
    0.3: [0.1357, 0.0928, 0.0549, 0.0339, 0.0188, 0.0129, 0.0101],
    0.5: [0.3085, 0.2364, 0.1630, 0.1157, 0.0760, 0.0581, 0.0488],
    0.7: [0.5519, 0.4717, 0.3783, 0.3083, 0.2396, 0.2040, 0.1838],
    0.9: [0.8470, 0.8046, 0.7481, 0.6990, 0.6428, 0.6092, 0.5884],
    0.99: [0.9849, 0.9799, 0.9728, 0.9662, 0.9582, 0.9531, 0.9498],
}


def power_bundle(m, order=11):
    def deriv(k):
        if k > m:
            return lambda t: 0.0
        c = math.factorial(m) / math.factorial(m - k)
        return lambda t, c=c, e=m - k: c * t**e

    return DerivativeBundle(tuple(deriv(k) for k in range(order + 1)))


def exp2_bundle(order=11):
    return DerivativeBundle(
        tuple(
            (lambda k: (lambda t, k=k: 2.0**k * math.exp(2.0 * t)))(k)
            for k in range(order + 1)
        )
    )


def lnt_hadamard_exact(alpha, t):
    return hadamard_logpow_exact(1.0, alpha, t)


def t4_hadamard_exact(alpha, t):
    return math.log(t) ** (-alpha) * mittag_leffler(1.0, 1.0 - alpha, 4.0 * math.log(t))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_table_reproduction():
    with criterion(1, "Table of B(alpha, N), all 42 entries to 5e-5", budget=1.0):
        table = b_table(TABLE_ALPHAS, TABLE_NS)
        for i, alpha in enumerate(TABLE_ALPHAS):
            for j in range(len(TABLE_NS)):
                assert abs(table[i, j] - TABLE_B[alpha][j]) <= 5e-5, (
                    alpha,
                    TABLE_NS[j],
                    table[i, j],
                )


def test_criterion_02_integer_expansion_exactness():
    with criterion(2, "integer expansion of t^4 exact at N=4", budget=1.0):
        bundle = power_bundle(4)
        for t in np.linspace(0.1, 1.0, 19):
            exact = gamma(5.0) / gamma(4.5) * t**3.5
            assert abs(expand_integer(bundle, 0.5, 4, t, 0.0) - exact) <= 1e-9


def _gl_max_interior_error(n):
    curve = SampledCurve.from_function(Mesh(0.0, 1.0, n), lambda t: t * t)
    d = gl_left_all(curve, 0.5)
    t = curve.mesh.nodes()
    return max(abs(d[i] - rl_power_exact(2.0, 0.5, t[i], 0.0)) for i in range(1, n))


def test_criterion_03_gl_first_order():
    with criterion(3, "GL halving ratios in [1.6, 2.4]", budget=5.0):
        e100, e200, e400 = (_gl_max_interior_error(n) for n in (100, 200, 400))
        assert 1.6 <= e100 / e200 <= 2.4
        assert 1.6 <= e200 / e400 <= 2.4


def _diethelm_max_interior_error(n):
    curve = SampledCurve.from_function(Mesh(0.0, 1.0, n), lambda t: t * t)
    d = diethelm_caputo_all(curve, 0.5, [0.0])
    t = curve.mesh.nodes()
    return max(abs(d[i] - rl_power_exact(2.0, 0.5, t[i], 0.0)) for i in range(1, n))


def test_criterion_04_diethelm_order():
    with criterion(4, "Diethelm observed order >= 1.3", budget=5.0):
        order = math.log2(
            _diethelm_max_interior_error(100) / _diethelm_max_interior_error(200)
        )
        assert order >= 1.3


def test_criterion_05_bound_dominance():
    rl_cases = {
        "t2": (
            lambda t: t * t,
            lambda t: 2.0 * t,
            power_bundle(2),
            lambda al, t: rl_power_exact(2.0, al, t, 0.0),
            lambda N, t: 0.0 if N + 1 > 2 else 2.0,
            lambda t: 2.0,
        ),
        "t4": (
            lambda t: t**4,
            lambda t: 4.0 * t**3,
            power_bundle(4),
            lambda al, t: rl_power_exact(4.0, al, t, 0.0),
            lambda N, t: 0.0
            if N + 1 > 4
            else math.factorial(4) / math.factorial(3 - N) * t ** (3 - N),
            lambda t: 12.0 * t * t,
        ),
        "exp2t": (
            lambda t: np.exp(2.0 * t),
            lambda t: 2.0 * np.exp(2.0 * t),
            exp2_bundle(),
            lambda al, t: rl_exp_exact(2.0, al, t),
            lambda N, t: 2.0 ** (N + 1) * math.exp(2.0 * t),
            lambda t: 4.0 * math.exp(2.0 * t),
        ),
    }
    had_cases = {
        "lnt": (
            np.log,
            lambda t: 1.0 / t,
            lnt_hadamard_exact,
            lambda t: 0.0,
            20000,
        ),
        "t4": (
            lambda t: t**4,
            lambda t: 4.0 * t**3,
            t4_hadamard_exact,
            lambda t: 16.0 * t**3,
            4000,
        ),
    }
    with criterion(5, "truncation bounds dominate on the full matrix", budget=10.0):
        grid = np.linspace(0.0, 1.0, 21)[1:]
        for name, (x, xd, bundle, exact, m_env, l2_env) in rl_cases.items():
            for alpha in (0.3, 0.5, 0.7):
                for N in range(2, 11):
                    coeffs = moment_coeffs(alpha, N)
                    for t in grid:
                        ex = exact(alpha, t)
                        err = abs(expand_integer(bundle, alpha, N, t, 0.0) - ex)
                        assert err <= bound_integer(m_env(N, t), alpha, N, t, 0.0) + SLACK, (
                            "integer", name, alpha, N, t,
                        )
                        err = abs(expand_moment(x, xd, coeffs, t, 0.0, 4000) - ex)
                        assert err <= bound_moment(l2_env(t), alpha, N, t, 0.0) + SLACK, (
                            "moment", name, alpha, N, t,
                        )
        hgrid = np.linspace(1.0, 2.0, 21)[1:]
        for name, (x, xd, exact, lmax_env, quad_n) in had_cases.items():
            for alpha in (0.3, 0.5, 0.7):
                for N in range(2, 11):
                    hc = moment_coeffs(alpha, N)
                    for t in hgrid:
                        err = abs(
                            expand_moment(x, xd, hc, t, 1.0, quad_n, hadamard=True)
                            - exact(alpha, t)
                        )
                        assert err <= bound_hadamard(lmax_env(t), alpha, N, t, 1.0) + SLACK, (
                            "hadamard", name, alpha, N, t,
                        )


def _direct_errors(problem, exact, ns, linear=True):
    errs = []
    for n in ns:
        curve = solve_direct(problem, n, linear=linear, max_iter=200)
        ref = SampledCurve(curve.mesh, np.array([exact(t) for t in curve.mesh.nodes()]))
        errs.append(max_error(curve, ref))
    return errs


def test_criterion_06_direct_example1():
    with criterion(6, "Example 1 converges; n=40 at the dense-solve golden", budget=10.0):
        errs = _direct_errors(example1_problem(), lambda t: t * t, (5, 10, 20, 40))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= EX1_N40_GOLDEN
        # golden provenance: the dedicated dense assembly reproduces it
        mat, rhs = example1_system(40)
        x = np.concatenate(([0.0], np.linalg.solve(mat, rhs), [1.0]))
        mesh = Mesh(0.0, 1.0, 40)
        oracle_err = max_error(
            SampledCurve(mesh, x), SampledCurve(mesh, mesh.nodes() ** 2)
        )
        assert oracle_err <= EX1_N40_GOLDEN


def test_criterion_07_direct_example2():
    with criterion(7, "Example 2 matches its dedicated system and converges", budget=10.0):
        problem = example2_problem()
        mat, rhs = example2_system(40)
        dedicated = np.linalg.solve(mat, rhs)
        generic = solve_direct(problem, 40, linear=True)
        assert np.max(np.abs(dedicated - generic.values[1:-1])) <= 1e-8
        errs = _direct_errors(
            problem, lambda t: analytic_solution_example2(0.5, t), (5, 10, 20, 40)
        )
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_criterion_08_direct_example3():
    with criterion(8, "Example 3 Newton converges; residual refines", budget=30.0):
        curve = solve_direct(example3_problem(), 30, newton_tol=1e-10, max_iter=200)
        assert curve.values[0] == 0.0 and curve.values[-1] == 1.0
        norms = []
        for n in (10, 20, 40):
            t = Mesh(0.0, 1.0, n).nodes()
            norms.append(
                np.max(np.abs(example3_residual(example3_minimizer(t[1:-1]), n)))
            )
        assert norms[0] > norms[1] > norms[2]


def test_criterion_09_indirect_negative_result():
    with criterion(9, "integer-route L2 error stays above 0.01 for N <= 6"):
        mesh = Mesh(0.0, 1.0, 1000)
        t = mesh.nodes()
        exact = SampledCurve(
            mesh, np.array([analytic_solution_example2(0.5, s) for s in t])
        )
        for N in range(1, 7):
            x = solve_example2_integer(0.5, N)
            assert l2_error(SampledCurve(mesh, x(t)), exact) > 0.01


def test_criterion_10_indirect_positive_result():
    with criterion(10, "moment-route L2 error decreases over N in {2,4,8}"):
        mesh = Mesh(0.0, 1.0, 1000)
        t = mesh.nodes()
        exact = SampledCurve(
            mesh, np.array([analytic_solution_example2(0.5, s) for s in t])
        )
        errs = []
        for N in (2, 4, 8):
            x = solve_example2_moment_closed(0.5, N)
            assert abs(float(x(0.0))) <= 1e-10
            assert abs(float(x(1.0)) - 1.0) <= 1e-10
            errs.append(l2_error(SampledCurve(mesh, x(t)), exact))
        assert errs[0] > errs[1] > errs[2]


def test_criterion_11_tpbvp_solver_oracle():
    with criterion(11, "collocation matches the closed form; Example 4 improves"):
        mesh = Mesh(0.0, 1.0, 400)
        curves = solve_linear_tpbvp(assemble_tpbvp_example2(0.5, 3), mesh, eps=1e-4)
        closed = solve_example2_moment_closed(0.5, 3)
        assert np.max(np.abs(curves[0].values - closed(mesh.nodes()))) <= 1e-5
        exact4 = SampledCurve(
            mesh, np.array([exact_solution_example4(0.5, t) for t in mesh.nodes()])
        )
        errs = {}
        for N in (2, 4):
            c = solve_linear_tpbvp(assemble_tpbvp_example4(0.5, N), mesh, eps=1e-4)
            errs[N] = l2_error(c[0], exact4)
        assert math.isfinite(errs[2])
        assert errs[4] < errs[2]


def test_criterion_12_property_suites():
    with criterion(12, "property suites at module tolerances", budget=20.0):
        # gamma recurrence
        for i in range(1, 51):
            z = 0.1 * i
            assert abs(gamma(z + 1.0) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1.0))
        # generalized-binomial Pascal identity
        for alpha in (0.3, 0.5, 0.9, 2.5):
            for k in range(1, 21):
                lhs = gen_binomial(alpha, k)
                rhs = gen_binomial(alpha - 1.0, k) + gen_binomial(alpha - 1.0, k - 1)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # Mittag-Leffler reduces to exp; 1e-12 relative with a 1e-12 absolute
        # floor (for z near -5 the alternating series swings through terms of
        # size ~26, so no double-precision summation can do better than
        # ~1e-14 absolute on the 6.7e-3 result)
        for i in range(-10, 11):
            z = 0.5 * i
            diff = abs(mittag_leffler(1.0, 1.0, z) - math.exp(z))
            assert diff <= max(1e-12 * math.exp(z), 1e-12)
        # Stirling function vs second-kind integers
        expected = {
            (1, 1): 1, (2, 1): 1, (2, 2): 1, (3, 1): 1, (3, 2): 3, (3, 3): 1,
            (4, 1): 1, (4, 2): 7, (4, 3): 6, (4, 4): 1,
            (5, 1): 1, (5, 2): 15, (5, 3): 25, (5, 4): 10, (5, 5): 1,
            (6, 1): 1, (6, 2): 31, (6, 3): 90, (6, 4): 65, (6, 5): 15, (6, 6): 1,
        }
        for (m, k), val in expected.items():
            assert abs(stirling_function(float(m), k) - val) <= 1e-10
        # expansion linearity
        rng = np.random.default_rng(1)
        coeffs = moment_coeffs(0.5, 4)
        f, fd = lambda t: t**2, lambda t: 2.0 * t
        g, gd = lambda t: math.sin(t), lambda t: math.cos(t)
        for _ in range(3):
            a, b = rng.uniform(-2.0, 2.0, 2)
            combo = lambda t: a * f(t) + b * g(t)
            combo_d = lambda t: a * fd(t) + b * gd(t)
            lhs = expand_moment(combo, combo_d, coeffs, 0.8, 0.0, 2000)
            rhs = a * expand_moment(f, fd, coeffs, 0.8, 0.0, 2000)
            rhs += b * expand_moment(g, gd, coeffs, 0.8, 0.0, 2000)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        # gradient consistency of the direct discretization
        for problem in (example1_problem(), example2_problem(), example3_problem()):
            for n in (10, 20):
                psi = discretize(problem, n)
                system = stationarity(problem, n)
                h = 1.0 / n
                for _ in range(5):
                    u = rng.uniform(-1.0, 2.0, n - 1)
                    r = system.residual(u)
                    grad = np.empty(n - 1)
                    for j in range(n - 1):
                        e = np.zeros(n - 1)
                        e[j] = 1e-6
                        grad[j] = (psi(u + e) - psi(u - e)) / 2e-6 / h
                    assert np.max(np.abs(r - grad)) <= 1e-6 * max(
                        1.0, np.max(np.abs(grad))
                    )
