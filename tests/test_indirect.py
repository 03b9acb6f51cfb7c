import dataclasses
import math

import numpy as np
import pytest

from fracvar.expansions import DerivativeBundle, integer_coefficient, moment_coeffs, moment_values
from fracvar.indirect import (
    IllConditionedSystemError,
    TpBvpSystem,
    _example2_m1,
    _example2_moment_terms,
    analytic_solution_example2,
    assemble_tpbvp_example2,
    assemble_tpbvp_example4,
    exact_solution_example4,
    solve_example2_integer,
    solve_example2_moment_closed,
    solve_linear_tpbvp,
)
from fracvar.operators import Mesh, SampledCurve, gl_left_all, l2_error
from fracvar.specfun import gamma
from indirect_oracles import HigherOrderLagrangian, higher_order_el_residual

ALPHA = 0.5


def affine(F, g):
    """``coefficients`` of y' = F(t) y + g(t), from F and g at one time."""

    def coefficients(t):
        return np.array([F(s) for s in t], dtype=float), np.array([g(s) for s in t], dtype=float)

    return coefficients


SCALAR_GROWTH = affine(lambda t: [[1.0]], lambda t: [0.0])  # y' = y
IDENTITY_2 = affine(lambda t: np.eye(2), lambda t: np.zeros(2))  # y' = y in R^2


def l2_against(mesh, values, exact):
    ref = SampledCurve(mesh, np.array([exact(t) for t in mesh.nodes()]))
    return l2_error(SampledCurve(mesh, values), ref)


# ---------------------------------------------------------------------------
# analytic solutions
# ---------------------------------------------------------------------------


def test_analytic_solution_example2_boundary():
    for alpha in (0.3, 0.5, 0.9):
        assert analytic_solution_example2(alpha, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert analytic_solution_example2(alpha, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_analytic_solution_example2_second_derivative():
    # x'' = -(1-t)^(-alpha) / (2 Gamma(1-alpha)), checked by central differences
    d = 1e-5
    for t in (0.25, 0.5, 0.75):
        fd = (
            analytic_solution_example2(ALPHA, t + d)
            - 2.0 * analytic_solution_example2(ALPHA, t)
            + analytic_solution_example2(ALPHA, t - d)
        ) / d**2
        exact = -((1.0 - t) ** -ALPHA) / (2.0 * gamma(1.0 - ALPHA))
        assert fd == pytest.approx(exact, rel=1e-5)


def test_exact_solution_example4_boundary():
    for alpha in (0.3, 0.5, 0.9):
        assert exact_solution_example4(alpha, 0.0) == 0.0
        assert exact_solution_example4(alpha, 1.0) == pytest.approx(
            1.0 / gamma(alpha + 1.0), rel=1e-14
        )


def test_exact_solution_example4_has_unit_gl_derivative():
    n = 1000  # h = 1e-3
    curve = SampledCurve.from_function(
        Mesh(0.0, 1.0, n), lambda t: exact_solution_example4(ALPHA, t)
    )
    d = gl_left_all(curve, ALPHA)
    assert d[n // 2] == pytest.approx(1.0, abs=0.02)
    assert d[n] == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# Example 2: integer route (documented negative result)
# ---------------------------------------------------------------------------


def test_integer_route_boundary_structure():
    for N in (0, 2, 5):
        x = solve_example2_integer(ALPHA, N)
        assert float(x(0.0)) == 0.0
        assert float(x(1.0)) == pytest.approx(1.0, rel=1e-13)  # M1 + M2 = 1


def test_integer_route_does_not_converge():
    mesh = Mesh(0.0, 1.0, 1000)
    t = mesh.nodes()
    for N in range(1, 7):
        x = solve_example2_integer(ALPHA, N)
        err = l2_against(mesh, x(t), lambda s: analytic_solution_example2(ALPHA, s))
        assert err > 0.01


# ---------------------------------------------------------------------------
# Example 2: moment route
# ---------------------------------------------------------------------------


def test_moment_closed_form_boundary_exact():
    for N in (2, 4, 8):
        x = solve_example2_moment_closed(ALPHA, N)
        assert abs(float(x(0.0))) <= 1e-10
        assert abs(float(x(1.0)) - 1.0) <= 1e-10


def test_moment_closed_form_l2_decreases():
    mesh = Mesh(0.0, 1.0, 1000)
    t = mesh.nodes()
    errs = []
    for N in (2, 4, 8):
        x = solve_example2_moment_closed(ALPHA, N)
        errs.append(l2_against(mesh, x(t), lambda s: analytic_solution_example2(ALPHA, s)))
    assert errs[0] > errs[1] > errs[2]


def test_moment_closed_form_satisfies_hamiltonian_system():
    # reconstruct lambda_1 from the x' equation and check the lambda_1' ODE
    # with analytic derivatives of the closed form
    N = 3
    mc = moment_coeffs(ALPHA, N)
    m, cp_terms = _example2_moment_terms(ALPHA, N)
    lin = 1.0 - m + float(np.sum(cp_terms))

    def xdot(t):
        out = m * (2.0 - ALPHA) * t ** (1.0 - ALPHA) + lin
        for p in range(2, N + 1):
            out -= cp_terms[p - 2] * p * t ** (p - 1)
        return out

    def xddot(t):
        out = m * (2.0 - ALPHA) * (1.0 - ALPHA) * t**-ALPHA
        for p in range(2, N + 1):
            out -= cp_terms[p - 2] * p * (p - 1) * t ** (p - 2)
        return out

    def lam1(t):
        return mc.B * t ** (1.0 - ALPHA) - 2.0 * xdot(t)

    def lam1dot(t):
        return mc.B * (1.0 - ALPHA) * t**-ALPHA - 2.0 * xddot(t)

    def lam_p(p, t):
        return -mc.c(p) * (t ** (2.0 - p - ALPHA) - 1.0) / (2.0 - p - ALPHA)

    for t in np.linspace(0.1, 0.9, 9):
        rhs = mc.A * t**-ALPHA - sum(
            (1.0 - p) * t ** (p - 2.0) * lam_p(p, t) for p in range(2, N + 1)
        )
        assert abs(lam1dot(t) - rhs) <= 1e-8
    # costates vanish at the right end
    for p in range(2, N + 1):
        assert lam_p(p, 1.0) == 0.0


# ---------------------------------------------------------------------------
# TPBVP systems
# ---------------------------------------------------------------------------


def test_tpbvp_example2_shape_and_conditions():
    N = 4
    system = assemble_tpbvp_example2(ALPHA, N)
    assert system.dimension == 2 * N
    assert (0, 0.0) in system.left_conditions
    assert (0, 1.0) in system.right_conditions
    assert len(system.left_conditions) == N
    assert len(system.right_conditions) == N


def test_tpbvp_example2_costate_rows_decoupled():
    N = 3
    system = assemble_tpbvp_example2(ALPHA, N)
    rng = np.random.default_rng(2)
    t = 0.37
    y1, y2 = rng.standard_normal(2 * N), rng.standard_normal(2 * N)
    d1, d2 = system.rhs(t, y1), system.rhs(t, y2)
    mc = moment_coeffs(ALPHA, N)
    for p in range(2, N + 1):
        expect = -mc.c(p) * t ** (1.0 - p - ALPHA)
        assert d1[N + p - 1] == pytest.approx(expect, rel=1e-13)
        assert d2[N + p - 1] == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("N", [2, 3])
def test_tpbvp_example2_collocation_matches_closed_form(N):
    mesh = Mesh(0.0, 1.0, 400)
    curves = solve_linear_tpbvp(assemble_tpbvp_example2(ALPHA, N), mesh, eps=1e-4)
    x = solve_example2_moment_closed(ALPHA, N)
    assert np.max(np.abs(curves[0].values - x(mesh.nodes()))) <= 1e-5


def test_tpbvp_example4_shape_and_boundary():
    N = 3
    system = assemble_tpbvp_example4(ALPHA, N)
    assert system.dimension == 2 * N
    right = dict(system.right_conditions)
    assert right[0] == pytest.approx(1.1283791670955126, rel=1e-13)  # 1/Gamma(1.5)
    assert all(right[N + p - 1] == 0.0 for p in range(2, N + 1))


def test_tpbvp_example4_exact_solution_near_solves_system():
    # with lambda = 0, x = t^alpha/Gamma(1+alpha) and true moments, the x'
    # equation residual is the truncation error of the moment expansion and
    # shrinks as N grows
    def residual(N, t):
        system = assemble_tpbvp_example4(ALPHA, N)
        y = np.zeros(2 * N)
        y[0] = exact_solution_example4(ALPHA, t)
        y[1:N] = moment_values(lambda s: exact_solution_example4(ALPHA, s), N, t, 0.0)
        dy = system.rhs(t, y)
        d = 1e-6
        xdot = (
            exact_solution_example4(ALPHA, t + d) - exact_solution_example4(ALPHA, t - d)
        ) / (2.0 * d)
        return abs(dy[0] - xdot)

    for t in (0.4, 0.8):
        assert residual(12, t) < residual(3, t)


def test_tpbvp_example4_l2_error_decreases_n2_to_n4():
    mesh = Mesh(0.0, 1.0, 400)
    errs = {}
    for N in (2, 4):
        curves = solve_linear_tpbvp(assemble_tpbvp_example4(ALPHA, N), mesh, eps=1e-4)
        errs[N] = l2_against(
            mesh, curves[0].values, lambda t: exact_solution_example4(ALPHA, t)
        )
    assert math.isfinite(errs[2])
    assert errs[4] < errs[2]


# ---------------------------------------------------------------------------
# generic TPBVP solver
# ---------------------------------------------------------------------------


def test_solver_scalar_ivp_reaches_e():
    system = TpBvpSystem(1, SCALAR_GROWTH, ((0, 1.0),), ())
    curve = solve_linear_tpbvp(system, Mesh(0.0, 1.0, 200))[0]
    assert abs(curve.values[-1] - math.e) <= 1e-4


def test_solver_integrates_decoupled_costate_equation():
    # y' = -C_2 t^(1-2-alpha) on [1/2, 1] with y(1) = 0 integrates to the
    # closed-form antiderivative plus a constant
    mc = moment_coeffs(ALPHA, 3)
    c2 = mc.c(2)
    system = TpBvpSystem(
        1, affine(lambda t: [[0.0]], lambda t: [-c2 * t ** (1.0 - 2.0 - ALPHA)]), (), ((0, 0.0),)
    )
    mesh = Mesh(0.5, 1.0, 400)
    curve = solve_linear_tpbvp(system, mesh)[0]
    t = mesh.nodes()
    exact = -c2 * (t ** (-ALPHA) - 1.0) / (-ALPHA)
    assert np.max(np.abs(curve.values - exact)) <= 1e-6


def test_solver_validates_eps_and_conditions():
    system = TpBvpSystem(1, SCALAR_GROWTH, ((0, 1.0),), ())
    with pytest.raises(ValueError):
        solve_linear_tpbvp(system, Mesh(0.0, 1.0, 10), eps=2.0)
    with pytest.raises(ValueError):
        TpBvpSystem(2, IDENTITY_2, ((0, 0.0),), ())  # too few conditions
    with pytest.raises(ValueError):
        TpBvpSystem(2, IDENTITY_2, ((0, 0.0), (0, 1.0)), ())  # duplicate index


def test_system_requires_coefficients_and_derives_rhs():
    with pytest.raises(TypeError):
        TpBvpSystem(1, left_conditions=((0, 1.0),), right_conditions=(), rhs=lambda t, y: y)
    system = TpBvpSystem(1, affine(lambda t: [[2.0 * t]], lambda t: [t]), ((0, 1.0),), ())
    assert np.array_equal(system.rhs(0.5, np.array([3.0])), [3.5])


def test_solver_returns_all_components_on_caller_mesh():
    N = 2
    mesh = Mesh(0.0, 1.0, 50)
    curves = solve_linear_tpbvp(assemble_tpbvp_example2(ALPHA, N), mesh, eps=1e-4)
    assert len(curves) == 2 * N
    for c in curves:
        assert c.mesh == mesh
    # imposed boundary rows hold to solver (LU) accuracy
    assert abs(curves[0].values[-1] - 1.0) <= 1e-10
    for p in range(2, N + 1):
        assert abs(curves[N + p - 1].values[-1]) <= 1e-10


# ---------------------------------------------------------------------------
# affine coefficients, scaled collocation and the band LU
# ---------------------------------------------------------------------------


def loop_rhs_example2(alpha, N):
    """Scalar right-hand side of Example 2's moment TPBVP, one row at a time."""
    mc = moment_coeffs(alpha, N)
    A, B = mc.A, mc.B
    C = [mc.c(p) for p in range(2, N + 1)]

    def rhs(t, y):
        dy = np.empty(2 * N)
        dy[0] = 0.5 * B * t ** (1.0 - alpha) - 0.5 * y[N]
        for p in range(2, N + 1):
            dy[p - 1] = (1.0 - p) * t ** (p - 2.0) * y[0]
        dy[N] = A * t ** (-alpha) - sum(
            (1.0 - p) * t ** (p - 2.0) * y[N + p - 1] for p in range(2, N + 1)
        )
        for p in range(2, N + 1):
            dy[N + p - 1] = -C[p - 2] * t ** (1.0 - p - alpha)
        return dy

    return rhs


def loop_rhs_example4(alpha, N):
    """Scalar right-hand side of Example 4's moment TPBVP, one row at a time."""
    mc = moment_coeffs(alpha, N)
    A, B = mc.A, mc.B
    C = [mc.c(p) for p in range(2, N + 1)]

    def rhs(t, y):
        dy = np.empty(2 * N)
        dy[0] = (
            -A / B / t * y[0]
            + sum(C[p - 2] / B * t ** (-float(p)) * y[p - 1] for p in range(2, N + 1))
            + 0.5 / B**2 * t ** (2.0 * alpha - 2.0) * y[N]
            + t ** (alpha - 1.0) / B
        )
        for p in range(2, N + 1):
            dy[p - 1] = (1.0 - p) * t ** (p - 2.0) * y[0]
        dy[N] = A / B / t * y[N] - sum(
            (1.0 - p) * t ** (p - 2.0) * y[N + p - 1] for p in range(2, N + 1)
        )
        for p in range(2, N + 1):
            dy[N + p - 1] = -C[p - 2] / B * t ** (-float(p)) * y[N]
        return dy

    return rhs


def dense_tpbvp_oracle(system, mesh, eps=0.0, grading=2.0):
    """The scaled box scheme as one dense matrix (cell rows first, then the
    left and right condition rows), solved by np.linalg.solve and mapped
    back to the caller's mesh like ``solve_linear_tpbvp``."""
    m, n = system.dimension, mesh.n
    k = np.array(system.scale_powers or (0.0,) * m)
    a_eff = mesh.a + eps
    s = a_eff + (mesh.b - a_eff) * (np.arange(n + 1) / n) ** grading
    mat = np.zeros((m * (n + 1), m * (n + 1)))
    vec = np.zeros(m * (n + 1))
    eye = np.eye(m)
    for j in range(n):
        tm, hj = 0.5 * (s[j] + s[j + 1]), s[j + 1] - s[j]
        F, g = (c[0] for c in system.coefficients(np.array([tm])))
        S = np.diag(tm**k)
        A = np.linalg.solve(S, F @ S) - np.diag(k / tm)
        rows = slice(j * m, (j + 1) * m)
        mat[rows, j * m : (j + 1) * m] = -eye / hj - 0.5 * A
        mat[rows, (j + 1) * m : (j + 2) * m] = eye / hj - 0.5 * A
        vec[rows] = g / tm**k
    row = n * m
    d0, h0 = s[0] - mesh.a, s[1] - s[0]
    for idx, val in system.left_conditions:
        mat[row, idx] = 1.0 + d0 / h0
        mat[row, m + idx] = -d0 / h0
        vec[row] = val
        row += 1
    for idx, val in system.right_conditions:
        mat[row, n * m + idx] = 1.0
        vec[row] = val / s[-1] ** k[idx]
        row += 1
    Y = np.linalg.solve(mat, vec).reshape(n + 1, m) * s[:, None] ** k
    t = mesh.nodes()
    out = []
    for col in Y.T:
        vals = np.interp(t, s, col)
        below = t < a_eff
        vals[below] = col[0] + (col[1] - col[0]) / h0 * (t[below] - a_eff)
        out.append(vals)
    return out


@pytest.mark.parametrize(
    "assemble, loop_rhs",
    [(assemble_tpbvp_example2, loop_rhs_example2), (assemble_tpbvp_example4, loop_rhs_example4)],
)
@pytest.mark.parametrize("N", [2, 3, 8])
def test_coefficients_match_rhs(assemble, loop_rhs, N):
    system = assemble(ALPHA, N)
    rng = np.random.default_rng(N)
    t = rng.uniform(1e-4, 1.0, 25)
    F, g = system.coefficients(t)
    assert F.shape == (25, 2 * N, 2 * N) and g.shape == (25, 2 * N)
    oracle = loop_rhs(ALPHA, N)
    for i, ti in enumerate(t):
        y = rng.standard_normal(2 * N)
        batch = F[i] @ y + g[i]
        bound = 1e-13 * (np.abs(F[i]) @ np.abs(y) + np.abs(g[i]))
        assert np.all(np.abs(system.rhs(ti, y) - batch) <= bound)
        assert np.all(np.abs(oracle(ti, y) - batch) <= bound)


def test_catalog_scale_powers():
    N = 4
    system = assemble_tpbvp_example4(ALPHA, N)
    assert system.scale_powers == (0.0, 1.0, 2.0, 3.0, 0.0, -1.0, -2.0, -3.0)
    assert assemble_tpbvp_example2(ALPHA, N).scale_powers == system.scale_powers


@pytest.mark.parametrize(
    "system, mesh, eps",
    [
        (assemble_tpbvp_example4(ALPHA, 2), Mesh(0.0, 1.0, 1), 1e-4),
        (assemble_tpbvp_example4(ALPHA, 4), Mesh(0.0, 1.0, 100), 1e-4),
        (assemble_tpbvp_example4(0.2, 8), Mesh(0.0, 1.0, 60), 1e-3),
        (assemble_tpbvp_example2(ALPHA, 3), Mesh(0.0, 1.0, 7), 1e-4),
        (TpBvpSystem(1, SCALAR_GROWTH, ((0, 1.0),), ()), Mesh(0.0, 1.0, 50), 0.0),
        (
            TpBvpSystem(
                2,
                affine(lambda t: [[0.0, 1.0 / t], [-1.0 / t, 0.0]], lambda t: [0.0, t]),
                ((0, 0.0),),
                ((1, 2.0),),
                scale_powers=(1.0, -0.5),
            ),
            Mesh(0.5, 2.0, 40),
            0.1,
        ),
    ],
)
def test_band_lu_matches_dense_oracle(system, mesh, eps):
    # normwise in the scaled variables t^(-k) y, where the LU works: a
    # costate component far below the others agrees only to its share
    curves = solve_linear_tpbvp(system, mesh, eps=eps)
    oracle = dense_tpbvp_oracle(system, mesh, eps=eps)
    t = mesh.nodes()
    inside = t >= mesh.a + eps
    powers = system.scale_powers or (0.0,) * system.dimension
    diff = size = 0.0
    for curve, ref, k in zip(curves, oracle, powers):
        scale = t[inside] ** k
        diff = max(diff, np.max(np.abs(curve.values - ref)[inside] / scale))
        size = max(size, np.max(np.abs(ref[inside]) / scale))
    assert diff <= 1e-10 * size


def test_scaled_example4_error_falls_with_N_on_both_meshes():
    Ns = (2, 4, 6, 8, 12, 16)
    errs = {}
    for n in (400, 1200):
        mesh = Mesh(0.0, 1.0, n)
        exact = lambda t: exact_solution_example4(ALPHA, t)  # noqa: E731
        errs[n] = [
            l2_against(
                mesh,
                solve_linear_tpbvp(assemble_tpbvp_example4(ALPHA, N), mesh, eps=1e-4)[0].values,
                exact,
            )
            for N in Ns
        ]
        assert all(e1 > e2 for e1, e2 in zip(errs[n], errs[n][1:]))
    for e400, e1200 in zip(errs[400], errs[1200]):
        assert abs(e400 - e1200) <= 0.05 * e1200


@pytest.mark.parametrize("N", range(2, 9))
def test_scaled_example2_matches_closed_form(N):
    mesh = Mesh(0.0, 1.0, 400)
    curves = solve_linear_tpbvp(assemble_tpbvp_example2(ALPHA, N), mesh, eps=1e-4)
    x = solve_example2_moment_closed(ALPHA, N)
    assert np.max(np.abs(curves[0].values - x(mesh.nodes()))) <= 1e-5


def test_unscaled_example4_raises_ill_conditioned():
    system = dataclasses.replace(assemble_tpbvp_example4(ALPHA, 12), scale_powers=())
    with pytest.raises(IllConditionedSystemError):
        solve_linear_tpbvp(system, Mesh(0.0, 1.0, 400), eps=1e-4)


def test_replacing_rhs_keeps_coefficients():
    system = assemble_tpbvp_example4(ALPHA, 3)
    calls = []

    def counted(t, y):
        calls.append(t)
        return system.rhs(t, y)

    wrapped = dataclasses.replace(system, rhs=counted)
    assert wrapped.coefficients is system.coefficients
    assert wrapped.scale_powers == system.scale_powers
    mesh = Mesh(0.0, 1.0, 80)
    got = solve_linear_tpbvp(wrapped, mesh, eps=1e-4)
    ref = solve_linear_tpbvp(system, mesh, eps=1e-4)
    assert calls == []
    for a, b in zip(got, ref):
        assert np.array_equal(a.values, b.values)
    np.testing.assert_allclose(wrapped.rhs(0.3, np.ones(6)), system.rhs(0.3, np.ones(6)))


def test_right_condition_on_scaled_component_divides_by_b_power():
    # y' = y/t, y(2) = 4 has the solution y = 2t; in z = y/t it is z = 2
    system = TpBvpSystem(
        1, affine(lambda t: [[1.0 / t]], lambda t: [0.0]), (), ((0, 4.0),), scale_powers=(1.0,)
    )
    mesh = Mesh(0.5, 2.0, 8)
    curve = solve_linear_tpbvp(system, mesh)[0]
    assert np.max(np.abs(curve.values - 2.0 * mesh.nodes())) <= 1e-12


def test_scale_power_validation():
    with pytest.raises(ValueError):
        TpBvpSystem(2, IDENTITY_2, ((0, 0.0),), ((1, 0.0),), scale_powers=(1.0,))
    with pytest.raises(ValueError):
        TpBvpSystem(2, IDENTITY_2, ((0, 1.0),), ((1, 0.0),), scale_powers=(1.0, 0.0))
    TpBvpSystem(2, IDENTITY_2, ((0, 1.0),), ((1, 0.0),), scale_powers=(0.0, 2.0))
    scaled = TpBvpSystem(2, IDENTITY_2, ((0, 0.0),), ((1, 0.0),), scale_powers=(1.0, 0.0))
    with pytest.raises(ValueError):
        solve_linear_tpbvp(scaled, Mesh(0.0, 1.0, 10))
    unscaled = TpBvpSystem(2, IDENTITY_2, ((0, 0.0),), ((1, 0.0),), scale_powers=(0.0, 0.0))
    solve_linear_tpbvp(unscaled, Mesh(0.0, 1.0, 10))


def test_coefficients_with_wrong_shape_rejected():
    system = TpBvpSystem(
        1, lambda t: (np.ones((t.size, 1)), np.zeros(t.size)), ((0, 1.0),), ()
    )
    with pytest.raises(ValueError):
        solve_linear_tpbvp(system, Mesh(0.0, 1.0, 10))


# ---------------------------------------------------------------------------
# higher-order Euler-Lagrange residual
# ---------------------------------------------------------------------------


def test_higher_order_residual_classical_case():
    # L = (x')^2 reduces to -2 x''; affine curves are stationary
    bundle = DerivativeBundle((lambda t: 2.0 + 3.0 * t, lambda t: 3.0))
    lagrangian = HigherOrderLagrangian(1, (lambda t, d: 0.0, lambda t, d: 2.0 * d[1]))
    res = higher_order_el_residual(bundle, lagrangian)
    assert abs(res(0.5)) <= 1e-10


def test_higher_order_residual_without_derivatives():
    bundle = DerivativeBundle((lambda t: t**2,))
    lagrangian = HigherOrderLagrangian(0, (lambda t, d: 3.0 * d[0],))
    res = higher_order_el_residual(bundle, lagrangian)
    assert res(0.4) == pytest.approx(3.0 * 0.16, rel=1e-12)


def test_integer_route_solution_satisfies_reduced_problem():
    # the closed form solves the Euler-Lagrange equation of its own reduced
    # (integer-order) variational problem
    N = 3
    m1 = _example2_m1(ALPHA, N)
    m2 = 1.0 - m1

    def deriv(k):
        def f(t):
            c = m1
            for j in range(k):
                c *= 2.0 - ALPHA - j
            out = c * t ** (2.0 - ALPHA - k)
            if k == 0:
                out += m2 * t
            elif k == 1:
                out += m2
            return out

        return f

    bundle = DerivativeBundle(tuple(deriv(k) for k in range(N + 1)))
    partials = []
    for k in range(N + 1):
        ck = integer_coefficient(ALPHA, k)
        if k == 1:
            partials.append(lambda t, d, ck=ck: ck * t ** (1.0 - ALPHA) - 2.0 * d[1])
        else:
            partials.append(lambda t, d, ck=ck, k=k: ck * t ** (k - ALPHA))
    res = higher_order_el_residual(bundle, HigherOrderLagrangian(N, tuple(partials)))
    assert max(abs(res(t)) for t in np.linspace(0.2, 0.8, 7)) <= 1e-4


def test_higher_order_lagrangian_validation():
    with pytest.raises(ValueError):
        HigherOrderLagrangian(2, (lambda t, d: 0.0,))
    bundle = DerivativeBundle((lambda t: t,))
    lag = HigherOrderLagrangian(1, (lambda t, d: 0.0, lambda t, d: 0.0))
    with pytest.raises(ValueError):
        higher_order_el_residual(bundle, lag)
