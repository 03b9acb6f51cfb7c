"""Indirect methods: expansion-based reductions to classical boundary value problems.

Two reductions of the catalog variational problems are implemented:

* the integer-order route, which replaces the fractional derivative by the
  truncated derivative series and solves the resulting (here: second-order)
  Euler-Lagrange ODE in closed form.  This route is kept deliberately,
  although it does NOT converge for Example 2 (the analytic solution is not
  analytic at t = 1), as a documented negative result;

* the moment route, which rides the moments V_p along the state and applies
  the Hamiltonian necessary conditions, producing a linear two-point
  boundary value problem.  For Example 2 the system decouples and has a
  closed-form solution; Example 4's system is coupled and singular at the
  origin, and is solved numerically.

The generic linear TPBVP solver uses a midpoint (box) collocation scheme:
one global banded solve, second-order accurate, immune to the opposite
integration directions of state and costate equations that make single
shooting ill-conditioned here.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import splu

from .direct import NonAffineSystemError, SingularSystemError
from .expansions import DerivativeBundle, MomentCoeffs, moment_coeffs
from .operators import Mesh, SampledCurve
from .specfun import gamma


# ---------------------------------------------------------------------------
# analytic solutions of the catalog problems
# ---------------------------------------------------------------------------


def analytic_solution_example2(alpha: float, t: float) -> float:
    """Exact minimizer of Example 2 (from its fractional Euler-Lagrange ODE):

        x(t) = -(1-t)^(2-alpha)/(2 Gamma(3-alpha))
               + (1 - 1/(2 Gamma(3-alpha))) t + 1/(2 Gamma(3-alpha)).

    Satisfies x(0) = 0, x(1) = 1 and
    x''(t) = -(1-t)^(-alpha) / (2 Gamma(1-alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    g = 2.0 * gamma(3.0 - alpha)
    return -((1.0 - t) ** (2.0 - alpha)) / g + (1.0 - 1.0 / g) * t + 1.0 / g


def exact_solution_example4(alpha: float, t: float) -> float:
    """Exact minimizer of Example 4: x(t) = t^alpha / Gamma(alpha+1),
    the function whose left RL derivative is identically 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return t**alpha / gamma(alpha + 1.0)


# ---------------------------------------------------------------------------
# closed-form reductions for Example 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormCoeffs:
    """Coefficients of the two Example 2 reductions.

    Integer route: x(t) = M1 t^(2-alpha) + M2 t with M1 + M2 = 1.
    Moment route:  x(t) = M t^(2-alpha) - sum_p Cp_terms[p-2] t^p
                          + (1 - M + sum_p Cp_terms[p-2]) t,
    with Cp_terms[p-2] = C(alpha, p) / (2 p (2-p-alpha)); both routes pin
    x(0) = 0 and x(1) = 1 by construction.
    """

    alpha: float
    N: int
    M1: float
    M2: float
    M: float
    Cp_terms: np.ndarray


def integer_route_coefficient(n: int, alpha: float) -> float:
    """Series coefficient C(n, alpha) of the integer-order reduction:

        C(n, alpha) = (-1)^(n-1) alpha / (n! (n - alpha) Gamma(1 - alpha)).
    """
    sign = 1.0 if n % 2 == 1 else -1.0
    return sign * alpha / (math.factorial(n) * (n - alpha) * gamma(1.0 - alpha))


def _example2_m1(alpha: float, N: int) -> float:
    total = sum(
        (-1.0) ** n * gamma(n + 1.0 - alpha) * integer_route_coefficient(n, alpha)
        for n in range(N + 1)
    )
    return -total / (2.0 * gamma(3.0 - alpha))


def _example2_moment_m(coeffs: MomentCoeffs) -> float:
    al, N = coeffs.alpha, coeffs.N
    corr = sum(
        coeffs.c(p) * (1.0 - p) / ((1.0 - al) * (2.0 - p - al)) for p in range(2, N + 1)
    )
    return (coeffs.B - coeffs.A / (1.0 - al) - corr) / (2.0 * (2.0 - al))


def closed_form_coeffs(alpha: float, N: int) -> ClosedFormCoeffs:
    """All Example 2 closed-form coefficients at once (requires N >= 2)."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    coeffs = moment_coeffs(alpha, N)
    for p in range(2, N + 1):
        if abs(2.0 - p - alpha) < 1e-12:
            raise ZeroDivisionError(f"degenerate denominator 2-p-alpha at p={p}")
    m1 = _example2_m1(alpha, N)
    cp_terms = np.array(
        [coeffs.c(p) / (2.0 * p * (2.0 - p - alpha)) for p in range(2, N + 1)]
    )
    return ClosedFormCoeffs(
        alpha, N, m1, 1.0 - m1, _example2_moment_m(coeffs), cp_terms
    )


def solve_example2_integer(alpha: float, N: int) -> Callable:
    """Closed-form solution of the integer-route reduction of Example 2:

        x(t) = M1(alpha, N) t^(2-alpha) + M2(alpha, N) t,   M1 + M2 = 1.

    Increasing N does not drive this family toward the analytic solution;
    the L2 distance stays bounded away from zero.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    m1 = _example2_m1(alpha, N)
    m2 = 1.0 - m1

    def x(t):
        return m1 * np.asarray(t) ** (2.0 - alpha) + m2 * np.asarray(t)

    return x


def solve_example2_moment_closed(alpha: float, N: int) -> Callable:
    """Closed-form solution of the moment-route TPBVP for Example 2:

        x(t) = M t^(2-alpha) - sum_{p=2..N} C_p/(2p(2-p-alpha)) t^p
               + [1 - M + sum_p C_p/(2p(2-p-alpha))] t

    with M(alpha, N) = [B - A/(1-alpha)
                        - sum_p C_p (1-p)/((1-alpha)(2-p-alpha))] / (2(2-alpha)).
    """
    cf = closed_form_coeffs(alpha, N)
    lin = 1.0 - cf.M + float(np.sum(cf.Cp_terms))

    def x(t):
        t = np.asarray(t)
        out = cf.M * t ** (2.0 - alpha) + lin * t
        for p in range(2, N + 1):
            out = out - cf.Cp_terms[p - 2] * t**p
        return out

    return x


# ---------------------------------------------------------------------------
# two-point boundary value problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TpBvpSystem:
    """First-order ODE system y' = rhs(t, y) with split boundary conditions.

    ``left_conditions`` / ``right_conditions`` are (component index, value)
    pairs imposed at t = a and t = b; together they must pin all ``dimension``
    degrees of freedom.
    """

    dimension: int
    rhs: Callable
    left_conditions: tuple
    right_conditions: tuple

    def __post_init__(self):
        object.__setattr__(self, "left_conditions", tuple(self.left_conditions))
        object.__setattr__(self, "right_conditions", tuple(self.right_conditions))
        if len(self.left_conditions) + len(self.right_conditions) != self.dimension:
            raise ValueError(
                f"{self.dimension} conditions required, got "
                f"{len(self.left_conditions)} left + {len(self.right_conditions)} right"
            )
        for side in (self.left_conditions, self.right_conditions):
            idx = [i for i, _ in side]
            if len(set(idx)) != len(idx):
                raise ValueError(f"duplicate condition indices on one side: {idx}")
            if any(not 0 <= i < self.dimension for i in idx):
                raise ValueError(f"condition index outside 0..{self.dimension - 1}")


def assemble_tpbvp_example2(alpha: float, N: int) -> TpBvpSystem:
    """Hamiltonian two-point BVP of the moment-route reduction of Example 2.

    State (x, V_2..V_N, lam_1, lam_2..lam_N), dimension 2N:

        x'     = (1/2) B t^(1-alpha) - (1/2) lam_1
        V_p'   = (1-p) t^(p-2) x
        lam_1' = A t^(-alpha) - sum_p (1-p) t^(p-2) lam_p
        lam_p' = -C_p t^(1-p-alpha)

    with x(0) = 0, V_p(0) = 0 on the left and x(1) = 1, lam_p(1) = 0 on the
    right (lam_1 is pinned only through the coupling).  The costate rows are
    singular at t = 0; solve on [eps, 1].
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    coeffs = moment_coeffs(alpha, N)
    A, B = coeffs.A, coeffs.B
    C = [coeffs.c(p) for p in range(2, N + 1)]
    m = 2 * N

    def rhs(t, y):
        y = np.asarray(y, dtype=float)
        dy = np.empty(m)
        dy[0] = 0.5 * B * t ** (1.0 - alpha) - 0.5 * y[N]
        for p in range(2, N + 1):
            dy[p - 1] = (1.0 - p) * t ** (p - 2.0) * y[0]
        dy[N] = A * t ** (-alpha) - sum(
            (1.0 - p) * t ** (p - 2.0) * y[N + p - 1] for p in range(2, N + 1)
        )
        for p in range(2, N + 1):
            dy[N + p - 1] = -C[p - 2] * t ** (1.0 - p - alpha)
        return dy

    left = [(0, 0.0)] + [(p - 1, 0.0) for p in range(2, N + 1)]
    right = [(0, 1.0)] + [(N + p - 1, 0.0) for p in range(2, N + 1)]
    return TpBvpSystem(m, rhs, tuple(left), tuple(right))


def assemble_tpbvp_example4(alpha: float, N: int) -> TpBvpSystem:
    """Hamiltonian two-point BVP of the moment-route reduction of Example 4.

    Same state layout as Example 2's system but coupled through B^(-1) and
    negative powers of t:

        x'     = -A/B t^(-1) x + sum_p C_p/B t^(-p) V_p
                 + (1/2) B^(-2) t^(2 alpha - 2) lam_1 + B^(-1) t^(alpha - 1)
        V_p'   = (1-p) t^(p-2) x
        lam_1' = A/B t^(-1) lam_1 - sum_p (1-p) t^(p-2) lam_p
        lam_p' = -C_p/B t^(-p) lam_1

    with x(0) = 0, V_p(0) = 0 and x(1) = 1/Gamma(alpha+1), lam_p(1) = 0.
    The rhs is singular at t = 0; solve on [eps, 1].
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    coeffs = moment_coeffs(alpha, N)
    A, B = coeffs.A, coeffs.B
    C = [coeffs.c(p) for p in range(2, N + 1)]
    m = 2 * N

    def rhs(t, y):
        y = np.asarray(y, dtype=float)
        dy = np.empty(m)
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

    left = [(0, 0.0)] + [(p - 1, 0.0) for p in range(2, N + 1)]
    right = [(0, 1.0 / gamma(alpha + 1.0))] + [(N + p - 1, 0.0) for p in range(2, N + 1)]
    return TpBvpSystem(m, rhs, tuple(left), tuple(right))


def solve_linear_tpbvp(
    system: TpBvpSystem, mesh: Mesh, eps: float = 0.0, grading: float = 2.0
) -> list[SampledCurve]:
    """Solve a linear TPBVP by midpoint (box) collocation; one banded solve.

    The scheme runs on mesh.n subintervals of [a + eps, b] (eps > 0 keeps a
    singular origin out of the stencil).  Cell widths are power-graded
    toward a + eps with exponent ``grading`` (1.0 gives a uniform grid):
    the costate components of the catalog systems carry t^(2-p-alpha)
    boundary layers that a uniform grid of desk-scale size cannot resolve,
    while quadratic grading does, at no change to the scheme itself.
    The scheme is second-order accurate in the cell widths.

    Right-condition rows act at b; left-condition rows pin the linear
    extension of the first collocation segment back to t = a (for eps = 0
    this is the plain nodal condition), which keeps the eps-truncation error
    at the interpolation level instead of introducing an O(eps) offset.
    Returned curves live on the caller's mesh: nodes inside [a + eps, b] by
    linear interpolation of the collocation values, nodes below a + eps by
    the same linear extension the boundary rows constrain.

    Raises :class:`NonAffineSystemError` when probing shows the rhs is not
    affine in the state, and :class:`SingularSystemError` when the
    collocation matrix cannot be factorized.
    """
    if eps < 0.0 or eps >= mesh.b - mesh.a:
        raise ValueError(f"eps must lie in [0, b-a), got {eps!r}")
    if grading < 1.0:
        raise ValueError(f"grading exponent must be >= 1, got {grading!r}")
    m = system.dimension
    n = mesh.n
    a_eff = mesh.a + eps
    s = a_eff + (mesh.b - a_eff) * (np.arange(n + 1) / n) ** grading
    mids = 0.5 * (s[:-1] + s[1:])

    _check_affine(system, (mids[0], mids[n // 2], mids[-1]))

    size = m * (n + 1)
    mat = lil_matrix((size, size))
    rhs_vec = np.zeros(size)
    eye = np.eye(m)
    for j in range(n):
        tm = mids[j]
        hj = s[j + 1] - s[j]
        g = np.asarray(system.rhs(tm, np.zeros(m)), dtype=float)
        F = np.empty((m, m))
        for c in range(m):
            F[:, c] = np.asarray(system.rhs(tm, eye[c]), dtype=float) - g
        rows = slice(j * m, (j + 1) * m)
        block_l = -eye / hj - 0.5 * F
        block_r = eye / hj - 0.5 * F
        mat[rows, j * m : (j + 1) * m] = block_l
        mat[rows, (j + 1) * m : (j + 2) * m] = block_r
        rhs_vec[rows] = g
    row = n * m
    d0 = s[0] - mesh.a
    h0 = s[1] - s[0]
    for idx, val in system.left_conditions:
        # linear extension to t = a: (1 + d0/h0) y_0 - (d0/h0) y_1 = val
        mat[row, idx] = 1.0 + d0 / h0
        mat[row, m + idx] = -d0 / h0
        rhs_vec[row] = val
        row += 1
    for idx, val in system.right_conditions:
        mat[row, n * m + idx] = 1.0
        rhs_vec[row] = val
        row += 1

    try:
        lu = splu(mat.tocsc())
        sol = lu.solve(rhs_vec)
    except RuntimeError as exc:
        raise SingularSystemError(f"collocation matrix singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("collocation solve produced non-finite values")
    Y = sol.reshape(n + 1, m)

    t_out = mesh.nodes()
    curves = []
    for c in range(m):
        vals = np.interp(t_out, s, Y[:, c])
        below = t_out < a_eff
        if np.any(below):
            slope = (Y[1, c] - Y[0, c]) / h0
            vals[below] = Y[0, c] + slope * (t_out[below] - a_eff)
        curves.append(SampledCurve(mesh, vals))
    return curves


def _check_affine(system: TpBvpSystem, ts: Sequence[float]) -> None:
    rng = np.random.default_rng(7)
    m = system.dimension
    for t in ts:
        g = np.asarray(system.rhs(t, np.zeros(m)), dtype=float)
        y1 = rng.standard_normal(m)
        y2 = rng.standard_normal(m)
        lhs = np.asarray(system.rhs(t, y1 + y2), dtype=float) - g
        rhs = (
            np.asarray(system.rhs(t, y1), dtype=float)
            + np.asarray(system.rhs(t, y2), dtype=float)
            - 2.0 * g
        )
        scale = 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(g))
        if np.max(np.abs(lhs - rhs)) > 1e-8 * scale:
            raise NonAffineSystemError(f"rhs is not affine in the state at t={t}")


# ---------------------------------------------------------------------------
# higher-order Euler-Lagrange residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HigherOrderLagrangian:
    """Lagrangian L(t, x, x', ..., x^(N)) given by its N+1 partial derivatives.

    ``partials[k](t, d)`` evaluates dL/dx^(k) at the derivative tuple
    d = (x(t), x'(t), ..., x^(N)(t)).
    """

    order: int
    partials: tuple

    def __post_init__(self):
        object.__setattr__(self, "partials", tuple(self.partials))
        if len(self.partials) != self.order + 1:
            raise ValueError(
                f"order {self.order} needs {self.order + 1} partials, got {len(self.partials)}"
            )


def higher_order_el_residual(
    bundle: DerivativeBundle,
    lagrangian: HigherOrderLagrangian,
    fd_step: float = 1e-3,
) -> Callable:
    """Residual evaluator of the classical higher-order Euler-Lagrange equation

        dL/dx - d/dt(dL/dx') + d^2/dt^2(dL/dx'') - ...
            + (-1)^N d^N/dt^N (dL/dx^(N)) = 0

    for a curve supplied with analytic derivatives.  Inner partials are
    evaluated analytically along the curve; the outer d^k/dt^k are central
    binomial finite differences with step ``fd_step`` (O(fd_step^2) accurate),
    so the curve must be evaluable in a neighborhood of each query point.
    """
    N = lagrangian.order
    if bundle.order < N:
        raise ValueError(
            f"curve bundle provides derivatives up to {bundle.order}, need {N}"
        )

    def along(k: int, t: float) -> float:
        d = tuple(bundle.deriv(i, t) for i in range(N + 1))
        return float(lagrangian.partials[k](t, d))

    def residual(t: float) -> float:
        total = along(0, t)
        for k in range(1, N + 1):
            dk = sum(
                (-1.0) ** j * math.comb(k, j) * along(k, t + (k / 2.0 - j) * fd_step)
                for j in range(k + 1)
            ) / fd_step**k
            total += (-1.0) ** k * dk
        return total

    return residual
