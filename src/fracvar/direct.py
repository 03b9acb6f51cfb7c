"""Euler-like direct method for fractional variational problems.

The functional J[x] = integral_a^b L(t, x, x', D^alpha x) dt is discretized
on a uniform mesh: left-endpoint-free rectangular quadrature over the cells,
backward differences for x', and the truncated Grunwald-Letnikov sum for the
fractional derivative.  That turns J into a function Psi of the interior
node values, and minimizers are sought as solutions of the stationarity
system dPsi/dx_i = 0 (linear solve for quadratic Lagrangians, damped Newton
otherwise).  D^alpha x and its transpose go through the GL kernel of
``operators``.
"""

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expansions import _eval_on
from .operators import (
    Mesh,
    SampledCurve,
    _binomial_weights,
    _LowerToeplitz,
    gl_left_all,
    gl_right_all,
    gl_weights,
)
from .specfun import gamma

LOG = logging.getLogger("fracvar.direct")


class NewtonConvergenceError(RuntimeError):
    """Damped Newton failed to reach the residual tolerance."""


class SingularSystemError(RuntimeError):
    """A stationarity or collocation system was numerically singular."""


class NonAffineSystemError(ValueError):
    """A solver for affine systems was handed a system that is not affine."""


#: ``linear=True`` rejects a stationarity system whose residual at the
#: solution of its linearization exceeds AFFINE_RTOL * m * (|J| |x| + |r0|)
#: (infinity norms, m unknowns): Gaussian elimination leaves a relative
#: residual of order m * eps, and the catalog's affine systems stay below
#: 0.02 * m * eps.
AFFINE_RTOL = 1e3 * np.finfo(float).eps

#: Damped Newton on n >= 2 * CONTINUATION_MIN_N subintervals starts from the
#: interpolated solution on n // 2: on the degenerate (quartic) minimum of
#: Example 3 the iteration count from the linear interpolant grows with n
#: and passes the default budget of 50 from n = 164 on (dense step); from
#: the coarse solution it stays at 10-25 up to n = 413 with the dense step
#: and at most 12 up to n = 4160 with the structured one.
CONTINUATION_MIN_N = 8

#: The structured Newton step floors the diagonal L_DD of its matrix at
#: STRUCTURED_FLOOR * mean(L_DD).  On the degenerate (quartic) minimum of
#: Example 3, L_DD = 12 (D^alpha x - phi)^2 vanishes where the fit is exact;
#: without the floor Newton needs 56 iterations at n = 1310, with it at most
#: 12 per continuation level up to n = 4160.
STRUCTURED_FLOOR = 0.1

#: Relative forward-difference step of the Jacobian and of L_DD.
_FD_STEP = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class LagrangianSpec:
    """Integrand L(t, x, xdot, dalpha) with its three partial derivatives.

    All evaluators take the full argument tuple; Lagrangians that do not
    depend on xdot simply ignore that slot and set ``uses_xdot=False`` so
    the stationarity assembly skips the xdot chain terms.
    """

    L: Callable
    dL_dx: Callable
    dL_dxdot: Callable
    dL_ddalpha: Callable
    uses_xdot: bool = False


@dataclass(frozen=True)
class DirectProblem:
    """One-variable fractional variational problem with fixed endpoints."""

    a: float
    b: float
    x_a: float
    x_b: float
    alpha: float
    lagrangian: LagrangianSpec

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class StationaritySystem:
    """Residual map of the discrete stationarity conditions dPsi/dx_i = 0.

    ``residual`` maps the interior values (x_1..x_{n-1}) to the scaled
    gradient dPsi/dx_i / h; it vanishes exactly at discrete minimizers.
    ``structured_step(x, r)`` returns the structured Newton step at x (see
    solve_direct), or None where the Lagrangian's partials rule it out;
    ``psi`` is the discretized functional, the step's second merit.
    """

    n: int
    residual: Callable
    structured_step: Optional[Callable] = None
    psi: Optional[Callable] = None


class _GlRows:
    """Rows 1..n of the lower-triangular GL Toeplitz matrix G = h^(-alpha) T(w)
    over the node vector, so that D^alpha x at nodes 1..n is G x.  Single
    states are multiplied by the GL kernel; batches (the linear=True probe
    and the dense Jacobian) by the dense G, built on first use."""

    def __init__(self, alpha: float, mesh: Mesh):
        self.n = mesh.n
        self.h_alpha = mesh.h**alpha
        self.w = gl_weights(alpha, mesh.n).w
        self.conv = _LowerToeplitz(self.w)
        self._dense = None

    def dense(self) -> np.ndarray:
        if self._dense is None:
            from scipy.linalg import toeplitz

            self._dense = toeplitz(self.w, np.zeros(self.n + 1))[1:] / self.h_alpha
        return self._dense

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G x for node values x (..., n + 1): D^alpha at nodes 1..n."""
        if x.ndim > 1:
            return x @ self.dense().T
        return self.conv.matvec(x)[1:] / self.h_alpha

    def apply_t(self, y: np.ndarray) -> np.ndarray:
        """G^T y at the interior nodes 1..n-1, for y (..., n) at nodes 1..n."""
        if y.ndim > 1:
            return (y @ self.dense())[..., 1 : self.n]
        return self.conv.rmatvec(y)[: self.n - 1] / self.h_alpha


def _assemble_state(problem: DirectProblem, mesh: Mesh, gl: _GlRows, interior):
    """Nodes, values, xdot and D^alpha at nodes 1..n for interior values given
    as one state (m,) or a batch (k, m) with one state per row."""
    interior = np.asarray(interior, dtype=float)
    x = np.empty(interior.shape[:-1] + (mesh.n + 1,))
    x[..., 0] = problem.x_a
    x[..., -1] = problem.x_b
    x[..., 1:-1] = interior
    xdot = np.diff(x, axis=-1) / mesh.h
    return mesh.nodes()[1:], x[..., 1:], xdot, gl.apply(x)


def discretize(problem: DirectProblem, n: int) -> Callable:
    """Discretized functional Psi(x_1..x_{n-1}) =
    h * sum_{i=1..n} L(t_i, x_i, (x_i - x_{i-1})/h, h^(-alpha) sum w_k x_{i-k});
    a batch (k, m) of states gives k values."""
    return stationarity(problem, n).psi


def stationarity(problem: DirectProblem, n: int) -> StationaritySystem:
    """Stationarity residual (the gradient of Psi, scaled by 1/h):

        r_i = dL/dx(t_i) + h^(-alpha) sum_{k=0..n-i} w_k dL/dD(t_{i+k})
              + (1/h) [dL/dxdot(t_i) - dL/dxdot(t_{i+1})]    (xdot terms
              present only when the Lagrangian uses xdot)

    i.e. (G^T dL/dD)_i + dL/dx_i + ..., each partial evaluated once on the
    node arrays.  The residual maps one state (m,) to (m,), G x and G^T dL/dD
    by convolution, and a batch (k, m) to (k, m), row by row, through the
    dense G.  The system also carries the structured Newton step and Psi.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lag = problem.lagrangian
    mesh = Mesh(problem.a, problem.b, n)
    gl = _GlRows(problem.alpha, mesh)
    inverse = _LowerToeplitz(_binomial_weights(-problem.alpha, n - 2))
    # L^-T u for u^T, row n of G on the interior nodes
    inv_t_u = inverse.rmatvec(gl.w[n - 1 : 0 : -1])

    def psi(interior):
        state = _assemble_state(problem, mesh, gl, interior)
        total = mesh.h * np.sum(_eval_on(lag.L, *state), axis=-1)
        return float(total) if total.ndim == 0 else total

    def residual(interior) -> np.ndarray:
        state = _assemble_state(problem, mesh, gl, interior)
        r = gl.apply_t(_eval_on(lag.dL_ddalpha, *state))
        r += _eval_on(lag.dL_dx, *state)[..., : n - 1]
        if lag.uses_xdot:
            p = _eval_on(lag.dL_dxdot, *state)
            r += (p[..., :-1] - p[..., 1:]) / mesh.h
        return r

    def structured_step(interior, r):
        """Solve (L^T Lam L + lam_n u u^T) s = -r, or None (see solve_direct).

        L (rows and columns 1..n-1 of G) has the exact inverse
        h^alpha T(w(-alpha)), and row n (u^T) enters by Sherman-Morrison:
        s = L^-1 Lam^-1 (a - c q) with a = -L^-T r, q = L^-T u and
        c = lam_n q.(a / Lam) / (1 + lam_n q.(q / Lam))."""
        if lag.uses_xdot:
            return None
        t, x, xdot, d = _assemble_state(problem, mesh, gl, interior)
        d_step = _FD_STEP * (1.0 + np.abs(d))
        x_probe = np.array([x, x + _FD_STEP * (1.0 + np.abs(x)), x])
        d_probe = np.array([d, d, d + d_step])
        l_x = _eval_on(lag.dL_dx, t, x_probe, xdot, d_probe)
        l_d = _eval_on(lag.dL_ddalpha, t, x_probe, xdot, d_probe)
        if not ((l_x[1:] == l_x[0]).all() and (l_d[1] == l_d[0]).all()):
            return None  # coupled through x as well
        l_dd = (l_d[2] - l_d[0]) / d_step
        mean = l_dd.mean()
        if not (mean > 0.0 and l_dd.min() >= 0.0):
            return None
        lam = np.maximum(l_dd, STRUCTURED_FLOOR * mean)
        lam_int, lam_n = lam[:-1], lam[-1]
        a = inverse.rmatvec(-r) * gl.h_alpha
        c = lam_n * (inv_t_u @ (a / lam_int)) / (1.0 + lam_n * (inv_t_u @ (inv_t_u / lam_int)))
        return inverse.matvec((a - c * inv_t_u) / lam_int) * gl.h_alpha

    return StationaritySystem(n, residual, structured_step, psi)


def solve_direct(
    problem: DirectProblem,
    n: int,
    newton_tol: float = 1e-10,
    max_iter: int = 50,
    linear: bool = False,
) -> SampledCurve:
    """Solve the discrete stationarity system on an n-subinterval mesh.

    ``linear=True`` performs a single dense solve (valid when the residual
    is affine in the unknowns, i.e. quadratic Lagrangians) and raises
    :class:`NonAffineSystemError` when the residual at the computed solution
    shows that it is not.  Otherwise damped Newton runs until the residual's
    largest entry falls below ``newton_tol``.  Its step is chosen at every
    iterate from the Lagrangian's partials there:

    * structured, when the stationarity conditions couple only through
      D^alpha: ``uses_xdot`` is false, nodewise forward differences of
      dL/dx in its x and D^alpha slots and of dL/dD^alpha in its x slot are
      exactly zero, and L_DD, the forward difference of dL/dD^alpha in its
      D^alpha slot, is >= 0 with a positive mean.  The Newton matrix is then
      G^T diag(L_DD) G over the interior nodes; with L_DD floored at
      STRUCTURED_FLOOR * mean(L_DD) it is solved exactly in O(n log n)
      (see ``StationaritySystem.structured_step``).  Since the floored step
      descends Psi but not always the residual norm, a damped trial is
      accepted when it lowers either;
    * dense otherwise: a forward-difference Jacobian (all m probes in one
      batched residual call), a dense solve, and a trial accepted when it
      lowers the residual norm.

    The step is halved up to 30 times until a trial is accepted; a step
    that is never accepted raises :class:`NewtonConvergenceError`, as does
    running out of ``max_iter`` iterations.  Newton starts from the linear
    interpolant of the boundary values when n < 2 * CONTINUATION_MIN_N, and
    otherwise from the interpolated solution on n // 2 subintervals (same
    tolerance and iteration budget), falling back to the linear interpolant
    when that coarse solve fails.  Each iteration logs one DEBUG record on
    the ``fracvar.direct`` logger: n, the iteration, the residual norm, the
    damping and the step kind.  A ``newton_tol`` that is not finite and
    positive raises :class:`ValueError`, whether or not ``linear`` reads it.
    """
    if not 0.0 < newton_tol < math.inf:
        raise ValueError(f"newton_tol must be finite and > 0, got {newton_tol!r}")
    system = stationarity(problem, n)
    mesh = Mesh(problem.a, problem.b, n)
    if linear:
        interior = _solve_affine(system.residual, n - 1)
    else:
        guess = _initial_guess(problem, mesh, newton_tol, max_iter)
        interior = _newton(system, guess, newton_tol, max_iter)
    x = np.empty(n + 1)
    x[0] = problem.x_a
    x[-1] = problem.x_b
    x[1:-1] = interior
    return SampledCurve(mesh, x)


def _initial_guess(
    problem: DirectProblem, mesh: Mesh, tol: float, max_iter: int
) -> np.ndarray:
    """Newton's starting point: the coarse-grid solution, interpolated, or
    the linear interpolant of the boundary values (see solve_direct)."""
    t = mesh.nodes()[1:-1]
    if mesh.n >= 2 * CONTINUATION_MIN_N:
        try:
            coarse = solve_direct(problem, mesh.n // 2, tol, max_iter)
            return np.interp(t, coarse.mesh.nodes(), coarse.values)
        except (NewtonConvergenceError, SingularSystemError):
            pass
    return problem.x_a + (problem.x_b - problem.x_a) * (t - problem.a) / (
        problem.b - problem.a
    )


def _solve_affine(residual: Callable, m: int) -> np.ndarray:
    rhs = residual(np.zeros(m))
    jac = (residual(np.eye(m)) - rhs).T
    try:
        x = np.linalg.solve(jac, -rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"affine stationarity system singular: {exc}") from exc
    scale = np.linalg.norm(jac, np.inf) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    defect = np.max(np.abs(residual(x)))
    if not defect <= AFFINE_RTOL * m * scale:
        raise NonAffineSystemError(
            f"stationarity system is not affine: residual {defect:.3e} at the "
            f"solution of its linearization (scale {scale:.3e})"
        )
    return x


def _newton(
    system: StationaritySystem, guess: np.ndarray, tol: float, max_iter: int
) -> np.ndarray:
    """Damped Newton on a StationaritySystem (steps as in solve_direct); a
    system without ``structured_step`` always takes the dense step."""
    residual = system.residual
    x = np.array(guess, dtype=float)
    r = residual(x)
    rnorm = np.max(np.abs(r))
    if rnorm < tol:
        return x
    debug = LOG.isEnabledFor(logging.DEBUG)
    for iteration in range(1, max_iter + 1):
        step = system.structured_step(x, r) if system.structured_step else None
        structured = step is not None
        if not structured:
            jac = _numeric_jacobian(residual, x, r)
            try:
                step = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"Newton Jacobian singular: {exc}") from exc
        psi = None
        damping = 1.0
        for _ in range(30):
            x_new = x + damping * step
            r_new = residual(x_new)
            rnorm_new = np.max(np.abs(r_new))
            if rnorm_new < rnorm:
                break
            if structured:
                if psi is None:
                    psi = system.psi(x)
                if system.psi(x_new) < psi:
                    break
            damping *= 0.5
        else:
            merit = "the residual norm or Psi" if structured else "the residual norm"
            raise NewtonConvergenceError(
                f"damped Newton step did not reduce {merit} "
                f"(residual norm {rnorm:.3e}) after 30 halvings"
            )
        x, r, rnorm = x_new, r_new, rnorm_new
        if debug:
            LOG.debug(
                "newton n=%d iteration=%d residual=%.3e damping=%g step=%s",
                system.n, iteration, rnorm, damping, "structured" if structured else "dense",
            )
        if rnorm < tol:
            return x
    raise NewtonConvergenceError(
        f"Newton did not reach tol={tol} within {max_iter} iterations "
        f"(residual norm {rnorm:.3e})"
    )


def _numeric_jacobian(residual: Callable, x: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Forward differences with steps sqrt(eps) (1 + |x_j|), all m probes
    x + step_j e_j evaluated as one batch (row j of the batch is probe j)."""
    steps = _FD_STEP * (1.0 + np.abs(x))
    return ((residual(x + np.diag(steps)) - r0) / steps[:, None]).T


# ---------------------------------------------------------------------------
# catalog problems
# ---------------------------------------------------------------------------


def _f1(t: float) -> float:
    """Target fractional derivative of Example 1: D^{1/2} t^2 = 2 t^{3/2} / Gamma(2.5)."""
    return 2.0 / gamma(2.5) * t**1.5


def example1_problem() -> DirectProblem:
    """Quadratic tracking of D^{1/2} t^2 on [0,1]; minimizer x(t) = t^2."""
    lag = LagrangianSpec(
        L=lambda t, x, xd, d: (d - _f1(t)) ** 2,
        dL_dx=lambda t, x, xd, d: 0.0 * d,
        dL_dxdot=lambda t, x, xd, d: 0.0 * d,
        dL_ddalpha=lambda t, x, xd, d: 2.0 * (d - _f1(t)),
        uses_xdot=False,
    )
    return DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag)


def example2_problem(alpha: float = 0.5) -> DirectProblem:
    """Lagrangian D^alpha x - (x')^2 on [0,1]; solved by the indirect module's
    closed form (see indirect.analytic_solution_example2)."""
    lag = LagrangianSpec(
        L=lambda t, x, xd, d: d - xd**2,
        dL_dx=lambda t, x, xd, d: 0.0 * d,
        dL_dxdot=lambda t, x, xd, d: -2.0 * xd,
        dL_ddalpha=lambda t, x, xd, d: 1.0 + 0.0 * d,
        uses_xdot=True,
    )
    return DirectProblem(0.0, 1.0, 0.0, 1.0, alpha, lag)


def example3_phi(t):
    """Fractional-derivative image of Example 3's minimizer 16t^5 - 20t^3 + 5t:

        phi(t) = 16 Gamma(6)/Gamma(5.5) t^4.5 - 20 Gamma(4)/Gamma(3.5) t^2.5
                 + 5/Gamma(1.5) t^0.5
    """
    return (
        16.0 * gamma(6.0) / gamma(5.5) * t**4.5
        - 20.0 * gamma(4.0) / gamma(3.5) * t**2.5
        + 5.0 / gamma(1.5) * t**0.5
    )


def example3_minimizer(t):
    return 16.0 * t**5 - 20.0 * t**3 + 5.0 * t


# e * e * e, not e ** 3 (and e^2 e^2, not e ** 4): numpy's float power is
# an order of magnitude slower on arrays with entries of both signs


def _example3_L(t, x, xd, d):
    e = d - example3_phi(t)
    e2 = e * e
    return e2 * e2


def _example3_dL_ddalpha(t, x, xd, d):
    e = d - example3_phi(t)
    return 4.0 * e * e * e


def example3_problem() -> DirectProblem:
    """Quartic tracking problem on [0,1] with oscillating minimizer
    16t^5 - 20t^3 + 5t; its stationarity system is nonlinear (cubic)."""
    lag = LagrangianSpec(
        L=_example3_L,
        dL_dx=lambda t, x, xd, d: 0.0 * d,
        dL_dxdot=lambda t, x, xd, d: 0.0 * d,
        dL_ddalpha=_example3_dL_ddalpha,
        uses_xdot=False,
    )
    return DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag)


def euler_lagrange_residual(curve: SampledCurve, problem: DirectProblem) -> SampledCurve:
    """Node-wise fractional Euler-Lagrange residual of a curve:

        dL/dx + D_b^alpha [dL/dD]  (- d/dt dL/dxdot when the Lagrangian
        uses xdot),

    with the left GL operator inside the partials, the right GL operator
    applied to the sampled dL/dD curve, and central differences for the
    outer d/dt (one-sided at the endpoints).
    """
    if curve.mesh.a != problem.a or curve.mesh.b != problem.b:
        raise ValueError("curve interval does not match the problem interval")
    lag = problem.lagrangian
    t = curve.mesh.nodes()
    h = curve.mesh.h
    x = curve.values
    xdot = np.gradient(x, h)
    state = (t, x, xdot, gl_left_all(curve, problem.alpha))
    dLdD = SampledCurve(curve.mesh, _eval_on(lag.dL_ddalpha, *state))
    res = gl_right_all(dLdD, problem.alpha) + _eval_on(lag.dL_dx, *state)
    if lag.uses_xdot:
        res -= np.gradient(_eval_on(lag.dL_dxdot, *state), h)
    return SampledCurve(curve.mesh, res)
