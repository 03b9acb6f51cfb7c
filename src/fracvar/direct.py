"""Euler-like direct method for fractional variational problems.

The functional J[x] = integral_a^b L(t, x, x', D^alpha x) dt is discretized
on a uniform mesh: left-endpoint-free rectangular quadrature over the cells,
backward differences for x', and the truncated Grunwald-Letnikov sum for the
fractional derivative.  That turns J into a function Psi of the interior
node values, and minimizers are sought as solutions of the stationarity
system dPsi/dx_i = 0 (one linear solve for quadratic Lagrangians, damped
Newton otherwise), both with the Newton matrix built from the nodewise second
partials of L.  Newton is one run, with L_DD floored in its matrix whenever
L_DD >= 0 (see solve_direct).  It starts from the linear interpolant of the
boundary values, or, for a Lagrangian of (t, D^alpha x) that supplies the
inverse of D -> dL/dD, from the minimizer in the reduced coordinates
y_i = D^alpha x(t_i), where the system is one scalar equation.  D^alpha x and
its transpose go through the GL kernel of ``operators``.
"""

import functools
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

#: Outside ``linear=True`` both Newton steps floor the diagonal L_DD of their
#: matrix at STRUCTURED_FLOOR * mean(L_DD) whenever L_DD >= 0 with a positive
#: mean.  On the degenerate (quartic) minimum of Example 3 (alpha = 0.5),
#: L_DD = 12 (D^alpha x - phi)^2 vanishes where the fit is exact.  From the
#: linear interpolant the floored structured step takes 15 / 22 / 24 / 25
#: iterations at n = 40 / 400 / 1640 / 4160, and the floored dense step
#: 18 / 22 / 22 at n = 164 / 413 / 800; the unfloored dense step stops at
#: n = 164 after 50 iterations with the residual at 1.2e-3.
STRUCTURED_FLOOR = 0.1

_EPS = np.finfo(float).eps

#: Relative forward-difference step of the second partials of L in Newton.
_FD_STEP = math.sqrt(_EPS)


@dataclass(frozen=True)
class LagrangianSpec:
    """Integrand L(t, x, xdot, dalpha) with its three partial derivatives.

    All evaluators take the full argument tuple; Lagrangians that do not
    depend on xdot simply ignore that slot and set ``uses_xdot=False`` so
    the stationarity assembly skips the xdot chain terms (``solve_direct``
    raises ValueError when dL_dxdot varies along its solution).

    ``dL_ddalpha_inverse(t, mu)``, optional, solves dL_ddalpha(t, ., ., D)
    = mu for D node by node, for an L of (t, dalpha) only that is convex in
    dalpha.  With it, and ``uses_xdot=False``, Newton starts from the
    minimizer in the reduced coordinates D^alpha x(t_i) (see solve_direct).
    Nothing checks that L ignores x or that the inverse is right.  It only
    places the start, so what Newton returns still passes its residual
    test; but a wrong inverse, or one given for an L that also depends on
    x, can cost iterations or raise ValueError (see solve_direct) or
    NewtonConvergenceError where the linear interpolant would converge.
    """

    L: Callable
    dL_dx: Callable
    dL_dxdot: Callable
    dL_ddalpha: Callable
    uses_xdot: bool = False
    dL_ddalpha_inverse: Optional[Callable] = None


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
    ``step(x, r)`` returns the Newton step at x, where the residual is r,
    its kind, "structured" or "dense", and whether its matrix floors L_DD
    (see solve_direct); ``psi`` is the discretized functional, the floored
    step's second merit.  ``start()``, present when the Lagrangian supplies
    ``dL_ddalpha_inverse`` and does not use xdot, returns the interior values
    of the reduced-coordinate minimizer (see solve_direct).
    """

    n: int
    residual: Callable
    step: Callable
    psi: Optional[Callable] = None
    start: Optional[Callable] = None


def stationarity(problem: DirectProblem, n: int) -> StationaritySystem:
    """Stationarity residual (the gradient of Psi, scaled by 1/h), its
    Newton step and Psi:

        r_i = dL/dx(t_i) + h^(-alpha) sum_{k=0..n-i} w_k dL/dD(t_{i+k})
              + (1/h) [dL/dxdot(t_i) - dL/dxdot(t_{i+1})]    (xdot terms
              present only when the Lagrangian uses xdot)

    i.e. (G^T dL/dD)_i + dL/dx_i + ..., each partial evaluated once on the
    node arrays, G x and G^T dL/dD by convolution.  The Newton matrix is
    J = sum_ab A_a^T diag(H_ab) A_b over the slots a, b of L that the unknowns
    enter (x, D^alpha and, when L uses it, xdot): H_ab are the nodewise second
    partials of L, and A maps the interior values to a slot at nodes 1..n
    (the interior identity, G, or the backward difference / h).

    ``stationarity(problem, n).psi`` is the discretized functional

        Psi(x_1..x_{n-1}) = h sum_{i=1..n} L(t_i, x_i, (x_i - x_{i-1})/h,
                                              h^(-alpha) sum_{k=0..i} w_k x_{i-k}).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lag = problem.lagrangian
    mesh = Mesh(problem.a, problem.b, n)
    t = mesh.nodes()[1:]
    t.flags.writeable = False  # shared by every state of this system
    h_alpha = mesh.h**problem.alpha
    w = gl_weights(problem.alpha, n)
    conv = _LowerToeplitz(w)
    m = n - 1
    inverse = _LowerToeplitz(_binomial_weights(-problem.alpha, n - 2))
    # L^-T u for u^T, row n of G on the interior nodes
    inv_t_u = inverse.rmatvec(w[n - 1 : 0 : -1])
    # x, D^alpha (, xdot): their slots in the (t, x, xdot, D) state, their partials
    slots = (1, 3, 2) if lag.uses_xdot else (1, 3)
    partials = (lag.dL_dx, lag.dL_ddalpha, lag.dL_dxdot)[: len(slots)]

    def state_at(interior) -> tuple:
        """(t, x, xdot, D^alpha x) at nodes 1..n for the interior values."""
        x = np.empty(n + 1)
        x[0] = problem.x_a
        x[-1] = problem.x_b
        x[1:-1] = interior
        return t, x[1:], np.diff(x) / mesh.h, conv.matvec(x)[1:] / h_alpha

    def psi(interior):
        return float(mesh.h * np.sum(_eval_on(lag.L, *state_at(interior))))

    def residual(interior) -> np.ndarray:
        state = state_at(interior)
        r = conv.rmatvec(_eval_on(lag.dL_ddalpha, *state))[:-1] / h_alpha
        r += _eval_on(lag.dL_dx, *state)[: n - 1]
        if lag.uses_xdot:
            p = _eval_on(lag.dL_dxdot, *state)
            r += (p[:-1] - p[1:]) / mesh.h
        return r

    def second_partials(interior, unit: bool) -> np.ndarray:
        """H[a, b] (nodes 1..n), a and b over ``slots``: forward differences
        with steps sqrt(eps) (1 + |v|), or 1 with ``unit`` (exact for affine
        partials up to rounding).  Each partial is evaluated once, on the
        base state stacked with one probe per slot."""
        state = list(state_at(interior))
        steps = []
        for row, slot in enumerate(slots, 1):
            v = state[slot]
            steps.append(np.ones_like(v) if unit else _FD_STEP * (1.0 + np.abs(v)))
            state[slot] = np.array([v] * (len(slots) + 1))
            state[slot][row] += steps[-1]
        values = np.array([_eval_on(f, *state) for f in partials])
        return (values[:, 1:] - values[:, :1]) / np.array(steps)

    @functools.cache
    def slot_map(slot: int) -> np.ndarray:
        """A for a slot, dense (n, m); built once per system."""
        if slot == 1:
            return np.eye(n, m)
        if slot == 2:
            return (np.eye(n, m) - np.eye(n, m, -1)) / mesh.h
        # G's columns 1..n-1, lower-triangular Toeplitz: row k is the
        # reversed window k of (0, ..., 0, w_0, ..., w_{n-1}) / h^alpha
        padded = np.concatenate((np.zeros(m - 1), w[:n] / h_alpha))
        return np.lib.stride_tricks.sliding_window_view(padded, m)[:, ::-1].copy()

    def step(interior, r, affine=False):
        """(s, kind, floored); ``affine`` takes the dense step with unit probe
        steps, no floor, and checks that it solved the system (see
        solve_direct)."""
        H = second_partials(interior, unit=affine)
        l_dd = H[1, 1]
        mean = l_dd.mean()
        floored = not affine and mean > 0.0 and l_dd.min() >= 0.0
        if floored:
            l_dd[:] = np.maximum(l_dd, STRUCTURED_FLOOR * mean)
        if floored and not lag.uses_xdot and np.count_nonzero(H) == np.count_nonzero(l_dd):
            # (L^T Lam L + lam_n u u^T) s = -r, with L (rows and columns 1..n-1
            # of G) inverted exactly by h^alpha T(w(-alpha)) and row n (u^T)
            # entering by Sherman-Morrison: s = L^-1 Lam^-1 (a - c q) with
            # a = -L^-T r, q = L^-T u, c = lam_n q.(a / Lam) / (1 + lam_n q.(q / Lam))
            lam_int, lam_n = l_dd[:-1], l_dd[-1]
            a = inverse.rmatvec(-r) * h_alpha
            c = lam_n * (inv_t_u @ (a / lam_int)) / (1.0 + lam_n * (inv_t_u @ (inv_t_u / lam_int)))
            return inverse.matvec((a - c * inv_t_u) / lam_int) * h_alpha, "structured", True
        # J = sum_a A_a^T C_a with C_a = sum_b diag(H_ab) A_b over the nonzero
        # H_ab; A_a^T is a row slice for x and xdot, a product for G
        jac = np.zeros((m, m))
        for row, slot in zip(H, slots):
            terms = [h[:, None] * slot_map(other) for h, other in zip(row, slots) if h.any()]
            if terms:
                c = sum(terms[1:], terms[0])
                jac += (c[:m] if slot == 1 else (c[:-1] - c[1:]) / mesh.h if slot == 2
                        else slot_map(3).T @ c)
        try:
            s = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"Newton matrix singular: {exc}") from exc
        if affine:
            x = interior + s
            scale = np.linalg.norm(jac, np.inf) * np.max(np.abs(x)) + np.max(np.abs(r))
            defect = np.max(np.abs(residual(x)))
            if not defect <= AFFINE_RTOL * m * scale:
                raise NonAffineSystemError(
                    f"stationarity system is not affine: residual {defect:.3e} at the "
                    f"solution of its linearization (scale {scale:.3e})"
                )
        return s, "dense", floored

    def start() -> np.ndarray:
        """Interior values of the minimizer in y = D_1..D_{n-1} (see solve_direct)."""
        inv = lag.dL_ddalpha_inverse
        t_int, t_n = t[:-1], t[-1]
        c = (problem.x_b + problem.x_a * (w[n] - inv_t_u @ w[1:n])) / h_alpha

        def interior_d(z):
            # L_D(t_n, z); an L of (t, D^alpha x) ignores the x and xdot slots
            mu = float(lag.dL_ddalpha(t_n, problem.x_b, 0.0, z))
            return _eval_on(inv, t_int, -inv_t_u * mu)

        def end_defect(z):
            y = interior_d(z)
            return c + inv_t_u @ y - z, abs(c) + np.abs(inv_t_u) @ np.abs(y) + abs(z)

        d_free = _eval_on(inv, t, np.zeros(n))  # every mu = 0
        bracket = float(d_free[-1]), float(c + inv_t_u @ d_free[:-1])
        z, iterations = _falsi_root(end_defect, *bracket)
        interior = inverse.matvec(h_alpha * interior_d(z) - w[1:n] * problem.x_a)
        if LOG.isEnabledFor(logging.DEBUG):
            LOG.debug(
                "reduced start n=%d root_iterations=%d z=%.17g residual=%.3e",
                n, iterations, z, np.max(np.abs(residual(interior))),
            )
        return interior

    reduced = lag.dL_ddalpha_inverse is not None and not lag.uses_xdot
    return StationaritySystem(n, residual, step, psi, start if reduced else None)


def _falsi_root(f: Callable, lo: float, hi: float) -> tuple:
    """(root, iterations) of a continuous f that changes sign on the bracket
    [lo, hi]: regula falsi with the Illinois modification, bisecting after a
    step that kept more than half the bracket.  ``f(z)`` returns (value,
    scale); a point with |value| <= eps * scale, or a bracket an ulp or two
    wide, ends the search, and so does the 200th step.  No sign change
    raises ValueError."""
    if lo > hi:
        lo, hi = hi, lo
    (f_lo, s_lo), (f_hi, s_hi) = f(lo), f(hi)
    for end, value, scale in ((lo, f_lo, s_lo), (hi, f_hi, s_hi)):
        if abs(value) <= _EPS * scale:
            return end, 0
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(
            f"no sign change on the bracket [{lo!r}, {hi!r}] (values {f_lo:.3e}, "
            f"{f_hi:.3e}): is L convex in D^alpha x, and the inverse of dL_ddalpha right?"
        )
    kept, bisect = 0, False
    for iteration in range(1, 201):
        width = hi - lo
        z = 0.5 * (lo + hi) if bisect else hi - f_hi * width / (f_hi - f_lo)
        f_z, scale = f(z)
        if abs(f_z) <= _EPS * scale or not lo < z < hi:
            break
        if (f_z < 0.0) == (f_lo < 0.0):
            lo, f_lo = z, f_z
            f_hi *= 0.5 if kept == 1 else 1.0
            kept = 1
        else:
            hi, f_hi = z, f_z
            f_lo *= 0.5 if kept == -1 else 1.0
            kept = -1
        bisect = hi - lo > 0.5 * width
        if hi - lo <= 2.0 * _EPS * max(abs(lo), abs(hi)):
            break
    return z, iteration


def solve_direct(
    problem: DirectProblem,
    n: int,
    newton_tol: float = 1e-10,
    max_iter: int = 50,
    linear: bool = False,
) -> SampledCurve:
    """Solve the discrete stationarity system on an n-subinterval mesh.

    ``linear=True`` takes one dense step (see ``stationarity``) from x = 0,
    with unit probe steps, exact when the residual is affine in the unknowns
    (quadratic Lagrangians), and raises :class:`NonAffineSystemError` when
    the residual at its result exceeds AFFINE_RTOL * m * (|J| |x| + |r(0)|).
    Otherwise damped Newton runs until the residual's largest entry falls
    below ``newton_tol``, with probe steps sqrt(eps) (1 + |v|).

    Newton starts from the linear interpolant of the boundary values, or,
    when the Lagrangian supplies ``dL_ddalpha_inverse`` and does not use
    xdot (an L of t and D^alpha x only, convex in D), from the
    reduced-coordinate minimizer.  Its unknowns are y = D_1..D_{n-1}: with
    q = L^-T u (L: rows and columns 1..n-1 of h^alpha G, u^T: its row n on
    the interior), the end value is D_n = z = c + q.y, with c = h^-alpha
    (x_b + x_a (w_n - q.w_{1..n-1})), and stationarity in y reads
    y_i = Dinv(t_i, -q_i L_D(t_n, z)).  So z solves
    one scalar equation, c + q.y(z) - z = 0, decreasing in z for convex L,
    with a sign change between Dinv(t_n, 0) and c + q.Dinv(t_i, 0); a
    bracket without one, which a wrong inverse or an L not convex in D or
    also of x can leave, raises :class:`ValueError`.  A safeguarded regula
    falsi solves it, and the start is x_int = L^-1 (h^alpha y - w_{1..n-1}
    x_a), one product with h^alpha T(w(-alpha)).  The start logs one DEBUG
    record on ``fracvar.direct``: n, the root iterations, z and the start's
    residual norm.  Newton then runs from it unchanged, and returns at once
    when the start's residual is already below ``newton_tol``; from a start
    placed by a wrong inverse it may take more iterations or raise
    :class:`NewtonConvergenceError`.

    Whenever L_DD is >= 0 with a positive mean, Newton's matrix J floors L_DD
    at STRUCTURED_FLOOR * mean(L_DD), and J is solved by one of two steps,
    chosen at every iterate from the second partials there:

    * structured, when ``uses_xdot`` is false and L_DD is the only nonzero
      second partial.  J is then G^T diag(L_DD) G, solved exactly in
      O(n log n);
    * dense otherwise: J assembled with a dense G and solved densely.

    A damped trial of a floored step is accepted when it lowers the residual
    norm or Psi (the floored step descends Psi but not always the residual
    norm), a trial of an unfloored step when it lowers the residual norm.
    The step is halved up to 30 times until a trial is accepted; a step that
    is never accepted raises :class:`NewtonConvergenceError`, as does
    running out of ``max_iter`` iterations.  Each iteration logs one DEBUG
    record on the ``fracvar.direct`` logger: n, the iteration, the residual
    norm, the damping and the step kind.  A ``newton_tol`` that is not
    finite and positive raises :class:`ValueError`, whether or not
    ``linear`` reads it, and so does a solution at which dL_dxdot, evaluated
    once there, varies between nodes although ``uses_xdot`` is false.
    """
    if not 0.0 < newton_tol < math.inf:
        raise ValueError(f"newton_tol must be finite and > 0, got {newton_tol!r}")
    system = stationarity(problem, n)
    mesh = Mesh(problem.a, problem.b, n)
    if linear:
        zero = np.zeros(n - 1)
        interior = system.step(zero, system.residual(zero), affine=True)[0]
    else:
        if system.start is not None:
            guess = system.start()
        else:
            ends = (problem.a, problem.b), (problem.x_a, problem.x_b)
            guess = np.interp(mesh.nodes()[1:-1], *ends)
        interior = _newton(system, guess, newton_tol, max_iter)
    x = np.empty(n + 1)
    x[0] = problem.x_a
    x[-1] = problem.x_b
    x[1:-1] = interior
    if not problem.lagrangian.uses_xdot:
        _check_xdot_unused(problem, mesh, x)
    return SampledCurve(mesh, x)


def _check_xdot_unused(problem: DirectProblem, mesh: Mesh, x: np.ndarray) -> None:
    """Raise ValueError unless p = dL/dxdot at the solution x (nodes 0..n) is equal at
    nodes 1..n, so that the dropped x' term (p_i - p_{i+1}) / h is exactly zero."""
    d = _LowerToeplitz(_binomial_weights(problem.alpha, mesh.n)).matvec(x)[1:]
    state = (mesh.nodes()[1:], x[1:], np.diff(x) / mesh.h, d / mesh.h**problem.alpha)
    p = _eval_on(problem.lagrangian.dL_dxdot, *state)
    if np.any(p[:-1] != p[1:]):
        raise ValueError("dL_dxdot varies along the solution, but uses_xdot=False drops it")


def _newton(
    system: StationaritySystem, guess: np.ndarray, tol: float, max_iter: int
) -> np.ndarray:
    """Damped Newton on a StationaritySystem, with the system's steps (see
    solve_direct)."""
    residual = system.residual
    x = np.array(guess, dtype=float)
    r = residual(x)
    rnorm = np.max(np.abs(r))
    if rnorm < tol:
        return x
    debug = LOG.isEnabledFor(logging.DEBUG)
    for iteration in range(1, max_iter + 1):
        step, kind, floored = system.step(x, r)
        psi = None
        damping = 1.0
        for _ in range(30):
            x_new = x + damping * step
            r_new = residual(x_new)
            rnorm_new = np.max(np.abs(r_new))
            if rnorm_new < rnorm:
                break
            if floored:
                if psi is None:
                    psi = system.psi(x)
                if system.psi(x_new) < psi:
                    break
            damping *= 0.5
        else:
            merit = "the residual norm or Psi" if floored else "the residual norm"
            raise NewtonConvergenceError(
                f"damped Newton step did not reduce {merit} "
                f"(residual norm {rnorm:.3e}) after 30 halvings"
            )
        x, r, rnorm = x_new, r_new, rnorm_new
        if debug:
            LOG.debug(
                "newton n=%d iteration=%d residual=%.3e damping=%g step=%s",
                system.n, iteration, rnorm, damping, kind,
            )
        if rnorm < tol:
            return x
    raise NewtonConvergenceError(
        f"Newton did not reach tol={tol} within {max_iter} iterations "
        f"(residual norm {rnorm:.3e})"
    )


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


# the coefficients of example3_phi, each rounded as it was written inline
_EX3_C45 = 16.0 * gamma(6.0) / gamma(5.5)
_EX3_C25 = 20.0 * gamma(4.0) / gamma(3.5)
_EX3_C05 = 5.0 / gamma(1.5)


def example3_phi(t):
    """Fractional-derivative image of Example 3's minimizer 16t^5 - 20t^3 + 5t:

        phi(t) = 16 Gamma(6)/Gamma(5.5) t^4.5 - 20 Gamma(4)/Gamma(3.5) t^2.5
                 + 5/Gamma(1.5) t^0.5
    """
    return _EX3_C45 * t**4.5 - _EX3_C25 * t**2.5 + _EX3_C05 * t**0.5


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


def _example3_dL_ddalpha_inverse(t, mu):
    return example3_phi(t) + np.cbrt(mu / 4.0)


def example3_problem() -> DirectProblem:
    """Quartic tracking problem on [0,1] with oscillating minimizer
    16t^5 - 20t^3 + 5t; its stationarity system is nonlinear (cubic)."""
    lag = LagrangianSpec(
        L=_example3_L,
        dL_dx=lambda t, x, xd, d: 0.0 * d,
        dL_dxdot=lambda t, x, xd, d: 0.0 * d,
        dL_ddalpha=_example3_dL_ddalpha,
        uses_xdot=False,
        dL_ddalpha_inverse=_example3_dL_ddalpha_inverse,
    )
    return DirectProblem(0.0, 1.0, 0.0, 1.0, 0.5, lag)
