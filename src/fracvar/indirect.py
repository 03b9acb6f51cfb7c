"""Indirect methods: expansion-based reductions to classical boundary value problems.

Two reductions of the catalog variational problems are implemented:

* the integer-order route, which replaces the fractional derivative by the
  truncated derivative series and solves the resulting (here: second-order)
  Euler-Lagrange ODE in closed form (``tests/indirect_oracles.py`` checks it
  against the classical higher-order Euler-Lagrange residual).  This route
  is kept deliberately, although it does NOT converge for Example 2 (the
  analytic solution is not analytic at t = 1), as a documented negative
  result;

* the moment route, which rides the moments V_p along the state and applies
  the Hamiltonian necessary conditions, producing a linear two-point
  boundary value problem.  For Example 2 the system decouples and has a
  closed-form solution; Example 4's system is coupled and singular at the
  origin, and is solved numerically.

The generic linear TPBVP solver uses a midpoint (box) collocation scheme:
one global banded LU, second-order accurate, immune to the opposite
integration directions of state and costate equations that make single
shooting ill-conditioned here.  It works in power-scaled variables
t^(-k) y, without which the moment systems' t^(+-p) couplings make the
matrix numerically singular from N = 6 on.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .direct import SingularSystemError
from .expansions import integer_coefficient, moment_coeffs
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


def _example2_m1(alpha: float, N: int) -> float:
    """M1 of the Example 2 integer route x(t) = M1 t^(2-alpha) + (1 - M1) t."""
    total = sum(
        (-1.0) ** n * gamma(n + 1.0 - alpha) * integer_coefficient(alpha, n)
        for n in range(N + 1)
    )
    return -total / (2.0 * gamma(3.0 - alpha))


def _example2_moment_terms(alpha: float, N: int) -> tuple:
    """M and the terms C(alpha, p) / (2 p (2-p-alpha)), p = 2..N, of the
    Example 2 moment route (requires N >= 2)."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    coeffs = moment_coeffs(alpha, N)
    for p in range(2, N + 1):
        if abs(2.0 - p - alpha) < 1e-12:
            raise ZeroDivisionError(f"degenerate denominator 2-p-alpha at p={p}")
    corr = sum(
        coeffs.c(p) * (1.0 - p) / ((1.0 - alpha) * (2.0 - p - alpha)) for p in range(2, N + 1)
    )
    m = (coeffs.B - coeffs.A / (1.0 - alpha) - corr) / (2.0 * (2.0 - alpha))
    cp_terms = np.array(
        [coeffs.c(p) / (2.0 * p * (2.0 - p - alpha)) for p in range(2, N + 1)]
    )
    return m, cp_terms


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
    m, cp_terms = _example2_moment_terms(alpha, N)
    lin = 1.0 - m + float(np.sum(cp_terms))

    def x(t):
        t = np.asarray(t)
        out = m * t ** (2.0 - alpha) + lin * t
        for p in range(2, N + 1):
            out = out - cp_terms[p - 2] * t**p
        return out

    return x


# ---------------------------------------------------------------------------
# two-point boundary value problems
# ---------------------------------------------------------------------------


class IllConditionedSystemError(RuntimeError):
    """A collocation solve lost too many digits to be trusted (its one-step
    iterative-refinement estimate exceeded :data:`REFINEMENT_RTOL`)."""


#: ``solve_linear_tpbvp`` raises :class:`IllConditionedSystemError` when one
#: step of iterative refinement would move the solution by more than
#: REFINEMENT_RTOL times its size (infinity norms, scaled variables).  A
#: well-scaled catalog system stays below 1e-11; an unscaled Example 4 at
#: N >= 6 is above 1e-2.
REFINEMENT_RTOL = 1e-6

#: ``solve_linear_tpbvp`` power-grades its cell widths toward a + eps with
#: this exponent: the costate components of the catalog systems carry
#: t^(2-p-alpha) boundary layers that a uniform grid of desk-scale size
#: cannot resolve, while quadratic grading does, at no change to the scheme.
_GRADING = 2.0


@dataclass(frozen=True)
class TpBvpSystem:
    """Affine first-order ODE system y' = F(t) y + g(t) with split boundary
    conditions.

    ``coefficients(t)`` maps a 1-D array of times to ``(F, g)`` of shapes
    (len(t), m, m) and (len(t), m); the system is affine by construction.
    ``rhs(t, y)`` is the same map at one time and one state, derived from
    ``coefficients`` when not given; the solver never calls it.  It stays
    only because the benchmark tracer (``perfbench/tracing.py``,
    ``_post_hooks``) wraps it with ``dataclasses.replace(system, rhs=...)``:
    without the field the traced benchmark run fails, so it goes with the
    next change to the benchmark.

    ``left_conditions`` / ``right_conditions`` are (component index, value)
    pairs imposed at t = a and t = b; together they must pin all ``dimension``
    degrees of freedom.

    ``scale_powers`` (empty, or one per component) lets the solver work in
    z_i = t^(-k_i) y_i, which keeps the collocation matrix well conditioned
    when components grow or decay like powers of t.  A left condition on a
    scaled component (k_i != 0) must have the value 0.
    """

    dimension: int
    coefficients: Callable
    left_conditions: tuple
    right_conditions: tuple
    scale_powers: tuple = ()
    rhs: Optional[Callable] = None

    def __post_init__(self):
        if self.rhs is None:
            object.__setattr__(self, "rhs", _rhs_from(self.coefficients))
        object.__setattr__(self, "left_conditions", tuple(self.left_conditions))
        object.__setattr__(self, "right_conditions", tuple(self.right_conditions))
        object.__setattr__(self, "scale_powers", tuple(float(k) for k in self.scale_powers))
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
        if len(self.scale_powers) not in (0, self.dimension):
            raise ValueError(
                f"need 0 or {self.dimension} scale powers, got {len(self.scale_powers)}"
            )
        for i, val in self.left_conditions:
            if self.scale_powers and self.scale_powers[i] != 0.0 and val != 0.0:
                raise ValueError(
                    f"left condition on scaled component {i} must be 0, got {val!r}"
                )


def _rhs_from(coefficients: Callable) -> Callable:
    def rhs(t, y):
        F, g = coefficients(np.array([t], dtype=float))
        return F[0] @ np.asarray(y, dtype=float) + g[0]

    return rhs


def _moment_tpbvp(alpha: float, N: int, fill: Callable, x_right: float) -> TpBvpSystem:
    """Hamiltonian TPBVP of a moment-route reduction, state
    (x, V_2..V_N, lam_1, lam_2..lam_N).

    The terms both catalog examples share are written here,

        V_p'   = (1-p) t^(p-2) x
        lam_1' = (example terms) - sum_p (1-p) t^(p-2) lam_p,

    and ``fill(t, F, g, coeffs, p)`` adds the rest, with p = [2..N] as a
    float array.  Conditions: x(0) = 0, V_p(0) = 0, x(1) = x_right,
    lam_p(1) = 0.  Since V_p behaves like t^(p-1) and lam_p like t^(1-p),
    the solver runs in t^(1-p) V_p and t^(p-1) lam_p.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    coeffs = moment_coeffs(alpha, N)
    m = 2 * N
    p = np.arange(2.0, N + 1.0)
    v = np.arange(1, N)

    def coefficients(t):
        t = np.asarray(t, dtype=float)
        F = np.zeros((t.size, m, m))
        g = np.zeros((t.size, m))
        tp = t[:, None] ** (p - 2.0)
        F[:, v, 0] = (1.0 - p) * tp
        F[:, N, N + v] = (p - 1.0) * tp
        fill(t, F, g, coeffs, p)
        return F, g

    left = [(0, 0.0)] + [(i, 0.0) for i in v]
    right = [(0, x_right)] + [(N + i, 0.0) for i in v]
    powers = (0.0, *(p - 1.0), 0.0, *(1.0 - p))
    return TpBvpSystem(m, coefficients, tuple(left), tuple(right), powers)


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

    def fill(t, F, g, coeffs, p):
        F[:, 0, N] = -0.5
        g[:, 0] = 0.5 * coeffs.B * t ** (1.0 - alpha)
        g[:, N] = coeffs.A * t ** (-alpha)
        g[:, N + 1 :] = -coeffs.C * t[:, None] ** (1.0 - p - alpha)

    return _moment_tpbvp(alpha, N, fill, 1.0)


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

    def fill(t, F, g, coeffs, p):
        A, B = coeffs.A, coeffs.B
        cp = coeffs.C / B * t[:, None] ** (-p)
        F[:, 0, 0] = -A / B / t
        F[:, 0, 1:N] = cp
        F[:, 0, N] = 0.5 / B**2 * t ** (2.0 * alpha - 2.0)
        g[:, 0] = t ** (alpha - 1.0) / B
        F[:, N, N] = A / B / t
        F[:, N + 1 :, N] = -cp

    return _moment_tpbvp(alpha, N, fill, 1.0 / gamma(alpha + 1.0))


def solve_linear_tpbvp(
    system: TpBvpSystem, mesh: Mesh, eps: float = 0.0
) -> list[SampledCurve]:
    """Solve a linear TPBVP by midpoint (box) collocation; one banded LU.

    The scheme runs on mesh.n subintervals of [a + eps, b] (eps > 0 keeps a
    singular origin out of the stencil), with cell widths power-graded
    toward a + eps with exponent ``_GRADING`` (2).  The scheme is
    second-order accurate in the cell widths.

    It collocates the scaled state z = t^(-k) y of ``system.scale_powers``
    (k = 0 when empty),

        z' = (S^-1 F S - diag(k/t)) z + S^-1 g,    S = diag(t^k),

    at the cell midpoints, with F and g from ``system.coefficients``.
    The box scheme is written straight into LAPACK band storage (rows: left
    conditions, cell rows, right conditions) and factored and solved in
    place by ``dgbtrf``/``dgbtrs``.  Curves are mapped back by y = s^k z at
    the collocation nodes s.

    Right-condition rows act at b (on z, so values are divided by b^k);
    left-condition rows pin the linear extension of the first collocation
    segment back to t = a (for eps = 0 this is the plain nodal condition),
    which keeps the eps-truncation error at the interpolation level instead
    of introducing an O(eps) offset.  Returned curves live on the caller's
    mesh: nodes inside [a + eps, b] by linear interpolation of the
    collocation values, nodes below a + eps by the same linear extension
    the boundary rows constrain.

    Raises :class:`ValueError` when ``coefficients`` returns arrays of the
    wrong shapes, :class:`SingularSystemError` when the collocation matrix
    cannot be factorized, and :class:`IllConditionedSystemError` when one
    step of iterative refinement would change the solution by more than
    REFINEMENT_RTOL relative (the correction is not applied).
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    if eps < 0.0 or eps >= mesh.b - mesh.a:
        raise ValueError(f"eps must lie in [0, b-a), got {eps!r}")
    m = system.dimension
    n = mesh.n
    a_eff = mesh.a + eps
    k = np.array(system.scale_powers or (0.0,) * m)
    if np.any(k != 0.0) and a_eff <= 0.0:
        raise ValueError(f"scaled components need a + eps > 0, got {a_eff!r}")
    s = a_eff + (mesh.b - a_eff) * (np.arange(n + 1) / n) ** _GRADING
    mids = 0.5 * (s[:-1] + s[1:])
    h = np.diff(s)

    F, g = system.coefficients(mids)
    F, g = np.asarray(F, dtype=float), np.asarray(g, dtype=float)
    if F.shape != (n, m, m) or g.shape != (n, m):
        raise ValueError(
            f"coefficients returned shapes {F.shape}, {g.shape}; "
            f"expected {(n, m, m)}, {(n, m)}"
        )
    scale = mids[:, None] ** k
    # cell j couples (z_j, z_{j+1}): [-I/h - A/2 | I/h - A/2] z = S^-1 g with
    # A = S^-1 F S - diag(k/t); built in one buffer to keep peak memory low
    blocks = np.empty((n, m, 2 * m))
    half = blocks[:, :, :m]
    np.multiply(F, -0.5 * scale[:, None, :], out=half)
    del F
    half /= scale[:, :, None]
    diag_m = np.arange(m)
    half[:, diag_m, diag_m] += 0.5 * k / mids[:, None]
    blocks[:, :, m:] = half
    blocks[:, diag_m, diag_m] -= 1.0 / h[:, None]
    blocks[:, diag_m, m + diag_m] += 1.0 / h[:, None]

    left_idx = np.array([i for i, _ in system.left_conditions], dtype=int)
    right_idx = np.array([i for i, _ in system.right_conditions], dtype=int)
    n_left = left_idx.size
    d0 = s[0] - mesh.a
    # linear extension to t = a: (1 + d0/h0) z_0 - (d0/h0) z_1 = val
    w0, w1 = 1.0 + d0 / h[0], -d0 / h[0]
    b_vec = np.empty(m * (n + 1))
    b_vec[:n_left] = [val for _, val in system.left_conditions]
    b_vec[n_left : n_left + n * m] = (g / scale).ravel()
    b_vec[n_left + n * m :] = [
        val / s[-1] ** k[i] for i, val in system.right_conditions
    ]

    rows_l = np.arange(n_left)
    rows_r = n_left + n * m + np.arange(right_idx.size)
    cols_r = n * m + right_idx
    cell_i, cell_c = np.indices((m, 2 * m))
    offsets = np.concatenate(
        ((cell_c - cell_i - n_left).ravel(), left_idx - rows_l,
         m + left_idx - rows_l, cols_r - rows_r)
    )
    kl, ku = max(0, -int(offsets.min())), max(0, int(offsets.max()))
    diag = kl + ku
    ab = np.zeros((2 * kl + ku + 1, m * (n + 1)), order="F")
    # entry (i, c) of cell j sits at row diag + n_left + i - c, column
    # m j + c: Fortran offset diag + n_left + i + c (R - 1) + j m R, affine
    # in (j, i, c), so one strided view of the band takes all cells
    R, item = ab.shape[0], ab.itemsize
    as_strided(ab.T.reshape(-1)[diag + n_left:], shape=blocks.shape,
               strides=(m * R * item, item, (R - 1) * item))[...] = blocks
    ab[diag + rows_l - left_idx, left_idx] = w0
    ab[diag + rows_l - m - left_idx, m + left_idx] = w1
    ab[diag + rows_r - cols_r, cols_r] = 1.0

    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0:
        raise SingularSystemError(f"collocation matrix singular (dgbtrf info {info})")
    z, _ = dgbtrs(lu, kl, ku, b_vec.copy(), piv, overwrite_b=1)
    if not np.all(np.isfinite(z)):
        raise SingularSystemError("collocation solve produced non-finite values")

    # one step of iterative refinement, used only as an accuracy estimate;
    # the right-hand side is not needed again, so it becomes the residual
    resid = b_vec
    pairs = sliding_window_view(z, 2 * m)[::m]
    resid[n_left : n_left + n * m] -= np.einsum("jic,jc->ji", blocks, pairs).ravel()
    resid[:n_left] -= w0 * z[left_idx] + w1 * z[m + left_idx]
    resid[n_left + n * m :] -= z[cols_r]
    dz, _ = dgbtrs(lu, kl, ku, resid, piv, overwrite_b=1)
    change, size = np.max(np.abs(dz)), np.max(np.abs(z))
    if not change <= REFINEMENT_RTOL * size:
        raise IllConditionedSystemError(
            f"collocation solve unreliable: refinement step {change:.3g} "
            f"against solution size {size:.3g}"
        )
    Y = z.reshape(n + 1, m) * s[:, None] ** k

    t_out = mesh.nodes()
    below = t_out < a_eff
    curves = []
    for col in Y.T:
        vals = np.interp(t_out, s, col)
        if np.any(below):
            slope = (col[1] - col[0]) / h[0]
            vals[below] = col[0] + slope * (t_out[below] - a_eff)
        curves.append(SampledCurve(mesh, vals))
    return curves
