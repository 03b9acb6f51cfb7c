"""Expansion formulas approximating fractional derivatives by integer-order data.

Two families are provided, for left/right Riemann-Liouville, Caputo, and
Hadamard derivatives of order alpha in (0, 1):

* the integer-order family, a truncated series in the derivatives
  x', x'', ..., x^(N) of the function, valid for analytic functions;

* the moment family, which trades higher derivatives for the weighted
  integrals ("moments")

      V_p(t) = (1 - p) * integral_a^t (tau - a)^(p-2) x(tau) dtau,

  so only x, x' and quadratures of x appear.  The coefficients A(alpha, N),
  B(alpha, N) and C(alpha, p) are fixed gamma-ratio sums; B decays slowly in
  N and must not be dropped (the B-omitted variant is provided only for
  comparison, and is documented as inferior).

Truncation-error bounds for both families (and the Hadamard analogue) are
implemented as callable dominance envelopes.

Both expansion families are singular at the expansion terminal (t = a on the
left, t = b on the right); evaluating there raises
:class:`ExpansionDomainError`, and mesh-based consumers should start from the
first interior node.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .specfun import gamma, stirling_function


class ExpansionDomainError(ValueError):
    """Expansion evaluated at its singular terminal point."""


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCoeffs:
    """Coefficients of the Riemann-Liouville moment expansion.

    A = (1/Gamma(1-alpha)) * (1 + sum_{p=2..N} Gamma(p-1+alpha)/(Gamma(alpha) (p-1)!))
    B = (1/Gamma(2-alpha)) * (1 + sum_{p=1..N} Gamma(p-1+alpha)/(Gamma(alpha-1) p!))
    C[p] = Gamma(p-1+alpha) / (Gamma(2-alpha) Gamma(alpha-1) (p-1)!),  p = 2..N
    """

    alpha: float
    N: int
    A: float
    B: float
    C: np.ndarray  # C[p - 2] holds C(alpha, p)

    def c(self, p: int) -> float:
        """C(alpha, p) for p in 2..N."""
        if not 2 <= p <= self.N:
            raise IndexError(f"p must lie in 2..{self.N}, got {p}")
        return float(self.C[p - 2])


@dataclass(frozen=True)
class HadamardMomentCoeffs:
    """Coefficients of the Hadamard moment expansion.

    Same shape as :class:`MomentCoeffs` but with the Hadamard normalization
    C[p] = Gamma(p+alpha-1) / (Gamma(-alpha) Gamma(1+alpha) (p-1)!) and the
    A, B sums written with Gamma(p+alpha-1).  (Numerically these coincide
    with the Riemann-Liouville values; they are computed independently from
    their own formulas.)
    """

    alpha: float
    N: int
    A: float
    B: float
    C: np.ndarray

    def c(self, p: int) -> float:
        if not 2 <= p <= self.N:
            raise IndexError(f"p must lie in 2..{self.N}, got {p}")
        return float(self.C[p - 2])


@dataclass(frozen=True)
class MomentState:
    """Moment values V_p (left) or W_p (right) of a function at a single time.

    ``values[p - 2]`` holds the order-p moment, p = 2..N.  Left moments
    vanish at the interval start, right moments at the interval end.
    """

    t: float
    values: np.ndarray


def moment_coeffs(alpha: float, N: int) -> MomentCoeffs:
    """Coefficient triple (A, B, {C_p}) for the RL moment expansion.

    Gamma ratios are formed in log space so large N (Table-sized, N ~ 200)
    cannot overflow.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    g_alpha = gamma(alpha)
    g_alpham1 = gamma(alpha - 1.0)
    a_sum = sum(
        math.exp(math.lgamma(p - 1.0 + alpha) - math.lgamma(p)) / g_alpha
        for p in range(2, N + 1)
    )
    b_sum = sum(
        math.exp(math.lgamma(p - 1.0 + alpha) - math.lgamma(p + 1.0)) / g_alpham1
        for p in range(1, N + 1)
    )
    A = (1.0 + a_sum) / gamma(1.0 - alpha)
    B = (1.0 + b_sum) / gamma(2.0 - alpha)
    C = np.array(
        [
            math.exp(math.lgamma(p - 1.0 + alpha) - math.lgamma(p))
            / (gamma(2.0 - alpha) * g_alpham1)
            for p in range(2, N + 1)
        ]
    )
    return MomentCoeffs(alpha, N, A, B, C)


def hadamard_moment_coeffs(alpha: float, N: int) -> HadamardMomentCoeffs:
    """Coefficient triple for the Hadamard moment expansion."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    g_alpha = gamma(alpha)
    g_alpham1 = gamma(alpha - 1.0)
    a_sum = sum(
        math.exp(math.lgamma(p + alpha - 1.0) - math.lgamma(p)) / g_alpha
        for p in range(2, N + 1)
    )
    b_sum = sum(
        math.exp(math.lgamma(p + alpha - 1.0) - math.lgamma(p + 1.0)) / g_alpham1
        for p in range(1, N + 1)
    )
    A = (1.0 + a_sum) / gamma(1.0 - alpha)
    B = (1.0 + b_sum) / gamma(2.0 - alpha)
    C = np.array(
        [
            math.exp(math.lgamma(p + alpha - 1.0) - math.lgamma(p))
            / (gamma(-alpha) * gamma(1.0 + alpha))
            for p in range(2, N + 1)
        ]
    )
    return HadamardMomentCoeffs(alpha, N, A, B, C)


def b_table(alphas: Sequence[float], Ns: Sequence[int]) -> np.ndarray:
    """Matrix of B(alpha, N) over the given alpha rows and N columns."""
    return np.array([[moment_coeffs(a, N).B for N in Ns] for a in alphas])


# ---------------------------------------------------------------------------
# integer-order expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeBundle:
    """A function together with its analytic derivatives x, x', ..., x^(K).

    The integer-order expansions require exact derivatives of the expanded
    function; nested numerical differentiation is deliberately not offered,
    since it would contaminate the convergence studies built on top.
    """

    funcs: tuple

    def __post_init__(self):
        if len(self.funcs) == 0:
            raise ValueError("bundle needs at least the function itself")
        object.__setattr__(self, "funcs", tuple(self.funcs))

    @property
    def order(self) -> int:
        return len(self.funcs) - 1

    def deriv(self, k: int, t: float) -> float:
        if not 0 <= k <= self.order:
            raise IndexError(f"derivative order {k} unavailable (have 0..{self.order})")
        return float(self.funcs[k](t))


def integer_coefficient(alpha: float, k: int) -> float:
    """Coefficient of x^(k)(t) (t-a)^(k-alpha) in the integer-order expansion:

        (-1)^(k-1) * alpha / (k! (k - alpha) Gamma(1 - alpha)).
    """
    sign = 1.0 if k % 2 == 1 else -1.0
    return sign * alpha / (math.factorial(k) * (k - alpha) * gamma(1.0 - alpha))


def expand_integer_left(
    bundle: DerivativeBundle, alpha: float, N: int, t: float, a: float
) -> float:
    """Truncated integer-order expansion of the left RL derivative:

        sum_{k=0..N} (-1)^(k-1) alpha x^(k)(t) / (k! (k-alpha) Gamma(1-alpha))
            * (t-a)^(k-alpha).

    Exact whenever the derivatives of order N+1 and higher vanish.
    """
    if not t > a:
        raise ExpansionDomainError(f"left expansion needs t > a, got t={t}, a={a}")
    _check_order(bundle, N)
    return sum(
        integer_coefficient(alpha, k) * bundle.deriv(k, t) * (t - a) ** (k - alpha)
        for k in range(N + 1)
    )


def expand_integer_right(
    bundle: DerivativeBundle, alpha: float, N: int, t: float, b: float
) -> float:
    """Truncated integer-order expansion of the right RL derivative:

        sum_{k=0..N} -alpha x^(k)(t) / (k! (k-alpha) Gamma(1-alpha))
            * (b-t)^(k-alpha).
    """
    if not t < b:
        raise ExpansionDomainError(f"right expansion needs t < b, got t={t}, b={b}")
    _check_order(bundle, N)
    g = gamma(1.0 - alpha)
    return sum(
        -alpha
        * bundle.deriv(k, t)
        / (math.factorial(k) * (k - alpha) * g)
        * (b - t) ** (k - alpha)
        for k in range(N + 1)
    )


def _check_order(bundle: DerivativeBundle, N: int) -> None:
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if bundle.order < N:
        raise ValueError(
            f"expansion order {N} needs derivatives up to {N}, bundle has {bundle.order}"
        )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def moments_vp(
    x: Callable, p: int, t: float, a: float, quad_n: int
) -> float:
    """Left moment V_p(t) = (1-p) * integral_a^t (tau-a)^(p-2) x(tau) dtau.

    Composite trapezoid with ``quad_n`` panels; V_p(a) = 0 exactly.
    """
    _check_moment_args(p, quad_n)
    if t == a:
        return 0.0
    if t < a:
        raise ValueError(f"need t >= a, got t={t}, a={a}")
    grid = np.linspace(a, t, quad_n + 1)
    integrand = (grid - a) ** (p - 2) * _eval_on(x, grid)
    return float((1 - p) * np.trapezoid(integrand, dx=(t - a) / quad_n))


def moments_wp(
    x: Callable, p: int, t: float, b: float, quad_n: int
) -> float:
    """Right moment W_p(t) = (1-p) * integral_t^b (b-tau)^(p-2) x(tau) dtau."""
    _check_moment_args(p, quad_n)
    if t == b:
        return 0.0
    if t > b:
        raise ValueError(f"need t <= b, got t={t}, b={b}")
    grid = np.linspace(t, b, quad_n + 1)
    integrand = (b - grid) ** (p - 2) * _eval_on(x, grid)
    return float((1 - p) * np.trapezoid(integrand, dx=(b - t) / quad_n))


def left_moment_state(
    x: Callable, N: int, t: float, a: float, quad_n: int
) -> MomentState:
    """All left moments V_2..V_N of x at time t, as a :class:`MomentState`."""
    vals = np.array([moments_vp(x, p, t, a, quad_n) for p in range(2, N + 1)])
    return MomentState(t, vals)


def hadamard_moments_vp(
    x: Callable, p: int, t: float, a: float, quad_n: int
) -> float:
    """Logarithmic left moment (1-p) * integral_a^t (ln(tau/a))^(p-2) x(tau)/tau dtau."""
    _check_moment_args(p, quad_n)
    if a <= 0.0:
        raise ValueError(f"Hadamard moments need a > 0, got a={a}")
    if t == a:
        return 0.0
    if t < a:
        raise ValueError(f"need t >= a, got t={t}, a={a}")
    grid = np.linspace(a, t, quad_n + 1)
    integrand = np.log(grid / a) ** (p - 2) * _eval_on(x, grid) / grid
    return float((1 - p) * np.trapezoid(integrand, dx=(t - a) / quad_n))


def hadamard_moments_wp(
    x: Callable, p: int, t: float, b: float, quad_n: int
) -> float:
    """Logarithmic right moment (1-p) * integral_t^b (ln(b/tau))^(p-2) x(tau)/tau dtau."""
    _check_moment_args(p, quad_n)
    if t <= 0.0:
        raise ValueError(f"Hadamard moments need t > 0, got t={t}")
    if t == b:
        return 0.0
    if t > b:
        raise ValueError(f"need t <= b, got t={t}, b={b}")
    grid = np.linspace(t, b, quad_n + 1)
    integrand = np.log(b / grid) ** (p - 2) * _eval_on(x, grid) / grid
    return float((1 - p) * np.trapezoid(integrand, dx=(b - t) / quad_n))


def _check_moment_args(p: int, quad_n: int) -> None:
    if p < 2:
        raise ValueError(f"moment order p must be >= 2, got {p}")
    if quad_n < 1:
        raise ValueError(f"quad_n must be >= 1, got {quad_n}")


def _eval_on(f: Callable, *arrays: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function of one or more arguments elementwise on
    arrays broadcast to a common shape: one call on the whole arrays when
    ``f`` returns a result of exactly that shape, otherwise (it raised, or
    returned a scalar or a differently shaped array) one call per element."""
    if len(arrays) > 1:  # the moment quadratures make thousands of 1-array calls
        arrays = np.broadcast_arrays(*arrays)
    shape = arrays[0].shape
    try:
        out = np.asarray(f(*arrays), dtype=float)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    flat = zip(*(a.ravel() for a in arrays))
    return np.array([float(f(*args)) for args in flat]).reshape(shape)


# ---------------------------------------------------------------------------
# moment expansions
# ---------------------------------------------------------------------------


def expand_moment_left(
    x: Callable,
    xdot: Callable,
    coeffs: MomentCoeffs,
    t: float,
    a: float,
    quad_n: int,
) -> float:
    """Moment expansion of the left RL derivative:

        A (t-a)^(-alpha) x(t) + B (t-a)^(1-alpha) x'(t)
            - sum_{p=2..N} C_p (t-a)^(1-p-alpha) V_p(t).
    """
    if not t > a:
        raise ExpansionDomainError(f"left expansion needs t > a, got t={t}, a={a}")
    al, N = coeffs.alpha, coeffs.N
    dt = t - a
    out = coeffs.A * dt ** (-al) * float(x(t)) + coeffs.B * dt ** (1.0 - al) * float(
        xdot(t)
    )
    for p in range(2, N + 1):
        out -= coeffs.c(p) * dt ** (1.0 - p - al) * moments_vp(x, p, t, a, quad_n)
    return out


def expand_moment_right(
    x: Callable,
    xdot: Callable,
    coeffs: MomentCoeffs,
    t: float,
    b: float,
    quad_n: int,
) -> float:
    """Moment expansion of the right RL derivative:

        A (b-t)^(-alpha) x(t) - B (b-t)^(1-alpha) x'(t)
            - sum_{p=2..N} C_p (b-t)^(1-p-alpha) W_p(t).
    """
    if not t < b:
        raise ExpansionDomainError(f"right expansion needs t < b, got t={t}, b={b}")
    al, N = coeffs.alpha, coeffs.N
    dt = b - t
    out = coeffs.A * dt ** (-al) * float(x(t)) - coeffs.B * dt ** (1.0 - al) * float(
        xdot(t)
    )
    for p in range(2, N + 1):
        out -= coeffs.c(p) * dt ** (1.0 - p - al) * moments_wp(x, p, t, b, quad_n)
    return out


def expand_caputo_left(
    x: Callable,
    xdot: Callable,
    coeffs: MomentCoeffs,
    t: float,
    a: float,
    quad_n: int,
) -> float:
    """Moment expansion of the left Caputo derivative: the RL expansion minus
    the boundary term x(a) (t-a)^(-alpha) / Gamma(1-alpha).

    The Gamma(1-alpha) factor comes from the absolutely-continuous
    decomposition of the RL derivative; without it the expansion of a
    constant would not tend to zero.
    """
    if not t > a:
        raise ExpansionDomainError(f"left expansion needs t > a, got t={t}, a={a}")
    rl = expand_moment_left(x, xdot, coeffs, t, a, quad_n)
    return rl - float(x(a)) / ((t - a) ** coeffs.alpha * gamma(1.0 - coeffs.alpha))


def expand_atanackovic(
    x: Callable, coeffs: MomentCoeffs, t: float, a: float, quad_n: int
) -> float:
    """B-omitted variant of the moment expansion:

        A (t-a)^(-alpha) x(t) - sum_{p=2..N} C_p (t-a)^(1-p-alpha) V_p(t).

    Provided only for comparison; dropping the B term loses accuracy at any
    finite N (B(alpha, N) decays too slowly to ignore, especially as alpha
    approaches 1), so prefer :func:`expand_moment_left`.
    """
    if not t > a:
        raise ExpansionDomainError(f"left expansion needs t > a, got t={t}, a={a}")
    al, N = coeffs.alpha, coeffs.N
    dt = t - a
    out = coeffs.A * dt ** (-al) * float(x(t))
    for p in range(2, N + 1):
        out -= coeffs.c(p) * dt ** (1.0 - p - al) * moments_vp(x, p, t, a, quad_n)
    return out


# ---------------------------------------------------------------------------
# Hadamard expansions
# ---------------------------------------------------------------------------


def hadamard_expand_integer(
    bundle: DerivativeBundle, alpha: float, N: int, t: float, direction: str
) -> float:
    """Stirling-function expansion of the Hadamard operators with terminal 0:

        sum_{k=0..N} S(+alpha, k) t^k x^(k)(t)   (direction="derivative")
        sum_{k=0..N} S(-alpha, k) t^k x^(k)(t)   (direction="integral")

    Exact for monomials t^m once N >= m (the Stirling sums terminate), where
    the operators act as eigenvalue maps t^m -> m^(+-alpha) t^m.
    """
    if direction not in ("derivative", "integral"):
        raise ValueError(f"direction must be 'derivative' or 'integral', got {direction!r}")
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t!r}")
    _check_order(bundle, N)
    s = alpha if direction == "derivative" else -alpha
    return sum(
        stirling_function(s, k) * t**k * bundle.deriv(k, t) for k in range(N + 1)
    )


def hadamard_expand_moment(
    x: Callable,
    xdot: Callable,
    hcoeffs: HadamardMomentCoeffs,
    t: float,
    a: float,
    quad_n: int,
) -> float:
    """Moment expansion of the left Hadamard derivative (terminal a > 0):

        A (ln(t/a))^(-alpha) x(t) + B (ln(t/a))^(1-alpha) t x'(t)
            - sum_{p=2..N} C_p (ln(t/a))^(1-alpha-p) V_p(t)

    with logarithmic moments V_p(t) = (1-p) integral_a^t (ln(tau/a))^(p-2)
    x(tau)/tau dtau.  This is the Riemann-Liouville moment expansion applied
    in the logarithmic variable s = ln(t/a), where the moment sum enters
    with a minus sign; it is exact (up to quadrature) for x = (ln t)^1.
    """
    if a <= 0.0:
        raise ValueError(f"Hadamard expansion needs a > 0, got a={a}")
    if not t > a:
        raise ExpansionDomainError(f"left expansion needs t > a, got t={t}, a={a}")
    al, N = hcoeffs.alpha, hcoeffs.N
    L = math.log(t / a)
    out = hcoeffs.A * L ** (-al) * float(x(t)) + hcoeffs.B * L ** (1.0 - al) * t * float(
        xdot(t)
    )
    for p in range(2, N + 1):
        out -= hcoeffs.c(p) * L ** (1.0 - al - p) * hadamard_moments_vp(
            x, p, t, a, quad_n
        )
    return out


def hadamard_expand_moment_right(
    x: Callable,
    xdot: Callable,
    hcoeffs: HadamardMomentCoeffs,
    t: float,
    b: float,
    quad_n: int,
) -> float:
    """Moment expansion of the right Hadamard derivative:

        A (ln(b/t))^(-alpha) x(t) - B (ln(b/t))^(1-alpha) t x'(t)
            - sum_{p=2..N} C_p (ln(b/t))^(1-alpha-p) W_p(t)

    with W_p(t) = (1-p) integral_t^b (ln(b/tau))^(p-2) x(tau)/tau dtau.
    """
    if t <= 0.0:
        raise ValueError(f"Hadamard expansion needs t > 0, got t={t}")
    if not t < b:
        raise ExpansionDomainError(f"right expansion needs t < b, got t={t}, b={b}")
    al, N = hcoeffs.alpha, hcoeffs.N
    L = math.log(b / t)
    out = hcoeffs.A * L ** (-al) * float(x(t)) - hcoeffs.B * L ** (1.0 - al) * t * float(
        xdot(t)
    )
    for p in range(2, N + 1):
        out -= hcoeffs.c(p) * L ** (1.0 - al - p) * hadamard_moments_wp(
            x, p, t, b, quad_n
        )
    return out


def hadamard_reference(
    x: Callable, xdot: Callable, alpha: float, t: float, a: float
) -> float:
    """High-accuracy quadrature value of the left Hadamard derivative.

    Evaluates the absolutely-continuous representation

        x(a)/Gamma(1-alpha) (ln(t/a))^(-alpha)
            + 1/Gamma(1-alpha) * integral_a^t (ln(t/tau))^(-alpha) x'(tau) dtau

    after the substitution v = (ln(t/tau))^(1-alpha), which removes the
    endpoint singularity.  Serves as the reference for functions whose
    Hadamard derivative has no closed form.
    """
    if a <= 0.0:
        raise ValueError(f"Hadamard derivative needs a > 0, got a={a}")
    if not t > a:
        raise ValueError(f"need t > a, got t={t}, a={a}")
    L = math.log(t / a)
    expo = 1.0 / (1.0 - alpha)

    def integrand(v):
        s = v**expo
        tau = t * math.exp(-s)
        return float(xdot(tau)) * tau

    integral, _ = quad(integrand, 0.0, L ** (1.0 - alpha), limit=200, epsabs=1e-13, epsrel=1e-12)
    integral /= 1.0 - alpha
    return (float(x(a)) * L ** (-alpha) + integral) / gamma(1.0 - alpha)


# ---------------------------------------------------------------------------
# truncation-error bounds
# ---------------------------------------------------------------------------


def bound_integer(M: float, alpha: float, N: int, t: float, a: float) -> float:
    """Truncation bound for the integer-order expansion:

        M (t-a)^(N+1-alpha) / (Gamma(1-alpha) (N+1)!)

    with M = max over [a, t] of |x^(N+1)|.
    """
    return M * (t - a) ** (N + 1.0 - alpha) / (gamma(1.0 - alpha) * math.factorial(N + 1))


def bound_moment(L2: float, alpha: float, N: int, t: float, a: float) -> float:
    """Truncation bound for the RL moment expansion:

        L2 * e^((1-alpha)^2 + 1-alpha) / (Gamma(2-alpha) (1-alpha) N^(1-alpha))
            * (t-a)^(2-alpha)

    with L2 = max over [a, t] of |x''|.
    """
    s = 1.0 - alpha
    return L2 * math.exp(s * s + s) / (gamma(2.0 - alpha) * s * N**s) * (t - a) ** (2.0 - alpha)


def bound_hadamard(Lmax: float, alpha: float, N: int, t: float, a: float) -> float:
    """Truncation bound for the Hadamard moment expansion:

        Lmax * e^((1-alpha)^2 + 1-alpha) / (Gamma(2-alpha) (1-alpha) N^(1-alpha))
            * (ln(t/a))^(1-alpha) (t-a)

    with Lmax = max over [a, t] of |x'(tau) + tau x''(tau)|.
    """
    s = 1.0 - alpha
    return (
        Lmax
        * math.exp(s * s + s)
        / (gamma(2.0 - alpha) * s * N**s)
        * math.log(t / a) ** s
        * (t - a)
    )
