"""Expansion formulas approximating fractional derivatives by integer-order data.

Two families are provided, for left/right Riemann-Liouville, Caputo, and
Hadamard derivatives of order alpha in (0, 1):

* the integer-order family, a truncated series in the derivatives
  x', x'', ..., x^(N) of the function, valid for analytic functions
  (:func:`expand_integer`; Hadamard: :func:`hadamard_expand_integer`);

* the moment family, which trades higher derivatives for the weighted
  integrals ("moments")

      V_p(t) = (1 - p) * integral_a^t (tau - a)^(p-2) x(tau) dtau,

  so only x, x' and quadratures of x appear.  The coefficients A(alpha, N),
  B(alpha, N) and C(alpha, p) are gamma-ratio sums, formed from one running
  product; B decays slowly in N and must not be dropped (``xdot=None`` does,
  for comparison only).

All moments of one function, at one point or at every point of a sweep,
come from one running Gauss-Legendre pass over the cells between the points
(:func:`moment_values`), and every moment expansion, left or right,
Riemann-Liouville or Hadamard, is :func:`expand_moment` with the flags
``right`` (a reflection) and ``hadamard`` (a change of variable) of
:func:`moment_values`, around the one formula :func:`moment_expansion`.

Truncation-error bounds for both families (and the Hadamard analogue) are
implemented as callable dominance envelopes; they raise ValueError for
alpha outside (0, 1), where they can turn negative.

Both expansion families are singular at the expansion terminal (t = a on the
left, t = b on the right); evaluating there raises
:class:`ExpansionDomainError`, and mesh-based consumers should start from the
first interior node.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import gamma, stirling_function


class ExpansionDomainError(ValueError):
    """Expansion evaluated outside its domain: at its singular terminal
    point, or at an order too high to form its coefficient in floats."""


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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def moment_coeffs(alpha: float, N: int) -> MomentCoeffs:
    """Coefficient triple (A, B, {C_p}) for the RL moment expansion.

    The sums of :class:`MomentCoeffs` telescope into one running product
    r_k = prod_{j=1..k} (j + alpha) / (j + 1), r_0 = 1:

        A = N r_{N-1} / Gamma(1 - alpha),
        B = alpha r_{N-1} / Gamma(2 - alpha),
        C_p = alpha (alpha - 1) r_{p-2} / Gamma(2 - alpha).

    No sum cancels and Gamma(alpha) is never taken, so B and C keep their
    digits as alpha -> 0, and r_k ~ k^(alpha-1) cannot overflow.
    """
    _check_alpha(alpha)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    j = np.arange(1.0, N)
    r = np.cumprod(np.concatenate(([1.0], (j + alpha) / (j + 1.0))))
    g_2malpha = gamma(2.0 - alpha)
    A = N * float(r[-1]) / gamma(1.0 - alpha)
    B = alpha * float(r[-1]) / g_2malpha
    C = alpha * (alpha - 1.0) * r[:-1] / g_2malpha
    return MomentCoeffs(alpha, N, A, B, C)


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

    Raises :class:`ExpansionDomainError` when the denominator is not a
    finite float (from k = 169 on, depending on alpha).
    """
    sign = 1.0 if k % 2 == 1 else -1.0
    try:
        denominator = math.factorial(k) * (k - alpha) * gamma(1.0 - alpha)
    except OverflowError:  # k! alone is past the float range
        denominator = math.inf
    if not math.isfinite(denominator):
        raise ExpansionDomainError(
            f"order {k} too high for the integer expansion: "
            f"k! (k - alpha) Gamma(1 - alpha) overflows a float at alpha={alpha!r}"
        )
    return sign * alpha / denominator


def expand_integer(
    bundle: DerivativeBundle, alpha: float, N: int, t: float, terminal: float, right: bool = False
) -> float:
    """Truncated integer-order expansion of the left RL derivative, or with
    ``right=True`` of the right one, its reflection (``terminal`` a or b):

        sum_{k=0..N} sign^k integer_coefficient(alpha, k) x^(k)(t) s^(k-alpha)

    with s = t-a, sign = +1 on the left and s = b-t, sign = -1 on the right.
    Exact whenever the derivatives of order N+1 and higher vanish.
    """
    _check_terminal(t, terminal, right)
    _check_order(bundle, N)
    sign, s = (-1, terminal - t) if right else (1, t - terminal)
    return sum(
        sign**k * integer_coefficient(alpha, k) * bundle.deriv(k, t) * s ** (k - alpha)
        for k in range(N + 1)
    )


def _check_terminal(t: float, terminal: float, right: bool) -> None:
    if right and not t < terminal:
        raise ExpansionDomainError(f"right expansion needs t < b, got t={t}, b={terminal}")
    if not right and not t > terminal:
        raise ExpansionDomainError(f"left expansion needs t > a, got t={t}, a={terminal}")


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


#: Gauss-Legendre nodes per cell of :func:`moment_values`.
MOMENT_NODES = 64


@functools.cache
def _gauss_rule() -> tuple:
    """The MOMENT_NODES-point Gauss-Legendre rule on [0, 1]: nodes, weights."""
    from numpy.polynomial.legendre import leggauss  # on first use: no warm-up path needs it

    nodes, weights = leggauss(MOMENT_NODES)
    rule = (nodes + 1.0) / 2.0, weights / 2.0
    for a in rule:
        a.flags.writeable = False  # shared by every call
    return rule


def _moment_variable(t, terminal: float, right: bool, hadamard: bool) -> np.ndarray:
    """s = t-a, b-t, ln(t/a) or ln(b/t) of a float or an array t (as an array)."""
    t = np.asarray(t, dtype=float)
    lo, hi = (t, terminal) if right else (terminal, t)
    if hadamard and not np.all(np.greater(lo, 0.0)):
        raise ValueError(f"Hadamard moments need a positive interval, got [{lo}, {hi}]")
    if not np.all(np.less_equal(lo, hi)):
        side = "t <= b" if right else "t >= a"
        raise ValueError(f"need {side}, got t={t}, terminal={terminal}")
    return np.log(hi / lo) if hadamard else hi - lo


def moment_values(
    x: Callable, N: int, t, terminal: float, right: bool = False, hadamard: bool = False
) -> np.ndarray:
    """All moments of orders p = 2..N of x at t, a float or a 1-D array of
    points in any order: ``values[..., p - 2]`` is the order-p moment

        (1-p) * integral (tau - a)^(p-2) x(tau) dtau      over [a, t]  (left)
        (1-p) * integral (b - tau)^(p-2) x(tau) dtau      over [t, b]  (right=True)

    with ``terminal`` the a or b; ``hadamard=True`` takes the base ln(tau/a)
    or ln(b/tau) instead and the weight 1/tau.  In the variable s of
    :func:`expand_moment` each is (1-p) integral_0^s u^(p-2) x(tau(u)) du,
    tau = a + u, b - u, a e^u or b e^-u, whose integrand does not depend on
    t.  So the points are sorted by s, each cell between consecutive values
    (the first from 0) gets the same MOMENT_NODES-point Gauss-Legendre rule,
    x is evaluated once on all nodes, and the cells are summed cumulatively.
    A zero-width cell (a point at the terminal, or a repeated point) adds
    exactly 0 and evaluates nothing, and N < 2 evaluates nothing.  The rule
    is fixed, so an order's value depends neither on N nor on the order of
    the points (which other points share the pass moves it by rounding).
    Exact to rounding for polynomial x up to the rule's degree, spectral for
    analytic x; for x = t^beta the first cell is off by about 2.6e-6 /
    5.8e-7 / 8.7e-8 relative at beta = 0.3 / 0.5 / 0.7.  Shape (N - 1,) for
    a float t, (P, N - 1) for P points.
    """
    s = _moment_variable(t, terminal, right, hadamard)
    order = np.argsort(s.ravel(), kind="stable")
    edges = np.concatenate(([0.0], s.ravel()[order]))
    width = np.diff(edges)
    cells = np.flatnonzero(width > 0.0)
    sums = np.zeros((len(width), max(N - 1, 0)))  # per cell, in sorted order
    if N >= 2 and cells.size:
        nodes, weights = _gauss_rule()
        u = edges[cells, None] + width[cells, None] * nodes  # (cells, MOMENT_NODES)
        if hadamard:
            tau = terminal * np.exp(-u if right else u)
        else:
            tau = terminal - u if right else terminal + u
        wf = width[cells, None] * weights * _eval_on(x, tau.ravel()).reshape(u.shape)
        for p in range(2, N + 1):
            sums[cells, p - 2] = wf.sum(axis=1)
            wf *= u
    values = np.empty_like(sums)
    values[order] = np.cumsum(sums, axis=0) * (1.0 - np.arange(2, N + 1))
    return values.reshape(s.shape + sums.shape[1:])


def _eval_on(f: Callable, *arrays: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function of one or more arguments elementwise on
    arrays broadcast to a common shape: one call on the arrays as given when
    ``f`` returns a result of exactly that shape, otherwise (it raised, or
    returned a scalar or a differently shaped array) one call per element of
    the broadcast arrays."""
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    try:
        out = np.asarray(f(*arrays), dtype=float)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    flat = zip(*(a.ravel() for a in np.broadcast_arrays(*arrays)))
    return np.array([float(f(*args)) for args in flat]).reshape(shape)


# ---------------------------------------------------------------------------
# moment expansions
# ---------------------------------------------------------------------------


def moment_expansion(coeffs: MomentCoeffs, s, x_t, xs_t, moments):
    """The moment-expansion formula that every moment expansion evaluates:

        A s^(-alpha) x + B s^(1-alpha) dx/ds - sum_{p=2..N} C_p s^(1-p-alpha) V_p

    with N = ``coeffs.N`` and V_p = ``moments[..., p - 2]``.  Entries past
    N - 1 are not used, so moments computed once at the largest N of a sweep
    serve every smaller N.  s > 0 and ``xs_t`` = dx/ds (None drops the B
    term) are chosen by the flags of :func:`expand_moment`.  One point takes
    floats and a 1-D ``moments`` and returns a float; P points take arrays of
    s, x and dx/ds and ``moments`` of shape (P, K) and return an array, each
    entry summed in the same order as a single point.  Raises
    :class:`ExpansionDomainError` when the result is not a finite float at
    some point (s^(1-p-alpha) overflows for small s and large p).
    """
    out = _moment_formula(coeffs, s, x_t, xs_t, moments)
    bad = ~np.isfinite(out)
    if bad.any():
        where = float(s) if out.ndim == 0 else np.asarray(s, dtype=float)[bad].tolist()
        raise ExpansionDomainError(
            f"moment expansion of order {coeffs.N} is not finite at s={where!r}"
        )
    return float(out) if out.ndim == 0 else out


def _moment_formula(coeffs: MomentCoeffs, s, x_t, xs_t, moments) -> np.ndarray:
    """:func:`moment_expansion` without its finiteness check: a point where a
    term overflows comes back inf or nan, and no numpy warning is issued."""
    n_moments = coeffs.N - 1
    moments = np.asarray(moments, dtype=float)
    if moments.shape[-1] < n_moments:
        raise ValueError(f"order {coeffs.N} needs {n_moments} moments, got {moments.shape[-1]}")
    al, s = coeffs.alpha, np.asarray(s, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = coeffs.A * s ** (-al) * x_t
        if xs_t is not None:
            out = out + coeffs.B * s ** (1.0 - al) * xs_t
        for p, c in enumerate(coeffs.C[:n_moments].tolist(), start=2):
            out = out - c * s ** (1.0 - p - al) * moments[..., p - 2]
    return np.asarray(out)


def _moment_point(
    x: Callable, xdot: Optional[Callable], t, terminal: float, right: bool, hadamard: bool
) -> tuple:
    """The arguments (s, x(t), dx/ds) of :func:`moment_expansion` at t, a
    float or a 1-D array: one call of x and of xdot on the points."""
    s = _moment_variable(t, terminal, right, hadamard)
    if not np.all(s > 0.0):
        raise ExpansionDomainError(f"moment expansion is singular at t={t}, terminal={terminal}")
    t = np.asarray(t, dtype=float)
    if xdot is None:
        return s, _eval_on(x, t), None
    xs = _eval_on(xdot, t)
    if hadamard:
        xs = t * xs
    return s, _eval_on(x, t), -xs if right else xs


def expand_moment(
    x: Callable,
    xdot: Optional[Callable],
    coeffs: MomentCoeffs,
    t: float,
    terminal: float,
    right: bool = False,
    hadamard: bool = False,
) -> float:
    """Moment expansion (:func:`moment_expansion`) of the left or right,
    Riemann-Liouville or Hadamard derivative at t, with the moments of
    :func:`moment_values` under the same flags and ``terminal`` the a or b:

        left RL (default)     s = t-a,      dx/ds = x'(t)
        right RL (right)      s = b-t,      dx/ds = -x'(t)
        left Hadamard         s = ln(t/a),  dx/ds = t x'(t)
        right Hadamard        s = ln(b/t),  dx/ds = -t x'(t)

    The Hadamard form is the RL one in the variable s (exact up to rounding
    for x = ln t) with the same ``coeffs``: its normalization Gamma(-alpha)
    Gamma(1+alpha) equals Gamma(2-alpha) Gamma(alpha-1).  ``xdot=None`` drops
    the B term, for comparison only: B(alpha, N) decays too slowly in N to
    ignore, especially as alpha approaches 1.

    The left Caputo derivative's expansion is the left RL one minus the
    boundary term x(a) (t-a)^(-alpha) / Gamma(1-alpha):

        expand_moment(x, xdot, coeffs, t, a)
            - x(a) / ((t - a)**coeffs.alpha * gamma(1 - coeffs.alpha))

    Without the Gamma(1-alpha) factor, which comes from the absolutely
    continuous decomposition of the RL derivative, the expansion of a
    constant would not tend to zero.
    """
    s, x_t, xs_t = _moment_point(x, xdot, t, terminal, right, hadamard)
    moments = moment_values(x, coeffs.N, t, terminal, right, hadamard)
    return moment_expansion(coeffs, s, x_t, xs_t, moments)


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


def hadamard_reference(
    x: Callable, xdot: Callable, alpha: float, t: float, a: float
) -> float:
    """High-accuracy quadrature value of the left Hadamard derivative.

    Evaluates the absolutely-continuous representation

        x(a)/Gamma(1-alpha) (ln(t/a))^(-alpha)
            + 1/Gamma(1-alpha) * integral_a^t (ln(t/tau))^(-alpha) x'(tau) dtau

    after the substitution v = (ln(t/tau))^(1-alpha), which removes the
    endpoint singularity.  Serves as the reference for functions whose
    Hadamard derivative has no closed form.  The representation holds for
    alpha in (0, 1) only; any other alpha raises ValueError.
    """
    from scipy.integrate import quad

    _check_alpha(alpha)
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

    with M = max over [a, t] of |x^(N+1)|.  ``t`` and ``M`` may be arrays
    (evaluated elementwise).
    """
    _check_alpha(alpha)
    return M * (t - a) ** (N + 1.0 - alpha) / (gamma(1.0 - alpha) * math.factorial(N + 1))


def bound_moment(L2: float, alpha: float, N: int, t: float, a: float) -> float:
    """Truncation bound for the RL moment expansion:

        L2 * e^((1-alpha)^2 + 1-alpha) / (Gamma(2-alpha) (1-alpha) N^(1-alpha))
            * (t-a)^(2-alpha)

    with L2 = max over [a, t] of |x''|.  ``t`` and ``L2`` may be arrays
    (evaluated elementwise).
    """
    _check_alpha(alpha)
    s = 1.0 - alpha
    return L2 * math.exp(s * s + s) / (gamma(2.0 - alpha) * s * N**s) * (t - a) ** (2.0 - alpha)


def bound_hadamard(Lmax: float, alpha: float, N: int, t: float, a: float) -> float:
    """Truncation bound for the Hadamard moment expansion:

        Lmax * e^((1-alpha)^2 + 1-alpha) / (Gamma(2-alpha) (1-alpha) N^(1-alpha))
            * (ln(t/a))^(1-alpha) (t-a)

    with Lmax = max over [a, t] of |x'(tau) + tau x''(tau)|.  ``t`` and
    ``Lmax`` may be arrays (evaluated elementwise).
    """
    _check_alpha(alpha)
    s = 1.0 - alpha
    return (
        Lmax
        * math.exp(s * s + s)
        / (gamma(2.0 - alpha) * s * N**s)
        * np.log(t / a) ** s
        * (t - a)
    )
