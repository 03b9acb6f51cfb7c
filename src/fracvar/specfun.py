"""Special functions used throughout the package.

Everything downstream (expansion coefficients, Grunwald-Letnikov weights,
exact reference derivatives) funnels through the gamma function, so its
accuracy bounds the accuracy of the whole library.  ``math.gamma`` is a
standard high-accuracy implementation (Lanczos-type for positive arguments,
reflection for negative ones) good to a few ulp, which comfortably meets the
1e-13 relative-accuracy requirement on (0, 30); we only add an explicit
guard around the poles at nonpositive integers.
"""

import math
import sys


class GammaPoleError(ValueError):
    """Gamma evaluated at (or numerically indistinguishable from) a pole."""


class SeriesConvergenceError(ArithmeticError):
    """A series evaluation did not converge within its iteration budget, or
    cancellation left its sum less accurate than required."""


#: Half-width of the exclusion window around nonpositive-integer poles.
POLE_WINDOW = 1e-14

#: Iteration budget for Mittag-Leffler series summation.
ML_MAX_TERMS = 10**6

#: Largest accepted ratio of the estimated rounding error of the
#: Mittag-Leffler series to the magnitude of its sum.
ML_RTOL = 1e-10

_EPS = sys.float_info.epsilon


def gamma(z: float) -> float:
    """Euler gamma function Gamma(z).

    Satisfies the recurrence Gamma(z+1) = z*Gamma(z) to better than 1e-12
    relative error.  Raises :class:`GammaPoleError` when ``z`` lies within
    ``POLE_WINDOW`` of a nonpositive integer.
    """
    if z <= 0.5:
        nearest = round(z)
        if nearest <= 0 and abs(z - nearest) < POLE_WINDOW:
            raise GammaPoleError(f"gamma pole at z={z!r} (nonpositive integer)")
    return math.gamma(z)


def gen_binomial(alpha: float, k: int) -> float:
    """Generalized binomial coefficient binom(alpha, k) for real alpha.

    Computed by the product form alpha*(alpha-1)*...*(alpha-k+1)/k!, which
    stays finite at integer alpha where the gamma-quotient form
    Gamma(alpha+1)/(Gamma(k+1)*Gamma(alpha-k+1)) hits poles.  The two forms
    agree wherever the latter is defined.
    """
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if alpha < 0 and abs(alpha - round(alpha)) < POLE_WINDOW:
        raise ValueError(f"alpha must not be a negative integer, got {alpha!r}")
    coeff = 1.0
    for j in range(k):
        coeff *= (alpha - j) / (j + 1)
    return coeff


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Plain series summation sum_{j>=0} z^j / Gamma(alpha*j + beta), stopped
    once the absolute term falls below 1e-16 * (1 + |partial sum|) for two
    consecutive terms.  Terms are formed as exp(j*log|z| - lgamma(...)) so
    intermediate overflow cannot occur before the value itself overflows.

    No asymptotic branch is provided: for large |z| the series degrades and
    eventually exceeds the ``ML_MAX_TERMS`` budget, which raises
    :class:`SeriesConvergenceError`.  The rounding error of the sum is
    estimated as the sum of each term's evaluation error,
    (|j log|z|| + |lgamma|) * eps * |term|, and
    :class:`SeriesConvergenceError` is raised when it exceeds
    ``ML_RTOL * |sum|``.  That happens only for negative z, where the
    alternating terms cancel: for alpha = 1 between z = -5 and z = -10.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"alpha and beta must be positive, got {alpha!r}, {beta!r}")
    if z == 0.0:
        return 1.0 / gamma(beta)
    log_abs_z = math.log(abs(z))
    total = 0.0
    rounding = 0.0
    small_streak = 0
    for j in range(ML_MAX_TERMS):
        log_gamma = math.lgamma(alpha * j + beta)
        try:
            term = math.exp(j * log_abs_z - log_gamma)
        except OverflowError as exc:
            raise SeriesConvergenceError(
                f"Mittag-Leffler term overflow at j={j} "
                f"(alpha={alpha}, beta={beta}, z={z}); |z| too large for summation"
            ) from exc
        rounding += (abs(j * log_abs_z) + abs(log_gamma)) * term
        if z < 0 and j % 2 == 1:
            term = -term
        total += term
        if abs(term) < 1e-16 * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 2:
                if rounding * _EPS > ML_RTOL * abs(total):
                    raise SeriesConvergenceError(
                        f"Mittag-Leffler series cancels (alpha={alpha}, beta={beta}, "
                        f"z={z}): estimated rounding error {rounding * _EPS:.3e} "
                        f"exceeds {ML_RTOL:g} * |sum| = {ML_RTOL * abs(total):.3e}"
                    )
                return total
        else:
            small_streak = 0
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not converge within {ML_MAX_TERMS} terms "
        f"(alpha={alpha}, beta={beta}, z={z}); |z| too large for summation"
    )


def stirling_function(alpha: float, k: int) -> float:
    """Stirling function S(alpha, k) = (1/k!) sum_{j=1..k} (-1)^(k-j) C(k,j) j^alpha.

    Real-order generalization of the Stirling numbers of the second kind:
    for integer alpha = m >= 1 it reproduces S(m, k).  The empty sum gives
    S(alpha, 0) = 0.
    """
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if k == 0:
        return 0.0
    total = 0.0
    for j in range(1, k + 1):
        term = math.comb(k, j) * j**alpha
        if (k - j) % 2 == 1:
            term = -term
        total += term
    return total / math.factorial(k)
