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

import numpy as np


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
    ``POLE_WINDOW`` of a nonpositive integer, and :class:`ValueError` for a
    NaN or -inf ``z`` (Gamma(+inf) is +inf).
    """
    if not z > 0.5:
        if not z > -math.inf:
            raise ValueError(f"gamma needs a number above -inf, got z={z!r}")
        nearest = round(z)
        if nearest <= 0 and abs(z - nearest) < POLE_WINDOW:
            raise GammaPoleError(f"gamma pole at z={z!r} (nonpositive integer)")
    return math.gamma(z)


def mittag_leffler(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    ``z`` may be a float or an array: a float comes back as a float, an
    array as an array of its shape, and every entry is summed as a float
    would be.  Plain series summation sum_{j>=0} z^j / Gamma(alpha*j + beta),
    stopped once the absolute term falls below 1e-16 * (1 + |partial sum|)
    for two consecutive terms.  Terms are formed as exp(j*log|z| - lgamma(...))
    so intermediate overflow cannot occur before the value itself overflows;
    lgamma is evaluated once per j for all entries.  The entries are summed
    together, and each one drops out after its own two small terms, so it
    sums exactly the terms it would sum alone.  z = 0 gives 1/Gamma(beta).

    No asymptotic branch is provided: for large |z| the series degrades and
    eventually exceeds the ``ML_MAX_TERMS`` budget, which raises
    :class:`SeriesConvergenceError`.  The rounding error of the sum is
    estimated as the sum of each term's evaluation error,
    (|j log|z|| + |lgamma|) * eps * |term|, and
    :class:`SeriesConvergenceError` is raised when it exceeds
    ``ML_RTOL * |sum|``.  That happens only for negative z, where the
    alternating terms cancel: for alpha = 1 between z = -5 and z = -10.
    These checks hold for each entry, and the error names the z of the entry
    that failed; a non-finite entry raises :class:`ValueError`.
    """
    zs = np.asarray(z, dtype=float)
    finite = np.isfinite(zs)
    if not (math.isfinite(alpha) and math.isfinite(beta) and finite.all()):
        bad = zs.flat[np.argmin(finite)] if zs.ndim else z
        raise ValueError(f"alpha, beta and z must be finite, got {alpha!r}, {beta!r}, {bad!r}")
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"alpha and beta must be positive, got {alpha!r}, {beta!r}")
    flat = zs.ravel()
    out = np.empty(flat.shape)
    zero = flat == 0.0
    if zero.any():
        out[zero] = 1.0 / gamma(beta)
    if not zero.all():
        out[~zero] = _ml_series(alpha, beta, flat[~zero])
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _ml_series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """The series of :func:`mittag_leffler` at nonzero finite z (1-D).  The
    arrays hold the entries still summing; they shrink when some finish."""
    out = np.empty(z.shape)
    where = np.arange(z.size)  # position in ``out`` of each live entry
    log_abs_z = np.log(np.abs(z))
    sign = np.where(z < 0.0, -1.0, 1.0)  # of the odd terms
    total = np.zeros(z.shape)
    rounding = np.zeros(z.shape)
    small_before = np.zeros(z.shape, dtype=bool)
    # past the float range a value becomes inf without a numpy warning: a
    # term raises at once, a rounding estimate fails the check at the stop
    with np.errstate(over="ignore"):
        for j in range(ML_MAX_TERMS):
            log_gamma = math.lgamma(alpha * j + beta)
            jl = j * log_abs_z
            term = np.exp(jl - log_gamma)
            if term.max() == math.inf:
                k = int(np.argmax(term))
                raise SeriesConvergenceError(
                    f"Mittag-Leffler term overflow at j={j} "
                    f"(alpha={alpha}, beta={beta}, z={z[k]}); |z| too large for summation"
                )
            np.abs(jl, out=jl)
            jl += abs(log_gamma)
            jl *= term
            rounding += jl
            total += term * sign if j % 2 == 1 else term
            small = term < 1e-16 * (1.0 + np.abs(total))
            done = small & small_before
            small_before = small
            if not done.any():
                continue
            finished = total[done]
            cancels = rounding[done] * _EPS > ML_RTOL * np.abs(finished)
            if cancels.any():
                k = int(np.argmax(cancels))
                err, bound = rounding[done][k] * _EPS, ML_RTOL * abs(finished[k])
                raise SeriesConvergenceError(
                    f"Mittag-Leffler series cancels (alpha={alpha}, beta={beta}, "
                    f"z={z[done][k]}): estimated rounding error {err:.3e} "
                    f"exceeds {ML_RTOL:g} * |sum| = {bound:.3e}"
                )
            out[where[done]] = finished
            keep = ~done
            if not keep.any():
                return out
            z, where, log_abs_z, sign, total, rounding, small_before = (
                a[keep] for a in (z, where, log_abs_z, sign, total, rounding, small_before)
            )
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not converge within {ML_MAX_TERMS} terms "
        f"(alpha={alpha}, beta={beta}, z={z[0]}); |z| too large for summation"
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
