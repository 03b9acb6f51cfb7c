import math

import mpmath
import pytest

from fracvar.specfun import (
    GammaPoleError,
    SeriesConvergenceError,
    gamma,
    gen_binomial,
    mittag_leffler,
    stirling_function,
)

SQRT_PI = 1.7724538509055160273


def test_gamma_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
    # Gamma(2.5) = 1.5 * 0.5 * Gamma(0.5) by the recurrence
    assert gamma(2.5) == pytest.approx(1.5 * 0.5 * SQRT_PI, rel=1e-13)
    assert gamma(2.5) == pytest.approx(1.3293403881791370, rel=1e-13)


def test_gamma_recurrence_sweep():
    for i in range(1, 51):
        z = 0.1 * i
        assert abs(gamma(z + 1.0) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1.0))


@pytest.mark.parametrize("z", [0.0, -1.0, -3.0, -2.0 + 1e-15])
def test_gamma_pole_error(z):
    with pytest.raises(GammaPoleError):
        gamma(z)


def test_gamma_near_pole_but_outside_window():
    # 1e-13 away from the pole is outside the guard window and must evaluate
    assert math.isfinite(gamma(-2.0 + 1e-13))


def test_gen_binomial_values():
    assert gen_binomial(0.5, 0) == 1.0
    assert gen_binomial(0.5, 1) == 0.5
    assert gen_binomial(0.5, 2) == pytest.approx(-0.125, abs=1e-15)


def test_gen_binomial_matches_gamma_form():
    for alpha in (0.3, 0.5, 2.5):
        for k in range(6):
            via_gamma = gamma(alpha + 1.0) / (gamma(k + 1.0) * gamma(alpha - k + 1.0))
            assert gen_binomial(alpha, k) == pytest.approx(via_gamma, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 2.5])
def test_gen_binomial_pascal_identity(alpha):
    for k in range(1, 21):
        lhs = gen_binomial(alpha, k)
        rhs = gen_binomial(alpha - 1.0, k) + gen_binomial(alpha - 1.0, k - 1)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_gen_binomial_rejects_negative_integer_alpha():
    with pytest.raises(ValueError):
        gen_binomial(-2.0, 3)
    with pytest.raises(ValueError):
        gen_binomial(0.5, -1)


def test_mittag_leffler_reduces_to_exp():
    assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)
    for i in range(-10, 11):
        z = 0.5 * i
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12)


def test_mittag_leffler_single_term():
    assert mittag_leffler(1.0, 2.0, 0.0) == 1.0


def test_mittag_leffler_golden_value():
    # golden value from a 200-term partial sum evaluated at 50 decimal digits
    # (mpmath): sum_j 2^j / Gamma(j + 1/2)
    assert mittag_leffler(1.0, 0.5, 2.0) == pytest.approx(
        10.538428671807382812, rel=1e-13
    )


def test_mittag_leffler_validates_parameters():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, -0.5, 1.0)


def _ml_reference(alpha, beta, z):
    """E_{alpha,beta}(z) by its power series in 60-digit arithmetic."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for j in range(2000):
            term = mpmath.mpf(z) ** j / mpmath.gamma(alpha * j + beta)
            total += term
            if j > 10 and abs(term) < mpmath.mpf(10) ** -40 * abs(total):
                return float(total)
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 0.5), (1.0, 0.7), (1.0, 0.3)])
def test_mittag_leffler_negative_argument_accurate_or_raises(alpha, beta):
    for z in (-1.0, -5.0, -10.0, -20.0, -40.0):
        ref = _ml_reference(alpha, beta, z)
        try:
            val = mittag_leffler(alpha, beta, z)
        except SeriesConvergenceError:
            continue
        assert z > -20.0, f"z={z} must raise"
        assert abs(val - ref) <= 1e-10 * abs(ref)


def test_mittag_leffler_cancellation_raises():
    for z in (-20.0, -40.0):  # unguarded: -1.532e-2 off by 9e-5, and -539.2
        with pytest.raises(SeriesConvergenceError, match="cancels"):
            mittag_leffler(1.0, 0.5, z)


def test_mittag_leffler_nonconvergence():
    with pytest.raises(SeriesConvergenceError):
        mittag_leffler(1.0, 1.0, 1e9)


def test_stirling_function_k1_is_one():
    for alpha in (-1.3, 0.0, 0.5, 2.0, 4.7):
        assert stirling_function(alpha, 1) == pytest.approx(1.0, abs=1e-15)


def test_stirling_function_k0_empty_sum():
    assert stirling_function(0.7, 0) == 0.0


def _stirling2(m, k):
    # brute-force recurrence oracle for Stirling numbers of the second kind
    if m == 0 and k == 0:
        return 1
    if m == 0 or k == 0:
        return 0
    return k * _stirling2(m - 1, k) + _stirling2(m - 1, k - 1)


def test_stirling_function_matches_second_kind_integers():
    assert stirling_function(2.0, 2) == pytest.approx(1.0, abs=1e-12)
    assert stirling_function(3.0, 2) == pytest.approx(3.0, abs=1e-12)
    for m in range(1, 7):
        for k in range(1, m + 1):
            assert stirling_function(float(m), k) == pytest.approx(
                _stirling2(m, k), abs=1e-10
            )
