import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracvar.specfun import (
    ML_RTOL,
    GammaPoleError,
    SeriesConvergenceError,
    gamma,
    mittag_leffler,
    stirling_function,
)

from direct_oracles import gen_binomial

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


@pytest.mark.parametrize("z", [math.nan, -math.inf])
def test_gamma_rejects_nan_and_minus_inf(z):
    # nan was returned as is, and -inf raised a bare OverflowError from round
    with pytest.raises(ValueError, match="above -inf"):
        gamma(z)


def test_gamma_at_plus_inf_is_its_limit():
    assert gamma(math.inf) == math.inf


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_mittag_leffler_rejects_non_finite_arguments(slot, bad):
    # these summed all ML_MAX_TERMS terms before reporting non-convergence
    args = [0.5, 1.0, 0.5]
    args[slot] = bad
    with pytest.raises(ValueError, match="must be finite"):
        mittag_leffler(*args)


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


# ---------------------------------------------------------------------------
# Mittag-Leffler on arrays
# ---------------------------------------------------------------------------

#: Most negative z of each alpha's grid: E_{1,beta} sums to z = -5 for every
#: beta below, E_{1/2,beta} to z = -2; a little further each one cancels.
ML_GRID_LOW = {0.5: -2.0, 1.0: -5.0}


def _ulps(a, b):
    """|a - b| in units of the last place of b, entry by entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.abs(b))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 1.0, 2.0])
def test_mittag_leffler_array_matches_mpmath(alpha, beta):
    z = np.linspace(ML_GRID_LOW[alpha], 4.0, 49)
    got = mittag_leffler(alpha, beta, z)
    ref = np.array([_ml_reference(alpha, beta, zi) for zi in z])
    rel = np.abs(got - ref) / np.abs(ref)
    # positive terms lose a few ulp; cancelling ones up to the guarded ML_RTOL
    assert rel[z >= 0.0].max() <= 1e-14
    assert rel[z < 0.0].max() <= ML_RTOL


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
def test_mittag_leffler_array_matches_scalar_calls(alpha, beta):
    z = np.linspace(ML_GRID_LOW[alpha], 4.0, 37)
    scalar = [mittag_leffler(alpha, beta, float(zi)) for zi in z]
    assert _ulps(mittag_leffler(alpha, beta, z), scalar).max() <= 4


def _ml_scalar_loop(alpha, beta, z):
    """The series of ``mittag_leffler`` for one float z, term by term in
    Python floats: its sum and its estimated rounding error."""
    if z == 0.0:
        return 1.0 / gamma(beta), 0.0
    log_abs_z = math.log(abs(z))
    total = rounding = 0.0
    small_streak = 0
    for j in range(10**5):
        log_gamma = math.lgamma(alpha * j + beta)
        term = math.exp(j * log_abs_z - log_gamma)
        rounding += (abs(j * log_abs_z) + abs(log_gamma)) * term
        if z < 0 and j % 2 == 1:
            term = -term
        total += term
        small_streak = small_streak + 1 if abs(term) < 1e-16 * (1.0 + abs(total)) else 0
        if small_streak >= 2:
            return total, rounding * sys.float_info.epsilon
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 1.0, 2.0])
def test_mittag_leffler_array_matches_scalar_loop(alpha, beta):
    # np.exp/np.log may round other than math.exp/math.log, so the sums may
    # differ, but by no more than the two rounding estimates
    z = np.linspace(ML_GRID_LOW[alpha], 4.0, 61)
    got = mittag_leffler(alpha, beta, z)
    for zi, g in zip(z.tolist(), got.tolist()):
        ref, rounding = _ml_scalar_loop(alpha, beta, zi)
        assert abs(g - ref) <= 2.0 * rounding + np.spacing(abs(ref)), zi


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    z=hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-5.0, 4.0)),
    beta=st.floats(0.0, 2.0, exclude_min=True),
)
def test_mittag_leffler_array_property(z, beta):
    # each entry sums as it would alone: the array raises exactly when some
    # entry raises alone, and otherwise agrees with the scalar calls
    scalar = []
    for zi in z:
        try:
            scalar.append(mittag_leffler(1.0, beta, float(zi)))
        except (SeriesConvergenceError, GammaPoleError) as exc:
            with pytest.raises(type(exc)):
                mittag_leffler(1.0, beta, z)
            return
    assert _ulps(mittag_leffler(1.0, beta, z), scalar).max() <= 4


def test_mittag_leffler_shapes():
    value = mittag_leffler(1.0, 0.5, 0.5)
    assert type(value) is float
    assert type(mittag_leffler(1.0, 0.5, np.float64(0.5))) is float
    assert type(mittag_leffler(1.0, 0.5, np.array(0.5))) is float
    assert mittag_leffler(1.0, 0.5, np.array([0.5])).shape == (1,)
    grid = np.array([[0.5, 0.0, -1.0], [2.0, 0.0, 3.0]])
    got = mittag_leffler(1.0, 0.5, grid)
    assert got.shape == (2, 3)
    assert got[0, 0] == value
    assert got[0, 1] == got[1, 1] == 1.0 / gamma(0.5)  # z = 0: the first term alone
    assert mittag_leffler(1.0, 0.5, np.zeros(4)).tolist() == [1.0 / gamma(0.5)] * 4
    assert mittag_leffler(1.0, 0.5, np.zeros(0)).shape == (0,)


def test_mittag_leffler_array_error_names_the_entry():
    with pytest.raises(SeriesConvergenceError, match=r"cancels .*z=-20\.0\)"):
        mittag_leffler(1.0, 0.5, np.array([1.0, -20.0, 2.0]))
    with pytest.raises(SeriesConvergenceError, match=r"overflow .*z=1000000000\.0\)"):
        mittag_leffler(1.0, 1.0, np.array([0.5, 1e9]))
    with pytest.raises(ValueError, match="must be finite.*nan"):
        mittag_leffler(1.0, 1.0, np.array([0.5, math.nan, 1.0]))


def test_mittag_leffler_rounding_estimate_past_float_range_raises():
    # at z = 705 the terms stay finite but their rounding estimate does not;
    # the float loop and the array kernel both raise, without a RuntimeWarning
    for z in (705.0, np.array([1.0, 705.0])):
        with pytest.raises(SeriesConvergenceError, match="cancels"):
            mittag_leffler(1.0, 1.0, z)
