import math

import mpmath
import numpy as np
import pytest

from fracvar.expansions import (
    DerivativeBundle,
    ExpansionDomainError,
    b_table,
    bound_hadamard,
    bound_integer,
    bound_moment,
    expand_integer,
    expand_moment,
    hadamard_expand_integer,
    hadamard_reference,
    integer_coefficient,
    moment_coeffs,
    moment_expansion,
    moment_values,
)
from fracvar.expansions import MOMENT_NODES
from fracvar.operators import hadamard_logpow_exact, rl_exp_exact, rl_power_exact
from fracvar.specfun import gamma, mittag_leffler

def power_bundle(m, order=10):
    def deriv(k):
        if k > m:
            return lambda t: 0.0
        c = math.factorial(m) / math.factorial(m - k)
        return lambda t, c=c, e=m - k: c * t**e

    return DerivativeBundle(tuple(deriv(k) for k in range(order + 1)))


def exp2_bundle(order=10):
    return DerivativeBundle(
        tuple(
            (lambda k: (lambda t, k=k: 2.0**k * math.exp(2.0 * t)))(k)
            for k in range(order + 1)
        )
    )


def hadamard_t4_exact(alpha, t):
    # t^4 is exp(4s) in log-time s = ln t, so the derivative from terminal 1
    # is (ln t)^(-alpha) E_{1,1-alpha}(4 ln t)
    return math.log(t) ** (-alpha) * mittag_leffler(1.0, 1.0 - alpha, 4.0 * math.log(t))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_moment_coeffs_table_spot_values():
    assert moment_coeffs(0.5, 4).B == pytest.approx(0.3085, abs=5e-5)
    assert moment_coeffs(0.9, 30).B == pytest.approx(0.6990, abs=5e-5)


def test_moment_coeffs_empty_sum_at_n1():
    for alpha in (0.3, 0.5, 0.7):
        assert moment_coeffs(alpha, 1).A == pytest.approx(
            1.0 / gamma(1.0 - alpha), rel=1e-14
        )


def test_moment_coeffs_series_bookkeeping():
    # adding one series term to A and B and removing it recovers the originals
    for alpha in (0.3, 0.5, 0.9):
        for N in (2, 5, 17):
            lo, hi = moment_coeffs(alpha, N), moment_coeffs(alpha, N + 1)
            p = N + 1
            a_term = math.exp(math.lgamma(p - 1.0 + alpha) - math.lgamma(p)) / (
                gamma(alpha) * gamma(1.0 - alpha)
            )
            b_term = math.exp(math.lgamma(p - 1.0 + alpha) - math.lgamma(p + 1.0)) / (
                gamma(alpha - 1.0) * gamma(2.0 - alpha)
            )
            assert abs(hi.A - a_term - lo.A) <= 1e-13 * max(1.0, abs(lo.A))
            assert abs(hi.B - b_term - lo.B) <= 1e-13 * max(1.0, abs(lo.B))


def mp_moment_coeffs(alpha, N):
    """(A, B, [C_2..C_N]) at 50 digits from the defining sums, Gamma(alpha - 1)
    included."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        g = [mpmath.gamma(p - 1 + a) for p in range(1, N + 1)]  # Gamma(p - 1 + alpha)
        A = 1 + sum(g[p - 1] / mpmath.factorial(p - 1) for p in range(2, N + 1)) / mpmath.gamma(a)
        B = 1 + sum(g[p - 1] / mpmath.factorial(p) for p in range(1, N + 1)) / mpmath.gamma(a - 1)
        c = mpmath.gamma(2 - a) * mpmath.gamma(a - 1)
        C = [g[p - 1] / (mpmath.factorial(p - 1) * c) for p in range(2, N + 1)]
        return A / mpmath.gamma(1 - a), B / mpmath.gamma(2 - a), C


@pytest.mark.parametrize("alpha", [1e-13, 1e-8, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_moment_coeffs_match_mpmath_down_to_small_alpha(alpha):
    # Gamma(alpha - 1) at the rounded alpha - 1 and 1 + sum cancelling lost B
    # and C like eps / alpha^2: B(1e-8, 4) came out -2.52e-9 for +2.50e-9
    for N in (1, 4, 7, 15, 30, 70, 120, 170):
        got = moment_coeffs(alpha, N)
        A, B, C = mp_moment_coeffs(alpha, N)
        assert abs(got.A - A) <= 1e-13 * abs(A), N
        assert abs(got.B - B) <= 1e-13 * abs(B), N
        assert len(got.C) == len(C)
        for p, (value, ref) in enumerate(zip(got.C, C), 2):
            assert abs(value - ref) <= 5e-13 * abs(ref), (N, p)


def hadamard_normalized_coeffs(alpha, N):
    """(A, B, C) of the Hadamard moment expansion from its own normalization:
    C[p] = Gamma(p+alpha-1) / (Gamma(-alpha) Gamma(1+alpha) (p-1)!), and the
    A, B sums written with Gamma(p+alpha-1)."""
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
    return A, B, C


def test_hadamard_coeffs_match_rl_values():
    # the two normalizations are written differently but agree numerically
    for alpha in (0.3, 0.5, 0.9):
        rl = moment_coeffs(alpha, 6)
        A, B, C = hadamard_normalized_coeffs(alpha, 6)
        assert A == pytest.approx(rl.A, rel=1e-12)
        assert B == pytest.approx(rl.B, rel=1e-12)
        assert np.allclose(C, rl.C, rtol=1e-12)


def test_b_table_spot_values():
    table = b_table([0.1, 0.7, 0.99], [4, 70, 170])
    assert table[0, 0] == pytest.approx(0.0310, abs=5e-5)
    assert table[1, 1] == pytest.approx(0.2396, abs=5e-5)
    assert table[2, 2] == pytest.approx(0.9498, abs=5e-5)


def test_coeff_validation():
    with pytest.raises(ValueError):
        moment_coeffs(1.0, 4)
    with pytest.raises(ValueError):
        moment_coeffs(0.5, 0)
    with pytest.raises(IndexError):
        moment_coeffs(0.5, 3).c(4)


# ---------------------------------------------------------------------------
# integer-order expansion
# ---------------------------------------------------------------------------


def test_expand_integer_left_exact_for_t4():
    bundle = power_bundle(4)
    for t in np.linspace(0.1, 1.0, 10):
        exact = rl_power_exact(4.0, 0.5, t, 0.0)
        assert abs(expand_integer(bundle, 0.5, 4, t, 0.0) - exact) <= 1e-9


def test_expand_integer_left_n0_term():
    bundle = power_bundle(3)
    for t in (0.3, 0.8):
        expect = bundle.deriv(0, t) * t**-0.5 / gamma(0.5)
        assert expand_integer(bundle, 0.5, 0, t, 0.0) == pytest.approx(
            expect, rel=1e-13
        )


def test_expand_integer_left_error_decreases_for_exp():
    bundle = exp2_bundle()
    exact = rl_exp_exact(2.0, 0.5, 1.0)
    errs = [
        abs(expand_integer(bundle, 0.5, N, 1.0, 0.0) - exact) for N in (1, 2, 3)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_expand_integer_left_domain_error():
    with pytest.raises(ExpansionDomainError):
        expand_integer(power_bundle(2), 0.5, 2, 0.0, 0.0)


@pytest.mark.parametrize("alpha, last", [(0.5, 169), (0.99, 168)])
def test_integer_coefficient_past_float_range_raises(alpha, last):
    # k! (k - alpha) Gamma(1 - alpha) overflows a float from k = last + 1 on
    # (k! alone from k = 171); up to k = last the formula still holds
    a = mpmath.mpf(alpha)
    exact = (-1) ** (last - 1) * a / (mpmath.factorial(last) * (last - a) * mpmath.gamma(1 - a))
    assert integer_coefficient(alpha, last) == pytest.approx(float(exact), rel=1e-13)
    for k in (last + 1, last + 2, 171):
        with pytest.raises(ExpansionDomainError):
            integer_coefficient(alpha, k)


def test_expand_integer_right_basic():
    const = DerivativeBundle((lambda t: 1.0, lambda t: 0.0, lambda t: 0.0))
    for N in (0, 2):
        assert expand_integer(const, 0.5, N, 0.25, 1.0, right=True) == pytest.approx(
            0.75**-0.5 / gamma(0.5), rel=1e-13
        )
    with pytest.raises(ExpansionDomainError):
        expand_integer(const, 0.5, 1, 1.0, 1.0, right=True)


def test_expand_integer_right_mirror_power():
    # (1-t)^2 on [0,1]: right derivative equals Gamma(3)/Gamma(3-alpha) (1-t)^(2-alpha)
    def deriv(k):
        coeffs = {0: lambda t: (1.0 - t) ** 2, 1: lambda t: -2.0 * (1.0 - t), 2: lambda t: 2.0}
        return coeffs.get(k, lambda t: 0.0)

    bundle = DerivativeBundle(tuple(deriv(k) for k in range(5)))
    for alpha in (0.3, 0.7):
        for t in (0.2, 0.6):
            exact = gamma(3.0) / gamma(3.0 - alpha) * (1.0 - t) ** (2.0 - alpha)
            assert expand_integer(bundle, alpha, 2, t, 1.0, right=True) == pytest.approx(
                exact, rel=1e-9
            )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


# (kernel keywords, terminal, interior points)
MOMENT_KINDS = (
    ({}, 0.0, (0.3, 1.0)),
    ({"right": True}, 1.0, (0.0, 0.55)),
    ({"hadamard": True}, 1.0, (1.3, 2.0)),
    ({"right": True, "hadamard": True}, 2.0, (1.0, 1.45)),
)

#: Every moment form with x = u^m in its own variable s, so that V_p is
#: (1-p) s^(p-1+m) / (p-1+m): (keywords, terminal, grid, x of m, s of t).
#: The Hadamard forms use 20 points: x = ln(b/t)^m itself loses about
#: eps / ln(b/t) relative next to the terminal, which at 100 points is more
#: than the kernel's own error.
CLOSED_FORM_CASES = {
    "left": ({}, 0.0, np.linspace(0.0, 1.0, 101)[1:],
             lambda m: lambda t: t**m, lambda t: t - 0.0),
    "right": ({"right": True}, 1.0, np.linspace(0.0, 1.0, 101)[:-1],
              lambda m: lambda t: (1.0 - t) ** m, lambda t: 1.0 - t),
    "hadamard": ({"hadamard": True}, 1.0, np.linspace(1.0, 2.0, 21)[1:],
                 lambda m: lambda t: np.log(t) ** m, lambda t: np.log(t / 1.0)),
    "right-hadamard": ({"right": True, "hadamard": True}, 2.0, np.linspace(1.0, 2.0, 21)[:-1],
                       lambda m: lambda t: np.log(2.0 / t) ** m, lambda t: np.log(2.0 / t)),
}


def assert_moments_within(values, refs, N):
    # 2e-15 p relative for order p: the rounding of s enters as s^(p-1).
    # References below the normal range carry no relative digits, so they
    # are left out.
    p = np.arange(2, N + 1)
    normal = np.abs(refs) >= np.finfo(float).tiny
    assert normal[:, :20].all()
    err = np.abs(values - refs)
    assert np.all(err[normal] <= (2e-15 * p * np.abs(refs))[normal])


@pytest.mark.parametrize("m", [0, 1, 2, 4])
@pytest.mark.parametrize("form", list(CLOSED_FORM_CASES))
def test_moments_match_closed_forms_up_to_order_400(form, m):
    kind, terminal, points, x_of, s_of = CLOSED_FORM_CASES[form]
    N = 400
    values = moment_values(x_of(m), N, points, terminal, **kind)
    assert values.shape == (len(points), N - 1)
    s = s_of(points)[:, None]
    p = np.arange(2, N + 1)
    with np.errstate(under="ignore"):
        refs = (1.0 - p) * s ** (p - 1.0 + m) / (p - 1.0 + m)
    assert_moments_within(values, refs, N)


def mp_series_moments(coefficient, s, N):
    """V_2..V_N at s <= 1 of x(u) = sum_j coefficient(j) u^j, from the first
    40 terms of the series (2^40 / 40! < 1e-35) integrated term by term at
    30 digits."""
    with mpmath.workdps(30):
        s = mpmath.mpf(float(s))
        terms = [(coefficient(j) * s**j, j) for j in range(40)]
        out, power = [], s
        for p in range(2, N + 1):  # power = s^(p-1)
            out.append(float((1 - p) * power * sum(c / (p - 1 + e) for c, e in terms)))
            power *= s
        return out


@pytest.mark.parametrize("x, coefficient", [
    (lambda t: np.exp(2.0 * t), lambda j: mpmath.mpf(2) ** j / mpmath.factorial(j)),
    # scalar only: the kernel's one array call falls back to a call per node
    (lambda t: math.sin(t), lambda j: (-1) ** (j // 2) / mpmath.factorial(j) if j % 2 else 0),
], ids=["exp2t", "sin"])
def test_moments_match_mpmath_series_up_to_order_400(x, coefficient):
    N, points = 400, np.linspace(0.0, 1.0, 21)[1:]
    values = moment_values(x, N, points, 0.0)
    refs = np.array([mp_series_moments(coefficient, t, N) for t in points])
    assert_moments_within(values, refs, N)


def test_moment_kernel_is_one_running_sum_in_any_order():
    # the points may come in any order and repeat; each gets the value it
    # gets alone on the sorted grid, and x is evaluated once on all nodes
    calls = []

    def x(t):
        calls.append(np.shape(t))
        return np.exp(2.0 * t)

    for kind, terminal, points in MOMENT_KINDS:
        far = max(points, key=lambda t: abs(t - terminal))
        grid = np.linspace(terminal, far, 9)  # sorted by s, from the terminal on
        shuffled = grid[[4, 0, 8, 2, 4, 7, 1, 3, 6, 5]]
        calls.clear()
        got = moment_values(x, 12, shuffled, terminal, **kind)
        assert calls == [(8 * MOMENT_NODES,)]  # nine points, one of them the terminal
        sorted_values = moment_values(x, 12, grid, terminal, **kind)
        assert got.shape == (10, 11)
        assert np.array_equal(got, sorted_values[[4, 0, 8, 2, 4, 7, 1, 3, 6, 5]])
        for t, row in zip(shuffled, got):
            single = moment_values(x, 12, t, terminal, **kind)
            assert np.allclose(row, single, rtol=1e-14, atol=0.0), (kind, t)


def test_moment_kernel_is_zero_at_terminal():
    calls = []

    def x(t):
        calls.append(t)
        return 1.0

    for kind, terminal, _ in MOMENT_KINDS:
        values = moment_values(x, 12, terminal, terminal, **kind)
        assert values.shape == (11,) and np.all(values == 0.0)
        values = moment_values(x, 12, np.full(3, terminal), terminal, **kind)
        assert values.shape == (3, 11) and np.all(values == 0.0)
    assert not calls


def test_moment_kernel_below_order_two_evaluates_nothing():
    def x(t):
        raise AssertionError("x evaluated")

    assert moment_values(x, 1, 0.5, 0.0).shape == (0,)
    assert moment_values(x, 1, np.array([0.2, 0.5]), 0.0).shape == (2, 0)
    coeffs = moment_coeffs(0.5, 1)
    got = expand_moment(lambda t: 2.0, lambda t: 0.0, coeffs, 0.5, 0.0)
    assert got == pytest.approx(coeffs.A * 0.5**-0.5 * 2.0 + 0.0, rel=1e-15)


def test_moment_kernel_validation():
    with pytest.raises(ValueError):
        moment_values(lambda t: t, 3, -0.5, 0.0)  # t < a
    with pytest.raises(ValueError):
        moment_values(lambda t: t, 3, np.array([0.5, -0.5]), 0.0)  # one point t < a
    with pytest.raises(ValueError):
        moment_values(lambda t: t, 3, 1.5, 1.0, right=True)  # t > b
    with pytest.raises(ValueError):
        moment_values(lambda t: t, 3, 0.0, 1.0, right=True, hadamard=True)


def test_moment_expansion_uses_the_moment_prefix():
    # moments computed once at a larger N give the same value at every N
    x, xd = lambda t: np.exp(2.0 * t), lambda t: 2.0 * np.exp(2.0 * t)
    t = 0.7
    long = moment_values(x, 10, t, 0.0)
    for N in (1, 2, 5, 10):
        coeffs = moment_coeffs(0.4, N)
        assert np.array_equal(moment_values(x, N, t, 0.0), long[: N - 1])
        got = moment_expansion(coeffs, t, float(x(t)), float(xd(t)), long)
        assert got == expand_moment(x, xd, coeffs, t, 0.0)
        assert isinstance(got, float)
    with pytest.raises(ValueError):
        moment_expansion(moment_coeffs(0.4, 5), t, 1.0, 1.0, long[:3])


def test_moment_expansion_on_arrays():
    # P points at once: each entry as a single point gives it, and one
    # non-finite entry raises, naming its s
    x, xd = lambda t: np.exp(2.0 * t), lambda t: 2.0 * np.exp(2.0 * t)
    ts = np.array([0.01, 0.3, 0.7, 1.0])
    moments = moment_values(x, 200, ts, 0.0)
    for N, xs in ((6, xd(ts)), (6, None), (40, xd(ts))):
        coeffs = moment_coeffs(0.4, N)
        got = moment_expansion(coeffs, ts, x(ts), xs, moments)
        assert got.shape == (4,)
        for i, t in enumerate(ts):
            xs_t = None if xs is None else float(xs[i])
            ref = moment_expansion(coeffs, t, float(x(t)), xs_t, moments[i])
            assert abs(got[i] - ref) <= 4 * np.spacing(abs(ref)), (N, t)
    with pytest.raises(ExpansionDomainError, match=r"not finite at s=\[0\.01\]"):
        moment_expansion(moment_coeffs(0.5, 200), ts, x(ts), xd(ts), moments)


def test_moments_vp_closed_forms():
    assert moment_values(lambda t: 1.0, 2, 0.7, 0.0)[0] == pytest.approx(-0.7, rel=1e-13)
    assert moment_values(lambda t: t, 2, 0.6, 0.0)[0] == pytest.approx(-0.18, rel=1e-12)
    assert moment_values(lambda t: t**3, 5, 0.0, 0.0)[3] == 0.0


def test_moments_wp_vanish_at_right_end():
    assert moment_values(lambda t: t, 3, 1.0, 1.0, right=True)[1] == 0.0
    assert moment_values(lambda t: t, 3, 2.0, 2.0, right=True, hadamard=True)[1] == 0.0


def test_left_moment_state_initial_condition():
    values = moment_values(lambda t: math.sin(t), 5, 0.0, 0.0)
    assert values.shape == (4,)
    assert np.all(values == 0.0)


def test_moment_args_validated():
    with pytest.raises(ValueError):
        moment_values(lambda t: t, 2, 2.0, 0.0, hadamard=True)


# ---------------------------------------------------------------------------
# moment expansions
# ---------------------------------------------------------------------------


def test_expand_moment_left_t4_converges_in_n():
    x, xd = lambda t: t**4, lambda t: 4.0 * t**3
    exact = 24.0 / gamma(4.5)  # = D^0.5 t^4 at t = 1
    errs = []
    for N in (3, 6, 9):
        coeffs = moment_coeffs(0.5, N)
        errs.append(abs(expand_moment(x, xd, coeffs, 1.0, 0.0) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] < 0.5


def test_expand_moment_left_zero_function():
    coeffs = moment_coeffs(0.5, 4)
    assert expand_moment(lambda t: 0.0, lambda t: 0.0, coeffs, 0.7, 0.0) == 0.0


def test_expand_moment_left_exp_improves_with_n():
    x, xd = lambda t: math.exp(2.0 * t), lambda t: 2.0 * math.exp(2.0 * t)
    exact = rl_exp_exact(2.0, 0.5, 1.0)
    e3 = abs(expand_moment(x, xd, moment_coeffs(0.5, 3), 1.0, 0.0) - exact)
    e6 = abs(expand_moment(x, xd, moment_coeffs(0.5, 6), 1.0, 0.0) - exact)
    assert e6 < e3


def test_expand_moment_left_domain_error():
    coeffs = moment_coeffs(0.5, 3)
    with pytest.raises(ExpansionDomainError):
        expand_moment(lambda t: t, lambda t: 1.0, coeffs, 0.0, 0.0)


def test_expand_moment_right_pieces():
    # x = 1, N = 2: A(b-t)^(-a) - C_2 (b-t)^(-1-a) W_2 with W_2 = -(b-t)
    coeffs = moment_coeffs(0.5, 2)
    b, t = 1.0, 0.4
    expect = coeffs.A * (b - t) ** -0.5 + coeffs.c(2) * (b - t) ** -0.5
    got = expand_moment(lambda s: 1.0, lambda s: 0.0, coeffs, t, b, right=True)
    assert got == pytest.approx(expect, rel=1e-10)


def test_expand_moment_right_mirror_power():
    # right derivative of (1-t)^2 mirrors the left power rule
    x, xd = lambda s: (1.0 - s) ** 2, lambda s: -2.0 * (1.0 - s)
    exact = gamma(3.0) / gamma(2.5) * (1.0 - 0.3) ** 1.5
    approx = expand_moment(x, xd, moment_coeffs(0.5, 12), 0.3, 1.0, right=True)
    assert approx == pytest.approx(exact, rel=0.05)


def test_expand_moment_right_zero():
    coeffs = moment_coeffs(0.5, 3)
    assert expand_moment(lambda t: 0.0, lambda t: 0.0, coeffs, 0.2, 1.0, right=True) == 0.0


def test_expand_caputo_constant_is_small():
    # Caputo of a constant is 0.  For constants the moment expansion is exact
    # at every N (A + sum C_p = 1/Gamma(1-alpha) identically), and the Gauss
    # pass integrates u^(p-2) exactly, so the residue is rounding alone
    x, xd = lambda t: 2.0, lambda t: 0.0

    def caputo(coeffs, t=0.7):
        # the left Caputo expansion: the RL one minus x(a) (t-a)^-alpha / Gamma(1-alpha)
        rl = expand_moment(x, xd, coeffs, t, 0.0)
        return rl - x(0.0) / (t**coeffs.alpha * gamma(1.0 - coeffs.alpha))

    for N in (4, 16, 64):
        res = abs(caputo(moment_coeffs(0.5, N)))
        assert res < 1e-3
        assert res <= 1e-12


def test_atanackovic_zero_function():
    coeffs = moment_coeffs(0.5, 3)
    assert expand_moment(lambda t: 0.0, None, coeffs, 0.6, 0.0) == 0.0


def test_atanackovic_inferior_to_full_moment():
    grid = np.linspace(0.05, 1.0, 20)
    coeffs = moment_coeffs(0.5, 3)
    for x, xd, exact in (
        (lambda t: t**4, lambda t: 4 * t**3, lambda t: rl_power_exact(4.0, 0.5, t, 0.0)),
        (
            lambda t: math.exp(2 * t),
            lambda t: 2 * math.exp(2 * t),
            lambda t: rl_exp_exact(2.0, 0.5, t),
        ),
    ):
        err_mom = max(
            abs(expand_moment(x, xd, coeffs, t, 0.0) - exact(t)) for t in grid
        )
        err_atan = max(
            abs(expand_moment(x, None, coeffs, t, 0.0) - exact(t)) for t in grid
        )
        assert err_mom < err_atan


# ---------------------------------------------------------------------------
# Hadamard expansions
# ---------------------------------------------------------------------------


def test_hadamard_integer_constant_is_zero():
    const = DerivativeBundle((lambda t: 5.0, lambda t: 0.0))
    assert hadamard_expand_integer(const, 0.5, 1, 2.0, "derivative") == 0.0
    assert hadamard_expand_integer(const, 0.5, 1, 2.0, "integral") == 0.0


def test_hadamard_integer_monomial_eigenvalues():
    # the operators act on t^m as multiplication by m^(+-alpha); the Stirling
    # sums terminate at k = m, so N >= m is exact
    bundle = power_bundle(3)
    for alpha in (0.3, 0.5, 0.8):
        for t in (0.5, 1.7):
            d = hadamard_expand_integer(bundle, alpha, 4, t, "derivative")
            assert d == pytest.approx(3.0**alpha * t**3, rel=1e-12)
            i = hadamard_expand_integer(bundle, alpha, 4, t, "integral")
            assert i == pytest.approx(3.0**-alpha * t**3, rel=1e-12)


def test_hadamard_integer_composition_recovers_polynomial():
    # derivative expansion then integral expansion multiplies each monomial by
    # m^alpha * m^(-alpha) = 1, so polynomials are recovered at N >= degree
    alpha, N = 0.5, 8
    coeffs = {3: 2.0, 1: 1.0}  # 2 t^3 + t

    def build_bundle(scale):
        def deriv(k):
            def f(t):
                return sum(
                    scale[m] * c * math.factorial(m) / math.factorial(m - k) * t ** (m - k)
                    for m, c in coeffs.items()
                    if k <= m
                )

            return f

        return DerivativeBundle(tuple(deriv(k) for k in range(N + 1)))

    fwd_scale = {m: m**alpha for m in coeffs}
    for t in (0.4, 1.3):
        mid = hadamard_expand_integer(build_bundle({m: 1.0 for m in coeffs}), alpha, N, t, "derivative")
        assert mid == pytest.approx(sum(c * m**alpha * t**m for m, c in coeffs.items()), rel=1e-12)
        back = hadamard_expand_integer(build_bundle(fwd_scale), alpha, N, t, "integral")
        assert back == pytest.approx(sum(c * t**m for m, c in coeffs.items()), rel=1e-12)


def test_hadamard_integer_validates_direction():
    with pytest.raises(ValueError):
        hadamard_expand_integer(power_bundle(2), 0.5, 2, 1.0, "sideways")


def test_hadamard_moment_lnt_is_exact_up_to_quadrature():
    hc2 = moment_coeffs(0.5, 2)
    hc8 = moment_coeffs(0.5, 8)
    for t in (1.2, 1.8, 2.0):
        exact = hadamard_logpow_exact(1.0, 0.5, t)
        for hc in (hc2, hc8):
            got = expand_moment(math.log, lambda s: 1.0 / s, hc, t, 1.0, hadamard=True)
            assert abs(got - exact) <= 1e-8


def test_hadamard_moment_t4_error_decreases():
    x, xd = lambda t: t**4, lambda t: 4.0 * t**3
    exact = hadamard_t4_exact(0.5, 2.0)
    errs = []
    for N in (2, 4, 6):
        hc = moment_coeffs(0.5, N)
        errs.append(abs(expand_moment(x, xd, hc, 2.0, 1.0, hadamard=True) - exact))
    assert errs[0] > errs[1] > errs[2]


def test_hadamard_moment_zero_function():
    hc = moment_coeffs(0.5, 3)
    assert expand_moment(lambda t: 0.0, lambda t: 0.0, hc, 2.0, 1.0, hadamard=True) == 0.0
    assert (
        expand_moment(lambda t: 0.0, lambda t: 0.0, hc, 1.5, 2.0, right=True, hadamard=True)
        == 0.0
    )


def test_hadamard_moment_right_mirror():
    # reflecting tau -> ab/tau maps the left derivative of x at t to the right
    # derivative of x(ab/tau) at ab/t; check on [1, e] with x = ln
    a, b = 1.0, math.e
    t = 1.5
    hc = moment_coeffs(0.5, 5)
    left = expand_moment(math.log, lambda s: 1.0 / s, hc, t, a, hadamard=True)
    xr = lambda s: math.log(a * b / s)
    xrd = lambda s: -1.0 / s
    right = expand_moment(xr, xrd, hc, a * b / t, b, right=True, hadamard=True)
    assert right == pytest.approx(left, abs=1e-6)


def test_hadamard_reference_matches_closed_forms():
    assert hadamard_reference(math.log, lambda s: 1.0 / s, 0.5, 2.0, 1.0) == pytest.approx(
        hadamard_logpow_exact(1.0, 0.5, 2.0), abs=1e-10
    )
    assert hadamard_reference(
        lambda s: s**4, lambda s: 4.0 * s**3, 0.5, 2.0, 1.0
    ) == pytest.approx(hadamard_t4_exact(0.5, 2.0), rel=1e-10)


def test_hadamard_reference_of_t2_matches_mpmath():
    # in s = ln t the Hadamard derivative of t^2 from a = 1 is the RL one of
    # e^(2s) from 0: s^-alpha sum_k (2s)^k / Gamma(k + 1 - alpha)
    s = mpmath.log(2)
    expected = s**-0.5 * mpmath.nsum(lambda k: (2 * s) ** k / mpmath.gamma(k + 0.5), [0, mpmath.inf])
    got = hadamard_reference(lambda t: t * t, lambda t: 2.0 * t, 0.5, 2.0, 1.0)
    assert got == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
def test_hadamard_reference_rejects_alpha_outside_unit_interval(alpha):
    # at 1.5 the representation returned -0.2184 where the derivative is 11.0953,
    # and at 1 it divided by zero
    with pytest.raises(ValueError):
        hadamard_reference(lambda t: t * t, lambda t: 2.0 * t, alpha, 2.0, 1.0)


# ---------------------------------------------------------------------------
# truncation bounds
# ---------------------------------------------------------------------------


def test_bound_integer_zero_when_derivative_vanishes():
    assert bound_integer(0.0, 0.5, 4, 1.0, 0.0) == 0.0


def test_bound_integer_monotone_in_t():
    assert bound_integer(1.0, 0.5, 3, 0.9, 0.0) > bound_integer(1.0, 0.5, 3, 0.4, 0.0)


def test_bound_integer_dominates_exp_expansion():
    bundle = exp2_bundle()
    M = 2.0**4 * math.exp(2.0)  # max |x^(4)| on [0, 1]
    for t in np.linspace(0.05, 1.0, 101)[1:]:
        err = abs(
            expand_integer(bundle, 0.5, 3, t, 0.0) - rl_exp_exact(2.0, 0.5, t)
        )
        assert err <= bound_integer(M, 0.5, 3, t, 0.0) + 1e-8


def test_bound_moment_zero_for_affine():
    assert bound_moment(0.0, 0.5, 5, 1.0, 0.0) == 0.0


def test_bound_moment_n_scaling():
    # the bound scales like N^(alpha-1): quadrupling N multiplies by 4^(alpha-1)
    b1 = bound_moment(1.0, 0.5, 4, 1.0, 0.0)
    b4 = bound_moment(1.0, 0.5, 16, 1.0, 0.0)
    assert b4 / b1 == pytest.approx(4.0 ** (0.5 - 1.0), rel=1e-12)


def test_bound_moment_dominates_t4():
    x, xd = lambda t: t**4, lambda t: 4.0 * t**3
    coeffs = moment_coeffs(0.5, 10)
    for t in np.linspace(0.1, 1.0, 10):
        err = abs(
            expand_moment(x, xd, coeffs, t, 0.0)
            - rl_power_exact(4.0, 0.5, t, 0.0)
        )
        assert err <= bound_moment(12.0 * t**2, 0.5, 10, t, 0.0) + 1e-8


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5])
@pytest.mark.parametrize("bound", [bound_integer, bound_moment, bound_hadamard])
def test_bounds_reject_alpha_outside_unit_interval(bound, alpha):
    # bound_moment(1.0, 1.5, 4, 1.0, 0.0) used to return -1.76
    with pytest.raises(ValueError, match="alpha"):
        bound(1.0, alpha, 4, 2.0, 1.0)


def test_bound_hadamard_zero_cases():
    assert bound_hadamard(0.0, 0.5, 8, 2.0, 1.0) == 0.0
    small_t = bound_hadamard(1.0, 0.5, 8, 1.0 + 1e-12, 1.0)
    assert small_t == pytest.approx(0.0, abs=1e-9)


def test_bound_hadamard_dominates_lnt():
    # x = ln t has x' + tau x'' = 0, so the bound is 0 and the expansion must
    # agree with the exact derivative to quadrature accuracy
    hc = moment_coeffs(0.5, 8)
    for t in np.linspace(1.1, 2.0, 10):
        err = abs(
            expand_moment(math.log, lambda s: 1.0 / s, hc, t, 1.0, hadamard=True)
            - hadamard_logpow_exact(1.0, 0.5, t)
        )
        assert err <= 1e-8


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_expansions_linear_in_function():
    rng = np.random.default_rng(11)
    coeffs = moment_coeffs(0.5, 4)
    hc = moment_coeffs(0.5, 4)
    for _ in range(3):
        a, b = rng.uniform(-2, 2, 2)
        f, fd = lambda t: t**2, lambda t: 2.0 * t
        g, gd = lambda t: math.sin(t), lambda t: math.cos(t)
        combo = lambda t: a * f(t) + b * g(t)
        combo_d = lambda t: a * fd(t) + b * gd(t)
        t0 = 0.8
        lhs = expand_moment(combo, combo_d, coeffs, t0, 0.0)
        rhs = a * expand_moment(f, fd, coeffs, t0, 0.0) + b * expand_moment(
            g, gd, coeffs, t0, 0.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        lhs = expand_moment(combo, combo_d, coeffs, t0, 1.0, right=True)
        rhs = a * expand_moment(f, fd, coeffs, t0, 1.0, right=True)
        rhs += b * expand_moment(g, gd, coeffs, t0, 1.0, right=True)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        lhs = expand_moment(combo, None, coeffs, t0, 0.0)
        rhs = a * expand_moment(f, None, coeffs, t0, 0.0)
        rhs += b * expand_moment(g, None, coeffs, t0, 0.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        t1 = 1.7
        lhs = expand_moment(combo, combo_d, hc, t1, 1.0, hadamard=True)
        rhs = a * expand_moment(f, fd, hc, t1, 1.0, hadamard=True) + b * expand_moment(
            g, gd, hc, t1, 1.0, hadamard=True
        )
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_integer_expansions_linear_in_function():
    rng = np.random.default_rng(13)
    f_bundle = power_bundle(4)
    g_bundle = exp2_bundle()
    for _ in range(3):
        a, b = rng.uniform(-2, 2, 2)
        combo = DerivativeBundle(
            tuple(
                (lambda k: (lambda t, k=k: a * f_bundle.deriv(k, t) + b * g_bundle.deriv(k, t)))(k)
                for k in range(5)
            )
        )
        for t0, terminal, right in ((0.6, 0.0, False), (0.6, 1.0, True)):
            lhs = expand_integer(combo, 0.5, 4, t0, terminal, right)
            rhs = a * expand_integer(f_bundle, 0.5, 4, t0, terminal, right)
            rhs += b * expand_integer(g_bundle, 0.5, 4, t0, terminal, right)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_cross_family_agreement_within_bound_sum():
    # both families approximate the same derivative; their gap is bounded by
    # the sum of their truncation bounds
    bundle = exp2_bundle()
    x, xd = lambda t: math.exp(2.0 * t), lambda t: 2.0 * math.exp(2.0 * t)
    coeffs = moment_coeffs(0.5, 8)
    for t in np.linspace(0.2, 1.0, 5):
        vi = expand_integer(bundle, 0.5, 5, t, 0.0)
        vm = expand_moment(x, xd, coeffs, t, 0.0)
        cap = bound_integer(2.0**6 * math.exp(2.0 * t), 0.5, 5, t, 0.0) + bound_moment(
            4.0 * math.exp(2.0 * t), 0.5, 8, t, 0.0
        )
        assert abs(vi - vm) <= cap + 1e-8
