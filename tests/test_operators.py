import math

import numpy as np
import pytest

from fracvar.operators import (
    FFT_MIN_LEN,
    Mesh,
    MeshMismatchError,
    SampledCurve,
    diethelm_caputo_all,
    gl_left_all,
    gl_right_all,
    gl_weights,
    hadamard_logpow_exact,
    l2_error,
    max_error,
    rl_exp_exact,
    rl_power_exact,
)
from fracvar.specfun import GammaPoleError, gamma

from direct_oracles import gen_binomial

GAMMA_25 = 1.3293403881791370


def curve_of(f, a=0.0, b=1.0, n=100):
    return SampledCurve.from_function(Mesh(a, b, n), f)


# per-node GL sums, one dot product each: independent oracles of the kernel


def gl_left_reference(curve, alpha, i):
    """h^(-alpha) * sum_{k=0..i} w_k x_{i-k}."""
    w = gl_weights(alpha, i)
    return float(np.dot(w, curve.values[i::-1])) / curve.mesh.h**alpha


def gl_right_reference(curve, alpha, i):
    """h^(-alpha) * sum_{k=0..n-i} w_k x_{i+k}."""
    w = gl_weights(alpha, curve.mesh.n - i)
    return float(np.dot(w, curve.values[i:])) / curve.mesh.h**alpha


# ---------------------------------------------------------------------------
# mesh / curve plumbing
# ---------------------------------------------------------------------------


def test_mesh_validation_and_nodes():
    with pytest.raises(ValueError):
        Mesh(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        Mesh(0.0, 1.0, 0)
    mesh = Mesh(0.0, 1.0, 4)
    assert mesh.h == 0.25
    assert np.allclose(mesh.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_mesh_rejects_nonfinite_ends(a, b):
    with pytest.raises(ValueError, match="finite"):
        Mesh(a, b, 2)


@pytest.mark.parametrize("n", [2.5, 2.0, "2"])
def test_mesh_rejects_nonintegral_size(n):
    # Mesh(0, 1, 2.5).nodes() used to run past b: [0, .4, .8, 1.2]
    with pytest.raises(TypeError):
        Mesh(0.0, 1.0, n)


def test_mesh_accepts_numpy_integer_size():
    assert Mesh(0.0, 1.0, np.int64(4)).nodes().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_sampled_curve_validation():
    mesh = Mesh(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        SampledCurve(mesh, np.zeros(3))
    with pytest.raises(ValueError):
        SampledCurve(mesh, np.array([0.0, 1.0, np.nan, 2.0]))


def test_sampled_curve_copies_the_callers_array():
    # the curve froze the caller's own buffer, so this assignment raised
    values = np.zeros(3)
    curve = SampledCurve(Mesh(0.0, 1.0, 2), values)
    values[0] = 1.0
    assert curve.values[0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        curve.values[0] = 1.0


# ---------------------------------------------------------------------------
# GL weights
# ---------------------------------------------------------------------------


def test_gl_weights_example():
    w = gl_weights(0.5, 2)
    assert np.allclose(w, [1.0, -0.5, -0.125], atol=1e-15)


def test_gl_weights_zero_order():
    assert gl_weights(0.3, 0).tolist() == [1.0]


def test_gl_weights_match_closed_form():
    for alpha in (0.3, 0.5, 0.7):
        w = gl_weights(alpha, 50)
        assert w[1] == pytest.approx(-alpha, abs=1e-15)
        for k in range(51):
            closed = (-1.0) ** k * gen_binomial(alpha, k)
            assert abs(w[k] - closed) <= 1e-12 * max(1.0, abs(closed))


def test_gl_weight_partial_sums_decrease_to_zero():
    # sum_k (-1)^k binom(alpha, k) telescopes to 0; partial sums shrink
    w = gl_weights(0.5, 10**4)
    partial = np.cumsum(w)
    checkpoints = [partial[10], partial[100], partial[1000], partial[10**4]]
    assert all(p > 0 for p in checkpoints)
    assert all(a > b for a, b in zip(checkpoints, checkpoints[1:]))
    assert checkpoints[-1] < 0.01


def test_gl_weights_validation():
    with pytest.raises(ValueError):
        gl_weights(1.0, 5)
    with pytest.raises(ValueError):
        gl_weights(0.5, -1)
    with pytest.raises(TypeError):  # used to return the 4 weights of K = 3
        gl_weights(0.5, 2.5)


# ---------------------------------------------------------------------------
# GL operators
# ---------------------------------------------------------------------------


def test_gl_left_constant_at_origin():
    c = curve_of(lambda t: 3.0, n=10)
    assert gl_left_all(c, 0.5)[0] == pytest.approx(3.0 * c.mesh.h**-0.5, rel=1e-14)


def test_gl_left_zero_curve():
    c = curve_of(lambda t: 0.0, n=10)
    assert np.all(gl_left_all(c, 0.5) == 0.0)


def test_gl_left_first_order_convergence_at_t1():
    # exact D^0.5 t^2 at t=1 is 2/Gamma(2.5); halving h should halve the error
    errors = []
    for n in (100, 200):
        c = curve_of(lambda t: t * t, n=n)
        errors.append(abs(gl_left_all(c, 0.5)[n] - 2.0 / GAMMA_25))
    assert 1.6 <= errors[0] / errors[1] <= 2.4


@pytest.mark.parametrize("nu", [2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_gl_left_first_order_on_power_matrix(nu, alpha):
    def max_interior_err(n):
        c = curve_of(lambda t: t**nu, n=n)
        d = gl_left_all(c, alpha)
        t = c.mesh.nodes()
        return max(
            abs(d[i] - rl_power_exact(float(nu), alpha, t[i], 0.0)) for i in range(1, n)
        )

    ratio = max_interior_err(100) / max_interior_err(200)
    assert 1.6 <= ratio <= 2.4


def test_gl_left_all_matches_pointwise():
    c = curve_of(lambda t: t**3, n=50)
    d = gl_left_all(c, 0.3)
    for i in (0, 1, 25, 50):
        assert d[i] == pytest.approx(gl_left_reference(c, 0.3, i), rel=1e-13)


def test_gl_right_mirror_of_left():
    # x(t) = (1-t)^2 at t=0 mirrors t^2 at t=1
    for n in (100, 200):
        c = curve_of(lambda t: (1.0 - t) ** 2, n=n)
        cl = curve_of(lambda t: t * t, n=n)
        assert gl_right_all(c, 0.5)[0] == pytest.approx(
            gl_left_reference(cl, 0.5, n), rel=1e-12
        )
        assert gl_left_all(cl, 0.5)[n] == pytest.approx(
            gl_right_reference(c, 0.5, 0), rel=1e-12
        )


def test_gl_right_constant_at_right_end():
    c = curve_of(lambda t: 2.0, n=10)
    assert gl_right_all(c, 0.5)[10] == pytest.approx(2.0 * c.mesh.h**-0.5, rel=1e-14)


def test_gl_right_all_matches_pointwise():
    c = curve_of(lambda t: np.exp(t), n=40)
    d = gl_right_all(c, 0.7)
    for i in (0, 17, 40):
        assert d[i] == pytest.approx(gl_right_reference(c, 0.7, i), rel=1e-13)


def test_gl_linearity():
    rng = np.random.default_rng(3)
    mesh = Mesh(0.0, 1.0, 30)
    x = SampledCurve(mesh, rng.standard_normal(31))
    y = SampledCurve(mesh, rng.standard_normal(31))
    combo = SampledCurve(mesh, 2.0 * x.values - 3.0 * y.values)
    left_all, right_all = gl_left_all(combo, 0.5), gl_right_all(combo, 0.5)
    for i in (0, 10, 30):
        left = left_all[i]
        expect = 2.0 * gl_left_reference(x, 0.5, i) - 3.0 * gl_left_reference(y, 0.5, i)
        assert abs(left - expect) <= 1e-12 * max(1.0, abs(expect))
        right = right_all[i]
        expect = 2.0 * gl_right_reference(x, 0.5, i) - 3.0 * gl_right_reference(y, 0.5, i)
        assert abs(right - expect) <= 1e-12 * max(1.0, abs(expect))


KERNEL_CASES = {
    "t2": lambda t: t * t,
    "exp2t": lambda t: np.exp(2.0 * t),
    "random": lambda t: np.random.default_rng(len(t)).standard_normal(len(t)),
}


# the sums take n + 1 node values: the kernel convolves directly below
# FFT_MIN_LEN = 384 values, so at n = 382 both sums do, and from n = 383 on
# both go through the FFT
@pytest.mark.parametrize("n", [382, 383, 384, 1000, 4000])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_gl_kernel_matches_per_node_sums(n, alpha, name):
    assert FFT_MIN_LEN == 384
    mesh = Mesh(0.0, 1.0, n)
    c = SampledCurve(mesh, KERNEL_CASES[name](mesh.nodes()))
    # normwise: every sum is bounded by h^-alpha max|x| sum|w|
    w_abs = np.sum(np.abs(gl_weights(alpha, n)))
    tol = 1e-13 * mesh.h**-alpha * np.max(np.abs(c.values)) * w_abs
    left = [gl_left_reference(c, alpha, i) for i in range(n + 1)]
    right = [gl_right_reference(c, alpha, i) for i in range(n + 1)]
    assert np.max(np.abs(gl_left_all(c, alpha) - left)) <= tol
    assert np.max(np.abs(gl_right_all(c, alpha) - right)) <= tol


# ---------------------------------------------------------------------------
# Diethelm scheme
# ---------------------------------------------------------------------------


def diethelm_weight(alpha, i, j):
    """Quadrature weight a_{i,j} of the Diethelm scheme, 0 <= j <= i."""
    s = 1.0 - alpha
    if j == 0:
        return 1.0
    if j < i:
        return (j + 1.0) ** s - 2.0 * j**s + (j - 1.0) ** s
    return (1.0 - alpha) * i ** (-alpha) - i**s + (i - 1.0) ** s


def test_diethelm_weights_three_cases():
    alpha = 0.5
    assert diethelm_weight(alpha, 0, 0) == 1.0
    assert diethelm_weight(alpha, 5, 0) == 1.0
    for i, j in ((5, 2), (9, 4)):
        expect = (j + 1) ** (1 - alpha) - 2 * j ** (1 - alpha) + (j - 1) ** (1 - alpha)
        assert diethelm_weight(alpha, i, j) == pytest.approx(expect, rel=1e-14)
    i = 7
    expect = (1 - alpha) * i**-alpha - i ** (1 - alpha) + (i - 1) ** (1 - alpha)
    assert diethelm_weight(alpha, i, i) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("nu", [2, 3])
def test_diethelm_convergence_order(nu):
    # t^nu with x(0) = 0: Caputo equals RL; theoretical order is 2 - alpha = 1.5
    def max_err(n):
        c = curve_of(lambda t: t**nu, n=n)
        d = diethelm_caputo_all(c, 0.5, [0.0])
        t = c.mesh.nodes()
        return max(abs(d[i] - rl_power_exact(float(nu), 0.5, t[i], 0.0)) for i in range(1, n))

    order = math.log2(max_err(100) / max_err(200))
    assert order >= 1.3


def diethelm_reference(curve, alpha, x_a):
    """Per-node O(i) Diethelm sum with the three-case weights a_{i,j}."""
    h = curve.mesh.h
    x = curve.values.tolist()
    out = np.empty(len(x))
    for i in range(len(x)):
        total = 0.0
        for j in range(i + 1):
            total += diethelm_weight(alpha, i, j) * (x[i - j] - x_a)
        out[i] = total * h ** (-alpha) / gamma(2.0 - alpha)
    return out


DIETHELM_CASES = {
    "t2": (lambda t: t * t, 0.0),
    "exp2t": (lambda t: math.exp(2.0 * t), 1.0),
    # boundary value 2 differs from x(0) = 3, so y_0 != 0 and the j = i
    # end correction contributes
    "3+t": (lambda t: 3.0 + t, 2.0),
}


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("name", sorted(DIETHELM_CASES))
def test_diethelm_all_matches_reference_loop(alpha, name):
    f, x_a = DIETHELM_CASES[name]
    for n in (1, 2, 3, 64, 801):
        c = curve_of(f, n=n)
        np.testing.assert_allclose(
            diethelm_caputo_all(c, alpha, [x_a]),
            diethelm_reference(c, alpha, x_a),
            rtol=1e-12,
            atol=0.0,
        )


def diethelm_longdouble(curve, alpha, x_a, nodes):
    """The Diethelm sum of ``diethelm_caputo_all`` (same samples, same
    weights and end correction) at nodes 0..nodes-1, in np.longdouble."""
    alpha = np.longdouble(alpha)
    y = curve.values[:nodes].astype(np.longdouble) - np.longdouble(x_a)
    s = 1 - alpha
    j = np.arange(1, nodes, dtype=np.longdouble)
    c = np.concatenate(([np.longdouble(1)], (j + 1) ** s - 2 * j**s + (j - 1) ** s))
    end = s * j ** (-alpha) - j**s + (j - 1) ** s
    d = np.convolve(c, y)[:nodes]
    d[1:] += (end - c[1:]) * y[0]
    return d * np.longdouble(curve.mesh.h) ** (-alpha) / np.longdouble(gamma(2.0 - float(alpha)))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
@pytest.mark.parametrize(
    "name,n,nodes",
    [
        # all nodes: a direct float64 convolution of all lags drifts to
        # 1.8e-11 relative (alpha = 0.95, 3 + t); the near/far split stays
        # below 2.5e-12
        *((name, 6000, 6001) for name in sorted(DIETHELM_CASES)),
        # t^4 spans 14 decades on the first 3000 nodes: one FFT over all
        # samples reads 1.2e-10 relative there, the doubling blocks 1e-14
        ("t4", 20000, 3000),
    ],
)
def test_diethelm_all_close_to_longdouble_sum(alpha, name, n, nodes):
    f, x_a = {**DIETHELM_CASES, "t4": (lambda t: t**4, 0.0)}[name]
    c = curve_of(f, n=n)
    d = diethelm_caputo_all(c, alpha, [x_a])[1:nodes]
    ref = diethelm_longdouble(c, alpha, x_a, nodes)[1:]
    assert float(np.max(np.abs((d - ref) / ref))) <= 4e-12


def test_diethelm_validates_alpha_and_derivs():
    c = curve_of(lambda t: t, n=10)
    with pytest.raises(ValueError):
        diethelm_caputo_all(c, 1.0, [0.0])
    with pytest.raises(ValueError):
        diethelm_caputo_all(c, 2.5, [0.0])
    # weight table is singular on (1, 2); rejected with an explanatory error
    with pytest.raises(ValueError):
        diethelm_caputo_all(c, 1.5, [0.0, 0.0])
    with pytest.raises(ValueError):
        diethelm_caputo_all(c, 0.5, [0.0, 0.0])  # too many boundary derivatives


def test_diethelm_all_validates_alpha_and_derivs():
    c = curve_of(lambda t: t, n=10)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            diethelm_caputo_all(c, alpha, [0.0])
    for derivs in ([], [0.0, 0.0], [[0.0]]):
        with pytest.raises(ValueError):
            diethelm_caputo_all(c, 0.5, derivs)


# ---------------------------------------------------------------------------
# exact reference derivatives
# ---------------------------------------------------------------------------


def test_rl_power_exact_values():
    assert rl_power_exact(2.0, 0.5, 1.0, 0.0) == pytest.approx(
        1.5045055561273501, rel=1e-13
    )
    for alpha in (0.3, 0.5, 0.9):
        for t in (0.2, 1.0, 3.0):
            assert rl_power_exact(alpha, alpha, t, 0.0) == pytest.approx(
                gamma(alpha + 1.0), rel=1e-13
            )
    # leading coefficient of the quintic test problem
    assert rl_power_exact(5.0, 0.5, 1.0, 0.0) == pytest.approx(
        gamma(6.0) / gamma(5.5), rel=1e-13
    )


def test_rl_power_exact_array_is_elementwise():
    t = np.linspace(0.5, 2.0, 12).reshape(3, 4)
    d = rl_power_exact(2.5, 0.3, t, 0.25)
    assert d.shape == t.shape
    expect = [[rl_power_exact(2.5, 0.3, float(v), 0.25) for v in row] for row in t]
    np.testing.assert_allclose(d, expect, rtol=1e-15, atol=0.0)


def test_rl_power_exact_array_rejects_any_node_at_or_below_a():
    for bad in (0.0, -0.1):
        t = np.array([0.5, bad, 1.0])
        with pytest.raises(ValueError):
            rl_power_exact(2.0, 0.5, t, 0.0)
    with pytest.raises(ValueError):
        rl_power_exact(2.0, 0.5, np.array([1.0, np.nan]), 0.0)


def test_rl_power_exact_scalar_stays_scalar_bits():
    # scalar inputs take scalar pow, never a 0-d array
    rng = np.random.default_rng(3)
    for nu, alpha in ((2.0, 0.5), (4.0, 0.3), (0.5, 0.7)):
        coeff = gamma(nu + 1.0) / gamma(nu + 1.0 - alpha)
        for t in rng.uniform(1e-3, 5.0, 200).tolist():
            got = rl_power_exact(nu, alpha, t, 0.0)
            assert type(got) is float
            assert got == coeff * (t - 0.0) ** (nu - alpha)


def test_rl_power_exact_pole_propagates():
    with pytest.raises(GammaPoleError):
        rl_power_exact(-0.5, 0.5, 1.0, 0.0)  # Gamma(0) pole


def test_rl_exp_exact_zero_rate():
    for alpha in (0.3, 0.7):
        for t in (0.5, 2.0):
            assert rl_exp_exact(0.0, alpha, t) == pytest.approx(
                t**-alpha / gamma(1.0 - alpha), rel=1e-13
            )


def test_rl_exp_exact_array_is_elementwise():
    t = np.linspace(0.05, 2.0, 12).reshape(3, 4)
    d = rl_exp_exact(2.0, 0.3, t)
    assert d.shape == t.shape
    assert type(rl_exp_exact(2.0, 0.3, 0.5)) is float
    expect = [[rl_exp_exact(2.0, 0.3, float(v)) for v in row] for row in t]
    np.testing.assert_allclose(d, expect, rtol=1e-15, atol=0.0)
    for bad in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError):
            rl_exp_exact(2.0, 0.3, np.array([0.5, bad, 1.0]))


def test_rl_exp_exact_golden():
    # t^(-1/2) E_{1,1/2}(2t) at t=1; series golden from the 200-term oracle
    assert rl_exp_exact(2.0, 0.5, 1.0) == pytest.approx(10.538428671807383, rel=1e-13)


def test_rl_exp_exact_vs_gl():
    n = 5000  # h = 1e-4 on [0, 0.5]
    c = SampledCurve.from_function(Mesh(0.0, 0.5, n), math.exp)
    assert abs(gl_left_all(c, 0.5)[n] - rl_exp_exact(1.0, 0.5, 0.5)) < 2e-3


def test_hadamard_logpow_exact_values():
    assert hadamard_logpow_exact(1.0, 0.5, math.e) == pytest.approx(
        1.1283791670955126, rel=1e-13
    )
    for alpha in (0.3, 0.5):
        assert hadamard_logpow_exact(alpha, alpha, 2.0) == pytest.approx(
            gamma(alpha + 1.0), rel=1e-13
        )
    # sqrt(ln 2)/Gamma(1.5), cross-checked against a 50-digit quadrature of the
    # absolutely-continuous representation
    assert hadamard_logpow_exact(1.0, 0.5, 2.0) == pytest.approx(
        0.93943727869965133, rel=1e-13
    )


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def test_errors_zero_for_identical():
    c = curve_of(lambda t: t**2, n=20)
    assert l2_error(c, c) == 0.0
    assert max_error(c, c) == 0.0


def test_l2_error_constant_difference():
    x = curve_of(lambda t: 1.5, n=50)
    y = curve_of(lambda t: 0.5, n=50)
    assert l2_error(x, y) == pytest.approx(1.0, rel=1e-13)


def test_l2_error_linear_difference():
    x = curve_of(lambda t: t, n=200)
    y = curve_of(lambda t: 0.0, n=200)
    assert l2_error(x, y) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)


def test_max_error_interior_only():
    mesh = Mesh(0.0, 1.0, 4)
    base = SampledCurve(mesh, np.zeros(5))
    bumped = SampledCurve(mesh, np.array([0.0, 0.0, 0.3, 0.0, 0.0]))
    assert max_error(base, bumped) == pytest.approx(0.3)
    endpoints = SampledCurve(mesh, np.array([7.0, 0.0, 0.0, 0.0, -7.0]))
    assert max_error(base, endpoints) == 0.0


def test_errors_symmetric_and_mesh_checked():
    x = curve_of(lambda t: t, n=30)
    y = curve_of(lambda t: t**2, n=30)
    assert l2_error(x, y) == l2_error(y, x)
    assert max_error(x, y) == max_error(y, x)
    z = curve_of(lambda t: t, n=31)
    with pytest.raises(MeshMismatchError):
        l2_error(x, z)
    with pytest.raises(MeshMismatchError):
        max_error(x, z)


def test_gl_weights_frozen_values_are_immutable():
    w = gl_weights(0.5, 5)
    assert isinstance(w, np.ndarray)
    with pytest.raises(ValueError):
        w[0] = 2.0


def test_gl_weights_calls_return_distinct_arrays():
    first, second = gl_weights(0.5, 5), gl_weights(0.5, 5)
    assert first is not second and not np.shares_memory(first, second)
    assert not first.flags.writeable and not second.flags.writeable
    assert first.tolist() == second.tolist()
