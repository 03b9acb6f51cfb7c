"""Test oracles of the direct method, each independent of the code it checks.

* ``gen_binomial``: binom(alpha, k) in product form, the check of the GL
  weights that ``fracvar.operators.gl_weights`` builds by a running product;
* the dedicated assemblies of the catalog direct problems, which write their
  GL sums out by hand, independently of the package's GL kernel, so that the
  generic stationarity machinery of ``fracvar.direct`` can be cross-checked
  against them;
* ``euler_lagrange_residual``: the node-wise fractional Euler-Lagrange
  residual of a curve, from the left and right GL operators.
"""

import numpy as np

from fracvar.direct import DirectProblem, example3_phi
from fracvar.expansions import _eval_on
from fracvar.operators import SampledCurve, gl_left_all, gl_right_all, gl_weights
from fracvar.specfun import POLE_WINDOW, gamma


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


def example1_system(n: int):
    """Explicit normal equations of Example 1's quadratic Psi, as (matrix, rhs).

    With A_i = (-1)^i h^{3/2} binom(1/2, i), entry (j, m) is
    sum_{i=max(j,m)..n} A_{i-j} A_{i-m} and
    b_j = sum_{k=0..n-j} (2 h^2 A_k / Gamma(2.5)) t_{k+j}^{3/2} - A_{n-j} A_0 x_n,
    the x_0 column dropping out because x(0) = 0.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    h = 1.0 / n
    A = np.array([(-1.0) ** i * h**1.5 * gen_binomial(0.5, i) for i in range(n + 1)])
    t = np.arange(n + 1) * h
    mat = np.empty((n - 1, n - 1))
    for j in range(1, n):
        for m in range(1, n):
            lo = max(j, m)
            mat[j - 1, m - 1] = float(np.dot(A[lo - j : n + 1 - j], A[lo - m : n + 1 - m]))
    x_n = 1.0
    rhs = np.empty(n - 1)
    for j in range(1, n):
        rhs[j - 1] = (
            2.0 * h**2 / gamma(2.5) * float(np.dot(A[: n - j + 1], t[j:] ** 1.5))
            - A[n - j] * A[0] * x_n
        )
    return mat, rhs


def example2_system(n: int):
    """Tridiagonal [-1, 2, -1] system of Example 2 (alpha = 1/2), as (matrix, rhs):

        b_i = (h/2) sum_{k=0..n-i} (-1)^k h^{1/2} binom(1/2, k),  i = 1..n-1,

    with b_{n-1} boundary-adjusted by +x_n (and b_1 by +x_0 = 0).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    h = 1.0 / n
    w = gl_weights(0.5, n)  # w_k = (-1)^k binom(1/2, k)
    mat = np.zeros((n - 1, n - 1))
    np.fill_diagonal(mat, 2.0)
    idx = np.arange(n - 2)
    mat[idx, idx + 1] = -1.0
    mat[idx + 1, idx] = -1.0
    rhs = np.array([0.5 * h**1.5 * float(np.sum(w[: n - i + 1])) for i in range(1, n)])
    x_0, x_n = 0.0, 1.0
    rhs[0] += x_0
    rhs[-1] += x_n
    return mat, rhs


def example3_residual(xvec: np.ndarray, n: int) -> np.ndarray:
    """Nonlinear stationarity residual of Example 3 (up to the constant 4h^{1-alpha}):

        r_j = sum_{i=j..n} w_{i-j} (h^{-1/2} sum_{k=0..i} w_k x_{i-k} - phi(t_i))^3
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    xvec = np.asarray(xvec, dtype=float)
    if xvec.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} interior values, got {xvec.shape}")
    h = 1.0 / n
    x = np.concatenate(([0.0], xvec, [1.0]))
    t = np.arange(n + 1) * h
    w = gl_weights(0.5, n)
    d = np.convolve(w, x)[: n + 1] / h**0.5
    cubes = (d - example3_phi(t)) ** 3
    return np.array(
        [float(np.dot(w[: n - j + 1], cubes[j:])) for j in range(1, n)]
    )


def euler_lagrange_residual(curve: SampledCurve, problem: DirectProblem) -> SampledCurve:
    """Node-wise fractional Euler-Lagrange residual of a curve:

        dL/dx + D_b^alpha [dL/dD] - d/dt dL/dxdot,

    with the left GL operator inside the partials, the right GL operator
    applied to the sampled dL/dD curve, and central differences for the
    outer d/dt (one-sided at the endpoints).
    """
    if curve.mesh.a != problem.a or curve.mesh.b != problem.b:
        raise ValueError("curve interval does not match the problem interval")
    lag = problem.lagrangian
    t = curve.mesh.nodes()
    h = curve.mesh.h
    x = curve.values
    xdot = np.gradient(x, h)
    state = (t, x, xdot, gl_left_all(curve, problem.alpha))
    dLdD = SampledCurve(curve.mesh, _eval_on(lag.dL_ddalpha, *state))
    res = gl_right_all(dLdD, problem.alpha) + _eval_on(lag.dL_dx, *state)
    res -= np.gradient(_eval_on(lag.dL_dxdot, *state), h)
    return SampledCurve(curve.mesh, res)
