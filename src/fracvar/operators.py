"""Meshes, sampled curves, Grunwald-Letnikov finite differences, and error metrics.

The discrete operators act on function samples over a uniform grid
a = t_0 < t_1 < ... < t_n = b.  Curves are zero-extended outside [a, b],
which is what makes the truncated Grunwald-Letnikov sums well-defined at
every node.  Every GL sum is one lower-triangular Toeplitz product with the
weights (-1)^k binom(alpha, k) (``_LowerToeplitz``); the right-sided sum is
the same product on the reflected samples.  Exact reference derivatives for
the standard test functions (powers, exponentials, powers of log) are
provided as analytic oracles.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .specfun import gamma, mittag_leffler


class MeshMismatchError(ValueError):
    """Two curves that must share a mesh do not."""


@dataclass(frozen=True)
class Mesh:
    """Uniform grid on finite [a, b] with integer n subintervals; node t_i = a + i*h."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"mesh requires finite a < b, got a={self.a}, b={self.b}")
        if operator.index(self.n) < 1:
            raise ValueError(f"mesh requires n >= 1, got n={self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def nodes(self) -> np.ndarray:
        return self.a + np.arange(self.n + 1) * self.h


@dataclass(frozen=True)
class SampledCurve:
    """Function values on the nodes of a mesh (length n+1, all finite)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy: frozen below
        if values.shape != (self.mesh.n + 1,):
            raise ValueError(
                f"expected {self.mesh.n + 1} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must all be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, mesh: Mesh, f) -> "SampledCurve":
        """Samples of ``f`` called once per node on a Python float (one array
        call would round powers differently at some nodes)."""
        return cls(mesh, np.array([f(t) for t in mesh.nodes().tolist()], dtype=float))


def gl_weights(alpha: float, K: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_k = (-1)^k binom(alpha, k), k = 0..K, for
    alpha in (0, 1): a fresh read-only array, built by the running product
    w_0 = 1, w_k = w_{k-1} (k - 1 - alpha) / k (so w_1 = -alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if operator.index(K) < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    w = _binomial_weights(alpha, K)
    w.flags.writeable = False
    return w


def _binomial_weights(order: float, K: int) -> np.ndarray:
    """(-1)^k binom(order, k) for k = 0..K: the running product of
    (k - 1 - order) / k.  Order alpha gives the GL weights; order -alpha
    gives the GL fractional integral, whose Toeplitz matrix h^alpha T(w(-alpha))
    is the exact inverse of h^(-alpha) T(w(alpha)) (Lubich, SIAM J. Math.
    Anal. 17, 1986): the generating functions (1 - z)^(-alpha) and
    (1 - z)^alpha multiply to 1."""
    ratios = (np.arange(K) - order) / np.arange(1.0, K + 1.0)
    return np.concatenate(([1.0], np.cumprod(ratios)))


#: Lower-triangular Toeplitz products of vectors with at least this many
#: entries go through the FFT, shorter ones through np.convolve; the two
#: cost the same at about 320-384 entries (numpy 2.4, scipy 1.17, one
#: x86-64 core).  It is also the near-field length of the Diethelm sum
#: (``diethelm_caputo_all``): lags below it are summed directly and only the
#: small tail goes through the FFT, in doubling blocks of nodes, which keeps
#: that sum elementwise accurate where one FFT of all lags would not be.
FFT_MIN_LEN = 384


class _LowerToeplitz:
    """Lower-triangular Toeplitz matrix T(c) with first column c, applied to
    vectors of any length up to len(c): by np.convolve below FFT_MIN_LEN
    entries, else by FFT with the kernel's spectrum cached per length.

    With c = w(alpha) and node values x, h^(-alpha) T(c) x is the left GL
    derivative at every node and h^(-alpha) T(c)^T x the right one."""

    def __init__(self, c: np.ndarray):
        self.c = c
        self._spectra = {}

    def matvec(self, y: np.ndarray) -> np.ndarray:
        size = len(y)
        if size < FFT_MIN_LEN:
            return np.convolve(self.c[:size], y)[:size]
        from scipy import fft

        nfft = fft.next_fast_len(2 * size - 1, real=True)
        spectrum = self._spectra.get(nfft)
        if spectrum is None:
            spectrum = self._spectra[nfft] = fft.rfft(self.c[:size], nfft)
        return fft.irfft(fft.rfft(y, nfft) * spectrum, nfft)[:size]

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """T(c)^T y."""
        return self.matvec(y[::-1])[::-1]


def gl_left_all(curve: SampledCurve, alpha: float) -> np.ndarray:
    """Left GL derivative at every node: h^(-alpha) * sum_{k=0..i} w_k x_{i-k}.

    The shifted sum h^(-alpha) * sum_{k=0..i} w_k x_{i+1-k}, i <= n - 1, is
    entry i of this on the samples x_1..x_n, as a curve on Mesh(a + h, b,
    n - 1), equal up to the rounding of h."""
    kernel = _LowerToeplitz(gl_weights(alpha, curve.mesh.n))
    return kernel.matvec(curve.values) / curve.mesh.h**alpha


def gl_right_all(curve: SampledCurve, alpha: float) -> np.ndarray:
    """Right GL derivative at every node: h^(-alpha) * sum_{k=0..n-i} w_k x_{i+k}."""
    kernel = _LowerToeplitz(gl_weights(alpha, curve.mesh.n))
    return kernel.rmatvec(curve.values) / curve.mesh.h**alpha


def diethelm_caputo_all(
    curve: SampledCurve, alpha: float, boundary_derivs
) -> np.ndarray:
    """Diethelm backward finite difference Caputo derivative at every node.

    With ``boundary_derivs = [x(a)]`` and y = x - x(a), the value at node i is

        h^(-alpha)/Gamma(2-alpha) * sum_{j=0..i} a_{i,j} y_{i-j}

    where a_{i,0} = 1, a_{i,j} = (j+1)^(1-alpha) - 2 j^(1-alpha) + (j-1)^(1-alpha)
    for 0 < j < i, and a_{i,i} = (1-alpha) i^(-alpha) - i^(1-alpha) + (i-1)^(1-alpha).
    The scheme is O(h^(2-alpha)) accurate.

    The weights depend on i only at j = i, so all nodes take one lower
    Toeplitz product with the interior weights c_j (c_0 = 1) plus the end
    correction (a_{i,i} - c_i) y_0 at each i >= 1.  The product is split at
    lag K = FFT_MIN_LEN.  The near field j < K is one direct convolution,
    O(n K).  The tail j >= K adds to nodes i >= K only.  It goes through
    ``_LowerToeplitz`` (by FFT from K entries on) in blocks of tail outputs
    [s, 2s) (the first one [0, K)), each a product with y_0..y_{2s-1}:
    O(n log n) in all.  An FFT product's rounding scales with the norms of
    its inputs, not with each output.  The c_j decay like j^(-1-alpha), so
    the tail's norm is small, and the doubling blocks bound a node's
    rounding by the samples up to about twice its index.  Each node so
    keeps the direct sum's relative accuracy, also where x spans many
    decades (t^4 near 0), which one FFT over all samples does not.

    Only 0 < alpha < 1 is supported: for alpha in (1, 2) the three-case weight
    table contains 0^(1-alpha) at j = 1 and is not well-defined as stated.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(
            f"alpha must lie in (0, 1), got {alpha!r}; the backward-difference "
            "weight table is singular for alpha in (1, 2)"
        )
    derivs = np.asarray(boundary_derivs, dtype=float)
    if derivs.shape != (1,):
        raise ValueError("need boundary derivatives of orders 0..0, i.e. [x(a)]")
    n = curve.mesh.n
    h = curve.mesh.h
    y = curve.values - derivs[0]
    s = 1.0 - alpha
    j = np.arange(1, n + 1, dtype=float)
    c = np.empty(n + 1)
    c[0] = 1.0
    c[1:] = (j + 1.0) ** s - 2.0 * j**s + (j - 1.0) ** s
    end = s * j ** (-alpha) - j**s + (j - 1.0) ** s
    d = np.convolve(c[:FFT_MIN_LEN], y)[: n + 1]
    tail = _LowerToeplitz(c[FFT_MIN_LEN:])
    far = d[FFT_MIN_LEN:]  # a view: the nodes the tail adds to
    start = 0
    while start < len(far):
        stop = min(len(far), max(2 * start, FFT_MIN_LEN))
        far[start:stop] += tail.matvec(y[:stop])[start:]
        start = stop
    d[1:] += (end - c[1:]) * y[0]
    return d * h ** (-alpha) / gamma(2.0 - alpha)


def rl_power_exact(nu: float, alpha: float, t, a: float):
    """Exact left Riemann-Liouville derivative of (t-a)^nu:

        Gamma(nu+1)/Gamma(nu+1-alpha) * (t-a)^(nu-alpha),  nu > -1, t > a.

    ``t`` may be a scalar or an array (evaluated elementwise).
    """
    if nu <= -1.0:
        raise ValueError(f"nu must exceed -1, got {nu!r}")
    # scalars stay scalars: pow on a 0-d array may round differently
    if np.ndim(t) == 0:
        if not t > a:
            raise ValueError(f"need t > a, got t={t}, a={a}")
    else:
        t = np.asarray(t, dtype=float)
        if not np.all(t > a):
            raise ValueError(f"need t > a at every node, got min t={t.min()}, a={a}")
    return gamma(nu + 1.0) / gamma(nu + 1.0 - alpha) * (t - a) ** (nu - alpha)


def rl_exp_exact(lam: float, alpha: float, t):
    """Exact left RL derivative (from 0) of exp(lam*t):

        t^(-alpha) * E_{1, 1-alpha}(lam * t),  t > 0.

    ``t`` may be a scalar or an array; an array takes one
    :func:`~fracvar.specfun.mittag_leffler` call for all its nodes.
    """
    if np.ndim(t) == 0:
        if not t > 0.0:
            raise ValueError(f"need t > 0, got {t!r}")
    else:
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0.0):
            raise ValueError(f"need t > 0 at every node, got min t={t.min()}")
    return t ** (-alpha) * mittag_leffler(1.0, 1.0 - alpha, lam * t)


def hadamard_logpow_exact(beta: float, alpha: float, t):
    """Exact left Hadamard derivative (terminal a = 1) of (ln t)^beta:

        Gamma(beta+1)/Gamma(beta+1-alpha) * (ln t)^(beta-alpha),  t > 1.

    ``t`` may be a scalar or an array (evaluated elementwise).
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    if not np.all(np.greater(t, 1.0)):
        raise ValueError(f"need t > 1 at every node, got min t={np.min(t)!r}")
    lt = np.log(t)
    return gamma(beta + 1.0) / gamma(beta + 1.0 - alpha) * lt ** (beta - alpha)


def l2_error(x: SampledCurve, y: SampledCurve) -> float:
    """L2 distance ( integral of (x-y)^2 )^(1/2), composite trapezoid rule."""
    _check_same_mesh(x, y)
    diff2 = (x.values - y.values) ** 2
    return float(np.sqrt(np.trapezoid(diff2, dx=x.mesh.h)))


def max_error(x: SampledCurve, y: SampledCurve) -> float:
    """Maximum node-wise deviation over the interior nodes i = 1..n-1.

    Endpoints carry prescribed boundary data, not approximations, so they
    are excluded.  Returns 0 when the mesh has no interior nodes.
    """
    _check_same_mesh(x, y)
    if x.mesh.n < 2:
        return 0.0
    return float(np.max(np.abs(x.values[1:-1] - y.values[1:-1])))


def _check_same_mesh(x: SampledCurve, y: SampledCurve) -> None:
    if x.mesh != y.mesh:
        raise MeshMismatchError(f"mesh mismatch: {x.mesh} vs {y.mesh}")
