"""Independent reference values and output checks for the fracvar CLI studies.

Nothing here imports fracvar: every exact derivative, dedicated linear system
and stationarity formula is written out again from its closed form, so a
wrong number in the library cannot also be the number it is checked against.
The CLI's own ``exact`` and ``converged`` columns are never read.

Tolerances are the acceptance suite's pinned ones:

* GL halving ratio in [1.6, 2.4] (first order) on t2;
* Diethelm observed order >= 1.3 at alpha = 1/2, scaled with alpha as
  (2 - alpha) - 0.2, because the scheme's true order is 2 - alpha;
* ex1/ex2 agree with their dedicated systems to 1e-8, and the error falls
  with n;
* every bound dominates its error, with the CLI's 1e-8 slack;
* a TPBVP error is finite, and error(N=4) < error(N=2).

Two entry checks go beyond the suite, so that silent wrong answers count as
failures: an expansion-route TPBVP error may not exceed the L2 norm of the
exact solution (the zero curve would do better), and may not grow with N.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

#: Acceptance-suite tolerances.
GL_HALVING = (1.6, 2.4)
DIETHELM_ORDER_MARGIN = 0.2
DEDICATED_AGREEMENT = 1e-8
DOMINANCE_SLACK = 1e-8
#: Newton stops at max |residual| < 1e-10; allow roundoff of the recomputation.
EX3_STATIONARITY = 1e-8
#: A reported error column must equal the recomputed error to this relative
#: accuracy (both are formed from the same 17-digit values).
COLUMN_RTOL = 1e-9


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def gl_weights(alpha, K):
    """w_k = (-1)^k binom(alpha, k), k = 0..K, by the ratio w_k / w_{k-1}."""
    k = np.arange(1, K + 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - alpha) / k)))


def rl_power(nu, alpha, t):
    """Left RL derivative from 0 of t^nu."""
    return math.gamma(nu + 1.0) / math.gamma(nu + 1.0 - alpha) * np.asarray(t) ** (nu - alpha)


def ml1(beta, z, terms=80):
    """E_{1,beta}(z) by its power series; |z| <= 4 here, so 80 terms suffice."""
    z = np.asarray(z, dtype=float)
    total = np.zeros_like(z)
    power = np.ones_like(z)
    for k in range(terms):
        total += power / math.gamma(k + beta)
        power = power * z
    return total


def rl_exp2(alpha, t):
    """Left RL derivative from 0 of exp(2t): t^-alpha E_{1,1-alpha}(2t)."""
    t = np.asarray(t, dtype=float)
    return t ** (-alpha) * ml1(1.0 - alpha, 2.0 * t)


def caputo_exp2(alpha, t):
    """Left Caputo derivative of exp(2t): the RL value minus t^-alpha / Gamma(1-alpha)."""
    t = np.asarray(t, dtype=float)
    return rl_exp2(alpha, t) - t ** (-alpha) / math.gamma(1.0 - alpha)


def ex1_target(t):
    """Example 1 tracks D^{1/2} t^2."""
    return rl_power(2.0, 0.5, t)


def ex2_exact(alpha, t):
    """Example 2's minimizer solves x'' = -(1-t)^-alpha / (2 Gamma(1-alpha)),
    x(0) = 0, x(1) = 1; integrating twice gives this."""
    t = np.asarray(t, dtype=float)
    g = 2.0 * math.gamma(3.0 - alpha)
    return -((1.0 - t) ** (2.0 - alpha)) / g + (1.0 - 1.0 / g) * t + 1.0 / g


EX3_COEFFS = {5: 16.0, 3: -20.0, 1: 5.0}


def ex3_minimizer(t):
    t = np.asarray(t, dtype=float)
    return sum(c * t**m for m, c in EX3_COEFFS.items())


def ex3_phi(t):
    """D^{1/2} of Example 3's minimizer, term by term."""
    return sum(c * rl_power(float(m), 0.5, t) for m, c in EX3_COEFFS.items())


def ex4_exact(alpha, t):
    """Example 4's minimizer t^alpha / Gamma(alpha+1), whose RL derivative is 1."""
    return np.asarray(t, dtype=float) ** alpha / math.gamma(alpha + 1.0)


def ex4_norm(alpha):
    """L2 norm over [0, 1] of Example 4's minimizer."""
    return math.sqrt(1.0 / (2.0 * alpha + 1.0)) / math.gamma(alpha + 1.0)


def moment_bound(l2, alpha, N, t):
    """Moment-expansion truncation bound, terminal 0, with l2 = max |x''| on [0, t]."""
    s = 1.0 - alpha
    return l2 * math.exp(s * s + s) / (math.gamma(2.0 - alpha) * s * N**s) * t ** (2.0 - alpha)


def hadamard_bound(lmax, alpha, N, t):
    """Hadamard moment bound, terminal 1, with lmax = max |x' + tau x''| on [1, t]."""
    s = 1.0 - alpha
    return (
        lmax * math.exp(s * s + s) / (math.gamma(2.0 - alpha) * s * N**s)
        * math.log(t) ** s * (t - 1.0)
    )


# ---------------------------------------------------------------------------
# dedicated systems of the direct method
# ---------------------------------------------------------------------------


def ex1_solution(n):
    """Interior minimizer of Example 1's discrete functional
    h sum_{i=1..n} (h^-1/2 sum_k w_k x_{i-k} - f(t_i))^2 with x_0 = 0, x_n = 1:
    a linear least-squares problem in the interior values."""
    h = 1.0 / n
    w = gl_weights(0.5, n)
    i = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n)[None, :]
    G = np.where(i >= j, w[np.clip(i - j, 0, n)], 0.0)
    rhs = h**0.5 * ex1_target(np.arange(1, n + 1) * h)
    rhs[-1] -= w[0] * 1.0
    return np.linalg.lstsq(G, rhs, rcond=None)[0]


def ex2_solution(n, alpha=0.5):
    """Interior minimizer of Example 2: 2x_j - x_{j-1} - x_{j+1} =
    (h^{2-alpha}/2) sum_{k=0..n-j} w_k with x_0 = 0, x_n = 1."""
    h = 1.0 / n
    csum = np.cumsum(gl_weights(alpha, n))
    rhs = 0.5 * h ** (2.0 - alpha) * csum[n - np.arange(1, n)]
    rhs[-1] += 1.0
    bands = np.zeros((3, n - 1))
    bands[0, 1:] = -1.0
    bands[1, :] = 2.0
    bands[2, :-1] = -1.0
    return solve_banded((1, 1), bands, rhs)


def ex3_stationarity(x):
    """Gradient of Example 3's discrete functional over h, at nodes 1..n-1:
    4 h^-1/2 sum_{i=j..n} w_{i-j} (D_i - phi(t_i))^3."""
    n = len(x) - 1
    h = 1.0 / n
    w = gl_weights(0.5, n)
    d = np.convolve(w, x)[: n + 1] / h**0.5
    cubes = (d - ex3_phi(np.arange(n + 1) * h)) ** 3
    back = np.convolve(w, cubes[::-1])[: n + 1][::-1]
    return 4.0 / h**0.5 * back[1:n]


# ---------------------------------------------------------------------------
# CSV entries and checks
# ---------------------------------------------------------------------------


@dataclass
class Entry:
    """One sweep entry of one study: its key value, error and verdict."""

    label: str
    error: float = float("nan")
    reasons: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.reasons


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def _groups(data, keys):
    """Rows of each sweep key, in sweep order; a missing key maps to None."""
    return [(k, data[data[:, 0] == k] if np.any(data[:, 0] == k) else None) for k in keys]


def _expect(entry, cond, reason):
    if not cond:
        entry.reasons.append(reason)


def _column_matches(entry, reported, own, what):
    reported = np.asarray(reported, dtype=float)
    own = np.asarray(own, dtype=float)
    scale = 1e-300 + np.maximum(np.abs(own), np.max(np.abs(own)) * 1e-6)
    _expect(
        entry,
        np.all(np.abs(reported - own) <= COLUMN_RTOL * scale),
        f"{what} column differs from the recomputed value",
    )


def _nodes_ok(entry, t, n, a=0.0, b=1.0):
    _expect(entry, np.allclose(t, a + np.arange(len(t)) * (b - a) / n, rtol=0, atol=1e-14),
            "mesh nodes are not uniform")


def _falls(entries, what="error"):
    for prev, cur in zip(entries, entries[1:]):
        if math.isfinite(prev.error) and math.isfinite(cur.error):
            _expect(cur, cur.error < prev.error, f"{what} did not fall from {prev.label}")


def check_direct(example, ns, data):
    """direct --example ex1|ex2|ex3: columns n, t, approx, exact, abs_error, max_error, converged."""
    entries = []
    for n, rows in _groups(data, ns):
        e = Entry(f"{example}:n={n}")
        entries.append(e)
        if rows is None:
            e.reasons.append("no output (solve raised)")
            continue
        if rows.shape[0] != n + 1:
            e.reasons.append("wrong row count")
            continue
        t, x = rows[:, 1], rows[:, 2]
        _nodes_ok(e, t, n)
        _expect(e, x[0] == 0.0 and x[-1] == 1.0, "boundary values not kept")
        if example == "ex1":
            exact = t**2
            _expect(e, np.max(np.abs(x[1:-1] - ex1_solution(n))) <= DEDICATED_AGREEMENT,
                    "disagrees with the dedicated normal equations")
        elif example == "ex2":
            exact = ex2_exact(0.5, t)
            _expect(e, np.max(np.abs(x[1:-1] - ex2_solution(n))) <= DEDICATED_AGREEMENT,
                    "disagrees with the dedicated tridiagonal system")
        else:
            exact = ex3_minimizer(t)
            _expect(e, np.max(np.abs(ex3_stationarity(x))) <= EX3_STATIONARITY,
                    "not stationary (ex3 gradient formula)")
        e.error = float(np.max(np.abs(x[1:-1] - exact[1:-1])))
        _column_matches(e, rows[:, 4], np.abs(x - exact), "abs_error")
        _column_matches(e, rows[:, 5], np.full(n + 1, e.error), "max_error")
    _falls(entries)
    return entries


def check_tpbvp(alpha, n, Ns, data):
    """indirect --example ex4-moment: columns N, t, approx, exact, l2_error."""
    entries = []
    norm = ex4_norm(alpha)
    for N, rows in _groups(data, Ns):
        e = Entry(f"ex4-moment:N={N}")
        entries.append(e)
        if rows is None:
            e.reasons.append("no output (solve raised)")
            continue
        if rows.shape[0] != n + 1:
            e.reasons.append("wrong row count")
            continue
        t, x = rows[:, 1], rows[:, 2]
        _nodes_ok(e, t, n)
        diff2 = (x - ex4_exact(alpha, t)) ** 2
        e.error = float(np.sqrt(np.sum(diff2[1:] + diff2[:-1]) / (2.0 * n)))
        _expect(e, math.isfinite(e.error), "error is not finite")
        _expect(e, e.error < norm, f"L2 error {e.error:.3g} exceeds the solution's norm {norm:.3g}")
        _column_matches(e, rows[:, 4], np.full(n + 1, e.error), "l2_error")
    _falls(entries)
    return entries


def _mesh_exact(function, method, alpha, t):
    if function == "t2":
        return rl_power(2.0, alpha, t)  # x(0) = 0: Caputo and RL agree
    if method == "diethelm":
        return caputo_exp2(alpha, t)
    return rl_exp2(alpha, t)


def check_mesh(method, function, alpha, ns, data):
    """derivative --method gl|diethelm: columns n, t, exact, approx, abs_error
    over nodes 1..n; the error is the interior max over nodes 1..n-1."""
    entries = []
    for n, rows in _groups(data, ns):
        e = Entry(f"{method}:{function}:n={n}")
        entries.append(e)
        if rows is None:
            e.reasons.append("no output (raised)")
            continue
        if rows.shape[0] != n:
            e.reasons.append("wrong row count")
            continue
        t, approx = rows[:, 1], rows[:, 3]
        _nodes_ok(e, np.concatenate(([0.0], t)), n)
        dev = np.abs(approx - _mesh_exact(function, method, alpha, t))
        e.error = float(np.max(dev[:-1]))
        _column_matches(e, rows[:, 4], dev, "abs_error")
    if method == "gl":
        lo, hi = (math.log2(r) for r in GL_HALVING)
    else:
        lo, hi = 2.0 - alpha - DIETHELM_ORDER_MARGIN, math.inf
    for (n0, prev), (n1, cur) in zip(zip(ns, entries), zip(ns[1:], entries[1:])):
        if prev.error > 0.0 and cur.error > 0.0:
            order = math.log(prev.error / cur.error) / math.log(n1 / n0)
            _expect(cur, lo <= order <= hi, f"observed order {order:.3f} outside [{lo:.3f}, {hi:.3f}]")
        else:
            cur.reasons.append("zero error: order undefined")
    return entries


def check_moment_derivative(function, alpha, Ns, data):
    """derivative --method moment on exp2t: columns N, t, exact, approx, abs_error.
    Each value must lie within the moment truncation bound of the exact one."""
    entries = []
    for N, rows in _groups(data, Ns):
        e = Entry(f"moment:{function}:N={N}")
        entries.append(e)
        if rows is None:
            e.reasons.append("no output (raised)")
            continue
        t, approx = rows[:, 1], rows[:, 3]
        dev = np.abs(approx - rl_exp2(alpha, t))
        bound = np.array([moment_bound(4.0 * math.exp(2.0 * s), alpha, N, s) for s in t])
        e.error = float(np.max(dev))
        _expect(e, np.all(dev <= bound + DOMINANCE_SLACK), "error exceeds the truncation bound")
        _column_matches(e, rows[:, 4], dev, "abs_error")
    _falls(entries)
    return entries


def check_bounds(method, function, alpha, Ns, data):
    """bounds: columns N, t, abs_error, bound, dominated.  The bound column is
    recomputed from its formula; every flag must be 1 and every error must
    lie under the recomputed bound."""
    entries = []
    for N, rows in _groups(data, Ns):
        e = Entry(f"bounds:{method}:{function}:N={N}")
        entries.append(e)
        if rows is None:
            e.reasons.append("no output (raised)")
            continue
        t, err, reported, flag = rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]
        if method == "moment" and function == "t4":
            own = [moment_bound(12.0 * s * s, alpha, N, s) for s in t]
        elif method == "hadamard" and function == "exp2t":
            own = [hadamard_bound((2.0 + 4.0 * s) * math.exp(2.0 * s), alpha, N, s) for s in t]
        else:
            raise ValueError(f"no bound oracle for {method}:{function}")
        _column_matches(e, reported, own, "bound")
        _expect(e, np.all(flag == 1.0), "a dominated flag is 0")
        _expect(e, np.all(np.isfinite(err) & (err >= 0.0)), "error column not finite")
        _expect(e, np.all(err <= np.asarray(own) + DOMINANCE_SLACK), "error exceeds the recomputed bound")
        e.error = float(np.max(err))
    return entries
