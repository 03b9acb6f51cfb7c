"""Test-function catalog backing the CLI subcommands.

Each entry carries the function, its first derivative, an analytic
derivative bundle for the integer-order expansions, exact fractional
derivatives where closed forms exist, and the envelope functions feeding
the truncation-error bounds.  The exact derivatives and envelopes take t
as a scalar or an array, except the two that need a per-node quadrature
or check (exp2t's Hadamard reference, lnt's), which the CLI evaluates
node by node.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expansions import DerivativeBundle, hadamard_reference
from .operators import hadamard_logpow_exact, rl_exp_exact, rl_power_exact
from .specfun import gamma, mittag_leffler

BUNDLE_ORDER = 12


@dataclass(frozen=True)
class TestFunction:
    name: str
    x: Callable
    xdot: Callable
    bundle: DerivativeBundle
    x0: float  # value at the left RL terminal (t = 0)
    rl_exact: Optional[Callable]  # (alpha, t) -> left RL derivative from 0
    hadamard_exact: Optional[Callable]  # (alpha, t) -> left Hadamard derivative from 1
    integer_m: Callable  # (N, t) -> max |x^(N+1)| on [0, t]
    moment_l2: Callable  # (t) -> max |x''| on [0, t]
    hadamard_lmax: Callable  # (t) -> max |x' + tau x''| on [1, t]


def _power_bundle(m: int) -> DerivativeBundle:
    def deriv(k):
        if k > m:
            return lambda t: 0.0
        c = math.factorial(m) / math.factorial(m - k)
        return lambda t, c=c, e=m - k: c * t**e

    return DerivativeBundle(tuple(deriv(k) for k in range(BUNDLE_ORDER + 1)))


def _power_m(m: int):
    def integer_m(N, t):
        if N + 1 > m:
            return 0.0
        c = math.factorial(m) / math.factorial(m - N - 1)
        return c * t ** (m - N - 1)

    return integer_m


def _t2() -> TestFunction:
    return TestFunction(
        name="t2",
        x=lambda t: t**2,
        xdot=lambda t: 2.0 * t,
        bundle=_power_bundle(2),
        x0=0.0,
        rl_exact=lambda al, t: rl_power_exact(2.0, al, t, 0.0),
        hadamard_exact=None,
        integer_m=_power_m(2),
        moment_l2=lambda t: 2.0,
        hadamard_lmax=lambda t: 4.0 * t + 2.0,  # x' + tau x'' = 2 tau + 2 tau
    )


def _t4() -> TestFunction:
    return TestFunction(
        name="t4",
        x=lambda t: t**4,
        xdot=lambda t: 4.0 * t**3,
        bundle=_power_bundle(4),
        x0=0.0,
        rl_exact=lambda al, t: rl_power_exact(4.0, al, t, 0.0),
        # in log-time t^4 is exp(4s), so the Hadamard derivative from 1 is
        # (ln t)^(-alpha) E_{1,1-alpha}(4 ln t)
        hadamard_exact=lambda al, t: np.log(t) ** (-al)
        * mittag_leffler(1.0, 1.0 - al, 4.0 * np.log(t)),
        integer_m=_power_m(4),
        moment_l2=lambda t: 12.0 * t**2,
        hadamard_lmax=lambda t: 16.0 * t**3,  # 4 tau^3 + 12 tau^3
    )


def _exp2t() -> TestFunction:
    bundle = DerivativeBundle(
        tuple(
            (lambda k: (lambda t, k=k: 2.0**k * math.exp(2.0 * t)))(k)
            for k in range(BUNDLE_ORDER + 1)
        )
    )
    return TestFunction(
        name="exp2t",
        x=lambda t: np.exp(2.0 * t),
        xdot=lambda t: 2.0 * np.exp(2.0 * t),
        bundle=bundle,
        x0=1.0,
        rl_exact=lambda al, t: rl_exp_exact(2.0, al, t),
        hadamard_exact=lambda al, t: hadamard_reference(
            lambda s: math.exp(2.0 * s), lambda s: 2.0 * math.exp(2.0 * s), al, t, 1.0
        ),
        integer_m=lambda N, t: 2.0 ** (N + 1) * np.exp(2.0 * t),
        moment_l2=lambda t: 4.0 * np.exp(2.0 * t),
        hadamard_lmax=lambda t: (2.0 + 4.0 * t) * np.exp(2.0 * t),
    )


def _lnt() -> TestFunction:
    def deriv(k):
        if k == 0:
            return np.log
        c = (-1.0) ** (k - 1) * math.factorial(k - 1)
        return lambda t, c=c, k=k: c * t ** (-k)

    return TestFunction(
        name="lnt",
        x=np.log,
        xdot=lambda t: 1.0 / t,
        bundle=DerivativeBundle(tuple(deriv(k) for k in range(BUNDLE_ORDER + 1))),
        x0=float("nan"),  # not usable with the RL terminal at 0
        rl_exact=None,
        hadamard_exact=lambda al, t: hadamard_logpow_exact(1.0, al, t),
        integer_m=lambda N, t: math.factorial(N),  # max on [1, t] sits at tau = 1
        moment_l2=lambda t: 1.0,
        hadamard_lmax=lambda t: 0.0,  # 1/tau - tau/tau^2 vanishes identically
    )


CATALOG = {f.name: f for f in (_t2(), _t4(), _exp2t(), _lnt())}


def caputo_exact(func: TestFunction, alpha: float, t: float) -> float:
    """Left Caputo derivative from 0: the RL value minus x(0) t^(-alpha)/Gamma(1-alpha)."""
    if func.rl_exact is None:
        raise ValueError(f"{func.name} has no RL closed form")
    return func.rl_exact(alpha, t) - func.x0 * t ** (-alpha) / gamma(1.0 - alpha)
