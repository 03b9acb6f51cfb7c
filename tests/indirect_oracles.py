"""The classical higher-order Euler-Lagrange residual, as a test oracle.

It checks the closed form of Example 2's integer route
(``fracvar.indirect.solve_example2_integer``) against the Euler-Lagrange
equation of its own reduced, integer-order variational problem.
"""

import math
from dataclasses import dataclass
from typing import Callable

from fracvar.expansions import DerivativeBundle


@dataclass(frozen=True)
class HigherOrderLagrangian:
    """Lagrangian L(t, x, x', ..., x^(N)) given by its N+1 partial derivatives.

    ``partials[k](t, d)`` evaluates dL/dx^(k) at the derivative tuple
    d = (x(t), x'(t), ..., x^(N)(t)).
    """

    order: int
    partials: tuple

    def __post_init__(self):
        object.__setattr__(self, "partials", tuple(self.partials))
        if len(self.partials) != self.order + 1:
            raise ValueError(
                f"order {self.order} needs {self.order + 1} partials, got {len(self.partials)}"
            )


#: Step of the central differences in :func:`higher_order_el_residual`.
_EL_FD_STEP = 1e-3


def higher_order_el_residual(
    bundle: DerivativeBundle,
    lagrangian: HigherOrderLagrangian,
) -> Callable:
    """Residual evaluator of the classical higher-order Euler-Lagrange equation

        dL/dx - d/dt(dL/dx') + d^2/dt^2(dL/dx'') - ...
            + (-1)^N d^N/dt^N (dL/dx^(N)) = 0

    for a curve supplied with analytic derivatives.  Inner partials are
    evaluated analytically along the curve; the outer d^k/dt^k are central
    binomial finite differences with step ``_EL_FD_STEP`` (O(step^2) accurate),
    so the curve must be evaluable in a neighborhood of each query point.
    """
    N = lagrangian.order
    if bundle.order < N:
        raise ValueError(
            f"curve bundle provides derivatives up to {bundle.order}, need {N}"
        )

    def along(k: int, t: float) -> float:
        d = tuple(bundle.deriv(i, t) for i in range(N + 1))
        return float(lagrangian.partials[k](t, d))

    def residual(t: float) -> float:
        total = along(0, t)
        for k in range(1, N + 1):
            dk = sum(
                (-1.0) ** j * math.comb(k, j) * along(k, t + (k / 2.0 - j) * _EL_FD_STEP)
                for j in range(k + 1)
            ) / _EL_FD_STEP**k
            total += (-1.0) ** k * dk
        return total

    return residual
