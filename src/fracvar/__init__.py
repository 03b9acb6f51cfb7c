"""fracvar: fractional derivatives and fractional variational problem solvers.

The package approximates Riemann-Liouville, Caputo, Grunwald-Letnikov and
Hadamard derivatives of order alpha in (0, 1) by finite differences and by
two expansion families (integer-order and moment-based), and solves scalar
fractional variational problems by a direct Euler-like discretization and by
indirect expansion-based reductions to classical boundary value problems.

Subpackages:

* ``specfun``    gamma, Mittag-Leffler, Stirling function
* ``operators``  meshes, sampled curves, the GL weights (a plain read-only
                 array), GL finite differences (one lower-triangular Toeplitz
                 kernel, right-sided by reflection), the Diethelm scheme,
                 exact reference derivatives, error norms
* ``expansions`` integer-order and moment expansions with truncation bounds
                 (``expand_integer``, ``expand_moment``; flags ``right``, ``hadamard``)
* ``direct``     Euler-like direct method, its linear solve and damped Newton on
                 one Newton matrix from the nodewise second partials of L, and
                 the catalog problems (the dedicated system assemblies and the
                 Euler-Lagrange residual that cross-check it are test oracles)
* ``indirect``   expansion-based reductions, closed forms, linear TPBVP solver
* ``cli``        the ``fracvar`` experiment harness (CSV output)

scipy is imported inside the three functions that use it (FFT Toeplitz
products, the Hadamard reference quadrature and the banded TPBVP solve), not
at module top: importing it costs more than most CLI runs, and most runs
reach none of them.
"""

from .specfun import (
    GammaPoleError,
    SeriesConvergenceError,
    gamma,
    mittag_leffler,
    stirling_function,
)
from .operators import (
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
from .expansions import (
    DerivativeBundle,
    ExpansionDomainError,
    MomentCoeffs,
    b_table,
    bound_hadamard,
    bound_integer,
    bound_moment,
    expand_integer,
    expand_moment,
    hadamard_expand_integer,
    moment_coeffs,
    moment_expansion,
    moment_values,
)
from .direct import (
    DirectProblem,
    LagrangianSpec,
    NewtonConvergenceError,
    NonAffineSystemError,
    SingularSystemError,
    StationaritySystem,
    example1_problem,
    example2_problem,
    example3_problem,
    solve_direct,
    stationarity,
)
from .indirect import (
    IllConditionedSystemError,
    TpBvpSystem,
    analytic_solution_example2,
    assemble_tpbvp_example2,
    assemble_tpbvp_example4,
    exact_solution_example4,
    solve_example2_integer,
    solve_example2_moment_closed,
    solve_linear_tpbvp,
)

__version__ = "0.1.0"
