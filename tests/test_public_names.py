import types

import fracvar

#: Every public name of the package, modules aside, so that a name cannot
#: appear or vanish without an edit here.  Code that only tests call lives
#: under tests/ instead.
PUBLIC_NAMES = {
    # specfun
    "GammaPoleError",
    "SeriesConvergenceError",
    "gamma",
    "mittag_leffler",
    "stirling_function",
    # operators
    "Mesh",
    "MeshMismatchError",
    "SampledCurve",
    "diethelm_caputo_all",
    "gl_left_all",
    "gl_right_all",
    "gl_weights",
    "hadamard_logpow_exact",
    "l2_error",
    "max_error",
    "rl_exp_exact",
    "rl_power_exact",
    # expansions
    "DerivativeBundle",
    "ExpansionDomainError",
    "MomentCoeffs",
    "b_table",
    "bound_hadamard",
    "bound_integer",
    "bound_moment",
    "expand_integer",
    "expand_moment",
    "hadamard_expand_integer",
    "moment_coeffs",
    "moment_expansion",
    "moment_values",
    # direct
    "DirectProblem",
    "LagrangianSpec",
    "NewtonConvergenceError",
    "NonAffineSystemError",
    "SingularSystemError",
    "StationaritySystem",
    "example1_problem",
    "example2_problem",
    "example3_problem",
    "solve_direct",
    "stationarity",
    # indirect
    "IllConditionedSystemError",
    "TpBvpSystem",
    "analytic_solution_example2",
    "assemble_tpbvp_example2",
    "assemble_tpbvp_example4",
    "exact_solution_example4",
    "solve_example2_integer",
    "solve_example2_moment_closed",
    "solve_linear_tpbvp",
}


def test_public_names_are_the_listed_set():
    public = {
        name for name, value in vars(fracvar).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 50
    assert public == PUBLIC_NAMES
