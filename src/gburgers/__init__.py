"""Exact solutions of generalized Burgers equations u_t + u*u_x + f(t,x)*u_xx = 0.

Solutions are built by composing closed-form Riccati branches with
potentials of the fast diffusion equation, transformed across the class by
a seven-parameter point-transformation group, and verified both by
machine-precision residual sweeps (through exact third-order jets) and by
independent finite-difference integration.
"""

from .ansatz import (RiccatiBranch, SolutionField, build_solution, matched_branch,
                     phi, phi_prime, rational_solution, riccati_residual, xi_solution)
from .catalog import CatalogEntry, catalog_json, eval_case, get_case, iter_cases
from .equivalence import (EquivalenceElement, apply_point, apply_u, compose,
                          identity, inverse, transform_f, transform_solution)
from .jets import (Antiderivative, EvaluationError, Jet3, Point, Region,
                   ScalarField, SingularPointError, constant_field)
from .numsolve import (BlowUpError, ConvergenceReport, IbvpSpec, NumericSolution,
                       WellPosednessError, compare, convergence_study, march, solve_ibvp)
from .verify import (DeterminingResiduals, EmptySweepError, LinearReductionOperator,
                     ReductionOperatorCoefficients, SweepReport, determining_residuals,
                     gbe_residual, gbe_residual_scaled, gfde_residual,
                     gfde_residual_scaled, linear_operator_fields, pfde_residual,
                     pfde_residual_scaled, potential_residual, potential_residual_scaled,
                     reduced_system_residual, reduced_system_residual_scaled, sweep)

__version__ = "0.1.0"

__all__ = [
    "Antiderivative", "BlowUpError", "CatalogEntry", "ConvergenceReport",
    "DeterminingResiduals", "EmptySweepError", "EquivalenceElement",
    "EvaluationError", "IbvpSpec", "Jet3", "LinearReductionOperator",
    "NumericSolution", "Point", "ReductionOperatorCoefficients", "Region",
    "RiccatiBranch", "ScalarField", "SingularPointError", "SolutionField",
    "SweepReport", "WellPosednessError", "apply_point", "apply_u",
    "build_solution", "catalog_json", "compare",
    "compose", "constant_field", "convergence_study", "determining_residuals",
    "eval_case", "gbe_residual", "gbe_residual_scaled",
    "get_case", "gfde_residual", "gfde_residual_scaled", "identity", "inverse",
    "iter_cases", "linear_operator_fields", "march", "matched_branch", "phi", "phi_prime",
    "pfde_residual", "pfde_residual_scaled", "potential_residual",
    "potential_residual_scaled", "rational_solution", "reduced_system_residual",
    "reduced_system_residual_scaled", "riccati_residual", "solve_ibvp", "sweep",
    "transform_f", "transform_solution", "xi_solution",
]
