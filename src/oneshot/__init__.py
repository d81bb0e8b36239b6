"""Multi-step one-shot inversion for discretized linear inverse problems.

Solvers that iterate simultaneously on state, adjoint state and parameter,
together with their block iteration matrices, spectral convergence oracles,
explicit descent-step bounds, and the exact scalar-case stability theory.
"""
from .linear_model import (AssumptionReport, RealInverseProblem, ScalarProblem,
                           exact_adjoint, exact_state, helmholtz_toy,
                           load_problem, random_contraction, realify,
                           save_problem, validate)
from .solvers import (ConvergenceTrace, MethodSpec, SolverConfig, SolverKind,
                      Status, run_method)
from .spectral import (IterationMatrix, TUXTriple, build_iteration_matrix,
                       converges, eigenvalue_one_check, s_functional,
                       spectral_radius, tux)
from .bounds import (BoundParams, StepBound, closed_form, gd_bound,
                     matrix_bound)
from .scalar import (CubicCoeffs, MardenTable, ScalarThreshold, eta, fk,
                     fk_roots, jury_marden_cubic, jury_marden_general, kappa,
                     scalar_iteration_matrix, threshold)

__all__ = [
    "AssumptionReport", "RealInverseProblem", "ScalarProblem",
    "exact_adjoint", "exact_state", "helmholtz_toy", "load_problem",
    "random_contraction", "realify", "save_problem", "validate",
    "ConvergenceTrace", "MethodSpec", "SolverConfig", "SolverKind", "Status",
    "run_method",
    "IterationMatrix", "TUXTriple", "build_iteration_matrix", "converges",
    "eigenvalue_one_check", "s_functional", "spectral_radius", "tux",
    "BoundParams", "StepBound", "closed_form", "gd_bound", "matrix_bound",
    "CubicCoeffs", "MardenTable", "ScalarThreshold", "eta", "fk", "fk_roots",
    "jury_marden_cubic", "jury_marden_general", "kappa",
    "scalar_iteration_matrix", "threshold",
]
