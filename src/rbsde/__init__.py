"""Reflected backward SDE solvers on exact finite scenario trees.

Solves one- and two-obstacle reflected backward stochastic differential
equations driven by a Bernoulli Brownian walk plus a compensated
finite-mark jump measure, with penalisation ladders, Snell-envelope
machinery, fixed-point iteration for Lipschitz drivers and a full
solution-condition checker.
"""

__version__ = "0.1.0"

from .bsde import (FrozenDriver, SolutionQuadruple, StepOutput, backward_step,
                   project_zv, solve_bsde)
from .errors import (BarriersTouch, ConfigError, DriverNotCoefficientFree,
                     InfeasibleIntensity, JumpTimeOffGrid, MaxIterExceeded,
                     MokobodskiFailed, MonotonicityViolation, NoContractionObserved,
                     NotMonotone, RbsdeError, StepsizeTooLarge, TerminalBelowBarrier,
                     TerminalOutsideBarriers, TooLargeToEnumerate, TreeTooLarge)
from .fixpoint import alpha_norm, alpha_rule, picard_solve
from .penalty import PenalizationReport, PenalizedSolution, solve_penalized, sweep
from .processes import (BarrierSpec, BarrierValues, DriverSpec, MarkSet, PenaltyTerm,
                        ProblemSpec, TerminalSpec, eval_barrier, eval_driver)
from .reflected import snell_representation_check, solve_reflected_one
from .snell import (SnellResult, brute_force_value, monotone_limit_check,
                    optimal_stopping_time, regularity_check, snell)
from .tree import (ScenarioTree, build_tree, compensated_increment,
                   conditional_expectation, expand, sup_diff)
from .twobarrier import (MokobodskiWitness, SolutionQuintuple, check_mokobodski,
                         constant_witness, martingale_witness, monotone_iterate_check,
                         picard_snell_solve, solve_double_obstacle)
from .verify import (CheckReport, check_solution_one, check_solution_two,
                     regularity_probe, uniqueness_probe)

__all__ = [
    "__version__",
    "BarrierSpec", "BarrierValues", "DriverSpec", "MarkSet", "PenaltyTerm",
    "ProblemSpec", "TerminalSpec", "ScenarioTree", "MokobodskiWitness",
    "SolutionQuadruple", "SolutionQuintuple", "SnellResult", "StepOutput",
    "FrozenDriver", "PenalizationReport", "PenalizedSolution", "CheckReport",
    "build_tree", "compensated_increment", "conditional_expectation", "expand",
    "sup_diff",
    "eval_barrier", "eval_driver", "snell", "brute_force_value",
    "optimal_stopping_time", "monotone_limit_check", "regularity_check",
    "project_zv", "backward_step", "solve_bsde", "solve_penalized", "sweep",
    "solve_reflected_one", "snell_representation_check", "check_mokobodski",
    "martingale_witness", "constant_witness", "solve_double_obstacle",
    "picard_snell_solve", "monotone_iterate_check", "alpha_norm", "alpha_rule",
    "picard_solve", "check_solution_one", "check_solution_two",
    "uniqueness_probe", "regularity_probe",
    "RbsdeError", "InfeasibleIntensity", "TreeTooLarge", "JumpTimeOffGrid",
    "TooLargeToEnumerate", "NotMonotone", "StepsizeTooLarge",
    "TerminalBelowBarrier", "TerminalOutsideBarriers", "BarriersTouch",
    "DriverNotCoefficientFree", "MonotonicityViolation", "MokobodskiFailed",
    "MaxIterExceeded", "NoContractionObserved", "ConfigError",
]
