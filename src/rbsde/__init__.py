"""Reflected backward SDE solvers on exact finite scenario trees.

Solves reflected backward stochastic differential equations with zero,
one or two obstacles in one backward induction, driven by a
Bernoulli Brownian walk plus a compensated finite-mark jump measure,
with penalisation ladders, Snell-envelope machinery, fixed-point
iteration for Lipschitz drivers and a full solution-condition checker.
"""

__version__ = "0.1.0"

from .bsde import Compensator, Solution
from .errors import (BarriersTouch, ConfigError, DriverNotCoefficientFree,
                     InfeasibleIntensity, JumpTimeOffGrid, MaxIterExceeded,
                     MokobodskiFailed, MonotonicityViolation, NoContractionObserved,
                     NonFiniteData, NotMonotone, RbsdeError, StepsizeTooLarge,
                     TerminalBelowBarrier, TerminalOutsideBarriers, TooLargeToEnumerate,
                     TreeTooLarge, WeightOverflow)
from .fixpoint import alpha_norm, alpha_rule, picard_solve
from .penalty import PenalizationReport, PenalizedSolution, solve_penalized, sweep
from .processes import (BarrierSpec, BarrierValues, DriverSpec, MarkSet, ProblemSpec,
                        TerminalSpec, eval_barrier)
from .reflected import (regularity_check, snell_representation_check, solve_bsde,
                        solve_reflected)
from .snell import SnellResult, monotone_limit_check, optimal_stopping_time, snell
from .tree import ScenarioTree, build_tree, expand, sup_diff
from .twobarrier import (MokobodskiWitness, check_mokobodski, constant_witness,
                         martingale_witness, monotone_iterate_check, picard_snell_solve)
from .verify import CheckReport, check_solution, regularity_probe, uniqueness_probe

__all__ = [
    "__version__",
    "BarrierSpec", "BarrierValues", "DriverSpec", "MarkSet",
    "ProblemSpec", "TerminalSpec", "ScenarioTree", "MokobodskiWitness",
    "Solution", "Compensator", "SnellResult",
    "PenalizationReport", "PenalizedSolution", "CheckReport",
    "build_tree", "expand", "sup_diff",
    "eval_barrier", "snell",
    "optimal_stopping_time", "monotone_limit_check", "regularity_check",
    "solve_bsde", "solve_penalized", "sweep",
    "solve_reflected", "snell_representation_check", "check_mokobodski",
    "martingale_witness", "constant_witness",
    "picard_snell_solve", "monotone_iterate_check", "alpha_norm", "alpha_rule",
    "picard_solve", "check_solution", "uniqueness_probe", "regularity_probe",
    "RbsdeError", "InfeasibleIntensity", "TreeTooLarge", "JumpTimeOffGrid",
    "TooLargeToEnumerate", "NotMonotone", "StepsizeTooLarge",
    "TerminalBelowBarrier", "TerminalOutsideBarriers", "BarriersTouch",
    "DriverNotCoefficientFree", "MonotonicityViolation", "MokobodskiFailed",
    "MaxIterExceeded", "NoContractionObserved", "ConfigError", "NonFiniteData",
    "WeightOverflow",
]
