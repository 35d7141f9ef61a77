"""Exception types raised across the solver stack."""


class RbsdeError(Exception):
    """Base class for all solver and checker errors."""


class InfeasibleIntensity(RbsdeError):
    """Total jump probability per step reaches or exceeds one."""


class TreeTooLarge(RbsdeError):
    """Requested tree would exceed the configured node cap."""


class JumpTimeOffGrid(RbsdeError):
    """A declared predictable jump time is not a grid point."""


class NonFiniteData(RbsdeError, ValueError):
    """A terminal payoff, obstacle, stopping payoff or solution is NaN or infinite somewhere."""


class TooLargeToEnumerate(RbsdeError):
    """Subtree too deep or too wide for the stopping-time oracle."""


class NotMonotone(RbsdeError):
    """Inputs expected to be pointwise nondecreasing are not."""


class StepsizeTooLarge(RbsdeError):
    """dt times the driver Lipschitz constant reaches one."""


class TerminalBelowBarrier(RbsdeError):
    """Terminal payoff falls below the obstacle at some leaf."""


class TerminalOutsideBarriers(RbsdeError):
    """Terminal payoff leaves the band between the two obstacles."""


class BarriersTouch(RbsdeError):
    """Strict separation of the two obstacles fails before time one."""


class DriverNotCoefficientFree(RbsdeError):
    """Operation requires a driver without (y, z, v) dependence."""


class MonotonicityViolation(RbsdeError):
    """A provably monotone scheme produced a decreasing pair."""


class MokobodskiFailed(RbsdeError):
    """Supplied supermartingale witness does not bracket the obstacles."""


class MaxIterExceeded(RbsdeError):
    """Iteration budget exhausted before the stop rule fired."""


class WeightOverflow(RbsdeError):
    """The Picard weight exponent alpha, or e^(alpha t) on the grid, overflows."""


class NoContractionObserved(RbsdeError):
    """Successive iterate distances failed to shrink repeatedly."""

    def __init__(self, message: str, ratios=()):
        super().__init__(message)
        self.ratios = tuple(ratios)


class ConfigError(RbsdeError):
    """Problem configuration violates the schema or is inconsistent."""
