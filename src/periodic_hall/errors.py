"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so library code should
raise one of the classes below rather than bare ValueError for any
condition a user can trigger from the command line.
"""


class HallError(Exception):
    """Base class for all package errors."""


class ParseError(HallError):
    """A literal (element, class, quiver, scalar, config) failed to parse."""


class EvenPeriodError(HallError):
    """An odd-period-only construction was requested with even m."""


class ResourceLimitError(HallError):
    """A configured enumeration cap was exceeded."""


class UsageError(HallError):
    """Inconsistent arguments (mismatched contexts, bad primes, ...)."""


class InvariantError(HallError):
    """An internal consistency check failed; the result cannot be trusted."""
