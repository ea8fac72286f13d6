"""Exception types shared across the package."""

__all__ = [
    "ClosureOverflow", "Disconnected", "InvariantViolation", "NotASubgroup", "RankDeficient", "TorsymError",
    "UnknownGroup", "UnmatchedLattice",
]


class TorsymError(Exception):
    """Base class for all package-specific errors."""


class InvariantViolation(TorsymError):
    """An internal consistency check failed: a fault in the program, not in its input."""


class NotASubgroup(TorsymError):
    """A claimed subgroup relation does not hold."""


class RankDeficient(TorsymError):
    """An operation requiring full rank received a lower-rank subgroup."""


class UnknownGroup(TorsymError):
    """Requested space group name is not one of the six supported ones."""


class ClosureOverflow(TorsymError):
    """Coset closure found more cosets than its hard cap allows."""


class UnmatchedLattice(TorsymError):
    """An invariant sublattice fits none of the closed-form families."""


class Disconnected(TorsymError):
    """A graph operation requiring connectivity received a disconnected graph."""
