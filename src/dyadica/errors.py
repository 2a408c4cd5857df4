"""Exception taxonomy.

Every failure mode a caller might want to catch gets its own class. Errors
raised while checking a mathematical statement carry a replayable ``witness``
dict (point ids, cube keys, offending values) so the failure can be
reproduced outside the library.
"""

from __future__ import annotations


class DyadicaError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str = "", **witness):
        self.witness = witness
        if witness:
            items = ", ".join(f"{k}={v!r}" for k, v in witness.items())
            message = f"{message} [{items}]" if message else items
        super().__init__(message)


class ConfigError(DyadicaError):
    """Malformed scenario/space/kernel input; messages are path-qualified."""


# ---- spaces ----------------------------------------------------------------

class NonSymmetric(DyadicaError):
    pass


class NegativeDistance(DyadicaError):
    pass


class ZeroOffDiagonal(DyadicaError):
    pass


class UnknownKind(DyadicaError):
    pass


class BadParams(DyadicaError):
    pass


# ---- dyadic systems ---------------------------------------------------------

class PropertyViolation(DyadicaError):
    """A constructed system failed one of its five structural properties."""


class CoverageIncomplete(DyadicaError):
    """No system in the family covers some ball within the diameter bound."""


class OutOfRange(DyadicaError):
    pass


class SamePoint(DyadicaError):
    pass


class MixedSystems(DyadicaError):
    pass


# ---- kernels ----------------------------------------------------------------

class BadExponents(DyadicaError):
    pass


class EmptyBallMass(DyadicaError):
    pass


class Unbounded(DyadicaError):
    """A growth-constant ratio is +inf/finite; no finite k1 exists."""


class EstimateViolated(DyadicaError):
    pass


# ---- operators ----------------------------------------------------------------

class FormMismatch(DyadicaError):
    """Partition-sum and kernel forms of the dyadic operator disagree."""


class BadM(DyadicaError):
    pass


class SandwichViolated(DyadicaError):
    pass


class EquivalenceViolated(DyadicaError):
    pass


class DualityViolated(DyadicaError):
    pass


class PointCubeViolated(DyadicaError):
    pass


# ---- norms ----------------------------------------------------------------

class Infinite(DyadicaError):
    """An evaluation produced +inf where a finite value is required."""


class NonPositiveOperator(DyadicaError):
    """Monotonicity spot-check failed; the optimizer assumes f<=g => Af<=Ag."""


class LowerBoundViolated(DyadicaError):
    pass


class InfiniteTesting(DyadicaError):
    pass


# ---- stopping / maximal -----------------------------------------------------

class PrincipleViolated(DyadicaError):
    pass


class HypothesisViolated(DyadicaError):
    pass


class BoundViolated(DyadicaError):
    pass


class NotAbsolutelyContinuous(DyadicaError):
    pass
