"""Exception types shared across the engine."""


class DesirabilityError(Exception):
    """Base class for every error raised by this package."""


class ScopeError(DesirabilityError, ValueError):
    """A scope relation (subset, disjointness, equality) does not hold."""


class OutcomeError(DesirabilityError, ValueError):
    """An outcome label does not belong to the variable it is paired with."""


class ExactnessError(DesirabilityError, TypeError):
    """A value that must be an exact rational was not one (e.g. a float)."""


class DimensionMismatchError(DesirabilityError, ValueError):
    """A coefficient vector has the wrong length for its system."""


class IncoherentBaseError(DesirabilityError):
    """An operation requires a coherent base model but the base fails it."""


class BudgetExceededError(DesirabilityError):
    """An enumeration or projection grew past its configured size budget."""


class DegenerateConditioningError(DesirabilityError):
    """Conditioning on an event that the model gives no weight at all."""


class UnsupportedQueryError(DesirabilityError):
    """The requested query is outside the decidable fragment for this set."""


class MissingConditionError(DesirabilityError, KeyError):
    """A conditional family was queried at an outcome it has no entry for."""


class ModelFormatError(DesirabilityError, ValueError):
    """A model document violates the file format."""


class EngineError(DesirabilityError):
    """The engine broke its own contract.

    Raised when an answer, a witness or a conditioned model fails its own
    check, the simplex does not terminate within its iteration cap, or a
    program that must have an optimum does not.  Signals an engine bug,
    never a property of the inputs.
    """
