"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible rank or truncation order."""


class SingularLeadingTermError(ArithmeticError):
    """Series inversion requested but the constant coefficient is singular."""


class DiscDomainError(ValueError):
    """Evaluation point outside the open unit disc."""


class MetricDegeneracyError(ArithmeticError):
    """Metric fails to be positive definite within tolerance."""


class TruncationOrderError(ValueError):
    """Series order too small for the requested coefficient."""


class UnsupportedShapeError(ValueError):
    """Invariant matrices outside the structured family the deciders cover."""


class DegenerateInputError(ValueError):
    """Inverse-problem input makes a required division degenerate or a derived
    quantity non-finite."""


class WitnessVerificationError(ArithmeticError):
    """A constructed equivalence witness fails its unitarity or intertwining check."""
