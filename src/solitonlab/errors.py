"""Shared exception types."""


class InvalidInput(ValueError):
    """Malformed or out-of-range user input (bad shapes, non-finite data, ...)."""


class InvalidMetric(InvalidInput):
    """Metric matrix is not symmetric positive definite."""


class UnsupportedDerivation(RuntimeError):
    """Derivation has a non-real or defective spectrum (or is not
    self-adjoint where a computation requires it)."""


class DomainError(InvalidInput):
    """Scalar argument outside the domain of a closed-form expression."""


class SingularityReached(RuntimeError):
    """Flow integration lost positive definiteness at time ``t``."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"metric lost positive definiteness at t={t:.6g}")


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; the ODE is too stiff at this tolerance."""


class InvalidPerturbation(RuntimeError):
    """Could not produce an SPD perturbed metric within the resample budget."""


class InvalidWeight(InvalidInput):
    """Weight parameters outside the legal range (a > 0, or tau too small)."""


class NotInCatalog(KeyError):
    """Unknown catalog entry or chart model name."""

    # the message as given: KeyError's own __str__ would print its repr, in quotes
    __str__ = Exception.__str__


class GridTooCoarse(InvalidInput):
    """Grid spacing too large for the finite-difference operator."""


class GridTooLarge(InvalidInput):
    """Grid too large for its coordinates and operator to fit in physical memory."""
