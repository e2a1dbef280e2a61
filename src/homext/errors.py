"""Exception types shared across the package."""


class HomextError(Exception):
    """Base class for all package errors."""


class ZeroInverse(HomextError):
    """Attempted to invert 0 in GF(p)."""


class DimMismatch(HomextError):
    """Vector or matrix shapes are inconsistent."""


class PreconditionFailed(HomextError):
    """A theorem precondition does not hold; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotCentral(HomextError):
    """The distinguished vector is not a nonzero central element."""


class DegenerateFrame(HomextError):
    """No hyperbolic partner exists for the distinguished central vector."""


class NotPIdeal(HomextError):
    """The orthogonal complement of the central line is not a p-ideal."""


class NonInvertiblePi0(HomextError):
    """The inner automorphism block of an adapted isomorphism is singular."""


class ZeroGamma(HomextError):
    """The scaling factor of an adapted isomorphism must be nonzero."""


class FrameMismatch(HomextError):
    """Data does not fit the canonical double-extension frame layout."""


class ParseError(HomextError):
    """A bundle file failed to parse or violates its schema."""
