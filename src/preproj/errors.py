"""Exception types shared across the package."""


class PreprojectiveError(Exception):
    """Base class for every error raised by this package."""


class CartanError(PreprojectiveError, ValueError):
    """Invalid Cartan data."""


class DiagonalNotTwo(CartanError):
    pass


class PositivityViolation(CartanError):
    pass


class AsymmetricZeroPattern(CartanError):
    pass


class NoSymmetrizer(CartanError):
    pass


class NotASymmetrizer(CartanError):
    pass


class OrientationError(CartanError):
    pass


class CapExceeded(PreprojectiveError):
    """A size or degree cap was hit.

    For non-Dynkin Cartan matrices this is a normal outcome, not a bug.
    ``partial`` carries whatever was computed before the cap."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class FieldDegenerate(PreprojectiveError):
    """Division by zero in a prime field."""


class NotDynkin(PreprojectiveError):
    """Operation requires a finite-dimensional selfinjective algebra."""


class SocleNotSimple(PreprojectiveError):
    """A projective with non-simple socle; flags an algebra-construction bug."""


class VerificationFailed(PreprojectiveError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotMutable(PreprojectiveError):
    """Left mutation requested at a summand lying in Fac of the rest."""


class ReportFailure(PreprojectiveError):
    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class ParseError(PreprojectiveError, ValueError):
    pass


class ValidationError(PreprojectiveError, ValueError):
    pass
