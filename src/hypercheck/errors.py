"""Exception hierarchy shared across the package."""


class HypercheckError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(HypercheckError):
    """An operation received the identically-zero polynomial."""


class NotRealRooted(HypercheckError):
    """A polynomial required to be real rooted is not."""


class DegreeTooLow(HypercheckError):
    pass


class DegreeTooHigh(HypercheckError):
    pass


class DegreeMismatch(HypercheckError):
    pass


class ShrinkNotAllowed(HypercheckError):
    """Variable lift requested with fewer variables than the source."""


class WrongDegree(HypercheckError):
    pass


class HypothesisViolated(HypercheckError):
    """Input outside the hypothesis of a conjecture-evidence run or a closed form."""


class NotHyperbolicInput(HypercheckError):
    """An operation requiring a hyperbolic polynomial got a non-hyperbolic one."""


class NotInSimplex(HypercheckError):
    """Root vector is not weakly decreasing, nonnegative and of sum 1."""


class NonInvertibleTransform(HypercheckError):
    """The shear needed by the cubic normal form is singular."""


class InvalidInput(HypercheckError):
    """Malformed CLI or JSON payload."""


class WitnessSearchExhausted(HypercheckError):
    """No witness found for an input already decided non-hyperbolic."""


class InterlacingLawViolated(HypercheckError):
    """delta_d of a one-signed real-rooted polynomial broke its sign law."""
