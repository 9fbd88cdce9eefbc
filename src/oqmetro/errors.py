"""Exception hierarchy shared across the package."""


class OqMetroError(Exception):
    """Base class for all package errors."""


class NotHermitian(OqMetroError):
    pass


class NotPsd(OqMetroError):
    pass


class BlochNormExceeded(OqMetroError):
    pass


class OutcomeCountMismatch(OqMetroError):
    pass


class ParamOutOfRange(OqMetroError):
    pass


class NotNormalized(OqMetroError):
    pass


class DerivativeNotTraceless(OqMetroError):
    pass


class NegativeOq(OqMetroError):
    pass


class ZeroQfi(OqMetroError):
    pass


class NegativeCounts(OqMetroError):
    pass


class AllTrialsOmitted(OqMetroError):
    pass
