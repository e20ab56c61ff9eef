"""Exception hierarchy shared by all psdnorm modules."""


class PsdNormError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(PsdNormError):
    """Operands have incompatible channel or frequency dimensions."""


class ChannelMismatchError(ShapeMismatchError):
    """Signal and filter bank disagree on channel count."""


class LengthTooShortError(PsdNormError):
    """Signal is shorter than the analysis window."""


class FilterLongerThanSignalError(PsdNormError):
    """Filter has more taps than the signal has samples."""


class NonFiniteInputError(PsdNormError):
    """Input contains NaN or Inf."""


class EmptyInputError(PsdNormError):
    """A non-empty collection was required."""


class ParameterOutOfRangeError(PsdNormError):
    """Scalar parameter outside its documented range."""


class NonPositivePsdError(PsdNormError):
    """PSD entries must be strictly positive."""


class AsymmetricPsdError(PsdNormError):
    """A PSD is not conjugate-symmetric (bin k differs from bin f - k), so
    it is not the spectrum of a real signal."""


class EvalWithoutBarycenterError(PsdNormError):
    """Eval-mode forward requested before any barycenter was accumulated."""


class EvalWithoutStatsError(PsdNormError):
    """Eval-mode forward requested before running statistics exist."""
