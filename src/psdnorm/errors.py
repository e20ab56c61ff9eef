"""Exception hierarchy shared by all psdnorm modules."""


class PsdNormError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(PsdNormError):
    """Operands have incompatible channel or frequency dimensions."""


class LengthTooShortError(PsdNormError):
    """Signal is shorter than the analysis window or the filter."""


class NonFiniteInputError(PsdNormError):
    """Input contains NaN or Inf."""


class ParameterOutOfRangeError(PsdNormError):
    """Scalar parameter, size or count outside its documented range."""


class NonPositivePsdError(PsdNormError):
    """PSD entries must be strictly positive."""


class AsymmetricPsdError(PsdNormError):
    """A PSD is not conjugate-symmetric (bin k differs from bin f - k), so
    it is not the spectrum of a real signal."""


class EvalWithoutStatsError(PsdNormError):
    """Eval-mode forward requested before the layer holds trained
    statistics (a barycenter, or running mean and variance)."""
