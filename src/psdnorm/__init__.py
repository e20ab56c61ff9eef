"""Spectral alignment of multichannel time series.

Welch PSD estimation, Bures-Wasserstein geometry over diagonal-PSD Gaussian
models, Monge mapping filters, stateful PSD-normalization layers, synthetic
domain-shift benchmarks, and a command-line front end.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AsymmetricPsdError,
    EvalWithoutStatsError,
    LengthTooShortError,
    NonFiniteInputError,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    PsdNormError,
    ShapeMismatchError,
)
from .spectral import (  # noqa: F401
    WelchConfig,
    make_window,
    welch_psd,
)
from .geometry import (  # noqa: F401
    bures_distance,
    geodesic_interpolate,
    running_update,
    wasserstein_barycenter,
)
from .monge import (  # noqa: F401
    apply_mapping,
    monge_filter,
)
from .layers import (  # noqa: F401
    BatchNormLayer,
    PsdNormLayer,
    batchnorm_forward,
    centered_psd,
    instancenorm_forward,
    layernorm_forward,
    psdnorm_forward,
    psdnorm_stack_forward,
    tma_fit,
    tma_transform,
)
from .synth import (  # noqa: F401
    AlignmentReport,
    DomainSpec,
    evaluate_alignment,
    make_shifted_domains,
    sample_gaussian_with_psd,
)
