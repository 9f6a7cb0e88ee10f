"""Shrinking factors of completely positive maps under unitarily invariant norms.

The package answers one question: given a channel in Kraus form, by how much
can it expand a Hermitian operator's unitarily invariant norm? It provides the
exact factors for the spectral, trace and Schatten-2 norms (with saturating
inputs), a universal upper bound covering every symmetric gauge norm,
empirical lower bounds with witnesses, and verification utilities for the
underlying inequalities.
"""

from .channel import (
    ChannelInvariants,
    KrausChannel,
    identity_channel,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
    random_isometry,
)
from .errors import (
    ChannelFormatError,
    ConvergenceFailure,
    DimensionMismatch,
    InfeasibleShape,
    NonFinite,
    NotIsometry,
    PadTooSmall,
)
from .gauge import (
    Combination,
    GaugeNorm,
    KyFan,
    Schatten,
    format_norm,
    gauge_eval,
    parse_norm,
)
from .shrink import (
    FanProjectors,
    NormBracket,
    NormCheck,
    ShrinkReport,
    check_gauge_bounds,
    check_kyfan_bounds,
    empirical_lower_bound,
    fan_projectors,
    norm_battery,
    padded_dim_for,
    schatten2_shrink_factor,
    shrink_report,
    shrink_upper_bound,
    spectral_shrink_factor,
    top_k_eigensum,
    trace_shrink_factor,
)
from .spectral import (
    hermitian_eigensystem,
    random_hermitian,
    singular_values,
    spectral_norm,
    trace_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelFormatError",
    "ChannelInvariants",
    "Combination",
    "ConvergenceFailure",
    "DimensionMismatch",
    "FanProjectors",
    "GaugeNorm",
    "InfeasibleShape",
    "KrausChannel",
    "KyFan",
    "NonFinite",
    "NormBracket",
    "NormCheck",
    "NotIsometry",
    "PadTooSmall",
    "Schatten",
    "ShrinkReport",
    "check_gauge_bounds",
    "check_kyfan_bounds",
    "empirical_lower_bound",
    "fan_projectors",
    "format_norm",
    "gauge_eval",
    "hermitian_eigensystem",
    "identity_channel",
    "norm_battery",
    "padded_dim_for",
    "parse_norm",
    "partial_trace_channel",
    "random_channel",
    "random_cptp_channel",
    "random_hermitian",
    "random_isometry",
    "schatten2_shrink_factor",
    "shrink_report",
    "shrink_upper_bound",
    "singular_values",
    "spectral_norm",
    "spectral_shrink_factor",
    "top_k_eigensum",
    "trace_norm",
    "trace_shrink_factor",
]
