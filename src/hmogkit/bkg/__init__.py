"""Biometric key generation: Lee-metric codes, fuzzy commitments, and
attacker-effort analysis."""

from .code import (
    CodeConstructionError,
    CodeParams,
    DecodeFailure,
    decode,
    encode,
    grs_build,
)
from .commitment import (
    DEFAULT_CONTEXT,
    P_LIMIT,
    Commitment,
    DiscretizationSpec,
    OpenFailure,
    assign_d_range,
    commit,
    derive_key,
    derive_tag,
    ds,
    fit_discretization,
    open_commitment,
)
from .field import (
    inv_mod,
    is_prime,
    lee_weight,
    lee_weight_total,
)
from .guessing import GuessingReport, guessing_distance

__all__ = [
    "DEFAULT_CONTEXT",
    "CodeConstructionError",
    "CodeParams",
    "Commitment",
    "DecodeFailure",
    "DiscretizationSpec",
    "GuessingReport",
    "OpenFailure",
    "P_LIMIT",
    "assign_d_range",
    "commit",
    "decode",
    "derive_key",
    "derive_tag",
    "ds",
    "encode",
    "fit_discretization",
    "grs_build",
    "guessing_distance",
    "inv_mod",
    "is_prime",
    "lee_weight",
    "lee_weight_total",
    "open_commitment",
]
