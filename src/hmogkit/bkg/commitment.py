"""Fuzzy commitments binding a biometric vector and a password to a key.

Enrollment discretizes an n-dimensional feature vector into Z_p^n, draws a
random codeword c, and stores the offset delta = x - c together with a tag
derived from c and the password. Opening shifts a probe by delta, decodes
back to the nearest codeword, and checks the tag; only then is the key
released. Decoding failures and tag mismatches are reported identically so
an attacker learns nothing about which stage rejected.

All derivations use HMAC-SHA-256 keyed on the codeword (each coordinate as
two big-endian bytes, hence p < 2^16) with the password plus a one-byte
domain label as message.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

import numpy as np

from .code import CodeParams, DecodeFailure, decode, encode

_LABEL_KEY = b"\x00"
_LABEL_TAG = b"\x01"

# p < P_LIMIT: every codeword coordinate is hashed as two big-endian bytes
P_LIMIT = 1 << 16


class OpenFailure(Exception):
    """The probe or the password was rejected; no detail on purpose."""


@dataclass(frozen=True)
class DiscretizationSpec:
    """Per-feature affine map onto the integer grid 0..d_range."""

    d_range: np.ndarray   # (n,) ints >= 1
    f_min: np.ndarray     # (n,)
    f_max: np.ndarray     # (n,)

    def __post_init__(self):
        d = np.asarray(self.d_range, dtype=np.int64)
        lo = np.asarray(self.f_min, dtype=np.float64)
        hi = np.asarray(self.f_max, dtype=np.float64)
        if not (d.shape == lo.shape == hi.shape) or d.ndim != 1:
            raise ValueError("d_range, f_min, f_max must be equal-length vectors")
        if np.any(d < 1):
            raise ValueError("d_range entries must be >= 1")
        if np.any(hi <= lo):
            raise ValueError("f_max must exceed f_min per feature")
        object.__setattr__(self, "d_range", d)
        object.__setattr__(self, "f_min", lo)
        object.__setattr__(self, "f_max", hi)

    @property
    def n(self) -> int:
        return len(self.d_range)


def ds(x, spec: DiscretizationSpec) -> np.ndarray:
    """Discretize a feature vector, or each row of a block of them: clamp
    below min to 0, above max to d_range, otherwise
    floor(d_range * (x - min) / (max - min))."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.n:
        raise ValueError(f"expected vectors of length {spec.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("discretization input must be finite")
    span = spec.f_max - spec.f_min
    raw = np.floor(spec.d_range * (x - spec.f_min) / span).astype(np.int64)
    out = np.clip(raw, 0, spec.d_range)
    return np.where(x < spec.f_min, 0, np.where(x > spec.f_max, spec.d_range, out))


def assign_d_range(sigmas, p: int) -> np.ndarray:
    """Grid sizes from per-feature spreads: the steadiest feature gets
    p - 1 levels, the noisiest (p - 1)/2, linearly in sigma with
    round-half-up. All-equal spreads get the full p - 1."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.ndim != 1 or len(sigmas) == 0:
        raise ValueError("need a nonempty sigma vector")
    if not np.all(np.isfinite(sigmas)) or np.any(sigmas < 0):
        raise ValueError("sigmas must be finite and nonnegative")
    lo, hi = float(sigmas.min()), float(sigmas.max())
    if hi == lo:
        return np.full(len(sigmas), p - 1, dtype=np.int64)
    scaled = ((p - 1) / 2) * (sigmas - lo) / (hi - lo)
    # round half up, not banker's rounding
    return (p - 1) - np.floor(scaled + 0.5).astype(np.int64)


def fit_discretization(values: np.ndarray, p: int) -> DiscretizationSpec:
    """Spec from a training matrix (rows = samples): robust 1st/99th
    percentile bounds and spread-driven grid sizes. NaNs are ignored
    per feature."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("need a nonempty 2-d training matrix")
    if not np.all(np.isfinite(values).any(axis=0)):
        raise ValueError("every feature needs at least one finite training value")
    lo = np.nanpercentile(values, 1, axis=0)
    hi = np.nanpercentile(values, 99, axis=0)
    sig = np.nanstd(values, axis=0)
    sig = np.where(np.isfinite(sig), sig, 0.0)
    degenerate = hi <= lo
    hi = np.where(degenerate, lo + 1e-9, hi)
    return DiscretizationSpec(d_range=assign_d_range(sig, p), f_min=lo, f_max=hi)


def _prf(codeword: np.ndarray, password: str, label: bytes, p: int) -> bytes:
    if p >= P_LIMIT:
        raise ValueError("p must fit in two bytes")
    coords = np.asarray(codeword, dtype=np.int64)
    if coords.size and (coords.min() < 0 or coords.max() >= P_LIMIT):
        raise OverflowError("codeword coordinates must fit in two bytes")
    key = coords.astype(">u2").tobytes()
    return hmac.new(key, password.encode("utf-8") + label, hashlib.sha256).digest()


def derive_key(codeword: np.ndarray, password: str, p: int) -> bytes:
    return _prf(codeword, password, _LABEL_KEY, p)


def derive_tag(codeword: np.ndarray, password: str, p: int) -> bytes:
    return _prf(codeword, password, _LABEL_TAG, p)


@dataclass(frozen=True)
class Commitment:
    params_n: int
    params_l: int
    params_p: int
    delta: np.ndarray    # (n,) ints in 0..p-1
    tag: bytes


def _check_grid(x, params: CodeParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (params.n,):
        raise ValueError(f"expected a discretized vector of length {params.n}")
    if np.any((x < 0) | (x >= params.p)):
        raise ValueError("discretized values must lie in [0, p)")
    return x


def commit(x, z: str, *, params: CodeParams,
           rng: np.random.Generator) -> tuple[Commitment, bytes]:
    """Bind a discretized vector x and password z to a fresh random key.

    Returns the public commitment (offset + tag) and the secret key.
    """
    x = _check_grid(x, params)
    message = rng.integers(0, params.p, size=params.l)
    codeword = encode(message, params)
    delta = (x - codeword) % params.p
    tag = derive_tag(codeword, z, params.p)
    key = derive_key(codeword, z, params.p)
    return Commitment(params_n=params.n, params_l=params.l, params_p=params.p,
                      delta=delta, tag=tag), key


def open_commitment(commitment: Commitment, y, z: str, *,
                    params: CodeParams) -> bytes:
    """Recover the key from a discretized probe, or raise OpenFailure.

    Decode failure and tag mismatch raise the same exception."""
    if (params.n, params.l, params.p) != (commitment.params_n,
                                          commitment.params_l,
                                          commitment.params_p):
        raise ValueError("commitment was made under different code parameters")
    y = _check_grid(y, params)
    shifted = (y - commitment.delta) % params.p
    try:
        codeword = decode(shifted, params)
    except DecodeFailure:
        raise OpenFailure("commitment did not open") from None
    tag = derive_tag(codeword, z, params.p)
    if not hmac.compare_digest(tag, commitment.tag):
        raise OpenFailure("commitment did not open")
    return derive_key(codeword, z, params.p)
