"""Normalized generalized Reed-Solomon codes over a prime field, decoded in
the Lee metric.

The [n, l] code over Z_p uses locators 1..n with n < p, so every locator
is nonzero mod p and has an inverse. The parity matrix rows are
H[m][i] = i^m for m = 0..n-l-1; the generator rows are G[r][i] = v_i * i^r
for r = 0..l-1 with column multipliers v_i = (prod_{j != i} (i - j))^-1,
which makes G a basis of the null space of H^T. The minimum Lee distance
is at least 2(n-l), so every error of Lee weight up to n-l-1 is uniquely
correctable.

Two decoders are provided: an exhaustive nearest-codeword search (the
oracle, feasible for p^l up to about 1e6) and the production decoder built
from syndrome power sums and one extended-Euclidean pass.

The production decoder first rejects on the syndrome S_0 = sum e_i: the
symbols of an error of Lee weight <= tau, each read in (-p/2, p/2), sum to
within [-tau, tau], so a word with min(S_0, p - S_0) > tau has no codeword
within the radius and fails after the syndrome product alone (on
(13,10,29) that is 24 of the 29 values of S_0). A word that passes costs
O(n^2) field operations: the power-sum series, the Euclidean pass, and per
candidate pair of locator polynomials one product with the inverse-locator
power table each, which finds every root at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    inv_mod,
    is_prime,
    lee_weight_total,
    poly_deg,
    poly_divide_linear,
    poly_divmod,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)


class CodeConstructionError(ValueError):
    """Construction self-checks failed; the parameters are unusable."""


class DecodeFailure(Exception):
    """No codeword within the guaranteed correction radius."""


@dataclass(frozen=True)
class CodeParams:
    n: int
    l: int
    p: int
    generator: np.ndarray         # (l, n)
    parity: np.ndarray            # (n - l, n)
    multipliers: np.ndarray       # (n,) column multipliers v_i
    inverse_powers: np.ndarray    # (n, n - l + 1): (1/alpha_k)^j for locator k + 1

    @property
    def radius(self) -> int:
        """Guaranteed Lee-metric correction radius n - l - 1."""
        return self.n - self.l - 1


def grs_build(n: int, l: int, p: int) -> CodeParams:
    """Build the [n, l] code; aborts unless G H^T = 0. G has rank l without
    a check: G = V diag(v) with V the l x n Vandermonde matrix of the
    distinct locators 1..n and every v_i nonzero."""
    if not is_prime(p):
        raise CodeConstructionError(f"p = {p} is not prime")
    if not 1 <= l < n:
        raise CodeConstructionError(f"need 1 <= l < n, got l={l}, n={n}")
    if n >= p:
        raise CodeConstructionError(f"need n < p, got n={n}, p={p}")
    r = n - l
    parity = np.array([[pow(i, m, p) for i in range(1, n + 1)] for m in range(r)],
                      dtype=np.int64)
    multipliers = np.empty(n, dtype=np.int64)
    for i in range(1, n + 1):
        prod = 1
        for j in range(1, n + 1):
            if j != i:
                prod = (prod * (i - j)) % p
        multipliers[i - 1] = inv_mod(prod, p)
    generator = np.array([[(multipliers[i - 1] * pow(i, row, p)) % p
                           for i in range(1, n + 1)] for row in range(l)],
                         dtype=np.int64)
    if np.any((generator @ parity.T) % p):
        raise CodeConstructionError("generator rows are not in the null space of H^T")
    inverse_powers = np.array([[pow(i, -j, p) for j in range(r + 1)]
                               for i in range(1, n + 1)], dtype=np.int64)
    return CodeParams(n=n, l=l, p=p, generator=generator, parity=parity,
                      multipliers=multipliers, inverse_powers=inverse_powers)


def encode(message, params: CodeParams) -> np.ndarray:
    message = np.asarray(message, dtype=np.int64) % params.p
    if message.shape != (params.l,):
        raise ValueError(f"message must have length {params.l}")
    return (message @ params.generator) % params.p


# ---------------------------------------------------------------------------
# exhaustive oracle decoder
# ---------------------------------------------------------------------------

_BRUTE_LIMIT = 1_000_000
_codebook_cache: dict[tuple[int, int, int], np.ndarray] = {}


def codebook(params: CodeParams) -> np.ndarray:
    """All p^l codewords, cached per parameter set."""
    key = (params.n, params.l, params.p)
    if key not in _codebook_cache:
        count = params.p ** params.l
        if count > _BRUTE_LIMIT:
            raise ValueError(f"codebook of {count} words is too large to enumerate")
        grids = np.meshgrid(*[np.arange(params.p)] * params.l, indexing="ij")
        messages = np.stack([g.ravel() for g in grids], axis=1)
        _codebook_cache[key] = (messages @ params.generator) % params.p
    return _codebook_cache[key]


def decode_brute(word, params: CodeParams) -> np.ndarray:
    """Nearest codeword within the correction radius by full enumeration."""
    word = np.asarray(word, dtype=np.int64) % params.p
    book = codebook(params)
    diff = (word - book) % params.p
    dist = np.minimum(diff, params.p - diff).sum(axis=1)
    best = int(np.argmin(dist))
    if int(dist[best]) > params.radius:
        raise DecodeFailure(f"no codeword within Lee radius {params.radius}")
    return book[best].copy()


# ---------------------------------------------------------------------------
# production decoder: power-sum syndromes + extended Euclidean pass
# ---------------------------------------------------------------------------

def _power_sum_series(syndromes: list[int], r: int, p: int) -> list[int]:
    """A(x) with sigma(x) = A(x) * eta(x) mod x^r for the split error
    locator polynomials, via the Newton-identity recurrence
    m*A_m = -sum_{i=1..m} S_i A_{m-i}."""
    a = [1] + [0] * (r - 1)
    for m in range(1, r):
        acc = 0
        for i in range(1, m + 1):
            acc = (acc + syndromes[i] * a[m - i]) % p
        a[m] = (-acc * inv_mod(m, p)) % p
    return poly_trim(a)


def _convergents(a_poly: list[int], r: int, p: int):
    """(remainder, cofactor) pairs of the extended Euclidean algorithm on
    (x^r, A); every minimal rational approximation of A appears here."""
    r_prev = [0] * r + [1]
    r_cur = list(a_poly)
    t_prev: list[int] = []
    t_cur: list[int] = [1]
    yield r_cur, t_cur
    while r_cur:
        q, rem = poly_divmod(r_prev, r_cur, p)
        t_next = poly_sub(t_prev, poly_mul(q, t_cur, p), p)
        r_prev, r_cur = r_cur, rem
        t_prev, t_cur = t_cur, t_next
        if r_cur:
            yield r_cur, t_cur


def _extract_multiplicities(poly: list[int], inverse_powers: np.ndarray,
                            p: int) -> dict[int, int] | None:
    """Per-locator root multiplicities of poly, found by one evaluation at
    every inverse locator; None when any root lies outside the locator
    set."""
    values = (inverse_powers[:, :len(poly)] @ poly) % p
    mults: dict[int, int] = {}
    for idx in np.flatnonzero(values == 0).tolist():
        alpha = idx + 1
        while (quotient := poly_divide_linear(poly, alpha, p)) is not None:
            poly = quotient
            mults[idx] = mults.get(idx, 0) + 1
    if poly_deg(poly) > 0:
        return None
    return mults


def decode(word, params: CodeParams) -> np.ndarray:
    """Correct any error of Lee weight <= n - l - 1; raise DecodeFailure
    otherwise. Never returns a non-codeword."""
    word = np.asarray(word, dtype=np.int64) % params.p
    if word.shape != (params.n,):
        raise ValueError(f"word must have length {params.n}")
    p = params.p
    r = params.n - params.l
    tau = params.radius
    syndromes = [int(s) for s in (params.parity @ word) % p]
    if not any(syndromes):
        return word.copy()
    if min(syndromes[0], p - syndromes[0]) > tau:
        raise DecodeFailure(f"no codeword within Lee radius {tau}")

    half = (p - 1) // 2
    a_poly = _power_sum_series(syndromes, r, p)
    for sigma, eta in _convergents(a_poly, r, p):
        if not sigma or not eta:
            continue
        if poly_deg(sigma) + poly_deg(eta) > tau:
            continue
        while sigma[0] == 0 and eta[0] == 0:
            sigma = sigma[1:]
            eta = eta[1:]
        if not sigma or not eta or sigma[0] == 0 or eta[0] == 0:
            continue
        scale = inv_mod(sigma[0], p)
        sigma = poly_scale(sigma, scale, p)
        eta = poly_scale(eta, scale, p)
        if eta[0] != 1:
            continue
        plus = _extract_multiplicities(sigma, params.inverse_powers, p)
        minus = _extract_multiplicities(eta, params.inverse_powers, p)
        if plus is None or minus is None:
            continue
        if any(m > half for m in plus.values()) or any(m > half for m in minus.values()):
            continue
        error = np.zeros(params.n, dtype=np.int64)
        for idx, m in plus.items():
            error[idx] = (error[idx] + m) % p
        for idx, m in minus.items():
            error[idx] = (error[idx] - m) % p
        if lee_weight_total(error, p) > tau:
            continue
        if np.any((params.parity @ error - np.array(syndromes)) % p):
            continue
        return (word - error) % p
    raise DecodeFailure(f"no codeword within Lee radius {tau}")
