"""Prime-field scalars, Lee metric, and dense polynomial arithmetic.

Polynomials are Python lists of ints in [0, p), ascending powers, trimmed
so the last coefficient is nonzero (the zero polynomial is []).
"""

from __future__ import annotations

import numpy as np


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def inv_mod(a: int, p: int) -> int:
    return pow(a % p, -1, p)


def lee_weight(x, p: int):
    """Lee weight of a symbol or elementwise over an array."""
    xm = np.asarray(x) % p
    w = np.minimum(xm, p - xm)
    return int(w) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else w


def lee_weight_total(v, p: int) -> int:
    return int(np.sum(lee_weight(np.asarray(v, dtype=np.int64), p)))


# -- polynomials -------------------------------------------------------------

def poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_deg(a: list[int]) -> int:
    return len(a) - 1


def poly_add(a, b, p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def poly_sub(a, b, p: int) -> list[int]:
    return poly_add(a, [(-c) % p for c in b], p)


def poly_scale(a, s: int, p: int) -> list[int]:
    return poly_trim([(c * s) % p for c in a])


def poly_mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return poly_trim(out)


def poly_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = inv_mod(b[-1], p)
    for shift in range(len(a) - len(b), -1, -1):
        coef = (a[shift + len(b) - 1] * inv_lead) % p
        if coef:
            q[shift] = coef
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * c) % p
    return poly_trim(q), poly_trim(a)


def poly_divide_linear(a, alpha: int, p: int) -> list[int] | None:
    """Exact quotient a / (1 - alpha*x), or None when not divisible.

    Forward recurrence: q[k] = a[k] + alpha * q[k-1]; divisible iff the
    final carry vanishes.
    """
    if not a:
        return []
    q = [0] * (len(a) - 1)
    carry = 0
    for k in range(len(a) - 1):
        carry = (a[k] + alpha * carry) % p
        q[k] = carry
    if (a[-1] + alpha * carry) % p != 0:
        return None
    return poly_trim(q)
