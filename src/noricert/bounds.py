"""Certified mantissa bounds with exact integer fallback.

The certificates compare products of squared moduli whose unreduced integer
forms run to hundreds of thousands of bits.  A directed truncation makes
those comparisons cheap without giving up soundness: a "pair" ``(m, s)`` is
the exact number ``m * 2^s``, every operation rounds down (building a value
the true quantity is >= of) or up (a value it is <= of), and comparisons
between pairs are exact.  ``upper(x) < lower(y)`` therefore certifies
``x < y``.  Whenever the bounds cannot separate the two sides, callers fall
back to the full integer cross-products, so no truncation ever decides a
verdict the exact arithmetic would not.

``prod_gt`` packages that pattern for products of nonnegative integers,
escalating the working precision before it pays for the exact products.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["prod_gt"]

_BITS = 192


def _p_trunc(m: int, s: int, up: bool, bits: int = _BITS) -> tuple[int, int]:
    k = m.bit_length() - bits
    if k <= 0:
        return m, s
    return (-((-m) >> k) if up else m >> k), s + k


def _p_int(x: int, up: bool) -> tuple[int, int]:
    return _p_trunc(x, 0, up)


def _p_mul(a: tuple, b: tuple, up: bool) -> tuple[int, int]:
    return _p_trunc(a[0] * b[0], a[1] + b[1], up)


def _p_pow(a: tuple, e: int, up: bool) -> tuple[int, int]:
    result = (1, 0)
    base = a
    while e:
        if e & 1:
            result = _p_mul(result, base, up)
        base = _p_mul(base, base, up)
        e >>= 1
    return result


def _p_div(a: tuple, b: tuple, up: bool) -> tuple[int, int]:
    """a/b with directed rounding; pass a lower b for an upper result."""
    num = a[0] << _BITS
    m = -((-num) // b[0]) if up else num // b[0]
    return _p_trunc(m, a[1] - b[1] - _BITS, up)


def _p_add(a: tuple, b: tuple, up: bool) -> tuple[int, int]:
    (ma, sa), (mb, sb) = a, b
    if ma == 0:
        return b
    if mb == 0:
        return a
    if sa < sb:
        (ma, sa), (mb, sb) = (mb, sb), (ma, sa)
    gap = sa - sb
    if gap > _BITS + 2:
        # the smaller term is below one ulp of the larger
        return _p_trunc(ma + 1, sa, True) if up else (ma, sa)
    return _p_trunc((ma << gap) + mb, sb, up)


def _p_sqrt(a: tuple, up: bool) -> tuple[int, int]:
    m, s = a
    if m == 0:
        return 0, 0
    if s & 1:
        m, s = m << 1, s - 1
    root = math.isqrt(m)
    if up and root * root < m:
        root += 1
    return root, s // 2


def _p_lt(a: tuple, b: tuple) -> bool:
    """Exact comparison of two pair values."""
    (ma, sa), (mb, sb) = a, b
    if ma == 0:
        return mb > 0
    if mb == 0:
        return False
    ea, eb = sa + ma.bit_length(), sb + mb.bit_length()
    if ea != eb:
        return ea < eb
    gap = sa - sb
    if gap >= 0:
        return (ma << gap) < mb
    return ma < (mb << -gap)


def _abs2_bounds(v: tuple) -> tuple[tuple, tuple]:
    """(lower, upper) pairs for the squared modulus of an eval_scaled triple."""
    re, im, den = v
    re, im = abs(re), abs(im)
    num_lo = _p_add(_p_pow(_p_int(re, False), 2, False),
                    _p_pow(_p_int(im, False), 2, False), False)
    num_hi = _p_add(_p_pow(_p_int(re, True), 2, True),
                    _p_pow(_p_int(im, True), 2, True), True)
    den_lo = _p_pow(_p_int(den, False), 2, False)
    den_hi = _p_pow(_p_int(den, True), 2, True)
    return _p_div(num_lo, den_hi, False), _p_div(num_hi, den_lo, True)


def _p_prod(xs: Sequence[int], up: bool, bits: int) -> tuple[int, int]:
    """A directed pair bound on the product of nonnegative integers."""
    m, s = 1, 0
    for x in xs:
        xm, xs_shift = _p_trunc(x, 0, up, bits)
        m, s = _p_trunc(m * xm, s + xs_shift, up, bits)
    return m, s


def prod_gt(xs: Sequence[int], ys: Sequence[int]) -> bool:
    """Exact test ``prod(xs) > prod(ys)`` for nonnegative integers.

    Each factor is truncated with directed rounding at 192 bits; while the
    two bounds overlap the precision is multiplied by 4.  Once it reaches the
    largest operand's bit length the truncation would no longer be cheaper
    than the integers themselves, and the exact products decide (ties always
    end there).
    """
    top = max((v.bit_length() for v in (*xs, *ys)), default=0)
    bits = _BITS
    while bits < top:
        if _p_lt(_p_prod(ys, True, bits), _p_prod(xs, False, bits)):
            return True
        if not _p_lt(_p_prod(ys, False, bits), _p_prod(xs, True, bits)):
            return False
        bits *= 4
    return math.prod(xs) > math.prod(ys)
