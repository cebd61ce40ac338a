"""Certified mantissa brackets with exact integer fallback.

The certificates compare products of squared moduli whose unreduced integer
forms run to hundreds of thousands of bits.  A directed truncation makes
those comparisons cheap without giving up soundness: a "pair" ``(m, s)`` is
the exact number ``m * 2^s``, every operation rounds down (building a value
the true quantity is >= of) or up (a value it is <= of), and comparisons
between pairs are exact.  A "bracket" is a ``(lower, upper)`` pair of pairs
around one nonnegative quantity; ``int_bracket``, ``ball_abs2`` (the squared
modulus of a polynomial value, by midpoint-radius Horner at about 192 bits
plus an exponent, without the exact ``eval_scaled`` triple) and
``gap_bracket`` build them.

One ball arithmetic serves every complex ball ``(re, im, rad, e)``: a
product (``_ball_mul``), a coefficient ball added or subtracted
(``_ball_add``, ``_ball_sub``), each cut to about 192 bits with the radius
grown by 3 units, and the bracket of the squared modulus (``_ball_abs2``),
which bounds the midpoint's modulus by ``|re| + |im|`` and takes no square
root.  ``ball_abs2`` is a Horner of these steps; ``recursion_balls`` gives
the balls of all the family's factors P_1, ..., P_{n-1} from their proved
recursions, two products per factor and no Horner.  Before any ball,
``recursion_exponents`` runs the same recursions on exponents alone,
integer additions, and bounds every |P_k|^2 wherever one of the
recursion's two terms dominates the other.

An "exponent" is an integer bound of 16 log2 of a positive quantity: every
exponent counts sixteenths of a power of two.  ``_lo16`` and ``_hi16``
bound 16 log2(m 2^s) by the top 8 bits t of m and a 257-entry table of the
bit lengths of t^16, integer arithmetic only; ``_exponents`` reads them off
a bracket's ends and ``log16_bounds`` off an exact ratio num/den.  A
constant compiled once gets the floor and ceil of its 16 log2
(``log16_floor_ceil``).  ``log2_bounds``, whole powers of two, remains the
one integer pair that keys the disk trace's memo of sampled points.

``abs2_atoms`` builds every atom |p(z)|^2 of a polynomial value at a point,
by one size rule, ``exact_atoms``, and returns each atom's exponents with
it: a polynomial whose stored integers have at most ``2 * BALL_BITS`` bits
gets the exact unreduced pair (num, den) of its ``eval_scaled`` triple
(with ``log16_bounds`` exponents, and an exact zero stays one), every other
one a ball bracket, by ``ball_abs2`` or, for the factors of a family whose
recursions are proved, from ``recursion_balls``, all from one
``ball_point`` built only when some atom needs it.  A ball bracket that
reaches 0 is replaced by the exact atom, so a zero atom is always an
exact zero (``exact_atom`` tells the two kinds apart).  ``ratio_bracket``
brackets an exact atom, or any rational num/den, by one division, and
``product_bracket`` brackets a product of atoms with powers by directed
multiplication.  ``Values`` holds the atoms of several polynomials at one
point and decides products of them and of ``constant_factor`` constants,
on the net of their exponents first, then on the brackets and, where those
overlap, on the exact atoms' own integers or, for a ball atom, the exact
triples.
Dominances need no brackets: ``certify`` proves them from root products in
exact rationals, and only the circle points that test a failed bound are
decided by ``Values``.  The boundary sup metric needs none either: the disk
trace derives its bound from the target certificate.  The disk trace
decides its image points on the atoms' exponents first, and brackets
|f1|^2, |f2|^2 and |f2 - f1|^2 with ``product_bracket`` only where those
leave a comparison open.

``bracket_lt`` is the one comparator: it multiplies the brackets of each
side with directed rounding and returns ``True`` or ``False`` when the two
products separate, ``None`` when they overlap.  Callers settle ``None``
with ``exact_lt``, the one integer cross-multiplication of unreduced
squared moduli and constants (``Values.lt`` and the disk trace's
``_Image.first_failing``), so no truncation ever decides a verdict the exact
arithmetic would not.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .arith import BALL_BITS, eval_scaled, scaled_abs2

__all__ = [
    "Values",
    "abs2_atoms",
    "ball_abs2",
    "ball_point",
    "bracket_lt",
    "constant_factor",
    "exact_atom",
    "exact_atoms",
    "exact_lt",
    "gap_bracket",
    "int_bracket",
    "log2_bounds",
    "log16_bounds",
    "log16_floor_ceil",
    "product_bracket",
    "ratio_bracket",
    "recursion_balls",
    "recursion_exponents",
]

_BITS = BALL_BITS


def _p_trunc(m: int, s: int, up: bool, bits: int = _BITS) -> tuple[int, int]:
    k = m.bit_length() - bits
    if k <= 0:
        return m, s
    return (-((-m) >> k) if up else m >> k), s + k


def _p_mul(a: tuple, b: tuple, up: bool, bits: int = _BITS) -> tuple[int, int]:
    return _p_trunc(a[0] * b[0], a[1] + b[1], up, bits)


def _p_pow(a: tuple, e: int, up: bool) -> tuple[int, int]:
    """a^e with directed rounding, by square and multiply.

    The first factor is only truncated, not multiplied by 1, and the base is
    not squared past the last bit of ``e``.
    """
    if e == 0:
        return 1, 0
    result = None
    base = a
    while True:
        if e & 1:
            result = _p_trunc(*base, up) if result is None else _p_mul(result, base, up)
        e >>= 1
        if not e:
            return result
        base = _p_mul(base, base, up)


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


def int_bracket(x: int) -> tuple:
    """The bracket of a nonnegative integer, truncated to 192 bits."""
    return _p_trunc(x, 0, False), _p_trunc(x, 0, True)


def constant_factor(q) -> tuple:
    """A nonnegative rational as the factor ``(num, den, num_bracket,
    den_bracket, exps)``, ``exps`` its ``log16_bounds`` (None at 0).

    The shape of the chart parameters' squares (``FamilyParams.squares``)
    and of the constant factors of ``Values.lt``; built once per
    certificate, not per point.
    """
    num, den = q.numerator, q.denominator
    exps = log16_bounds(num, den) if num else None
    return num, den, int_bracket(num), int_bracket(den), exps


def gap_bracket(a1: Sequence, a2: Sequence, k: int) -> Optional[tuple]:
    """The bracket of |f2^(k+1) - f1|^2 from those of |f1|^2 and |f2|^2.

    Bounds the difference through the reverse triangle inequality: when the
    two moduli are separated by at least a factor two, |big - small| lies in
    [(1 - t) |big|, (1 + t) |big|] with t the modulus ratio.  Comparable
    moduli (possible cancellation) return None for the exact fallback.
    """
    (a1_lo, a1_hi), (a2_lo, a2_hi) = a1, a2
    p_lo = _p_pow(a2_lo, k + 1, False)
    p_hi = _p_pow(a2_hi, k + 1, True)
    if _p_lt(p_hi, a1_lo):
        big_lo, big_hi, small_hi = a1_lo, a1_hi, p_hi
    elif _p_lt(a1_hi, p_lo):
        big_lo, big_hi, small_hi = p_lo, p_hi, a1_hi
    else:
        return None
    if big_lo[0] == 0:
        return None
    t_hi = _p_sqrt(_p_div(small_hi, big_lo, True), True)
    if not _p_lt(t_hi, (1, -1)):  # ratio not certified below 1/2
        return None
    mt, st = t_hi
    if mt.bit_length() + st < -_BITS:
        # t < 2^-(_BITS + 1): one ulp below 1 is still a lower bound of 1 - t
        one_minus_t_lo: tuple = ((1 << _BITS) - 1, -_BITS)
    else:
        one_minus_t_lo = ((1 << -st) - mt, st)
    # 1 as a 192-bit mantissa: below one ulp of it, t costs 2^-192, not 1
    one_plus_t_hi = _p_add((1 << _BITS, -_BITS), t_hi, True)
    lower = _p_mul(big_lo, _p_mul(one_minus_t_lo, one_minus_t_lo, False), False)
    upper = _p_mul(big_hi, _p_mul(one_plus_t_hi, one_plus_t_hi, True), True)
    return lower, upper


def ball_point(num_re: int, num_im: int, den: int) -> tuple:
    """(num_re + i num_im)/den as a ball ``(re, im, rad, e)`` of about 192 bits.

    The exact point lies within ``rad * 2^e`` of ``(re + i im) * 2^e``;
    ``den`` must be positive.
    """
    if den <= 0:
        raise ValueError("den must be positive")
    top = max(num_re.bit_length(), num_im.bit_length())
    if top == 0:
        return 0, 0, 0, 0
    s = _BITS + den.bit_length() - top
    if s >= 0:
        re, rest_re = divmod(num_re << s, den)
        im, rest_im = divmod(num_im << s, den)
    else:
        re, rest_re = divmod(num_re, den << -s)
        im, rest_im = divmod(num_im, den << -s)
    # each floor is below its quotient by less than one unit: |error| < sqrt(2)
    return re, im, 2 if rest_re or rest_im else 0, -s


def _ball_trunc(re: int, im: int, rad: int, e: int) -> tuple:
    """The complex ball ``(re, im, rad, e)`` cut to about 192 bits.

    Two floors lose less than sqrt(2) < 2 units and the radius's floor less
    than one, so the radius grows by 3 units of the new last bit.
    """
    k = (abs(re) | abs(im) | rad).bit_length() - _BITS
    if k > 0:
        return re >> k, im >> k, (rad >> k) + 3, e + k
    return re, im, rad, e


def _ball_mul(a: tuple, b: tuple) -> tuple:
    """The product of two complex balls ``(re, im, rad, e)``, cut by ``_ball_trunc``.

    |A B - a b| <= |a| rad_b + rad_a |b| + rad_a rad_b, with |a| bounded by
    |re_a| + |im_a|.
    """
    ar, ai, arad, ae = a
    br, bi, brad, be = b
    span = abs(br) + abs(bi) + brad  # an upper bound of |B|, in 2^be
    rad = (abs(ar) + abs(ai)) * brad + arad * span if brad else arad * span
    return _ball_trunc(ar * br - ai * bi, ar * bi + ai * br, rad, ae + be)


def _ball_add(w: tuple, c: tuple) -> tuple:
    """The complex ball ``w`` plus the real coefficient ball ``c = (m, ce, cr)``.

    A term below one unit of the other's last bit only widens the radius by
    one unit, with |c| < 2^(top_c + 1) and |w| < 2^(top_w + 2).
    """
    m, ce, cr = c
    if m == 0 and cr == 0:
        return w
    re, im, rad, e = w
    if not (re or im or rad):
        return m, 0, cr, ce
    if ce + (abs(m) | cr).bit_length() + 1 <= e:
        return re, im, rad + 1, e  # c is below one unit of w
    if e + (abs(re) | abs(im) | rad).bit_length() + 2 <= ce:
        return m, 0, cr + 1, ce  # w is below one unit of c
    if e >= ce:
        sh = e - ce
        return _ball_trunc((re << sh) + m, im << sh, (rad << sh) + cr, ce)
    sh = ce - e
    return _ball_trunc(re + (m << sh), im, rad + (cr << sh), e)


def _ball_sub(c: tuple, w: tuple) -> tuple:
    """The real coefficient ball ``c`` minus the complex ball ``w``."""
    re, im, rad, e = w
    return _ball_add((-re, -im, rad, e), c)


def _ball_abs2(w: tuple) -> tuple:
    """The bracket of |x|^2 for every x in the complex ball ``w``.

    With the midpoint m = re + i im and radius rad, |x| lies within rad of
    |m| <= |re| + |im|, so |x|^2 lies in [|m|^2 - s + rad^2, |m|^2 + s +
    rad^2], s = 2 rad (|re| + |im|): no square root is taken, and the lower
    end is (0, 0) where rad^2 >= |m|^2 = re^2 + im^2.  Both ends are
    truncated to 192 bits, the lower one down and the upper one up.
    """
    re, im, rad, e = w
    norm = re * re + im * im
    rad2 = rad * rad
    s = 2 * rad * (abs(re) + abs(im))
    hi = norm + s + rad2
    k = hi.bit_length() - _BITS
    upper = (-((-hi) >> k), 2 * e + k) if k > 0 else (hi, 2 * e)
    lo = norm - s + rad2
    if rad2 >= norm or lo <= 0:
        return (0, 0), upper
    k = lo.bit_length() - _BITS
    return ((lo >> k, 2 * e + k) if k > 0 else (lo, 2 * e)), upper


def ball_abs2(
    poly, num_re: int, num_im: int, den: int, *, ball: Optional[tuple] = None
) -> tuple:
    """The bracket of |poly(z)|^2 at z = (num_re + i num_im)/den, by ball Horner.

    The squared modulus of ``eval_scaled(poly, num_re, num_im, den)``,
    bracketed without the exact triple: every intermediate value is a
    complex ball ``(re, im, rad, e)``, the exact value lying within
    ``rad * 2^e`` of ``(re + i im) * 2^e``, with the midpoint kept to about
    192 bits plus the exponent ``e``.  Each step is one ``_ball_mul`` by the
    ball of z and one ``_ball_add`` of a coefficient ball, each rounding the
    midpoint down and growing the radius by at least what the rounding
    lost, and ``_ball_abs2`` brackets the square of the last ball without a
    square root.  So the result encloses the exact value, to a relative
    width of 2^-180 or so away from cancellation, and a comparison it cannot
    decide is settled by the caller's exact fallback.
    ``den`` must be positive.  ``ball``, when given, is
    ``ball_point(num_re, num_im, den)``, built once by a caller that
    brackets several polynomials at the same point.
    """
    if ball is None:
        ball = ball_point(num_re, num_im, den)
    coeffs = poly.balls()
    if not coeffs:
        return (0, 0), (0, 0)
    m, e, rad = coeffs[-1]
    w = m, 0, rad, e
    for c in reversed(coeffs[:-1]):
        w = _ball_add(_ball_mul(w, ball), c)
    return _ball_abs2(w)


def recursion_balls(constants: Sequence[tuple], ball: tuple) -> list:
    """The complex balls of P_1, ..., P_{n-1} at the point ``ball``, by their
    recursion.

    ``constants`` holds the coefficient balls (``arith.coefficient_ball``)
    of e_k = eps^(c_k), k = 1..n-1, and ``ball`` is the ``ball_point`` of
    lam.  Where the recursions P_{n-1} = e_{n-1} - lam and P_k = e_k -
    lam^(n-k) prod_{j>k} P_j^(j-k) hold, two ball products per factor give
    them all: S_{n-1} = Q_{n-1} = lam, and for k = n-2 .. 1, S_k =
    P_{k+1} S_{k+1}, Q_k = S_k Q_{k+1} = lam^(n-k) prod_{j>k} P_j^(j-k) and
    P_k = e_k - Q_k.  The same ball arithmetic as ``ball_abs2``, no Horner.
    """
    s = q = ball
    p = _ball_sub(constants[-1], ball)
    out = [p]
    for c in reversed(constants[:-1]):
        s = _ball_mul(p, s)
        q = _ball_mul(s, q)
        p = _ball_sub(c, q)
        out.append(p)
    out.reverse()
    return out


def recursion_exponents(constants: Sequence[tuple], lam: tuple) -> Optional[list]:
    """Exponents ``(lo, hi)``, in sixteenths, around |P_1|^2, ...,
    |P_{n-1}|^2 at lam, by their recursions on exponents alone; None where
    two terms come close.

    ``constants`` holds the ``log16_bounds`` of |e_k|^2, e_k = eps^(c_k),
    k = 1..n-1, and ``lam`` bounds of 16 log2 |lam|^2, |lam|^2 > 0.  The
    S/Q recursion of ``recursion_balls`` runs on exponent pairs: |S_k|^2
    and |Q_k|^2 are products, so their exponents add.  Of P_k = e_k - Q_k,
    where one term's upper exponent is at least 64 (2^4) below the other's
    lower one, the smaller term is at most a quarter of the larger in
    modulus, so |P_k| lies in [3/4, 5/4] times the larger and |P_k|^2 in
    [2^-1, 2] times its square: the larger's pair widened by 16 on each
    side.  Where neither dominates so (|Q_k| within a factor 4 of |e_k|,
    give or take the pairs' widths) the function gives up.  Integer
    additions only, so the bounds are as rigorous as their inputs.
    """
    s = q = lam
    out = []
    p = None
    for e in reversed(constants):
        if p is not None:
            s = p[0] + s[0], p[1] + s[1]
            q = s[0] + q[0], s[1] + q[1]
        if q[1] <= e[0] - 64:
            p = e[0] - 16, e[1] + 16
        elif e[1] <= q[0] - 64:
            p = q[0] - 16, q[1] + 16
        else:
            return None
        out.append(p)
    out.reverse()
    return out


# floor and ceil of 16 log2 t for t = 1..256 (index 0 unused): t^16 has bit
# length floor(16 log2 t) + 1, and the two meet where t is a power of two
_FLOOR16 = [(t**16).bit_length() - 1 for t in range(257)]
_CEIL16 = [f + (t & (t - 1) != 0) for t, f in enumerate(_FLOOR16)]


def _lo16(m: int, s: int = 0) -> int:
    """A lower bound of 16 log2(m 2^s), m > 0: 16 (s + k) + floor(16 log2 t),
    t = m >> k the top 8 bits of m."""
    k = m.bit_length() - 8
    if k <= 0:
        return 16 * s + _FLOOR16[m]
    return 16 * (s + k) + _FLOOR16[m >> k]


def _hi16(m: int, s: int = 0) -> int:
    """An upper bound of 16 log2(m 2^s), m > 0: 16 (s + k) + ceil(16 log2 u),
    u = t + 1 for the top 8 bits t = m >> k of m, or t where the bits
    below them are 0."""
    k = m.bit_length() - 8
    if k <= 0:
        return 16 * s + _CEIL16[m]
    t = m >> k
    return 16 * (s + k) + _CEIL16[t + ((t << k) != m)]


def _exponents(bracket: tuple) -> Optional[tuple[int, int]]:
    """Bounds ``(lo, hi)`` of 16 log2 of the ends of one bracket; None if
    its lower end is 0.

    2^(lo/16) <= the lower end and the upper end <= 2^(hi/16).
    """
    (m_lo, s_lo), (m_hi, s_hi) = bracket
    if not m_lo:
        return None
    return _lo16(m_lo, s_lo), _hi16(m_hi, s_hi)


def log16_bounds(num: int, den: int) -> tuple[int, int]:
    """Integers ``(lo, hi)`` around 16 log2(num/den), num, den > 0: the
    exponents of an exact ratio, in sixteenths of a power of two.

    One division gives the quotient's top bits, q = floor(num 2^sh / den),
    and ``_lo16`` and ``_hi16`` bound q and q + 1 (q alone where the
    division is exact): the pair is at most 2 apart, 0 apart where num/den
    is a power of two, and inside the exponents of any bracket of num/den.
    """
    sh = 8 + den.bit_length() - num.bit_length()  # num 2^sh / den in (2^7, 2^9)
    if sh >= 0:
        q, rest = divmod(num << sh, den)
    else:
        q, rest = divmod(num, den << -sh)
    return _lo16(q, -sh), _hi16(q + (rest > 0), -sh)


def log16_floor_ceil(num: int, den: int) -> tuple[int, int]:
    """The floor and ceil of 16 log2(num/den), num, den > 0: the tightest
    exponents of a constant, inside any other integer bounds of it.

    ``log16_bounds`` at most one apart are already the floor and ceil.
    Where they are two apart, the directed 16th powers of the 192-bit
    ``ratio_bracket`` tell on which side of the middle one the value lies,
    and only where they straddle it (16 log2(num/den) within about 2^-180
    of it) do the exact 16th powers.
    """
    lo, hi = log16_bounds(num, den)
    if hi - lo <= 1:
        return lo, hi
    lower, upper = ratio_bracket(num, den)
    middle = 1, lo + 1  # the pair 2^(lo + 1)
    if not _p_lt(_p_pow(lower, 16, False), middle):
        return lo + 1, hi
    if _p_lt(_p_pow(upper, 16, True), middle):
        return lo, lo + 1
    return log2_bounds(num**16, den**16)


def log2_bounds(num: int, den: int) -> tuple[int, int]:
    """The tightest powers of two around num/den > 0: floor and ceil of log2."""
    e = num.bit_length() - den.bit_length()  # num/den lies in (2^(e-1), 2^(e+1))
    a, b = (num, den << e) if e >= 0 else (num << -e, den)
    lo = e if a >= b else e - 1
    return lo, lo if a == b else lo + 1


def ratio_bracket(num: int, den: int) -> tuple:
    """The bracket of num/den (num >= 0, den > 0) at 192 bits.

    One exact division: the floor of the quotient, and one unit above it
    unless the division is exact.
    """
    if not num:
        return (0, 0), (0, 0)
    k = _BITS + den.bit_length() - num.bit_length()
    if k >= 0:
        m, rest = divmod(num << k, den)
    else:
        m, rest = divmod(num, den << -k)
    return (m, -k), (m + (rest > 0), -k)


def product_bracket(atoms: Sequence[tuple], powers: Sequence[int]) -> tuple:
    """The bracket of prod_i x_i^powers[i], each x_i >= 0 in the bracket
    ``atoms[i]`` and each power >= 0.

    The directed product of the atoms' powers at 192 bits; the empty
    product is 1, and a product with an exact zero atom is exactly 0.
    """
    lo = hi = None
    for (a_lo, a_hi), e in zip(atoms, powers):
        if not e:
            continue
        f_lo, f_hi = _p_pow(a_lo, e, False), _p_pow(a_hi, e, True)
        if lo is not None:
            f_lo, f_hi = _p_mul(lo, f_lo, False), _p_mul(hi, f_hi, True)
        lo, hi = f_lo, f_hi
    if lo is None:
        return (1, 0), (1, 0)  # the empty product
    return ((0, 0) if not lo[0] else lo), ((0, 0) if not hi[0] else hi)


def exact_atoms(polys: Sequence) -> tuple[bool, ...]:
    """Which of ``polys`` ``abs2_atoms`` brackets exactly: the one size rule.

    A polynomial whose stored numerators and common denominator
    (``Poly.scaled``) have at most ``2 * BALL_BITS`` bits is small: its exact
    ``eval_scaled`` triple costs less than the ball Horner's fixed overhead.
    Every other polynomial is bracketed by ``ball_abs2``.
    """
    limit = 2 * _BITS
    out = []
    for poly in polys:
        ints, den = poly.scaled()
        out.append(
            den.bit_length() <= limit and all(abs(c).bit_length() <= limit for c in ints)
        )
    return tuple(out)


def abs2_atoms(
    polys: Sequence,
    exact: Sequence[bool],
    num_re: int,
    num_im: int,
    den: int,
    chain: Optional[Sequence[tuple]] = None,
) -> tuple[list, list, int]:
    """The atoms |p(z)|^2 of ``polys`` at z = (num_re + i num_im)/den, their
    exponents, and how many ball atoms the zero rule made exact.

    ``exact`` is ``exact_atoms(polys)``, read once by the caller.  An exact
    atom is the unreduced integer pair (re^2 + im^2, d^2) of the triple
    (re, im, d) of ``eval_scaled``, with its ``log16_bounds``, None at
    an exact zero; the caller brackets it (``ratio_bracket``) only where it
    multiplies.  Every other
    atom is a ball bracket with its ``_exponents``, all of them from one
    ``ball_point``, built only when some atom needs it: the ``_ball_abs2``
    of the polynomial's ball in ``recursion_balls(chain, ...)`` when the
    caller passes ``chain`` (``polys`` are then P_1, ..., P_{n-1} and
    ``chain`` the coefficient balls of the constants of their proved
    recursions), the ``ball_abs2`` bracket otherwise.  A ball bracket whose
    lower end is 0 is replaced by the polynomial's exact atom (counted in
    the third value), so an atom without exponents is an exact zero.
    """
    atoms, exps = [], []
    ball = balls = None
    zeros = 0
    for poly, small in zip(polys, exact):
        if not small:
            if ball is None:
                ball = ball_point(num_re, num_im, den)
                if chain is not None:
                    balls = recursion_balls(chain, ball)
            if balls is None:
                bracket = ball_abs2(poly, num_re, num_im, den, ball=ball)
            else:
                bracket = _ball_abs2(balls[len(atoms)])
            if bracket[0][0]:
                atoms.append(bracket)
                exps.append(_exponents(bracket))
                continue
            # the ball reaches 0: the exact value decides
            zeros += 1
        re, im, d = eval_scaled(poly, num_re, num_im, den)
        num, d2 = re * re + im * im, d * d
        atoms.append((num, d2))
        exps.append(log16_bounds(num, d2) if num else None)
    return atoms, exps, zeros


def exact_atom(atom: tuple) -> bool:
    """Whether an atom of ``abs2_atoms`` is an exact integer pair (not a
    bracket): its kind, read from the atom itself."""
    return isinstance(atom[0], int)


def _side_product(side: Sequence[tuple], bits: int) -> tuple:
    """The directed product bracket of one side's factor brackets at ``bits``.

    The first factor is truncated, not multiplied by 1.
    """
    if not side:
        return (1, 0), (1, 0)
    (lo, hi), *rest = side
    p_lo, p_hi = _p_trunc(*lo, False, bits), _p_trunc(*hi, True, bits)
    for lo, hi in rest:
        p_lo, p_hi = _p_mul(p_lo, lo, False, bits), _p_mul(p_hi, hi, True, bits)
    return p_lo, p_hi


def bracket_lt(lhs: Sequence, rhs: Sequence, *, closed: bool = False) -> Optional[bool]:
    """Decide ``prod(lhs) < prod(rhs)`` (``<=`` when ``closed``) by brackets.

    Each side is the product of its factors' brackets, multiplied with
    directed rounding at the precision of the widest factor (at least 192
    bits); an empty side is 1.  An exact zero factor has upper end 0, so a
    side holding one is decided against the other side's sign alone: 0 < x
    holds for x > 0, 0 <= x always, x < 0 never and x <= 0 only at x = 0.
    Returns ``None`` when the product brackets overlap; the caller then
    decides exactly.
    """
    bits = max((hi[0].bit_length() for _, hi in (*lhs, *rhs)), default=0)
    bits = max(bits, _BITS)
    l_lo, l_hi = _side_product(lhs, bits)
    r_lo, r_hi = _side_product(rhs, bits)
    if closed:
        if not _p_lt(r_lo, l_hi):
            return True
        if _p_lt(r_hi, l_lo):
            return False
    else:
        if _p_lt(l_hi, r_lo):
            return True
        if not _p_lt(l_lo, r_hi):
            return False
    return None


def exact_lt(terms: Sequence[tuple], *, closed: bool = False) -> bool:
    """Exact ``prod (num/den)^e < 1`` (``<= 1`` when ``closed``).

    ``terms`` are ``(num, den, e)`` with num >= 0, den > 0 and an integer
    power e of either sign: the unreduced integer fractions of squared
    moduli (``scaled_abs2``) and the numerators and denominators of
    ``constant_factor``s, cross-multiplied without a gcd.  The last stage of
    every comparison that brackets leave open.
    """
    left = right = 1
    for num, den, e in terms:
        if e > 0:
            left, right = left * num**e, right * den**e
        elif e < 0:
            left, right = left * den**-e, right * num**-e
    return left <= right if closed else left < right


class Values:
    """The values of ``polys`` at z = (num_re + i num_im)/den, bracketed first.

    ``abs2[i]`` is the atom of |polys[i](z)|^2 that ``abs2_atoms`` builds:
    the exact integer pair (num, den) for a small polynomial, a
    ``ball_abs2`` bracket for the others, as ``exact`` (``exact_atoms(polys)``,
    computed when not given; a caller testing many points passes it once)
    says, and the exact pair wherever a bracket would reach 0.
    ``exps[i]`` is its exponents in sixteenths (None at an exact zero) and
    ``brackets[i]`` its bracket (``ratio_bracket`` of an exact pair); the
    brackets are built when first read, by a comparison that the exponents
    leave open.
    ``fell_back`` tells whether a comparison's brackets overlapped, so that
    ``exact_lt`` decided it.  ``triples`` are the exact ``eval_scaled``
    triples, all evaluated the first time they are read: by such a
    comparison on a ball atom, or by a caller that renders the point.
    """

    __slots__ = ("polys", "lam", "abs2", "exps", "fell_back", "_brackets", "_triples")

    def __init__(
        self,
        polys: Sequence,
        num_re: int,
        num_im: int,
        den: int,
        *,
        exact: Optional[Sequence[bool]] = None,
    ):
        exact = exact_atoms(polys) if exact is None else exact
        self.polys, self.lam = polys, (num_re, num_im, den)
        atoms, exps, _ = abs2_atoms(polys, exact, num_re, num_im, den)
        self.abs2, self.exps = tuple(atoms), tuple(exps)
        self.fell_back = False
        self._brackets: Optional[tuple] = None
        self._triples: Optional[tuple] = None

    @property
    def brackets(self) -> tuple:
        if self._brackets is None:
            self._brackets = tuple(
                ratio_bracket(*atom) if exact_atom(atom) else atom for atom in self.abs2
            )
        return self._brackets

    @property
    def evaluated(self) -> bool:
        """Whether the exact triples have been evaluated."""
        return self._triples is not None

    @property
    def triples(self) -> tuple:
        if self._triples is None:
            self._triples = tuple(eval_scaled(p, *self.lam) for p in self.polys)
        return self._triples

    def _square(self, i: int) -> tuple:
        """|polys[i](z)|^2 as an unreduced integer pair ``(num, den)``."""
        atom = self.abs2[i]
        return atom if exact_atom(atom) else scaled_abs2(self.triples[i])

    def lt(self, lhs: Sequence, rhs: Sequence, *, closed: bool = False) -> bool:
        """Exact ``prod(lhs) < prod(rhs)`` (``<=`` when ``closed``) at z.

        A factor is an index ``i``, standing for |polys[i](z)|^2, or a
        ``constant_factor``.  The net of the factors' exponents in
        sixteenths decides first (``_exponent_lt``); where it straddles 0,
        or a factor is an exact zero, ``bracket_lt`` decides on the atoms'
        brackets, and where they overlap ``exact_lt`` on the unreduced
        integer squares (an exact atom's own, the triples' for a ball atom)
        and the constants' numerators and denominators.
        """
        verdict = self._exponent_lt(lhs, rhs, closed)
        if verdict is not None:
            return verdict
        brackets = self.brackets
        lb, rb = [], []
        for f in lhs:
            if isinstance(f, int):
                lb.append(brackets[f])
            else:
                lb.append(f[2])
                rb.append(f[3])
        for f in rhs:
            if isinstance(f, int):
                rb.append(brackets[f])
            else:
                rb.append(f[2])
                lb.append(f[3])
        verdict = bracket_lt(lb, rb, closed=closed)
        if verdict is not None:
            return verdict
        self.fell_back = True
        terms = []
        for side, power in ((lhs, 1), (rhs, -1)):
            for f in side:
                num, den = self._square(f) if isinstance(f, int) else f[:2]
                terms.append((num, den, power))
        return exact_lt(terms, closed=closed)

    def _exponent_lt(self, lhs: Sequence, rhs: Sequence, closed: bool) -> Optional[bool]:
        """``lt`` on the exponents alone: bounds of 16 log2 of prod(lhs) /
        prod(rhs) from those of each factor; None where they straddle 0
        (or touch it on the strict side) or a factor has none."""
        lo = hi = 0
        for side, sign in ((lhs, 1), (rhs, -1)):
            for f in side:
                e = self.exps[f] if isinstance(f, int) else f[4]
                if e is None:
                    return None
                if sign > 0:
                    lo, hi = lo + e[0], hi + e[1]
                else:
                    lo, hi = lo - e[1], hi - e[0]
        if hi < 0 or closed and hi == 0:
            return True
        if lo > 0 or not closed and lo == 0:
            return False
        return None
