"""Exact scalar and polynomial arithmetic for the certification pipeline.

Representation notes:

* Rationals are ``fractions.Fraction`` (always reduced, positive denominator,
  exact total order).  ``Rational`` is exported as an alias for annotations.
* Complex scalars are pairs of rationals.  Modulus comparisons are always made
  on squared moduli (``abs2``); no square root is ever taken in this module.
* A polynomial (``Poly``) is dense and stored as one pair: a tuple of integer
  numerators, index = degree of the monomial, with no trailing zeros, over
  one positive common denominator.  The pair is not reduced, and no gcd runs
  on it: ``*`` convolves the integers over the product of the denominators,
  ``+`` and ``-`` rescale to the lcm of the two (one gcd per sum, not one per
  coefficient), and ``divmod`` runs a long division on the integers (see
  ``Poly.__divmod__``).  ``scaled()`` is the stored pair.  ``==`` compares
  values by cross-multiplication and ``hash`` hashes the reduced
  coefficients, so equal polynomials over different denominators are equal
  and hash equal.  The zero polynomial has no numerators, denominator 1 and
  degree -1.
* ``Fraction`` coefficients are built only at the edge of the API: ``coeffs``
  (reduced, built on first read and cached; ``__call__``, ``balls`` and
  ``hash`` read them), ``coeff`` and ``leading`` (the cached value, or the
  one coefficient alone) and ``to_json`` (the cached values, or each one
  reduced, formatted and dropped).  A ``Poly`` built from coefficients
  keeps its input, which is already reduced, as that cache.  Coefficients are ints or Fractions; anything
  else, a float above all, is a ``TypeError``.

Serialized forms: a rational is the string ``"num/den"``, reduced; a
polynomial is a list of coefficient strings (index = degree); a complex
scalar is a mapping ``{"re": "num/den", "im": "num/den"}``.
``Poly.to_json`` reduces each coefficient as a ``Fraction``; the family's
hash does not read it: ``family.Family.to_json`` writes the coefficients
from the family's form in Z[lam, eps].  Integers
of more than ``_DC_BITS`` bits are converted by divide and conquer
(``_dc_int_str``).

The certificates evaluate polynomials with ``eval_scaled``, an exact
integer-scaled Horner: it returns an unreduced numerator/denominator triple
and performs no gcd, which matters when operands reach tens of thousands of
digits.  Callers compare its results by integer cross-multiplication, after
the directed-rounding bounds of :mod:`noricert.bounds` have had a chance to
decide, and reduce to ``Fraction`` only where a reduced value is reported or
fed to a square-root bound.  Sampled disk points take one image path,
``bounds.abs2_atoms``, which picks the evaluation by the polynomial's
stored size: a small polynomial (stored integers of at most
``2 * BALL_BITS`` bits) is evaluated by ``eval_scaled`` into an exact
squared modulus, any other one is bracketed by ``bounds.ball_abs2``, a
midpoint-radius Horner on the coefficient balls of ``Poly.balls`` (the
family's factors, where their recursions are proved, by
``bounds.recursion_balls`` from the ``coefficient_ball``s of the
recursions' constants instead), and its ``eval_scaled`` runs only where
that bracket reaches 0, a comparison is left undecided or a refutation is
rendered.  ``Poly.__call__`` over
``Fraction`` / ``ComplexRational`` is the reference path: the tests
cross-check ``eval_scaled`` against it, and refutation witnesses are
rendered with it.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int]

# The mantissa bits of ``Poly.balls`` and of every bracket in ``bounds``.
BALL_BITS = 192


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a bare integer string) into a Fraction."""
    s = text.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        try:
            num, den = _parse_int(num_s), _parse_int(den_s)
        except ValueError as exc:
            raise ValueError(f"invalid rational literal: {text!r}") from exc
        if den == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(num, den)
    try:
        return Fraction(_parse_int(s))
    except ValueError as exc:
        raise ValueError(f"invalid rational literal: {text!r}") from exc


def format_rational(q: RationalLike) -> str:
    q = Fraction(q)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


# Above this many bits ``_int_str`` converts by divide and conquer in
# ``decimal``: slower than the split below at 24k bits (1.04 vs 1.01 ms),
# even at 32k, 1.4x faster at 48k and 8x at 780k (CPython 3.11).
_DC_BITS = 40_000


def _int_str(n: int) -> str:
    """Decimal string of an integer at any size, equal to ``str(n)``.

    Stays below the interpreter's int-to-str conversion guard: up to
    ``_DC_BITS`` bits by splitting at a power of ten and recursing on the
    halves, above by ``_dc_int_str``.
    """
    if n < 0:
        return "-" + _int_str(-n)
    bits = n.bit_length()
    if bits <= 10000:  # ~3000 digits, safely below the guard
        return str(n)
    if bits > _DC_BITS:
        return _dc_int_str(n)
    half = _digits10(n) // 2
    hi, lo = divmod(n, 10**half)
    return _int_str(hi) + _int_str(lo).zfill(half)


def _parse_int(text: str) -> int:
    """``int(text)`` at any length, equal to it where it has no guard.

    Stays below the interpreter's str-to-int conversion guard: a literal
    of more than 4,000 characters must be a sign and decimal digits, and
    is split in halves, each read alone.
    """
    if len(text) <= 4000:
        return int(text)
    sign = text[0] if text[0] in "+-" else ""
    digits = text[len(sign):]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer literal: {text[:20]!r}...")
    half = len(digits) // 2
    value = _parse_int(digits[:-half]) * 10**half + _parse_int(digits[-half:])
    return -value if sign == "-" else value


def _dc_int_str(n: int) -> str:
    """Decimal string of a nonnegative integer in subquadratic time.

    The integer is split on powers of two, n = hi 2^w + lo, and rebuilt in
    ``decimal`` (libmpdec, exact at the largest precision), whose products
    of large operands are subquadratic and whose ``str`` is linear; the
    powers 2^w are built once per call.  The design of CPython 3.12's
    ``_pylong.int_to_decimal_string``.
    """
    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        result = powers.get(w)
        if result is None:
            if w <= 128:
                result = D(2) ** w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                result = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = result
        return result

    def inner(n: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return D(n)
        low = w >> 1
        hi = n >> low
        return inner(n - (hi << low), low) + inner(hi, w - low) * pow2(low)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(inner(n, n.bit_length()))


def _digits10(n: int) -> int:
    """Decimal digit count of a positive integer, without str() conversion.

    str() on very large integers is both slow and, past the interpreter's
    conversion guard, a hard error; bit_length plus a two-sided correction
    gives the exact count at any size.
    """
    d = max(1, (n.bit_length() * 30103) // 100000)
    while 10**d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def decimal_approx(q: RationalLike, sig: int = 6, mode: str = "nearest") -> str:
    """Scientific-notation decimal approximation of a rational.

    Unlike ``float()`` this never overflows or silently flushes to zero, which
    matters for the certificate margins (their exact values can have
    thousand-digit numerators).  ``mode`` controls the rounding direction of
    the mantissa: ``"floor"`` rounds toward zero (a sound lower bound on the
    magnitude), ``"ceil"`` away from zero, ``"nearest"`` to nearest.
    """
    if sig < 1:
        raise ValueError("sig must be >= 1")
    if mode not in ("floor", "ceil", "nearest"):
        raise ValueError(f"unknown rounding mode: {mode!r}")
    q = Fraction(q)
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    a = -q if q < 0 else q
    num, den = a.numerator, a.denominator
    # exponent e with 10^e <= a < 10^(e+1)
    e = _digits10(num) - _digits10(den)
    if 10 ** max(e, 0) * den > num * 10 ** max(-e, 0):
        e -= 1
    # mantissa digits: d = round(a * 10^(sig-1-e)) by the requested mode
    shift = sig - 1 - e
    num_s = num * 10 ** max(shift, 0)
    den_s = den * 10 ** max(-shift, 0)
    if mode == "floor":
        d = num_s // den_s
    elif mode == "ceil":
        d = -((-num_s) // den_s)
    else:
        d = (2 * num_s + den_s) // (2 * den_s)
    if d >= 10**sig:  # rounding bumped into the next decade
        d //= 10
        e += 1
    digits = str(d).rjust(sig, "0")
    mantissa = digits[0] if sig == 1 else f"{digits[0]}.{digits[1:]}"
    return f"{sign}{mantissa}e{e:+03d}"


class ComplexRational(NamedTuple):
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re: RationalLike = 0, im: RationalLike = 0) -> "ComplexRational":
        return cls(Fraction(re), Fraction(im))

    @staticmethod
    def _coerce(value) -> "ComplexRational | None":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(Fraction(value), Fraction(0))
        return None

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return ComplexRational(self.re + w.re, self.im + w.im)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return ComplexRational(self.re - w.re, self.im - w.im)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return ComplexRational(w.re - self.re, w.im - self.im)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return ComplexRational(
            self.re * w.re - self.im * w.im,
            self.re * w.im + self.im * w.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        d = w.abs2()
        if d == 0:
            raise ZeroDivisionError("division by complex zero")
        return ComplexRational(
            (self.re * w.re + self.im * w.im) / d,
            (self.im * w.re - self.re * w.im) / d,
        )

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = ComplexRational(Fraction(1), Fraction(0))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})i"

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, obj: dict) -> "ComplexRational":
        return cls(parse_rational(obj["re"]), parse_rational(obj["im"]))


CZERO = ComplexRational.of(0)
CONE = ComplexRational.of(1)


def _exact(value: RationalLike) -> RationalLike:
    """``value`` itself; only ints and Fractions are exact coefficients."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(
        f"polynomial coefficients must be int or Fraction, not {type(value).__name__}"
    )


class Poly:
    """Dense univariate polynomial over the rationals.

    Stored as one pair: integer numerators, low degree first with no
    trailing zeros, over one positive common denominator.  The pair is not
    reduced; the polynomial is ``sum(ints[i] z^i) / den`` whatever factor the
    integers and ``den`` share.  The zero polynomial has no numerators,
    denominator 1 and degree -1.
    """

    __slots__ = ("_ints", "_den", "_fractions", "_ball_cache")

    def __init__(self, coeffs: Iterable = ()):  # noqa: D401
        fractions = [Fraction(_exact(c)) for c in coeffs]
        while fractions and not fractions[-1]:
            fractions.pop()
        den = math.lcm(*(c.denominator for c in fractions))
        self._ints = tuple(c.numerator * (den // c.denominator) for c in fractions)
        self._den = den
        self._fractions = tuple(fractions)
        self._ball_cache = None

    @classmethod
    def _of(cls, ints: Sequence[int], den: int = 1) -> "Poly":
        """The polynomial ``sum(ints[i] z^i) / den``; ``den`` must be positive."""
        end = len(ints)
        while end and not ints[end - 1]:
            end -= 1
        poly = object.__new__(cls)
        poly._ints = tuple(ints[:end])
        poly._den = den if end else 1
        poly._fractions = None
        poly._ball_cache = None
        return poly

    @classmethod
    def zero(cls) -> "Poly":
        return cls._of(())

    @classmethod
    def one(cls) -> "Poly":
        return cls._of((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls._of((0, 1))

    @classmethod
    def constant(cls, value: RationalLike) -> "Poly":
        return cls.monomial(0, value)

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "Poly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        q = _exact(coeff)
        return cls._of((0,) * power + (q.numerator,), q.denominator)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, built on first read and cached."""
        if self._fractions is None:
            den = self._den
            self._fractions = tuple(Fraction(c, den) for c in self._ints)
        return self._fractions

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def leading(self) -> Fraction:
        if not self._ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self._ints) - 1)

    @property
    def trailing_order(self) -> int:
        """Smallest degree with a nonzero coefficient (vanishing order at 0)."""
        for i, c in enumerate(self._ints):
            if c:
                return i
        raise ValueError("zero polynomial has no vanishing order")

    def coeff(self, i: int) -> Fraction:
        if not 0 <= i < len(self._ints):
            return Fraction(0)
        if self._fractions is not None:
            return self._fractions[i]
        return Fraction(self._ints[i], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b, da, db = self._ints, other._ints, self._den, other._den
        if da == db:
            return a == b
        return len(a) == len(b) and all(x * db == y * da for x, y in zip(a, b))

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, da, db = self._ints, other._ints, self._den, other._den
        den = da if da == db else math.lcm(da, db)
        if den != da:
            a = [c * (den // da) for c in a]
        if den != db:
            b = [c * (den // db) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Poly._of(tuple(-c for c in self._ints), self._den)

    @staticmethod
    def _coerce(value) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._ints, other._ints
        if not a or not b:
            return Poly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        out[j] += ai * bj
        return Poly._of(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __divmod__(self, other):
        """Quotient and remainder, divided in integers on a common denominator.

        ``A / a`` divided by ``B / b`` is ``b / a`` times ``A`` divided by
        ``B``.  That long division runs on the integers: each quotient digit
        is the top numerator over the leading numerator ``L`` of ``B``, and
        where that is no integer, the remainder and the digits so far are
        first scaled by the least factor that makes it one.  With ``S`` the
        product of those factors, ``S A = Q B + R`` in integers, so the
        quotient is ``Q b / (S a)`` and the remainder ``R / (S a)``.  Where
        ``B`` divides ``A`` over the integers, as it does for the family's
        factors, ``S`` stays 1.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other._ints
        db = len(b) - 1
        steps = len(self._ints) - db
        if steps <= 0:
            return Poly.zero(), self
        lead = b[-1]
        rem = list(self._ints)
        quot = [0] * steps
        scale = 1
        for i in range(steps - 1, -1, -1):
            top = rem[i + db]
            if not top:
                continue
            q, r = divmod(top, lead)
            if r:
                f = abs(lead) // math.gcd(top, lead)
                rem = [c * f for c in rem]
                quot = [c * f for c in quot]
                scale *= f
                q = top * f // lead
            quot[i] = q
            for j, c in enumerate(b, i):
                rem[j] -= q * c
        den = self._den * scale
        g = math.gcd(den, other._den)
        return (
            Poly._of([q * (other._den // g) for q in quot], den // g),
            Poly._of(rem[:db], den),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, z):
        """Evaluate by Horner's rule at a rational or complex-rational point."""
        if isinstance(z, ComplexRational):
            acc = CZERO
            for c in reversed(self.coeffs):
                acc = acc * z + c
            return acc
        zq = Fraction(z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * zq + c
        return acc

    def scaled(self) -> tuple:
        """The stored pair ``(integers, common_denominator)``, not reduced."""
        return self._ints, self._den

    def balls(self) -> tuple:
        """Coefficients as midpoint-radius balls ``(m, e, r)``, cached.

        Each is the ``coefficient_ball`` of the coefficient: ``m`` its floor
        at a binary exponent ``e`` that leaves it about ``BALL_BITS`` bits,
        and ``r`` 0 when ``m * 2^e`` is the coefficient exactly and 1
        otherwise: |c - m 2^e| <= r 2^e.  The exponent is read from the
        reduced coefficient, so the balls do not depend on the stored
        denominator.
        """
        if self._ball_cache is None:
            self._ball_cache = tuple(coefficient_ball(c) for c in self.coeffs)
        return self._ball_cache

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})*z^{i}" if i else f"({c})")
        return "Poly(" + " + ".join(parts) + ")"

    def to_json(self) -> list:
        # the reduced coefficients are read from the cache, or each is
        # built, formatted and not kept
        coeffs = self._fractions or (Fraction(c, self._den) for c in self._ints)
        return [format_rational(c) for c in coeffs]

    @classmethod
    def from_json(cls, items: Sequence[str]) -> "Poly":
        return cls(tuple(parse_rational(s) for s in items))


def coefficient_ball(c: RationalLike) -> tuple:
    """The rational ``c`` as a real ball ``(m, e, r)`` of about ``BALL_BITS`` bits.

    ``m`` is the floor of ``c`` at a binary exponent ``e`` read from the
    reduced value, and ``r`` is 0 when ``m * 2^e`` is ``c`` exactly and 1
    otherwise: |c - m 2^e| <= r 2^e.  The balls of ``Poly.balls``.
    """
    c = Fraction(c)
    num, den = c.numerator, c.denominator
    if num == 0:
        return 0, 0, 0
    e = num.bit_length() - den.bit_length() - BALL_BITS
    if e <= 0:
        m, rest = divmod(num << -e, den)
    else:
        m, rest = divmod(num, den << e)
    return m, e, 1 if rest else 0


def _primitive(p: Poly) -> Poly:
    """``p``'s numerators over their content: a positive constant multiple of ``p``."""
    ints, _ = p.scaled()
    g = math.gcd(*ints)
    return Poly._of([c // g for c in ints]) if g else p


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm.

    The remainders are kept primitive (integer numerators over their
    content, a constant multiple, so the gcd is the same), which keeps the
    scaling factors of ``divmod`` from piling up from one step to the next.
    Raises ValueError when both arguments are zero.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero:
        a, b = b, _primitive(a % b)
    ints, _ = a.scaled()
    lead = ints[-1]
    if lead < 0:
        ints, lead = [-c for c in ints], -lead
    return Poly._of(ints, lead)


def eval_scaled(poly: Poly, num_re: int, num_im: int, den: int) -> tuple:
    """Exact evaluation of ``poly`` at ``(num_re + i*num_im)/den``.

    Returns an unreduced triple ``(re_num, im_num, common_den)`` of integers
    with value ``(re_num + i*im_num)/common_den``.  ``den`` must be positive.
    No gcd is computed; callers compare results by cross-multiplication.
    """
    if den <= 0:
        raise ValueError("den must be positive")
    nums, cden = poly.scaled()
    if not nums:
        return 0, 0, 1
    # after the step of nums[i] the accumulator is scaled by den^(deg - i)
    acc_re, acc_im, scale = nums[-1], 0, 1
    for c in nums[-2::-1]:
        acc_re, acc_im = (
            acc_re * num_re - acc_im * num_im,
            acc_re * num_im + acc_im * num_re,
        )
        scale *= den
        acc_re += c * scale
    return acc_re, acc_im, cden * scale


def as_scaled(z: ComplexRational) -> tuple[int, int, int]:
    """(num_re, num_im, den) with z = (num_re + i num_im)/den and den > 0."""
    dre, dim = z.re.denominator, z.im.denominator
    den = dre // math.gcd(dre, dim) * dim
    return z.re.numerator * (den // dre), z.im.numerator * (den // dim), den


def scaled_to_complex(triple: tuple) -> ComplexRational:
    re_num, im_num, den = triple
    return ComplexRational(Fraction(re_num, den), Fraction(im_num, den))


def scaled_abs2(triple: tuple) -> tuple:
    """Squared modulus of an ``eval_scaled`` triple as ``(num, den)``, unreduced."""
    re_num, im_num, den = triple
    return re_num * re_num + im_num * im_num, den * den
