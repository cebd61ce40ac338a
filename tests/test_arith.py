"""Unit tests for exact scalar and polynomial arithmetic.

Derived expected values are cross-checked against sympy (independent symbolic
oracle) rather than against the code under test.
"""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from noricert.arith import (
    _DC_BITS,
    BALL_BITS,
    ComplexRational,
    Poly,
    _dc_int_str,
    _int_str,
    decimal_approx,
    eval_scaled,
    format_rational,
    parse_rational,
    poly_gcd,
    scaled_abs2,
    scaled_to_complex,
)
import noricert.family as family_module
from noricert.family import FamilyParams, _decimal_coefficient, _rows, _strings, build_family

F = Fraction

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=64)
small_polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def to_sympy(p: Poly, var):
    return sum(sp.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(p.coeffs))


class TestRationalText:
    def test_parse_and_format_roundtrip(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("7") == F(7)
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(-2, 4)) == "-1/2"
        assert format_rational(3) == "3/1"

    def test_parse_beyond_the_str_conversion_guard(self):
        # a family's JSON at n = 4 holds numerators of about 12,000 digits
        q = F(-(3**20000), 7**9000)
        assert parse_rational(format_rational(q)) == q
        assert parse_rational(_int_str(10**5000 + 1)) == 10**5000 + 1
        for bad in ("1" * 5000 + "x/3", "3/" + "1_0" * 2000):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_parse_rejects_garbage(self):
        for bad in ("", "a/b", "1/0", "1.5", "1/2/3"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(rationals)
    def test_roundtrip_property(self, q):
        assert parse_rational(format_rational(q)) == q


class TestComplexRational:
    def test_abs2_exact(self):
        z = ComplexRational.of(F(3, 5), F(4, 5))
        assert z.abs2() == 1

    def test_arithmetic(self):
        z = ComplexRational.of(1, 2)
        w = ComplexRational.of(F(1, 2), -1)
        assert (z + w) == ComplexRational.of(F(3, 2), 1)
        assert (z * w) == ComplexRational.of(F(5, 2), 0)
        assert (z - z).is_zero
        assert (z / z) == ComplexRational.of(1, 0)
        assert -z == ComplexRational.of(-1, -2)
        assert z.conjugate() == ComplexRational.of(1, -2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ComplexRational.of(1) / ComplexRational.of(0)

    @given(rationals, rationals, rationals, rationals)
    def test_abs2_multiplicative(self, a, b, c, d):
        z = ComplexRational.of(a, b)
        w = ComplexRational.of(c, d)
        assert (z * w).abs2() == z.abs2() * w.abs2()

    def test_json_roundtrip(self):
        z = ComplexRational.of(F(-7, 3), F(22, 7))
        assert ComplexRational.from_json(z.to_json()) == z


class TestPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        p = Poly([1, 2, 0, 0])
        assert p.coeffs == (F(1), F(2))
        assert p.degree == 1

    def test_balls_enclose_coefficients(self):
        rng = random.Random(3)
        coeffs = [F(0), F(-3, 4), F(1, 3), F(10**400 + 7, 3**300)]
        coeffs += [F(rng.getrandbits(900) - 2**899, rng.getrandbits(700) + 1) for _ in range(20)]
        balls = Poly(coeffs + [F(1)]).balls()
        for c, (m, e, r) in zip(coeffs, balls):
            assert abs(c - m * F(2) ** e) <= r * F(2) ** e
            assert r == (0 if c == m * F(2) ** e else 1)
            assert m == 0 or abs(m).bit_length() >= BALL_BITS - 1

    def test_zero_poly(self):
        z = Poly.zero()
        assert z.degree == -1
        assert z.is_zero
        with pytest.raises(ValueError):
            _ = z.leading
        with pytest.raises(ValueError):
            _ = z.trailing_order

    def test_constructors(self):
        assert Poly.x() == Poly([0, 1])
        assert Poly.monomial(3, F(1, 2)) == Poly([0, 0, 0, F(1, 2)])
        assert Poly.constant(5).degree == 0

    def test_trailing_order(self):
        assert Poly([0, 0, 3, 1]).trailing_order == 2
        assert Poly([5]).trailing_order == 0

    def test_json_form_is_degree_indexed(self):
        # ["0/1", "1/1"] is the identity map coefficient list
        p = Poly.from_json(["0/1", "1/1"])
        assert p == Poly.x()
        assert Poly([0, 1]).to_json() == ["0/1", "1/1"]

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1, 1]), Poly.zero())


class TestPolyAlgebra:
    @settings(max_examples=60)
    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero() == a
        assert a * Poly.one() == a
        assert a + (-a) == Poly.zero()

    @settings(max_examples=40)
    @given(small_polys, nonzero_polys)
    def test_divmod_roundtrip(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    @settings(max_examples=25)
    @given(small_polys, nonzero_polys)
    def test_divmod_matches_sympy(self, a, b):
        lam = sp.symbols("lam")
        q, r = divmod(a, b)
        sq, sr = sp.div(to_sympy(a, lam), to_sympy(b, lam), lam)
        assert sp.expand(to_sympy(q, lam) - sq) == 0
        assert sp.expand(to_sympy(r, lam) - sr) == 0

    @settings(max_examples=25)
    @given(nonzero_polys, nonzero_polys)
    def test_gcd_matches_sympy(self, a, b):
        lam = sp.symbols("lam")
        g = poly_gcd(a, b)
        sg = sp.gcd(to_sympy(a, lam), to_sympy(b, lam), lam)
        # sympy gcd normalization differs; compare monic forms
        sg = sp.expand(sg / sp.LC(sg, lam)) if sg != 0 else sg
        assert sp.expand(to_sympy(g, lam) - sg) == 0

    @settings(max_examples=40)
    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert (a % g).is_zero
        assert (b % g).is_zero
        assert g.leading == 1

    def test_gcd_of_zeros_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Poly.zero(), Poly.zero())

    def test_pow(self):
        p = Poly([1, 1])
        assert p**0 == Poly.one()
        assert p**3 == Poly([1, 3, 3, 1])
        with pytest.raises(ValueError):
            p ** (-1)


def _strip(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (n - len(a)), list(b) + [F(0)] * (n - len(b))
    return _strip(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_divmod(a, b):
    """Long division on reduced Fraction tuples, with no common denominator."""
    rem, db = list(a), len(b) - 1
    if len(rem) <= db:
        return (), _strip(rem)
    quot = [F(0)] * (len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        factor = rem[i + db] / b[-1]
        quot[i] = factor
        for j, c in enumerate(b):
            rem[i + j] -= factor * c
    return _strip(quot), _strip(rem[:db])


def _ref_balls(coeffs) -> tuple:
    """The ball formula on reduced coefficients: exponents from their bit lengths."""
    out = []
    for c in coeffs:
        num, den = c.numerator, c.denominator
        if num == 0:
            out.append((0, 0, 0))
            continue
        e = num.bit_length() - den.bit_length() - BALL_BITS
        m, rest = divmod(num << -e, den) if e <= 0 else divmod(num, den << e)
        out.append((m, e, 1 if rest else 0))
    return tuple(out)


def _rescaled(p: Poly, k: int) -> Poly:
    """``p`` stored over ``k`` times its denominator: numerators and denominator share k.

    The zero polynomial keeps denominator 1.
    """
    q = p * k * F(1, k)
    assert q.scaled()[1] == (p.scaled()[1] * k if p else 1)
    return q


# a polynomial as a reduced Fraction tuple and the same value over an
# unreduced denominator; the tuple is the reference the Poly is checked against
unreduced = st.tuples(
    st.lists(rationals, max_size=7).map(_strip), st.integers(1, 10**12)
).map(lambda t: (t[0], _rescaled(Poly(t[0]), t[1])))
nonzero_unreduced = unreduced.filter(lambda t: t[0])


def _assert_matches(p: Poly, ref: tuple) -> None:
    """Every read of ``p`` against the reduced Fraction tuple ``ref``."""
    assert [p.coeff(i) for i in range(-1, len(ref) + 2)] == [F(0), *ref, F(0), F(0)]
    assert p.to_json() == [format_rational(c) for c in ref]  # before the cache
    assert p.coeffs == ref
    assert all(type(c) is F for c in p.coeffs)
    assert p.to_json() == [format_rational(c) for c in ref]  # from the cache
    assert p.degree == len(ref) - 1
    ints, den = p.scaled()
    assert den > 0 and len(ints) == len(ref)
    assert tuple(F(c, den) for c in ints) == ref
    assert p.balls() == _ref_balls(ref)
    if ref:
        assert p.leading == ref[-1]
        assert p.trailing_order == next(i for i, c in enumerate(ref) if c)


class TestIntegerScaledPoly:
    """The integer pair against plain reduced Fraction tuples."""

    @settings(max_examples=80)
    @given(unreduced, unreduced)
    def test_ring_operations_match_fraction_tuples(self, a, b):
        (ra, pa), (rb, pb) = a, b
        _assert_matches(pa, ra)
        _assert_matches(pa + pb, _ref_add(ra, rb))
        _assert_matches(pa - pb, _ref_add(ra, rb, -1))
        _assert_matches(-pa, tuple(-c for c in ra))
        _assert_matches(pa * pb, _ref_mul(ra, rb))
        _assert_matches(pa + F(2, 3), _ref_add(ra, (F(2, 3),)))
        _assert_matches(F(2, 3) - pa, _ref_add((F(2, 3),), ra, -1))
        _assert_matches(3 * pa, _ref_mul((F(3),), ra))

    @settings(max_examples=40)
    @given(unreduced, st.integers(0, 4))
    def test_power_matches_fraction_tuples(self, a, e):
        ra, pa = a
        want = (F(1),)
        for _ in range(e):
            want = _ref_mul(want, ra)
        _assert_matches(pa**e, want)

    @settings(max_examples=80)
    @given(unreduced, nonzero_unreduced)
    def test_divmod_matches_fraction_tuples(self, a, b):
        (ra, pa), (rb, pb) = a, b
        want_q, want_r = _ref_divmod(ra, rb)
        q, r = divmod(pa, pb)
        _assert_matches(q, want_q)
        _assert_matches(r, want_r)

    @pytest.mark.parametrize("lead", [F(1), F(-1), F(2), F(-3, 7), F(10**30, 3)])
    def test_divmod_by_any_leading_coefficient(self, lead):
        # the family's factors lead with +-1; poly_gcd divides by others
        rng = random.Random(7)
        a = tuple(F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(9)) + (F(5, 2),)
        b = tuple(F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3)) + (lead,)
        want_q, want_r = _ref_divmod(a, b)
        q, r = divmod(_rescaled(Poly(a), 6), _rescaled(Poly(b), 35))
        _assert_matches(q, want_q)
        _assert_matches(r, want_r)
        assert q * Poly(b) + r == Poly(a)

    def test_exact_division_by_a_unit_leading_factor_needs_no_scaling(self):
        # b divides a over the integers: the quotient's pair is stored over
        # a's denominator divided by the common factor with b's
        b = Poly([F(1, 10**6), -1])
        a = b * Poly([F(3, 10**9), F(1, 10**3), 7])
        q, r = divmod(a, b)
        assert r.is_zero and q == Poly([F(3, 10**9), F(1, 10**3), 7])
        assert q.scaled()[1] == a.scaled()[1] // b.scaled()[1]

    @settings(max_examples=60)
    @given(unreduced, st.integers(2, 10**40))
    def test_equal_values_over_different_denominators(self, a, k):
        ra, pa = a
        other = _rescaled(pa, k)
        assert other.scaled()[1] != pa.scaled()[1] or not ra
        assert other == pa and pa == other
        assert hash(other) == hash(pa) == hash(Poly(ra))
        assert not other != pa
        bumped = other + Poly.monomial(len(ra), F(1, k))
        assert bumped != pa

    def test_operations_build_no_fraction(self, monkeypatch):
        # the algebra runs on the integer pairs: no coefficient is reduced
        a = _rescaled(Poly([F(1, 3), F(-2, 5), F(7, 2)]), 4)
        b = _rescaled(Poly([F(3, 4), 1]), 9)
        half = F(1, 2)

        def no_fraction(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(F, "__new__", no_fraction)
        a + b, a - b, -a, a * b, a**3, divmod(a * b, b), divmod(a, b), a.scaled()
        a + 1, 3 * a, a - half, divmod(a, half)
        with pytest.raises(AssertionError, match="a Fraction was built"):
            (a * b).coeffs  # the reduced coefficients: built on first read

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poly([1, 0.5]),
            lambda: Poly([F(1, 2), float("nan")]),
            lambda: Poly.constant(0.25),
            lambda: Poly.monomial(3, 2.0),
        ],
    )
    def test_float_coefficients_rejected(self, build):
        with pytest.raises(TypeError):
            build()


class TestEvaluation:
    @settings(max_examples=40)
    @given(small_polys, rationals, rationals)
    def test_horner_matches_naive(self, p, a, b):
        z = ComplexRational.of(a, b)
        naive = ComplexRational.of(0)
        zp = ComplexRational.of(1)
        for c in p.coeffs:
            naive = naive + zp * c
            zp = zp * z
        assert p(z) == naive

    @settings(max_examples=40)
    @given(small_polys, rationals)
    def test_rational_eval_matches_complex_eval(self, p, a):
        assert p(a) == p(ComplexRational.of(a)).re

    @settings(max_examples=40)
    @given(small_polys, st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 40))
    def test_eval_scaled_matches_reference(self, p, nr, ni, den):
        z = ComplexRational(F(nr, den), F(ni, den))
        got = scaled_to_complex(eval_scaled(p, nr, ni, den))
        assert got == p(z)
        a2num, a2den = scaled_abs2(eval_scaled(p, nr, ni, den))
        assert F(a2num, a2den) == p(z).abs2()

    def test_eval_scaled_rejects_bad_den(self):
        with pytest.raises(ValueError):
            eval_scaled(Poly.one(), 1, 0, 0)


class TestDecimalApprox:
    def test_plain_values(self):
        assert decimal_approx(F(0)) == "0"
        assert decimal_approx(F(1)) == "1.00000e+00"
        assert decimal_approx(F(1, 4)) == "2.50000e-01"
        assert decimal_approx(F(-3, 2), sig=3) == "-1.50e+00"

    def test_huge_and_tiny_never_overflow(self):
        # float() would raise or flush to zero on these magnitudes
        tiny = F(1, 10**500)
        huge = F(10**500, 7)
        assert decimal_approx(tiny) == "1.00000e-500"
        assert decimal_approx(huge, sig=4) == "1.429e+499"

    def test_rounding_modes_bracket_the_value(self):
        q = F(2, 3)
        lo = decimal_approx(q, sig=3, mode="floor")
        hi = decimal_approx(q, sig=3, mode="ceil")
        assert lo == "6.66e-01"
        assert hi == "6.67e-01"

    def test_nearest_carries_into_next_exponent(self):
        assert decimal_approx(F(9999, 10000), sig=3) == "1.00e+00"

    @settings(max_examples=150)
    @given(st.fractions(min_value=F(1, 10**9), max_value=10**9))
    def test_floor_ceil_are_one_sided(self, q):
        lo = F(Decimal(decimal_approx(q, sig=6, mode="floor")))
        hi = F(Decimal(decimal_approx(q, sig=6, mode="ceil")))
        assert lo <= q <= hi

    def test_validation(self):
        with pytest.raises(ValueError):
            decimal_approx(F(1), sig=0)
        with pytest.raises(ValueError):
            decimal_approx(F(1), mode="sideways")


def _fraction_json(p: Poly) -> list:
    """The reference serialization: each coefficient reduced by ``Fraction``."""
    ints, den = p.scaled()
    return [format_rational(F(c, den)) for c in ints]


def _row_json(terms: dict, eps: Fraction) -> list:
    """The reference serialization of a term dict {(i, m): a} at ``eps``:
    each coefficient of lam^i summed and reduced as a ``Fraction``."""
    coeffs: dict = {}
    for (i, m), a in terms.items():
        coeffs[i] = coeffs.get(i, 0) + a * eps**m
    return _fraction_json(Poly([coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)]))


# a term dict at eps = 10^-L: coefficients of up to five powers of eps per
# power of lam, each a cofactor prime to 10 (or any integer) times 2^a 5^b,
# either valuation below, at or above L, of either sign; over up to 600
# digits, on both sides of ``family._DECIMAL_DIGITS``
over_ten = st.integers(1, 150).flatmap(
    lambda L: st.tuples(
        st.just(L),
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 4)),
            st.tuples(
                st.integers(-(10**30), 10**30).filter(bool),
                st.integers(0, L + 3),
                st.integers(0, L + 3),
            ).map(lambda t: t[0] * 2 ** t[1] * 5 ** t[2]),
            min_size=1,
            max_size=10,
        ),
    )
)


class TestPowerOfTenSerialization:
    """The family's coefficients written from its form in Z[lam, eps]
    (``family._strings``) against the ``Fraction`` path, byte for byte."""

    @settings(max_examples=300)
    @given(over_ten)
    def test_matches_the_fraction_path(self, case):
        L, terms = case
        eps = F(1, 10**L)
        assert _strings(terms, eps) == _row_json(terms, eps)
        # each coefficient written in decimal, whatever its size
        for i, row in _rows(terms).items():
            text = _decimal_coefficient(row, L)
            assert text is None or [text] == _row_json({(0, m): a for m, a in row.items()}, eps)

    def test_unbalanced_valuations(self, monkeypatch):
        # a * eps at eps = 10^-12, every coefficient offered to decimal:
        # reduced denominators 2^x 5^y with x > y, x < y and x = y, a zero,
        # negative numerators and numerators divisible by more than 10^12,
        # where the lowest term cannot give the valuations and the
        # coefficient is reduced as a Fraction
        monkeypatch.setattr(family_module, "_DECIMAL_DIGITS", 0)
        eps = F(1, 10**12)
        ints = [
            0, 1, -1, 2**3, -(5**4), 2**12 * 3, 5**12 * 7, 10**12, -(10**15) * 13,
            2**20 * 5**2, 2**2 * 5**20, 3 * 2**7 * 5**11,
        ]
        terms = {(i, 1): a for i, a in enumerate(ints) if a}
        got = _strings(terms, eps)
        assert got == _row_json(terms, eps)
        assert got[:4] == ["0/1", "1/1000000000000", "-1/1000000000000", "1/125000000000"]
        assert got[5] == "3/244140625"  # 3 / 5^12

    def test_other_denominators_keep_the_fraction_path(self):
        # an --eps override that is no power of ten: the family's
        # denominators are powers of 7
        fam = build_family(FamilyParams.build(3, eps=F(1, 7**40)))
        blob = fam.to_json()
        for got, p in zip((*blob["P"], blob["f1"], blob["f2"]), (*fam.P, fam.f1, fam.f2)):
            assert p.to_json() == _fraction_json(p) == got
        p = Poly._of([3, -6, 2**9, 0, 25], 2**5 * 10**3)
        assert p.to_json() == _fraction_json(p)

    def test_family_polynomials(self, built_families):
        for fam in built_families.values():
            blob = fam.to_json()
            polys = (*fam.P, fam.f1, fam.f2)
            assert [*blob["P"], blob["f1"], blob["f2"]] == [_fraction_json(p) for p in polys]


@pytest.fixture
def no_int_str_guard():
    """Lift the interpreter's int-to-str digit limit, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


class TestIntStr:
    """``_int_str`` and its divide-and-conquer branch against ``str``."""

    def test_divide_and_conquer_is_str(self, no_int_str_guard):
        rng = random.Random(8)
        for bits in (1, 127, 128, 129, 200, 4000, 12345, _DC_BITS + 1, 100_000):
            for x in (rng.getrandbits(bits), (1 << bits) - 1, 1 << bits, 10 ** (bits // 4)):
                assert _dc_int_str(x) == str(x), bits
                assert _int_str(x) == str(x) and _int_str(-x) == str(-x), bits
        assert _dc_int_str(0) == "0"

    def test_below_and_above_the_threshold(self, no_int_str_guard):
        for x in (10 ** 3000 + 17, 3 ** 20000, 7 ** 40000 - 1):
            assert _int_str(x) == str(x)
