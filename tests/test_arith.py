"""Unit tests for exact scalar and polynomial arithmetic.

Derived expected values are cross-checked against sympy (independent symbolic
oracle) rather than against the code under test.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from noricert.arith import (
    BALL_BITS,
    ComplexRational,
    Poly,
    decimal_approx,
    eval_scaled,
    format_rational,
    parse_rational,
    poly_gcd,
    scaled_abs2,
    scaled_to_complex,
)

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
