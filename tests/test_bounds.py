"""The bracket arithmetic against exact integers and Fractions.

The directed pair operations and the brackets built from them must enclose
the exact values, and ``bracket_lt`` may return a verdict only when it is
the exact one.  ``ball_abs2`` must enclose the exact squared modulus of
``eval_scaled`` wherever it is evaluated, and the balls of
``recursion_balls`` every factor of the built families.  ``bracket_lt``
must decide brackets at and next to powers of two, empty sides and zero
ends exactly, ``ratio_bracket`` and ``product_bracket`` must enclose
their exact values, ``_p_pow`` must keep the pairs of plain square and
multiply, and the exact circle points built without ``Fraction`` (``circle_triples``) must
equal their ``Fraction`` references.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noricert.bounds as bounds
from noricert.arith import (
    ComplexRational,
    Poly,
    as_scaled,
    coefficient_ball,
    eval_scaled,
    scaled_abs2,
)
from noricert.bounds import (
    _BITS,
    _ball_abs2,
    _ball_mul,
    _ball_sub,
    _p_add,
    _p_div,
    _p_lt,
    _p_mul,
    _p_pow,
    _p_sqrt,
    _exponents,
    _hi16,
    _lo16,
    _p_trunc,
    _side_product,
    Values,
    abs2_atoms,
    ball_abs2,
    ball_point,
    bracket_lt,
    constant_factor,
    exact_atom,
    exact_atoms,
    exact_lt,
    gap_bracket,
    int_bracket,
    log2_bounds,
    log16_bounds,
    log16_floor_ceil,
    product_bracket,
    ratio_bracket,
    recursion_balls,
)
from noricert.certify import circle_points, circle_triples
from noricert.sampling import RationalSampler

from atlas_reference import dyadic_in_disk


def _value(pair):
    m, s = pair
    return F(m) * F(2) ** s


def _within16(lo, x, hi):
    """2^(lo/16) <= x <= 2^(hi/16) for a rational x > 0, decided exactly on
    the 16th powers."""
    x16 = F(x) ** 16
    return F(2) ** lo <= x16 <= F(2) ** hi


class TestMantissaBounds:
    """The directed truncation used by the deep-scale fast paths."""

    def test_directed_ops_bracket(self):
        rng = random.Random(7)
        for _ in range(400):
            x = rng.getrandbits(rng.randrange(1, 600)) + 1
            y = rng.getrandbits(rng.randrange(1, 600)) + 1
            e = rng.randrange(1, 8)
            for up in (False, True):
                checks = [
                    (_p_mul(int_bracket(x)[up], int_bracket(y)[up], up), x * y),
                    (_p_pow(int_bracket(x)[up], e, up), x**e),
                    (_p_div(int_bracket(x)[up], int_bracket(y)[not up], up), F(x, y)),
                    (_p_add(int_bracket(x)[up], int_bracket(y)[up], up), x + y),
                ]
                for (m, s), target in checks:
                    value = F(m) * F(2) ** s
                    assert value >= target if up else value <= target
                m, s = _p_sqrt(int_bracket(x)[up], up)
                value = F(m) * F(2) ** s
                assert value * value >= x if up else value * value <= x

    def test_comparison_is_exact(self):
        rng = random.Random(8)
        for _ in range(400):
            a = (rng.getrandbits(rng.randrange(1, 200)), rng.randrange(-400, 400))
            b = (rng.getrandbits(rng.randrange(1, 200)), rng.randrange(-400, 400))
            va = F(a[0]) * F(2) ** a[1]
            vb = F(b[0]) * F(2) ** b[1]
            assert _p_lt(a, b) == (va < vb)

    def test_abs2_bounds_bracket(self):
        rng = random.Random(9)
        for _ in range(200):
            re = rng.randrange(-(10**12), 10**12)
            im = rng.randrange(-(10**12), 10**12)
            den = rng.randrange(1, 10**9)
            lo, hi = ball_abs2(Poly.x(), re, im, den)
            exact = F(re * re + im * im, den * den)
            assert F(lo[0]) * F(2) ** lo[1] <= exact <= F(hi[0]) * F(2) ** hi[1]


class TestGapBracket:
    def test_encloses_the_exact_gap(self):
        # a ~ 2^300 against c of 100-180 bits makes the modulus ratio t as
        # large as about 2^-100 at k = 0; a lower bound of 1 - t must not
        # ignore the width of t's mantissa
        rng = random.Random(1)
        decided = 0
        for _ in range(2000):
            a = rng.getrandbits(300) | (1 << 299)
            c = rng.getrandbits(rng.randrange(100, 181))
            a1, a2 = ball_abs2(Poly.x(), a, 0, 1), ball_abs2(Poly.x(), c, 0, 1)
            for k in range(3):
                gap = gap_bracket(a1, a2, k)
                if gap is None:
                    continue
                decided += 1
                exact = (c ** (k + 1) - a) ** 2
                assert _value(gap[0]) <= exact <= _value(gap[1]), (a, c, k)
        assert decided >= 4000

    def test_brackets_at_every_separation(self):
        # moduli at least 2^3 apart by exponents (48 sixteenths) always get
        # a bracket, within the exponents of the larger term widened by 2
        # powers of two below and 1 above; closer moduli get a bracket or
        # None
        rng = random.Random(2)
        kinds = Counter()
        for _ in range(3000):
            a = rng.getrandbits(rng.randrange(1, 400)) + 1
            c = rng.getrandbits(rng.randrange(1, 200)) + 1
            k = rng.randrange(3)
            if rng.random() < 0.3:  # |f1| within a factor 8 of |f2|^(k+1)
                a = max(1, c ** (k + 1) * rng.randrange(1, 9) // rng.randrange(1, 9))
            a1, a2 = ball_abs2(Poly.x(), a, 0, 1), ball_abs2(Poly.x(), c, 0, 1)
            (e1_lo, e1_hi), (e2_lo, e2_hi) = _exponents(a1), _exponents(a2)
            if rng.random() < 0.5:
                a2 = ratio_bracket(c * c, 1)
                e2_lo, e2_hi = log16_bounds(c * c, 1)
            gap = gap_bracket(a1, a2, k)
            exact = F((c ** (k + 1) - a) ** 2)
            p_lo, p_hi = (k + 1) * e2_lo, (k + 1) * e2_hi
            if p_hi + 48 <= e1_lo or e1_hi + 48 <= p_lo:
                kinds["separated"] += 1
                lo, hi = (e1_lo - 32, e1_hi + 16) if p_hi < e1_lo else (p_lo - 32, p_hi + 16)
                assert _value(gap[0]) <= exact <= _value(gap[1])
                assert _within16(lo, _value(gap[0]), hi) and _within16(lo, _value(gap[1]), hi)
            elif gap is not None:
                kinds["bracket"] += 1
                assert _value(gap[0]) <= exact <= _value(gap[1])
            else:
                kinds["none"] += 1
        assert min(kinds["separated"], kinds["bracket"], kinds["none"]) > 100


def _exact(x):
    return int_bracket(x), F(x)


class TestBracketLt:
    """Whenever ``bracket_lt`` returns a verdict, it is the exact one."""

    @staticmethod
    def _factor(rng, size):
        """A random bracket with its exact value: an integer or an abs2."""
        if rng.random() < 0.5:
            return _exact(rng.getrandbits(rng.randrange(1, size + 1)))
        re, im = (rng.getrandbits(rng.randrange(1, size + 1)) for _ in range(2))
        den = rng.getrandbits(rng.randrange(1, size + 1)) + 1
        return ball_abs2(Poly.x(), re, im, den), F(re * re + im * im, den * den)

    @staticmethod
    def _verdicts(lhs, rhs):
        """(strict, closed) verdicts, each checked against the exact one."""
        left = math.prod(v for _, v in lhs)
        right = math.prod(v for _, v in rhs)
        out = []
        for closed in (False, True):
            verdict = bracket_lt(
                [b for b, _ in lhs], [b for b, _ in rhs], closed=closed
            )
            if verdict is not None:
                assert verdict == (left <= right if closed else left < right)
            out.append(verdict)
        return tuple(out)

    def test_random_products(self):
        rng = random.Random(41)
        decided = 0
        for _ in range(400):
            size = rng.choice([1, 64, 300, 2000])
            lhs = [self._factor(rng, size) for _ in range(rng.randrange(0, 5))]
            rhs = [self._factor(rng, size) for _ in range(rng.randrange(0, 5))]
            decided += sum(v is not None for v in self._verdicts(lhs, rhs))
        assert decided >= 700

    def test_exact_ties(self):
        rng = random.Random(42)
        for bits in (50, 150, 1000, 20_000):
            x, y, z = (rng.getrandbits(bits) | 1 for _ in range(3))
            # the same product in different factorizations
            for lhs, rhs in (
                ([x, y], [y, x]),
                ([x * y, z], [x, y * z]),
                ([x, x, y], [x * x * y]),
            ):
                strict, closed = self._verdicts(
                    [_exact(v) for v in lhs], [_exact(v) for v in rhs]
                )
                assert strict is not True and closed is not False
                if bits <= 50:
                    # factors and products within 192 bits are held exactly
                    assert (strict, closed) == (False, True)

    def test_near_ties(self):
        # a relative gap of 2^-100 separates at 192 bits; 2^-400 may be left
        # open, but is never decided wrongly
        rng = random.Random(43)
        for gap in (100, 400):
            for bits in (gap + 50, 5000):
                x = rng.getrandbits(bits) | (1 << (bits - 1))
                y = rng.getrandbits(bits) | (1 << (bits - 1))
                for bumped in (x * y + ((x * y) >> gap), x * y - ((x * y) >> gap)):
                    lhs, rhs = [_exact(bumped)], [_exact(x), _exact(y)]
                    verdicts = self._verdicts(lhs, rhs) + self._verdicts(rhs, lhs)
                    if gap == 100:
                        assert None not in verdicts

    def test_zero_factors(self):
        zero, big = _exact(0), _exact(3 << 500)
        assert self._verdicts([zero], [zero]) == (False, True)
        assert self._verdicts([zero, big], [big]) == (True, True)
        assert self._verdicts([big], [big, zero]) == (False, False)
        assert self._verdicts([], [big]) == (True, True)


def _encloses(bracket, triple):
    """lo <= |re + i im|^2 / den^2 <= hi, decided on integers."""
    re, im, den = triple
    num, q = re * re + im * im, den * den
    for (m, s), up in zip(bracket, (False, True)):
        left, right = (m << s) * q if s >= 0 else m * q, num if s >= 0 else num << -s
        if up:
            assert left >= right
        else:
            assert left <= right


def _rationals(max_bits):
    return st.builds(
        lambda num, den: F(num, den),
        st.integers(-(2**max_bits), 2**max_bits),
        st.integers(1, 2**max_bits),
    )


_COEFF_BITS = st.sampled_from([8, 200, 2000, 20_000])


@st.composite
def _polys(draw):
    bits = draw(_COEFF_BITS)
    return Poly(draw(st.lists(_rationals(bits), max_size=26)))


@st.composite
def _points(draw):
    """(num_re, num_im, den) with den = d * 10^e, scales down to 10^-1000."""
    num_re = draw(st.integers(-(2**300), 2**300))
    num_im = draw(st.integers(-(2**300), 2**300))
    den = draw(st.integers(1, 2**64)) * 10 ** draw(st.integers(0, 1000))
    return num_re, num_im, den


class TestBallAbs2:
    """Ball Horner encloses the exact squared modulus at every point."""

    @settings(max_examples=60, deadline=None)
    @given(_polys(), _points())
    def test_encloses_exact_value(self, poly, point):
        _encloses(ball_abs2(poly, *point), eval_scaled(poly, *point))

    @settings(max_examples=30, deadline=None)
    @given(_polys(), _points())
    def test_exact_root_total_cancellation(self, cofactor, point):
        # p = (z - num / den) q and (den z - num) q vanish exactly at
        # z = num / den; the second has exact binary coefficients when q has,
        # so only the width of the ball of z keeps the bracket down at zero
        num, _, den = point
        for linear in (Poly((-F(num, den), 1)), Poly((-num, den))):
            for q in (cofactor, Poly.one()):
                poly = linear * q
                lo, hi = ball_abs2(poly, num, 0, den)
                assert lo[0] == 0
                _encloses((lo, hi), eval_scaled(poly, num, 0, den))

    @settings(max_examples=200, deadline=None)
    @given(_points())
    def test_point_ball_encloses_the_point(self, point):
        num_re, num_im, den = point
        re, im, rad, e = ball_point(num_re, num_im, den)
        err2 = (F(num_re, den) - re * F(2) ** e) ** 2 + (
            F(num_im, den) - im * F(2) ** e
        ) ** 2
        assert err2 <= (rad * F(2) ** e) ** 2
        assert (rad == 0) == (err2 == 0)
        assert max(abs(re), abs(im)).bit_length() >= _BITS or num_re == num_im == 0

    def test_seeded_near_roots_and_spread_coefficients(self):
        # three kinds of 200 cases each: dense random coefficients, a few
        # roots within 2^-400 of the (real) point, and sparse coefficients
        # spread over 2^+-3000, where the ball takes over or absorbs terms
        rng = random.Random(17)
        for kind in range(3):
            for _ in range(200):
                bits = rng.choice([4, 60, 200, 2000])
                den = rng.randrange(1, 2**64) * 10 ** rng.choice([0, 5, 50, 300])
                top = 2 ** rng.choice([1, 8, 300])  # z = 0 now and then
                num_re = rng.randrange(-top, top)
                num_im = 0 if kind == 1 else rng.randrange(-top, top)
                deg = rng.randrange(0, 26)

                def coeff():
                    return F(rng.randrange(-(2**bits), 2**bits), rng.randrange(1, 2**bits))

                if kind == 0:
                    poly = Poly([coeff() for _ in range(deg + 1)])
                elif kind == 1:
                    poly = Poly([coeff()])
                    for _ in range(deg % 6):
                        near = F(rng.randrange(-10, 10), den * 2 ** rng.randrange(400))
                        poly = poly * Poly((-(F(num_re, den) + near), 1))
                else:
                    poly = Poly([
                        coeff().numerator * F(2) ** rng.randrange(-3000, 3000)
                        if rng.random() < 0.5 else 0
                        for _ in range(deg + 1)
                    ])
                point = (num_re, num_im, den)
                _encloses(ball_abs2(poly, *point), eval_scaled(poly, *point))

    def test_zero_polynomial_and_constants(self):
        assert ball_abs2(Poly.zero(), 3, 4, 5) == ((0, 0), (0, 0))
        # at z = 0 only the constant term is left, however small
        tiny = Poly((F(1, 2**1000), 1))
        lo, hi = ball_abs2(tiny, 0, 0, 1)
        assert _value(lo) == _value(hi) == F(1, 2**2000)
        for c in (F(5), F(-1, 3), F(7, 2**10), F(10**6000 + 1, 3**4000)):
            lo, hi = ball_abs2(Poly.constant(c), 12345, -6789, 10**900)
            _encloses((lo, hi), eval_scaled(Poly.constant(c), 1, 0, 1))
        # a coefficient that is exact in binary gives a point bracket
        lo, hi = ball_abs2(Poly.constant(F(-3, 4)), 1, 1, 7)
        assert _value(lo) == _value(hi) == F(9, 16)

    def test_deep_scale_is_tight(self):
        # the chart-3 ladder scale of n = 4: the bracket is about 2^-180 wide
        rng = random.Random(5)
        poly = Poly([F(rng.getrandbits(20_000) + 1, rng.getrandbits(20_000) + 1)
                     for _ in range(22)])
        den = 2**8 * 10**914
        lo, hi = ball_abs2(poly, 200, -77, den)
        _encloses((lo, hi), eval_scaled(poly, 200, -77, den))
        width = _value(hi) - _value(lo)
        assert width * 2**170 < _value(lo)

    def test_rejects_bad_den(self):
        with pytest.raises(ValueError):
            ball_abs2(Poly.one(), 1, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(_polys(), _points())
    def test_encloses_the_exact_square_without_a_root(self, poly, point):
        # the epilogue bounds |m| by |re| + |im| and takes no square root
        def no_isqrt(_):
            raise AssertionError("ball_abs2 took a square root")

        real = math.isqrt
        bounds.math.isqrt = no_isqrt
        try:
            bracket = ball_abs2(poly, *point)
        finally:
            bounds.math.isqrt = real
        num, den = scaled_abs2(eval_scaled(poly, *point))
        lo, hi = bracket
        assert _value(lo) <= F(num, den) <= _value(hi)

    @settings(max_examples=40, deadline=None)
    @given(_polys(), _points(), st.integers(300, 600))
    def test_values_below_the_radius_give_a_zero_lower_end(self, cofactor, point, depth):
        # p = (z - w) q with w within 2^-depth |z| of z = num_re/den: |p(z)|
        # is below one unit of the ball's last bit, and the lower end is
        # (0, 0)
        num_re, _, den = point
        num_re = num_re or 1  # z = 0 is an exact ball
        shift = F(num_re, den * 2**depth)
        linear = Poly((-(F(num_re, den) + shift), 1))
        for q in (cofactor, Poly.one()):
            poly = linear * q
            lo, hi = ball_abs2(poly, num_re, 0, den)
            assert lo == (0, 0)
            _encloses((lo, hi), eval_scaled(poly, num_re, 0, den))

    def test_an_exact_root_gives_zero_ends(self):
        # z = 3/4 and the coefficients of (z - 3/4)(z + 5/8) are exact in
        # binary: the value is 0, the lower end (0, 0), and the upper end a
        # few units of the last bit, squared
        poly = Poly((F(-3, 4), 1)) * Poly((F(5, 8), 1))
        assert ball_point(3, 0, 4)[2] == 0
        lo, hi = ball_abs2(poly, 3, 0, 4)
        assert lo == (0, 0)
        assert 0 < _value(hi) < F(1, 2 ** (2 * _BITS - 16))

    def test_relative_width_is_about_2_to_the_minus_180(self):
        # away from cancellation (|p(z)| at least 2^-8 of sum |c_i| |z|^i)
        # the bracket is at most 2^-170 wide relative to its lower end, at
        # every coefficient size and at the scales of the ladders
        rng = random.Random(31)
        checked = 0
        for _ in range(300):
            bits = rng.choice([8, 60, 200, 2000])
            deg = rng.randrange(0, 22)
            poly = Poly([
                F(rng.randrange(-(2**bits), 2**bits), rng.randrange(1, 2**bits))
                for _ in range(deg + 1)
            ])
            den = rng.randrange(1, 2**16) * 10 ** rng.choice([0, 3, 30, 300])
            top = 2 ** rng.choice([16, 40, 200])
            point = (rng.randrange(-top, top), rng.randrange(-top, top), den)
            z = ComplexRational(F(point[0], den), F(point[1], den))
            value = poly(z).abs2()
            # sum |c_i| |z|^i, |z| rounded down to 200 bits
            modulus = F(math.isqrt(int(z.abs2() * 2**400)), 2**200)
            scale = sum(abs(c) * modulus**i for i, c in enumerate(poly.coeffs))
            if value * 2**16 < scale * scale:
                continue
            lo, hi = ball_abs2(poly, *point)
            assert (_value(hi) - _value(lo)) * 2**170 < _value(lo)
            checked += 1
        assert checked > 200


class TestAtoms:
    """``exact_atoms`` is the one size rule, ``abs2_atoms`` builds by it."""

    def test_the_size_bound_is_on_the_stored_integers(self):
        limit = 2 * _BITS
        assert exact_atoms(()) == ()
        assert exact_atoms((Poly.zero(), Poly.one(), Poly.x())) == (True, True, True)
        top = Poly((2**limit - 1, 1))
        over = Poly((2**limit, 1))
        # a denominator over the bound, with numerators under it
        fine = Poly((F(1, 2**limit - 1), 1))
        wide = Poly((F(1, 2**limit), F(1, 3)))
        assert exact_atoms((top, over, fine, wide)) == (True, False, True, False)
        assert wide.scaled()[1].bit_length() == limit + 2

    @settings(max_examples=60, deadline=None)
    @given(_polys(), _points())
    def test_atoms_enclose_the_exact_square(self, poly, point):
        exact, = exact_atoms((poly,))
        (raw,), (exps,), _ = abs2_atoms((poly,), (exact,), *point)
        num, den = scaled_abs2(eval_scaled(poly, *point))
        # an exact atom is the unreduced integer pair, bracketed by
        # ratio_bracket; a ball atom is the bracket itself, and the exact
        # pair where the bracket reaches 0
        if not exact:
            bracket = ball_abs2(poly, *point)
            assert exact_atom(raw) == (bracket[0] == (0, 0))
            exact = exact_atom(raw)
        atom = ratio_bracket(*raw) if exact else raw
        if exact:
            assert exps == (log16_bounds(*raw) if raw[0] else None)
        else:
            assert exps == _exponents(raw)
        lo, hi = atom
        assert _value(lo) <= F(num, den) <= _value(hi)
        if num == 0:
            assert exps is None
        elif exps is not None:
            assert _within16(exps[0], F(num, den), exps[1])
        if exact:
            # the atom is the exact square itself, with exponents at most
            # two sixteenths apart
            assert raw == (num, den)
            assert num == 0 or exps == log16_bounds(num, den) and exps[1] - exps[0] <= 2

    def test_one_ball_point_only_when_a_ball_atom_needs_it(self, monkeypatch):
        made = Counter()
        real = bounds.ball_point

        def counted(*lam):
            made["balls"] += 1
            return real(*lam)

        monkeypatch.setattr(bounds, "ball_point", counted)
        small, big = Poly((F(1, 3), 1)), Poly((F(1, 3**300), 1))
        atoms, _, zeros = abs2_atoms((small, small), (True, True), 3, 4, 7)
        assert made["balls"] == zeros == 0
        assert atoms == [scaled_abs2(eval_scaled(small, 3, 4, 7))] * 2
        atoms, _, zeros = abs2_atoms((big, small, big), (False, True, False), 3, 4, 7)
        assert made["balls"] == 1 and zeros == 0
        assert atoms[1] == scaled_abs2(eval_scaled(small, 3, 4, 7))
        assert atoms[0] == atoms[2] == ball_abs2(big, 3, 4, 7)


    def test_a_ball_that_reaches_zero_gets_the_exact_atom(self):
        # lam - 1/3 = 2^-400 is below the ball's resolution: the bracket of
        # the line (times 1 + 3^-300 lam, above the size bound) reaches 0,
        # and the atom is the exact square, positive; at lam = 1/3 it is an
        # exact 0, without exponents; either way the zero rule counts it
        line = Poly((F(-1, 3), 1)) * Poly((1, F(1, 3**300)))
        assert exact_atoms((line,)) == (False,)
        near = (2**400 + 3, 0, 3 * 2**400)
        assert ball_abs2(line, *near)[0] == (0, 0)
        (atom,), (exps,), zeros = abs2_atoms((line,), (False,), *near)
        num, den = scaled_abs2(eval_scaled(line, *near))
        assert exact_atom(atom) and atom == (num, den) and num > 0 and zeros == 1
        assert exps == log16_bounds(num, den)
        (atom,), (exps,), zeros = abs2_atoms((line,), (False,), 1, 0, 3)
        assert atom[0] == 0 and exps is None and zeros == 1
        # Values brackets each atom by its own kind
        values = Values((line, Poly.x()), *near, exact=(False, False))
        assert exact_atom(values.abs2[0]) and not exact_atom(values.abs2[1])
        assert values.brackets == (ratio_bracket(num, den), values.abs2[1])
        assert values.lt((0,), (constant_factor(F(num, den)),), closed=True) is True
        assert not values.evaluated


def _ball_contains(w, triple):
    """Whether the complex ball ``w = (re, im, rad, e)`` contains
    (x + i y)/d, decided on integers."""
    re, im, rad, e = w
    x, y, d = triple
    if e <= 0:
        dx, dy, r = (x << -e) - re * d, (y << -e) - im * d, rad * d
    else:
        dx, dy, r = x - ((re * d) << e), y - ((im * d) << e), (rad * d) << e
    return dx * dx + dy * dy <= r * r


def _chain_constants(fam):
    """The coefficient balls of e_k = eps^(c_k), k = 1..n-1."""
    return tuple(coefficient_ball(fam.params.eps**c) for c in fam.params.c)


@st.composite
def _chain_points(draw, n):
    """A point of the disk trace at size n: a cone-window witness draw, a
    ladder-like point at a decimal scale up to 920, the root of P_(n-1), or
    lam = 0."""
    kind = draw(st.sampled_from(("witness", "ladder", "root", "zero")))
    if kind == "witness":
        sampler = RationalSampler("cone-window", n, draw(st.integers(0, 2**16)))
        a, b, den = dyadic_in_disk(sampler, 2)
        return a, b, den * 10 ** draw(st.integers(0, 12))
    if kind == "ladder":
        a, b = draw(st.integers(-(2**8), 2**8)), draw(st.integers(-(2**8), 2**8))
        return a, b, 2**8 * 10 ** draw(st.integers(0, 920))
    if kind == "root":
        return None
    return 0, 0, 1


class TestRecursionBalls:
    """``recursion_balls`` encloses every factor of the built families."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.data())
    def test_chain_balls_enclose_every_factor(self, built_families, n, data):
        fam = built_families[n]
        lam = data.draw(_chain_points(n))
        if lam is None:
            root = fam.params.eps ** fam.params.c[-1]
            lam = root.numerator, 0, root.denominator
        balls = recursion_balls(_chain_constants(fam), ball_point(*lam))
        assert len(balls) == n - 1
        for j, w in enumerate(balls, start=1):
            triple = eval_scaled(fam.Pk(j), *lam)
            assert _ball_contains(w, triple)
            _encloses(_ball_abs2(w), triple)

    def test_two_products_per_factor(self, built_families, monkeypatch):
        # n - 1 constant steps and 2 (n - 2) products, no Horner
        fam = built_families[4]
        made = Counter()
        real = bounds._ball_mul

        def counted(a, b):
            made["products"] += 1
            return real(a, b)

        monkeypatch.setattr(bounds, "_ball_mul", counted)
        monkeypatch.setattr(bounds, "ball_abs2", None)
        atoms, _, zeros = abs2_atoms(
            fam.P, (False,) * 3, 3, -5, 2**8 * 10**20, _chain_constants(fam)
        )
        assert made["products"] == 4 and zeros == 0
        for poly, atom in zip(fam.P, atoms):
            _encloses(atom, eval_scaled(poly, 3, -5, 2**8 * 10**20))

    @settings(max_examples=200, deadline=None)
    @given(_rationals(300), _rationals(300), _rationals(300), _points())
    def test_ball_steps_enclose(self, c, x, y, point):
        # c - (x + i y) z and (x + i y) z at a ball of z
        product = _ball_mul(_ball_of(x, y), ball_point(*point))
        num_re, num_im, den = point
        px, py = x.numerator * y.denominator, y.numerator * x.denominator
        q = x.denominator * y.denominator
        # (px + i py)/q times (num_re + i num_im)/den
        exact = (px * num_re - py * num_im, px * num_im + py * num_re, q * den)
        assert _ball_contains(product, exact)
        diff = _ball_sub(coefficient_ball(c), product)
        cn, cd = c.numerator, c.denominator
        d = exact[2]
        assert _ball_contains(diff, (cn * d - exact[0] * cd, -exact[1] * cd, cd * d))


def _ball_of(x, y):
    """The complex ball of x + i y from the coefficient balls of x and y,
    brought to one exponent."""
    (mx, ex, rx), (my, ey, ry) = coefficient_ball(x), coefficient_ball(y)
    e = min(ex, ey)
    return mx << (ex - e), my << (ey - e), (rx << (ex - e)) + (ry << (ey - e)), e


def _product_stage(lhs, rhs, closed):
    """The verdict of ``bracket_lt``'s 192-bit product stage alone."""
    bits = max([_BITS] + [hi[0].bit_length() for _, hi in (*lhs, *rhs)])
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


def _sound(lhs, rhs, closed, verdict):
    """A verdict holds for every choice of values inside the brackets."""
    l_lo = math.prod(_value(lo) for lo, _ in lhs)
    l_hi = math.prod(_value(hi) for _, hi in lhs)
    r_lo = math.prod(_value(lo) for lo, _ in rhs)
    r_hi = math.prod(_value(hi) for _, hi in rhs)
    if verdict is True:
        assert l_hi <= r_lo if closed else l_hi < r_lo
    elif verdict is False:
        assert l_lo > r_hi if closed else l_lo >= r_hi


def _power_of_two_bracket(rng):
    """A bracket touching a power of two: a point on it, or an end on it."""
    e = rng.randrange(-300, 300)
    kind = rng.randrange(3)
    if kind == 0:
        return (1, e), (1, e)
    if kind == 1:  # [2^e - ulp, 2^e]
        return ((1 << _BITS) - 1, e - _BITS), (1, e)
    return (1, e), ((1 << _BITS) + 1, e - _BITS)  # [2^e, 2^e + ulp]


class TestExponentStage:
    """``bracket_lt`` at and next to powers of two, on empty sides and on
    zero ends, where a comparison of exponents alone is hardest to get
    right."""

    def test_agrees_with_the_product_stage(self):
        # random sides mixing integers, squared moduli, zero lower ends and
        # brackets at or next to powers of two: bracket_lt returns the
        # verdict of the product stage, and every verdict is sound
        rng = random.Random(44)
        for _ in range(3000):
            sides = []
            for _ in range(2):
                side = []
                for _ in range(rng.randrange(0, 5)):
                    pick = rng.random()
                    if pick < 0.4:
                        side.append(_power_of_two_bracket(rng))
                    elif pick < 0.45:
                        side.append(((0, 0), (rng.getrandbits(100) + 1, -50)))
                    else:
                        size = rng.choice([1, 64, 300])
                        side.append(TestBracketLt._factor(rng, size)[0])
                sides.append(side)
            for closed in (False, True):
                verdict = bracket_lt(*sides, closed=closed)
                assert verdict == _product_stage(*sides, closed)
                _sound(*sides, closed, verdict)

    def test_empty_sides_are_one(self):
        one, two, half = ((1, 0), (1, 0)), ((1, 1), (1, 1)), ((1, -1), (1, -1))
        below_one = (((1 << _BITS) - 1, -_BITS), ((1 << _BITS) - 1, -_BITS))
        above_one = (((1 << _BITS) + 1, -_BITS), ((1 << _BITS) + 1, -_BITS))
        cases = [
            ([], [], F(1), F(1)),
            ([], [one], F(1), F(1)),
            ([one], [], F(1), F(1)),
            ([], [two], F(1), F(2)),
            ([two], [], F(2), F(1)),
            ([], [half], F(1), F(1, 2)),
            ([half], [], F(1, 2), F(1)),
            ([], [below_one], F(1), _value(below_one[0])),
            ([], [above_one], F(1), _value(above_one[0])),
            ([below_one], [], _value(below_one[0]), F(1)),
            ([above_one], [], _value(above_one[0]), F(1)),
        ]
        for lhs, rhs, left, right in cases:
            assert bracket_lt(lhs, rhs) == (left < right), (lhs, rhs)
            assert bracket_lt(lhs, rhs, closed=True) == (left <= right), (lhs, rhs)
            for closed in (False, True):
                verdict = bracket_lt(lhs, rhs, closed=closed)
                assert verdict == _product_stage(lhs, rhs, closed)

    def test_zero_lower_ends_skip_the_stage(self):
        # [0, 2^-50] against 2^-40 is decided by the products; two sides
        # that both reach 0 are left open
        near_zero = ((0, 0), (1, -50))
        tiny = ((1, -40), (1, -40))
        for closed in (False, True):
            assert bracket_lt([near_zero], [tiny], closed=closed) is True
            assert bracket_lt([tiny], [near_zero], closed=closed) is False
            assert bracket_lt([tiny], [tiny, near_zero], closed=closed) is False
            assert bracket_lt([near_zero, tiny], [near_zero], closed=closed) is None
        zero = ((0, 0), (0, 0))
        assert bracket_lt([zero], [tiny]) is True
        assert bracket_lt([zero], [zero]) is False
        assert bracket_lt([zero], [zero], closed=True) is True

    def test_an_exact_zero_side_decides_by_sign(self):
        # a side holding an exact zero (a bracket up to 0, a zero ratio, or
        # a product with a zero atom) is 0: against a positive side 0 < x
        # and 0 <= x hold, x < 0 and x <= 0 fail, and two zero sides are
        # equal; the verdicts are those of the product stage
        tiny = ((1, -40), (1, -40))
        zeros = [
            ((0, 0), (0, 0)),
            ratio_bracket(0, 7),
            product_bracket([ratio_bracket(0, 3), tiny], (1, 2)),
        ]
        for zero in zeros:
            for other in ([tiny], [tiny, tiny], [], [ratio_bracket(5, 3)]):
                for closed in (False, True):
                    assert bracket_lt([zero, tiny], other, closed=closed) is True
                    assert bracket_lt(other, [zero], closed=closed) is False
                    assert bracket_lt([zero], [tiny, zero], closed=closed) is closed
        for closed in (False, True):
            plain = [[((0, 0), (0, 0)), tiny], [tiny]]
            assert bracket_lt(*plain, closed=closed) == _product_stage(*plain, closed)
            assert bracket_lt(*plain[::-1], closed=closed) == _product_stage(
                *plain[::-1], closed
            )

    def test_powers_of_two_at_the_boundary(self):
        # 2^a against 2^b, and against a value one ulp on either side of
        # 2^b, for a - b in -2..2: the verdicts are the exact ones
        ulp_below = ((1 << _BITS) - 1, -_BITS)
        ulp_above = ((1 << _BITS) + 1, -_BITS)
        for a in (-200, -1, 0, 1, 190, 192, 193, 700):
            for d in range(-2, 3):
                b = a + d
                for factor in ((1, 0), ulp_below, ulp_above):
                    x = (1, a)
                    y = (factor[0], factor[1] + b)
                    lhs, rhs = [(x, x)], [(y, y)]
                    left, right = _value(x), _value(y)
                    assert bracket_lt(lhs, rhs) == (left < right)
                    assert bracket_lt(lhs, rhs, closed=True) == (left <= right)
                    assert bracket_lt(rhs, lhs) == (right < left)
                    assert bracket_lt(rhs, lhs, closed=True) == (right <= left)
                    # split the power into two factors: 2^a = 2^(a-3) 2^3
                    split = [((1, a - 3), (1, a - 3)), ((1, 3), (1, 3))]
                    assert bracket_lt(split, rhs) == (left < right)
                    assert bracket_lt(split, rhs, closed=True) == (left <= right)


def _exact_power_of_two_bounds(exponents, value):
    lo, hi = exponents
    assert _within16(lo, value, hi)


def _extreme_ratios():
    """num/den at the ends of the ranges their bit lengths allow."""
    for bn in (1, 2, 5, 64, 193, 700):
        for bd in (1, 2, 7, 192, 400):
            for num in (1 << (bn - 1), (1 << bn) - 1):
                for den in (1 << (bd - 1), (1 << bd) - 1):
                    yield num, den


class TestSixteenths:
    """``_lo16``, ``_hi16`` and ``log16_bounds`` enclose 16 log2 of the exact
    value: the image exponents, in sixteenths of a power of two."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(1, 255),
            st.integers(0, 400).map(lambda j: 1 << j),
            st.integers(1, 1 << 400),
        ),
        st.integers(-600, 600),
    )
    def test_mantissa_bounds_enclose_the_exact_logarithm(self, m, s):
        lo, hi = _lo16(m, s), _hi16(m, s)
        assert _within16(lo, F(m) * F(2) ** s, hi)
        # exact at a power of two, floor and ceil of one value below 256,
        # and at most 2 apart from the top 8 bits
        if m & (m - 1) == 0:
            assert lo == hi == 16 * (s + m.bit_length() - 1)
        assert hi - lo <= (1 if m < 256 else 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1 << 400), st.integers(1, 10**2000))
    def test_ratio_bounds_enclose_the_exact_logarithm(self, num, den):
        lo, hi = log16_bounds(num, den)
        assert _within16(lo, F(num, den), hi)
        assert hi - lo <= 2
        # the top 8 bits of the exact quotient: inside the exponents of
        # its 192-bit bracket
        b_lo, b_hi = _exponents(ratio_bracket(num, den))
        assert b_lo <= lo <= hi <= b_hi

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10**2000), st.integers(0, 2000))
    def test_ratio_at_a_power_of_two_is_exact(self, m, j):
        assert log16_bounds(m << j, m) == (16 * j, 16 * j)
        assert log16_bounds(m, m << j) == (-16 * j, -16 * j)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.integers(1, 1 << 400), st.integers(0, 400).map(lambda j: 1 << j)),
        st.one_of(st.integers(1, 10**600), st.integers(0, 2000).map(lambda j: 1 << j)),
    )
    def test_constants_get_the_floor_and_ceil(self, num, den):
        assert log16_floor_ceil(num, den) == log2_bounds(num**16, den**16)

    def test_constants_next_to_a_power_of_two_fall_back_to_exact(self, monkeypatch):
        # x/2^300 just below and x+1/2^300 just above 2^(1/16): their 16th
        # powers lie within 2^-280 of 2, inside the directed 16th power of
        # the 192-bit bracket, so the exact powers decide
        n = 1 << (1 + 16 * 300)
        x = 1 << (n.bit_length() // 16 + 1)
        while (y := (15 * x + n // x**15) // 16) < x:
            x = y
        assert x**16 <= n < (x + 1) ** 16
        exact = Counter()
        real = bounds.log2_bounds

        def counted(*args):
            exact["calls"] += 1
            return real(*args)

        monkeypatch.setattr(bounds, "log2_bounds", counted)
        assert log16_floor_ceil(x, 1 << 300) == (0, 1)
        assert log16_floor_ceil(x + 1, 1 << 300) == (1, 2)
        assert exact["calls"] == 2
        assert log16_floor_ceil(3, 1) == (25, 26) and exact["calls"] == 2

    def test_constant_factors_carry_their_exponents(self):
        assert constant_factor(F(0))[4] is None
        for q in (F(1), F(1, 49), F(9, 100), F(3**200, 7**90)):
            assert constant_factor(q)[4] == log16_bounds(q.numerator, q.denominator)


class TestFactors:
    """``ratio_bracket``, ``log16_bounds`` and ``product_bracket``: the
    factors of ``bracket_lt`` and their exponents."""

    def test_ratio_exponents_at_the_ends_of_their_ranges(self):
        # num = 2^(bn-1) over den = 2^bd - 1 is the smallest quotient the
        # bit lengths allow, just above 2^(bn-1-bd); the largest is just
        # below 2^(bn-bd+1); the exponents are at most two sixteenths of a
        # power of two apart, and equal at a power of two
        for num, den in _extreme_ratios():
            lo, hi = log16_bounds(num, den)
            assert _within16(lo, F(num, den), hi)
            assert hi - lo <= 2
            if den & (den - 1) == 0 and num & (num - 1) == 0:
                assert lo == hi == 16 * (num.bit_length() - den.bit_length())

    def test_ratio_bracket_encloses_the_quotient(self):
        rng = random.Random(31)
        cases = list(_extreme_ratios())
        for _ in range(300):
            num = rng.getrandbits(rng.randrange(1, 3000))
            cases.append((num, rng.getrandbits(rng.randrange(1, 3000)) + 1))
        for num, den in cases:
            lo, hi = ratio_bracket(num, den)
            assert _value(lo) <= F(num, den) <= _value(hi)
            if num:
                assert lo[0].bit_length() in (_BITS, _BITS + 1) and hi[0] - lo[0] <= 1
                _exact_power_of_two_bounds(log16_bounds(num, den), _value(lo))
                _exact_power_of_two_bounds(log16_bounds(num, den), _value(hi))
        exact = ratio_bracket(3 << 500, 1 << 200)
        assert exact[0] == exact[1]
        assert _value(exact[0]) == 3 << 300

    def test_zero_ratio(self):
        # an exact zero atom has no exponents
        (exps,) = abs2_atoms((Poly.zero(),), (True,), 1, 2, 3)[1]
        assert exps is None
        assert ratio_bracket(0, 7) == ((0, 0), (0, 0))

    def test_exponents_of_brackets_and_factors(self):
        # 16 log2(5 2^300) = 4837.15...: between the whole powers 302 and
        # 303, and between the sixteenths 4837 and 4838
        bracket = int_bracket(5 << 300)
        assert _exponents(bracket) == (4837, 4838)
        assert _exponents(ratio_bracket(5 << 300, 1)) == log16_bounds(5 << 300, 1) == (4837, 4838)
        assert _exponents(((0, 0), (1, 0))) is None
        assert _exponents(int_bracket(1 << 300)) == log16_bounds(1 << 300, 1) == (4800, 4800)

    def test_log2_bounds_are_the_floor_and_ceil(self):
        # at, just below and just above powers of two, and drawn ratios
        rng = random.Random(34)
        cases = [(1, 1), (8, 1), (1, 8), (3, 24), (7, 8), (9, 8), (2**400 - 1, 2**200)]
        cases += [(2**200 + 1, 2**400), (3, 2), (2, 3)]
        for _ in range(500):
            num = rng.getrandbits(rng.randrange(1, 300)) + 1
            den = rng.getrandbits(rng.randrange(1, 300)) + 1
            cases.append((num, den))
        for num, den in cases:
            lo, hi = log2_bounds(num, den)
            q = F(num, den)
            assert F(2) ** lo <= q <= F(2) ** hi
            assert hi - lo == (0 if q == F(2) ** lo else 1)
            # the sixteenths lie within the whole powers of two
            lo16, hi16 = log16_bounds(num, den)
            assert 16 * lo <= lo16 <= hi16 <= 16 * hi

    def test_products_enclose_the_exact_products(self):
        # atoms mixing ratios, integer brackets, ball-like brackets and a
        # power-of-two bracket; powers 0..4
        rng = random.Random(32)
        for _ in range(400):
            atoms, values = [], []
            for _ in range(rng.randrange(1, 6)):
                pick = rng.random()
                if pick < 0.3:
                    num = rng.getrandbits(rng.randrange(1, 400)) + 1
                    den = rng.getrandbits(rng.randrange(1, 400)) + 1
                    atoms.append(ratio_bracket(num, den))
                    values.append((F(num, den), F(num, den)))
                elif pick < 0.5:
                    atoms.append(_power_of_two_bracket(rng))
                    values.append(tuple(_value(end) for end in atoms[-1]))
                else:
                    bracket, value = TestBracketLt._factor(rng, rng.choice([1, 64, 300]))
                    atoms.append(bracket)
                    values.append((value, value))
            forms = [tuple(rng.randrange(5) for _ in atoms) for _ in range(3)]
            for powers in forms:
                lower = math.prod(v[0] ** e for v, e in zip(values, powers))
                upper = math.prod(v[1] ** e for v, e in zip(values, powers))
                lo, hi = product_bracket(atoms, powers)
                assert _value(lo) <= lower <= upper <= _value(hi)
                if lower == 0:
                    assert lo == (0, 0)

    def test_zero_atoms(self):
        # a zero lower end with a positive power makes the product's lower
        # end (0, 0); with power 0 it is not a factor at all
        near_zero = ((0, 0), (1, -50))
        two = ((1, 1), (1, 1))
        assert product_bracket([near_zero, two], (1, 3)) == ((0, 0), (1, -47))
        assert product_bracket([near_zero, two], (0, 3)) == ((1, 3), (1, 3))
        assert product_bracket([near_zero, two], (0, 0)) == ((1, 0), (1, 0))
        assert product_bracket([ratio_bracket(0, 3), two], (1, 1)) == ((0, 0), (0, 0))


def _p_pow_square_and_multiply(a, e, up):
    """Square and multiply from 1, squaring once past the last bit."""
    result = (1, 0)
    base = a
    while e:
        if e & 1:
            result = _p_mul(result, base, up)
        base = _p_mul(base, base, up)
        e >>= 1
    return result


class TestPow:
    def test_pairs_of_square_and_multiply(self):
        rng = random.Random(45)
        bases = [(1, 0), (3, -2), ((1 << _BITS) - 1, -_BITS), ((1 << 384) - 1, -384)]
        for _ in range(60):
            m = rng.getrandbits(rng.choice([8, 191, 192, 193, 400])) | 1
            bases.append((m, rng.randrange(-300, 300)))
        for base in bases:
            for e in range(10):
                for up in (False, True):
                    got = _p_pow(base, e, up)
                    assert got == _p_pow_square_and_multiply(base, e, up), (base, e, up)
                    exact = _value(base) ** e
                    assert _value(got) >= exact if up else _value(got) <= exact

    def test_truncated_square_is_a_pow(self):
        rng = random.Random(46)
        for _ in range(500):
            m = rng.getrandbits(rng.choice([8, 192, 384])) | 1
            x = (m, rng.randrange(-300, 300))
            for up in (False, True):
                assert _value(_p_mul(x, x, up)) == _value(_p_pow(x, 2, up))
                assert _p_trunc(*_p_mul(x, x, up), up) == _p_pow(x, 2, up)


class TestCircleTriples:
    @pytest.mark.parametrize("radius", [F(1), F(2), F(1, 3)])
    @pytest.mark.parametrize("count", [2, 4, 6, 64, 250])
    def test_equal_to_the_scaled_points(self, radius, count):
        expected = [as_scaled(p.point) for p in circle_points(radius, count)]
        assert circle_triples(radius, count) == expected

    def test_rejects_bad_counts(self):
        for count in (0, 1, 7):
            with pytest.raises(ValueError):
                circle_triples(F(1), count)


class TestValues:
    """``Values.lt`` gives the exact verdict, and reads triples only on overlap."""

    def test_against_fraction_products(self):
        rng = random.Random(23)
        # the first two polynomials get exact atoms, the third (476-bit
        # stored integers) a ball bracket
        polys = (
            Poly((F(1, 3), F(-2, 7), F(5, 11))),
            Poly((F(3, 4), 1)),
            Poly((F(10**40 + 1, 3**300), F(1, 5))),
        )
        assert exact_atoms(polys) == (True, True, False)
        exact_reads = 0
        for _ in range(300):
            den = rng.choice([1, 7, 64, 1000, 10**30])
            lam = (rng.randrange(-50, 51), rng.randrange(-50, 51), den)
            values = Values(polys, *lam)
            z = F(lam[0], den), F(lam[1], den)
            point = ComplexRational(*z)
            moduli = [p(point).abs2() for p in polys]
            consts = [
                constant_factor(F(rng.randrange(1, 10**6), rng.randrange(1, 10**6)))
                for _ in range(2)
            ]
            lhs = [rng.randrange(3) for _ in range(rng.randrange(0, 3))]
            rhs = [rng.randrange(3) for _ in range(rng.randrange(0, 3))]
            lhs.append(consts[0])
            rhs.append(consts[1])
            # an equal pair of sides: only the closed comparison holds
            for left, right in ((lhs, rhs), (lhs, lhs)):
                value = [
                    math.prod(moduli[f] if isinstance(f, int) else F(f[0], f[1]) for f in side)
                    for side in (left, right)
                ]
                assert values.lt(left, right) == (value[0] < value[1])
                assert values.lt(left, right, closed=True) == (value[0] <= value[1])
            if values.evaluated:
                exact_reads += 1
                assert values.triples == tuple(eval_scaled(p, *lam) for p in polys)
        assert 0 < exact_reads < 300

    def test_decided_comparisons_read_no_triples(self):
        # |c (3 + 4i)/10|^2 = c^2/4 with c = 1 + 3^-300, whose 476-bit
        # integers put c z above the size bound: a ball atom, separated from
        # c^2/2, tied with c^2/4
        c = 1 + F(1, 3**300)
        values = Values((Poly((0, c)),), 3, 4, 10)
        assert not exact_atom(values.abs2[0])
        half, quarter = constant_factor(c * c / 2), constant_factor(c * c / 4)
        assert values.lt((0,), (half,)) is True
        assert values.lt((half,), (0,)) is False
        assert not values.evaluated
        assert not values.fell_back
        assert values.lt((0,), (quarter,)) is False
        assert values.lt((0,), (quarter,), closed=True) is True
        assert values.evaluated and values.fell_back

    def test_ties_of_exact_atoms_read_no_triples(self):
        # |(3 + 4i)/10|^2 = 1/4 for the small z: an exact atom, whose
        # exponents (like its bracket) have width 0 and decide the tie with
        # 1/4; |z/3|^2 = 1/36 has inexact exponents and bracket, and the tie
        # with 1/36 falls back to the atom's own integers, with no triple
        # read
        values = Values((Poly.x(),), 3, 4, 10)
        assert values.abs2[0] == (25, 100)
        half, quarter = constant_factor(F(1, 2)), constant_factor(F(1, 4))
        assert values.lt((0,), (half,)) is True
        assert values.lt((half,), (0,)) is False
        assert values.lt((0,), (quarter,)) is False
        assert values.lt((0,), (quarter,), closed=True) is True
        assert not values.fell_back
        values = Values((Poly((0, F(1, 3))),), 3, 4, 10)
        ninth = constant_factor(F(1, 36))
        assert values.lt((0,), (ninth,)) is False
        assert values.fell_back
        assert values.lt((0,), (ninth,), closed=True) is True
        assert not values.evaluated

    def test_exponents_decide_before_any_product(self, monkeypatch):
        # the net of the sixteenth exponents decides every comparison it
        # separates, ties of exact powers of two included; a constant
        # within a sixteenth of the atom, or an exact zero atom, goes on to
        # the bracket products
        products = Counter()
        real = bounds.bracket_lt

        def counted(*args, **kwargs):
            products["calls"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "bracket_lt", counted)
        values = Values((Poly.x(), Poly.zero()), 3, 4, 10)
        assert values.exps == ((-32, -32), None)
        half, quarter = constant_factor(F(1, 2)), constant_factor(F(1, 4))
        assert values.lt((0,), (half,)) is True
        assert values.lt((half,), (0, 0, 0)) is False
        assert values.lt((0,), (quarter,)) is False
        assert values.lt((quarter,), (0,), closed=True) is True
        assert products["calls"] == 0 and values._brackets is None
        near = constant_factor(F(1, 4) + F(1, 10**6))
        assert values.lt((0,), (near,)) is True
        assert products["calls"] == 1
        assert values.lt((1,), (near,)) is True
        assert products["calls"] == 2
        assert not values.fell_back

    def test_given_atom_kinds_are_used(self):
        # a caller testing many points passes exact_atoms once; the kinds it
        # passes are the ones built
        polys = (Poly.x(), Poly((0, F(1, 3))))
        lam = (3, 4, 10)
        assert Values(polys, *lam).abs2 == Values(polys, *lam, exact=exact_atoms(polys)).abs2
        values = Values(polys, *lam, exact=(True, False))
        assert exact_atom(values.abs2[0])
        assert values.abs2[1] == ball_abs2(polys[1], *lam)
        assert values.lt((1,), (constant_factor(F(1, 36)),), closed=True) is True
        assert values.fell_back and values.evaluated


class TestExactLt:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 2**70), st.integers(1, 2**70), st.integers(-3, 3)),
            max_size=5,
        ),
        st.booleans(),
    )
    def test_matches_the_rational_product(self, terms, closed):
        value = math.prod((F(num, den) ** e for num, den, e in terms), start=F(1))
        assert exact_lt(terms, closed=closed) == (value <= 1 if closed else value < 1)
        # a zero factor, and a term cancelled by its reciprocal at a tie
        assert exact_lt([*terms, (0, 5, 1)], closed=closed) is True
        assert exact_lt([(3, 7, 2), (3, 7, -2)], closed=closed) is closed
