"""The bracket arithmetic against exact integers and Fractions.

The directed pair operations and the brackets built from them must enclose
the exact values, and ``bracket_lt`` may return a verdict only when it is
the exact one.  ``prod_gt`` decides by truncated bounds while it can; its
cases make it decide at every precision level, including the exact fallback
that ties and near-ties must reach.
"""

import math
import random
from fractions import Fraction as F

from noricert.bounds import (
    _BITS,
    _p_add,
    _p_div,
    _p_lt,
    _p_mul,
    _p_pow,
    _p_sqrt,
    abs2_bracket,
    bracket_lt,
    gap_bracket,
    int_bracket,
    prod_gt,
)


def _value(pair):
    m, s = pair
    return F(m) * F(2) ** s


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
            lo, hi = abs2_bracket((re, im, den))
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
            a1, a2 = abs2_bracket((a, 0, 1)), abs2_bracket((c, 0, 1))
            for k in range(3):
                gap = gap_bracket(a1, a2, k)
                if gap is None:
                    continue
                decided += 1
                exact = (c ** (k + 1) - a) ** 2
                assert _value(gap[0]) <= exact <= _value(gap[1]), (a, c, k)
        assert decided >= 4000


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
        return abs2_bracket((re, im, den)), F(re * re + im * im, den * den)

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


def _agrees(xs, ys):
    expected = math.prod(xs) > math.prod(ys)
    assert prod_gt(xs, ys) == expected
    assert prod_gt(ys, xs) == (math.prod(ys) > math.prod(xs))


def _operands(rng, size):
    """One to four random factors of at most ``size`` bits."""
    return [rng.getrandbits(rng.randrange(1, size + 1)) for _ in range(rng.randrange(1, 5))]


class TestProdGt:
    def test_random_operands_up_to_200k_bits(self):
        rng = random.Random(31)
        for _ in range(60):
            size = rng.choice([1, 64, 300, 5000, 200_000])
            _agrees(_operands(rng, size), _operands(rng, size))

    def test_exact_ties(self):
        rng = random.Random(32)
        for bits in (50, 1000, 200_000):
            a, b, c = (rng.getrandbits(bits) | 1 for _ in range(3))
            # the same product in different factorizations
            assert not prod_gt([a * b, c], [a, b * c])
            assert not prod_gt([a, b, c], [c, b, a])
            assert not prod_gt([a * b * c], [a * b * c])

    def test_near_ties(self):
        # relative gaps 2^-200 and 2^-1100 sit below the first precision
        # levels, so the comparator must escalate and still get the sign
        rng = random.Random(33)
        for gap in (200, 1100):
            for bits in (gap + 50, 20_000, 200_000):
                a = rng.getrandbits(bits) | (1 << (bits - 1))
                b = rng.getrandbits(bits) | (1 << (bits - 1))
                bumped = a * b + ((a * b) >> gap)
                _agrees([bumped], [a, b])
                _agrees([bumped, 3], [a, b, 3])
                assert prod_gt([bumped], [a, b])
                assert not prod_gt([a * b - ((a * b) >> gap)], [b, a])

    def test_escalation_beyond_first_precision(self):
        # one unit of difference in 4 * 2^14 bits is decided only after the
        # precision has grown past the first two levels
        big = (1 << (4 * _BITS * 16)) - 1
        assert prod_gt([big + 1], [big])
        assert not prod_gt([big], [big + 1])
        assert not prod_gt([big], [big])

    def test_zero_operands(self):
        big = (1 << 5000) + 7
        assert not prod_gt([0], [0])
        assert not prod_gt([0, big], [big])
        assert prod_gt([big], [0, big])
        assert prod_gt([big, big], [big, 0])
        assert not prod_gt([big, 0], [0, big])
        assert not prod_gt([], [1])
        assert prod_gt([2], [])
