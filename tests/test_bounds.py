"""The exact product comparator against plain integer products.

``prod_gt`` decides by truncated bounds while it can; these cases make it
decide at every precision level, including the exact fallback that ties and
near-ties must reach.
"""

import math
import random

from noricert.bounds import _BITS, prod_gt


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
