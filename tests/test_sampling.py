"""Tests for the seeded integer sampler."""

import hashlib
import random
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from noricert.disktrace import _approach_candidates
from noricert.sampling import GRID_BITS, RationalSampler, seed_for

from atlas_reference import box, dyadic_in_annulus, dyadic_in_disk

F = Fraction


def _digest(triples) -> str:
    """sha256 over the draws, each rendered as two reduced fractions."""
    lines = [f"{F(a, d)} {F(b, d)}" for a, b, d in triples]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# the first 2000 draws of the cone-window recipe at n = 2 and seed 0
CONE_WINDOW_DIGEST = "a508637284a97eebc2ea10a917f9dada399de30022da35b3a39f1c57fa42f198"


class TestStreams:
    # digests of the first 2000 draws of the cone-window and overlap-polydisk
    # recipes at seed 0, recorded from the rational-valued sampler that the
    # integer draws replaced; they pin every stream a report depends on
    def test_cone_window_stream(self):
        sampler = RationalSampler("cone-window", 2, 2048, 0)
        draws = []
        for i in range(1, 2001):
            a, b, den = dyadic_in_disk(sampler, 2)
            if i % 2 == 0:
                den *= 10 ** sampler.randint(0, 12)
            draws.append((a, b, den))
        assert _digest(draws) == CONE_WINDOW_DIGEST

    def test_cone_window_stream_through_the_generators(self):
        # the witness's own draws: grid points and scale indices taken from
        # two generators of one sampler, interleaved as the loop asks
        sampler = RationalSampler("cone-window", 2, 2048, 0)
        grid, scales = sampler.disk_grid(), sampler.randints(0, 12)
        draws = []
        for i in range(1, 2001):
            x, y, _ = next(grid)
            e = next(scales) if i % 2 == 0 else 0
            draws.append((2 * x, 2 * y, 10**e << GRID_BITS))
        assert _digest(draws) == CONE_WINDOW_DIGEST

    def test_overlap_disk_stream(self):
        sampler = RationalSampler("overlap-polydisk", F(1, 5), 16384, 0)
        draws = [dyadic_in_disk(sampler, F(1, 5)) for _ in range(2000)]
        assert _digest(draws) == (
            "fd0803d59bed2275e675ba8f834b22971ec140c0f67d4e88ac94f0de323add47"
        )

    def test_overlap_annulus_stream(self):
        sampler = RationalSampler("overlap-polydisk", F(1, 5), 16384, 0)
        draws = [dyadic_in_annulus(sampler, F(1, 5), 1) for _ in range(2000)]
        assert _digest(draws) == (
            "aa59efa20829c87d67160d98d0cc5fa12256afb33e9b03f9f5712c71ba277ed3"
        )

    def test_recipe_seeds_the_stream(self):
        a = RationalSampler("recipe", 1, F(1, 3))
        b = random.Random(seed_for("recipe", 1, F(1, 3)))
        assert [a.getrandbits(17) for _ in range(50)] == [
            b.getrandbits(17) for _ in range(50)
        ]


class TestDraws:
    def test_disk_draws_lie_in_the_disk(self):
        sampler = RationalSampler("disk-draws")
        for radius in (F(1, 5), F(2), 3, F(7, 3)):
            for _ in range(200):
                a, b, den = dyadic_in_disk(sampler, radius)
                assert den == radius.denominator << GRID_BITS
                assert F(a * a + b * b, den * den) < F(radius) ** 2

    def test_annulus_draws_lie_in_the_annulus(self):
        sampler = RationalSampler("annulus-draws")
        for inner, outer in ((F(1, 5), 1), (0, F(1, 2)), (F(2, 3), F(3, 2))):
            for _ in range(200):
                a, b, den = dyadic_in_annulus(sampler, inner, outer)
                assert F(inner) ** 2 <= F(a * a + b * b, den * den) < F(outer) ** 2

    def test_validation(self):
        sampler = RationalSampler("validation")
        with pytest.raises(ValueError):
            dyadic_in_disk(sampler, 0)
        with pytest.raises(ValueError):
            dyadic_in_disk(sampler, F(-1, 2))
        with pytest.raises(ValueError):
            dyadic_in_annulus(sampler, 1, 1)
        with pytest.raises(ValueError):
            dyadic_in_annulus(sampler, F(-1, 2), 1)


class TestRandint:
    """``RationalSampler.randint`` is the inherited draw, one value of
    ``randints``."""

    # every range the package draws from, and a = b, which still draws
    @pytest.mark.parametrize(
        "a, b", [(0, 2**16), (-(2**8), 2**8), (0, 12), (0, 5), (0, 1), (7, 7)]
    )
    def test_equals_random_randint(self, a, b):
        assert RationalSampler.randint is random.Random.randint
        for seed in range(3):
            ours = RationalSampler("randint", a, b, seed)
            ref = random.Random(seed_for("randint", a, b, seed))
            assert [ours.randint(a, b) for _ in range(10**4)] == [
                ref.randint(a, b) for _ in range(10**4)
            ]
            # the two generators are left in the same state
            assert ours.getrandbits(64) == ref.getrandbits(64)

    def test_empty_range(self):
        with pytest.raises(ValueError):
            RationalSampler("empty").randint(1, 0)
        # the generator raises on its first draw
        with pytest.raises(ValueError):
            next(RationalSampler("empty").randints(1, 0))

    def test_box_draws_are_randint_pairs(self):
        # the annulus draw's box draws its bits without randint: 10^4 pairs
        # equal those of random.Random's own randint(0, G), and the states
        # stay together
        g = 1 << GRID_BITS
        for seed in range(2):
            ours = RationalSampler("box", seed)
            ref = random.Random(seed_for("box", seed))
            expected = [
                (2 * ref.randint(0, g) - g, 2 * ref.randint(0, g) - g) for _ in range(10**4)
            ]
            assert [box(ours) for _ in range(10**4)] == expected
            assert ours.getrandbits(64) == ref.getrandbits(64)

    def test_point_streams_are_the_inherited_ones(self):
        # the single draws, interleaved on one stream as their callers do,
        # against the same draws from random.Random's own randint:
        # dyadic_in_disk scales a disk point by the radius p/q, the annulus
        # draw rejects disk points below its inner radius, and randint is
        # one value of randints
        g2 = 1 << (2 * GRID_BITS)
        for seed in range(3):
            ours = RationalSampler("points", seed)
            ref = random.Random(seed_for("points", seed))
            grid = _reference_disk_grid(ref)
            for _ in range(2000):
                for radius in (F(1, 5), F(2), F(7, 3)):
                    x, y, _ = next(grid)
                    p, q = radius.numerator, radius.denominator
                    assert dyadic_in_disk(ours, radius) == (p * x, p * y, q << GRID_BITS)
                x, y, s = next(grid)
                while 25 * s < g2:  # 1/5 <= |z| < 1
                    x, y, s = next(grid)
                assert dyadic_in_annulus(ours, F(1, 5), 1) == (x, y, 1 << GRID_BITS)
                assert ours.randint(0, 12) == ref.randint(0, 12)
            assert ours.getrandbits(64) == ref.getrandbits(64)

def _reference_disk_grid(ref: random.Random):
    """``disk_grid`` from ``random.Random.randint``: box points by two
    ``randint(0, G)``, rejected outside the open disk."""
    g = 1 << GRID_BITS
    while True:
        x, y = 2 * ref.randint(0, g) - g, 2 * ref.randint(0, g) - g
        if x * x + y * y < g * g:
            yield x, y, x * x + y * y


def _reference_candidates(n, k, samples, seed):
    """The chart-cone ladder's candidates ``(a, b, s, step)`` from
    ``random.Random.randint``."""
    ref = random.Random(seed_for("cone-region", n, k, samples, seed))
    for _ in range(40 * samples):
        a, b = ref.randint(-(2**8), 2**8), ref.randint(-(2**8), 2**8)
        if 2**14 <= a * a + b * b < 2**16:
            yield a, b, a * a + b * b, ref.randint(0, 5)


class TestGenerators:
    """``disk_grid`` and ``randints`` are the inherited stream, drawn in one
    pass, and every single draw is one value of them."""

    @pytest.mark.parametrize("a, b", [(-(2**8), 2**8), (0, 12), (0, 5), (7, 7)])
    def test_randints_equal_random_randint(self, a, b):
        for seed in range(3):
            ours = RationalSampler("randints", a, b, seed)
            ref = random.Random(seed_for("randints", a, b, seed))
            assert list(islice(ours.randints(a, b), 10**4)) == [
                ref.randint(a, b) for _ in range(10**4)
            ]
            assert ours.getrandbits(64) == ref.getrandbits(64)

    def test_disk_grid_equals_randint_rejection(self):
        for seed in range(3):
            ours = RationalSampler("disk-grid", seed)
            ref = random.Random(seed_for("disk-grid", seed))
            assert list(islice(ours.disk_grid(), 10**4)) == list(
                islice(_reference_disk_grid(ref), 10**4)
            )
            assert ours.getrandbits(64) == ref.getrandbits(64)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ladder_candidates_equal_the_randint_reference(self, n):
        # the first 10^4 candidates of every chart's ladder
        fam = SimpleNamespace(n=n)
        for k in range(1, n):
            ours = list(islice(_approach_candidates(fam, k, 1024, 0), 10**4))
            assert len(ours) == 10**4
            assert ours == list(islice(_reference_candidates(n, k, 1024, 0), 10**4))
