"""Tests for the seeded integer sampler."""

import hashlib
import random
from fractions import Fraction

import pytest

from noricert.sampling import GRID_BITS, RationalSampler, seed_for

from atlas_reference import dyadic_in_annulus

F = Fraction


def _digest(triples) -> str:
    """sha256 over the draws, each rendered as two reduced fractions."""
    lines = [f"{F(a, d)} {F(b, d)}" for a, b, d in triples]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestStreams:
    # digests of the first 2000 draws of the cone-window and overlap-polydisk
    # recipes at seed 0, recorded from the rational-valued sampler that the
    # integer draws replaced; they pin every stream a report depends on
    def test_cone_window_stream(self):
        sampler = RationalSampler("cone-window", 2, 2048, 0)
        draws = []
        for i in range(1, 2001):
            a, b, den = sampler.dyadic_in_disk(2)
            if i % 2 == 0:
                den *= 10 ** sampler.randint(0, 12)
            draws.append((a, b, den))
        assert _digest(draws) == (
            "a508637284a97eebc2ea10a917f9dada399de30022da35b3a39f1c57fa42f198"
        )

    def test_overlap_disk_stream(self):
        sampler = RationalSampler("overlap-polydisk", F(1, 5), 16384, 0)
        draws = [sampler.dyadic_in_disk(F(1, 5)) for _ in range(2000)]
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
                a, b, den = sampler.dyadic_in_disk(radius)
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
            sampler.dyadic_in_disk(0)
        with pytest.raises(ValueError):
            sampler.dyadic_in_disk(F(-1, 2))
        with pytest.raises(ValueError):
            dyadic_in_annulus(sampler, 1, 1)
        with pytest.raises(ValueError):
            dyadic_in_annulus(sampler, F(-1, 2), 1)


class _Inherited(RationalSampler):
    """The sampler with ``random.Random``'s own ``randint``."""

    randint = random.Random.randint


class TestRandint:
    """``RationalSampler.randint`` is the inherited draw, without ``randrange``."""

    # every range the package draws from, and a = b, which still draws
    @pytest.mark.parametrize(
        "a, b", [(0, 2**16), (-(2**8), 2**8), (0, 12), (0, 5), (0, 1), (7, 7)]
    )
    def test_equals_random_randint(self, a, b):
        assert RationalSampler.randint is not random.Random.randint
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

    def test_box_draws_are_randint_pairs(self):
        # _box draws its bits without randint: 10^4 pairs equal those of
        # random.Random's own randint(0, G), and the states stay together
        g = 1 << GRID_BITS
        for seed in range(2):
            ours = RationalSampler("box", seed)
            ref = random.Random(seed_for("box", seed))
            expected = [
                (2 * ref.randint(0, g) - g, 2 * ref.randint(0, g) - g) for _ in range(10**4)
            ]
            assert [ours._box() for _ in range(10**4)] == expected
            assert ours.getrandbits(64) == ref.getrandbits(64)

    def test_point_streams_are_the_inherited_ones(self):
        ours = RationalSampler("points", 0)
        ref = _Inherited("points", 0)
        for _ in range(500):
            assert ours.dyadic_in_disk(F(1, 5)) == ref.dyadic_in_disk(F(1, 5))
            assert dyadic_in_annulus(ours, F(1, 5), 1) == dyadic_in_annulus(ref, F(1, 5), 1)
            assert ours.dyadic_in_disk(2) == ref.dyadic_in_disk(2)
