"""Deterministic integer sampling for the sampled witnesses and the test searches.

Every layer of this package that samples points does so through a
``RationalSampler``: a ``random.Random`` whose stream is a pure function of
a textual seed recipe, so a reported verdict (including any counterexample)
can be reproduced exactly on any platform.  Callers draw integers with
``randint``, ``getrandbits`` and ``randrange``; ``randint`` is CPython's own
rejection from ``getrandbits``, the same stream without the ``randrange``
layers.  The sampler adds dyadic-grid complex points, returned as integer
triples ``(num_re, num_im, den)`` with value ``(num_re + i num_im)/den``,
ready for ``eval_scaled``.  No draw builds a rational number.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["GRID_BITS", "seed_for", "RationalSampler"]

# resolution of a point draw: each coordinate is w (2t - G)/G with t uniform
# in 0..G, G = 2^GRID_BITS, on the box of half-width w
GRID_BITS = 16


def seed_for(*parts) -> int:
    """A stable 64-bit seed derived from the string forms of ``parts``.

    Uses a cryptographic digest rather than ``hash()`` so the value does not
    depend on interpreter hash randomization.
    """
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class RationalSampler(random.Random):
    """``random.Random`` seeded by ``seed_for(*seed_parts)``, with dyadic draws.

    The positional arguments form the seed recipe; two samplers constructed
    with equal recipes produce identical streams.  Each point draw picks a
    box point with two ``randint(0, G)`` draws (``_box``) and rejects it by
    an integer test until it lies in the wanted region.
    """

    def __new__(cls, *seed_parts):
        # Python 3.10's Random.__new__ accepts at most one argument
        return super().__new__(cls)

    def __init__(self, *seed_parts):
        super().__init__(seed_for(*seed_parts))

    def randint(self, a: int, b: int) -> int:
        """``random.Random.randint(a, b)``, drawn without its ``randrange`` layers.

        CPython draws k = n.bit_length() random bits until they fall below
        the range size n = b - a + 1 (``_randbelow_with_getrandbits``); this
        is that rejection, so the stream is the inherited one.
        """
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return a + r

    def _box(self) -> tuple[int, int]:
        """Twice-centred grid coordinates ``(2t - G, 2u - G)`` in [-G, G].

        t and u are ``randint(0, G)``, drawn as that rejection does it:
        ``GRID_BITS + 1`` random bits until they are at most G.
        """
        g, bits, draw = 1 << GRID_BITS, GRID_BITS + 1, self.getrandbits
        t = draw(bits)
        while t > g:
            t = draw(bits)
        u = draw(bits)
        while u > g:
            u = draw(bits)
        return 2 * t - g, 2 * u - g

    def dyadic_in_disk(self, radius) -> tuple[int, int, int]:
        """A grid point of the open disk |z| < radius, as ``(re, im, den)``."""
        p, q = radius.numerator, radius.denominator
        if p <= 0:
            raise ValueError("radius must be positive")
        g2 = 1 << (2 * GRID_BITS)
        while True:
            u, v = self._box()
            if u * u + v * v < g2:
                return p * u, p * v, q << GRID_BITS
