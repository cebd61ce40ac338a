"""Deterministic integer sampling for the sampled witnesses and the test searches.

Every layer of this package that samples points does so through a
``RationalSampler``: a ``random.Random`` whose stream is a pure function of
a textual seed recipe, so a reported verdict (including any counterexample)
can be reproduced exactly on any platform.  Callers draw integers with
``randints``, ``getrandbits`` and ``randrange``; ``randints`` is CPython's
own ``randint`` rejection from ``getrandbits``, the same stream without the
``randrange`` layers, and the inherited ``randint`` draws one value of it.
The sampler adds dyadic-grid points of a disk: ``disk_grid`` yields their
integer grid coordinates with the squared modulus the rejection already
computed; a loop puts them over its own denominator, as integer triples
``(num_re, num_im, den)`` with value ``(num_re + i num_im)/den``, ready for
``eval_scaled``.  No draw builds a rational number.
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
    with equal recipes produce identical streams.  A sampled loop draws
    from the endless generators ``disk_grid`` and ``randints``; the
    inherited ``randint`` takes the value that ``randints`` would give next.
    """

    def __new__(cls, *seed_parts):
        # Python 3.10's Random.__new__ accepts at most one argument
        return super().__new__(cls)

    def __init__(self, *seed_parts):
        super().__init__(seed_for(*seed_parts))

    def randints(self, a: int, b: int):
        """Endless ``random.Random.randint(a, b)`` values, drawn without its
        ``randrange`` layers.

        CPython draws k = n.bit_length() random bits until they fall below
        the range size n = b - a + 1 (``_randbelow_with_getrandbits``); this
        is that rejection, so the stream is the inherited one.  A generator
        draws only when ``next`` asks it to, so generators of one sampler
        interleave on its stream word for word.
        """
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k, draw = n.bit_length(), self.getrandbits
        while True:
            r = draw(k)
            while r >= n:
                r = draw(k)
            yield a + r

    def disk_grid(self):
        """Endless grid points ``(x, y, x^2 + y^2)`` of the open disk
        x^2 + y^2 < G^2, in twice-centred coordinates x = 2t - G, y = 2u - G.

        t and u are ``randint(0, G)``, drawn as that rejection does it
        (``GRID_BITS + 1`` random bits until they are at most G), and a box
        point outside the disk is rejected; the value of a point on the disk
        of radius w is w (x + i y)/G.
        """
        g, bits, draw = 1 << GRID_BITS, GRID_BITS + 1, self.getrandbits
        g2 = g * g
        while True:
            t = draw(bits)
            while t > g:
                t = draw(bits)
            u = draw(bits)
            while u > g:
                u = draw(bits)
            x, y = 2 * t - g, 2 * u - g
            s = x * x + y * y
            if s < g2:
                yield x, y, s
