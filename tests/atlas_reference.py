"""The test suite's references and sampled cross-checks of the chart atlas.

``noricert.atlas`` settles chart disjointness and the overlap polydisk by
short exact arguments.  This module holds what the tests check them and the
disk trace's integer predicates against:

* ``chart_membership`` and ``cone_condition``, the ``Fraction`` reference
  semantics of chart membership and of the cone inequality;
* ``disjointness_search`` and ``overlap_polydisk_check``, randomized searches
  for counterexamples to the two arguments.  They draw dyadic points as
  integer triples from seeded ``RationalSampler`` streams and re-verify the
  inequality chains in integers at every sample; a counterexample is
  reported as an exact point.  ``_membership_int`` and ``_overlap_int`` are
  their integer transcriptions, tested against the ``Fraction`` forms;
* ``dyadic_in_disk``, one grid point of a disk as an integer triple, the
  searches' draw and the tests' replay of the sampled loops' streams;
* ``dyadic_in_annulus``, the sampler draw of the overlap check's exterior
  points, and ``box``, the pair of grid coordinates it draws per attempt.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from noricert.arith import (
    ComplexRational,
    Rational,
    format_rational,
    scaled_abs2,
    scaled_to_complex,
)
from noricert.atlas import ChartPoint
from noricert.sampling import GRID_BITS, RationalSampler


def _is_origin(p: ChartPoint) -> bool:
    return p.z1.is_zero and p.z2.is_zero


def box(sampler: RationalSampler) -> tuple[int, int]:
    """Twice-centred grid coordinates ``(2t - G, 2u - G)`` in [-G, G].

    t and u are ``randint(0, G)``, drawn as that rejection does it:
    ``GRID_BITS + 1`` random bits until they are at most G.
    """
    g, bits, draw = 1 << GRID_BITS, GRID_BITS + 1, sampler.getrandbits
    t = draw(bits)
    while t > g:
        t = draw(bits)
    u = draw(bits)
    while u > g:
        u = draw(bits)
    return 2 * t - g, 2 * u - g


def dyadic_in_disk(sampler: RationalSampler, radius) -> tuple[int, int, int]:
    """The next ``disk_grid`` point of ``sampler`` on the open disk
    |z| < radius, as ``(re, im, den)``."""
    p, q = radius.numerator, radius.denominator
    if p <= 0:
        raise ValueError("radius must be positive")
    x, y, _ = next(sampler.disk_grid())
    return p * x, p * y, q << GRID_BITS


def dyadic_in_annulus(sampler: RationalSampler, inner, outer) -> tuple[int, int, int]:
    """A grid point of ``sampler`` with inner <= |z| < outer, as ``(re, im, den)``."""
    if not 0 <= inner < outer:
        raise ValueError("need 0 <= inner < outer")
    lp, lq = inner.numerator, inner.denominator
    hp, hq = outer.numerator, outer.denominator
    g2 = 1 << (2 * GRID_BITS)
    # |z|^2 = (hp/hq)^2 s / G^2 with s = u^2 + v^2
    lo = (lp * hq) ** 2 * g2
    hi = (hp * lq) ** 2
    while True:
        u, v = box(sampler)
        s = u * u + v * v
        if s < g2 and lo <= hi * s:
            return hp * u, hp * v, hq << GRID_BITS


def chart_membership(p: ChartPoint, r: Rational, k: int) -> bool:
    """Exact membership of ``p`` in the (line-avoiding) chart of index k."""
    if k < 0:
        raise ValueError("chart index must be >= 0")
    if _is_origin(p):
        raise ValueError("membership is undefined at the origin")
    r = Fraction(r)
    r2 = r * r
    a1, a2 = p.z1.abs2(), p.z2.abs2()
    return a2 ** (k + 2) < r2 * a1 and a1 < r2 * a2**k


def cone_condition(p: ChartPoint, k: int, rho: Rational) -> bool:
    """Exact evaluation of the cone inequality at ``p`` for chart index k."""
    if k < 0:
        raise ValueError("chart index must be >= 0")
    if _is_origin(p):
        raise ValueError("the cone condition is undefined at the origin")
    rho = Fraction(rho)
    a1, a2 = p.z1.abs2(), p.z2.abs2()
    lhs = a1 * a1
    rhs = rho * rho * (p.z2 ** (k + 1) - p.z1).abs2() * a2**k
    return lhs < rhs


# ---------------------------------------------------------------------------
# Pairwise disjointness of distant charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointnessReport:
    """Outcome of a randomized search for a point in two distant charts."""

    j: int
    k: int
    r: Fraction
    samples: int
    seed: int
    counterexample: Optional[ChartPoint]
    chain_failures: int
    detail: str = ""

    @property
    def disjoint(self) -> bool:
        return self.counterexample is None and self.chain_failures == 0

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "k": self.k,
            "r": format_rational(self.r),
            "samples": self.samples,
            "seed": self.seed,
            "counterexample": None if self.counterexample is None else self.counterexample.to_json(),
            "chain_failures": self.chain_failures,
            "disjoint": self.disjoint,
            "detail": self.detail,
        }


def _membership_int(
    n1: int, s1: int, n2: int, s2: int, rn2: int, rd2: int, k: int
) -> bool:
    """chart_membership for z_i = (a_i + b_i*i)/2^s_i, n_i = a_i^2 + b_i^2.

    Pure-integer transcription of the two squared inequalities (4^s = 2^(2s)
    enters as bit shifts); exactly equivalent to the Fraction evaluation.
    """
    if (n2 ** (k + 2) * rd2) << (2 * s1) >= (rn2 * n1) << (2 * s2 * (k + 2)):
        return False
    return (n1 * rd2) << (2 * s2 * k) < (rn2 * n2**k) << (2 * s1)


# dyadic magnitude bands of a disjointness sample: z = (a + b i)/2^s with
# s - 16 uniform in 0.._DEPTH - 1
_DEPTH = 48


def disjointness_search(
    r: Rational, j: int, k: int, samples: int, seed: int = 0
) -> DisjointnessReport:
    """Search the covered region for a point in both chart j and chart k.

    A sampled cross-check of ``disjointness_certificate``.  Requires
    |j - k| >= 2 and r <= 1, the regime where the two charts are provably
    disjoint; a counterexample would refute the construction.  At every
    sample the report additionally re-verifies the inequality chain
    behind the disjointness proof — with A2 = |z2|^2,

        r^4 * A2^max <= A2^(min+2),

    which contradicts membership in both charts (membership gives the strict
    reverse).  Sample magnitudes are stratified over ``_DEPTH`` dyadic bands
    so that points with very small |z1| or |z2| are exercised too.

    The inner loop works on integers: a sample z = (a + b*i)/2^s makes every
    squared-modulus comparison a product of bounded integers, which is what
    keeps six-figure sample counts affordable.
    """
    r = Fraction(r)
    if not 0 < r <= 1:
        raise ValueError("r must be in (0, 1]")
    if j < 0 or k < 0:
        raise ValueError("chart indices must be >= 0")
    if abs(j - k) < 2:
        raise ValueError("chart indices must differ by at least 2")
    lo, hi = min(j, k), max(j, k)
    rn, rd = r.numerator, r.denominator
    rn2, rd2 = rn * rn, rd * rd
    rn4, rd4 = rn2 * rn2, rd2 * rd2
    rng = RationalSampler("disjointness-search", rn, rd, lo, hi, samples, seed)

    bits = 16
    half = 1 << bits
    gap = hi - lo - 2  # >= 0
    checked = 0
    chain_failures = 0
    while checked < samples:
        a1 = rng.getrandbits(bits + 1) - half
        b1 = rng.getrandbits(bits + 1) - half
        n1 = a1 * a1 + b1 * b1
        if n1 == 0:
            continue
        s1 = bits + rng.randrange(_DEPTH)
        if n1 * rd2 >= rn2 << (2 * s1):  # needs |z1| < r
            continue
        a2 = rng.getrandbits(bits + 1) - half
        b2 = rng.getrandbits(bits + 1) - half
        n2 = a2 * a2 + b2 * b2
        s2 = bits + rng.randrange(_DEPTH)
        if n2 * rd4 >= rn4 << (2 * s2):  # needs |z2| < r^2
            continue
        checked += 1
        if _membership_int(n1, s1, n2, s2, rn2, rd2, lo) and _membership_int(
            n1, s1, n2, s2, rn2, rd2, hi
        ):
            point = ChartPoint(
                scaled_to_complex((a1, b1, 1 << s1)),
                scaled_to_complex((a2, b2, 1 << s2)),
            )
            return DisjointnessReport(
                lo, hi, r, samples, seed, point, chain_failures,
                f"point inside both charts after {checked} samples",
            )
        p_lo2 = n2 ** (lo + 2)
        lhs = rn4 * p_lo2 * n2**gap
        rhs = (rd4 * p_lo2) << (2 * s2 * gap)
        if lhs > rhs:
            chain_failures += 1
    detail = f"no common point among {checked} samples"
    if chain_failures:
        detail += f"; {chain_failures} chain verifications failed"
    return DisjointnessReport(
        lo, hi, r, samples, seed, None, chain_failures, detail
    )


# ---------------------------------------------------------------------------
# The overlap of consecutive charts is a polydisk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapReport:
    """Sampled verification of the consecutive-chart overlap identity."""

    r: Fraction
    samples: int
    seed: int
    interior_checked: int
    exterior_checked: int
    violation: Optional[dict]
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        return {
            "r": format_rational(self.r),
            "samples": self.samples,
            "seed": self.seed,
            "interior_checked": self.interior_checked,
            "exterior_checked": self.exterior_checked,
            "violation": self.violation,
            "passed": self.passed,
            "detail": self.detail,
        }


def overlap_inequalities(
    x: ComplexRational, y: ComplexRational, r: Rational
) -> tuple[bool, bool, bool, bool]:
    """The four inequalities defining the consecutive-chart overlap at (x, y):

        |y| < r,   |x^2*y| < r,   |x*y^2| < r,   |x| < r,

    each evaluated exactly via squared moduli.
    """
    r = Fraction(r)
    r2 = r * r
    return (
        y.abs2() < r2,
        (x * x * y).abs2() < r2,
        (x * y * y).abs2() < r2,
        x.abs2() < r2,
    )


def _overlap_int(x: tuple, y: tuple, rn2: int, rd2: int) -> tuple[bool, bool, bool, bool]:
    """overlap_inequalities at scaled triples ``x``, ``y`` with r^2 = rn2/rd2.

    Pure-integer transcription of the four squared inequalities, in the same
    order; exactly equivalent to the Fraction evaluation.
    """
    (nx, qx), (ny, qy) = scaled_abs2(x), scaled_abs2(y)
    return (
        ny * rd2 < rn2 * qy,
        nx * nx * ny * rd2 < rn2 * qx * qx * qy,
        nx * ny * ny * rd2 < rn2 * qx * qy * qy,
        nx * rd2 < rn2 * qx,
    )


def overlap_polydisk_check(r: Rational, samples: int, seed: int = 0) -> OverlapReport:
    """Verify that the overlap of consecutive charts is the polydisk, on
    samples: a cross-check of ``overlap_polydisk_certificate``.

    In the overlap coordinates (x, y) the two consecutive charts glue along
    z2 = x*y, z1 = x^2*y, and the overlap is exactly {|x| < r, |y| < r}.
    For interior samples all four ``overlap_inequalities`` must hold; for
    exterior samples (|x| >= r or |y| >= r) at least one must fail.  All
    comparisons are exact, on the integer triples of the sampler.
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    sampler = RationalSampler("overlap-polydisk", r, samples, seed)
    rn2, rd2 = r.numerator**2, r.denominator**2
    interior = exterior = 0
    for i in range(samples):
        x, y = dyadic_in_disk(sampler, r), dyadic_in_disk(sampler, r)
        if i % 2 == 0:
            interior += 1
        else:
            exterior += 1
            if sampler.randint(0, 1):
                x = dyadic_in_annulus(sampler, r, 1)
            else:
                y = dyadic_in_annulus(sampler, r, 1)
        inside = all(_overlap_int(x, y, rn2, rd2))
        if inside == (i % 2 == 0):
            continue
        return OverlapReport(
            r, samples, seed, interior, exterior,
            {
                "x": scaled_to_complex(x).to_json(),
                "y": scaled_to_complex(y).to_json(),
                "kind": "exterior" if inside else "interior",
            },
            "an exterior point satisfies all four inequalities"
            if inside
            else "an interior point violates a defining inequality",
        )
    return OverlapReport(
        r, samples, seed, interior, exterior, None,
        "all interior points inside, all exterior points excluded",
    )
