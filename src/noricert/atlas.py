"""Blow-up chart combinatorics in base affine coordinates.

An infinite chain of blow-ups over the origin of C^2 is covered by affine
charts indexed by k >= 0.  Away from the exceptional line, chart k is
described directly in the base coordinates (z1, z2) by two strict
inequalities,

    |z2|^(k+2) < r |z1|   and   |z1| < r |z2|^k,

and the cone around the k-th exceptional direction by

    |z1|^2 < rho * |z2^(k+1) - z1| * |z2|^k.

Everything in this module evaluates such conditions exactly: each inequality
between moduli is squared and compared as rational numbers, so membership
verdicts are never approximate.  The randomized searches (chart
disjointness, the overlap polydisk identity) draw reproducible rational
sample points from seeded generators and re-verify the relevant inequality
chains at every sample; any counterexample is reported as an exact point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import ComplexRational, Rational, format_rational
from .sampling import RationalSampler, seed_for

__all__ = [
    "ChartPoint",
    "CoverResult",
    "DisjointnessReport",
    "OverlapReport",
    "IntersectionMatrix",
    "chart_membership",
    "chart_cover_indices",
    "cone_condition",
    "disjointness_search",
    "overlap_inequalities",
    "overlap_polydisk_check",
    "negative_definite",
]


@dataclass(frozen=True)
class ChartPoint:
    """A point of C^2 in base coordinates."""

    z1: ComplexRational
    z2: ComplexRational

    @property
    def is_origin(self) -> bool:
        return self.z1.is_zero and self.z2.is_zero

    def to_json(self) -> dict:
        return {"z1": self.z1.to_json(), "z2": self.z2.to_json()}


def chart_membership(p: ChartPoint, r: Rational, k: int) -> bool:
    """Exact membership of ``p`` in the (line-avoiding) chart of index k."""
    if k < 0:
        raise ValueError("chart index must be >= 0")
    if p.is_origin:
        raise ValueError("membership is undefined at the origin")
    r = Fraction(r)
    r2 = r * r
    a1, a2 = p.z1.abs2(), p.z2.abs2()
    return a2 ** (k + 2) < r2 * a1 and a1 < r2 * a2**k


def cone_condition(p: ChartPoint, k: int, rho: Rational) -> bool:
    """Exact evaluation of the cone inequality at ``p`` for chart index k."""
    if k < 0:
        raise ValueError("chart index must be >= 0")
    if p.is_origin:
        raise ValueError("the cone condition is undefined at the origin")
    rho = Fraction(rho)
    a1, a2 = p.z1.abs2(), p.z2.abs2()
    lhs = a1 * a1
    rhs = rho * rho * (p.z2 ** (k + 1) - p.z1).abs2() * a2**k
    return lhs < rhs


@dataclass(frozen=True)
class CoverResult:
    """Chart indices containing a point of the covered region.

    ``in_region`` is False when the point violates 0 < |z1| < r, |z2| < r^2;
    the index run is empty in that case and carries no claim.
    """

    in_region: bool
    indices: tuple[int, ...]
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "in_region": self.in_region,
            "indices": list(self.indices),
            "detail": self.detail,
        }


def chart_cover_indices(p: ChartPoint, r: Rational, k_max: int) -> CoverResult:
    """All chart indices k <= k_max containing ``p``.

    For points of the covered region the result is a nonempty contiguous run
    of indices (consecutive charts overlap in an interval of radii).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    r = Fraction(r)
    a1, a2 = p.z1.abs2(), p.z2.abs2()
    r2 = r * r
    if not 0 < a1 < r2 or not a2 < r2 * r2:
        return CoverResult(False, (), "point outside the covered region")
    # incremental powers of a2; every index is tested so the contiguity of
    # the result remains an observed fact, not an assumption
    indices = []
    a2_pow_k = Fraction(1)
    a2_sq = a2 * a2
    for k in range(k_max + 1):
        if a2_pow_k * a2_sq < r2 * a1 and a1 < r2 * a2_pow_k:
            indices.append(k)
        a2_pow_k *= a2
    return CoverResult(True, tuple(indices), f"checked indices 0..{k_max}")


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


def disjointness_search(
    r: Rational,
    j: int,
    k: int,
    samples: int,
    seed: int = 0,
    *,
    depth: int = 48,
) -> DisjointnessReport:
    """Search the covered region for a point in both chart j and chart k.

    Requires |j - k| >= 2 and r <= 1, the regime where the two charts are
    provably disjoint; a counterexample would refute the construction.  At
    every sample the report additionally re-verifies the inequality chain
    behind the disjointness proof — with A2 = |z2|^2,

        r^4 * A2^max <= A2^(min+2),

    which contradicts membership in both charts (membership gives the strict
    reverse).  Sample magnitudes are stratified over ``depth`` dyadic bands
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
    rng = random.Random(seed_for("disjointness-search", rn, rd, lo, hi, samples, seed))

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
        s1 = bits + rng.randrange(depth)
        if n1 * rd2 >= rn2 << (2 * s1):  # needs |z1| < r
            continue
        a2 = rng.getrandbits(bits + 1) - half
        b2 = rng.getrandbits(bits + 1) - half
        n2 = a2 * a2 + b2 * b2
        s2 = bits + rng.randrange(depth)
        if n2 * rd4 >= rn4 << (2 * s2):  # needs |z2| < r^2
            continue
        checked += 1
        if _membership_int(n1, s1, n2, s2, rn2, rd2, lo) and _membership_int(
            n1, s1, n2, s2, rn2, rd2, hi
        ):
            den1, den2 = Fraction(1, 2**s1), Fraction(1, 2**s2)
            point = ChartPoint(
                ComplexRational(a1 * den1, b1 * den1),
                ComplexRational(a2 * den2, b2 * den2),
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


def overlap_polydisk_check(r: Rational, samples: int, seed: int = 0) -> OverlapReport:
    """Verify that the overlap of consecutive charts is the polydisk.

    In the overlap coordinates (x, y) the two consecutive charts glue along
    z2 = x*y, z1 = x^2*y, and the overlap is exactly {|x| < r, |y| < r}.
    For interior samples all four ``overlap_inequalities`` must hold; for
    exterior samples (|x| >= r or |y| >= r) at least one must fail.  All
    comparisons are exact.
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    sampler = RationalSampler("overlap-polydisk", r, samples, seed)
    interior = exterior = 0

    for i in range(samples):
        if i % 2 == 0:
            x, y = sampler.complex_in_disk(r), sampler.complex_in_disk(r)
            interior += 1
            if not all(overlap_inequalities(x, y, r)):
                return OverlapReport(
                    r, samples, seed, interior, exterior,
                    {"x": x.to_json(), "y": y.to_json(), "kind": "interior"},
                    "an interior point violates a defining inequality",
                )
        else:
            x, y = sampler.complex_in_disk(r), sampler.complex_in_disk(r)
            if sampler.integer(0, 1):
                x = sampler.complex_in_annulus(r, 1)
            else:
                y = sampler.complex_in_annulus(r, 1)
            exterior += 1
            if all(overlap_inequalities(x, y, r)):
                return OverlapReport(
                    r, samples, seed, interior, exterior,
                    {"x": x.to_json(), "y": y.to_json(), "kind": "exterior"},
                    "an exterior point satisfies all four inequalities",
                )
    return OverlapReport(
        r, samples, seed, interior, exterior, None,
        "all interior points inside, all exterior points excluded",
    )


# ---------------------------------------------------------------------------
# Intersection matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionMatrix:
    """A symmetric 2x2 integer matrix [[a11, a12], [a12, a22]]."""

    a11: int
    a12: int
    a22: int

    def __post_init__(self):
        for name in ("a11", "a12", "a22"):
            if not isinstance(getattr(self, name), int):
                raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows) -> "IntersectionMatrix":
        (a, b), (c, d) = rows
        if b != c:
            raise ValueError("matrix must be symmetric")
        return cls(a, b, d)

    @property
    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a12

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a11, self.a12), (self.a12, self.a22))

    def to_json(self) -> dict:
        return {"rows": [list(row) for row in self.rows()], "det": self.det}


def negative_definite(m: IntersectionMatrix) -> bool:
    """Exact negative-definiteness test: a11 < 0 and det > 0."""
    return m.a11 < 0 and m.det > 0
