"""Blow-up chart combinatorics in base affine coordinates.

An infinite chain of blow-ups over the origin of C^2 is covered by affine
charts indexed by k >= 0.  Away from the exceptional line, chart k is
described directly in the base coordinates (z1, z2) by two strict
inequalities,

    |z2|^(k+2) < r |z1|   and   |z1| < r |z2|^k,

and the cone around the k-th exceptional direction by

    |z1|^2 < rho * |z2^(k+1) - z1| * |z2|^k.

Everything in this module evaluates such conditions exactly, through squared
moduli.  Chart disjointness and the overlap polydisk identity are settled by
their short exact arguments (``disjointness_certificate``,
``overlap_polydisk_certificate``), whose hypotheses are checked in exact
rationals.  The randomized searches for the same claims draw dyadic points
as integer triples from seeded ``RationalSampler`` streams and re-verify the
inequality chains in integers at every sample; a counterexample is reported
as an exact point.  The test suite runs them as cross-checks of the
arguments.  The ``Fraction`` predicates are the reference semantics that the
integer transcriptions are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import ComplexRational, Rational, format_rational, scaled_abs2, scaled_to_complex
from .sampling import RationalSampler

__all__ = [
    "ChartPoint",
    "CoverResult",
    "ExactArgument",
    "DisjointnessReport",
    "OverlapReport",
    "IntersectionMatrix",
    "chart_membership",
    "chart_cover_indices",
    "cone_condition",
    "disjointness_certificate",
    "disjointness_search",
    "overlap_inequalities",
    "overlap_polydisk_certificate",
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
# Exact arguments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactArgument:
    """A chart-geometry claim settled by a short exact argument.

    ``hypotheses`` pairs each hypothesis of ``argument`` with whether it
    holds, decided in exact rationals; the claim is proved when all hold.
    A failed hypothesis proves nothing either way.
    """

    claim: str
    r: Fraction
    hypotheses: tuple[tuple[str, bool], ...]
    argument: str

    @property
    def proved(self) -> bool:
        return all(holds for _, holds in self.hypotheses)

    @property
    def detail(self) -> str:
        if self.proved:
            return self.argument
        failed = [name for name, holds in self.hypotheses if not holds]
        return "the argument does not apply: " + ", ".join(failed) + " fails"

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "r": format_rational(self.r),
            "hypotheses": [
                {"name": name, "holds": holds} for name, holds in self.hypotheses
            ],
            "proved": self.proved,
        }


def _positive_radius(r: Rational) -> Fraction:
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    return r


def disjointness_certificate(r: Rational, j: int, k: int) -> ExactArgument:
    """Charts j and k share no point of the covered region 0 < |z1| < r,
    |z2| < r^2, when |j - k| >= 2 and r^4 <= 1.

    With lo = min(j, k), hi = max(j, k) and A_i = |z_i|^2, membership in
    chart lo gives A2^(lo+2) < r^2 A1, and membership in chart hi gives
    A1 < r^2 A2^hi, so A2^(lo+2) < r^4 A2^hi.  A2 = 0 would leave
    A1 < 0 (hi >= 2), so 1 < r^4 A2^(hi-lo-2); but A2 < r^4 <= 1 makes the
    right side at most r^4 <= 1.  Both hypotheses are checked exactly.
    """
    r = _positive_radius(r)
    if j < 0 or k < 0:
        raise ValueError("chart indices must be >= 0")
    lo, hi = min(j, k), max(j, k)
    return ExactArgument(
        f"charts {lo} and {hi} are disjoint in the covered region",
        r,
        (("|j - k| >= 2", hi - lo >= 2), ("r^4 <= 1", r**4 <= 1)),
        f"membership in both gives A2^{lo + 2} < r^2 A1 < r^4 A2^{hi}, so "
        f"1 < r^4 A2^{hi - lo - 2} with A2 = |z2|^2 < r^4 <= 1",
    )


def overlap_polydisk_certificate(r: Rational) -> ExactArgument:
    """The consecutive-chart overlap is the polydisk {|x| < r, |y| < r}
    when r^3 <= r.

    Inside the polydisk |x^2 y| and |x y^2| are below r^3 <= r, so all four
    ``overlap_inequalities`` hold; outside it |x| >= r or |y| >= r breaks
    |x| < r or |y| < r.  The hypothesis is checked exactly.
    """
    r = _positive_radius(r)
    return ExactArgument(
        "the overlap of consecutive charts is the polydisk |x|, |y| < r",
        r,
        (("r^3 <= r", r**3 <= r),),
        "|x|, |y| < r gives |x^2 y|, |x y^2| < r^3 <= r; "
        "|x| >= r or |y| >= r breaks |x| < r or |y| < r",
    )


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
        x, y = sampler.dyadic_in_disk(r), sampler.dyadic_in_disk(r)
        if i % 2 == 0:
            interior += 1
        else:
            exterior += 1
            if sampler.randint(0, 1):
                x = sampler.dyadic_in_annulus(r, 1)
            else:
                y = sampler.dyadic_in_annulus(r, 1)
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
