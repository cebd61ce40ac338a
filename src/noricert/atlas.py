"""Blow-up chart combinatorics in base affine coordinates.

An infinite chain of blow-ups over the origin of C^2 is covered by affine
charts indexed by k >= 0.  Away from the exceptional line, chart k is
described directly in the base coordinates (z1, z2) by two strict
inequalities,

    |z2|^(k+2) < r |z1|   and   |z1| < r |z2|^k,

and the cone around the k-th exceptional direction by

    |z1|^2 < rho * |z2^(k+1) - z1| * |z2|^k.

Everything in this module evaluates such conditions exactly, through squared
moduli.  ``chart_cover_indices`` lists the charts that contain a point; the
disk trace renders the cover of a refuting image point with it.  Chart
disjointness and the overlap polydisk identity are settled by their short
exact arguments (``disjointness_certificate``,
``overlap_polydisk_certificate``), whose hypotheses are checked in exact
rationals.  The sampled searches for the same claims, and the ``Fraction``
predicates of membership and the cone, live with the test suite, which runs
them as cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import ComplexRational, Rational, format_rational

__all__ = [
    "ChartPoint",
    "CoverResult",
    "ExactArgument",
    "IntersectionMatrix",
    "chart_cover_indices",
    "disjointness_certificate",
    "overlap_polydisk_certificate",
    "negative_definite",
]


class ChartPoint(NamedTuple):
    """A point of C^2 in base coordinates."""

    z1: ComplexRational
    z2: ComplexRational

    def to_json(self) -> dict:
        return {"z1": self.z1.to_json(), "z2": self.z2.to_json()}


class CoverResult(NamedTuple):
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


class ExactArgument(NamedTuple):
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

    In the overlap coordinates (x, y) the two charts glue along z2 = x y,
    z1 = x^2 y, and their overlap is cut out by |y| < r, |x^2 y| < r,
    |x y^2| < r and |x| < r.  Inside the polydisk |x^2 y| and |x y^2| are
    below r^3 <= r, so all four hold; outside it |x| >= r or |y| >= r
    breaks |x| < r or |y| < r.  The hypothesis is checked exactly.
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
# Intersection matrices
# ---------------------------------------------------------------------------


class IntersectionMatrix:
    """A symmetric 2x2 integer matrix [[a11, a12], [a12, a22]]."""

    __slots__ = ("a11", "a12", "a22")

    def __init__(self, a11: int, a12: int, a22: int):
        if not all(isinstance(a, int) for a in (a11, a12, a22)):
            raise ValueError("matrix entries must be integers")
        self.a11, self.a12, self.a22 = a11, a12, a22

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
