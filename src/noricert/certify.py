"""Certified analytic facts about the polynomial family.

Everything here reduces to finitely many exact rational comparisons; no
floating point enters any decision.  The central tool is a dominance
certificate: a proof that ``|dominated(z)| < |dominant(z)|`` holds everywhere
on a circle ``|z| = R``.  By Rouché's theorem such a certificate transfers
root counts from the dominant part to the difference, which is how every
root-localization and nonvanishing claim below is established.

Every dominance the pipeline needs compares two products of the family's
factors (``cone_sides``, ``_localization_sides``), and the roots of each
factor ``P_j`` are already localized in ``|z| < 2^-j``, deepest first.  With
``|leading P_j| = 1`` and ``d = deg P_j`` that gives

    (R - 2^-j)^d <= |P_j(z)| <= (R + 2^-j)^d   on |z| = R,

so each dominance is one exact comparison of rationals built from ``eps``,
``R`` and the degrees (``root_product_dominance``), and the bound
evaluates no polynomial.  Where it does not prove the claim, 16 exact
circle points test it: a point where it fails is a refutation.

Circle points come from the rational half-circle chart

    w(t) = R * ((1 - t^2) + 2t*i) / (1 + t^2),  t in [-1, 1),

and its negation, so every point has exactly rational coordinates.

A polynomial identity between products of the family's factors is proved
in one of three ways.  Each factor's defining recursion, and the premise
that P_1 satisfies its own, are proved by comparing expansions: both sides
are multiplied out as exact ``Poly`` objects and compared coefficient by
coefficient.  The premises f1 = eps z^n prod P_j^j and f2 = eps^2 z prod
P_j are one comparison in Z[lam, eps] of the family's form
(``FamilyForm.products_hold``), so f1 and f2 are never expanded.  Given the
premises, the exact identities and each chart's cone factorization are
exponent bookkeeping: both sides are sums of monomials c z^m prod
P_j^(e_j), and after P_1 is eliminated by its recursion their normal
forms agree (``ProductForms``).  Where a premise fails or two normal
forms differ, the identity falls back to comparing the expansions of its
own sides, so bookkeeping never refutes.  The
divisibility of each cone combination by its factor follows from the same
proved recursions (``lemma_div_check``): modulo P_k every shallower factor
is its constant, so nothing is expanded.  A cone combination is expanded,
and divided, only where a recursion is not proved for the family.

Status taxonomy: ``PROVED`` (certificate complete), ``REFUTED`` (an exact
witness violates the claim), ``INCONCLUSIVE`` (a sufficient condition that
fails with no exact witness against the claim, or a prerequisite
certificate missing -- never a soundness concession).
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .arith import (
    ComplexRational,
    Poly,
    decimal_approx,
    format_rational,
)
from .bounds import Values, constant_factor, exact_atoms
from .family import CheckReport, CheckResult, Family
# the expansion of a side; tests count the expansions through this name
from .family import expand_side as _side_poly

__all__ = [
    "Status",
    "CirclePoint",
    "SpotLoop",
    "RootProductBound",
    "RootLocalization",
    "AnnulusBounds",
    "AnnulusReport",
    "IneqCheck",
    "CorollaryReport",
    "DivisionWitness",
    "ConeFactorCertificate",
    "ProductForms",
    "IdentityReport",
    "worst",
    "circle_points",
    "circle_triples",
    "spot_loop",
    "cone_sides",
    "side_factors",
    "root_product_dominance",
    "family_root_certificates",
    "proved_recursions",
    "annulus_bounds_certificate",
    "annulus_bounds_for_factor",
    "annulus_spot_checks",
    "corollary_ineq_certificate",
    "lemma_div_check",
    "cone_factor_certificate",
    "exact_identity_checks",
]


class Status(str, Enum):
    PROVED = "proved"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


_SEVERITY = {Status.PROVED: 0, Status.INCONCLUSIVE: 1, Status.REFUTED: 2}


def worst(statuses) -> Status:
    """Worst-of aggregation: any refutation wins, then any non-answer."""
    return max(statuses, key=_SEVERITY.__getitem__, default=Status.PROVED)


# ---------------------------------------------------------------------------
# Circle points
# ---------------------------------------------------------------------------


def chart_point(radius: Fraction, t: Fraction) -> ComplexRational:
    """The right-half-circle chart w(t); |w(t)| = radius exactly."""
    den = 1 + t * t
    return ComplexRational(radius * (1 - t * t) / den, radius * 2 * t / den)


class CirclePoint(NamedTuple):
    """An exact point on a circle: chart 0 is w(t), chart 1 is -w(t)."""

    chart: int
    t: Fraction
    point: ComplexRational

    def to_json(self) -> dict:
        return {
            "chart": self.chart,
            "t": format_rational(self.t),
            "point": self.point.to_json(),
        }


def circle_points(radius: Fraction, count: int) -> list[CirclePoint]:
    """``count`` distinct exact points on |z| = radius (count even, >= 2).

    Each half-open chart interval [-1, 1) contributes count//2 equally spaced
    parameters, so no point is produced twice.
    """
    if count < 2 or count % 2:
        raise ValueError("count must be an even integer >= 2")
    half = count // 2
    pts = []
    for chart in (0, 1):
        for i in range(half):
            t = Fraction(2 * i, half) - 1
            w = chart_point(radius, t)
            pts.append(CirclePoint(chart, t, w if chart == 0 else -w))
    return pts


def circle_triples(radius: Fraction, count: int) -> list[tuple[int, int, int]]:
    """``as_scaled(p.point)`` for each ``p`` of ``circle_points(radius, count)``.

    For t = p/q and radius rn/rd the point is
    (rn (q^2 - p^2) + 2 rn p q i) / (rd (q^2 + p^2)), negated on chart 1;
    dividing the three integers by their gcd gives the triple of
    ``as_scaled``, without building the ``Fraction`` coordinates (and
    without reducing p/q first: a common factor of p and q divides out).
    """
    if count < 2 or count % 2:
        raise ValueError("count must be an even integer >= 2")
    half = count // 2
    rn, rd = radius.numerator, radius.denominator
    out = []
    for i in range(half):
        p, q = 2 * i - half, half  # t = 2i/half - 1
        re, im, den = rn * (q * q - p * p), 2 * rn * p * q, rd * (q * q + p * p)
        g = math.gcd(re, im, den)
        out.append((re // g, im // g, den // g))
    return out + [(-re, -im, den) for re, im, den in out]


class SpotLoop(NamedTuple):
    """A loop over exact circle points: how many it tested, how many of
    those exact integers decided, and the first point where the claim
    fails (``radius`` and ``witness``, None where it holds at every point)."""

    points: int
    exact_fallbacks: int
    radius: Optional[Fraction] = None
    witness: Optional[CirclePoint] = None

    def counts(self) -> dict[str, int]:
        return {"points": self.points, "exact_fallbacks": self.exact_fallbacks}


def spot_loop(
    polys: Sequence[Poly], radii: Sequence[Fraction], count: int, holds
) -> SpotLoop:
    """Test ``holds(values)`` at ``count`` exact points of each circle of ``radii``.

    ``values`` is the ``bounds.Values`` of ``polys`` at the point, decided on
    the brackets of its atoms (``bounds.exact_atoms`` picks their kind once
    for the loop), exact integers where they overlap; a point counts as an
    exact fallback when some comparison there overlapped.  The loop stops at
    the first point where the claim fails.  A certificate runs it only where
    its own proof is incomplete, to find a refutation witness; the test
    suite runs it on the proved families as a cross-check.
    """
    exact = exact_atoms(polys)
    checked = fallbacks = 0
    for radius in radii:
        for i, triple in enumerate(circle_triples(radius, count)):
            values = Values(polys, *triple, exact=exact)
            checked += 1
            ok = holds(values)
            fallbacks += values.fell_back
            if not ok:
                witness = circle_points(radius, count)[i]
                return SpotLoop(checked, fallbacks, radius, witness)
    return SpotLoop(checked, fallbacks)


# ---------------------------------------------------------------------------
# Dominance on a circle by root products (Rouché)
# ---------------------------------------------------------------------------

# A side of a dominance is ``(c, m, ((j, e), ...))``, the product
# c * z^m * prod_j P_j^e of a constant, a monomial and the family's factors
# (``_side_poly`` expands it).


def _localization_sides(fam: Family, k: int) -> tuple[tuple, tuple]:
    """(dominant, dominated) of factor k's recursion P_k = eps^(c_k) - dominant."""
    n = fam.n
    dominant = (1, n - k, tuple((j, j - k) for j in range(k + 1, n)))
    return dominant, (fam.params.eps ** fam.params.c[k - 1], 0, ())


def cone_sides(fam: Family, k: int) -> tuple[tuple, tuple]:
    """(dominant, unit part) of chart k's cone combination, unit part - dominant.

    The dominant side is z^(n-k-1) prod_{j>=k+2} P_j^(j-k-1) and the unit
    part eps^(2k+1) prod_{j<=k} P_j^(k+1-j).  For the last chart, k = n-1,
    they are 1 and the power-ratio unit eps^(2n-1) prod_j P_j^(n-j) of the
    identity f2^n = f1 * unit.
    """
    n = fam.n
    dominant = (1, n - k - 1, tuple((j, j - k - 1) for j in range(k + 2, n)))
    unit_part = (
        fam.params.eps ** (2 * k + 1),
        0,
        tuple((j, k + 1 - j) for j in range(1, k + 1)),
    )
    return dominant, unit_part


def _side_degree(fam: Family, side: tuple) -> int:
    """The degree of a side with a nonzero constant, from its factors' degrees."""
    _, m, factors = side
    return m + sum(e * fam.Pk(j).degree for j, e in factors)


def proved_recursions(fam: Family, root_certs: Optional[dict]) -> frozenset[int]:
    """The indices k whose recursion ``root_certs`` proved for ``fam`` itself
    (``RootLocalization.recursion``); ``structural_checks`` takes them."""
    return frozenset(
        k
        for k, cert in (root_certs or {}).items()
        if cert.family is fam and cert.recursion
    )


def _recursions_proved(fam: Family, root_certs: Optional[dict], upto: int) -> bool:
    """Whether ``root_certs`` proved the recursions of P_1, ..., P_upto for
    ``fam`` itself."""
    return proved_recursions(fam, root_certs).issuperset(range(1, upto + 1))


def side_factors(side: tuple, radius: Fraction) -> list:
    """|side|^2 at a point of |z| = radius, as factors of ``bounds.Values.lt``.

    The values are those of P_1, ..., P_{n-1}: P_j is the index j - 1,
    repeated e times.  |z|^2 = radius^2 exactly, so the constant and the
    monomial make one constant factor.
    """
    c, m, powers = side
    const = constant_factor(Fraction(c) ** 2 * radius ** (2 * m))
    return [const] + [j - 1 for j, e in powers for _ in range(e)]


class RootProductBound(NamedTuple):
    """Outcome of certifying |dominated| < |dominant| on the circle |z| = radius.

    ``lower`` is a lower bound of |dominant| and ``upper`` an upper bound of
    |dominated| on the whole circle, both from root products (None when a
    prerequisite is missing); the certificate is proved when lower > upper.
    ``witness`` is an exact circle point with |dominated| >= |dominant|.
    """

    status: Status
    radius: Fraction
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    witness: Optional[CirclePoint]
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "radius": format_rational(self.radius),
            "lower": None if self.lower is None else decimal_approx(self.lower, mode="floor"),
            "upper": None if self.upper is None else decimal_approx(self.upper, mode="ceil"),
            "witness": None if self.witness is None else self.witness.to_json(),
            "detail": self.detail,
        }


_FALLBACK_POINTS = 16  # circle points tested when the bound does not prove


def _factor_localized(fam: Family, j: int, root_certs: dict) -> bool:
    """Whether P_j has a unit leading coefficient and all its roots localized
    by a certificate of ``fam`` itself."""
    p, cert = fam.Pk(j), root_certs.get(j)
    return (
        cert is not None
        and cert.family is fam
        and cert.status is Status.PROVED
        and cert.index == j
        and cert.count == cert.degree == p.degree
        and not p.is_zero
        and abs(p.leading) == 1
    )


def _side_bounds(
    fam: Family, side: tuple, radius: Fraction, root_certs: dict
) -> tuple[Fraction, Fraction]:
    """Bounds (lower, upper) of |side| on |z| = radius from root products.

    P_j has a leading coefficient of modulus 1 and all of its deg P_j roots
    in |z| < rho_j, the radius of its root certificate, so each linear
    factor z - root has modulus in (radius - rho_j, radius + rho_j) on the
    circle, and |P_j| lies in [(radius - rho_j)^deg, (radius + rho_j)^deg].
    """
    c, m, factors = side
    lower = upper = abs(Fraction(c)) * radius**m
    for j, e in factors:
        rho, power = root_certs[j].radius, fam.Pk(j).degree * e
        lower *= max(radius - rho, Fraction(0)) ** power
        upper *= (radius + rho) ** power
    return lower, upper


def _violation(
    fam: Family, dominant: tuple, dominated: tuple, radius: Fraction
) -> Optional[CirclePoint]:
    """The first of 16 exact circle points with |dominated| >= |dominant|.

    Decided by ``Values`` over the factors, exact integers where the
    brackets overlap.
    """
    polys = tuple(fam.Pk(j) for j in range(1, fam.n))
    small, big = side_factors(dominated, radius), side_factors(dominant, radius)
    return spot_loop(polys, (radius,), _FALLBACK_POINTS, lambda v: v.lt(small, big)).witness


def root_product_dominance(
    fam: Family,
    dominant: tuple,
    dominated: tuple,
    radius: Fraction,
    root_certs: dict,
) -> RootProductBound:
    """Certify |dominated(z)| < |dominant(z)| for every z with |z| = radius.

    Both sides are products of the family's factors (see ``cone_sides``).
    Given a unit leading coefficient and a proved localization of all roots
    of every factor they use, ``_side_bounds`` turns the claim into one
    exact comparison of rationals, lower(dominant) > upper(dominated): by
    Rouché's theorem the dominant side and the difference of the two then
    have the same number of roots inside the circle.  When a prerequisite is missing or
    the bound fails, 16 exact circle points are tested: one where the
    inequality fails refutes the claim, and otherwise the result is
    inconclusive (the bound is sufficient, not necessary).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not dominant[0] or not dominated[0]:
        raise ValueError("sides must be nonzero")
    used = sorted({j for side in (dominant, dominated) for j, _ in side[2]})
    missing = [j for j in used if not _factor_localized(fam, j, root_certs)]
    lower = upper = None
    if not missing:
        lower = _side_bounds(fam, dominant, radius, root_certs)[0]
        upper = _side_bounds(fam, dominated, radius, root_certs)[1]
        if lower > upper:
            return RootProductBound(
                Status.PROVED, radius, lower, upper, None,
                "root-product lower bound of the dominant side exceeds the "
                "upper bound of the dominated side",
            )
    witness = _violation(fam, dominant, dominated, radius)
    if witness is not None:
        return RootProductBound(
            Status.REFUTED, radius, lower, upper, witness,
            "inequality fails at an exact circle point",
        )
    if missing:
        detail = (
            f"factors {missing} lack a unit leading coefficient or a proved "
            f"localization of all their roots"
        )
    else:
        detail = (
            f"root-product bound fails: |dominant| >= "
            f"{decimal_approx(lower, mode='floor')} is not above |dominated| <= "
            f"{decimal_approx(upper, mode='ceil')}; no violation at "
            f"{_FALLBACK_POINTS} circle points"
        )
    return RootProductBound(Status.INCONCLUSIVE, radius, lower, upper, None, detail)


# ---------------------------------------------------------------------------
# Root localization for the family chain
# ---------------------------------------------------------------------------


class RootLocalization:
    """All roots of factor ``index`` certified inside |z| < radius.

    ``family`` is the family whose factor was localized, and ``recursion``
    whether its defining recursion P_k = eps^(c_k) - z^(n-k) prod_{j>k}
    P_j^(j-k) was proved there (the recursion of ``_localization_sides``;
    for the last factor, its linear form).  Neither is part of ``to_json``.
    """

    __slots__ = (
        "index", "radius", "degree", "count", "status", "method", "dominance",
        "detail", "family", "recursion",
    )

    def __init__(
        self,
        index: int,
        radius: Fraction,
        degree: int,
        count: Optional[int],
        status: Status,
        method: str,  # "exact-root" | "perturbation"
        dominance: Optional[RootProductBound],
        detail: str = "",
        *,
        family: Optional[Family] = None,
        recursion: bool = False,
    ):
        self.index, self.radius, self.degree, self.count = index, radius, degree, count
        self.status, self.method, self.dominance = status, method, dominance
        self.detail, self.family, self.recursion = detail, family, recursion

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "radius": format_rational(self.radius),
            "degree": self.degree,
            "count": self.count,
            "status": self.status.value,
            "method": self.method,
            "dominance": None if self.dominance is None else self.dominance.to_json(),
            "detail": self.detail,
        }


def family_root_certificates(fam: Family) -> dict[int, RootLocalization]:
    """Localize the roots of every factor, deepest factor first.

    The factor P_k (degree d_k) is certified to have all of its roots in the
    open disk |z| < 2^-k.  The last factor is linear with an explicitly known
    root; each earlier factor is its constant term minus the product of the
    already-localized deeper factors times a monomial (a recursion proved by
    comparing expansions), so a root-product dominance on its circle transfers
    the full root count.  Each certificate records ``fam`` and whether that
    recursion was proved, so ``exact_identity_checks`` does not prove the
    recursion of P_1 again.
    """
    n = fam.n
    eps = fam.params.eps
    c, d = fam.params.c, fam.params.d
    certs: dict[int, RootLocalization] = {}

    def localized(*args, recursion: bool = False) -> RootLocalization:
        return RootLocalization(*args, family=fam, recursion=recursion)

    k = n - 1
    root = eps ** c[-1]
    radius = Fraction(1, 2**k)
    if fam.Pk(k) != Poly([root, -1]):
        certs[k] = localized(
            k, radius, fam.Pk(k).degree, None, Status.INCONCLUSIVE,
            "exact-root", None, "last factor is not in the expected linear form",
        )
    elif root < radius:
        certs[k] = localized(
            k, radius, 1, 1, Status.PROVED, "exact-root", None,
            f"single root at {decimal_approx(root)} inside the disk",
            recursion=True,
        )
    else:
        certs[k] = localized(
            k, radius, 1, None, Status.REFUTED, "exact-root", None,
            f"single root at {decimal_approx(root)} lies outside |z| < {radius}",
            recursion=True,
        )

    for k in range(n - 2, 0, -1):
        radius = Fraction(1, 2**k)
        degree = fam.Pk(k).degree
        if any(certs[j].status is not Status.PROVED for j in range(k + 1, n)):
            certs[k] = localized(
                k, radius, degree, None, Status.INCONCLUSIVE, "perturbation",
                None, "a deeper factor lacks a proved localization",
            )
            continue
        big, small = _localization_sides(fam, k)
        dom = root_product_dominance(fam, big, small, radius, certs)
        if dom.status is Status.PROVED:
            inside = (n - k) + sum((j - k) * d[j - 1] for j in range(k + 1, n))
            recursion_ok = fam.Pk(k) == _side_poly(fam, small) - _side_poly(fam, big)
            if recursion_ok and degree == inside == d[k - 1]:
                certs[k] = localized(
                    k, radius, degree, inside, Status.PROVED, "perturbation",
                    dom, f"count transferred from dominant part ({inside} roots)",
                    recursion=True,
                )
            else:
                certs[k] = localized(
                    k, radius, degree, None, Status.INCONCLUSIVE, "perturbation",
                    dom, "factor does not match its defining recursion",
                    recursion=recursion_ok,
                )
        elif dom.status is Status.REFUTED:
            certs[k] = localized(
                k, radius, degree, None, Status.REFUTED, "perturbation", dom,
                "dominance fails on the localization circle",
            )
        else:
            certs[k] = localized(
                k, radius, degree, None, Status.INCONCLUSIVE, "perturbation",
                dom, dom.detail,
            )
    return certs


# ---------------------------------------------------------------------------
# Annulus bounds for each factor
# ---------------------------------------------------------------------------


class AnnulusBounds:
    """(1/2)^d_k < |P_k(z)| < 3^d_k for 1 <= |z| <= 2.

    ``spot_checks`` counts the boundary points tested, none when the root
    localization proves the bounds; ``exact_fallbacks`` counts those whose
    brackets overlapped, which exact integers decided.  It describes the
    work, not the verdict, and is not part of ``to_json``.
    """

    __slots__ = ("index", "lower", "upper", "status", "spot_checks", "detail", "exact_fallbacks")

    def __init__(
        self,
        index: int,
        lower: Fraction,
        upper: Fraction,
        status: Status,
        spot_checks: int,
        detail: str = "",
        exact_fallbacks: int = 0,
    ):
        self.index, self.lower, self.upper, self.status = index, lower, upper, status
        self.spot_checks, self.detail, self.exact_fallbacks = spot_checks, detail, exact_fallbacks

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "status": self.status.value,
            "spot_checks": self.spot_checks,
            "detail": self.detail,
        }


def _annulus_bounds(fam: Family, k: int) -> tuple[Fraction, Fraction]:
    """The bounds (1/2)^d_k and 3^d_k of |P_k| on the annulus."""
    deg = fam.params.d[k - 1]
    return Fraction(1, 2**deg), Fraction(3**deg)


def annulus_spot_checks(fam: Family, k: int, *, spot_checks: int = 512) -> SpotLoop:
    """The annulus bounds of P_k at ``spot_checks`` exact points, half on each
    of |z| = 1 and |z| = 2 (rounded up to an even count per circle)."""
    lower, upper = _annulus_bounds(fam, k)
    lo2, up2 = constant_factor(lower * lower), constant_factor(upper * upper)
    per_circle = max(2, spot_checks // 2)
    per_circle += per_circle % 2
    return spot_loop(
        (fam.Pk(k),),
        (Fraction(1), Fraction(2)),
        per_circle,
        lambda values: values.lt((lo2,), (0,)) and values.lt((0,), (up2,)),
    )


def annulus_bounds_for_factor(
    fam: Family,
    k: int,
    root_cert: RootLocalization,
    *,
    spot_checks: int = 512,
) -> AnnulusBounds:
    """Bound |P_k| on the annulus 1 <= |z| <= 2 from its root localization.

    With all ``d_k`` roots strictly inside |z| < 1/2 and a unit-modulus
    leading coefficient, every linear factor has modulus in (1/2, 3) on the
    annulus, giving the product bounds.  Only where that derivation lacks a
    prerequisite -- a proved localization of this family's P_k -- do
    ``annulus_spot_checks`` test the bounds on the two boundary circles, so
    that a broken factor is refuted with an explicit witness.
    """
    p = fam.Pk(k)
    deg = fam.params.d[k - 1]
    lower, upper = _annulus_bounds(fam, k)
    derivation_ok = (
        root_cert.status is Status.PROVED
        and root_cert.family is fam
        and root_cert.index == k
        and root_cert.radius <= Fraction(1, 2)
        and root_cert.count == root_cert.degree == deg == p.degree
        and abs(p.leading) == 1
    )
    if derivation_ok:
        return AnnulusBounds(
            k, lower, upper, Status.PROVED, 0, "derived from root localization"
        )
    loop = annulus_spot_checks(fam, k, spot_checks=spot_checks)
    if loop.witness is not None:
        return AnnulusBounds(
            k, lower, upper, Status.REFUTED, loop.points,
            f"bound fails at exact point {loop.witness.point} on |z| = {loop.radius}",
            loop.exact_fallbacks,
        )
    return AnnulusBounds(
        k, lower, upper, Status.INCONCLUSIVE, loop.points,
        "spot checks pass but the root localization prerequisite is missing",
        loop.exact_fallbacks,
    )


class AnnulusReport:
    """Two-sided annulus bounds for every factor of ``family``."""

    __slots__ = ("status", "per_factor", "detail", "family")

    def __init__(
        self,
        status: Status,
        per_factor: tuple[AnnulusBounds, ...],
        detail: str = "",
        *,
        family: Optional[Family] = None,
    ):
        self.status, self.per_factor, self.detail, self.family = status, per_factor, detail, family

    def factor(self, k: int) -> AnnulusBounds:
        return self.per_factor[k - 1]

    def counts(self) -> dict[str, int]:
        """The spot-check points of all factors and their exact fallbacks."""
        return {
            "points": sum(b.spot_checks for b in self.per_factor),
            "exact_fallbacks": sum(b.exact_fallbacks for b in self.per_factor),
        }

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "per_factor": [b.to_json() for b in self.per_factor],
            "detail": self.detail,
        }


_ANNULUS_DETAIL = {
    Status.REFUTED: "a factor bound is refuted",
    Status.INCONCLUSIVE: "a factor bound is not proved",
    Status.PROVED: "all factor bounds proved",
}


def annulus_bounds_certificate(
    fam: Family,
    root_certs: dict[int, RootLocalization],
    *,
    spot_checks: int = 512,
) -> AnnulusReport:
    """Annulus bounds for all factors from their root localizations."""
    per_factor = tuple(
        annulus_bounds_for_factor(fam, k, root_certs[k], spot_checks=spot_checks)
        for k in range(1, fam.n)
    )
    status = worst(b.status for b in per_factor)
    return AnnulusReport(status, per_factor, _ANNULUS_DETAIL[status], family=fam)


# ---------------------------------------------------------------------------
# Corollary inequality chains
# ---------------------------------------------------------------------------


class IneqCheck(NamedTuple):
    name: str
    passed: bool
    lhs: Fraction
    rhs: Fraction
    relation: str = "<"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "lhs": decimal_approx(self.lhs, mode="ceil"),
            "rhs": decimal_approx(self.rhs, mode="floor"),
            "relation": self.relation,
        }


class CorollaryReport:
    """The envelope inequality chains of ``family``; ``family`` is not part
    of ``to_json``."""

    __slots__ = ("status", "checks", "detail", "family")

    def __init__(
        self,
        status: Status,
        checks: tuple[IneqCheck, ...],
        detail: str = "",
        *,
        family: Optional[Family] = None,
    ):
        self.status, self.checks, self.detail, self.family = status, checks, detail, family

    def failed(self) -> list[IneqCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "checks": [c.to_json() for c in self.checks],
            "detail": self.detail,
        }


def corollary_ineq_certificate(fam: Family, annulus: AnnulusReport) -> CorollaryReport:
    """The scalar inequality chains that drive the mapping estimates.

    From the annulus bounds, on 1 <= |z| <= 2 the two map components obey

        |f1| <= eps * 3^T * 2^n,   |f1| >= eps * 2^-T  (T = sum k*d_k),
        |f2| <= 2 * eps^2 * 3^S               (S = sum d_k),

    and the chains below are exact rational comparisons between those
    envelope values and the disk radius / cone opening parameters.
    """
    n = fam.n
    eps, r, rho = fam.params.eps, fam.params.r, fam.params.rho
    d = fam.params.d
    t_sum = sum((k + 1) * d[k] for k in range(n - 1))
    s_sum = sum(d)
    upper_f1 = eps * Fraction(3) ** t_sum * 2**n
    lower_f1 = eps * Fraction(1, 2**t_sum)
    upper_f2 = 2 * eps * eps * Fraction(3) ** s_sum
    lower_f1_outer = eps * Fraction(1, 2**t_sum) * 2**n

    def lt(name: str, lhs: Fraction, rhs: Fraction) -> IneqCheck:
        return IneqCheck(name, lhs < rhs, lhs, rhs, "<")

    def le(name: str, lhs: Fraction, rhs: Fraction) -> IneqCheck:
        return IneqCheck(name, lhs <= rhs, lhs, rhs, "<=")

    checks = (
        lt("f1-upper-vs-r-over-n", upper_f1, r / n),
        lt("f2-upper-vs-r2-over-n", upper_f2, r * r / n),
        lt("f2-scaled-vs-f1-lower", n * upper_f2, lower_f1),
        lt("f2-upper-below-one", upper_f2, Fraction(1)),
        lt("f2-upper-vs-f1-lower", upper_f2, lower_f1),
        le("scalar-window", r * r, (rho / 2) * (r - r * r)),
        le(
            "outer-boundary-chain",
            upper_f1 * upper_f1 + (rho / 2) * upper_f2,
            (rho / 2) * lower_f1_outer,
        ),
    )

    if any(not c.passed for c in checks):
        status = Status.REFUTED
        detail = "an exact envelope inequality fails"
    elif annulus.status is not Status.PROVED or annulus.family is not fam:
        status = Status.INCONCLUSIVE
        detail = "envelope comparisons pass but an annulus bound is not proved"
    else:
        status = Status.PROVED
        detail = "all envelope inequalities hold with proved annulus bounds"
    return CorollaryReport(status, checks, detail, family=fam)


# ---------------------------------------------------------------------------
# Identities by exponent bookkeeping
# ---------------------------------------------------------------------------

# Sides (see ``_localization_sides``) multiply as monomials c z^m prod X_j^e
# in symbols X_j that stand for the factors P_j.


def _side_product(*sides: tuple) -> tuple:
    """The product of ``sides``, as a side."""
    c, m, powers = Fraction(1), 0, Counter()
    for side_c, side_m, factors in sides:
        c, m = c * side_c, m + side_m
        for j, e in factors:
            powers[j] += e
    return c, m, tuple(sorted((j, e) for j, e in powers.items() if e))


def _negated(side: tuple) -> tuple:
    c, m, factors = side
    return -c, m, factors


def _normal_form(sides: list, recursion: tuple) -> dict:
    """The sum of ``sides`` with X_1 eliminated, as {(m, factors): c}.

    ``recursion`` is ``_localization_sides(fam, 1)``, (dominant, (a, 0, ())),
    for P_1 = a - dominant: each X_1^e expands binomially into sum_i C(e, i)
    a^(e-i) (-dominant)^i.  The constants stay exact ``Fraction``s, so
    a = eps^(c_1) is compared with eps exactly.  Equal normal forms are
    equal polynomials once the X_j are replaced by the P_j; different ones
    prove nothing, since the P_j satisfy relations the symbols do not.
    """
    dominant, (a, _, _) = recursion
    out: dict = {}
    for c, m, factors in sides:
        powers = dict(factors)
        e = powers.pop(1, 0)
        rest = (Fraction(c), m, tuple(powers.items()))
        for i in range(e + 1):
            term = _side_product(rest, *[_negated(dominant)] * i)
            key = term[1:]
            out[key] = out.get(key, 0) + term[0] * math.comb(e, i) * Fraction(a) ** (e - i)
    return {key: c for key, c in out.items() if c}


class ProductForms(NamedTuple):
    """The product forms proved for ``family`` (``_proved_forms``).

    ``f1`` is the side eps z^n prod P_j^j and ``f2`` the side eps^2 z prod
    P_j, each equal to the family's polynomial, and ``recursion`` is
    ``_localization_sides(family, 1)``, whose difference equals P_1.
    """

    family: Family
    f1: tuple
    f2: tuple
    recursion: tuple

    def equal(self, lhs: list, rhs: list) -> bool:
        """Whether two sums of sides have the same normal form.

        True proves the identity; False proves nothing.
        """
        return _normal_form(lhs, self.recursion) == _normal_form(rhs, self.recursion)


def _proved_forms(
    fam: Family, root_certs: Optional[dict] = None
) -> Optional[ProductForms]:
    """``fam``'s product forms, or None unless all three are proved.

    The premises are f1 and f2 equal to their product forms, and P_1 equal
    to the difference of ``_localization_sides(fam, 1)`` (at n = 2, the
    linear form eps^(c_1) - z).  The first two are one check in Z[lam, eps]
    (``FamilyForm.products_hold``, 2(n - 1) ring products); where it fails
    it proves nothing, and None leaves every identity to the comparison of
    its own expansions.  The recursion of P_1 is taken from ``root_certs[1]``
    where ``family_root_certificates(fam)`` proved it, and is compared with
    its expanded sides otherwise.
    """
    f1, f2 = fam.product_form("f1"), fam.product_form("f2")
    dominant, rest = recursion = _localization_sides(fam, 1)
    cert = (root_certs or {}).get(1)
    proved_by_roots = cert is not None and cert.family is fam and cert.recursion
    if fam.form.products_hold() and (
        proved_by_roots or fam.Pk(1) == _side_poly(fam, rest) - _side_poly(fam, dominant)
    ):
        return ProductForms(fam, f1, f2, recursion)
    return None


# ---------------------------------------------------------------------------
# Division identities
# ---------------------------------------------------------------------------


class DivisionWitness:
    """The factor ``index`` divides the cone combination C of chart ``index - 1``.

    C is ``unit_part - dominant``, the expansions of ``cone_sides(family,
    index - 1)``.  ``method`` is the argument: ``"recursion"`` where the
    proved recursions give the divisibility (``lemma_div_check``), nothing
    expanded, and ``"long-division"`` where C was expanded and divided.
    ``degree`` is the quotient's degree, None unless proved.  The report
    states the argument and that degree, not the quotient's coefficients.

    ``quotient``, ``unit_part`` and ``dominant`` are expanded on first read
    (where the long division ran, they are its own), and ``combination``
    is their difference: the cone factor of chart ``index - 1`` reads it
    only where the product forms leave its identity open, and the tests
    read the quotient.
    """

    def __init__(
        self,
        index: int,
        status: Status,
        method: str,  # "recursion" | "long-division"
        degree: Optional[int],
        detail: str = "",
        *,
        family: Family,
        # (quotient, unit_part, dominant) of the long division, where it ran
        expanded: Optional[tuple] = None,
    ):
        self.index, self.status, self.method, self.degree = index, status, method, degree
        self.detail, self.family, self.expanded = detail, family, expanded

    @cached_property
    def _sides(self) -> tuple[Poly, Poly]:
        if self.expanded is not None:
            return self.expanded[1:]
        dominant, unit_part = (
            _side_poly(self.family, side)
            for side in cone_sides(self.family, self.index - 1)
        )
        return unit_part, dominant

    unit_part = property(lambda self: self._sides[0])
    dominant = property(lambda self: self._sides[1])

    @cached_property
    def combination(self) -> Poly:
        return self.unit_part - self.dominant

    @cached_property
    def quotient(self) -> Optional[Poly]:
        """C / P_index, None unless proved; where the recursions proved it,
        1 + (unit_part - e) / P_index with e the constant of P_index's
        recursion."""
        if self.status is not Status.PROVED:
            return None
        if self.expanded is not None:
            return self.expanded[0]
        fam, k = self.family, self.index
        e = _localization_sides(fam, k)[1][0]
        return Poly.one() + (self.unit_part - e) // fam.Pk(k)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "status": self.status.value,
            "method": self.method,
            "quotient_degree": self.degree,
            "detail": self.detail,
        }


def _derived_quotient_degree(
    fam: Family, k: int, root_certs: Optional[dict]
) -> Optional[int]:
    """The degree of C / P_k where the proved recursions give the division
    (see ``lemma_div_check``), None where they do not."""
    if not _recursions_proved(fam, root_certs, k):
        return None
    if any(p.is_zero for p in fam.P):
        return None
    dominant, unit_part = cone_sides(fam, k - 1)
    own, (e_k, _, _) = _localization_sides(fam, k)
    c, m, factors = unit_part
    residue = Fraction(c)
    for j, e in factors:
        residue *= Fraction(_localization_sides(fam, j)[1][0]) ** e
    if dominant != own or m or residue != e_k or any(j >= k for j, _ in factors):
        return None
    unit_degree, dominant_degree = _side_degree(fam, unit_part), _side_degree(fam, dominant)
    if unit_degree == dominant_degree:
        return None  # the leading terms may cancel
    return max(unit_degree, dominant_degree) - fam.Pk(k).degree


def lemma_div_check(
    fam: Family, k: int, root_certs: Optional[dict[int, RootLocalization]] = None
) -> DivisionWitness:
    """Verify that factor k divides the cone combination of chart k - 1.

    C = eps^(2k-1) prod_{j<k} P_j^(k-j) - z^(n-k) prod_{j>k} P_j^(j-k), the
    scaled product of the factors below k minus the monomial-weighted
    product of those above (for k = 1 it is the factor itself, quotient
    one).  Where ``root_certs`` (``family_root_certificates(fam)``) proved
    the recursions P_j = e_j - z^(n-j) prod_{i>j} P_i^(i-j), e_j =
    eps^(c_j), of P_1, ..., P_k for ``fam`` itself, the division is derived
    and nothing is expanded:

    * for j < k the recursion of P_j holds P_k^(k-j), so P_j = e_j mod
      P_k, and the unit side is eps^(2k-1) prod_{j<k} e_j^(k-j) = e_k mod
      P_k (checked as an exact product of the constants: the definition
      of c_k);
    * the dominant side is the dominated side of P_k's own recursion, so
      C = e_k - (e_k - P_k) = 0 mod P_k;
    * the quotient is 1 + (unit side - e_k)/P_k.  With its sides' degrees
      apart, read from the factors' ``Poly`` degrees, C is nonzero and the
      quotient has degree max(side degrees) - deg P_k; its value at 0 is 1,
      since every P_j(0) = e_j.

    Where a premise is missing, or the two side degrees tie, C is expanded
    and divided exactly, and a nonzero remainder refutes the construction,
    so a tampered family is still decided.
    """
    if not 1 <= k <= fam.n - 1:
        raise ValueError(f"factor index must be in 1..{fam.n - 1}")
    degree = _derived_quotient_degree(fam, k, root_certs)
    if degree is not None:
        return DivisionWitness(
            k, Status.PROVED, "recursion", degree,
            f"C = 0 mod P_{k} by the proved recursions of P_1..P_{k} (unit side = "
            f"eps^c_{k}, dominant side = eps^c_{k} - P_{k}); quotient degree {degree}",
            family=fam,
        )
    combination, unit_part, dominant = _cone_combination(fam, k - 1)
    quotient, remainder = divmod(combination, fam.Pk(k))
    if remainder.is_zero:
        return DivisionWitness(
            k, Status.PROVED, "long-division", quotient.degree,
            f"exact division; quotient degree {quotient.degree}",
            family=fam, expanded=(quotient, unit_part, dominant),
        )
    return DivisionWitness(
        k, Status.REFUTED, "long-division", None,
        f"nonzero remainder of degree {remainder.degree}",
        family=fam, expanded=(None, unit_part, dominant),
    )


# ---------------------------------------------------------------------------
# Cone denominators: factorization and nonvanishing
# ---------------------------------------------------------------------------


class ConeFactorCertificate(NamedTuple):
    """Certified factorization of f2^(k+1) - f1 over the chart of index k.

    For k <= n-2:  f2^(k+1) - f1 = G * C with G a unit times a monomial and
    localized factors, C divisible by factor k+1, and the cofactor C / P_{k+1}
    certified nonvanishing on |z| <= 2.  For k = n-1 the difference is
    f1 * Q with Q certified nonvanishing on |z| <= 2.
    """

    index: int
    status: Status
    identity_ok: bool
    divisibility_ok: bool
    nonvanishing: Optional[RootProductBound]
    localized: Optional[int]
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "status": self.status.value,
            "identity_ok": self.identity_ok,
            "divisibility_ok": self.divisibility_ok,
            "nonvanishing": None if self.nonvanishing is None else self.nonvanishing.to_json(),
            "localized": self.localized,
            "detail": self.detail,
        }


def _cone_combination(fam: Family, k: int) -> tuple[Poly, Poly, Poly]:
    """C and its two sides (unit part, dominant part) for chart k <= n-2.

    C is the cone combination of f2^(k+1) - f1 = G * C, where G = eps *
    z^(k+1) * prod_j P_j^min(j, k+1) (``_cone_identity`` proves that
    identity).  The sides are the expansions of ``cone_sides(fam, k)``.
    """
    dominant, unit_part = (_side_poly(fam, side) for side in cone_sides(fam, k))
    return unit_part - dominant, unit_part, dominant


def _cone_identity(
    fam: Family,
    k: int,
    combination: Callable[[], Poly],
    forms: Optional[ProductForms] = None,
) -> bool:
    """Whether f2^(k+1) - f1 == G * C, G = eps z^(k+1) prod_j P_j^min(j, k+1).

    ``combination()`` returns C, the expansion of ``cone_sides(fam, k)``,
    unit part minus dominant.  With ``forms`` the identity is read from the
    normal forms of the product forms of f1 and f2 against G times each
    symbolic side (both reduce to the same exponent vectors), and C is not
    asked for; without them, or where the normal forms differ, both sides
    are expanded, G from its side and C by ``combination()``, and compared.
    """
    g = (fam.params.eps, k + 1, tuple((j, min(j, k + 1)) for j in range(1, fam.n)))
    if forms is not None:
        dominant, unit_part = cone_sides(fam, k)
        lhs = [_side_product(*[forms.f2] * (k + 1)), _negated(forms.f1)]
        rhs = [_side_product(g, unit_part), _negated(_side_product(g, dominant))]
        if forms.equal(lhs, rhs):
            return True
    return fam.f2 ** (k + 1) - fam.f1 == _side_poly(fam, g) * combination()


def cone_factor_certificate(
    fam: Family,
    k: int,
    root_certs: dict[int, RootLocalization],
    identities: CheckReport,
    divisions: Sequence[DivisionWitness],
) -> ConeFactorCertificate:
    """Certify the factorization of f2^(k+1) - f1 used by chart k.

    For k <= n-2 the identity f2^(k+1) - f1 = G * C is checked here: C is
    the combination of the ``cone_sides`` that the dominance below compares
    in product form, and of the division witness ``divisions[k]``
    (``lemma_div_check(fam, k+1)``).  When ``identities`` is the report of
    ``exact_identity_checks(fam)`` and proved the product forms of f1 and
    f2 (``ProductForms``), the identity is an equality of exponent vectors
    over those symbolic sides, and nothing is expanded; otherwise, or where
    the exponents do not match, the witness's ``combination`` is expanded
    (once, by the witness) and the identity proved by comparing the
    expansions of its sides (``_cone_identity``).  The divisibility of C by
    factor k+1 and the cofactor's degree are read from the witness rather
    than redone.
    The nonvanishing of the cofactor is established by counting: the
    root-product dominance on |z| = 2 (``root_product_dominance``) localizes
    all roots of C among the already-localized deeper factors and the
    origin, and that count is exactly absorbed by the multiplicity of factor
    k+1 inside the disk, leaving the cofactor with no root of modulus <= 2.

    For k = n-1 the identity f2^n - f1 = f1 * (unit - 1) is the power-ratio
    identity of ``identities`` rearranged, so its verdict is taken from
    there; dominance of 1 over the unit on |z| = 2 makes the cofactor
    nonvanishing.
    """
    n = fam.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"chart index must be in 0..{n - 1}")
    d = fam.params.d

    dom = root_product_dominance(fam, *cone_sides(fam, k), Fraction(2), root_certs)
    if k == n - 1:
        identity_ok = identities.passed("power-ratio")
        if not identity_ok or dom.status is Status.REFUTED:
            status = Status.REFUTED
            detail = "factorization identity fails" if not identity_ok else (
                "cofactor dominance fails on |z| = 2"
            )
        elif dom.status is Status.PROVED:
            status, detail = Status.PROVED, "difference is f1 times a nonvanishing unit"
        else:
            status, detail = Status.INCONCLUSIVE, dom.detail
        return ConeFactorCertificate(k, status, identity_ok, True, dom, 0, detail)

    division = divisions[k]
    if division.index != k + 1:
        raise ValueError("divisions must hold lemma_div_check(fam, j) for j = 1..n-1")
    identity_ok = _cone_identity(
        fam, k, lambda: division.combination, _forms_of(fam, identities)
    )
    divisibility_ok = division.status is Status.PROVED and division.degree >= 0

    prereq_ok = all(_factor_localized(fam, j, root_certs) for j in range(k + 1, n))
    inside = (n - k - 1) + sum((j - k - 1) * d[j - 1] for j in range(k + 2, n))
    bookkeeping_ok = inside == d[k]

    if not identity_ok or not divisibility_ok or dom.status is Status.REFUTED:
        status = Status.REFUTED
        if not identity_ok:
            detail = "factorization identity fails"
        elif not divisibility_ok:
            detail = "factor k+1 does not divide the combination"
        else:
            detail = "combination dominance fails on |z| = 2"
    elif dom.status is Status.PROVED and prereq_ok and bookkeeping_ok:
        status = Status.PROVED
        detail = (
            f"cofactor of degree {division.degree} has no root with |z| <= 2 "
            f"({inside} localized roots all absorbed by factor {k + 1})"
        )
    else:
        status = Status.INCONCLUSIVE
        detail = dom.detail if dom.status is not Status.PROVED else (
            "a deeper root localization is missing"
        )
    return ConeFactorCertificate(
        k, status, identity_ok, divisibility_ok, dom, inside, detail
    )


# ---------------------------------------------------------------------------
# Exact polynomial identities
# ---------------------------------------------------------------------------


def _identity_cofactors(fam: Family) -> tuple[tuple, tuple, tuple]:
    """The sides (unit, difference, square) of the three exact identities:
    f2^n = f1 * unit, f2 - f1 = difference and f1^2 = (f2 - f1) * square."""
    n, eps = fam.n, fam.params.eps
    unit = cone_sides(fam, n - 1)[1]
    difference = (eps, 1, ((1, 2), *((j, 1) for j in range(2, n))))
    square = (eps, 2 * n - 1, tuple((j, 2 * j - 1) for j in range(2, n)))
    return unit, difference, square


def _identity_sides(fam: Family) -> dict[str, Callable[[], tuple[Poly, Poly]]]:
    """The two expanded sides of each exact identity, one callable each.

    They read f1 and f2 as the family's polynomials, not as product forms:
    the comparison that decides an identity bookkeeping leaves open.  A side
    is expanded only when its callable is called.
    """
    n = fam.n
    unit, difference, square = _identity_cofactors(fam)
    return {
        "power-ratio": lambda: (fam.f2**n, fam.f1 * _side_poly(fam, unit)),
        "difference-factorization": lambda: (fam.f2 - fam.f1, _side_poly(fam, difference)),
        "square-ratio": lambda: (fam.f1 * fam.f1, (fam.f2 - fam.f1) * _side_poly(fam, square)),
    }


def _identity_products(forms: ProductForms) -> dict[str, tuple[list, list]]:
    """The sides of ``_identity_sides`` in product form, f1 and f2 by ``forms``."""
    fam = forms.family
    n, f1, f2 = fam.n, forms.f1, forms.f2
    unit, difference, square = _identity_cofactors(fam)
    return {
        "power-ratio": ([_side_product(*[f2] * n)], [_side_product(f1, unit)]),
        "difference-factorization": ([f2, _negated(f1)], [difference]),
        "square-ratio": (
            [_side_product(f1, f1)],
            [_side_product(f2, square), _negated(_side_product(f1, square))],
        ),
    }


class IdentityReport(CheckReport):
    """The exact identities, and the product forms they were derived from.

    ``forms`` is None unless all three premises were proved; it is neither
    part of ``to_json`` nor compared.  ``cone_factor_certificate`` reads it.
    """

    __slots__ = ("forms",)

    def __init__(self, checks: tuple, forms: Optional[ProductForms] = None):
        super().__init__(checks)
        self.forms = forms


def _forms_of(fam: Family, identities: CheckReport) -> Optional[ProductForms]:
    """The product forms that ``identities`` proved for ``fam`` itself, if any."""
    forms = identities.forms if isinstance(identities, IdentityReport) else None
    return forms if forms is not None and forms.family is fam else None


def exact_identity_checks(
    fam: Family, root_certs: Optional[dict[int, RootLocalization]] = None
) -> IdentityReport:
    """Division identities tying the two map components together.

    * ``power-ratio``: f2^n equals f1 times the unit eps^(2n-1) prod_j
      P_j^(n-j) (the unit part of ``cone_sides(fam, n - 1)``).
    * ``difference-factorization``: f2 - f1 factors through the square of the
      first factor.
    * ``square-ratio``: f1^2 / (f2 - f1) is a polynomial with an explicit
      product form.

    Three premises come from ``_proved_forms``: f1 = eps z^n prod P_j^j and
    f2 = eps^2 z prod P_j in Z[lam, eps] (never on a family given by its
    polynomials, ``Family.of``), and the recursion P_1 = eps^(c_1) -
    z^(n-1) prod_{j>=2} P_j^(j-1), read from ``root_certs``, the
    ``family_root_certificates(fam)``, where they proved it and compared by
    expansion otherwise.  Given them, power-ratio is an equality of exponent
    vectors, and difference-factorization and square-ratio follow once P_1
    is rewritten by its recursion (``ProductForms.equal``), with no
    identity side expanded.  Where a premise fails, or two normal forms
    differ, the identity is proved or refuted by comparing the expansions
    of its own sides (``_identity_sides``), so a tampered family is still
    decided exactly.
    """
    forms = _proved_forms(fam, root_certs)
    derived = _identity_products(forms) if forms is not None else {}
    holds = {}
    for name, sides in _identity_sides(fam).items():
        if name in derived and forms.equal(*derived[name]):
            holds[name] = True
        else:
            lhs, rhs = sides()
            holds[name] = lhs == rhs
    return IdentityReport(
        checks=(
            CheckResult("power-ratio", holds["power-ratio"],
                        "f2^n = f1 * unit-polynomial"),
            CheckResult("difference-factorization", holds["difference-factorization"],
                        "f2 - f1 = eps * z * P1^2 * (deeper factors)"),
            CheckResult("square-ratio", holds["square-ratio"],
                        "f1^2 = (f2 - f1) * explicit polynomial"),
        ),
        forms=forms,
    )
