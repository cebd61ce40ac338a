"""Certified analytic facts about the polynomial family.

Everything here reduces to finitely many exact rational comparisons; no
floating point enters any decision.  The central tool is a dominance
certificate: a proof that ``|dominated(z)| < |dominant(z)|`` holds everywhere
on a circle ``|z| = R``.  Such a certificate transfers root counts from the
dominant part to the difference (the classical perturbation argument), which
is how every root-localization and nonvanishing claim below is established.

Circle coverage uses two rational half-circle charts.  For a parameter
``t`` in ``[-1, 1]`` the point

    w(t) = R * ((1 - t^2) + 2t*i) / (1 + t^2)

sweeps the closed right half of ``|z| = R`` and has exactly rational
coordinates; the left half is covered by evaluating the variable-negated
polynomials at the same points.  On an arc ``[lo, hi]`` the distance from any
point to the arc midpoint is bounded by the exact rational quantity

    chord^2 <= 4 R^2 ((hi-lo)/2)^2 / ((1 + m^2)(1 + mid^2)),

``m`` the smallest ``|t|`` on the arc, and a polynomial moves by at most a
Lipschitz constant ``sum_i i*|a_i|*R^(i-1)`` times that distance.  One exact
evaluation per arc midpoint therefore yields certified bounds on an entire
arc, and arcs are refined adaptively (worst bound first) until every arc is
certified, a genuine counterexample point is found, or the subdivision
budget runs out.

The arc bounds are exact rationals, but they are not computed as such on
every arc.  192-bit brackets of them (``bounds.arc_gap_bracket``), built
from the unreduced midpoint values without a gcd, decide most arcs; exact
integers settle every arc the brackets leave undecided, so each open arc
carries its exact bound as its heap key.  The reported margin is the exact
minimum over the certified arcs, computed exactly only on the arcs whose
margin bracket can still hold it.

Polynomial identities between products of the family's factors (the exact
identities and each chart's cone factorization) are proved by exact
evaluation instead of expansion.  Both sides have degree at most D, read
from the degrees of the actual ``Poly`` objects, and a nonzero polynomial of
degree at most D has at most D roots, so agreement at D + 1 distinct
integers proves the identity.  The factors are evaluated by ``eval_scaled``
and their values multiplied; only the polynomials that later stages use as
polynomials (the power-ratio unit and the cone combinations, for dominance,
the chart window and the divisions) are expanded, and they are evaluated
from those expansions.

Status taxonomy: ``PROVED`` (certificate complete), ``REFUTED`` (an exact
witness violates the claim), ``INCONCLUSIVE`` (budget exhausted, no
applicable strategy, or a prerequisite certificate missing -- never a
soundness concession).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .arith import (
    BALL_BITS,
    ComplexRational,
    Poly,
    as_scaled,
    decimal_approx,
    eval_scaled,
    format_rational,
    scaled_abs2,
)
from .bounds import (
    Values,
    arc_gap_bracket,
    constant_factor,
    min_candidates,
    prod_gt,
    ratio_bracket,
    sqrt_bracket,
)
from .family import CheckReport, CheckResult, Family

__all__ = [
    "Status",
    "CirclePoint",
    "Dominance",
    "RootLocalization",
    "AnnulusBounds",
    "AnnulusReport",
    "IneqCheck",
    "CorollaryReport",
    "DivisionWitness",
    "ConeFactorCertificate",
    "IdentityReport",
    "DEFAULT_BUDGET",
    "worst",
    "sqrt_lower",
    "sqrt_upper",
    "lipschitz_on_disk",
    "circle_points",
    "circle_triples",
    "certify_dominance",
    "family_root_certificates",
    "annulus_bounds_certificate",
    "annulus_bounds_for_factor",
    "corollary_ineq_certificate",
    "lemma_div_check",
    "cone_factor_certificate",
    "power_ratio_unit",
    "exact_identity_checks",
]

DEFAULT_BUDGET = 1 << 16  # subdivisions per circle


class Status(str, Enum):
    PROVED = "proved"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


_SEVERITY = {Status.PROVED: 0, Status.INCONCLUSIVE: 1, Status.REFUTED: 2}


def worst(statuses) -> Status:
    """Worst-of aggregation: any refutation wins, then any non-answer."""
    return max(statuses, key=_SEVERITY.__getitem__, default=Status.PROVED)


# ---------------------------------------------------------------------------
# One-sided square roots
# ---------------------------------------------------------------------------

_SQRT_BITS = 64


def _sqrt_bracket(q: Fraction) -> tuple[int, int, bool]:
    if q < 0:
        raise ValueError("square root of a negative rational")
    n, d = q.numerator, q.denominator
    x = (n * d) << (2 * _SQRT_BITS)
    t = math.isqrt(x)
    return t, d << _SQRT_BITS, t * t == x


def sqrt_lower(q: Fraction) -> Fraction:
    """A rational lower bound on sqrt(q), exact for perfect squares."""
    t, scale, _ = _sqrt_bracket(q)
    return Fraction(t, scale)


def sqrt_upper(q: Fraction) -> Fraction:
    """A rational upper bound on sqrt(q), exact for perfect squares."""
    t, scale, exact = _sqrt_bracket(q)
    return Fraction(t if exact else t + 1, scale)


# ---------------------------------------------------------------------------
# Circle charts
# ---------------------------------------------------------------------------


def chart_point(radius: Fraction, t: Fraction) -> ComplexRational:
    """The right-half-circle chart w(t); |w(t)| = radius exactly."""
    den = 1 + t * t
    return ComplexRational(radius * (1 - t * t) / den, radius * 2 * t / den)


def _abs2_at(p: Poly, w: ComplexRational) -> tuple[int, int]:
    """abs2(p(w)) as an unreduced pair (num, den), by integer-scaled Horner."""
    return scaled_abs2(eval_scaled(p, *as_scaled(w)))


def lipschitz_on_disk(p: Poly, radius: Fraction) -> Fraction:
    """sum_i i*|a_i|*R^(i-1): a Lipschitz constant for p on |z| <= R."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ints, den = p.scaled()
    rn, rd = radius.numerator, radius.denominator
    # sum_{i>=1} i |ints_i| rn^(i-1) rd^(deg-i) over den rd^(deg-1), by
    # homogeneous Horner on unreduced integers: one gcd, in the Fraction
    deg = len(ints) - 1
    total = 0
    rd_power = 1
    for i in range(deg, 0, -1):
        total = total * rn + i * abs(ints[i]) * rd_power
        rd_power *= rd
    return Fraction(total, den * rd ** max(deg - 1, 0))


@dataclass(frozen=True)
class CirclePoint:
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


# ---------------------------------------------------------------------------
# Arc geometry
# ---------------------------------------------------------------------------


def _chord_upper(radius: Fraction, lo: Fraction, hi: Fraction, mid: Fraction) -> Fraction:
    """Upper bound on |w(x) - w(mid)| over x in [lo, hi]."""
    m = min(abs(lo), abs(hi)) if (lo < 0) == (hi < 0) else Fraction(0)
    chord2 = (radius * (hi - lo)) ** 2 / ((1 + m * m) * (1 + mid * mid))
    return sqrt_upper(chord2)


# ---------------------------------------------------------------------------
# Dominance on a circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dominance:
    """Outcome of certifying |dominated| < |dominant| on a circle |z| = radius.

    ``margin`` is in squared-modulus units: the minimum over all certified
    arcs of (certified lower bound on abs2(dominant)) minus (certified upper
    bound on abs2(dominated)).  It is that exact minimum even though most
    arcs are certified by 192-bit brackets alone: only the arcs whose margin
    bracket can still hold the minimum get their margin computed exactly.

    ``exact_arcs`` counts the arc assessments the brackets left undecided,
    which exact integers settled (every arc that stayed open is among them),
    and ``exact_margins`` the certified arcs whose margin was computed
    exactly.  They describe the work, not the verdict, and are not part of
    ``to_json``.
    """

    status: Status
    dominant: Poly
    dominated: Poly
    radius: Fraction
    subdivisions: int
    arcs: int
    margin: Optional[Fraction]
    witness: Optional[CirclePoint]  # refuted: |dominated| >= |dominant| here
    detail: str = ""
    exact_arcs: int = field(default=0, compare=False, repr=False)
    exact_margins: int = field(default=0, compare=False, repr=False)

    def counts(self) -> dict[str, int]:
        """The arcs of the certificate and how many of them needed exact integers."""
        return {
            "arcs": self.arcs,
            "exact_arcs": self.exact_arcs,
            "exact_margins": self.exact_margins,
        }

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "dominant_degree": self.dominant.degree,
            "dominated_degree": self.dominated.degree,
            "radius": format_rational(self.radius),
            "subdivisions": self.subdivisions,
            "arcs": self.arcs,
            "margin": None if self.margin is None else decimal_approx(self.margin, mode="floor"),
            "witness": None if self.witness is None else self.witness.to_json(),
            "detail": self.detail,
        }


_INITIAL_ARCS = 8  # arcs per chart half-circle before any refinement


def _root_bracket(num: int, den: int, root) -> tuple:
    """A bracket of ``root(num/den)``, ``root`` being ``sqrt_lower`` or ``sqrt_upper``.

    Operands that fit in the bracket precision take the exact root, which is
    cheap, so the bracket of a dyadic root (the constant one) is a point.
    Larger ones are bracketed without reducing ``num/den``, by the slack of
    ``sqrt_bracket``: both one-sided roots lie within 2^-64/d of the root of
    the reduced form n/d.
    """
    if max(num.bit_length(), den.bit_length()) <= BALL_BITS:
        return _fraction_bracket(root(Fraction(num, den)))
    return sqrt_bracket(num, den, _SQRT_BITS)


def _fraction_bracket(q: Fraction) -> tuple:
    """The bracket of a nonnegative rational."""
    return ratio_bracket(q.numerator, q.denominator)


def certify_dominance(
    dominant: Poly,
    dominated: Poly,
    radius: Fraction,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Dominance:
    """Certify ``|dominated(z)| < |dominant(z)|`` for every z with |z| = radius.

    Deterministic and monotone in ``budget``: raising the budget only extends
    the refinement, so a proved result stays proved.  A refutation is always
    an exact circle point where the inequality fails, checked in exact
    arithmetic.

    On each arc the certified bounds are ``lower_big = sqrt_lower(b2) - M *
    chord`` and ``upper_small = sqrt_upper(s2) + N * chord`` (b2, s2 the
    squared moduli at the arc midpoint, reduced; M, N the Lipschitz
    constants), and the arc is certified when ``lower_big > upper_small``.
    Brackets of these bounds (``bounds.arc_gap_bracket``), built from the
    unreduced integers, certify most arcs; an arc they leave undecided is
    decided in exact integers, so every open arc keeps its exact heap key
    ``lower_big - upper_small`` and the refinement is that of the exact
    comparison.  The margin is computed exactly only for the arcs whose
    margin bracket can still hold the minimum.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if dominant.is_zero or dominated.is_zero:
        raise ValueError("dominance requires two nonzero polynomials")
    # the Lipschitz sums build the scaled() caches the negated charts inherit
    m_dominant = lipschitz_on_disk(dominant, radius)
    m_dominated = lipschitz_on_disk(dominated, radius)
    chart_pairs = (
        (dominant, dominated),
        (dominant.map_variable_negated(), dominated.map_variable_negated()),
    )
    m_brackets = (_fraction_bracket(m_dominant), _fraction_bracket(m_dominated))

    heap: list[tuple[Fraction, int, int, Fraction, Fraction]] = []
    counter = 0
    exact_arcs = 0
    exact_margins = 0
    # certified arcs: the smallest exact margin (num, den) so far, and the
    # (margin bracket, operands) of the bracket-certified arcs whose bracket
    # can still hold the minimum
    least: Optional[tuple[int, int]] = None
    bracketed: list[tuple[tuple, tuple]] = []
    refuted: Optional[CirclePoint] = None

    def exact_sides(b_num, b_den, s_num, s_den, chord) -> tuple:
        """lower_big and upper_small as unreduced integer pairs (num, den)."""
        # the square-root bounds depend on the reduced form, so reduce here
        t, scale, _ = _sqrt_bracket(Fraction(b_num, b_den))
        cn, cd = chord.numerator, chord.denominator
        mn, md = m_dominant.numerator, m_dominant.denominator
        lower = (t * md * cd - mn * cn * scale, scale * md * cd)
        t, scale, exact = _sqrt_bracket(Fraction(s_num, s_den))
        mn, md = m_dominated.numerator, m_dominated.denominator
        upper = ((t if exact else t + 1) * md * cd + mn * cn * scale, scale * md * cd)
        return lower, upper

    def settle(lower: tuple, upper: tuple) -> None:
        """Take lower_big^2 - upper_small^2, as an unreduced pair, into the minimum."""
        nonlocal least, exact_margins
        (ln, ld), (un, ud) = lower, upper
        margin = ln * ln * ud * ud - un * un * ld * ld, ld * ld * ud * ud
        exact_margins += 1
        # mirror arcs t, -t of real polynomials give the same pair: a tie
        # that prod_gt could only settle with the full products
        if least is None or (
            margin != least and prod_gt((least[0], margin[1]), (margin[0], least[1]))
        ):
            least = margin

    def push(chart: int, lo: Fraction, hi: Fraction) -> bool:
        """Assess an arc; queue it if still open.  False means refuted."""
        nonlocal counter, exact_arcs, refuted
        mid = (lo + hi) / 2
        w = chart_point(radius, mid)
        big, small = chart_pairs[chart]
        b_num, b_den = _abs2_at(big, w)
        s_num, s_den = _abs2_at(small, w)
        if not prod_gt((b_num, s_den), (s_num, b_den)):  # abs2(small) >= abs2(big)
            point = w if chart == 0 else -w
            refuted = CirclePoint(chart, mid, point)
            return False
        chord = _chord_upper(radius, lo, hi, mid)
        gap = arc_gap_bracket(
            _root_bracket(b_num, b_den, sqrt_lower),
            _root_bracket(s_num, s_den, sqrt_upper),
            *m_brackets,
            _fraction_bracket(chord),
        )
        if gap is not None:
            bracketed.append((gap, (b_num, b_den, s_num, s_den, chord)))
            # an arc whose lower end is above some upper end is never the minimum
            bracketed[:] = [bracketed[i] for i in min_candidates([g for g, _ in bracketed])]
            return True
        exact_arcs += 1
        lower, upper = exact_sides(b_num, b_den, s_num, s_den, chord)
        (ln, ld), (un, ud) = lower, upper
        if ln > 0 and prod_gt((ln, ud), (un, ld)):  # lower_big > upper_small
            settle(lower, upper)
        else:
            # lower_big - upper_small, nonpositive: the arc stays open
            key = Fraction(ln * ud - un * ld, ld * ud)
            counter += 1
            heapq.heappush(heap, (key, counter, chart, lo, hi))
        return True

    def outcome(status: Status, margin: Optional[Fraction], witness, detail: str) -> Dominance:
        return Dominance(
            status, dominant, dominated, radius, subdivisions, arcs, margin,
            witness, detail, exact_arcs=exact_arcs, exact_margins=exact_margins,
        )

    arcs = 0
    subdivisions = 0
    step = Fraction(2, _INITIAL_ARCS)
    for chart in (0, 1):
        for i in range(_INITIAL_ARCS):
            lo = -1 + i * step
            arcs += 1
            if not push(chart, lo, lo + step):
                return outcome(
                    Status.REFUTED, None, refuted,
                    "inequality fails at an exact circle point",
                )

    while heap and subdivisions < budget:
        _, _, chart, lo, hi = heapq.heappop(heap)
        mid = (lo + hi) / 2
        subdivisions += 1
        arcs += 1
        for a, b in ((lo, mid), (mid, hi)):
            if not push(chart, a, b):
                return outcome(
                    Status.REFUTED, None, refuted,
                    "inequality fails at an exact circle point",
                )

    if heap:
        return outcome(
            Status.INCONCLUSIVE, None, None,
            f"subdivision budget {budget} exhausted with {len(heap)} open arcs",
        )
    # the minimum is an exactly decided arc's margin or lies in the bracket
    # of a candidate left in ``bracketed``
    for _, operands in bracketed:
        settle(*exact_sides(*operands))
    return outcome(Status.PROVED, Fraction(*least), None, "all arcs certified")


# ---------------------------------------------------------------------------
# Root localization for the family chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootLocalization:
    """All roots of factor ``index`` certified inside |z| < radius."""

    index: int
    radius: Fraction
    degree: int
    count: Optional[int]
    status: Status
    method: str  # "exact-root" | "perturbation"
    dominance: Optional[Dominance]
    detail: str = ""

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


def _perturbation_big(fam: Family, k: int) -> Poly:
    """The dominant part of factor k: product of deeper factors times z^(n-k)."""
    n = fam.n
    big = Poly.monomial(n - k)
    for j in range(k + 1, n):
        big = big * fam.Pk(j) ** (j - k)
    return big


def family_root_certificates(
    fam: Family, *, budget: int = DEFAULT_BUDGET
) -> dict[int, RootLocalization]:
    """Localize the roots of every factor, deepest factor first.

    Factor k (degree d_k) is certified to have all of its roots in the open
    disk |z| < 2^-k.  The last factor is linear with an explicitly known
    root; each earlier factor is its constant term minus the product of the
    already-localized deeper factors times a monomial, so a dominance
    certificate on its circle transfers the full root count.
    """
    n = fam.n
    eps = fam.params.eps
    c, d = fam.params.c, fam.params.d
    certs: dict[int, RootLocalization] = {}

    k = n - 1
    root = eps ** c[-1]
    radius = Fraction(1, 2**k)
    if fam.Pk(k) != Poly([root, -1]):
        certs[k] = RootLocalization(
            k, radius, fam.Pk(k).degree, None, Status.INCONCLUSIVE,
            "exact-root", None, "last factor is not in the expected linear form",
        )
    elif root < radius:
        certs[k] = RootLocalization(
            k, radius, 1, 1, Status.PROVED, "exact-root", None,
            f"single root at {decimal_approx(root)} inside the disk",
        )
    else:
        certs[k] = RootLocalization(
            k, radius, 1, None, Status.REFUTED, "exact-root", None,
            f"single root at {decimal_approx(root)} lies outside |z| < {radius}",
        )

    for k in range(n - 2, 0, -1):
        radius = Fraction(1, 2**k)
        degree = fam.Pk(k).degree
        if any(certs[j].status is not Status.PROVED for j in range(k + 1, n)):
            certs[k] = RootLocalization(
                k, radius, degree, None, Status.INCONCLUSIVE, "perturbation",
                None, "a deeper factor lacks a proved localization",
            )
            continue
        small = Poly.constant(eps ** c[k - 1])
        big = _perturbation_big(fam, k)
        dom = certify_dominance(big, small, radius, budget=budget)
        if dom.status is Status.PROVED:
            inside = (n - k) + sum((j - k) * d[j - 1] for j in range(k + 1, n))
            if fam.Pk(k) == small - big and degree == inside == d[k - 1]:
                certs[k] = RootLocalization(
                    k, radius, degree, inside, Status.PROVED, "perturbation",
                    dom, f"count transferred from dominant part ({inside} roots)",
                )
            else:
                certs[k] = RootLocalization(
                    k, radius, degree, None, Status.INCONCLUSIVE, "perturbation",
                    dom, "factor does not match its defining recursion",
                )
        elif dom.status is Status.REFUTED:
            certs[k] = RootLocalization(
                k, radius, degree, None, Status.REFUTED, "perturbation", dom,
                "dominance fails on the localization circle",
            )
        else:
            certs[k] = RootLocalization(
                k, radius, degree, None, Status.INCONCLUSIVE, "perturbation",
                dom, dom.detail,
            )
    return certs


# ---------------------------------------------------------------------------
# Annulus bounds for each factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusBounds:
    """(1/2)^d_k < |P_k(z)| < 3^d_k for 1 <= |z| <= 2.

    ``exact_fallbacks`` counts the spot checks whose brackets overlapped,
    which exact integers decided; it describes the work, not the verdict,
    and is not part of ``to_json``.
    """

    index: int
    lower: Fraction
    upper: Fraction
    status: Status
    spot_checks: int
    detail: str = ""
    exact_fallbacks: int = field(default=0, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "status": self.status.value,
            "spot_checks": self.spot_checks,
            "detail": self.detail,
        }


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
    annulus, giving the product bounds.  Exact spot checks on the two
    boundary circles guard the derivation, decided on ball brackets, exact
    integers where they overlap; any spot failure is a refutation with an
    explicit witness.
    """
    p = fam.Pk(k)
    deg = fam.params.d[k - 1]
    lower = Fraction(1, 2**deg)
    upper = Fraction(3**deg)

    lo2, up2 = constant_factor(lower * lower), constant_factor(upper * upper)
    per_circle = max(2, spot_checks // 2)
    per_circle += per_circle % 2
    checked = fallbacks = 0
    for circle_radius in (Fraction(1), Fraction(2)):
        for i, triple in enumerate(circle_triples(circle_radius, per_circle)):
            values = Values((p,), *triple)
            checked += 1
            inside = values.lt((lo2,), (0,)) and values.lt((0,), (up2,))
            fallbacks += values.evaluated
            if not inside:
                point = circle_points(circle_radius, per_circle)[i].point
                return AnnulusBounds(
                    k, lower, upper, Status.REFUTED, checked,
                    f"bound fails at exact point {point} on |z| = {circle_radius}",
                    fallbacks,
                )

    derivation_ok = (
        root_cert.status is Status.PROVED
        and root_cert.index == k
        and root_cert.radius <= Fraction(1, 2)
        and root_cert.count == root_cert.degree == deg == p.degree
        and abs(p.leading) == 1
    )
    if not derivation_ok:
        return AnnulusBounds(
            k, lower, upper, Status.INCONCLUSIVE, checked,
            "spot checks pass but the root localization prerequisite is missing",
            fallbacks,
        )
    return AnnulusBounds(
        k, lower, upper, Status.PROVED, checked,
        f"derived from root localization; {checked} boundary spot checks",
        fallbacks,
    )


@dataclass(frozen=True)
class AnnulusReport:
    """Two-sided annulus bounds for every factor of a family."""

    status: Status
    per_factor: tuple[AnnulusBounds, ...]
    detail: str = ""

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
    return AnnulusReport(status, per_factor, _ANNULUS_DETAIL[status])


# ---------------------------------------------------------------------------
# Corollary inequality chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IneqCheck:
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


@dataclass(frozen=True)
class CorollaryReport:
    status: Status
    checks: tuple[IneqCheck, ...]
    detail: str = ""

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
    elif annulus.status is not Status.PROVED:
        status = Status.INCONCLUSIVE
        detail = "envelope comparisons pass but an annulus bound is not proved"
    else:
        status = Status.PROVED
        detail = "all envelope inequalities hold with proved annulus bounds"
    return CorollaryReport(status, checks, detail)


# ---------------------------------------------------------------------------
# Identities proved by exact evaluation
# ---------------------------------------------------------------------------

# A side of an identity is a list of terms; the term ``(c, ((p, e), ...))``
# stands for c * p^e * ....  Products of known factors are never expanded
# to be compared: the factors are evaluated and their values multiplied.


def _degree_bound(terms) -> int:
    """A bound on the degree of a sum of terms, from the factors' own degrees."""
    return max(
        (sum(e * max(p.degree, 0) for p, e in factors) for _, factors in terms),
        default=0,
    )


def _identity_points(degree: int) -> range:
    """The degree + 1 distinct integers -floor(D/2) .. D - floor(D/2), D = degree."""
    return range(-(degree // 2), degree - degree // 2 + 1)


def _proved_equal(lhs: list, rhs: list) -> bool:
    """Whether the two sides are the same polynomial, proved by evaluation.

    Both sides have degree at most D, the ``_degree_bound`` of their terms,
    read from the degrees of the actual ``Poly`` objects (never from the
    family's tables, so no term can hide above it).  Their difference is a
    polynomial of degree at most D, and a nonzero one has at most D roots:
    the sides are equal exactly when they agree at the D + 1 distinct
    integers of ``_identity_points(D)``.  This is a complete proof, not a
    sample.

    Every factor is evaluated there by ``eval_scaled`` on its cached integer
    coefficients.  At an integer point a factor's value has the common
    denominator of its coefficients whatever the point, so the denominators
    are hoisted once into one integer weight per term (reduced by their
    common divisor), and each point is compared exactly in integers.
    """
    terms = [*lhs, *rhs]
    dens = [
        Fraction(c).denominator * math.prod(p.scaled()[1] ** e for p, e in factors)
        for c, factors in terms
    ]
    common = math.lcm(*dens)
    weights = [
        Fraction(c).numerator * (common // den) for (c, _), den in zip(terms, dens)
    ]
    divisor = math.gcd(*weights) or 1
    weighted = [(w // divisor, factors) for w, (_, factors) in zip(weights, terms)]
    lhs_w, rhs_w = weighted[: len(lhs)], weighted[len(lhs):]
    polys = {id(p): p for _, factors in terms for p, _ in factors}

    def side(part: list, at: dict) -> int:
        return sum(
            w * math.prod(at[id(p)] ** e for p, e in factors)
            for w, factors in part
            if w
        )

    for x in _identity_points(_degree_bound(terms)):
        at = {key: eval_scaled(p, x, 0, 1)[0] for key, p in polys.items()}
        if side(lhs_w, at) != side(rhs_w, at):
            return False
    return True


# ---------------------------------------------------------------------------
# Division identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisionWitness:
    """Factor ``index`` divides its associated combination; quotient emitted.

    ``unit_part`` and ``dominant`` are the two sides of the combination
    (``_cone_combination(fam, index - 1)``, which is ``unit_part -
    dominant``).  They are built once, here, and the cone factor of chart
    ``index - 1`` reads them instead of expanding them again; they are not
    part of the serialized report.
    """

    index: int
    status: Status
    quotient: Optional[Poly]
    detail: str = ""
    unit_part: Poly = field(kw_only=True, compare=False, repr=False)
    dominant: Poly = field(kw_only=True, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "status": self.status.value,
            "quotient": None if self.quotient is None else self.quotient.to_json(),
            "detail": self.detail,
        }


def lemma_div_check(fam: Family, k: int) -> DivisionWitness:
    """Verify that factor k divides its defining combination, exactly.

    The combination is the scaled product of factors below k minus the
    monomial-weighted product of factors above k (for k = 1 it collapses to
    the factor itself, with quotient one).  A nonzero remainder refutes the
    construction.
    """
    if not 1 <= k <= fam.n - 1:
        raise ValueError(f"factor index must be in 1..{fam.n - 1}")
    combination, unit_part, dominant = _cone_combination(fam, k - 1)
    sides = {"unit_part": unit_part, "dominant": dominant}
    quotient, remainder = divmod(combination, fam.Pk(k))
    if remainder.is_zero:
        return DivisionWitness(
            k, Status.PROVED, quotient,
            f"exact division; quotient degree {quotient.degree}", **sides,
        )
    return DivisionWitness(
        k, Status.REFUTED, None,
        f"nonzero remainder of degree {remainder.degree}", **sides,
    )


# ---------------------------------------------------------------------------
# Cone denominators: factorization and nonvanishing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeFactorCertificate:
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
    nonvanishing: Optional[Dominance]
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
    z^(k+1) * prod_j P_j^min(j, k+1); ``_cone_identity`` proves that identity
    from the values of G's factors, so G itself is never expanded.
    """
    n = fam.n
    eps = fam.params.eps
    unit_part = Poly.constant(eps ** (2 * k + 1))
    for j in range(1, k + 1):
        unit_part = unit_part * fam.Pk(j) ** (k + 1 - j)
    dominant = Poly.monomial(n - k - 1)
    for j in range(k + 2, n):
        dominant = dominant * fam.Pk(j) ** (j - k - 1)
    return unit_part - dominant, unit_part, dominant


def _cone_identity(fam: Family, k: int, c_poly: Poly) -> bool:
    """Whether f2^(k+1) - f1 == G * c_poly, proved by exact evaluation."""
    g = ((Poly.x(), k + 1),) + tuple(
        (fam.Pk(j), min(j, k + 1)) for j in range(1, fam.n)
    )
    return _proved_equal(
        [(1, ((fam.f2, k + 1),)), (-1, ((fam.f1, 1),))],
        [(fam.params.eps, g + ((c_poly, 1),))],
    )


def cone_factor_certificate(
    fam: Family,
    k: int,
    root_certs: dict[int, RootLocalization],
    identities: IdentityReport,
    divisions: Sequence[DivisionWitness],
    *,
    budget: int = DEFAULT_BUDGET,
) -> ConeFactorCertificate:
    """Certify the factorization of f2^(k+1) - f1 used by chart k.

    For k <= n-2 the identity f2^(k+1) - f1 = G * C is proved here by exact
    evaluation at D + 1 integers (see ``_proved_equal``): C is the difference
    of the two expanded sides that the division witness ``divisions[k]``
    (``lemma_div_check(fam, k+1)``) carries, the same sides the dominance
    below compares, and is evaluated from that expansion, while G and the
    powers of f2 enter only through the values of their factors.  The
    divisibility of C by factor k+1 is read from that witness rather than
    redone, and the sides are not expanded again.
    The nonvanishing of the cofactor is established by counting: dominance
    on |z| = 2 localizes all roots of C among the already-localized deeper
    factors and the origin, and that count is exactly absorbed by the
    multiplicity of factor k+1 inside the disk, leaving the cofactor with no
    root of modulus <= 2.

    For k = n-1 the identity f2^n - f1 = f1 * (unit - 1) is the power-ratio
    identity of ``identities`` rearranged, so its verdict and its unit are
    taken from there; dominance of 1 over the unit on |z| = 2 makes the cofactor
    nonvanishing.
    """
    n = fam.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"chart index must be in 0..{n - 1}")
    d = fam.params.d

    if k == n - 1:
        unit_part = identities.unit
        identity_ok = identities.passed("power-ratio")
        dom = certify_dominance(Poly.one(), unit_part, Fraction(2), budget=budget)
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
    unit_part, dominant = division.unit_part, division.dominant
    identity_ok = _cone_identity(fam, k, unit_part - dominant)
    divisibility_ok = division.status is Status.PROVED and not division.quotient.is_zero

    prereq_ok = all(
        root_certs.get(j) is not None and root_certs[j].status is Status.PROVED
        for j in range(k + 1, n)
    )
    dom = certify_dominance(dominant, unit_part, Fraction(2), budget=budget)
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
            f"cofactor of degree {division.quotient.degree} has no root with |z| <= 2 "
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


def power_ratio_unit(fam: Family) -> Poly:
    """The unit eps^(2n-1) * prod_j P_j^(n-j) of the identity f2^n = f1 * unit."""
    n = fam.n
    unit = Poly.constant(fam.params.eps ** (2 * n - 1))
    for j in range(1, n):
        unit = unit * fam.Pk(j) ** (n - j)
    return unit


@dataclass(frozen=True)
class IdentityReport(CheckReport):
    """The exact identity checks, with the power-ratio unit they were proved for.

    ``unit`` is built once per family, here; the chart-window certificate and
    the last-chart cone factor read it instead of rebuilding it.  It is not
    part of the serialized report.
    """

    unit: Poly = field(compare=False, repr=False)


def _identity_sides(fam: Family, unit: Poly) -> dict[str, tuple[list, list]]:
    """The two sides of each exact identity, as terms for ``_proved_equal``."""
    n, eps = fam.n, fam.params.eps
    f1, f2, z = fam.f1, fam.f2, Poly.x()
    deeper = tuple((fam.Pk(j), 1) for j in range(2, n))
    square = ((z, 2 * n - 1),) + tuple((fam.Pk(j), 2 * j - 1) for j in range(2, n))
    return {
        "power-ratio": ([(1, ((f2, n),))], [(1, ((f1, 1), (unit, 1)))]),
        "difference-factorization": (
            [(1, ((f2, 1),)), (-1, ((f1, 1),))],
            [(eps, ((z, 1), (fam.Pk(1), 2)) + deeper)],
        ),
        "square-ratio": (
            [(1, ((f1, 2),))],
            [(eps, ((f2, 1),) + square), (-eps, ((f1, 1),) + square)],
        ),
    }


def exact_identity_checks(fam: Family) -> IdentityReport:
    """Division identities tying the two map components together.

    * ``power-ratio``: f2^n equals f1 times an explicit unit polynomial,
      the report's ``unit``.
    * ``difference-factorization``: f2 - f1 factors through the square of the
      first factor.
    * ``square-ratio``: f1^2 / (f2 - f1) is a polynomial with an explicit
      product form.

    Each identity is proved by exact evaluation at D + 1 integers, D the
    degree bound of its two sides (see ``_proved_equal``).  Only ``unit`` is
    expanded, because the chart window and the last cone factor use it as a
    polynomial, and it is evaluated from that expansion; f2^n, f1 * unit and
    the product forms on the right are products of factor values.
    """
    unit = power_ratio_unit(fam)
    holds = {
        name: _proved_equal(lhs, rhs)
        for name, (lhs, rhs) in _identity_sides(fam, unit).items()
    }
    return IdentityReport(
        checks=(
            CheckResult("power-ratio", holds["power-ratio"],
                        "f2^n = f1 * unit-polynomial"),
            CheckResult("difference-factorization", holds["difference-factorization"],
                        "f2 - f1 = eps * z * P1^2 * (deeper factors)"),
            CheckResult("square-ratio", holds["square-ratio"],
                        "f1^2 = (f2 - f1) * explicit polynomial"),
        ),
        unit=unit,
    )
