"""End-to-end certification that a built family lands in the chart atlas.

This module ties the algebraic certificates of :mod:`noricert.certify` to the
chart geometry of :mod:`noricert.atlas`.  For a family of disk maps
``lam -> (f1(lam), f2(lam))`` on the closed disk of radius 2, it certifies

* that the image of the annulus ``1 <= |lam| <= 2`` stays inside a shrinking
  closed target region (radius ``1/n`` in each coordinate, with the second
  coordinate dominated by the first),
* that the image of the whole disk, away from the common zero set of the two
  components, is covered by the charts of index ``0 .. n-1`` and satisfies
  the cone inequality of one of its covering charts,
* the vanishing orders of the two components at the disk center, whose gap is
  the number of consecutive chart transitions the image performs, and
* that the boundary images shrink uniformly as ``n`` grows (sup-metric pairs
  forming a nonincreasing sequence).

Everything is exact rational arithmetic: moduli are compared through their
squares, deep-scale samples are evaluated with integer-scaled Horner steps,
and each sampled refutation search is deterministic given its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import (
    ComplexRational,
    Poly,
    Rational,
    as_scaled,
    decimal_approx,
    eval_scaled,
    format_rational,
    scaled_abs2,
)
from .atlas import ChartPoint, chart_cover_indices
from .bounds import (
    _BITS,
    _abs2_bounds,
    _p_add,
    _p_div,
    _p_int,
    _p_lt,
    _p_mul,
    _p_pow,
    _p_sqrt,
    prod_gt,
)
from .certify import (
    DEFAULT_BUDGET,
    CorollaryReport,
    DivisionWitness,
    RootLocalization,
    Status,
    circle_points,
    cone_factor_certificate,
    power_ratio_unit,
    worst,
)
from .family import CheckReport, Family
from .sampling import RationalSampler

__all__ = [
    "Certificate",
    "TargetRegion",
    "TraceReport",
    "EscapeWitness",
    "ConvergenceEntry",
    "ConvergenceWitness",
    "annulus_into_target",
    "image_in_chart_window",
    "chart_cone_certificate",
    "base_chart_certificate",
    "cone_window_witness",
    "vanishing_orders",
    "escape_witness",
    "uniform_convergence_witness",
    "trace_family",
]


@dataclass(frozen=True)
class Certificate:
    """A named verdict with human-readable detail and JSON-safe payload."""

    name: str
    status: Status
    detail: str = ""
    data: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status.value, "detail": self.detail}
        if self.data is not None:
            out["data"] = self.data
        return out


def _combine(name: str, parts: Sequence[Certificate]) -> Certificate:
    """Worst-of aggregation, naming the stages that set the verdict."""
    status = worst(p.status for p in parts)
    if status is Status.PROVED:
        detail = "all stages proved"
    else:
        prefix = "refuted by " if status is Status.REFUTED else "no verdict from "
        detail = prefix + ", ".join(p.name for p in parts if p.status is status)
    return Certificate(name, status, detail, {"stages": [p.to_json() for p in parts]})


# ---------------------------------------------------------------------------
# Scaled chart predicates
#
# The evaluation loops below run thousands of exact tests against values
# whose reduced denominators have tens of thousands of digits; Fraction
# arithmetic would gcd-normalize at every step.  All hot paths therefore
# work on unreduced ``eval_scaled`` triples: the directed-rounding pairs of
# :mod:`noricert.bounds` decide first, and integer cross-multiplication
# decides whatever the bounds leave open.  The Fraction predicates of the
# atlas module remain the reference semantics; the test suite
# cross-validates the two paths.
# ---------------------------------------------------------------------------


def _complex_int_pow(re: int, im: int, exponent: int) -> tuple[int, int]:
    """(re + i im)^exponent on integer pairs, by square and multiply."""
    rr, ri = 1, 0
    br, bi = re, im
    e = exponent
    while e:
        if e & 1:
            rr, ri = rr * br - ri * bi, rr * bi + ri * br
        br, bi = br * br - bi * bi, 2 * br * bi
        e >>= 1
    return rr, ri


def _member_test(fam: Family, v1: tuple, v2: tuple, k: int) -> bool:
    """Exact |f1(lam)| < r |f2(lam)|^k via bounds, falling back to integers."""
    a1_lo, a1_hi = _abs2_bounds(v1)
    a2_lo, a2_hi = _abs2_bounds(v2)
    rn, rd = fam.params.r.numerator, fam.params.r.denominator
    r2n, r2d = _p_int(rn * rn, False), _p_int(rd * rd, True)
    rhs_lo = _p_div(_p_mul(r2n, _p_pow(a2_lo, k, False), False), r2d, False)
    if _p_lt(a1_hi, rhs_lo):
        return True
    r2n_hi, r2d_lo = _p_int(rn * rn, True), _p_int(rd * rd, False)
    rhs_hi = _p_div(_p_mul(r2n_hi, _p_pow(a2_hi, k, True), True), r2d_lo, True)
    if not _p_lt(a1_lo, rhs_hi):
        return False
    n1, q1 = scaled_abs2(v1)
    n2, q2 = scaled_abs2(v2)
    return n1 * rd * rd * q2**k < rn * rn * n2**k * q1


def _chart_entry_test(fam: Family, v1: tuple, v2: tuple, k: int) -> bool:
    """Exact |f2(lam)|^(k+2) < r^2 |f1(lam)| via bounds, then integers."""
    a1_lo, a1_hi = _abs2_bounds(v1)
    a2_lo, a2_hi = _abs2_bounds(v2)
    rn, rd = fam.params.r.numerator, fam.params.r.denominator
    lhs_hi = _p_pow(a2_hi, k + 2, True)
    rhs_lo = _p_div(
        _p_mul(_p_int(rn * rn, False), a1_lo, False), _p_int(rd * rd, True), False
    )
    if _p_lt(lhs_hi, rhs_lo):
        return True
    lhs_lo = _p_pow(a2_lo, k + 2, False)
    rhs_hi = _p_div(
        _p_mul(_p_int(rn * rn, True), a1_hi, True), _p_int(rd * rd, False), True
    )
    if not _p_lt(lhs_lo, rhs_hi):
        return False
    n1, q1 = scaled_abs2(v1)
    n2, q2 = scaled_abs2(v2)
    return n2 ** (k + 2) * rd * rd * q1 < rn * rn * n1 * q2 ** (k + 2)


def _gap_squared_bounds(v1: tuple, v2: tuple, k: int) -> Optional[tuple]:
    """(lower, upper) pairs for |f2^(k+1) - f1|^2, or None when inconclusive.

    Bounds the difference through the reverse triangle inequality: when the
    two moduli are separated by at least a factor two, |big - small| lies in
    [(1 - t) |big|, (1 + t) |big|] with t the modulus ratio.  Comparable
    moduli (possible cancellation) return None for the exact fallback.
    """
    a1_lo, a1_hi = _abs2_bounds(v1)
    a2_lo, a2_hi = _abs2_bounds(v2)
    p_lo = _p_pow(a2_lo, k + 1, False)
    p_hi = _p_pow(a2_hi, k + 1, True)
    if _p_lt(p_hi, a1_lo):
        big_lo, big_hi, small_hi = a1_lo, a1_hi, p_hi
    elif _p_lt(a1_hi, p_lo):
        big_lo, big_hi, small_hi = p_lo, p_hi, a1_hi
    else:
        return None
    if big_lo[0] == 0:
        return None
    t_hi = _p_sqrt(_p_div(small_hi, big_lo, True), True)
    if not _p_lt(t_hi, (1, -1)):  # ratio not certified below 1/2
        return None
    mt, st = t_hi
    if -st > _BITS + 4:
        one_minus_t_lo: tuple = ((1 << _BITS) - 1, -_BITS)
    else:
        one_minus_t_lo = ((1 << -st) - mt, st)
    one_plus_t_hi = _p_add((1, 0), t_hi, True)
    lower = _p_mul(big_lo, _p_pow(one_minus_t_lo, 2, False), False)
    upper = _p_mul(big_hi, _p_pow(one_plus_t_hi, 2, True), True)
    return lower, upper


def _gap_squared_exact(v1: tuple, v2: tuple, k: int) -> tuple[int, int]:
    """|f2^(k+1) - f1|^2 as an unreduced integer pair (num, den)."""
    re1, im1, d1 = v1
    re2, im2, d2 = v2
    p_re, p_im = _complex_int_pow(re2, im2, k + 1)
    dp = d2 ** (k + 1)
    g_re = p_re * d1 - re1 * dp
    g_im = p_im * d1 - im1 * dp
    return g_re * g_re + g_im * g_im, (d1 * dp) ** 2


def _cone_test(
    fam: Family, v1: tuple, v2: tuple, k: int, *, halved: bool
) -> bool:
    """The cone inequality at a scaled point, via bounds with exact fallback.

    With ``halved`` the opening parameter is rho/2 and the comparison is
    closed (the margin-bearing form the factorization lemmas give); without
    it the parameter is rho and the comparison is the open cone condition.
    """
    opening = fam.params.rho / 2 if halved else fam.params.rho
    pn, pd = opening.numerator, opening.denominator
    a1_lo, a1_hi = _abs2_bounds(v1)
    a2_lo, a2_hi = _abs2_bounds(v2)
    gap = _gap_squared_bounds(v1, v2, k)
    if gap is not None:
        gap_lo, gap_hi = gap
        lhs_hi = _p_pow(a1_hi, 2, True)
        rhs_lo = _p_div(
            _p_mul(
                _p_mul(_p_int(pn * pn, False), gap_lo, False),
                _p_pow(a2_lo, k, False),
                False,
            ),
            _p_int(pd * pd, True),
            False,
        )
        if _p_lt(lhs_hi, rhs_lo) or (halved and not _p_lt(rhs_lo, lhs_hi)):
            return True
        lhs_lo = _p_pow(a1_lo, 2, False)
        rhs_hi = _p_div(
            _p_mul(
                _p_mul(_p_int(pn * pn, True), gap_hi, True),
                _p_pow(a2_hi, k, True),
                True,
            ),
            _p_int(pd * pd, False),
            True,
        )
        if _p_lt(rhs_hi, lhs_lo):
            return False
    n1, q1 = scaled_abs2(v1)
    n2, q2 = scaled_abs2(v2)
    g_num, g_den = _gap_squared_exact(v1, v2, k)
    lhs = n1 * n1 * pd * pd * g_den * q2**k
    rhs = pn * pn * g_num * n2**k * q1 * q1
    return lhs <= rhs if halved else lhs < rhs


def _in_cover_region(fam: Family, v1: tuple, v2: tuple) -> bool:
    """0 < |z1| < r and |z2| < r^2 at a scaled point (exact semantics)."""
    re1, im1, _ = v1
    if re1 == 0 and im1 == 0:
        return False
    a1_lo, a1_hi = _abs2_bounds(v1)
    a2_lo, a2_hi = _abs2_bounds(v2)
    rn, rd = fam.params.r.numerator, fam.params.r.denominator
    r2 = _p_div(_p_int(rn * rn, False), _p_int(rd * rd, True), False)
    r2_hi = _p_div(_p_int(rn * rn, True), _p_int(rd * rd, False), True)
    r4 = _p_mul(r2, r2, False)
    r4_hi = _p_mul(r2_hi, r2_hi, True)
    first = (
        True if _p_lt(a1_hi, r2)
        else False if not _p_lt(a1_lo, r2_hi)
        else None
    )
    second = (
        True if _p_lt(a2_hi, r4)
        else False if not _p_lt(a2_lo, r4_hi)
        else None
    )
    if first is None or second is None:
        n1, q1 = scaled_abs2(v1)
        n2, q2 = scaled_abs2(v2)
        if first is None:
            first = n1 * rd**2 < rn**2 * q1
        if second is None:
            second = n2 * rd**4 < rn**4 * q2
    return first and second


def _cover_indices_scaled(
    fam: Family, v1: tuple, v2: tuple, k_max: int
) -> tuple[bool, tuple[int, ...]]:
    """Chart cover of a scaled image point: (in_region, covering indices).

    ``v1``/``v2`` are ``eval_scaled`` triples of the two coordinates.  Same
    predicates as ``chart_cover_indices``; the test suite cross-validates.
    """
    if not _in_cover_region(fam, v1, v2):
        return False, ()
    indices = [
        k
        for k in range(k_max + 1)
        if _chart_entry_test(fam, v1, v2, k) and _member_test(fam, v1, v2, k)
    ]
    return True, tuple(indices)


def _first_open_cone_scaled(
    fam: Family, v1: tuple, v2: tuple, k_limit: int
) -> tuple[bool, Optional[int]]:
    """First chart index k < k_limit covering the point with its cone open.

    Returns (in_region, index or None).  The scan stops at the first
    success; indices at and beyond ``k_limit`` are the business of the
    divisibility window certificate, not of this scan.
    """
    if not _in_cover_region(fam, v1, v2):
        return False, None
    for k in range(k_limit):
        if (
            _chart_entry_test(fam, v1, v2, k)
            and _member_test(fam, v1, v2, k)
            and _cone_test(fam, v1, v2, k, halved=False)
        ):
            return True, k
    return True, None


# ---------------------------------------------------------------------------
# The shrinking closed target region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetRegion:
    """Closed region |z1| <= 1/n, |z2| <= 1/n, |z2| <= (1/n)|z1| in C^2.

    The regions are nested: the region for n + 1 is contained in the region
    for n, so uniform convergence of boundary images can be phrased as the
    target index they reach.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("target index must be >= 1")

    @property
    def bound(self) -> Fraction:
        return Fraction(1, self.n)

    def contains(self, z1: ComplexRational, z2: ComplexRational) -> bool:
        """Exact membership; all three inequalities are closed."""
        nn = self.n * self.n
        a1, a2 = z1.abs2(), z2.abs2()
        return nn * a1 <= 1 and nn * a2 <= 1 and nn * a2 <= a1

    def contains_scaled(self, v1: tuple, v2: tuple) -> bool:
        """The same predicate on unreduced ``eval_scaled`` triples."""
        n1, q1 = scaled_abs2(v1)
        n2, q2 = scaled_abs2(v2)
        nn = self.n * self.n
        return nn * n1 <= q1 and nn * n2 <= q2 and nn * n2 * q1 <= n1 * q2

    def to_json(self) -> dict:
        return {"n": self.n, "bound": format_rational(self.bound)}


def _named_check(corollary: CorollaryReport, name: str):
    for check in corollary.checks:
        if check.name == name:
            return check
    return None


def annulus_into_target(
    fam: Family, corollary: CorollaryReport, *, spot_checks: int = 64
) -> Certificate:
    """Certify that the annulus 1 <= |lam| <= 2 maps into the target region.

    The proof delegates to the envelope inequality chain: the upper envelope
    of |f1| on the annulus sits below r/n < 1/n, the upper envelope of |f2|
    below r^2/n < 1/n, and n times the |f2| envelope below the |f1| lower
    envelope, which is the squared-free form of |f2| <= (1/n)|f1|.  On top of
    the delegation, ``spot_checks`` exact membership tests run on each
    bounding circle so a broken family is refuted by a concrete point.
    """
    target = TargetRegion(fam.n)

    checked = 0
    for radius in (Fraction(1), Fraction(2)):
        for cpt in circle_points(radius, spot_checks):
            a, b, den = as_scaled(cpt.point)
            v1 = eval_scaled(fam.f1, a, b, den)
            v2 = eval_scaled(fam.f2, a, b, den)
            checked += 1
            if not target.contains_scaled(v1, v2):
                return Certificate(
                    "annulus-into-target",
                    Status.REFUTED,
                    f"image leaves the target region at an exact boundary point "
                    f"(|lam| = {radius}, chart {cpt.chart}, t = {cpt.t})",
                    {"witness": cpt.to_json(), "target": target.to_json()},
                )

    upper_f1 = _named_check(corollary, "f1-upper-vs-r-over-n")
    upper_f2 = _named_check(corollary, "f2-upper-vs-r2-over-n")
    ratio = _named_check(corollary, "f2-scaled-vs-f1-lower")
    if upper_f1 is None or upper_f2 is None or ratio is None:
        return Certificate(
            "annulus-into-target",
            Status.INCONCLUSIVE,
            "the envelope inequality chain does not expose the needed bounds",
        )
    bound = target.bound
    envelopes_ok = (
        upper_f1.passed
        and upper_f2.passed
        and ratio.passed
        and upper_f1.lhs <= bound
        and upper_f2.lhs <= bound
        and ratio.lhs <= ratio.rhs
    )
    data = {
        "target": target.to_json(),
        "spot_checks": checked,
        "upper_f1": decimal_approx(upper_f1.lhs, mode="ceil"),
        "upper_f2": decimal_approx(upper_f2.lhs, mode="ceil"),
    }
    if not envelopes_ok:
        return Certificate(
            "annulus-into-target",
            Status.REFUTED,
            "an envelope bound exceeds the target radius",
            data,
        )
    if corollary.status is not Status.PROVED:
        return Certificate(
            "annulus-into-target",
            Status.INCONCLUSIVE,
            "envelopes and spot checks pass but the inequality chain is not proved",
            data,
        )
    return Certificate(
        "annulus-into-target",
        Status.PROVED,
        f"envelope chain proved; {checked} exact boundary memberships verified",
        data,
    )


# ---------------------------------------------------------------------------
# Chart-window coverage of the disk image
# ---------------------------------------------------------------------------


def image_in_chart_window(
    fam: Family,
    corollary: CorollaryReport,
    identities: CheckReport,
    *,
    samples: int = 64,
    seed: int = 0,
) -> Certificate:
    """Certify that the disk image stays below chart index n.

    The power-ratio identity of ``identities``, f2^n = f1 * unit, makes the
    second component to the n-th power exactly divisible by the first; the
    quotient h = unit satisfies |h| < 1 on 1 <= |lam| <= 2 because the |f2|
    envelope is below both 1 and the |f1| lower envelope, and a polynomial
    bounded by 1 on the outer circle is bounded by 1 on the closed disk.
    Away from the common zero set this gives |f2|^n < |f1|, which defeats the
    membership inequality |f1| < r|f2|^k of every chart of index k >= n.  The
    claim is spot-checked on the outer circle and at sampled disk points,
    where the computed chart cover must be nonempty with all indices < n.
    The identity is read from ``identities``, where it is proved once per
    family; the quotient is rebuilt from its product form, not by division.
    """
    n = fam.n
    if not identities.passed("power-ratio"):
        return Certificate(
            "image-in-chart-window",
            Status.REFUTED,
            "the n-th power of the second component is not divisible by the first",
        )
    quotient = power_ratio_unit(fam)

    below_one = _named_check(corollary, "f2-upper-below-one")
    below_f1 = _named_check(corollary, "f2-upper-vs-f1-lower")

    boundary_checked = 0
    for cpt in circle_points(Fraction(2), 64):
        boundary_checked += 1
        a, b, den = as_scaled(cpt.point)
        q_num, q_den = scaled_abs2(eval_scaled(quotient, a, b, den))
        if q_num >= q_den:
            return Certificate(
                "image-in-chart-window",
                Status.REFUTED,
                "the power-ratio quotient reaches modulus 1 on the outer circle",
                {"witness": cpt.to_json()},
            )

    sampler = RationalSampler("chart-window", fam.n, samples, seed)
    # one index beyond n suffices for the scan: membership at any k >= n
    # would already contradict |f2|^n < |f1| (and |f2| < 1) shown above
    k_max = n + 1
    accepted = 0
    attempts = 0
    while accepted < samples and attempts < 40 * samples:
        attempts += 1
        lam = sampler.complex_in_disk(2)
        a, b, den = as_scaled(lam)
        v2 = eval_scaled(fam.f2, a, b, den)
        if v2[0] == 0 and v2[1] == 0:
            continue  # exact exclusion of the common zero set
        v1 = eval_scaled(fam.f1, a, b, den)
        in_region, indices = _cover_indices_scaled(fam, v1, v2, k_max)
        if not in_region or not indices or max(indices) > n - 1:
            cover = chart_cover_indices(
                ChartPoint(fam.f1(lam), fam.f2(lam)), fam.params.r, k_max
            )
            return Certificate(
                "image-in-chart-window",
                Status.REFUTED,
                "a sampled image point is not covered by the charts below index n",
                {
                    "lambda": lam.to_json(),
                    "cover": cover.to_json(),
                },
            )
        accepted += 1

    data = {
        "quotient_degree": quotient.degree,
        "boundary_checks": boundary_checked,
        "samples": accepted,
        "seed": seed,
    }
    if accepted < samples:
        return Certificate(
            "image-in-chart-window",
            Status.INCONCLUSIVE,
            "the sampler could not populate the disk away from the zero set",
            data,
        )
    if (
        below_one is None
        or below_f1 is None
        or not below_one.passed
        or not below_f1.passed
        or corollary.status is not Status.PROVED
    ):
        return Certificate(
            "image-in-chart-window",
            Status.INCONCLUSIVE,
            "divisibility and samples pass but the envelope chain is not proved",
            data,
        )
    return Certificate(
        "image-in-chart-window",
        Status.PROVED,
        f"exact divisibility with quotient of degree {quotient.degree}; "
        f"quotient modulus < 1 on the disk; {accepted} sampled covers verified",
        data,
    )


# ---------------------------------------------------------------------------
# Deep-scale sampling of the per-chart approach regions
# ---------------------------------------------------------------------------


def _region_member_scaled(
    fam: Family, k: int, num_re: int, num_im: int, den: int
) -> tuple[bool, tuple, tuple]:
    """Exact test of |f1| < r|f2|^k at (num_re + i num_im)/den.

    Returns the verdict together with the two scaled evaluations so the
    caller can reuse them.
    """
    v1 = eval_scaled(fam.f1, num_re, num_im, den)
    v2 = eval_scaled(fam.f2, num_re, num_im, den)
    return _member_test(fam, v1, v2, k), v1, v2


def _entry_scale(fam: Family, k: int, cap: int = 4096) -> Optional[int]:
    """Smallest decimal scale e with 10^-e inside the approach region of chart k.

    Deep enough scales are always members (the components' vanishing orders
    at 0 differ), so a doubling probe finds a member and bisection against
    the last failing probe locates an entry threshold.  Sampling does not
    rely on membership between the two probes: every sampled point is tested
    for membership exactly before use.
    """
    probe = 1
    while probe <= cap:
        if _region_member_scaled(fam, k, 1, 0, 10**probe)[0]:
            break
        probe *= 2
    else:
        return None
    lo, hi = probe // 2, probe  # membership fails at lo (or lo == 0), holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _region_member_scaled(fam, k, 1, 0, 10**mid)[0]:
            hi = mid
        else:
            lo = mid
    return hi


def chart_cone_certificate(
    fam: Family,
    k: int,
    root_certs: dict[int, RootLocalization],
    identities: CheckReport,
    divisions: Sequence[DivisionWitness],
    *,
    samples: int = 256,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> Certificate:
    """Certify the cone inequality of chart k on its approach region, k >= 1.

    Three layers:

    * the algebraic factorization certificate for ``f2^(k+1) - f1`` (identity,
      divisibility by the next factor, nonvanishing cofactor via dominance),
    * the scalar boundary reduction ``r^2 <= (rho/2)(r - r^2)``, and
    * exact validation of ``|f1|^2 <= (rho/2) |f2^(k+1) - f1| |f2|^k`` (in
      squared form) at ``samples`` deterministic points of the approach
      region ``|f1| < r |f2|^k``, reached through a deep-scale ladder.

    The halved opening parameter leaves a factor-two margin, so every
    validated point satisfies the open cone condition at ``rho`` strictly
    whenever the right-hand side is nonzero.
    """
    n = fam.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"chart index must be in 1..{n - 1}")
    divisions_ok = all(w.status is Status.PROVED for w in divisions)

    core = cone_factor_certificate(fam, k, root_certs, identities, budget=budget)

    r, rho = fam.params.r, fam.params.rho
    scalar_ok = r * r <= (rho / 2) * (r - r * r)

    entry = _entry_scale(fam, k)
    data: dict = {"chart": k, "seed": seed, "entry_scale": entry, "core": core.to_json()}
    if entry is None:
        return Certificate(
            "chart-cone",
            Status.INCONCLUSIVE,
            f"no entry scale found for the approach region of chart {k}",
            data,
        )

    sampler = RationalSampler("cone-region", fam.n, k, samples, seed)
    grid = 8  # magnitude grid: |w| in [1/2, 1) with 2^8 resolution
    accepted = 0
    attempts = 0
    full_membership_checks = 0
    while accepted < samples and attempts < 40 * samples:
        attempts += 1
        a = sampler.integer(-(2**grid), 2**grid)
        b = sampler.integer(-(2**grid), 2**grid)
        norm2 = a * a + b * b
        if not 2 ** (2 * grid - 2) <= norm2 < 2 ** (2 * grid):
            continue
        e = entry + sampler.integer(0, 5)
        den = (2**grid) * 10**e
        member, v1, v2 = _region_member_scaled(fam, k, a, b, den)
        if not member:
            continue
        if not _cone_test(fam, v1, v2, k, halved=True):
            return Certificate(
                "chart-cone",
                Status.REFUTED,
                f"the halved cone inequality fails at an exact point of the "
                f"approach region of chart {k}",
                {
                    **data,
                    "witness": {
                        "num_re": a,
                        "num_im": b,
                        "den_log10": e,
                        "den_pow2": grid,
                    },
                },
            )
        if full_membership_checks < 32:
            # the first few accepted points also get the other half of chart
            # membership, |f2|^(k+2) < r^2 |f1| (the approach-region test
            # above is the second half)
            full_membership_checks += 1
            if not _chart_entry_test(fam, v1, v2, k):
                return Certificate(
                    "chart-cone",
                    Status.REFUTED,
                    f"a sampled approach-region point is not in chart {k}",
                    {**data, "witness": {"num_re": a, "num_im": b, "den_log10": e}},
                )
        accepted += 1

    data["samples"] = accepted
    data["full_membership_checks"] = full_membership_checks
    if not scalar_ok:
        return Certificate(
            "chart-cone",
            Status.REFUTED,
            "the scalar boundary reduction fails",
            data,
        )
    if core.status is Status.REFUTED:
        return Certificate("chart-cone", Status.REFUTED, core.detail, data)
    if accepted < samples:
        return Certificate(
            "chart-cone",
            Status.INCONCLUSIVE,
            f"the deep-scale sampler could not populate the approach region "
            f"of chart {k}",
            data,
        )
    if core.status is not Status.PROVED or not divisions_ok:
        stage = "factorization" if core.status is not Status.PROVED else "division"
        return Certificate(
            "chart-cone",
            Status.INCONCLUSIVE,
            f"samples pass but the {stage} certificate is not proved",
            data,
        )
    return Certificate(
        "chart-cone",
        Status.PROVED,
        f"factorization proved and {accepted} exact approach-region points "
        f"validated from scale 1e-{entry}",
        data,
    )


def base_chart_certificate(
    fam: Family,
    corollary: CorollaryReport,
    identities: CheckReport,
    *,
    samples: int = 256,
) -> Certificate:
    """Certify the cone inequality of the base chart (index 0) on the disk.

    The square of the first component is exactly divisible by the difference
    of the components; the quotient polynomial is bounded by rho/2 on the
    outer circle because of the boundary chain

        |f1|^2 + (rho/2)|f2| <= (rho/2)|f1|  on |lam| = 2,

    so by the maximum principle the bound, and with it the inequality
    ``|f1|^2 <= (rho/2)|f2 - f1|``, holds on the whole closed disk.  The
    inequality is exactly validated (in squared form) at ``samples`` outer
    boundary points and at the degenerate points where both components
    vanish, where it holds as 0 <= 0.
    """
    if not (
        identities.passed("square-ratio")
        and identities.passed("difference-factorization")
    ):
        return Certificate(
            "base-chart-cone",
            Status.REFUTED,
            "an exact divisibility identity fails",
            {"identities": identities.to_json()},
        )
    chain = _named_check(corollary, "outer-boundary-chain")

    rho = fam.params.rho
    pn, pd = (rho / 2).numerator, (rho / 2).denominator
    diff = fam.f2 - fam.f1
    checked = 0
    for cpt in circle_points(Fraction(2), samples):
        a, b, den = as_scaled(cpt.point)
        n1, q1 = scaled_abs2(eval_scaled(fam.f1, a, b, den))
        nd, qd = scaled_abs2(eval_scaled(diff, a, b, den))
        checked += 1
        if prod_gt((n1, n1, pd * pd, qd), (pn * pn, nd, q1, q1)):
            return Certificate(
                "base-chart-cone",
                Status.REFUTED,
                "the halved base-cone inequality fails at an exact boundary point",
                {"witness": cpt.to_json()},
            )

    # degenerate points: the disk center and the one rational root of the
    # last factor, where both components vanish and the claim reads 0 <= 0
    degenerate = [
        ComplexRational(Fraction(0), Fraction(0)),
        ComplexRational(fam.params.eps ** fam.params.c[-1], Fraction(0)),
    ]
    for z in degenerate:
        a, b, den = as_scaled(z)
        if any(eval_scaled(p, a, b, den)[:2] != (0, 0) for p in (fam.f1, fam.f2)):
            return Certificate(
                "base-chart-cone",
                Status.REFUTED,
                "a common zero of the two components is missing",
                {"witness": z.to_json()},
            )

    data = {"boundary_checks": checked, "degenerate_points": len(degenerate)}
    if chain is None or not chain.passed:
        return Certificate(
            "base-chart-cone",
            Status.REFUTED if chain is not None else Status.INCONCLUSIVE,
            "the outer boundary chain fails"
            if chain is not None
            else "the envelope chain does not expose the boundary bound",
            data,
        )
    if corollary.status is not Status.PROVED:
        return Certificate(
            "base-chart-cone",
            Status.INCONCLUSIVE,
            "boundary checks pass but the envelope chain is not proved",
            data,
        )
    return Certificate(
        "base-chart-cone",
        Status.PROVED,
        f"exact divisibility, proved boundary chain, {checked} exact boundary "
        f"points and {len(degenerate)} degenerate points validated",
        data,
    )


def cone_window_witness(
    fam: Family,
    *,
    samples: int = 2000,
    seed: int = 0,
) -> Certificate:
    """Sampled witness that image points sit in a chart with its cone open.

    Draws deterministic points of the closed disk of radius 2 (half uniform,
    half scaled down to exercise small-modulus bands), discards the common
    zero set by the exact test f2(lam) = 0, and for every remaining point
    requires some chart of index below n to contain the image point with its
    open cone condition holding at the family's rho.  The absence of chart
    memberships at indices n and above is not re-sampled here: the
    divisibility window certificate proves it for the whole disk.
    """
    n = fam.n
    r = fam.params.r
    sampler = RationalSampler("cone-window", fam.n, samples, seed)
    accepted = 0
    attempts = 0
    index_counts = {k: 0 for k in range(n)}
    while accepted < samples and attempts < 40 * samples:
        attempts += 1
        lam = sampler.complex_in_disk(2)
        if attempts % 2 == 0:
            lam = lam * ComplexRational(sampler.unit_scale(12), Fraction(0))
        a, b, den = as_scaled(lam)
        v2 = eval_scaled(fam.f2, a, b, den)
        if v2[0] == 0 and v2[1] == 0:
            continue
        v1 = eval_scaled(fam.f1, a, b, den)
        in_region, cone_index = _first_open_cone_scaled(fam, v1, v2, n)
        if not in_region or cone_index is None:
            cover = chart_cover_indices(
                ChartPoint(fam.f1(lam), fam.f2(lam)), r, n + 1
            )
            return Certificate(
                "cone-window-witness",
                Status.REFUTED,
                "a sampled image point has no covering chart with an open cone",
                {"lambda": lam.to_json(), "cover": cover.to_json()},
            )
        index_counts[cone_index] += 1
        accepted += 1
    data = {
        "samples": accepted,
        "seed": seed,
        "index_counts": {str(k): v for k, v in index_counts.items()},
    }
    if accepted < samples:
        return Certificate(
            "cone-window-witness",
            Status.INCONCLUSIVE,
            "the sampler could not populate the disk away from the zero set",
            data,
        )
    return Certificate(
        "cone-window-witness",
        Status.PROVED,
        f"{accepted} sampled image points each covered by a chart below index "
        f"{n} with its cone condition open",
        data,
    )


# ---------------------------------------------------------------------------
# Vanishing orders, escape depth, uniform convergence
# ---------------------------------------------------------------------------


def vanishing_orders(fam: Family) -> tuple[int, int]:
    """Orders of vanishing of the two components at the disk center.

    For a sound build these are (n, 1): the first component vanishes to
    order n, the second to order 1, and their difference counts the chart
    transitions the image performs approaching the center.
    """
    return fam.f1.trailing_order, fam.f2.trailing_order


@dataclass(frozen=True)
class EscapeWitness:
    """Escape depths (n, order gap) across a sequence of families."""

    status: Status
    entries: tuple[tuple[int, int], ...]
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "entries": [list(e) for e in self.entries],
            "detail": self.detail,
        }


def escape_witness(fams: Sequence[Family]) -> EscapeWitness:
    """Escape depth per family: the gap of the two vanishing orders.

    Each family must vanish to orders (n, 1), giving depth n - 1; across the
    sequence the depths must be strictly increasing — the image chains escape
    through ever deeper charts.  Any violation refutes with the family named.
    """
    if not fams:
        raise ValueError("at least one family is required")
    entries = []
    for fam in fams:
        orders = vanishing_orders(fam)
        if orders != (fam.n, 1):
            return EscapeWitness(
                Status.REFUTED,
                tuple(entries),
                f"vanishing orders {orders} instead of ({fam.n}, 1) at n = {fam.n}",
            )
        entries.append((fam.n, orders[0] - orders[1]))
    depths = [depth for _, depth in entries]
    if any(b <= a for a, b in zip(depths, depths[1:])):
        return EscapeWitness(
            Status.REFUTED,
            tuple(entries),
            "escape depths are not strictly increasing",
        )
    return EscapeWitness(
        Status.PROVED,
        tuple(entries),
        "every family vanishes to orders (n, 1); escape depths strictly increase",
    )


@dataclass(frozen=True)
class ConvergenceEntry:
    """Largest boundary image size for one family, in squared-modulus units."""

    n: int
    sup_squared: Fraction
    bound_squared: Fraction
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sup_squared": decimal_approx(self.sup_squared, mode="ceil"),
            "bound_squared": format_rational(self.bound_squared),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ConvergenceWitness:
    """Uniform boundary convergence: sup metrics per n, nonincreasing."""

    status: Status
    entries: tuple[ConvergenceEntry, ...]
    samples: int
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "entries": [e.to_json() for e in self.entries],
            "samples": self.samples,
            "detail": self.detail,
        }


def uniform_convergence_witness(
    fams: Sequence[Family],
    target_certs: dict[int, Certificate],
    *,
    samples: int = 512,
) -> ConvergenceWitness:
    """Boundary images shrink uniformly: sup metric at most 1/n, nonincreasing.

    All families are evaluated at the same exact points of the unit circle;
    the metric at a point is max(|f1|, |f2|, |f2/f1|), computed and compared
    through squares.  Each family's sampled sup must be at most 1/n (squared:
    1/n^2), the sequence of sups must be nonincreasing in n, and the claim for
    all boundary points (not just samples) is inherited from the per-family
    target containment certificates.
    """
    if not fams:
        raise ValueError("at least one family is required")
    pts = [as_scaled(cpt.point) for cpt in circle_points(Fraction(1), samples)]
    entries = []
    for fam in fams:
        # running sup as unreduced factor tuples (numerator, denominator);
        # prod_gt forms the cross products only where its bounds cannot
        # separate them, and one reduction happens at the end
        sup_num, sup_den = (0,), (1,)
        for a, b, den in pts:
            n1, q1 = scaled_abs2(eval_scaled(fam.f1, a, b, den))
            n2, q2 = scaled_abs2(eval_scaled(fam.f2, a, b, den))
            if n1 == 0:
                return ConvergenceWitness(
                    Status.REFUTED,
                    tuple(entries),
                    samples,
                    f"the first component vanishes on the unit circle at n = {fam.n}",
                )
            candidates = (((n1,), (q1,)), ((n2,), (q2,)), ((n2, q1), (q2, n1)))
            for cand_num, cand_den in candidates:
                if prod_gt(cand_num + sup_den, sup_num + cand_den):
                    sup_num, sup_den = cand_num, cand_den
        sup = Fraction(math.prod(sup_num), math.prod(sup_den))
        bound = Fraction(1, fam.n * fam.n)
        entries.append(ConvergenceEntry(fam.n, sup, bound, sup <= bound))
    entries = tuple(entries)
    sups = [e.sup_squared for e in entries]
    if any(not e.passed for e in entries):
        return ConvergenceWitness(
            Status.REFUTED, entries, samples, "a sampled sup exceeds its bound"
        )
    if any(b > a for a, b in zip(sups, sups[1:])):
        return ConvergenceWitness(
            Status.REFUTED, entries, samples, "the sup sequence increases"
        )
    missing = [
        fam.n
        for fam in fams
        if target_certs.get(fam.n) is None
        or target_certs[fam.n].status is not Status.PROVED
    ]
    if missing:
        return ConvergenceWitness(
            Status.INCONCLUSIVE,
            entries,
            samples,
            f"target containment is not proved for n in {missing}",
        )
    return ConvergenceWitness(
        Status.PROVED,
        entries,
        samples,
        "sampled sups within bounds and nonincreasing, with proved containment",
    )


# ---------------------------------------------------------------------------
# The per-family end-to-end trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    """The four per-family conditions, each with its own certificate.

    * ``condition_i``: the disk image lies in the union of chart cones below
      index n (divisibility window, per-chart cone certificates, base chart,
      combined sampled witness).
    * ``condition_ii``: the annulus image lies in the shrinking target region.
    * ``condition_iii``: the sampled boundary sup metric (squared) with its
      1/n^2 bound.
    * ``condition_iv``: the vanishing-order pair (n, 1); ``escape_index`` is
      their gap and equals n - 1 exactly when the pair is as expected.
    """

    n: int
    condition_i: Certificate
    condition_ii: Certificate
    condition_iii: Certificate
    condition_iv: Certificate
    sup_squared: Optional[Fraction]
    escape_index: int
    seed: int
    status: Status
    detail: str = ""

    @property
    def conditions(self) -> tuple[Certificate, Certificate, Certificate, Certificate]:
        return (
            self.condition_i,
            self.condition_ii,
            self.condition_iii,
            self.condition_iv,
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "condition_i": self.condition_i.to_json(),
            "condition_ii": self.condition_ii.to_json(),
            "condition_iii": self.condition_iii.to_json(),
            "condition_iv": self.condition_iv.to_json(),
            "sup_squared": None
            if self.sup_squared is None
            else decimal_approx(self.sup_squared, mode="ceil"),
            "escape_index": self.escape_index,
            "seed": self.seed,
            "status": self.status.value,
            "detail": self.detail,
        }


_TRACE_DETAIL = {
    Status.REFUTED: "a condition is refuted",
    Status.INCONCLUSIVE: "a condition has no verdict",
    Status.PROVED: "all four conditions proved",
}


def trace_family(
    fam: Family,
    *,
    root_certs: dict[int, RootLocalization],
    corollary: CorollaryReport,
    identities: CheckReport,
    divisions: Sequence[DivisionWitness],
    window_samples: int = 64,
    cone_samples: int = 256,
    witness_samples: int = 2000,
    sup_samples: int = 512,
    spot_checks: int = 64,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> TraceReport:
    """The four per-family conditions, built on the family's certified stages.

    ``root_certs``, ``corollary``, ``identities`` and ``divisions`` are the
    root localizations, envelope chains, exact identities and division
    witnesses of ``fam``; the caller computes each of them once and the
    conditions here only read them.  The aggregate status is the worst of
    the four condition statuses.
    """
    n = fam.n
    condition_ii = annulus_into_target(fam, corollary, spot_checks=spot_checks)
    window = image_in_chart_window(
        fam, corollary, identities, samples=window_samples, seed=seed
    )
    cones = [
        chart_cone_certificate(
            fam,
            k,
            root_certs,
            identities,
            divisions,
            samples=cone_samples,
            seed=seed,
            budget=budget,
        )
        for k in range(1, n)
    ]
    base = base_chart_certificate(
        fam, corollary, identities, samples=max(cone_samples, 256)
    )
    witness = cone_window_witness(fam, samples=witness_samples, seed=seed)
    condition_i = _combine(
        "disk-into-chart-cones", [window, base, *cones, witness]
    )

    convergence = uniform_convergence_witness(
        [fam], {n: condition_ii}, samples=sup_samples
    )
    entry = convergence.entries[0] if convergence.entries else None
    condition_iii = Certificate(
        "boundary-sup-metric",
        convergence.status,
        convergence.detail,
        {"entry": entry.to_json() if entry is not None else None},
    )

    orders = vanishing_orders(fam)
    escape = orders[0] - orders[1]
    if orders == (n, 1):
        condition_iv = Certificate(
            "vanishing-orders",
            Status.PROVED,
            f"components vanish to orders {orders}; escape depth {escape}",
            {"orders": list(orders), "escape_index": escape},
        )
    else:
        condition_iv = Certificate(
            "vanishing-orders",
            Status.REFUTED,
            f"components vanish to orders {orders} instead of ({n}, 1)",
            {"orders": list(orders), "escape_index": escape},
        )

    conditions = (condition_i, condition_ii, condition_iii, condition_iv)
    status = worst(c.status for c in conditions)

    return TraceReport(
        n=n,
        condition_i=condition_i,
        condition_ii=condition_ii,
        condition_iii=condition_iii,
        condition_iv=condition_iv,
        sup_squared=None if entry is None else entry.sup_squared,
        escape_index=escape,
        seed=seed,
        status=status,
        detail=_TRACE_DETAIL[status],
    )
