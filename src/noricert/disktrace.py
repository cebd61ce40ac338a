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
* that the boundary sup metric max(|f1|, |f2|, |f2/f1|) on the unit circle
  is at most 1/n, which the target containment of the annulus implies.

``trace_family`` certifies one family.  It builds the family's factor map
(``_image_factors``) once and hands it to every stage that brackets image
points: the chart window, each chart cone with its entry probe, and the
cone-window witness; so each chart's tests are compiled once per family.
The sup metric is not sampled: condition iii reads the family's bound 1/n,
and its status, from the family's target certificate, so the bounds tend
to 0 as ``n`` grows.

Every verdict is exact: moduli are compared through their squares, by
certified exponents and brackets that fall back to exact integer arithmetic
whenever they cannot decide.  Each sampled layer draws its points as integer
triples ``(num_re, num_im, den)`` from a seeded ``RationalSampler``, so it
is deterministic given its seed and builds no rational number per sample.  A
sampled image point is an ``_Image``.  When the family's three exact
identities are proved, it is bracketed through the factors: square-ratio
with difference-factorization gives f1^2 = (eps lam^n prod P_j^j)^2 and
power-ratio then |f2|^(2n) = (eps^4 |lam|^2 prod |P_j|^2)^n, so |f1|^2,
|f2|^2 and |f2 - f1|^2 = eps^2 |lam|^2 |P_1|^4 prod_{j>=2} |P_j|^2 are
products, with powers, of eps^2, the exact |lam|^2 and the atoms
(``bounds.abs2_atoms``) of the low-degree factors: the exact |P_j|^2 of a
small factor (at n = 2, 3 all of them), a ball bracket of any other one (at
n = 4); the difference needs no subtraction.  Where the root localizations
proved every factor's recursion P_k = eps^(c_k) - lam^(n-k) prod_{j>k}
P_j^(j-k) for this family, the balls of all the factors come from those
recursions, two ball products per factor (``bounds.recursion_balls``), and
otherwise each from a ball Horner over its expanded coefficients; a ball
bracket that reaches 0 is replaced by the factor's exact atom.  With those
recursions proved, the same recursions on exponent pairs alone
(``bounds.recursion_exponents``) give powers of two around every |P_k|^2
wherever one of their two terms dominates the other by a factor 4, and the
atoms are computed only where that is not so, or where those powers leave a
test open.  Without the identities the atoms are |f1|^2 and |f2|^2
themselves.  A chart predicate (cover region, membership, entry, cone) is
a test compiled once per factor map: a power vector over (|f1|^2, |f2|^2,
|f2^(k+1) - f1|^2) against a chart square, held as plain data.
The three sampled loops, the chart window, the chart-cone ladder and the
cone-window witness, draw grid integers from the sampler's endless
generators (``disk_grid``, ``randints``) and first read a point's
``log2_bounds`` pair of |lam|^2 (``_rung_key``), all that the first rung
below reads of lam, from the numerator and the squared denominator of
|lam|^2 that the loop holds; they reuse the outcome of an earlier point
of the same call with that pair that was decided on the first rung alone
and refuted nothing, and build an ``_Image`` only for a point that reuses
nothing, handing it that squared denominator and that pair.
``_Image.first_failing`` decides an ordered sequence of them in one pass
over the point's exponent vector and stops at the first that fails, each
in four rungs: on the net exponents from the recursions, then on the net
exponents of the atoms (common factors cancel before anything is
multiplied, and these two decide almost every test), then on the 192-bit
product brackets of the three quantities (``bounds.product_bracket``),
then on the exact integers of the triples; the quantities are bracketed
only where a test reaches the products, and a test with an exact-zero
quantity is decided by sign before that.  A boundary spot check (target region,
chart window, base chart) runs only where the certificate's own proof is
incomplete, as the search for a refutation witness; the values at each of
its exact circle points take ``bounds.Values``, whose atoms follow the same
size rule.  The exact ``eval_scaled`` triples of f1 and f2 are evaluated
only when the brackets leave a comparison undecided or when a refutation
renders its witness as exact rationals with ``scaled_to_complex``; a zero
test reads the atoms' exponents alone, since an atom without them is an
exact zero.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .arith import (
    ComplexRational,
    _digits10,
    as_scaled,
    coefficient_ball,
    decimal_approx,
    eval_scaled,
    format_rational,
    scaled_abs2,
    scaled_to_complex,
)
from .atlas import ChartPoint, chart_cover_indices
from .bounds import (
    Values,
    abs2_atoms,
    bracket_lt,
    constant_factor,
    exact_atom,
    exact_atoms,
    exact_lt,
    gap_bracket,
    log2_bounds,
    product_bracket,
    ratio_bracket,
    ratio_exponents,
    recursion_exponents,
)
from .certify import (
    CorollaryReport,
    DivisionWitness,
    ProductForms,
    RootLocalization,
    SpotLoop,
    Status,
    _forms_of,
    _localization_sides,
    _recursions_proved,
    cone_factor_certificate,
    cone_sides,
    side_factors,
    spot_loop,
    worst,
)
from .family import CheckReport, Family
from .sampling import GRID_BITS, RationalSampler

__all__ = [
    "Certificate",
    "TargetRegion",
    "TraceReport",
    "annulus_into_target",
    "target_spot_checks",
    "image_in_chart_window",
    "window_spot_checks",
    "chart_cone_certificate",
    "base_chart_certificate",
    "base_spot_checks",
    "cone_window_witness",
    "vanishing_orders",
    "trace_family",
]


class Certificate(NamedTuple):
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
# work on exponents, brackets and unreduced ``eval_scaled`` triples.  Every
# sampled image point is an ``_Image`` over the atoms of its factor map
# (``_image_factors``): their exponent vector, with the quantities
# bracketed only where a test needs their products.  A chart
# predicate is a power vector over (|f1|^2, |f2|^2, |f2^(k+1) - f1|^2)
# against a chart square (``FamilyParams.squares``): membership (1, -k) and
# entry (-1, k + 2) against r^2, the cover region (1, 0) against r^2 and
# (0, 1) against r^4, the cone (2, -k, -1) against rho^2 or (rho/2)^2.  It
# is compiled once per factor map into a tuple (``_compile_test``; the tests
# of each chart index are ``_chart_tests``), and ``_Image.first_failing``
# decides an ordered sequence of them in one pass, stopping at the first
# that fails.  Its stages: the net exponents (``_compile_net``, so common
# atoms cancel), the sign of a test with an exact-zero quantity,
# ``bounds.bracket_lt`` on the 192-bit products, and ``bounds.exact_lt`` on
# the unreduced integer squares of the triples.  An atom is exact or a ball
# bracket by the one size rule of ``bounds.exact_atoms``, decided once per
# factor map; the ball brackets of the factors come from their proved
# recursions where ``_image_factors`` finds them proved for the family
# object.  A ball bracket that reaches 0 is replaced by its polynomial's
# exact atom, so the zero tests read no triple: an atom without exponents
# is an exact zero.
# Every exact circle point of a spot check that runs is a ``bounds.Values``,
# whose atoms ``abs2_atoms`` builds by the same rule.  The test suite
# cross-validates these paths against ``Fraction`` reference predicates.
# ---------------------------------------------------------------------------


# the identities that prove the product forms of ``_image_factors``
_FACTOR_IDENTITIES = ("power-ratio", "square-ratio", "difference-factorization")


class _Factors(NamedTuple):
    """How an image brackets |f1|^2, |f2|^2 and, at k = 0, |f2 - f1|^2.

    The atoms of a point are ``constants`` (exact pairs (num, den)), then
    |lam|^2 when ``lam`` is set, then |p(lam)|^2 for each of ``polys``,
    exact where ``exact`` (``bounds.exact_atoms``) says so and a ball
    bracket otherwise; ``chain``, when set, holds the coefficient balls of
    the constants e_k = eps^(c_k) of the proved recursions of ``polys`` =
    P_1, ..., P_{n-1}, from which ``bounds.recursion_balls`` gives the ball
    atoms without a Horner (None: each ball atom is ``bounds.ball_abs2``'s).
    ``forms`` holds one power vector over the atoms for each of the three
    quantities, or for the first two only, when
    ``_Image.first_failing`` brackets the difference by ``gap_bracket``.
    ``tests`` holds the compiled tests of each chart index
    (``_chart_tests``), filled on first use and shared by every stage that
    ``trace_family`` hands the map to.  ``rung``, set with
    ``chain``, holds the ``log2_bounds`` of each |e_k|^2
    (``_recursion_rung``), from which ``bounds.recursion_exponents`` gives
    powers of two around every |P_k(lam)|^2 before any atom is computed.
    That first rung reads lam only through its |lam|^2 pair (``_rung_key``),
    so the sampled loops decide each such pair on it once per call and
    reuse the outcome.

    So one image point is decided in four rungs, each only where the one
    before leaves a test open: the recursion exponents (with ``rung``), the
    atoms' exponents, the 192-bit products of the atoms, and the exact
    integers of the ``eval_scaled`` triples of f1 and f2.
    """

    constants: tuple
    lam: bool
    polys: tuple
    exact: tuple
    forms: tuple
    tests: list
    chain: Optional[tuple] = None
    rung: Optional[tuple] = None


def _recursion_chain(
    fam: Family, root_certs: Optional[dict[int, RootLocalization]]
) -> Optional[tuple]:
    """The coefficient balls of e_1, ..., e_{n-1}, the constants of the
    factors' recursions, or None unless ``root_certs`` proved every
    recursion for ``fam`` itself.

    The constants are read from ``certify._localization_sides``, the sides
    whose difference each proof checked against P_k.
    """
    n = fam.n
    if not _recursions_proved(fam, root_certs, n - 1):
        return None
    return tuple(coefficient_ball(_localization_sides(fam, k)[1][0]) for k in range(1, n))


def _recursion_rung(fam: Family) -> tuple:
    """The ``log2_bounds`` of |e_k|^2 = e_k^2, k = 1..n-1, read once per
    factor map from the exact constants of ``_recursion_chain``."""
    out = []
    for k in range(1, fam.n):
        e = _localization_sides(fam, k)[1][0]
        out.append(log2_bounds(e.numerator**2, e.denominator**2))
    return tuple(out)


def _image_factors(
    fam: Family,
    identities: Optional[CheckReport] = None,
    root_certs: Optional[dict[int, RootLocalization]] = None,
) -> _Factors:
    """The factor map of ``fam``'s images, built once per family trace.

    With the three identities of ``_FACTOR_IDENTITIES`` proved, the atoms
    are eps^2, |lam|^2 and the |P_j|^2, and

        |f1|^2 = eps^2 |lam|^(2n) prod |P_j|^(2j),
        |f2|^2 = eps^4 |lam|^2 prod |P_j|^2,
        |f2 - f1|^2 = eps^2 |lam|^2 |P_1|^4 prod_{j>=2} |P_j|^2,

    a product without cancellation.  Square-ratio with
    difference-factorization gives f1^2 = (eps lam^n prod P_j^j)^2, which
    fixes |f1|; power-ratio then gives |f2|^(2n) = (eps^4 |lam|^2
    prod |P_j|^2)^n, which fixes |f2|; difference-factorization is
    f2 - f1 = eps lam P_1^2 prod_{j>=2} P_j.  ``exact_identity_checks``
    derives the three from the product forms of f1 and f2 and the
    recursion of P_1 (``certify._proved_forms``), and expands an
    identity's own sides only where that bookkeeping does not close.
    Otherwise (or without ``identities``) the atoms are |f1|^2 and |f2|^2
    themselves.  Which polynomials get exact atoms is decided here, once,
    by ``bounds.exact_atoms``.  Where ``root_certs`` proved the recursion
    of every P_k for this family object, ``chain`` is set
    (``_recursion_chain``) and the ball atoms come from the recursions, two
    ball products per factor; otherwise each is a ball Horner.  With
    ``chain`` comes ``rung`` (``_recursion_rung``), the exponents of the
    recursions' constants, from which an image decides most tests before
    it computes any atom.
    """
    if identities is None or not all(identities.passed(i) for i in _FACTOR_IDENTITIES):
        polys = fam.f1, fam.f2
        return _Factors((), False, polys, exact_atoms(polys), ((1, 0), (0, 1)), [])
    n = fam.n
    eps2 = fam.params.eps**2
    ones = (1,) * (n - 2)
    polys = tuple(fam.Pk(j) for j in range(1, n))
    chain = _recursion_chain(fam, root_certs)
    return _Factors(
        ((eps2.numerator, eps2.denominator),),
        True,
        polys,
        exact_atoms(polys),
        ((1, n, *range(1, n)), (2, 1, 1, *ones), (1, 1, 2, *ones)),
        [],
        chain,
        None if chain is None else _recursion_rung(fam),
    )


def _compile_net(
    fam: Family, factors: _Factors, coeffs: tuple, square: Optional[str], k: int
) -> tuple:
    """prod_i q_i^coeffs[i] / c over the atoms, c the chart square ``square``
    (1 when None) and q_i the quantities of ``factors.forms``, the third
    being |f2^(k+1) - f1|^2.

    Returns ``(pairs, lo, hi)``: the constant atoms fold into c, and
    2^lo <= 1/c <= 2^hi are the tightest powers of two around its inverse;
    ``pairs`` holds ``(i, net power)`` for each point atom i that either
    side uses (a common atom cancels only where it is positive).  A vector
    with the gap where the gap is no quantity (k >= 1, or k = 0 without its
    form) compiles to ``(None, nets, g)`` instead: g is the gap's power,
    and ``nets`` are the nets of the ratio t = |f1|^2 / |f2|^(2k+2) and of
    the vector with the gap replaced by |f2|^(2k+2) and by |f1|^2 (see
    ``_Image.net``).
    """
    if len(coeffs) == 3 and (k or len(factors.forms) == 2):
        c1, c2, g = coeffs
        nets = (
            _compile_net(fam, factors, (1, -(k + 1)), None, 0),
            _compile_net(fam, factors, (c1, c2 + g * (k + 1)), square, 0),
            _compile_net(fam, factors, (c1 + g, c2), square, 0),
        )
        return None, nets, g
    fixed = len(factors.constants)
    c = Fraction(*getattr(fam.params.squares, square)[:2]) if square else Fraction(1)
    pairs = []
    for i, column in enumerate(zip(*factors.forms)):
        terms = [coeff * e for coeff, e in zip(coeffs, column)]
        if i < fixed:
            c *= Fraction(*factors.constants[i]) ** -sum(terms)
        elif any(terms):
            pairs.append((i - fixed, sum(terms)))
    lo, hi = log2_bounds(c.numerator, c.denominator)
    return tuple(pairs), -hi, -lo


def _compile_test(
    fam: Family,
    factors: _Factors,
    coeffs: tuple,
    square: Optional[str] = None,
    *,
    closed: bool = False,
    k: int = 0,
) -> tuple:
    """The chart test prod_i q_i^coeffs[i] < c (``<=`` when ``closed``) as
    data: ``(pairs, lo, hi, closed, (coeffs, c, k))``.

    ``(pairs, lo, hi)`` is ``_compile_net``'s net, c the
    ``FamilyParams.squares`` entry ``square`` (None for 1); ``coeffs``, c
    and k are what the product and exact stages of ``_Image.first_failing``
    read.  Compiled once per factor map, so that deciding a test at a point
    builds and hashes no key.
    """
    c = getattr(fam.params.squares, square) if square else None
    return (*_compile_net(fam, factors, coeffs, square, k), closed, (coeffs, c, k))


def _chart_tests(fam: Family, factors: _Factors, k: int) -> tuple:
    """The compiled tests of chart k on ``factors`` (``_compile_chart``),
    compiled on first use."""
    charts = factors.tests
    while len(charts) <= k:
        charts.append(_compile_chart(fam, factors, len(charts)))
    return charts[k]


def _compile_chart(fam: Family, factors: _Factors, k: int) -> tuple:
    """``(region, chart, cone, member, entry, halved)``, the tests of chart k:

    * ``region``: the cover region, |f1| < r by (1, 0) against r^2, then
      |f2| < r^2 by (0, 1) against r^4;
    * ``chart``: chart k membership of a point of the cover region, entry
      |f2|^(k+2) < r^2 |f1| by (-1, k + 2) against r^2, then at k >= 1
      member |f1| < r |f2|^k by (1, -k) against r^2 (at k = 0 member is the
      region's first test);
    * ``cone``: ``chart``, then the open cone |f1|^2 < rho |f2^(k+1) - f1|
      |f2|^k, squared, by (2, -k, -1) against rho^2; at k = 0 the region's
      two tests come first, so that one call decides a witness point's
      common case;
    * ``member``, ``entry`` and ``halved``, single tests for the ladder and
      the entry probe, ``halved`` the closed cone against (rho/2)^2.
    """

    def test(coeffs, square, closed=False):
        return _compile_test(fam, factors, coeffs, square, closed=closed, k=k)

    region = test((1, 0), "r2"), test((0, 1), "r4")
    member, entry = test((1, -k), "r2"), test((-1, k + 2), "r2")
    chart = (entry, member) if k else (entry,)
    cone = (*chart, test((2, -k, -1), "rho2"))
    halved = test((2, -k, -1), "half_rho2", closed=True)
    return region, chart, cone if k else (*region, *cone), member, entry, halved


def _rung_key(num: int, den2: int) -> Optional[tuple]:
    """The ``log2_bounds`` pair of the exact |lam|^2 = num/den2, num =
    num_re^2 + num_im^2 and den2 the squared denominator of lam; None at
    lam = 0, which has no first rung.

    It is all that an image's first rung reads of lam: an image that
    decides its tests on the recursion exponents without refining has an
    outcome, and counts, fixed by the factor map, the tests and this pair,
    which is why the sampled loops memoize such outcomes by it.  A loop
    stores an outcome only where the image did not refine, which every
    image of a map without a ``rung`` does.
    """
    return log2_bounds(num, den2) if num else None


class _Image:
    """The image point (f1(lam), f2(lam)) of lam = (num_re + i num_im)/den.

    One point is decided in four rungs, each only where the one before
    leaves a test open: the recursion exponents, the atoms' exponents, the
    192-bit product brackets of the quantities, the exact integers of the
    triples.  The sampled loops (the chart window, the chart-cone ladder
    and the cone-window witness) build no image at all for a point whose
    |lam|^2 pair (``_rung_key``) already gave a non-refuting outcome on the
    first rung alone, with no refinement: they reuse that outcome.  A loop
    that builds one hands it den2 = den^2 and that pair, ``key``, which it
    holds already; without den2 both are computed here from lam.

    ``exps`` are powers of two around the point atoms of ``factors``
    (``_image_factors``; |f1|^2 and |f2|^2 without the factors'
    identities): the exact |lam|^2 when the map has it, then one per
    polynomial.  Where the map has a
    ``rung`` and lam is not 0, they are first that ``log2_bounds`` pair of
    |lam|^2 (``_rung_key``) and the pairs ``bounds.recursion_exponents``
    derives from it, no atom computed, all finite.  Where that gives up, or
    a test's net sum on them is open, the point refines (``refined``): its
    atoms come from ``bounds.abs2_atoms``, exact where ``factors.exact``
    says so and a ball bracket otherwise (from ``factors.chain`` when the
    map has one), and exact wherever that bracket would reach 0
    (``zero_atoms`` counts those), and ``exps`` become their exponents.
    None marks an exact zero atom, and ``positive`` tells that there is
    none.  ``first_failing`` decides a sequence of compiled chart tests on
    ``exps`` in one pass.
    ``atoms`` are the point atoms as brackets (``bounds.ratio_bracket`` of
    |lam|^2 and of each exact atom); reading them, or the triples, refines
    first.  ``a1``, ``a2`` and ``gap`` are the brackets of |f1|^2, |f2|^2
    and |f2 - f1|^2 (None without a form), ``bounds.product_bracket``s over
    the constants and the atoms, built together when a test that the
    atoms' exponents leave open has no exact-zero quantity.  ``v1`` and
    ``v2`` are the exact ``eval_scaled`` triples of f1 and f2, both
    evaluated when either is first read: by a bracket comparison left
    undecided, or by a refutation that renders the point.
    """

    __slots__ = (
        "fam", "lam", "factors", "exps", "positive", "zero_atoms",
        "_den2", "_raw", "_quantities", "_triples",
    )

    def __init__(
        self,
        fam: Family,
        num_re: int,
        num_im: int,
        den: int,
        factors: _Factors,
        den2: Optional[int] = None,
        key: Optional[tuple] = None,
    ):
        self.fam, self.lam, self.factors = fam, (num_re, num_im, den), factors
        self._quantities: Optional[tuple] = None
        self._triples: Optional[tuple] = None
        if den2 is None:
            den2 = den * den
            key = _rung_key(num_re * num_re + num_im * num_im, den2)
        self._den2 = den2
        if key is not None and factors.rung is not None:
            exps = recursion_exponents(factors.rung, key)
            if exps is not None:
                exps.insert(0, key)
                self.exps, self.positive, self.zero_atoms = exps, True, 0
                self._raw = None
                return
        self._refine()

    def _refine(self) -> None:
        """Compute the point atoms (``bounds.abs2_atoms``) and replace
        ``exps`` by their exponents."""
        factors = self.factors
        num_re, num_im, den = self.lam
        raw, exps, self.zero_atoms = abs2_atoms(
            factors.polys, factors.exact, num_re, num_im, den, factors.chain
        )
        if factors.lam:
            # the exact |lam|^2 = (num_re^2 + num_im^2)/den^2
            num, den2 = num_re * num_re + num_im * num_im, self._den2
            raw.insert(0, (num, den2))
            exps.insert(0, ratio_exponents(num, den2))
        self.exps = exps
        self.positive = None not in exps
        self._raw = raw

    @property
    def refined(self) -> bool:
        """Whether the point atoms have been computed."""
        return self._raw is not None

    @property
    def atoms(self) -> list:
        """The point atoms as brackets."""
        if self._raw is None:
            self._refine()
        return [ratio_bracket(*atom) if exact_atom(atom) else atom for atom in self._raw]

    def net(self, pairs: Optional[tuple], lo, hi) -> Optional[tuple]:
        """Powers of two ``(lo, hi)`` around the quotient of a compiled net
        ``(pairs, lo, hi)`` (``_compile_net``) at lam; None where they are
        not known.

        Sums over the net powers; None where an atom they use has a bracket
        that reaches 0.  Where the gap is no quantity, the ratio
        t = |f1|^2 / |f2|^(2k+2) stands in: with s <= 2^-3 the smaller of t
        and 1/t, the gap is the larger term times (1 -+ sqrt(s))^2, in
        [2^-2, 2] and in [2^-1, 2] once s <= 2^-4, by the reverse triangle
        inequality; otherwise None.
        """
        if pairs is None:
            (t_net, small, large), g = lo, hi
            # t uses every atom of |f1|^2 and |f2|^2, so where it is known
            # the two replacements are too
            t = self.net(*t_net)
            if t is None:
                return None
            if t[1] <= -3:
                (lo, hi), s = self.net(*small), t[1]
            elif t[0] >= 3:
                (lo, hi), s = self.net(*large), -t[0]
            else:
                return None
            w = 1 if s <= -4 else 2  # the gap over the larger term is in [2^-w, 2]
            return (lo - w * g, hi + g) if g > 0 else (lo + g, hi - w * g)
        exps = self.exps
        for i, p in pairs:
            e = exps[i]
            if e is None:
                return None
            if p > 0:
                lo, hi = lo + p * e[0], hi + p * e[1]
            else:
                lo, hi = lo + p * e[1], hi + p * e[0]
        return lo, hi

    def first_failing(self, tests: Sequence[tuple]) -> int:
        """The index of the first of the compiled ``tests`` (``_compile_test``)
        that does not hold at lam; ``len(tests)`` when all hold.

        Each test prod_i q_i^coeffs[i] < c (``<=`` when closed), q =
        (|f1|^2, |f2|^2, |f2^(k+1) - f1|^2), is decided in stages, each
        where the one before leaves it open: the net exponents (``net``),
        on the recursion exponents and, where those leave it open, again
        after the point refines, on the atoms' exponents; by sign, where a
        quantity the test uses is an exact 0 (``_zero_sign``);
        ``bounds.bracket_lt`` on the quantities' brackets with the square's
        brackets as factors (the gap is a product at k = 0 with its form,
        ``gap_bracket`` otherwise, and the stage is skipped where that is
        None); ``bounds.exact_lt`` on the unreduced integer squares of the
        exact triples.  The tests run in order and stop at the first that
        fails, so the products formed and the triples evaluated are those of
        deciding each test up to it on its own.
        """
        exps = self.exps
        index, count = 0, len(tests)
        while index < count:
            pairs, lo, hi, closed, stage = tests[index]
            if pairs is None:
                net = self.net(pairs, lo, hi)
                if net is not None:
                    # decided below, as a sum of no terms
                    pairs, (lo, hi) = (), net
            if pairs is not None:
                # ``net``'s sum, inline: one pass over the exponent vector
                for i, p in pairs:
                    e = exps[i]
                    if e is None:
                        break
                    if p > 0:
                        lo += p * e[0]
                        hi += p * e[1]
                    else:
                        lo += p * e[1]
                        hi += p * e[0]
                else:
                    if hi < 0 or closed and hi == 0:
                        index += 1
                        continue
                    if lo > 0 or not closed and lo == 0:
                        return index
            if self._raw is None:
                # the recursion exponents leave the test open: decide it
                # again on the atoms' exponents
                self._refine()
                exps = self.exps
                continue
            if not self._decide(closed, *stage):
                return index
            index += 1
        return index

    def _decide(self, closed: bool, coeffs: tuple, c: Optional[tuple], k: int) -> bool:
        """The sign, product and exact stages of one test that the net
        leaves open.

        A test with an exact-zero quantity is decided by sign alone, on no
        bracket and no triple (``_zero_sign``).
        """
        if not self.positive:
            verdict = self._zero_sign(closed, coeffs, k)
            if verdict is not None:
                return verdict
        a1, a2, gap = self.quantities
        if len(coeffs) == 3 and (k or gap is None):
            gap = gap_bracket(a1, a2, k)
        if len(coeffs) == 2 or gap is not None:
            pairs = list(zip((a1, a2, gap), coeffs))
            lhs = [q for q, e in pairs for _ in range(e)]
            rhs = [q for q, e in reversed(pairs) for _ in range(-e)]
            if c is not None:
                lhs.append(c[3])
                rhs.insert(0, c[2])
            verdict = bracket_lt(lhs, rhs, closed=closed)
            if verdict is not None:
                return verdict
        v1, v2 = self.triples
        terms = [] if c is None else [(c[0], c[1], -1)]
        for i, e in enumerate(coeffs):
            if e:
                pair = _gap_squared_exact(v1, v2, k) if i == 2 else scaled_abs2((v1, v2)[i])
                terms.append((*pair, e))
        return exact_lt(terms, closed=closed)

    def _zero_sign(self, closed: bool, coeffs: tuple, k: int) -> Optional[bool]:
        """prod_i q_i^coeffs[i] < c (``<=`` when closed) where some q_i with
        a nonzero power is an exact 0; None where none is.

        |f1|^2 and |f2|^2 are 0 where they vanish (``vanishes``), and
        |f2^(k+1) - f1|^2 where its form (k = 0) vanishes or, without one,
        where both do; every other quantity is then positive, as is c.
        With a zero on the right the test reads x < 0 or x <= 0 for some
        x >= 0, which holds only as 0 <= 0; with zeros on the left alone it
        reads 0 < x for x > 0, which holds.
        """
        zeros = [self.vanishes(1), self.vanishes(2)]
        if len(coeffs) == 3:
            has_form = not k and len(self.factors.forms) == 3
            zeros.append(self.vanishes(3) if has_form else zeros[0] and zeros[1])
        left = any(e > 0 and z for e, z in zip(coeffs, zeros))
        if any(e < 0 and z for e, z in zip(coeffs, zeros)):
            return left and closed
        return True if left else None

    @property
    def quantities(self) -> tuple:
        """``(a1, a2, gap)``, the product brackets of ``factors.forms`` over
        the constants and the atoms, built on first read."""
        if self._quantities is None:
            factors = self.factors
            atoms = [ratio_bracket(*c) for c in factors.constants] + self.atoms
            made = [product_bracket(atoms, powers) for powers in factors.forms]
            self._quantities = (*made, None)[:3]
        return self._quantities

    a1 = property(lambda self: self.quantities[0])
    a2 = property(lambda self: self.quantities[1])
    gap = property(lambda self: self.quantities[2])

    @property
    def formed(self) -> bool:
        """Whether a comparison formed the 192-bit product brackets of this
        image."""
        return self._quantities is not None

    @property
    def evaluated(self) -> bool:
        """Whether the exact triples have been evaluated."""
        return self._triples is not None

    @property
    def triples(self) -> tuple:
        if self._triples is None:
            if self._raw is None:
                self._refine()
            fam = self.fam
            self._triples = (eval_scaled(fam.f1, *self.lam), eval_scaled(fam.f2, *self.lam))
        return self._triples

    @property
    def v1(self) -> tuple:
        return self.triples[0]

    @property
    def v2(self) -> tuple:
        return self.triples[1]

    def vanishes(self, i: int) -> bool:
        """Exact f_i(lam) = 0 (i = 3: f2 - f1, where it has a form): an atom
        of its squared modulus is an exact 0.

        An atom without exponents is an exact zero (``bounds.abs2_atoms``
        gives a ball bracket that reaches 0 its exact value), and every
        constant atom is positive, so no triple is read.
        """
        if self.positive:
            return False  # every atom, and so every quantity, is positive
        factors = self.factors
        form = factors.forms[i - 1][len(factors.constants):]
        return any(p and ex is None for ex, p in zip(self.exps, form))


def _book_image(tally: Counter, img: _Image) -> None:
    """Add the counts that a built image reports to ``tally``: whether it
    needed its exact values, whether it formed a 192-bit product, the atoms
    the zero rule made exact and whether its atoms were computed.  The
    loops book their ``points`` and ``reused`` themselves."""
    tally["exact_fallbacks"] += img.evaluated
    tally["products"] += img.formed
    tally["zero_atoms"] += img.zero_atoms
    tally["refined"] += img.refined


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


def _gap_squared_exact(v1: tuple, v2: tuple, k: int) -> tuple[int, int]:
    """|f2^(k+1) - f1|^2 as an unreduced integer pair (num, den)."""
    re1, im1, d1 = v1
    re2, im2, d2 = v2
    p_re, p_im = _complex_int_pow(re2, im2, k + 1)
    dp = d2 ** (k + 1)
    g_re = p_re * d1 - re1 * dp
    g_im = p_im * d1 - im1 * dp
    return g_re * g_re + g_im * g_im, (d1 * dp) ** 2


def _holds(img: _Image, tests: tuple) -> bool:
    """Whether every one of the compiled ``tests`` holds at ``img``."""
    return img.first_failing(tests) == len(tests)


def _in_cover_region(img: _Image) -> bool:
    """0 < |z1| < r and |z2| < r^2 at a scaled point (exact semantics)."""
    return not img.vanishes(1) and _holds(img, _chart_tests(img.fam, img.factors, 0)[0])


def _in_chart(img: _Image, k: int) -> bool:
    """Chart k membership of a point of the cover region: |f2|^(k+2) <
    r^2 |f1| and |f1| < r |f2|^k, the second already decided at k = 0,
    where it is |f1| < r of ``_in_cover_region``."""
    return _holds(img, _chart_tests(img.fam, img.factors, k)[1])


def _cover_indices_scaled(img: _Image, k_max: int) -> tuple[bool, tuple[int, ...]]:
    """Chart cover of a scaled image point: (in_region, covering indices).

    Same predicates as ``chart_cover_indices``; the test suite
    cross-validates.
    """
    if not _in_cover_region(img):
        return False, ()
    return True, tuple(k for k in range(k_max + 1) if _in_chart(img, k))


def _first_open_cone_scaled(img: _Image, k_limit: int) -> tuple[bool, Optional[int]]:
    """First chart index k < k_limit covering the point with its cone open.

    Returns (in_region, index or None).  The scan stops at the first
    success; indices at and beyond ``k_limit`` are the business of the
    divisibility window certificate, not of this scan.  The cone is
    |f1|^2 < rho |f2^(k+1) - f1| |f2|^k, squared.  The cover region, chart
    0 and its cone are one call of ``first_failing``, whose failing index
    tells a point that left the region from one that tries chart 1.
    """
    if not k_limit:
        return _in_cover_region(img), None
    if img.vanishes(1):
        return False, None
    fam, factors = img.fam, img.factors
    chart = _chart_tests(fam, factors, 0)
    tests = chart[2]
    failed = img.first_failing(tests)
    if failed < len(chart[0]):
        return False, None
    if failed == len(tests):
        return True, 0
    for k in range(1, k_limit):
        if _holds(img, _chart_tests(fam, factors, k)[2]):
            return True, k
    return True, None


def _sample_witness(img: _Image, k_max: int) -> dict:
    """Refutation data of a sampled image: lam and the exact cover of its image."""
    point = ChartPoint(scaled_to_complex(img.v1), scaled_to_complex(img.v2))
    return {
        "lambda": scaled_to_complex(img.lam).to_json(),
        "cover": chart_cover_indices(point, img.fam.params.r, k_max).to_json(),
    }


# ---------------------------------------------------------------------------
# The shrinking closed target region
# ---------------------------------------------------------------------------


class TargetRegion:
    """Closed region |z1| <= 1/n, |z2| <= 1/n, |z2| <= (1/n)|z1| in C^2.

    The regions are nested: the region for n + 1 is contained in the region
    for n, so uniform convergence of boundary images can be phrased as the
    target index they reach.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("target index must be >= 1")
        self.n = n

    @property
    def bound(self) -> Fraction:
        return Fraction(1, self.n)

    def contains(self, z1: ComplexRational, z2: ComplexRational) -> bool:
        """Exact membership; all three inequalities are closed."""
        nn = self.n * self.n
        a1, a2 = z1.abs2(), z2.abs2()
        return nn * a1 <= 1 and nn * a2 <= 1 and nn * a2 <= a1

    @cached_property
    def _scale(self) -> tuple:
        """n^2 as a ``constant_factor``, built once per region."""
        return constant_factor(Fraction(self.n * self.n))

    def contains_values(self, values: Values) -> bool:
        """The same predicate at ``(z1, z2)``, the values of ``values.polys``.

        Decided on ball brackets, exact integers where they overlap.
        """
        nn = self._scale
        return (
            values.lt((nn, 0), (), closed=True)
            and values.lt((nn, 1), (), closed=True)
            and values.lt((nn, 1), (0,), closed=True)
        )

    def to_json(self) -> dict:
        return {"n": self.n, "bound": format_rational(self.bound)}


def _named_check(corollary: CorollaryReport, name: str):
    for check in corollary.checks:
        if check.name == name:
            return check
    return None


def _envelopes_proved(
    fam: Family,
    corollary: CorollaryReport,
    identities: Optional[CheckReport],
    *names: str,
) -> bool:
    """Whether the envelopes of |f1| and |f2| on the annulus are proved for
    ``fam`` and pass the checks ``names``.

    The envelopes bound the product forms f1 = eps z^n prod P_j^j and
    f2 = eps^2 z prod P_j by the annulus bounds of the factors, so they
    need ``corollary`` to be ``fam``'s own proved chain and ``identities``
    to have proved those product forms for ``fam`` (``certify.ProductForms``).
    """
    checks = [_named_check(corollary, name) for name in names]
    return (
        corollary.status is Status.PROVED
        and corollary.family is fam
        and identities is not None
        and _forms_of(fam, identities) is not None
        and all(check is not None and check.passed for check in checks)
    )


def _booked(loop: SpotLoop, tally: Optional[Counter]) -> SpotLoop:
    """``loop``, its points and exact fallbacks booked in ``tally``."""
    if tally is not None:
        tally.update(loop.counts())
    return loop


def target_spot_checks(fam: Family) -> SpotLoop:
    """Target membership at 64 exact points of each of |lam| = 1 and
    |lam| = 2."""
    return spot_loop(
        (fam.f1, fam.f2), (Fraction(1), Fraction(2)), 64, TargetRegion(fam.n).contains_values
    )


def annulus_into_target(
    fam: Family,
    corollary: CorollaryReport,
    identities: Optional[CheckReport] = None,
    *,
    tally: Optional[Counter] = None,
) -> Certificate:
    """Certify that the annulus 1 <= |lam| <= 2 maps into the target region.

    The proof delegates to the envelope inequality chain: the upper envelope
    of |f1| on the annulus sits below r/n < 1/n, the upper envelope of |f2|
    below r^2/n < 1/n, and n times the |f2| envelope below the |f1| lower
    envelope, which is the squared-free form of |f2| <= (1/n)|f1|.  Only
    where that proof is incomplete -- an envelope fails, or ``corollary``
    and ``identities`` do not prove the envelopes for ``fam``
    (``_envelopes_proved``) -- do ``target_spot_checks`` test membership on
    each bounding circle, so that a broken family is refuted by a concrete
    point.  ``tally`` counts their points and exact fallbacks.
    """
    target = TargetRegion(fam.n)
    upper_f1 = _named_check(corollary, "f1-upper-vs-r-over-n")
    upper_f2 = _named_check(corollary, "f2-upper-vs-r2-over-n")
    ratio = _named_check(corollary, "f2-scaled-vs-f1-lower")
    exposed = None not in (upper_f1, upper_f2, ratio)
    bound = target.bound
    envelopes_ok = (
        exposed
        and upper_f1.passed
        and upper_f2.passed
        and ratio.passed
        and upper_f1.lhs <= bound
        and upper_f2.lhs <= bound
        and ratio.lhs <= ratio.rhs
    )
    proved = envelopes_ok and _envelopes_proved(fam, corollary, identities)

    checked = 0
    if not proved:
        loop = _booked(target_spot_checks(fam), tally)
        checked = loop.points
        if loop.witness is not None:
            cpt = loop.witness
            return Certificate(
                "annulus-into-target",
                Status.REFUTED,
                f"image leaves the target region at an exact boundary point "
                f"(|lam| = {loop.radius}, chart {cpt.chart}, t = {cpt.t})",
                {"witness": cpt.to_json(), "target": target.to_json()},
            )

    if not exposed:
        return Certificate(
            "annulus-into-target",
            Status.INCONCLUSIVE,
            "the envelope inequality chain does not expose the needed bounds",
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
    if not proved:
        return Certificate(
            "annulus-into-target",
            Status.INCONCLUSIVE,
            "envelopes and spot checks pass but the inequality chain is not proved",
            data,
        )
    return Certificate(
        "annulus-into-target",
        Status.PROVED,
        "envelope chain proved",
        data,
    )


# ---------------------------------------------------------------------------
# Chart-window coverage of the disk image
# ---------------------------------------------------------------------------


def window_spot_checks(fam: Family) -> SpotLoop:
    """|unit| < 1 at 64 exact points of |lam| = 2, unit the power-ratio
    quotient eps^(2n-1) prod_j P_j^(n-j), decided on ball brackets of the
    factors."""
    n = fam.n
    factors = side_factors(cone_sides(fam, n - 1)[1], Fraction(2))
    polys = tuple(fam.Pk(j) for j in range(1, n))
    return spot_loop(
        polys, (Fraction(2),), 64, lambda values: values.lt(factors, ())
    )


def image_in_chart_window(
    fam: Family,
    corollary: CorollaryReport,
    identities: CheckReport,
    factors: _Factors,
    *,
    samples: int = 64,
    seed: int = 0,
    tally: Optional[Counter] = None,
    images: Optional[Counter] = None,
) -> Certificate:
    """Certify that the disk image stays below chart index n.

    The power-ratio identity of ``identities``, f2^n = f1 * unit, makes the
    second component to the n-th power exactly divisible by the first; the
    quotient h = unit = eps^(2n-1) prod_j P_j^(n-j) satisfies |h| < 1 on
    1 <= |lam| <= 2 because the |f2| envelope is below both 1 and the |f1|
    lower envelope, and a polynomial bounded by 1 on the outer circle is
    bounded by 1 on the closed disk.  Away from the common zero set this
    gives |f2|^n < |f1|, which defeats the membership inequality
    |f1| < r|f2|^k of every chart of index k >= n.  Only where those two
    envelope inequalities are not proved for ``fam`` (``_envelopes_proved``)
    is |h| < 1 tested, at the 64 exact outer-circle points of
    ``window_spot_checks`` (``tally`` counts them and their exact
    fallbacks).  Sampled disk points always test that the computed chart
    cover is nonempty with all indices < n.  The identity is proved once
    per family, in ``identities``, and the quotient stays in product form.
    The sampled images are bracketed through ``factors``, the family's
    factor map (``_image_factors``).  The disk points come from the
    sampler's ``disk_grid``.  A draw whose |lam|^2 pair (``_rung_key`` of
    x^2 + y^2 over the fixed squared denominator) an earlier draw of
    this call decided on the recursion exponents alone, not vanishing and
    covered below index n, reuses that cover (``reused``) and builds no
    image; a refutation is always rendered from its own point.  ``images``
    counts the sampled image points (``_IMAGE_COUNTS``).
    """
    n = fam.n
    if not identities.passed("power-ratio"):
        return Certificate(
            "image-in-chart-window",
            Status.REFUTED,
            "the n-th power of the second component is not divisible by the first",
        )
    unit = cone_sides(fam, n - 1)[1]
    quotient_degree = sum(fam.Pk(j).degree * e for j, e in unit[2])
    proved = _envelopes_proved(
        fam, corollary, identities, "f2-upper-below-one", "f2-upper-vs-f1-lower"
    )

    boundary_checked = 0
    if not proved:
        loop = _booked(window_spot_checks(fam), tally)
        boundary_checked = loop.points
        if loop.witness is not None:
            return Certificate(
                "image-in-chart-window",
                Status.REFUTED,
                "the power-ratio quotient reaches modulus 1 on the outer circle",
                {"witness": loop.witness.to_json()},
            )

    images = Counter() if images is None else images
    grid = RationalSampler("chart-window", fam.n, samples, seed).disk_grid()
    # one index beyond n suffices for the scan: membership at any k >= n
    # would already contradict |f2|^n < |f1| (and |f2| < 1) shown above
    k_max = n + 1
    # lam = 2 (x + i y)/2^16 = (x + i y)/2^15, so |lam|^2 = (x^2 + y^2)/2^30
    den, den2 = 1 << GRID_BITS - 1, 1 << 2 * GRID_BITS - 2
    accepted = attempts = reused = 0
    # the cover of each |lam|^2 pair that an image decided on the recursion
    # exponents alone, not vanishing and not refuting
    reuse: dict = {}
    try:
        while accepted < samples and attempts < 40 * samples:
            attempts += 1
            x, y, s = next(grid)
            key = _rung_key(s, den2)
            if key in reuse:
                reused += 1
                accepted += 1
                continue
            img = _Image(fam, x, y, den, factors, den2, key)
            skipped = img.vanishes(2)  # exact exclusion of the common zero set
            if not skipped:
                in_region, indices = _cover_indices_scaled(img, k_max)
            _book_image(images, img)
            if skipped:
                continue
            if not in_region or not indices or max(indices) > n - 1:
                return Certificate(
                    "image-in-chart-window",
                    Status.REFUTED,
                    "a sampled image point is not covered by the charts below index n",
                    _sample_witness(img, k_max),
                )
            if key is not None and not img.refined:
                reuse[key] = in_region, indices
            accepted += 1
    finally:
        images["points"] += attempts
        images["reused"] += reused

    data = {
        "quotient_degree": quotient_degree,
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
    if not proved:
        return Certificate(
            "image-in-chart-window",
            Status.INCONCLUSIVE,
            "divisibility and samples pass but the envelope chain is not proved",
            data,
        )
    return Certificate(
        "image-in-chart-window",
        Status.PROVED,
        f"exact divisibility with quotient of degree {quotient_degree}; "
        f"quotient modulus < 1 on the disk; {accepted} sampled covers verified",
        data,
    )


# ---------------------------------------------------------------------------
# Deep-scale sampling of the per-chart approach regions
# ---------------------------------------------------------------------------


_ENTRY_CAP = 16384  # deepest decimal scale the entry probe tries


def _threshold(holds: Callable[[int], bool]) -> Optional[int]:
    """A scale e in 1.._ENTRY_CAP where ``holds`` switches to true: holds(e)
    and, unless e = 1, not holds(e - 1); None if no doubling probe holds.

    A doubling probe finds a scale that holds, and bisection against the
    last one that failed locates the switch.
    """
    probe = 1
    while probe <= _ENTRY_CAP:
        if holds(probe):
            break
        probe *= 2
    else:
        return None
    lo, hi = probe // 2, probe  # fails at lo (or lo == 0), holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _entry_model(fam: Family, k: int) -> Optional[int]:
    """The entry scale of chart k that decimal valuations predict, or None
    where eps is not a power of ten 10^-L.

    At lam = 10^-e write v(x) = -log10 |x|.  Each factor P_j = eps^(c_j) -
    Q_j, Q_j = lam^(n-j) prod_{i>j} P_i^(i-j), is taken as its larger term,
    v(P_j) = min(c_j L, v(Q_j)), by the S/Q recursion that
    ``bounds.recursion_exponents`` runs on powers of two; the product forms
    then give v(f1) = L + n e + sum_j j v(P_j) and v(f2) = 2L + e + sum_j
    v(P_j).  A scale is a member, |f1| < r |f2|^k, in the model where
    r 10^(v(f1) - k v(f2)) > 1.  Near a root the larger term is no bound,
    so the prediction is only a candidate, which ``_entry_scale`` probes.
    """
    p = fam.params
    n, eps, c = p.n, p.eps, p.c
    L = _digits10(eps.denominator) - 1
    if eps.numerator != 1 or eps.denominator != 10**L:
        return None
    margin = 1  # the least integer t with r 10^t > 1
    while p.r * 10**margin <= 1:
        margin += 1

    def member(e: int) -> bool:
        s = q = e
        v1, v2 = L + n * e, 2 * L + e
        for j in range(n - 1, 0, -1):
            v = min(c[j - 1] * L, q)
            v1, v2 = v1 + j * v, v2 + v
            s += v
            q += s
        return v1 - k * v2 >= margin

    return _threshold(member)


def _entry_scale(fam: Family, k: int, tally: Counter, factors: _Factors) -> Optional[int]:
    """Smallest decimal scale e with 10^-e inside the approach region of chart k.

    ``_entry_model`` predicts it, and two probes confirm it: 10^-e is a
    member and, unless e = 1, 10^-(e-1) is not.  Where they do not, a
    doubling probe finds a member and bisection against the last failing
    probe locates an entry threshold (deep enough scales are always
    members: the components' vanishing orders at 0 differ).  No probe goes
    deeper than ``_ENTRY_CAP`` digits: beyond it the scale is None, which
    the certificate reports as inconclusive.  Sampling does not rely on
    membership between two probes: every sampled point is tested for
    membership exactly before use.  ``tally`` counts the probe images,
    bracketed through ``factors``.
    """
    tests = (_chart_tests(fam, factors, k)[3],)

    def member(e: int) -> bool:
        img = _Image(fam, 1, 0, 10**e, factors)
        verdict = _holds(img, tests)
        tally["points"] += 1
        _book_image(tally, img)
        return verdict

    model = _entry_model(fam, k)
    if model is not None and member(model) and (model == 1 or not member(model - 1)):
        return model
    return _threshold(member)


_GRID = 8  # magnitude grid of the ladder: |w| in [1/2, 1) with 2^8 resolution


def _ladder_denominators(entry: int) -> tuple:
    """The six denominators 2^8 10^e of the ladder, e = entry .. entry + 5."""
    return tuple((2**_GRID) * 10**e for e in range(entry, entry + 6))


def _approach_candidates(fam: Family, k: int, samples: int, seed: int):
    """The deterministic candidate draws ``(a, b, s, step)`` of chart k's ladder.

    Each is lam = (a + i b)/den with s = a^2 + b^2 in [2^14, 2^16), so
    |a + i b| in [2^7, 2^8), and den = 2^8 10^(entry + step), step in 0..5
    (``_ladder_denominators``); at most 40 draws per wanted sample are made,
    from the sampler's ``randints``.
    """
    sampler = RationalSampler("cone-region", fam.n, k, samples, seed)
    coords, steps = sampler.randints(-(2**_GRID), 2**_GRID), sampler.randints(0, 5)
    lo, hi = 2 ** (2 * _GRID - 2), 2 ** (2 * _GRID)
    for _ in range(40 * samples):
        a, b = next(coords), next(coords)
        s = a * a + b * b
        if lo <= s < hi:
            yield a, b, s, next(steps)


def chart_cone_certificate(
    fam: Family,
    k: int,
    root_certs: dict[int, RootLocalization],
    identities: CheckReport,
    divisions: Sequence[DivisionWitness],
    factors: _Factors,
    *,
    samples: int = 256,
    seed: int = 0,
    tally: Counter,
) -> Certificate:
    """Certify the cone inequality of chart k on its approach region, k >= 1.

    Three layers:

    * the algebraic factorization certificate for ``f2^(k+1) - f1`` (identity,
      divisibility by the next factor, nonvanishing cofactor via a
      root-product dominance),
    * the scalar boundary reduction ``r^2 <= (rho/2)(r - r^2)``, and
    * exact validation of ``|f1|^2 <= (rho/2) |f2^(k+1) - f1| |f2|^k`` (in
      squared form) at ``samples`` deterministic points of the approach
      region ``|f1| < r |f2|^k``, reached through a deep-scale ladder.

    The halved opening parameter leaves a factor-two margin, so every
    validated point satisfies the open cone condition at ``rho`` strictly
    whenever the right-hand side is nonzero.  ``tally`` counts the ladder's
    image points and exact fallbacks.  The entry probe and the ladder
    bracket their images through ``factors``, the family's factor map
    (``_image_factors``).  A ladder point whose |lam|^2 pair
    (``_rung_key`` of the candidate's a^2 + b^2 over its squared
    denominator, ``_approach_candidates``) an earlier point of this chart
    decided on the recursion exponents alone, outside the approach region
    or passing every test of the same sequence, reuses that failing index
    (``reused``) and builds no image; the ladder's six denominators and
    their squares are computed once per chart, and an image is handed its
    square and its pair.
    """
    n = fam.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"chart index must be in 1..{n - 1}")
    divisions_ok = all(w.status is Status.PROVED for w in divisions)

    core = cone_factor_certificate(fam, k, root_certs, identities, divisions)

    r, rho = fam.params.r, fam.params.rho
    scalar_ok = r * r <= (rho / 2) * (r - r * r)

    entry = _entry_scale(fam, k, tally, factors)
    data: dict = {"chart": k, "seed": seed, "entry_scale": entry, "core": core.to_json()}
    if entry is None:
        return Certificate(
            "chart-cone",
            Status.INCONCLUSIVE,
            f"no entry scale found for the approach region of chart {k}",
            data,
        )

    accepted = 0
    full_membership_checks = 0
    _, _, _, member, entry_test, halved = _chart_tests(fam, factors, k)
    # the first 32 accepted points also get the other half of chart
    # membership, |f2|^(k+2) < r^2 |f1| (the approach-region test is the
    # first half)
    checked, unchecked = (member, halved, entry_test), (member, halved)
    dens = _ladder_denominators(entry)
    squares = tuple(den * den for den in dens)
    # the failing index of each (full, |lam|^2 pair) that an image decided
    # on the recursion exponents alone, not refuting
    reuse: dict = {}
    points = reused = 0
    try:
        for a, b, s, step in _approach_candidates(fam, k, samples, seed):
            full = full_membership_checks < 32
            pair = _rung_key(s, squares[step])
            key = full, pair
            points += 1
            failed = reuse.get(key)
            if failed is None:
                img = _Image(fam, a, b, dens[step], factors, squares[step], pair)
                tests = checked if full else unchecked
                failed = img.first_failing(tests)
                _book_image(tally, img)
                if pair is not None and not img.refined and failed in (0, len(tests)):
                    reuse[key] = failed
            else:
                reused += 1
            if failed == 0:
                continue
            if failed == 1:
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
                            "den_log10": entry + step,
                            "den_pow2": _GRID,
                        },
                    },
                )
            if full:
                full_membership_checks += 1
                if failed == 2:
                    return Certificate(
                        "chart-cone",
                        Status.REFUTED,
                        f"a sampled approach-region point is not in chart {k}",
                        {
                            **data,
                            "witness": {"num_re": a, "num_im": b, "den_log10": entry + step},
                        },
                    )
            accepted += 1
            if accepted == samples:
                break
    finally:
        tally["points"] += points
        tally["reused"] += reused

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


def base_spot_checks(fam: Family, *, samples: int = 256) -> SpotLoop:
    """|f1|^4 <= (rho/2)^2 |f2 - f1|^2 at ``samples`` exact points of |lam| = 2."""
    half_rho2 = fam.params.squares.half_rho2
    return spot_loop(
        (fam.f1, fam.f2 - fam.f1),
        (Fraction(2),),
        samples,
        lambda values: values.lt((0, 0), (half_rho2, 1), closed=True),
    )


def _common_zero(fam: Family, forms: Optional[ProductForms], z: ComplexRational) -> bool:
    """Whether f1 and f2 both vanish at z.

    ``forms`` are the product forms proved for ``fam`` (``_forms_of``), or
    None.  With them, z = 0 is a zero of the lam factor of both forms, and a
    root of P_(n-1) one of a factor both forms carry (to the powers n - 1
    and 1): one exact evaluation of the linear factor.  A point that
    neither settles, and every point of a family without proved forms,
    evaluates f1 and f2 themselves, so a missing common zero is still
    refuted exactly.
    """
    a, b, den = as_scaled(z)
    if forms is not None and (
        not (a or b) or eval_scaled(fam.Pk(fam.n - 1), a, b, den)[:2] == (0, 0)
    ):
        return True
    return all(eval_scaled(p, a, b, den)[:2] == (0, 0) for p in (fam.f1, fam.f2))


def base_chart_certificate(
    fam: Family,
    corollary: CorollaryReport,
    identities: CheckReport,
    *,
    samples: int = 256,
    tally: Optional[Counter] = None,
) -> Certificate:
    """Certify the cone inequality of the base chart (index 0) on the disk.

    The square of the first component is exactly divisible by the difference
    of the components; the quotient polynomial is bounded by rho/2 on the
    outer circle because of the boundary chain

        |f1|^2 + (rho/2)|f2| <= (rho/2)|f1|  on |lam| = 2,

    so by the maximum principle the bound, and with it the inequality
    ``|f1|^2 <= (rho/2)|f2 - f1|``, holds on the whole closed disk.  Only
    where the boundary chain is not proved for ``fam`` (``_envelopes_proved``)
    is the inequality tested (in squared form) at the ``samples`` exact
    outer-circle points of ``base_spot_checks``; ``tally`` counts them and
    their exact fallbacks.  It is always checked exactly at the degenerate
    points where both components vanish, where it holds as 0 <= 0: lam = 0
    and the root eps^(c_(n-1)) of the last factor.  Where ``identities``
    proved the product forms of ``fam`` itself, both are common zeros by
    those forms (``_common_zero``), and f1 and f2 are not evaluated.
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
    proved = _envelopes_proved(fam, corollary, identities, "outer-boundary-chain")

    checked = 0
    if not proved:
        loop = _booked(base_spot_checks(fam, samples=samples), tally)
        checked = loop.points
        if loop.witness is not None:
            return Certificate(
                "base-chart-cone",
                Status.REFUTED,
                "the halved base-cone inequality fails at an exact boundary point",
                {"witness": loop.witness.to_json()},
            )

    # degenerate points: the disk center and the one rational root of the
    # last factor, where both components vanish and the claim reads 0 <= 0
    degenerate = [
        ComplexRational(Fraction(0), Fraction(0)),
        ComplexRational(fam.params.eps ** fam.params.c[-1], Fraction(0)),
    ]
    forms = _forms_of(fam, identities)
    for z in degenerate:
        if not _common_zero(fam, forms, z):
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
    if not proved:
        return Certificate(
            "base-chart-cone",
            Status.INCONCLUSIVE,
            "boundary checks pass but the envelope chain is not proved",
            data,
        )
    return Certificate(
        "base-chart-cone",
        Status.PROVED,
        f"exact divisibility, proved boundary chain and {len(degenerate)} "
        f"degenerate points validated",
        data,
    )


# the denominators 10^e 2^15 of the witness draws, e = 0 .. 12 (every other
# draw takes e = 0), each with its square
_WITNESS_DENS = tuple((den, den * den) for den in (10**e << GRID_BITS - 1 for e in range(13)))


def cone_window_witness(
    fam: Family,
    factors: _Factors,
    *,
    samples: int = 2000,
    seed: int = 0,
    tally: Optional[Counter] = None,
) -> Certificate:
    """Sampled witness that image points sit in a chart with its cone open.

    Draws deterministic dyadic points of the open disk of radius 2 (every
    other one scaled by 10^-e, e uniform in 0..12, to exercise small-modulus
    bands), discards the common zero set by the exact test f2(lam) = 0, and
    for every remaining point requires some chart of index below n to contain
    the image point with its open cone condition holding at the family's rho.
    The absence of chart memberships at indices n and above is not re-sampled
    here: the divisibility window certificate proves it for the whole disk.
    The images are bracketed through ``factors``, the family's factor map
    (``_image_factors``).  The points come from the sampler's
    ``disk_grid`` and the scale indices from its ``randints(0, 12)``.  A
    draw whose |lam|^2 pair (``_rung_key`` of x^2 + y^2 over the squared
    denominator, from ``_WITNESS_DENS``) an earlier draw of this
    call decided on the recursion exponents alone, in the region with an
    open cone, reuses that cone index (``reused``) and builds no image; a
    refutation is always rendered from its own point.  ``tally`` counts the
    drawn image points and their exact fallbacks (``_IMAGE_COUNTS``).
    """
    n = fam.n
    tally = Counter() if tally is None else tally
    sampler = RationalSampler("cone-window", fam.n, samples, seed)
    grid, scales = sampler.disk_grid(), sampler.randints(0, 12)
    accepted = attempts = reused = 0
    index_counts = {k: 0 for k in range(n)}
    # the cone index of each |lam|^2 pair that an image decided on the
    # recursion exponents alone
    reuse: dict = {}
    try:
        while accepted < samples and attempts < 40 * samples:
            attempts += 1
            x, y, s = next(grid)
            # lam = 2 (x + i y)/(10^e 2^16) = (x + i y)/den, so |lam|^2 =
            # (x^2 + y^2)/den^2
            den, den2 = _WITNESS_DENS[next(scales) if attempts % 2 == 0 else 0]
            key = _rung_key(s, den2)
            cone_index = reuse.get(key)
            if cone_index is not None:
                reused += 1
                index_counts[cone_index] += 1
                accepted += 1
                continue
            img = _Image(fam, x, y, den, factors, den2, key)
            skipped = img.vanishes(2)
            if not skipped:
                in_region, cone_index = _first_open_cone_scaled(img, n)
            _book_image(tally, img)
            if skipped:
                continue
            if not in_region or cone_index is None:
                return Certificate(
                    "cone-window-witness",
                    Status.REFUTED,
                    "a sampled image point has no covering chart with an open cone",
                    _sample_witness(img, n + 1),
                )
            if key is not None and not img.refined:
                reuse[key] = cone_index
            index_counts[cone_index] += 1
            accepted += 1
    finally:
        tally["points"] += attempts
        tally["reused"] += reused
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
# Vanishing orders and the boundary sup metric
# ---------------------------------------------------------------------------


def vanishing_orders(fam: Family) -> tuple[int, int]:
    """Orders of vanishing of the two components at the disk center.

    For a sound build these are (n, 1): the first component vanishes to
    order n, the second to order 1, and their difference counts the chart
    transitions the image performs approaching the center.
    """
    return fam.trailing_order("f1"), fam.trailing_order("f2")


def _unit_circle_witness(cert: Certificate) -> Optional[dict]:
    """The witness of a refuted target certificate, if it lies on |lam| = 1."""
    if cert.status is not Status.REFUTED:
        return None
    witness = (cert.data or {}).get("witness")
    if witness is None or ComplexRational.from_json(witness["point"]).abs2() != 1:
        return None
    return witness


def _sup_metric_certificate(n: int, target: Certificate) -> Certificate:
    """Condition iii: the boundary sup metric of the family of size ``n`` is
    at most 1/n on |lam| = 1.

    The metric at a point is max(|f1|, |f2|, |f2/f1|).  Nothing is
    evaluated: the bound follows from ``target``, the family's target
    certificate (``annulus_into_target``).

    * Proved target containment puts the unit circle, with the whole closed
      annulus, in the region |f1| <= 1/n, |f2| <= 1/n, |f2| <= |f1|/n, and
      its |f1| lower envelope is positive there, so f1 does not vanish and
      the metric is at most 1/n (squared: 1/n^2).  As n grows the bounds
      tend to 0, which is the uniform convergence.
    * A refutation with a witness on the unit circle refutes the bound at
      that point: outside the region, |f1| or |f2| exceeds 1/n, or |f2|
      exceeds |f1|/n (with f1 = 0 and f2 != 0 the quotient is unbounded).
    * Any other verdict (a witness on |lam| = 2, an envelope refutation)
      leaves the bound inconclusive.
    """
    witness = _unit_circle_witness(target)
    if witness is not None:
        status = Status.REFUTED
        detail = f"the image leaves the target region on the unit circle for n in [{n}]"
    elif target.status is Status.PROVED:
        status = Status.PROVED
        detail = "sup metric at most 1/n on the unit circle, from proved target containment"
    else:
        status = Status.INCONCLUSIVE
        detail = f"target containment is not proved for n in [{n}]"
    entry = {
        "n": n,
        "status": status.value,
        "bound_squared": format_rational(Fraction(1, n * n)),
    }
    if witness is not None:
        entry["witness"] = witness
    return Certificate("boundary-sup-metric", status, detail, {"entry": entry})


# ---------------------------------------------------------------------------
# The per-family end-to-end trace
# ---------------------------------------------------------------------------


class TraceReport:
    """The four per-family conditions, each with its own certificate.

    * ``condition_i``: the disk image lies in the union of chart cones below
      index n (divisibility window, per-chart cone certificates, base chart,
      combined sampled witness).
    * ``condition_ii``: the annulus image lies in the shrinking target region.
    * ``condition_iii``: the boundary sup metric on the unit circle is at
      most 1/n (squared: 1/n^2), derived from ``condition_ii`` by
      ``_sup_metric_certificate``, not sampled.
    * ``condition_iv``: the vanishing-order pair (n, 1); ``escape_index`` is
      their gap and equals n - 1 exactly when the pair is as expected.

    ``ladder`` counts the deep-scale image points of the chart-cone ladders
    (``points``), those whose exact triples a predicate needed
    (``exact_fallbacks``), those that formed a 192-bit product
    (``products``) and the atoms that ``bounds.abs2_atoms`` evaluated
    exactly because their ball reached 0 (``zero_atoms``) and the points
    whose atoms were computed at all (``refined``: where the recursion
    exponents left a test open or gave up, or every point without them) and
    those that reused the outcome of an earlier point with the same |lam|^2
    pair, decided on the recursion exponents alone (``reused``),
    ``witness`` the same six counts for the cone-window witness and
    ``window`` for the chart window's sampled points;
    ``boundary`` holds, for each exact-circle-point loop of the
    trace (``target``, ``window`` and ``base``), its ``points`` and as
    ``exact_fallbacks`` those where a comparison's brackets overlapped and
    exact integers decided, all 0 for a loop that did not run because its
    certificate was proved without it.  They describe the work, not the verdict, and are not part
    of ``to_json``.
    """

    __slots__ = (
        "n", "condition_i", "condition_ii", "condition_iii", "condition_iv",
        "escape_index", "seed", "status", "detail",
        "ladder", "witness", "window", "boundary",
    )

    def __init__(
        self,
        n: int,
        condition_i: Certificate,
        condition_ii: Certificate,
        condition_iii: Certificate,
        condition_iv: Certificate,
        escape_index: int,
        seed: int,
        status: Status,
        detail: str,
        *,
        ladder: dict,
        witness: dict,
        window: dict,
        boundary: dict,
    ):
        self.n, self.escape_index, self.seed = n, escape_index, seed
        self.condition_i, self.condition_ii = condition_i, condition_ii
        self.condition_iii, self.condition_iv = condition_iii, condition_iv
        self.status, self.detail = status, detail
        self.ladder, self.witness, self.window, self.boundary = ladder, witness, window, boundary

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
            "escape_index": self.escape_index,
            "seed": self.seed,
            "status": self.status.value,
            "detail": self.detail,
        }


# the exact-circle-point loops of a trace, in the order they run where
# their certificates need them
_BOUNDARY_LOOPS = ("target", "window", "base")
_WORK_COUNTS = ("points", "exact_fallbacks")
# an image point also books whether it formed a 192-bit product, how many
# of its ball atoms reached 0 and were evaluated exactly, and whether its
# atoms were computed (where the recursion exponents left a test open, or
# without them), all four by ``_book_image``; a point of a sampled loop also
# books whether it reused the outcome of an earlier point with its |lam|^2
# pair (``_rung_key``)
_IMAGE_COUNTS = (*_WORK_COUNTS, "products", "zero_atoms", "refined", "reused")

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
    samples: int = 2048,
    seed: int = 0,
) -> TraceReport:
    """The four per-family conditions, built on the family's certified stages.

    ``root_certs``, ``corollary``, ``identities`` and ``divisions`` are the
    root localizations, envelope chains, exact identities and division
    witnesses of ``fam``; the caller computes each of them once and the
    conditions here only read them.  The aggregate status is the worst of
    the four condition statuses.  The factor map of the family's images
    (``_image_factors``) is built here, once, and every stage that
    brackets image points reads it.

    ``samples`` is the cone-window witness's sample count, and every other
    sample plan derives from it: the chart window takes
    max(16, samples // 32) points, each chart-cone ladder max(16,
    samples // 8) and the base chart's boundary loop max(256, samples // 8);
    the target loop always takes 64 points per circle.
    """
    n = fam.n
    factors = _image_factors(fam, identities, root_certs)
    tally: Counter = Counter()
    boundary = {loop: Counter() for loop in _BOUNDARY_LOOPS}
    window_tally: Counter = Counter()
    condition_ii = annulus_into_target(fam, corollary, identities, tally=boundary["target"])
    window = image_in_chart_window(
        fam,
        corollary,
        identities,
        factors,
        samples=max(16, samples // 32),
        seed=seed,
        tally=boundary["window"],
        images=window_tally,
    )
    cones = [
        chart_cone_certificate(
            fam,
            k,
            root_certs,
            identities,
            divisions,
            factors,
            samples=max(16, samples // 8),
            seed=seed,
            tally=tally,
        )
        for k in range(1, n)
    ]
    base = base_chart_certificate(
        fam,
        corollary,
        identities,
        samples=max(256, samples // 8),
        tally=boundary["base"],
    )
    witness_tally: Counter = Counter()
    witness = cone_window_witness(fam, factors, samples=samples, seed=seed, tally=witness_tally)
    condition_i = _combine(
        "disk-into-chart-cones", [window, base, *cones, witness]
    )

    condition_iii = _sup_metric_certificate(n, condition_ii)

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
        escape_index=escape,
        seed=seed,
        status=status,
        detail=_TRACE_DETAIL[status],
        ladder={key: tally[key] for key in _IMAGE_COUNTS},
        witness={key: witness_tally[key] for key in _IMAGE_COUNTS},
        window={key: window_tally[key] for key in _IMAGE_COUNTS},
        boundary={
            loop: {key: counts[key] for key in _WORK_COUNTS}
            for loop, counts in boundary.items()
        },
    )
