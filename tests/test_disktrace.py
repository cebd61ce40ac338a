"""Tests for the per-size disk verification pipeline.

Reference values (quotient polynomials, vanishing orders, escape indices,
chart index sets at named points) were computed with independent sympy
oracles before being frozen here.  The scaled fast-path predicates are
cross-validated against the reference Fraction implementations.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noricert.arith import (
    ComplexRational,
    Poly,
    as_scaled,
    coefficient_ball,
    eval_scaled,
    scaled_abs2,
    scaled_to_complex,
)
from noricert.atlas import ChartPoint, chart_cover_indices
from noricert.certify import (
    CorollaryReport,
    SpotLoop,
    Status,
    _forms_of,
    _side_poly,
    annulus_bounds_certificate,
    annulus_spot_checks,
    circle_points,
    circle_triples,
    cone_sides,
    corollary_ineq_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
)
from noricert.disktrace import (
    Certificate,
    TargetRegion,
    annulus_into_target,
    base_chart_certificate,
    base_spot_checks,
    chart_cone_certificate,
    cone_window_witness,
    image_in_chart_window,
    target_spot_checks,
    trace_family,
    vanishing_orders,
    window_spot_checks,
)
from noricert.bounds import (
    Values,
    _exponents,
    bracket_lt,
    exact_atom,
    exact_atoms,
    exact_lt,
    gap_bracket,
    log2_bounds,
    log16_bounds,
    ratio_bracket,
    recursion_exponents,
)
from noricert.disktrace import (
    _FACTOR_IDENTITIES,
    _Image,
    _approach_candidates,
    _book_image,
    _chart_tests,
    _common_zero,
    _compile_net,
    _compile_test,
    _cover_indices_scaled,
    _entry_model,
    _entry_scale,
    _first_open_cone_scaled,
    _image_factors,
    _in_cover_region,
    _ladder_denominators,
    _rung_key,
    _sup_metric_certificate,
)
import noricert.bounds as bounds
import noricert.disktrace as disktrace
from noricert.cli import RunConfig, run_verify
from noricert.sampling import RationalSampler
from atlas_reference import cone_condition, dyadic_in_disk
from conftest import SIZES, exact_sup, retouched
from noricert.family import (
    CheckReport,
    CheckResult,
    Family,
    FamilyParams,
    build_family,
    recursion_sides,
)

F = Fraction

# a coefficient of 476 bits: a polynomial with it is above the size bound of
# exact atoms (2 * 192 bits), so its atoms are ball brackets
TINY = F(1, 3**300)


class TestTargetRegion:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TargetRegion(0)

    def test_contains_closed_boundary(self):
        box = TargetRegion(2)
        assert box.bound == F(1, 2)
        zero = ComplexRational.of(0)
        assert box.contains(zero, zero)
        # |z1| = 1/2 with z2 = 0 sits on the closed boundary
        assert box.contains(ComplexRational.of(F(1, 2)), zero)
        assert not box.contains(ComplexRational.of(F(1, 2) + F(1, 100)), zero)

    def test_slope_constraint(self):
        # |z2| <= (1/n)|z1| rejects points with z2 too large relative to z1
        box = TargetRegion(2)
        quarter = ComplexRational.of(F(1, 4))
        assert not box.contains(quarter, quarter)
        assert box.contains(quarter, ComplexRational.of(F(1, 8)))

    def test_contains_scaled_agrees(self):
        # the bracketed predicate at (z1, z2) = (lam, c0 + c1 lam) against the
        # Fraction one, with points on all three closed boundaries: |lam| =
        # 1/3 at (3 + 4i)/15, and |z2| = |z1|/3 for z2 = lam/3 and -lam/3
        rng = random.Random(20)
        box = TargetRegion(3)
        cases = [((3, 4, 15), F(0), F(1, 3)), ((3, 4, 15), F(0), F(-1, 3))]
        cases += [((4, -3, 15), F(1, 3), F(0)), ((0, 5, 15), F(0), F(1, 3))]
        for _ in range(300):
            lam = (rng.randrange(-40, 41), rng.randrange(-40, 41), rng.choice([60, 100, 120]))
            cases.append((lam, F(rng.randrange(-9, 10), 60), F(rng.randrange(-9, 10), 12)))
        on_boundary = 0
        for (re1, im1, den), c0, c1 in cases:
            z1 = ComplexRational(F(re1, den), F(im1, den))
            z2 = c0 + c1 * z1
            values = Values((Poly.x(), Poly((c0, c1))), re1, im1, den)
            assert box.contains_values(values) == box.contains(z1, z2)
            a1, a2 = z1.abs2(), z2.abs2()
            on_boundary += 9 * a1 == 1 or 9 * a2 == 1 or 9 * a2 == a1
        assert on_boundary >= 4


def _lt(img, coeffs, square=None, *, closed=False, k=0):
    """Exact prod_i q_i^coeffs[i] < c (``<=`` when ``closed``) at ``img``,
    q = (|f1|^2, |f2|^2, |f2^(k+1) - f1|^2) and c the chart square
    ``square`` (1 when None): ``first_failing`` on the one compiled test."""
    test = _compile_test(img.fam, img.factors, coeffs, square, closed=closed, k=k)
    return img.first_failing((test,)) == 1


def _image_and_reference(fam, a, b, den):
    """The scaled image point of (a + ib)/den and its Fraction ChartPoint."""
    img = _Image(fam, a, b, den, _image_factors(fam))
    lam = ComplexRational(F(a, den), F(b, den))
    return img, ChartPoint(fam.f1(lam), fam.f2(lam))


def _raw_atoms(img):
    """The point atoms of ``img`` as ``bounds.abs2_atoms`` built them: an
    exact integer pair (num, den) or a ball bracket; refines first."""
    if not img.refined:
        img._refine()
    return img._raw


_PREDICATES = ("region", "member", "entry", "cone", "halved")


def _predicate(name, img, k):
    """One chart-k predicate of the scaled path at ``img``: the cover region,
    or a net power vector over (|f1|^2, |f2|^2, |f2^(k+1) - f1|^2) against
    a chart square; the halved cone is the closed one at rho/2."""
    if name == "region":
        return _in_cover_region(img)
    coeffs, square = {
        "member": ((1, -k), "r2"),
        "entry": ((-1, k + 2), "r2"),
        "cone": ((2, -k, -1), "rho2"),
        "halved": ((2, -k, -1), "half_rho2"),
    }[name]
    return _lt(img, coeffs, square, closed=name == "halved", k=k)


def _assert_chart_predicates_match(fam, img, p, k):
    """The chart-k predicates equal their Fraction references at one point;
    the halved cone is the closed inequality at rho/2."""
    r, rho = fam.params.r, fam.params.rho
    a1, a2 = p.z1.abs2(), p.z2.abs2()
    assert _predicate("entry", img, k) == (a2 ** (k + 2) < r**2 * a1)
    assert _predicate("member", img, k) == (a1 < r**2 * a2**k)
    assert _predicate("cone", img, k) == cone_condition(p, k, rho)
    gap = (p.z2 ** (k + 1) - p.z1).abs2()
    assert _predicate("halved", img, k) == (a1 * a1 <= (rho / 2) ** 2 * gap * a2**k)


class TestScaledPredicates:
    """Fast-path chart predicates agree with the Fraction reference."""

    def test_against_atlas_reference(self, built_families):
        fam = built_families[3]
        rng = random.Random(11)
        checked = 0
        for _ in range(250):
            a, b = rng.randrange(-300, 301), rng.randrange(-300, 301)
            if a == 0 and b == 0:
                continue
            den = rng.choice([64, 100, 1024, 10**4, 10**7])
            img, p = _image_and_reference(fam, a, b, den)
            ref = chart_cover_indices(p, fam.params.r, 4)
            in_region, indices = _cover_indices_scaled(img, 4)
            assert in_region == ref.in_region
            if ref.in_region:
                assert indices == ref.indices
            for k in range(4):
                _assert_chart_predicates_match(fam, img, p, k)
            checked += 1
        assert checked >= 200

    def test_deep_scales_against_atlas_reference(self, built_families):
        # the approach regions of charts 1..3 at n = 4 open at 11, 111 and
        # 914 digits; there the modulus gap is wide and gap_bracket decides
        fam = built_families[4]
        rng = random.Random(13)
        for k in range(1, 4):
            entry = _entry_scale(fam, k, Counter(), _image_factors(fam))
            for _ in range(2):
                a, b = rng.randrange(128, 256), rng.randrange(-255, 256)
                den = 2**8 * 10 ** (entry + rng.randrange(0, 6))
                img, p = _image_and_reference(fam, a, b, den)
                assert gap_bracket(img.a1, img.a2, k) is not None
                _assert_chart_predicates_match(fam, img, p, k)

    def test_first_open_cone_matches_ladder(self, built_families):
        fam = built_families[2]
        rng = random.Random(12)
        for _ in range(150):
            a, b = rng.randrange(-200, 201), rng.randrange(-200, 201)
            if a == 0 and b == 0:
                continue
            den = rng.choice([128, 1000, 10**5])
            img = _Image(fam, a, b, den, _image_factors(fam))
            in_region, first = _first_open_cone_scaled(img, fam.n)
            lam = ComplexRational(F(a, den), F(b, den))
            p = ChartPoint(fam.f1(lam), fam.f2(lam))
            ref = chart_cover_indices(p, fam.params.r, fam.n - 1)
            assert in_region == ref.in_region
            if in_region:
                expected = next(
                    (
                        k
                        for k in ref.indices
                        if cone_condition(p, k, fam.params.rho)
                    ),
                    None,
                )
                assert first == expected


def _product_bracket(pairs, bits):
    """(lo, hi, shift) with lo 2^shift <= prod x^e < hi 2^shift over ``pairs``
    of nonnegative integers x and exponents e >= 1, from the top ``bits``
    bits m of each x: m 2^s <= x < (m + 1) 2^s (0 <= 0 < 1 for x = 0).  With
    bits = 1 that is the bit length b of x > 0, 2^(b-1) <= x < 2^b."""
    lo = hi = 1
    shift = 0
    for x, e in pairs:
        s = max(x.bit_length() - bits, 0)
        m = x >> s
        lo, hi, shift = lo * m**e, hi * (m + 1) ** e, shift + e * s
    return lo, hi, shift


def _shifted_le(a, p, b, q):
    """a 2^p <= b 2^q for nonnegative integers."""
    return a << (p - q) <= b if p >= q else a <= b << (q - p)


def _product_lt(left, right, closed=False):
    """prod x^e over ``left`` < (``<=`` if closed) the same over ``right``.

    Both are lists of pairs (x, e), x a nonnegative integer and e >= 1.
    Decided on bit-length sums first, then on the top 64 bits of each x
    (``_product_bracket``); the products are formed only where those
    brackets overlap.
    """
    for bits in (1, 64):
        lo_l, hi_l, s_l = _product_bracket(left, bits)
        lo_r, hi_r, s_r = _product_bracket(right, bits)
        if _shifted_le(hi_l, s_l, lo_r, s_r):
            return True
        if _shifted_le(hi_r, s_r, lo_l, s_l):
            return False
    lhs = math.prod(x**e for x, e in left)
    rhs = math.prod(x**e for x, e in right)
    return lhs <= rhs if closed else lhs < rhs


def _exact_chart_verdicts(fam, k, a, b, den):
    """Chart-k membership, entry and closed halved cone at (a + ib)/den, by
    integer cross-multiplication of the exact ``eval_scaled`` triples,
    decided on bit lengths first (``_product_lt``)."""
    re1, im1, d1 = v1 = eval_scaled(fam.f1, a, b, den)
    re2, im2, d2 = v2 = eval_scaled(fam.f2, a, b, den)
    p_re, p_im, p_den = v2
    for _ in range(k):  # f2^(k+1)
        p_re, p_im, p_den = p_re * re2 - p_im * im2, p_re * im2 + p_im * re2, p_den * d2
    gap = (p_re * d1 - re1 * p_den, p_im * d1 - im1 * p_den, p_den * d1)
    (n1, q1), (n2, q2), (ng, qg) = (scaled_abs2(v) for v in (v1, v2, gap))
    r2, h2 = fam.params.r**2, (fam.params.rho / 2) ** 2
    rn, rd, hn, hd = r2.numerator, r2.denominator, h2.numerator, h2.denominator
    return (
        _product_lt([(n1, 1), (rd, 1), (q2, k)], [(rn, 1), (n2, k), (q1, 1)]),
        _product_lt([(n2, k + 2), (rd, 1), (q1, 1)], [(rn, 1), (n1, 1), (q2, k + 2)]),
        _product_lt(
            [(n1, 2), (hd, 1), (qg, 1), (q2, k)],
            [(hn, 1), (ng, 1), (n2, k), (q1, 2)],
            closed=True,
        ),
    )


class TestBallImages:
    """Ball-bracketed image points give the verdicts of the exact triples."""

    @pytest.mark.parametrize("n, stride", [(2, 1), (3, 1), (4, 8)])
    def test_ladder_samples_match_exact(self, built_families, n, stride):
        # the candidates of every chart-cone certificate at seed 0 with the
        # 256 samples of the default run; at n = 4 every 8th one
        fam = built_families[n]
        tally = Counter()
        for k in range(1, n):
            entry = _entry_scale(fam, k, tally, _image_factors(fam))
            accepted = 0
            candidates = _ladder_points(fam, k, entry, 256, 0)
            for i, (a, b, den) in enumerate(candidates):
                if accepted == 256:
                    break
                img = _Image(fam, a, b, den, _image_factors(fam))
                member = _predicate("member", img, k)
                accepted += member
                if i % stride:
                    continue
                exact_member, exact_entry, exact_cone = _exact_chart_verdicts(
                    fam, k, a, b, den
                )
                assert member == exact_member
                assert _predicate("entry", img, k) == exact_entry
                if member:
                    assert _predicate("halved", img, k) == exact_cone
            assert accepted == 256

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2**160), st.integers(1, 4)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 2**160), st.integers(1, 4)), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_product_comparison_is_exact(self, left, right, closed):
        lhs = math.prod(x**e for x, e in left)
        rhs = math.prod(x**e for x, e in right)
        assert _product_lt(left, right, closed) == (lhs <= rhs if closed else lhs < rhs)
        # the same products regrouped: a tie, and ties off by one in a factor
        # below the top 64 bits of every bracket
        assert _product_lt(left, left[::-1], closed) == closed
        big = 2**130
        assert _product_lt([(big, 1), *left], [(big + 1, 1), *left], closed) == (
            closed or lhs > 0
        )
        assert _product_lt([(big + 1, 1), *left], [(big, 1), *left], closed) == (
            closed and lhs == 0
        )

    def test_undecided_comparison_reaches_exact_triples(self):
        # |f1| = r |f2| exactly at lam = (3 + 4i)/5 (f1 = lam, f2 = 5,
        # r = 1/5, each plus TINY q with q(lam) = 0, which puts them above
        # the size bound of exact atoms): the ball brackets overlap, and the
        # strict membership is decided false by the exact triples
        params = FamilyParams.build(2)
        assert (params.r, params.rho) == (F(1, 5), F(1, 2))
        q = Poly((25, -30, 25)) * TINY  # vanishes at (3 +- 4i)/5
        fam = SimpleNamespace(f1=Poly.x() + q, f2=Poly.constant(5) + q, params=params)
        assert _image_factors(fam).exact == (False, False)
        img = _Image(fam, 3, 4, 5, _image_factors(fam))
        rn2, rd2, rn2_b, rd2_b, _ = params.squares.r2
        assert (rn2, rd2) == (1, 25)
        assert bracket_lt([img.a1, rd2_b], [rn2_b, img.a2]) is None
        assert not img.evaluated
        assert _lt(img, (1, -1), "r2") is False
        assert img.evaluated
        assert img.v1 == eval_scaled(fam.f1, 3, 4, 5)
        # |f1|^2 = (rho/2) |f2 - f1| with f1 = 1, f2 = 5 at lam = 1 (plus
        # TINY (lam - 1)): the closed halved cone holds with equality, the
        # open cone at rho strictly
        q = Poly((-1, 1)) * TINY
        fam = SimpleNamespace(f1=Poly.one() + q, f2=Poly.constant(5) + q, params=params)
        img = _Image(fam, 1, 0, 1, _image_factors(fam))
        assert _predicate("halved", img, 0) is True
        assert img.evaluated
        assert _predicate("cone", img, 0) is True

    def test_undecided_comparison_of_exact_atoms_reads_no_triples(self):
        # the same ties with f1 = lam, f2 = 5 and f1 = 1, f2 = 5: their atoms
        # are the exact pairs of the integers 1 and 25, whose brackets have
        # width 0, so the products decide the tie
        params = FamilyParams.build(2)
        fam = SimpleNamespace(f1=Poly.x(), f2=Poly.constant(5), params=params)
        assert _image_factors(fam).exact == (True, True)
        img = _Image(fam, 3, 4, 5, _image_factors(fam))
        assert all(exact_atom(a) for a in _raw_atoms(img))
        rn2_b, rd2_b = params.squares.r2[2:4]
        assert bracket_lt([img.a1, rd2_b], [rn2_b, img.a2]) is False
        assert bracket_lt([img.a1, rd2_b], [rn2_b, img.a2], closed=True) is True
        assert _lt(img, (1, -1), "r2") is False
        assert _lt(img, (1, -1), "r2", closed=True) is True
        assert not img.evaluated
        # the gap |f2 - f1|^2 is no product of the atoms |f1|^2 and |f2|^2:
        # its exact stage still reads the triples
        fam = SimpleNamespace(f1=Poly.one(), f2=Poly.constant(5), params=params)
        img = _Image(fam, 1, 0, 1, _image_factors(fam))
        assert _predicate("halved", img, 0) is True
        assert _predicate("cone", img, 0) is True
        assert img.evaluated

    def test_zero_tests_at_a_zero_bracket_read_the_exact_atom(self, built_families):
        # lam = 0 and the rational root eps^c_{n-1} of the last factor are
        # common zeros of f1 and f2 (at n = 3 both above the size bound of
        # exact atoms): their ball brackets reach 0, and the exact atoms that
        # replace them are exact zeros, which settle the zero tests without
        # the triples; elsewhere the lower bracket ends are positive and
        # decide without them
        fam = built_families[3]
        assert _image_factors(fam).exact == (False, False)
        root = fam.params.eps ** fam.params.c[-1]
        for a, den in ((0, 1), (root.numerator, root.denominator)):
            assert bounds.ball_abs2(fam.f1, a, 0, den)[0] == (0, 0)
            img = _Image(fam, a, 0, den, _image_factors(fam))
            assert img.exps == [None, None]
            assert all(exact_atom(x) and x[0] == 0 for x in _raw_atoms(img))
            assert img.a1[0] == img.a2[0] == (0, 0)
            assert img.vanishes(1) and img.vanishes(2)
            assert not _in_cover_region(img)
            assert not img.evaluated
        img = _Image(fam, 3, -2, 4, _image_factors(fam))
        assert not any(exact_atom(x) for x in _raw_atoms(img))
        assert not img.vanishes(1) and not img.vanishes(2)
        assert not img.evaluated
        # lam - 1/3 = 2^-400 is below the ball's resolution: the bracket
        # reaches 0, and the exact atom that replaces it shows the value is
        # not zero (the line times 1 + TINY lam, above the size bound)
        line = Poly((F(-1, 3), 1)) * Poly((1, TINY))
        near = SimpleNamespace(f1=line, f2=line, params=fam.params)
        lam = (2**400 + 3, 0, 3 * 2**400)
        assert bounds.ball_abs2(line, *lam)[0] == (0, 0)
        img = _Image(near, *lam, _image_factors(near))
        assert exact_atom(_raw_atoms(img)[0])
        assert img.a1[0] != (0, 0)
        assert not img.vanishes(1)
        assert not img.evaluated

    def test_zero_tests_of_exact_atoms_read_no_triples(self, built_families):
        # at n = 2 f1 and f2 are small: their atoms at the common zeros are
        # exact zero pairs, and elsewhere exact positive ones
        fam = built_families[2]
        assert _image_factors(fam).exact == (True, True)
        root = fam.params.eps ** fam.params.c[-1]
        for a, den in ((0, 1), (root.numerator, root.denominator)):
            img = _Image(fam, a, 0, den, _image_factors(fam))
            assert img.exps == [None, None]
            assert _raw_atoms(img)[0][0] == _raw_atoms(img)[1][0] == 0
            assert img.vanishes(1) and img.vanishes(2)
            assert not _in_cover_region(img)
            assert not img.evaluated
        # the 2^-400 that a ball does not resolve is an exact positive atom
        line = Poly((F(-1, 3), 1))
        near = SimpleNamespace(f1=line, f2=line, params=fam.params)
        img = _Image(near, 2**400 + 3, 0, 3 * 2**400, _image_factors(near))
        assert img.exps[0] == (-12800, -12800)  # |lam - 1/3|^2 = 2^-800 exactly
        assert not img.vanishes(1)
        assert not img.evaluated


def _exact_moduli(fam, a, b, den):
    """|f1|^2, |f2|^2 and |f2 - f1|^2 at (a + ib)/den as Fractions."""
    v1, v2 = eval_scaled(fam.f1, a, b, den), eval_scaled(fam.f2, a, b, den)
    gap = eval_scaled(fam.f2 - fam.f1, a, b, den)
    return tuple(F(*scaled_abs2(v)) for v in (v1, v2, gap))


def _assert_encloses(product, exact):
    """The product's bracket encloses ``exact``, from (0, 0) where it is 0."""
    lo, hi = product
    assert F(lo[0]) * F(2) ** lo[1] <= exact <= F(hi[0]) * F(2) ** hi[1]
    if exact == 0:
        assert lo == (0, 0)


def _witness_draws(n, count, seed):
    """The first points of the cone-window witness's stream, scaled alike."""
    sampler = RationalSampler("cone-window", n, count, seed)
    for i in range(1, count + 1):
        a, b, den = dyadic_in_disk(sampler, 2)
        if i % 2 == 0:
            den *= 10 ** sampler.randint(0, 12)
        yield a, b, den


def _ladder_points(fam, k, entry, samples, seed):
    """The candidate points of chart k's ladder as triples ``(a, b, den)``."""
    dens = _ladder_denominators(entry)
    for a, b, _, step in _approach_candidates(fam, k, samples, seed):
        yield a, b, dens[step]


def _horner(factors):
    """``factors`` without its recursions: each ball atom by ball Horner,
    and no rung of recursion exponents."""
    return factors._replace(chain=None, rung=None)


def _rational_root_family():
    """An n = 3 family whose factors P_1 and P_2 both have rational roots.

    With eps = 1/8, P_2 = 1 - lam and P_1 = eps - lam^2 P_2 (the recursion
    of P_1, c_1 = 1) vanish at lam = 1 and lam = 1/2, and f1, f2 are the
    product forms, so all three identities hold.
    """
    params = FamilyParams.build(3, eps=F(1, 8), allow_unsafe_eps=True)
    eps, lam = params.eps, Poly.x()
    p2 = Poly.one() - lam
    p1 = Poly.constant(eps) - lam * lam * p2
    factors = (p1, p2)
    f1 = Poly.constant(eps) * p1 * p2 * p2 * lam**3
    f2 = Poly.constant(eps**2) * p1 * p2 * lam
    return Family.of(params, factors, f1, f2)


class TestFactorImages:
    """Images bracketed through the factors: eps^2, |lam|^2 and the |P_j|^2."""

    def test_factor_map_needs_all_three_identities(self, built_families, identities):
        fam = built_families[3]
        factors = _image_factors(fam, identities[3])
        assert factors.polys == fam.P and factors.lam
        assert factors.forms == ((1, 3, 1, 2), (2, 1, 1, 1), (1, 1, 2, 1))
        for names in (
            ("power-ratio",),
            ("square-ratio", "difference-factorization"),
            ("power-ratio", "square-ratio"),
            ("power-ratio", "difference-factorization"),
        ):
            plain = _image_factors(fam, _identities(*names))
            assert plain.polys == (fam.f1, fam.f2) and not plain.lam
            assert len(plain.forms) == 2
        assert _image_factors(fam).polys == (fam.f1, fam.f2)
        assert _image_factors(fam, _identities(*_FACTOR_IDENTITIES)).polys == fam.P
        # a failed identity is not a proved one
        failed = CheckReport(
            tuple(CheckResult(name, name != "square-ratio", "") for name in _FACTOR_IDENTITIES)
        )
        assert _image_factors(fam, failed).polys == (fam.f1, fam.f2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_atoms_by_factor_size(self, built_families, identities, n):
        # the factors at n = 2, 3 have 27 and 333 bits, those at n = 4 3,033
        # and more: exact atoms below, ball atoms above
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        assert factors.exact == (n < 4,) * (n - 1)
        img = _Image(fam, *next(_witness_draws(n, 1, 3)), factors)
        assert [exact_atom(a) for a in _raw_atoms(img)] == [True] + [n < 4] * (n - 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_ball_atoms_evaluate_nothing(self, built_families, identities, n, monkeypatch):
        # an exact atom costs one eval_scaled per factor, a ball atom none
        calls = Counter()
        real = bounds.eval_scaled

        def counted(poly, *lam):
            calls[poly] += 1
            return real(poly, *lam)

        monkeypatch.setattr(bounds, "eval_scaled", counted)
        fam = built_families[n]
        factors = _horner(_image_factors(fam, identities[n]))
        for lam in _witness_draws(n, 8, 4):
            _Image(fam, *lam, factors)
        assert sum(calls.values()) == (8 * (n - 1) if n < 4 else 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_exponents_inside_the_ball_exponents(self, built_families, identities, n):
        # at the witness draws and the first ladder candidates of each chart
        fam = built_families[n]
        factors = _horner(_image_factors(fam, identities[n]))
        points = list(_witness_draws(n, 200, 11))
        for k in range(1, n):
            entry = _entry_scale(fam, k, Counter(), factors)
            points += islice(_ladder_points(fam, k, entry, 64, 0), 64)
        balls = factors._replace(exact=(False,) * (n - 1), tests=[])
        for lam in points:
            exact, ball = _Image(fam, *lam, factors), _Image(fam, *lam, balls)
            assert exact.exps[0] == ball.exps[0]  # |lam|^2
            for e, b in zip(exact.exps[1:], ball.exps[1:]):
                assert e is not None and b is not None
                assert b[0] <= e[0] <= e[1] <= b[1] and e[1] - e[0] <= 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_ball_atoms_match_the_reference(self, built_families, identities, n):
        # every chart predicate on ball atoms of the small factors, at witness
        # draws, ladder candidates and the common zeros, against Fractions
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        balls = factors._replace(exact=(False,) * (n - 1), tests=[])
        root = fam.params.eps ** fam.params.c[-1]
        points = list(_witness_draws(n, 16, 12))
        points += [(0, 0, 1), (root.numerator, 0, root.denominator)]
        _net_stage_against_the_reference(fam, balls, points, range(n))
        for k in range(1, n):
            entry = _entry_scale(fam, k, Counter(), balls)
            assert entry == _entry_scale(fam, k, Counter(), factors)
            points = list(islice(_ladder_points(fam, k, entry, 8, 0), 8))
            _net_stage_against_the_reference(fam, balls, points, (k,))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_products_enclose_the_exact_moduli(self, built_families, identities, n):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        root = fam.params.eps ** fam.params.c[-1]
        points = list(_witness_draws(n, 40, 3))
        points += [(0, 0, 1), (root.numerator, 0, root.denominator), (3, -2, 4)]
        for a, b, den in points:
            img = _Image(fam, a, b, den, factors)
            for product, exact in zip((img.a1, img.a2, img.gap), _exact_moduli(fam, a, b, den)):
                _assert_encloses(product, exact)
            assert not img.evaluated

    def test_products_at_the_deep_entry_scales(self, built_families, identities):
        # the approach regions of charts 1..3 at n = 4 open at 11, 111 and
        # 914 digits
        fam = built_families[4]
        factors = _image_factors(fam, identities[4])
        scales = [_entry_scale(fam, k, Counter(), factors) for k in range(1, 4)]
        assert scales == [11, 111, 914]
        for e in scales:
            for a, b in ((1, 0), (200, -131)):
                den = 2**8 * 10**e
                img = _Image(fam, a, b, den, factors)
                for product, exact in zip((img.a1, img.a2, img.gap), _exact_moduli(fam, a, b, den)):
                    _assert_encloses(product, exact)

    @staticmethod
    def _rational_root_factors(exact):
        fam = _rational_root_family()
        ids = exact_identity_checks(fam)
        assert all(ids.passed(name) for name in _FACTOR_IDENTITIES)
        factors = _image_factors(fam, ids)
        assert factors.polys == fam.P and factors.exact == (True, True)
        # the same map with ball atoms, as for factors above the size bound
        return fam, factors if exact else factors._replace(exact=(False, False), tests=[])

    def test_zeros_of_each_ball_factor_are_exact_zero_atoms(self):
        # lam = 0, 1/2 (P_1) and 1 (P_2) are common zeros: with ball atoms,
        # by ball Horner or by the recursions P_2 = 1 - lam and P_1 = eps -
        # lam^2 P_2, the bracket of the vanishing factor reaches 0 and is
        # replaced by its exact atom, an exact 0 (at lam = 0 the exact
        # |lam|^2 atom is 0): each product's lower end is 0 and the zero
        # tests read no triple; beside them the exponents decide without the
        # triples
        fam, factors = self._rational_root_factors(exact=False)
        chain = factors._replace(
            chain=(coefficient_ball(fam.params.eps), coefficient_ball(1)), tests=[]
        )
        for a, den, zero in ((0, 1, 0), (1, 2, 1), (1, 1, 2)):
            assert all(eval_scaled(p, a, 0, den)[0] == 0 for p in (fam.f1, fam.f2))
            for ball_map in (factors, chain):
                img = _Image(fam, a, 0, den, ball_map)
                assert [e is None for e in img.exps] == [i == zero for i in range(3)]
                atom = _raw_atoms(img)[zero]
                assert exact_atom(atom) and atom[0] == 0
                for product in (img.a1, img.a2, img.gap):
                    assert product[0] == (0, 0)
                assert img.vanishes(1) and img.vanishes(2)
                assert not _in_cover_region(img)
                assert not img.evaluated
        for ball_map in (factors, chain):
            self._assert_positive_beside_the_zeros(fam, ball_map)

    def test_zeros_of_each_factor_are_exact_zero_atoms(self):
        # the same zeros with the exact atoms of these small factors: each
        # zero is an exact zero pair, and no zero test reads a triple
        fam, factors = self._rational_root_factors(exact=True)
        for a, den in ((0, 1), (1, 2), (1, 1)):
            img = _Image(fam, a, 0, den, factors)
            assert any(exact_atom(x) and x[0] == 0 for x in _raw_atoms(img))
            for product in (img.a1, img.a2, img.gap):
                assert product[0] == (0, 0)
            assert img.vanishes(1) and img.vanishes(2)
            assert not _in_cover_region(img)
            assert not img.evaluated
        self._assert_positive_beside_the_zeros(fam, factors)

    @staticmethod
    def _assert_positive_beside_the_zeros(fam, factors):
        for a, b, den in ((1, 1, 2), (3, 0, 5), (1, 0, 3)):
            img = _Image(fam, a, b, den, factors)
            for product, exact in zip((img.a1, img.a2, img.gap), _exact_moduli(fam, a, b, den)):
                _assert_encloses(product, exact)
                assert product[0][0] > 0
            assert not img.vanishes(1) and not img.vanishes(2)
            assert not img.evaluated

    def test_predicates_match_the_reference(self, built_families, identities):
        # as test_against_atlas_reference, on factor images at n = 3
        fam = built_families[3]
        factors = _image_factors(fam, identities[3])
        rng = random.Random(14)
        for _ in range(120):
            a, b = rng.randrange(-300, 301), rng.randrange(-300, 301)
            den = rng.choice([64, 100, 1024, 10**4, 10**7])
            img = _Image(fam, a, b, den, factors)
            lam = ComplexRational(F(a, den), F(b, den))
            p = ChartPoint(fam.f1(lam), fam.f2(lam))
            ref = chart_cover_indices(p, fam.params.r, 4)
            in_region, indices = _cover_indices_scaled(img, 4)
            assert in_region == ref.in_region
            if in_region:
                assert indices == ref.indices
            for k in range(4):
                _assert_chart_predicates_match(fam, img, p, k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ladder_verdicts_match_the_plain_images(self, built_families, identities, n):
        # every 4th ladder candidate of each chart at seed 0: membership,
        # entry and the halved cone read the same on factor and plain images
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        for k in range(1, n):
            entry = _entry_scale(fam, k, Counter(), factors)
            assert entry == _entry_scale(fam, k, Counter(), _image_factors(fam))
            for i, (a, b, den) in enumerate(_ladder_points(fam, k, entry, 64, 0)):
                if i % 4 or i > 256:
                    continue
                img, plain = _Image(fam, a, b, den, factors), _Image(fam, a, b, den, _image_factors(fam))
                names = ("member", "entry", "halved", "cone")
                if not _predicate("member", img, k):
                    names = names[:2]
                for name in names:
                    assert _predicate(name, img, k) == _predicate(name, plain, k), name

    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_decides_on_exponents(self, built_families, identities, n):
        # the same certificate as on plain images, with no exact fallback
        fam = built_families[n]
        factored, plain = Counter(), Counter()
        wit = cone_window_witness(
            fam, _image_factors(fam, identities[n]), samples=1024, tally=factored
        )
        ref = cone_window_witness(
            fam, _image_factors(fam, _identities()), samples=1024, tally=plain
        )
        assert wit.to_json() == ref.to_json()
        assert wit.status is Status.PROVED
        assert factored["points"] == plain["points"] >= 1024
        assert factored["exact_fallbacks"] == 0

    def test_membership_at_k0_is_not_retested(self, built_families, monkeypatch):
        # membership at k = 0, |f1| < r, is the vector (1, 0) against r^2 of
        # the cover region's first inequality: each scan compares it once
        # (a sequence of tests is compared up to its first failing one)
        seen = Counter()
        real = _Image.first_failing
        r2 = built_families[3].params.squares.r2

        def recording(img, tests):
            failed = real(img, tests)
            for test in tests[: failed + 1]:
                coeffs, c, _ = test[4]
                seen[coeffs, c is r2] += 1
            return failed

        monkeypatch.setattr(_Image, "first_failing", recording)
        fam = built_families[3]
        for a, b, den in _witness_draws(3, 60, 5):
            img = _Image(fam, a, b, den, _image_factors(fam))
            for scan, limit in ((_first_open_cone_scaled, 3), (_cover_indices_scaled, 4)):
                seen.clear()
                scan(img, limit)
                assert seen[(1, 0), True] == 1

    def test_cover_region_stops_at_its_first_failed_inequality(self):
        # |f1| = 1 >= r = 1/5 by exponents, and |f2| = 1/25 = r^2 exactly,
        # where neither the exponents nor the brackets decide: the
        # second inequality is not compared, and no exact triple is read
        params = FamilyParams.build(2)
        fam = SimpleNamespace(f1=Poly.one(), f2=Poly.constant(F(1, 25)), params=params)
        img = _Image(fam, 1, 0, 1, _image_factors(fam))
        assert not _in_cover_region(img)
        assert not img.evaluated
        assert _lt(img, (0, 1), "r4") is False
        assert img.evaluated


class _Staged(_Image):
    """An image that counts the tests it hands on past the net stage."""

    __slots__ = ("decides",)

    def __init__(self, *args):
        self.decides = 0
        super().__init__(*args)

    def _decide(self, *stage):
        self.decides += 1
        return super()._decide(*stage)


def _scaled_verdicts(fam, lam, factors, k):
    """Each chart-k predicate on its own image of lam: ``(verdict, by_net)``.

    The net stage decided a predicate when its image handed no test on to
    the later stages (``_Image._decide``: sign, products, triples).
    """
    out = {}
    for name in _PREDICATES:
        img = _Staged(fam, *lam, factors)
        verdict = _predicate(name, img, k)
        out[name] = verdict, img.decides == 0
    return out


def _reference_verdicts(fam, lam, ks):
    """The same predicates in Fractions at the consecutive chart indices
    ``ks``; ``chart_cover_indices`` and ``cone_condition`` agree with them."""
    p = ChartPoint(*(scaled_to_complex(eval_scaled(f, *lam)) for f in (fam.f1, fam.f2)))
    r, rho = fam.params.r, fam.params.rho
    a1, a2 = p.z1.abs2(), p.z2.abs2()
    cover = chart_cover_indices(p, r, ks[-1])
    refs, power = {}, p.z2 ** ks[0]
    for k in ks:
        power = power * p.z2  # z2^(k+1): the ks are consecutive
        gap = (power - p.z1).abs2()
        ref = refs[k] = {
            "region": cover.in_region,
            "member": a1 < r**2 * a2**k,
            "entry": a2 ** (k + 2) < r**2 * a1,
            "cone": a1 * a1 < rho**2 * gap * a2**k,
            "halved": a1 * a1 <= (rho / 2) ** 2 * gap * a2**k,
        }
        if cover.in_region:
            assert (k in cover.indices) == (ref["member"] and ref["entry"])
    if not (p.z1.is_zero and p.z2.is_zero):
        assert cone_condition(p, ks[0], rho) == refs[ks[0]]["cone"]
    return refs


def _net_stage_against_the_reference(fam, factors, points, ks):
    """Every predicate at every point and chart index equals its reference;
    returns how many the net stage decided, of how many."""
    decided = total = 0
    for lam in points:
        refs = _reference_verdicts(fam, lam, list(ks))
        for k in ks:
            for name, (verdict, by_net) in _scaled_verdicts(fam, lam, factors, k).items():
                assert verdict == refs[k][name], (name, lam, k)
                decided += by_net
                total += 1
    return decided, total


def _exponent_stage(lhs, rhs, closed=False):
    """The exponent comparison of two uncancelled sides, each a list of
    ``(lo, hi)`` exponents, in sixteenths, around its factors (None: an
    exact zero, so no verdict), as ``bracket_lt`` once decided before it
    multiplied."""
    if None in lhs or None in rhs:
        return None
    l_lo, l_hi = sum(e[0] for e in lhs), sum(e[1] for e in lhs)
    r_lo, r_hi = sum(e[0] for e in rhs), sum(e[1] for e in rhs)
    if l_hi < r_lo or closed and l_hi == r_lo:
        return True
    if r_hi < l_lo or not closed and r_hi == l_lo:
        return False
    return None


def _quantity_exponents(img):
    """The uncancelled exponent sums of |f1|^2, |f2|^2 and the chart-0 gap
    (None without its form) over the constants and the refined atoms; None
    for a quantity with an exact zero atom."""
    factors = img.factors
    _raw_atoms(img)  # refines: ``exps`` become the atoms' own exponents
    exps = [log16_bounds(*c) for c in factors.constants] + img.exps
    out = []
    for form in factors.forms:
        used = [(ex, p) for ex, p in zip(exps, form) if p]
        if any(ex is None for ex, _ in used):
            out.append(None)
        else:
            out.append((sum(p * ex[0] for ex, p in used), sum(p * ex[1] for ex, p in used)))
    return (*out, None)[:3]


def _separated_gap(e1, e2, k):
    """The gap |f2^(k+1) - f1|^2 by the uncancelled exponents of its terms:
    those of the larger, widened by 2 powers of two (32 sixteenths) below
    and 1 (16) above, when the two are at least 2^3 (48) apart; None
    otherwise."""
    (e1_lo, e1_hi), (e2_lo, e2_hi) = e1, e2
    p_lo, p_hi = (k + 1) * e2_lo, (k + 1) * e2_hi
    if p_hi + 48 <= e1_lo:
        return e1_lo - 32, e1_hi + 16
    if e1_hi + 48 <= p_lo:
        return p_lo - 32, p_hi + 16
    return None


def _uncancelled_verdicts(fam, img, k):
    """Each predicate decided on the exponent sums of its two uncancelled
    sides, as before the net stage, or None where those overlap (and for a
    cone whose gap is not known by exponents)."""
    squares = fam.params.squares
    (rn2, rd2), (rn4, rd4) = (
        [_exponents(bracket) for bracket in square[2:4]] for square in (squares.r2, squares.r4)
    )
    a1, a2, gap = _quantity_exponents(img)
    first = _exponent_stage([a1, rd2], [rn2])
    second = _exponent_stage([a2, rd4], [rn4])
    out = {
        "region": None if first is None or second is None else first and second,
        "member": _exponent_stage([a1, rd2], [rn2, *[a2] * k]),
        "entry": _exponent_stage([*[a2] * (k + 2), rd2], [rn2, a1]),
    }
    if k or len(img.factors.forms) == 2:
        gap = None if a1 is None or a2 is None else _separated_gap(a1, a2, k)
    for name, square in (("cone", squares.rho2), ("halved", squares.half_rho2)):
        pn2, pd2 = (_exponents(bracket) for bracket in square[2:4])
        out[name] = (
            None
            if gap is None
            else _exponent_stage([a1, a1, pd2], [pn2, gap, *[a2] * k], closed=name == "halved")
        )
    return out


class TestNetStage:
    """The chart predicates decided on net powers of the image atoms."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_draws_match_the_reference(self, built_families, identities, n):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        # the Fraction reference takes about a second per point at n = 4
        points = list(_witness_draws(n, 24 if n < 4 else 3, 7))
        decided, total = _net_stage_against_the_reference(fam, factors, points, range(n))
        assert decided * 10 >= total * 9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ladder_candidates_match_the_reference(self, built_families, identities, n):
        # the first candidates of each chart's ladder at seed 0, up to five
        # decades past its entry scale; one per chart at n = 4, where the
        # Fraction reference of chart 3 takes seconds
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        decided = total = 0
        for k in range(1, n):
            entry = _entry_scale(fam, k, Counter(), factors)
            count = 8 if n < 4 else 1
            points = list(islice(_ladder_points(fam, k, entry, 64, 0), count))
            got = _net_stage_against_the_reference(fam, factors, points, (k,))
            decided, total = decided + got[0], total + got[1]
        assert decided * 10 >= total * 8

    def test_entry_scales_match_the_reference(self, built_families, identities):
        # the probes 10^-e on both sides of the n = 4 entry thresholds, where
        # membership is a near tie, and a ladder-like point at the first two
        # scales (the ladder test has one at 914 digits); 10^-913 is the root
        # of P_3, where only the triples decide
        fam = built_families[4]
        factors = _image_factors(fam, identities[4])
        decided = 0
        for k, e in zip((1, 2, 3), (11, 111, 914)):
            points = [(1, 0, 10**e), (1, 0, 10 ** (e - 1))]
            if e < 914:
                points.append((200, -131, 2**8 * 10**e))
            decided += _net_stage_against_the_reference(fam, factors, points, (k,))[0]
        assert decided >= 20

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_atoms_leave_it_to_the_triples(self, built_families, identities, n):
        # lam = 0 and the root of P_(n-1) are common zeros of f1 and f2: an
        # atom is an exact 0 (at n = 4 the ball of P_3, by Horner or by the
        # recursions, reaches 0 at the root and is replaced by its exact
        # atom), and nothing cancels: the net decides no chart test, and only
        # the cover region is settled before the later stages, by the zero
        # test of f1 on the exponents
        fam = built_families[n]
        root = fam.params.eps ** fam.params.c[-1]
        points = [(0, 0, 1), (root.numerator, 0, root.denominator)]
        for factors in (
            _horner(_image_factors(fam, identities[n])),
            _image_factors(fam, identities[n]),
        ):
            decided, _ = _net_stage_against_the_reference(fam, factors, points, range(n))
            assert decided == len(points) * n
            for lam in points:
                for k in range(n):
                    verdicts = _scaled_verdicts(fam, lam, factors, k)
                    assert verdicts.pop("region") == (False, True)
                    assert not any(by_net for _, by_net in verdicts.values())

    def test_two_atom_family(self, built_families):
        # without the factor identities the atoms are |f1|^2 and |f2|^2
        fam = built_families[3]
        factors = _image_factors(fam, _identities())
        assert not factors.lam and factors.polys == (fam.f1, fam.f2)
        points = list(_witness_draws(3, 24, 8))
        decided, total = _net_stage_against_the_reference(fam, factors, points, range(3))
        assert decided * 10 >= total * 9

    def test_eps_one_family(self):
        # the refuted family, at witness draws and at the refutation witness
        # of its cone-window witness
        fam = build_family(FamilyParams.build(2, eps=1, allow_unsafe_eps=True))
        factors = _image_factors(fam, exact_identity_checks(fam))
        assert factors.lam
        points = [*_witness_draws(2, 24, 9), (-3299, -10052, 16384)]
        decided, total = _net_stage_against_the_reference(fam, factors, points, range(2))
        assert decided * 3 >= total * 2

    @pytest.mark.parametrize("factored", [True, False])
    def test_gap_to_a_positive_power(self, built_families, identities, factored):
        # the reversed cone |f2^(k+1) - f1|^2 |f2|^(2k) < rho^2 |f1|^4 puts
        # the gap on the left; the chart-0 gap is a product only with the
        # factor forms
        fam = built_families[2]
        factors = _image_factors(fam, identities[2] if factored else None)
        rho2 = fam.params.rho**2
        for lam in _witness_draws(2, 24, 10):
            a1, a2, _ = _exact_moduli(fam, *lam)
            z1, z2 = (scaled_to_complex(eval_scaled(f, *lam)) for f in (fam.f1, fam.f2))
            for k in (0, 1):
                gap = (z2 ** (k + 1) - z1).abs2()
                img = _Image(fam, *lam, factors)
                assert _lt(img, (-2, k, 1), "rho2", k=k) == (gap * a2**k < rho2 * a1 * a1)

    @pytest.mark.parametrize(
        "f1, f2, r, rho, halved, holds",
        [
            # t = |f1|^2/|f2|^4 just below 2^-3 by exponents; the cone
            # ratio X |f2|^4/gap is 1.079/1.266 < 1 (opposite phases) and
            # 0.490/0.418 > 1 (equal phases), where X's exponents alone
            # would read >= 1 and < 1
            (F(-1, 4), F(181, 128), F(1, 100), F(1, 47), False, True),
            (F(181, 512), F(1), F(1, 20), F(5, 28), False, False),
            # the same at the halved closed cone: X <= 1/2 by exponents
            (F(181, 512), F(1), F(1, 10), F(5, 14), True, False),
            # t just below 2^-4: the halved ratio is 0.754/0.564 > 1, where
            # X's exponents alone would read <= 1
            (F(255, 1024), F(1), F(1, 20), F(1, 7), True, False),
        ],
    )
    def test_gap_widening_leaves_near_ties_open(self, f1, f2, r, rho, halved, holds):
        params = FamilyParams.build(2, r=r, rho=rho)
        fam = SimpleNamespace(f1=Poly.constant(f1), f2=Poly.constant(f2), params=params)
        img = _Image(fam, 1, 0, 1, _image_factors(fam))
        assert img.net(*_compile_net(fam, img.factors, (1, -2), None, 0))[1] <= -48
        square = "half_rho2" if halved else "rho2"
        lo, hi = img.net(*_compile_net(fam, img.factors, (2, -1, -1), square, 1))
        # the net decides neither way
        assert (lo <= 0 if halved else lo < 0) and (hi > 0 if halved else hi >= 0)
        assert _predicate("halved" if halved else "cone", img, 1) is holds
        a1, a2, gap = f1 * f1, f2 * f2, (f2 * f2 - f1) ** 2
        c = (rho / 2) ** 2 if halved else rho**2
        assert (a1 * a1 <= c * gap * a2 if halved else a1 * a1 < c * gap * a2) is holds

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]),
        st.booleans(),
        st.integers(-(2**8), 2**8),
        st.integers(-(2**8), 2**8),
        st.integers(0, 920),
        st.data(),
    )
    def test_decides_wherever_the_uncancelled_sums_decide(
        self, built_families, identities, n, factored, a, b, e, data
    ):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n] if factored else None)
        k = data.draw(st.integers(0, n - 1))
        lam = (a, b, 2**8 * 10**e)
        uncancelled = _uncancelled_verdicts(fam, _Image(fam, *lam, factors), k)
        for name, (verdict, by_net) in _scaled_verdicts(fam, lam, factors, k).items():
            if uncancelled[name] is not None:
                assert by_net and verdict == uncancelled[name], name


@pytest.fixture(scope="module")
def scaled_points(built_families, identities):
    """Per n: the family, its factor maps (the exact one, the same map with
    ball atoms by Horner and with ball atoms from the recursions), witness
    draws, the first ladder candidates of each chart and the common zeros
    lam = 0 and the root of the last factor."""
    pools = {}
    for n in (2, 3, 4):
        fam = built_families[n]
        chained = _image_factors(fam, identities[n])
        factors = _horner(chained)
        balls = factors._replace(exact=(False,) * (n - 1), tests=[])
        chained = chained._replace(exact=balls.exact, tests=[])
        assert chained.chain is not None
        ladder = {0: []}
        for k in range(1, n):
            entry = _entry_scale(fam, k, Counter(), factors)
            ladder[k] = list(islice(_ladder_points(fam, k, entry, 8, 0), 8))
        root = fam.params.eps ** fam.params.c[-1]
        zeros = [(0, 0, 1), (root.numerator, 0, root.denominator)]
        maps = factors, balls, chained
        pools[n] = fam, maps, list(_witness_draws(n, 24, 31)), ladder, zeros
    return pools


def _sequential_lt(img, tests):
    """The index of the first of the compiled ``tests`` that fails at
    ``img``, by one ``_lt`` call per test."""
    squares = img.fam.params.squares
    names = {id(getattr(squares, name)): name for name in squares._fields}
    for index, (_, _, _, closed, (coeffs, c, k)) in enumerate(tests):
        square = None if c is None else names[id(c)]
        if not _lt(img, coeffs, square, closed=closed, k=k):
            return index
    return len(tests)


def _atoms_by_value(fam, factors, lam):
    """The point atoms of ``factors`` at lam: the exact pair of |lam|^2, the
    exact pair of each exact |P|^2 and of each ball atom whose bracket
    reaches 0, and the bracket of each other one, by ``ball_abs2`` or,
    where the map has a chain, from the balls of ``recursion_balls``."""
    a, b, den = lam
    atoms = [(a * a + b * b, den * den)] if factors.lam else []
    balls = None
    if factors.chain is not None:
        balls = bounds.recursion_balls(factors.chain, bounds.ball_point(*lam))
    for i, (poly, small) in enumerate(zip(factors.polys, factors.exact)):
        if not small:
            if balls is None:
                bracket = bounds.ball_abs2(poly, *lam)
            else:
                bracket = bounds._ball_abs2(balls[i])
            if bracket[0] != (0, 0):
                atoms.append(bracket)
                continue
        atoms.append(scaled_abs2(eval_scaled(poly, *lam)))
    return atoms


def _first_open_cone_reference(p, r, rho, n):
    """``chart_cover_indices`` below index n and the first of them whose
    cone is open, in Fractions."""
    cover = chart_cover_indices(p, r, n - 1)
    first = next((k for k in cover.indices if cone_condition(p, k, rho)), None)
    return cover.in_region, first


class TestOnePass:
    """``_Image.first_failing`` against one ``_lt`` call per test and the
    Fraction predicates of the atlas, on the exact factor maps and on the
    same maps with ball atoms, by Horner and from the proved recursions."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.sampled_from([0, 1, 2]), st.data())
    def test_first_failing_is_sequential_lt(self, scaled_points, n, kind, data):
        fam, maps, witness, ladder, zeros = scaled_points[n]
        factors = maps[kind]
        k = data.draw(st.integers(0, n - 1))
        lam = data.draw(st.sampled_from(witness + ladder[k] + zeros))
        region, chart, cone, member, entry, halved = _chart_tests(fam, factors, k)
        for tests in (region, chart, cone, (member, halved, entry)):
            img, ref = _Image(fam, *lam, factors), _Image(fam, *lam, factors)
            assert img.first_failing(tests) == _sequential_lt(ref, tests)
            assert (img.formed, img.evaluated) == (ref.formed, ref.evaluated)

    def test_exact_ties_on_the_net(self):
        # |f1|^2 = r^2 and |f2|^2 = r^4 exactly, both powers of two: each
        # region test's net is exactly (0, 0), where the open test fails and
        # the closed one holds, with no product formed
        params = FamilyParams.build(2, r=F(1, 4), rho=F(3, 4))
        f1, f2 = Poly.constant(F(1, 4)), Poly.constant(F(1, 16))
        fam = SimpleNamespace(f1=f1, f2=f2, params=params)
        img = _Image(fam, 1, 0, 1, _image_factors(fam))
        for coeffs, square in (((1, 0), "r2"), ((0, 1), "r4")):
            open_test = _compile_test(fam, img.factors, coeffs, square)
            closed_test = _compile_test(fam, img.factors, coeffs, square, closed=True)
            assert img.net(*open_test[:3]) == (0, 0)
            assert img.first_failing((open_test,)) == 0
            assert img.first_failing((closed_test, open_test)) == 1
        assert not _in_cover_region(img)
        assert not img.formed and not img.evaluated

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_zero_quantities_decide_by_sign(
        self, built_families, identities, n
    ):
        # lam = 0 and the root of P_(n-1) are common zeros of f1 and f2, so
        # every quantity of every chart test is an exact 0: each test gets
        # the verdict of exact_lt on the triples, on every factor map,
        # without a product bracket or a triple of its own
        fam = built_families[n]
        root = fam.params.eps ** fam.params.c[-1]
        maps = (
            _image_factors(fam),
            _horner(_image_factors(fam, identities[n])),
            _image_factors(fam, identities[n]),
        )
        for lam in ((0, 0, 1), (root.numerator, 0, root.denominator)):
            v1, v2 = eval_scaled(fam.f1, *lam), eval_scaled(fam.f2, *lam)
            assert v1[0] == v1[1] == v2[0] == v2[1] == 0
            for factors in maps:
                tests = set()
                for k in range(n):
                    region, chart, cone, member, entry, halved = _chart_tests(fam, factors, k)
                    tests.update((*region, *chart, *cone, member, entry, halved))
                for test in tests:
                    _, _, _, closed, (coeffs, c, k) = test
                    terms = [] if c is None else [(c[0], c[1], -1)]
                    for i, e in enumerate(coeffs):
                        if e:
                            pair = (
                                disktrace._gap_squared_exact(v1, v2, k)
                                if i == 2
                                else scaled_abs2((v1, v2)[i])
                            )
                            terms.append((*pair, e))
                    img = _Image(fam, *lam, factors)
                    holds = img.first_failing((test,)) == 1
                    assert holds == exact_lt(terms, closed=closed), (lam, coeffs, k)
                    assert not img.formed and not img.evaluated

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ball", [False, True])
    def test_atoms_are_the_ratios_and_brackets_by_value(self, scaled_points, n, ball):
        self._assert_atoms_by_value(*scaled_points[n], ball)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_atoms_are_the_ratios_and_brackets_by_value(self, scaled_points, n):
        self._assert_atoms_by_value(*scaled_points[n], 2)

    @staticmethod
    def _assert_atoms_by_value(fam, maps, witness, ladder, zeros, kind):
        n, factors = fam.n, maps[kind]
        for lam in witness[:8] + [pt for k in range(1, n) for pt in ladder[k][:2]] + zeros:
            img = _Image(fam, *lam, factors)
            expected = _atoms_by_value(fam, factors, lam)
            brackets = img.atoms
            for raw, bracket, ref, exps in zip(
                img._raw, brackets, expected, img.exps, strict=True
            ):
                assert raw == ref
                if exact_atom(ref):
                    assert bracket == ratio_bracket(*ref)
                    assert (log16_bounds(*ref) if ref[0] else None) == exps
                else:
                    assert bracket == ref and _exponents(ref) == exps

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([0, 1, 2]), st.data())
    def test_scans_match_the_atlas_reference(self, scaled_points, n, kind, data):
        fam, maps, witness, ladder, _ = scaled_points[n]
        pool = witness + [pt for k in range(1, n) for pt in ladder[k]]
        lam = data.draw(st.sampled_from(pool))
        self._assert_scans_match(fam, (maps[kind],), lam)

    def test_n4_scans_match_the_atlas_reference(self, scaled_points):
        # two witness draws and one candidate of each chart's ladder, past
        # 11, 111 and 914 digits, on every map; the Fraction reference takes
        # from half a second to seconds per point here
        fam, maps, witness, ladder, _ = scaled_points[4]
        for lam in witness[:2] + [ladder[k][0] for k in (1, 2, 3)]:
            self._assert_scans_match(fam, maps, lam)

    @staticmethod
    def _assert_scans_match(fam, maps, lam):
        """Both scans at lam, on each factor map of ``maps``, equal the
        Fraction reference."""
        n, r, rho = fam.n, fam.params.r, fam.params.rho
        p = ChartPoint(*(scaled_to_complex(eval_scaled(f, *lam)) for f in (fam.f1, fam.f2)))
        cover = chart_cover_indices(p, r, n + 1)
        cone = _first_open_cone_reference(p, r, rho, n)
        for factors in maps:
            in_region, indices = _cover_indices_scaled(_Image(fam, *lam, factors), n + 1)
            assert (in_region, indices) == (cover.in_region, cover.indices)
            assert _first_open_cone_scaled(_Image(fam, *lam, factors), n) == cone


def _tampered_family(fam):
    """``fam`` (n = 3) with P_2 moved off its recursion by TINY lam^2, P_1
    rebuilt by its own recursion from that P_2, and f1, f2 the product
    forms: the three identities hold, the recursion of P_2 does not."""
    eps, c, lam = fam.params.eps, fam.params.c, Poly.x()
    p2 = fam.Pk(2) + Poly.monomial(2, TINY)
    p1 = Poly.constant(eps ** c[0]) - lam * lam * p2
    factors = (p1, p2)
    f1 = Poly.constant(eps) * lam**3 * p1 * p2 * p2
    f2 = Poly.constant(eps**2) * lam * p1 * p2
    return Family.of(fam.params, factors, f1, f2)


class TestRecursionChain:
    """Ball atoms from the recursions: two ball products per factor, used
    only where every recursion holds for the family (``Family.recursions``)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_only_where_every_recursion_is_proved(self, built_families, identities, n):
        fam, ids = built_families[n], identities[n]
        chain = _image_factors(fam, ids).chain
        # the constants e_k = eps^(c_k) of the recursions' sides
        assert chain == tuple(coefficient_ball(fam.params.eps**c) for c in fam.params.c)
        for k in range(1, n):
            assert recursion_sides(fam, k)[0] == (
                1, n - k, tuple((j, j - k) for j in range(k + 1, n))
            )
        assert _image_factors(fam, None).chain is None  # no factor atoms
        for k in range(1, n):
            # the same form, read as if the recursion of P_k did not hold
            unproved = Family(fam.params, fam.form)
            unproved.recursions = fam.recursions - {k}
            assert _image_factors(unproved, ids).chain is None

    def test_tampered_factor_keeps_the_horner(self, built_families):
        fam = _tampered_family(built_families[3])
        assert fam.recursions == {1}
        ids = exact_identity_checks(fam)
        assert all(ids.passed(name) for name in _FACTOR_IDENTITIES)
        factors = _image_factors(fam, ids)
        assert factors.polys == fam.P and factors.exact == (False, False)
        assert factors.chain is None and factors.rung is None
        # without a rung every sampled point computes its atoms, and none
        # reuses an outcome
        roots = family_root_certificates(fam)
        corollary = corollary_ineq_certificate(fam, annulus_bounds_certificate(fam, roots))
        for run in (
            lambda tally: cone_window_witness(fam, factors, samples=256, tally=tally),
            lambda tally: image_in_chart_window(
                fam, corollary, ids, factors, samples=32, images=tally
            ),
        ):
            tally = Counter()
            run(tally)
            assert tally["refined"] == tally["points"] > 0 and tally["reused"] == 0

    def test_proved_n4_run_calls_no_ball_horner(
        self, built_families, root_certs, corollary_reports, identities, divisions, monkeypatch
    ):
        # the whole n = 4 trace with the chain and with the Horner (the chain
        # switched off): the same report and work counts, but for the points
        # whose atoms were computed (without the chain there is no rung of
        # recursion exponents, so every point), and ball_abs2 runs only
        # without the chain
        calls = Counter()
        real = bounds.ball_abs2

        def spy(*args, **kwargs):
            calls["ball_abs2"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "ball_abs2", spy)
        n = 4
        fam = built_families[n]

        def trace():
            return trace_family(
                fam,
                root_certs=root_certs[n],
                corollary=corollary_reports[n],
                identities=identities[n],
                divisions=divisions[n],
            )

        chained = trace()
        assert chained.status is Status.PROVED
        assert calls["ball_abs2"] == 0
        monkeypatch.setattr(disktrace, "_recursion_chain", lambda fam: None)
        horner = trace()
        assert calls["ball_abs2"] > 0
        assert chained.to_json() == horner.to_json()
        refined = [
            (run.ladder.pop("refined"), run.witness.pop("refined")) for run in (chained, horner)
        ]
        # at the default plan, the CLI's: 2048 witness points, 256 per ladder
        assert refined == [(76, 12), (horner.ladder["points"], horner.witness["points"])]
        # without a rung every point refines, so none stores or reuses an
        # outcome
        reused = [
            (run.ladder.pop("reused"), run.witness.pop("reused")) for run in (chained, horner)
        ]
        assert reused[1] == (0, 0) and min(reused[0]) > 0
        assert (chained.ladder, chained.witness) == (horner.ladder, horner.witness)


def _in_power_bounds(pair, num, den):
    """Whether 2^(lo/16) <= num/den <= 2^(hi/16) for ``pair = (lo, hi)``, in
    sixteenths of a power of two, on the integers' 16th powers."""
    lo, hi = pair
    num, den = num**16, den**16
    lower = num << -lo >= den if lo < 0 else num >= den << lo
    upper = num << -hi <= den if hi < 0 else num <= den << hi
    return lower and upper


def _sixteenths(key):
    """A ``_rung_key`` pair of whole powers of two, in sixteenths: the
    |lam|^2 exponents of an image's first rung."""
    return None if key is None else (16 * key[0], 16 * key[1])


def _crossover_scale(fam, k):
    """A binary scale m at which |Q_k(2^-m)| = |e_k - P_k(2^-m)| crosses
    |e_k|: above it at 2^-(m - 1), at or below it at 2^-m, by bisection on
    exact values."""
    e = fam.params.eps ** fam.params.c[k - 1]

    def above(m):
        re, im, d = eval_scaled(fam.Pk(k), 1, 0, 2**m)
        return abs(e - F(re, d)) > e

    lo, hi = 0, 1
    while above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


# unit-ish directions of the band points: lam = u 2^-m
_DIRECTIONS = ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (3, 4, 5), (-5, 12, 13), (7, -1, 5))


class TestRecursionExponents:
    """The first rung of an image point: exponents, in sixteenths of a power
    of two, around every |P_k(lam)|^2 from the proved recursions, by integer
    additions, and the atoms only where two recursion terms come close."""

    @staticmethod
    def _points(fam):
        """Draws at every decimal scale 10^0 .. 10^-12, and points inside and
        on the edges of each factor's crossover band."""
        sampler = RationalSampler("recursion-exponents", fam.n)
        points = []
        for e in range(13):
            for _ in range(6):
                a, b, den = dyadic_in_disk(sampler, 2)
                points.append((a, b, den * 10**e))
        for k in range(1, fam.n):
            m = _crossover_scale(fam, k)
            for shift in range(-8, 9):
                for a, b, d in _DIRECTIONS:
                    points.append((a, b, d << (m + shift)))  # m > 8 at n = 2..4
            # points between consecutive binary scales across the band
            for num in range(16, 32):
                points.append((num, 0, 1 << (m + 4)))
        return points

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_pair_bounds_the_exact_factor(self, built_families, identities, n):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        assert factors.rung is not None
        returned = gave_up = 0
        for a, b, den in self._points(fam):
            # |lam|^2 by its whole powers of two, as the first rung reads
            # it, and by its own sixteenths
            key = _sixteenths(log2_bounds(a * a + b * b, den * den))
            for lam2 in (key, log16_bounds(a * a + b * b, den * den)):
                pairs = recursion_exponents(factors.rung, lam2)
                if pairs is None:
                    gave_up += lam2 is key
                    continue
                returned += lam2 is key
                assert len(pairs) == n - 1
                for j, pair in enumerate(pairs, start=1):
                    num, d2 = scaled_abs2(eval_scaled(fam.Pk(j), a, b, den))
                    assert _in_power_bounds(pair, num, d2), (j, (a, b, den), pair)
        # the rung decides most points and gives up inside the bands
        assert returned > gave_up > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rung_pairs_of_the_constants(self, built_families, identities, n):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        for pair, c in zip(factors.rung, fam.params.c, strict=True):
            e = fam.params.eps**c
            assert pair == log16_bounds(e.numerator**2, e.denominator**2)

    def test_gives_up_where_the_terms_come_close(self):
        # |e|^2 in [2^-10, 2^-9] and |Q|^2 = |lam|^2 at n = 2, in
        # sixteenths: the larger term's pair widened by 16 where the other's
        # upper exponent is 64 (2^4) below its lower one, None otherwise
        rung = ((-160, -144),)
        assert recursion_exponents(rung, (-240, -224)) == [(-176, -128)]
        assert recursion_exponents(rung, (-80, -64)) == [(-96, -48)]
        for lam in ((-224, -208), (-192, -176), (-128, -112), (-96, -80)):
            assert recursion_exponents(rung, lam) is None
        # one sixteenth closer on either side is too close
        assert recursion_exponents(rung, (-239, -223)) is None
        assert recursion_exponents(rung, (-81, -65)) is None
        assert recursion_exponents(rung, (-300, -224)) == [(-176, -128)]
        assert recursion_exponents(rung, (-80, -20)) == [(-96, -4)]
        # at n = 3, |Q_1|^2 = |lam|^2 |lam P_2|^2 adds the pairs: (-656,
        # -576) and (-256, -176) at the two points above, both far above
        # |e_1|^2
        rung = ((-960, -944), (-160, -144))
        assert recursion_exponents(rung, (-240, -224)) == [(-672, -560), (-176, -128)]
        assert recursion_exponents(rung, (-80, -64)) == [(-272, -160), (-96, -48)]
        assert recursion_exponents(rung, (-144, -128)) is None
        # P_2 decided, |Q_1|^2 within the band of |e_1|^2
        assert recursion_exponents(((-640, -624), (-160, -144)), (-240, -224)) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_images_at_zero_fall_through(self, built_families, identities, n):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        img = _Image(fam, 0, 0, 1, factors)
        assert img.refined and img.exps[0] is None
        assert img.vanishes(1) and img.vanishes(2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_images_refine_only_where_a_test_is_open(
        self, built_families, identities, n
    ):
        # against the same map without the rung: away from the bands a
        # point is decided on the rung alone, its atoms never computed and
        # its exponents enclosing the atoms' own; a point the rung gives up
        # on has its atoms from the start
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        plain = factors._replace(rung=None, tests=[])
        decided = 0
        for lam in self._points(fam):
            img, atoms = _Image(fam, *lam, factors), _Image(fam, *lam, plain)
            if img.refined:
                assert img.exps == atoms.exps
                continue
            assert img.positive and img.zero_atoms == 0
            # |lam|^2 by its tightest powers of two in sixteenths, around its
            # atom's exponents
            a, b, den = lam
            assert img.exps[0] == _sixteenths(log2_bounds(a * a + b * b, den * den))
            assert atoms.exps[0] == log16_bounds(a * a + b * b, den * den)
            for rung, exact in zip(img.exps, atoms.exps, strict=True):
                assert rung[0] <= exact[0] <= exact[1] <= rung[1]
            assert _first_open_cone_scaled(img, n) == _first_open_cone_scaled(atoms, n)
            decided += not img.refined
            # reading the atoms refines first
            assert img.atoms == atoms.atoms and img.refined
            assert img.exps == atoms.exps
        assert decided > 0

    def test_no_rung_without_a_proved_chain(self, built_families, identities):
        # tampered P_2, the recursion of P_2 left out, or the map without its
        # recursions: no chain and no rung, every image has its atoms from
        # the start
        fam, ids = built_families[3], identities[3]
        unproved = Family(fam.params, fam.form)
        unproved.recursions = fam.recursions - {2}
        tampered = _tampered_family(fam)
        maps = (
            _horner(_image_factors(fam, ids)),
            _image_factors(unproved, ids),
            _image_factors(tampered, exact_identity_checks(tampered)),
        )
        for factors in maps:
            assert factors.chain is None and factors.rung is None
        for lam in _witness_draws(3, 16, 21):
            assert _Image(fam, *lam, maps[0]).refined
            assert _Image(fam, *lam, maps[1]).refined
            assert _Image(tampered, *lam, maps[2]).refined

    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_verdicts_and_counts_with_and_without_the_rung(
        self, built_families, identities, n
    ):
        # the same certificate and counts, but for ``refined``: every point
        # without the rung, a few with it; and for ``reused``: none without
        # the rung, most with it
        fam = built_families[n]
        with_rung, without = Counter(), Counter()
        got = cone_window_witness(
            fam, _image_factors(fam, identities[n]), samples=512, tally=with_rung
        )
        ref = cone_window_witness(
            fam, _horner(_image_factors(fam, identities[n])), samples=512, tally=without
        )
        assert got.to_json() == ref.to_json()
        assert without["refined"] == without["points"]
        assert 0 < with_rung.pop("refined") * 10 < without.pop("refined")
        assert without.pop("reused") == 0 < with_rung.pop("reused")
        assert with_rung == without


class _Unequal(tuple):
    """A ``_rung_key`` pair that equals only itself, so that no dict lookup
    finds it: the images keep their first rung, the loops reuse nothing."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other


def _ladder_tests(fam, factors, k):
    """The ladder's two test sequences of chart k, with and without the
    entry half of chart membership."""
    _, _, _, member, entry, halved = _chart_tests(fam, factors, k)
    return (member, halved, entry), (member, halved)


def _window_draws(n, count, seed):
    """The first points of the chart window's stream at its 64 samples."""
    sampler = RationalSampler("chart-window", n, 64, seed)
    for _ in range(count):
        yield dyadic_in_disk(sampler, 2)


class _SpiedPairs:
    """The pairs of one ``_PairTable`` row, each read through ``wrap`` and
    appended to ``keys`` (when given) in the order the loop reads them."""

    def __init__(self, pairs, wrap, keys):
        self.pairs, self.wrap, self.keys = pairs, wrap, keys

    def __getitem__(self, i):
        key = self.wrap(self.pairs[i])
        if self.keys is not None:
            self.keys.append(key)
        return key


def _spied_tables(wrap, keys=None):
    """A ``disktrace._PairTable`` whose rows hand out their pairs through
    ``_SpiedPairs``."""
    real = disktrace._PairTable

    class Spied:
        def __init__(self, den2):
            self.table = real(den2)

        def __getitem__(self, b):
            t, pairs = self.table[b]
            return t, _SpiedPairs(pairs, wrap, keys)

    return Spied


def _table_key(table, s):
    """The key of s in a ``_PairTable``, read as the loops read it."""
    t, pairs = table[s.bit_length()]
    return pairs[(s >= t) + (s == t)]


class TestPairTables:
    """The sampled loops read each draw's |lam|^2 pair from a table per
    squared denominator; every entry is ``_rung_key``'s."""

    # the chart-cone entry scales of the default families at n = 2..5, as
    # the reports pin them
    ENTRIES = (9, 101, 11, 111, 914, 13, 134, 980, 7744)

    def test_table_keys_are_rung_keys(self):
        # the witness's 13 squared denominators, the window's 2^30 and the
        # ladders' at the entry scales of n = 2..5; at s = 0, every power
        # of two, t - 1, t and t + 1 of every row, and random s < 2^32
        rng = random.Random(38)
        top = 1 << 2 * disktrace.GRID_BITS
        dens2 = [den2 for _, den2 in disktrace._WITNESS_DENS]
        dens2.append(1 << 2 * disktrace.GRID_BITS - 2)
        dens2 += [den * den for entry in self.ENTRIES for den in _ladder_denominators(entry)]
        inexact = 0
        for den2 in dens2:
            table = disktrace._PairTable(den2)
            values = {0, *(1 << i for i in range(32)), *(rng.randrange(top) for _ in range(500))}
            for b in range(1, 33):
                t, pairs = table[b]
                values.update((t - 1, t, t + 1))
                inexact += pairs[2] == pairs[1]
            for s in sorted(v for v in values if 0 <= v < top):
                assert _table_key(table, s) == _rung_key(s, den2), (den2, s)
        # some rows have no integer den2 2^e, where s = t is above it
        assert inexact > 0

    def test_rows_are_built_on_first_read(self):
        table = disktrace._PairTable(1 << 60)
        assert not table
        row = table[20]
        assert list(table) == [20] and table[20] is row
        assert table[0] == (1, (None, None, None))

    def test_witness_dense_calls_no_log2_bounds_per_draw(self, monkeypatch, tmp_path):
        # verify --n 2..3 --samples 16384 --seed 0 draws 32,768 witness
        # points, 6,150 ladder points and 1,024 window points; only the
        # entry probes' images compute their keys
        from noricert.cli import main

        calls = Counter()
        real = bounds.log2_bounds

        def counted(*args):
            calls["log2_bounds"] += 1
            return real(*args)

        monkeypatch.setattr(bounds, "log2_bounds", counted)
        monkeypatch.setattr(disktrace, "log2_bounds", counted)
        argv = ["verify", "--n", "2..3", "--samples", "16384", "--seed", "0"]
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        assert 0 < calls["log2_bounds"] < 100


class TestRungMemo:
    """The sampled loops reuse an outcome decided on the recursion
    exponents alone for every later point with the same |lam|^2 pair."""

    @staticmethod
    def _first_rung_only(img, key):
        assert not img.refined and not img.evaluated and not img.formed
        assert img.zero_atoms == 0 and img.exps[0] == _sixteenths(key)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_key_fixes_the_first_rungs_outcome(self, built_families, identities, n):
        # replay both memos point by point on fresh images: a point whose
        # key was stored decides on its first rung alone, to the stored
        # outcome, with no atom, product or triple; integers only
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        stored, hits = {}, 0
        for a, b, den in _witness_draws(n, 2048, 0):
            key = _rung_key(a * a + b * b, den * den)
            assert key == (log2_bounds(a * a + b * b, den * den) if a or b else None)
            img = _Image(fam, a, b, den, factors)
            outcome = (img.vanishes(2), *_first_open_cone_scaled(img, n))
            if key in stored:
                self._first_rung_only(img, key)
                assert outcome == (False, True, stored[key])
                hits += 1
            elif not img.refined:
                # no draw of the proved family refutes the witness
                assert outcome[:2] == (False, True) and outcome[2] is not None
                stored[key] = outcome[2]
        assert hits > 1024
        for k in range(1, n):
            entry = _entry_scale(fam, k, Counter(), factors)
            stored, hits = {}, 0
            for a, b, den in islice(_ladder_points(fam, k, entry, 256, 0), 512):
                for tests in _ladder_tests(fam, factors, k):
                    key = len(tests), _rung_key(a * a + b * b, den * den)
                    img = _Image(fam, a, b, den, factors)
                    failed = img.first_failing(tests)
                    if key in stored:
                        self._first_rung_only(img, key[1])
                        assert failed == stored[key]
                        hits += 1
                    elif not img.refined and failed in (0, len(tests)):
                        stored[key] = failed
            assert hits > 256

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_window_key_fixes_the_cover(self, built_families, identities, n):
        # the chart window's memo replayed on fresh images of its stream: a
        # stored pair decides on the first rung alone, to the stored
        # (in_region, indices); every draw of the proved family is covered
        # below index n, and none refines
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        stored, hits = {}, 0
        for a, b, den in _window_draws(n, 512, 0):
            key = _rung_key(a * a + b * b, den * den)
            img = _Image(fam, a, b, den, factors)
            assert not img.vanishes(2)
            in_region, indices = _cover_indices_scaled(img, n + 1)
            assert in_region and indices and max(indices) < n
            if key in stored:
                self._first_rung_only(img, key)
                assert (in_region, indices) == stored[key]
                hits += 1
            elif not img.refined:
                stored[key] = in_region, indices
        assert hits > 448

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_memo_keys_are_rung_keys(
        self, monkeypatch, built_families, identities, root_certs, divisions, corollary_reports, n
    ):
        # every key the three loops read, in draw order, is the
        # ``_rung_key`` pair of the drawn lam, and the pair that an image
        # built from lam alone puts first in its exponent vector, in
        # sixteenths (around the exact |lam|^2's own, where it refines)
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        entries = {k: _entry_scale(fam, k, Counter(), factors) for k in range(1, n)}
        keys = []

        def read(loop):
            keys.clear()
            loop()
            return list(keys)

        # the loops read every key from the tables they build per call, so
        # each read goes through the spy; the entry probe builds its images
        # from lam alone and reads no table
        monkeypatch.setattr(disktrace, "_PairTable", _spied_tables(lambda key: key, keys))
        tally, images = Counter(), Counter()
        witness = read(lambda: cone_window_witness(fam, factors, samples=1024, tally=tally))
        ladders = {
            k: read(
                lambda: chart_cone_certificate(
                    fam, k, root_certs[n], identities[n], divisions[n], factors, tally=Counter()
                )
            )
            for k in range(1, n)
        }
        window = read(
            lambda: image_in_chart_window(
                fam, corollary_reports[n], identities[n], factors, images=images
            )
        )
        monkeypatch.undo()

        def expected(points):
            out = []
            for a, b, den in points:
                key = _rung_key(a * a + b * b, den * den)
                img = _Image(fam, a, b, den, factors)
                if img.refined and key is not None:
                    lo, hi = img.exps[0]
                    assert img.exps[0] == log16_bounds(a * a + b * b, den * den)
                    assert 16 * key[0] <= lo <= hi <= 16 * key[1]
                else:
                    assert img.exps[0] == _sixteenths(key)
                out.append(key)
            return out

        assert len(witness) == tally["points"] >= 1024
        assert witness == expected(_witness_draws(n, len(witness), 0))
        for k, got in ladders.items():
            assert len(got) >= 256
            assert got == expected(islice(_ladder_points(fam, k, entries[k], 256, 0), len(got)))
        assert len(window) == images["points"] == 64
        assert window == expected(_window_draws(n, len(window), 0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_keys_at_the_thresholds(
        self, monkeypatch, built_families, identities, corollary_reports, n
    ):
        # grid draws whose s = x^2 + y^2 is a power of two sit on the
        # threshold t = den2 2^e of their row for den2 = 2^30 and 2^60 (the
        # witness's scale 0, the window), where the pair is (e, e): the
        # loops read the same keys as ``_rung_key`` there too
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        points = [
            (x, y, x * x + y * y)
            for j in range(16)
            for x, y in ((1 << j, 0), (0, 1 << j), (1 << j, 1 << j))
        ]

        def grid(self):
            while True:
                yield from points

        keys = []
        monkeypatch.setattr(RationalSampler, "disk_grid", grid)
        monkeypatch.setattr(disktrace, "_PairTable", _spied_tables(lambda key: key, keys))
        cone_window_witness(fam, factors, samples=2 * len(points), seed=0)
        scales = RationalSampler("cone-window", n, 2 * len(points), 0).randints(0, 12)
        expected = []
        for i, key in enumerate(keys, 1):
            s = points[(i - 1) % len(points)][2]
            den2 = disktrace._WITNESS_DENS[next(scales) if i % 2 == 0 else 0][1]
            expected.append(_rung_key(s, den2))
        assert len(keys) >= 2 * len(points) and keys == expected
        assert sum(key is not None and key[0] == key[1] for key in keys) >= len(points)
        keys.clear()
        image_in_chart_window(fam, corollary_reports[n], identities[n], factors, samples=64)
        window = 1 << 2 * disktrace.GRID_BITS - 2
        assert len(keys) >= 64
        assert keys == [_rung_key(points[i % len(points)][2], window) for i in range(len(keys))]
        assert all(key[0] == key[1] for key in keys)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rung", [True, False])
    def test_handed_key_builds_the_same_image(
        self, built_families, identities, n, rung
    ):
        # an image handed the squared denominator and the key, as a loop
        # builds it, has the exponents, the failing indices and the counts
        # of one built from lam alone, on the witness's and the ladders'
        # points, with the map's rung and without it
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        factors = factors if rung else _horner(factors)
        assert (factors.rung is not None) is rung
        points = list(_witness_draws(n, 256, 0))
        for k in range(1, n):
            entry = _entry_scale(fam, k, Counter(), factors)
            points += islice(_ladder_points(fam, k, entry, 64, 0), 64)
        sequences = []
        for k in range(n):
            region, chart, cone, *single = _chart_tests(fam, factors, k)
            sequences += [region, chart, cone, *((test,) for test in single)]
        refined = 0
        for a, b, den in points:
            den2 = den * den
            handed = _Image(fam, a, b, den, factors, den2, _rung_key(a * a + b * b, den2))
            alone = _Image(fam, a, b, den, factors)
            assert handed.exps == alone.exps
            for tests in sequences:
                assert handed.first_failing(tests) == alone.first_failing(tests)
            counts = [Counter(), Counter()]
            _book_image(counts[0], handed)
            _book_image(counts[1], alone)
            assert counts[0] == counts[1]
            refined += handed.refined
        # without the rung every image refines, with it a few do
        assert (refined == len(points)) is not rung

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_certificates_and_counts_without_reuse(
        self, monkeypatch, built_families, identities, root_certs, divisions, corollary_reports, n
    ):
        # the witness, every chart-cone ladder and the chart window with the
        # memo, with keys that never match (the images keep their first
        # rung), with no key at all (every point refines), on a map without
        # its rung (every point refines, so no outcome is stored) and
        # without a proved chain (no rung either)
        fam = built_families[n]

        def run(rung=True):
            witness, ladder, window = Counter(), Counter(), Counter()
            factors = _image_factors(fam, identities[n])
            if not rung:
                factors = factors._replace(rung=None)
            certs = [
                cone_window_witness(fam, factors, samples=1024, tally=witness).to_json(),
                image_in_chart_window(
                    fam, corollary_reports[n], identities[n], factors, samples=256, images=window
                ).to_json(),
            ]
            for k in range(1, n):
                certs.append(
                    chart_cone_certificate(
                        fam, k, root_certs[n], identities[n], divisions[n], factors, tally=ladder
                    ).to_json()
                )
            return certs, (witness, ladder, window)

        certs, tallies = run()
        real = disktrace._rung_key

        def unequal(key):
            return None if key is None else _Unequal(key)

        # both seams: the loops' tables, and the key of an image built from
        # lam alone (the entry probe, booked in the ladder's tally)
        monkeypatch.setattr(disktrace, "_PairTable", _spied_tables(unequal))
        monkeypatch.setattr(disktrace, "_rung_key", lambda *args: unequal(real(*args)))
        fresh, fresh_tallies = run()
        assert fresh == certs
        for got, ref in zip(tallies, fresh_tallies, strict=True):
            assert ref["reused"] == 0 < got["reused"]
            assert {**got, "reused": 0} == ref
        monkeypatch.setattr(disktrace, "_PairTable", _spied_tables(lambda key: None))
        monkeypatch.setattr(disktrace, "_rung_key", lambda *args: None)
        keyless, keyless_tallies = run()
        assert keyless == certs
        for tally in keyless_tallies:
            assert tally["reused"] == 0 and tally["refined"] == tally["points"]
        monkeypatch.undo()
        plain, plain_tallies = run(rung=False)
        assert plain == certs and plain_tallies == keyless_tallies
        monkeypatch.setattr(disktrace, "_recursion_chain", lambda fam: None)
        horner, horner_tallies = run()
        assert horner == certs
        assert [tally["reused"] for tally in horner_tallies] == [0, 0, 0]



def _counts(tally):
    """The six image counts of a loop's tally, in the order of ``meta``."""
    return tuple(
        tally[c] for c in ("points", "reused", "refined", "products", "zero_atoms", "exact_fallbacks")
    )


def _unsafe_family(n, eps):
    """The family of size n at an eps that no validated run builds, with
    its identities and factor map."""
    fam = build_family(FamilyParams.build(n, eps=eps, allow_unsafe_eps=True))
    checks = exact_identity_checks(fam)
    return fam, checks, _image_factors(fam, checks)


class TestLoopCounts:
    """The witness and the window count their draws, the images they build
    and the draws they skip, and derive the accepted and reused counts."""

    # lam = 0 (a common zero, skipped) and one point of modulus about 0.56,
    # which the recursion exponents decide
    G = 1 << disktrace.GRID_BITS
    DRAWS = [(0, 0, 0)] + 3 * [(G // 4, G // 8, (G // 4) ** 2 + (G // 8) ** 2)]

    def _seam(self, monkeypatch):
        draws = self.DRAWS

        def grid(self):
            while True:
                yield from draws

        monkeypatch.setattr(RationalSampler, "disk_grid", grid)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_draws_are_skipped(
        self, monkeypatch, built_families, identities, corollary_reports, n
    ):
        # 6 samples take 8 draws, two of them lam = 0: each builds its image
        # (key None, so it refines) and is skipped; the window builds one
        # image of the other point and reuses its cover 5 times, the witness
        # reuses what its replay on fresh images reuses
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        x, y, s = self.DRAWS[1]
        self._seam(monkeypatch)
        images = Counter()
        cert = image_in_chart_window(
            fam, corollary_reports[n], identities[n], factors, samples=6, images=images
        )
        assert cert.status is Status.PROVED and cert.data["samples"] == 6
        window = _Image(fam, x, y, self.G >> 1, factors)
        assert _cover_indices_scaled(window, n + 1)[0] and not window.refined
        assert _counts(images) == (8, 5, 2, 0, 0, 0)

        tally = Counter()
        cert = cone_window_witness(fam, factors, samples=6, seed=0, tally=tally)
        scales = RationalSampler("cone-window", n, 6, 0).randints(0, 12)
        stored, reused, refined, counts = {}, 0, 0, Counter()
        for i in range(1, 9):
            a, b, t = self.DRAWS[(i - 1) % len(self.DRAWS)]
            den, den2 = disktrace._WITNESS_DENS[next(scales) if i % 2 == 0 else 0]
            key = _rung_key(t, den2)
            if key in stored:
                reused += 1
                counts[stored[key]] += 1
                continue
            img = _Image(fam, a, b, den, factors)
            refined += img.refined
            if img.vanishes(2):
                continue
            in_region, index = _first_open_cone_scaled(img, n)
            assert in_region and index is not None
            counts[index] += 1
            if not img.refined:
                stored[key] = index
        assert cert.status is Status.PROVED and cert.data["samples"] == 6
        assert _counts(tally)[:3] == (8, reused, refined) and reused > 0
        assert cert.data["index_counts"] == {str(k): counts[k] for k in range(n)}

    @pytest.mark.parametrize(
        "n,eps,counts", [(2, F(1), (1, 0, 1, 0, 0, 0)), (3, F(1, 3), (1, 0, 0, 0, 0, 0))]
    )
    def test_witness_refuting_on_its_first_draw(self, n, eps, counts):
        # the witness of the unsafe families of the CI pins refutes on its
        # first draw; the counts it books on the way out are the pinned
        # meta.witness counts
        fam, _, factors = _unsafe_family(n, eps)
        tally = Counter()
        cert = cone_window_witness(fam, factors, samples=2048, seed=0, tally=tally)
        assert cert.status is Status.REFUTED
        assert _counts(tally) == counts


def _values_at(fam, witness):
    """``(|f1|^2, |f2|^2, f1, f2)`` as Fractions at the lam of a ladder
    witness, (num_re + i num_im)/(2^den_pow2 10^den_log10)."""
    den = (1 << witness["den_pow2"]) * 10 ** witness["den_log10"]
    z1, z2 = (
        scaled_to_complex(eval_scaled(p, witness["num_re"], witness["num_im"], den))
        for p in (fam.f1, fam.f2)
    )
    return z1.abs2(), z2.abs2(), z1, z2


class TestLadderRefutations:
    """A ladder's two refutations render lam with its power of two 2^8, and
    the rendered point fails the test that each names, in Fractions."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_cone_refutation(self, built_families, root_certs, identities, divisions, k):
        # a seam: the n = 3 family's own polynomials with rho = 1/1000,
        # which no validated run allows, so the halved cone fails near
        # the entry scale while the point is in the approach region
        fam = built_families[3]
        p = fam.params
        narrow = Family(FamilyParams(p.n, p.r, F(1, 1000), p.eps, p.c, p.d, p.N), fam.form)
        factors = _image_factors(narrow, identities[3])
        cert = chart_cone_certificate(
            narrow, k, root_certs[3], identities[3], divisions[3], factors, tally=Counter()
        )
        assert cert.status is Status.REFUTED and "halved cone" in cert.detail
        witness = cert.data["witness"]
        assert witness["den_pow2"] == 8
        a1, a2, z1, z2 = _values_at(narrow, witness)
        assert a1 < p.r**2 * a2**k  # in the approach region
        half = F(1, 2000)
        assert a1 * a1 > half * half * (z2 ** (k + 1) - z1).abs2() * a2**k

    def test_membership_refutation(self):
        # verify --n 4 --eps 1/3 --unsafe-eps: chart 1's ladder meets a
        # point of its approach region that fails the entry half of chart 1
        # membership, |f2|^3 < r^2 |f1|
        config = RunConfig(n_list=(4,), eps_override=F(1, 3), allow_unsafe_eps=True, seed=0)
        report, _ = run_verify(config)
        (entry,) = report["per_n"]
        stages = entry["trace"]["condition_i"]["data"]["stages"]
        (cert,) = [
            stage for stage in stages
            if stage["name"] == "chart-cone" and "not in chart" in stage["detail"]
        ]
        witness = cert["data"]["witness"]
        assert cert["data"]["chart"] == 1 and witness["den_pow2"] == 8
        fam = build_family(FamilyParams.build(4, eps=F(1, 3), allow_unsafe_eps=True))
        a1, a2, _, _ = _values_at(fam, witness)
        r2 = fam.params.r ** 2
        assert a1 < r2 * a2
        assert a2**3 >= r2 * r2 * a1

def _exact_target_failure(fam, spot_checks=64):
    """The target loop with exact integers only: (checked, (radius, i) or None)."""
    nn, checked = fam.n * fam.n, 0
    for radius in (F(1), F(2)):
        for i, triple in enumerate(circle_triples(radius, spot_checks)):
            n1, q1 = scaled_abs2(eval_scaled(fam.f1, *triple))
            n2, q2 = scaled_abs2(eval_scaled(fam.f2, *triple))
            checked += 1
            if not (nn * n1 <= q1 and nn * n2 <= q2 and nn * n2 * q1 <= n1 * q2):
                return checked, (radius, i)
    return checked, None


def _exact_window_failure(unit):
    """The window's outer-circle loop with exact integers: first i with |unit| >= 1."""
    for i, triple in enumerate(circle_triples(F(2), 64)):
        q_num, q_den = scaled_abs2(eval_scaled(unit, *triple))
        if q_num >= q_den:
            return i
    return None


def _exact_base_failure(fam, samples):
    """The base chart's boundary loop with exact integers: first failing i."""
    half_rho = fam.params.rho / 2
    pn, pd = half_rho.numerator, half_rho.denominator
    diff = fam.f2 - fam.f1
    for i, triple in enumerate(circle_triples(F(2), samples)):
        n1, q1 = scaled_abs2(eval_scaled(fam.f1, *triple))
        nd, qd = scaled_abs2(eval_scaled(diff, *triple))
        if n1 * n1 * pd * pd * qd > pn * pn * nd * q1 * q1:
            return i
    return None


def _identities(*names):
    return CheckReport(tuple(CheckResult(name, True, "") for name in names))


def _fake(fam, f1, f2, factors=None):
    """The parameters of ``fam`` with the components (and factors) replaced."""
    factors = fam.P if factors is None else factors
    return SimpleNamespace(
        n=fam.n, f1=f1, f2=f2, params=fam.params, Pk=lambda j: factors[j - 1]
    )


def _unit(fam):
    """The power-ratio unit of the window, expanded from its product form."""
    return _side_poly(fam, cone_sides(fam, fam.n - 1)[1])


def _own_certificates(fam):
    """The root localizations and envelope chain of ``fam`` itself."""
    roots = family_root_certificates(fam)
    return roots, corollary_ineq_certificate(fam, annulus_bounds_certificate(fam, roots))


class TestBoundaryLoops:
    """The bracketed exact-circle-point loops against exact-integer ports.

    A proved certificate runs no loop; the split-out loops run here at the
    pipeline's loads as cross-checks, and on tampered families, whose
    proofs are missing, each certificate runs its loop and is refuted at
    the loop's witness.
    """

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_real_families_match_exact_loops(
        self, built_families, corollary_reports, identities, unit_circle_sups, n
    ):
        fam, cor, ids = built_families[n], corollary_reports[n], identities[n]
        tally = Counter()
        target = annulus_into_target(fam, cor, ids, tally=tally)
        assert target.status is Status.PROVED
        assert target.data["spot_checks"] == 0 and tally == Counter()
        assert target_spot_checks(fam) == SpotLoop(128, 0)
        assert _exact_target_failure(fam) == (128, None)
        window = image_in_chart_window(
            fam, cor, ids, _image_factors(fam, ids), samples=4, tally=tally
        )
        assert window.status is Status.PROVED
        assert window.data["boundary_checks"] == 0 and tally == Counter()
        assert window_spot_checks(fam) == SpotLoop(64, 0)
        assert _exact_window_failure(_unit(fam)) is None
        base = base_chart_certificate(fam, cor, ids, samples=256, tally=tally)
        assert base.status is Status.PROVED
        assert base.data["boundary_checks"] == 0 and tally == Counter()
        assert base_spot_checks(fam, samples=256) == SpotLoop(256, 0)
        assert _exact_base_failure(fam, 256) is None
        sup = _sup_metric_certificate(n, target)
        assert sup.status is Status.PROVED
        assert sup.data["entry"]["bound_squared"] == f"1/{n * n}"
        assert unit_circle_sups[n] <= F(1, n * n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_loops_run_where_a_proof_is_missing(
        self, built_families, corollary_reports, identities, n
    ):
        # an unproved chain, identities without product forms, or the chain
        # (and forms) of another family object: each certificate runs its
        # full loop, which passes, and proves nothing
        fam, cor, ids = built_families[n], corollary_reports[n], identities[n]
        weak = CorollaryReport(Status.INCONCLUSIVE, cor.checks, cor.detail, family=cor.family)
        bare = CheckReport(ids.checks)
        other = build_family(fam.params)
        own_ids = exact_identity_checks(other)
        cases = (
            (weak, ids, fam), (cor, bare, fam), (cor, ids, other), (cor, own_ids, other)
        )
        for chain, report, family in cases:
            tally = Counter()
            target = annulus_into_target(family, chain, report, tally=tally)
            window = image_in_chart_window(
                family, chain, report, _image_factors(family, report), samples=4, tally=tally
            )
            base = base_chart_certificate(family, chain, report, samples=256, tally=tally)
            assert [c.status for c in (target, window, base)] == [Status.INCONCLUSIVE] * 3
            assert target.data["spot_checks"] == 128
            assert window.data["boundary_checks"] == 64
            assert base.data["boundary_checks"] == 256
            assert tally == Counter(points=128 + 64 + 256)
        # with its own chain as well, the other family object is proved
        own_chain = corollary_ineq_certificate(
            other, annulus_bounds_certificate(other, family_root_certificates(other))
        )
        target = annulus_into_target(other, own_chain, own_ids)
        assert (target.status, target.data["spot_checks"]) == (Status.PROVED, 0)

    @pytest.mark.parametrize("scale", [F(2, 7), F(1, 4)])
    def test_tampered_target_refuted_at_the_exact_witness(
        self, built_families, corollary_reports, scale
    ):
        # |f1|^2 = scale^2 |1 + lam|^2: 2/7 leaves the target first at an
        # interior point of the unit circle, 1/4 touches 4 |f1|^2 <= 1 with
        # equality at lam = 1 and leaves it on |lam| = 2
        fam = built_families[2]
        f1 = Poly((scale, scale))
        fake = _fake(fam, f1, f1 * F(1, 4))
        checked, (radius, i) = _exact_target_failure(fake)
        assert (scale == F(1, 4)) == (radius == 2)
        assert 0 < i < 32 or radius == 2
        cert = annulus_into_target(fake, corollary_reports[2])
        assert cert.status is Status.REFUTED
        assert cert.data["witness"] == circle_points(radius, 64)[i].to_json()
        assert target_spot_checks(fake).witness == circle_points(radius, 64)[i]
        # a real family with these components and its own certificates: its
        # envelope chain reads only the parameters and is proved, but the
        # product forms of f1 and f2 are not, so the loop runs
        tampered = retouched(fam, f1=fake.f1, f2=fake.f2)
        _, corollary = _own_certificates(tampered)
        assert corollary.status is Status.PROVED
        ids = exact_identity_checks(tampered)
        assert ids.forms is None
        assert annulus_into_target(tampered, corollary, ids).data == cert.data
        # condition iii: the unit-circle witness refutes the sup bound 1/n,
        # and the metric there does exceed it; one on |lam| = 2 says nothing
        # about the unit circle
        sup = _sup_metric_certificate(2, cert)
        if radius == 1:
            assert sup.status is Status.REFUTED
            assert sup.data["entry"]["witness"] == cert.data["witness"]
            assert exact_sup(fake, [circle_triples(radius, 64)[i]]) > F(1, 4)
        else:
            assert sup.status is Status.INCONCLUSIVE
            assert "witness" not in sup.data["entry"]

    def test_target_equality_is_inside(self, built_families, corollary_reports):
        # n |f2| = |f1| at every point: the closed slope inequality holds with
        # equality, and the inexact brackets of the circle points overlap
        fam = built_families[2]
        f1 = Poly((F(1, 8), F(1, 16)))
        fake = _fake(fam, f1, f1 * F(1, 2))
        tally = Counter()
        cert = annulus_into_target(fake, corollary_reports[2], tally=tally)
        assert _exact_target_failure(fake) == (128, None)
        assert cert.data["spot_checks"] == 128
        assert tally["exact_fallbacks"] > 100

    def test_target_equality_of_ball_atoms_is_inside(self, built_families, corollary_reports):
        # the same equality with a TINY z^2 term, which puts f1 and f2 above
        # the size bound of exact atoms: the ball brackets overlap, and the
        # triples decide
        fam = built_families[2]
        f1 = Poly((F(1, 8), F(1, 16), TINY))
        fake = _fake(fam, f1, f1 * F(1, 2))
        assert exact_atoms((fake.f1, fake.f2)) == (False, False)
        tally = Counter()
        cert = annulus_into_target(fake, corollary_reports[2], tally=tally)
        assert _exact_target_failure(fake) == (128, None)
        assert cert.data["spot_checks"] == 128
        assert tally["exact_fallbacks"] > 100

    @pytest.mark.parametrize("scale", [F(2, 5), F(1, 3)])
    def test_tampered_window_refuted_at_the_exact_witness(
        self, built_families, corollary_reports, scale
    ):
        # the factor P_1 = scale (1 + lam) / eps^3 makes the unit eps^3 P_1
        # equal scale (1 + lam): |unit|^2 = scale^2 |1 + lam|^2 on |lam| = 2,
        # and 1/3 reaches 1 exactly at lam = 2 only, which the strict
        # |unit| < 1 refutes
        fam = built_families[2]
        unit = Poly((scale, scale))
        factors = (unit * (1 / fam.params.eps**3),)
        fake = _fake(fam, fam.f1, fam.f2, factors)
        assert _unit(fake) == unit
        i = _exact_window_failure(unit)
        assert 0 < i < 32
        ids = _identities("power-ratio")
        cert = image_in_chart_window(fake, corollary_reports[2], ids, _image_factors(fake, ids))
        assert cert.status is Status.REFUTED
        assert cert.data["witness"] == circle_points(F(2), 64)[i].to_json()
        assert window_spot_checks(fake).witness == circle_points(F(2), 64)[i]
        # a real family with this factor: its own localization of P_1 is not
        # proved, so neither is its envelope chain, and the loop runs
        tampered = retouched(fam, P=factors)
        roots, corollary = _own_certificates(tampered)
        assert roots[1].status is not Status.PROVED
        own = image_in_chart_window(tampered, corollary, ids, _image_factors(tampered, ids))
        assert own.data == cert.data

    def test_tampered_base_refuted_at_the_exact_witness(
        self, built_families, corollary_reports
    ):
        # f2 - f1 = 1 and |f1| = |1 + lam|/5: |f1|^2 <= (rho/2)|f2 - f1| fails
        # from an interior point of |lam| = 2 on
        fam = built_families[2]
        f1 = Poly((F(1, 5), F(1, 5)))
        fake = _fake(fam, f1, f1 + Poly.one())
        i = _exact_base_failure(fake, 256)
        assert 0 < i < 128
        ids = _identities("square-ratio", "difference-factorization")
        cert = base_chart_certificate(fake, corollary_reports[2], ids, samples=256)
        assert cert.status is Status.REFUTED
        assert cert.data["witness"] == circle_points(F(2), 256)[i].to_json()
        assert base_spot_checks(fake).witness == circle_points(F(2), 256)[i]
        # a real family with these components, its own (parameter-only, so
        # proved) envelope chain and identities without product forms
        tampered = retouched(fam, f1=fake.f1, f2=fake.f2)
        _, corollary = _own_certificates(tampered)
        assert corollary.status is Status.PROVED
        own = base_chart_certificate(tampered, corollary, ids, samples=256)
        assert own.data == cert.data

    def test_vanishing_first_component_refutes_the_sup(self):
        # f1 = lam^2 (1 - lam) of the eps = 1 family vanishes at lam = 1; its
        # own target certificate is refuted at lam = -i, where |f1|^2 = 2
        fam = build_family(FamilyParams.build(2, eps=1, allow_unsafe_eps=True))
        roots = family_root_certificates(fam)
        corollary = corollary_ineq_certificate(
            fam, annulus_bounds_certificate(fam, roots)
        )
        target = annulus_into_target(fam, corollary)
        assert target.status is Status.REFUTED
        assert target.data["witness"]["point"] == {"re": "0/1", "im": "-1/1"}
        sup = _sup_metric_certificate(2, target)
        assert sup.status is Status.REFUTED
        assert sup.data["entry"]["witness"] == target.data["witness"]
        assert sup.detail == (
            "the image leaves the target region on the unit circle for n in [2]"
        )
        assert target.data["witness"] == target_spot_checks(fam).witness.to_json()

    def test_refuted_family_runs_every_loop(self):
        # the eps = 1 family (verify --eps 1 --unsafe-eps): no certificate is
        # proved, so the trace runs each loop up to its first failing point,
        # at the split-out loop's witness; condition iii reuses the target's
        # unit-circle witness
        fam = build_family(FamilyParams.build(2, eps=1, allow_unsafe_eps=True))
        roots, corollary = _own_certificates(fam)
        ids = exact_identity_checks(fam)
        rep = trace_family(
            fam,
            root_certs=roots,
            corollary=corollary,
            identities=ids,
            divisions=[lemma_div_check(fam, 1)],
            samples=64,
        )
        loops = {
            "target": target_spot_checks(fam),
            "window": window_spot_checks(fam),
            "base": base_spot_checks(fam),
        }
        assert rep.boundary == {name: loop.counts() for name, loop in loops.items()}
        assert all(loop.witness is not None for loop in loops.values())
        target = rep.condition_ii
        assert target.status is Status.REFUTED
        assert target.data["witness"] == loops["target"].witness.to_json()
        assert rep.condition_iii.status is Status.REFUTED
        assert rep.condition_iii.data["entry"]["witness"] == target.data["witness"]
        annulus = annulus_bounds_certificate(fam, roots)
        assert annulus.status is Status.REFUTED
        assert annulus.counts()["points"] == annulus_spot_checks(fam, 1).points


class TestVanishingOrders:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orders(self, built_families, n):
        assert vanishing_orders(built_families[n]) == (n, 1)


class TestDivisibilityWindow:
    def test_quotient_n2(self, built_families):
        # f2^2 / f1 with remainder zero; the quotient is eps^3 (eps - lam)
        fam = built_families[2]
        eps = fam.params.eps
        quotient, remainder = divmod(fam.f2**2, fam.f1)
        assert remainder.is_zero
        assert quotient == Poly((eps**4, -(eps**3)))

    def test_quotient_n3(self, built_families):
        # f2^3 / f1 = eps^5 P1^2 P2, remainder zero
        fam = built_families[3]
        eps = fam.params.eps
        quotient, remainder = divmod(fam.f2**3, fam.f1)
        assert remainder.is_zero
        assert quotient == Poly.constant(eps**5) * fam.Pk(1) ** 2 * fam.Pk(2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_remainder_zero(self, built_families, identities, n):
        fam = built_families[n]
        quotient, remainder = divmod(fam.f2**n, fam.f1)
        assert remainder.is_zero
        # the window certificate checks its quotient in this product form
        assert quotient == _unit(fam)
        assert identities[n].passed("power-ratio")

    def test_status_proved(self, built_families, corollary_reports, identities):
        fam, ids = built_families[2], identities[2]
        cert = image_in_chart_window(
            fam, corollary_reports[2], ids, _image_factors(fam, ids), samples=32
        )
        assert cert.status is Status.PROVED
        assert cert.data["samples"] == 32

    def test_sampled_point_lands_low(self, built_families):
        # lam = 3/2 for n = 2: the image point's chart indices stay below n
        fam = built_families[2]
        lam = ComplexRational.of(F(3, 2))
        p = ChartPoint(fam.f1(lam), fam.f2(lam))
        cover = chart_cover_indices(p, fam.params.r, 6)
        assert cover.in_region
        assert cover.indices
        assert set(cover.indices) <= {0, 1}


class TestAnnulusIntoTarget:
    def test_named_spot_values(self, built_families):
        # n=2 at lam = 1: |f1| = eps|eps - 1| < 1/2, |f2/f1| = eps < 1/2
        fam = built_families[2]
        eps = fam.params.eps
        one = ComplexRational.of(1)
        z1, z2 = fam.f1(one), fam.f2(one)
        assert z1.abs2() == (eps * (1 - eps)) ** 2
        assert z1.abs2() < F(1, 4)
        # the ratio f2/f1 at lam = 1 reduces to eps exactly
        assert z2.abs2() * 1 == z1.abs2() * eps**2
        two = ComplexRational.of(2)
        w2 = fam.f2(two)
        assert w2.abs2() == (eps**2 * (2 - eps) * 2) ** 2
        assert w2.abs2() < F(1, 4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_proved(self, built_families, corollary_reports, identities, n):
        fam = built_families[n]
        cert = annulus_into_target(fam, corollary_reports[n], identities[n])
        assert cert.status is Status.PROVED
        # the proved envelopes need no boundary point; the split-out loop
        # tests 64 exact points on each of the two bounding circles
        assert cert.data["spot_checks"] == 0
        assert target_spot_checks(fam) == SpotLoop(128, 0)

    def test_unproved_prerequisite_is_inconclusive(
        self, built_families, corollary_reports
    ):
        cor = corollary_reports[2]
        weak = CorollaryReport(Status.INCONCLUSIVE, cor.checks, cor.detail, family=cor.family)
        cert = annulus_into_target(built_families[2], weak)
        assert cert.status is Status.INCONCLUSIVE


class TestConeCertificates:
    def test_chart_index_validation(
        self, built_families, root_certs, identities, divisions
    ):
        fam = built_families[2]
        prereqs = (
            root_certs[2], identities[2], divisions[2], _image_factors(fam, identities[2])
        )
        with pytest.raises(ValueError):
            chart_cone_certificate(fam, 0, *prereqs, tally=Counter())
        with pytest.raises(ValueError):
            chart_cone_certificate(fam, fam.n, *prereqs, tally=Counter())

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2)])
    def test_proved(self, built_families, root_certs, identities, divisions, n, k):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        cert = chart_cone_certificate(
            fam, k, root_certs[n], identities[n], divisions[n], factors,
            samples=48, tally=Counter(),
        )
        assert cert.status is Status.PROVED
        assert cert.data["samples"] == 48
        assert cert.data["core"]["status"] == "proved"

    def test_entry_scale_recorded(
        self, built_families, root_certs, identities, divisions
    ):
        fam = built_families[3]
        factors = _image_factors(fam, identities[3])
        cert = chart_cone_certificate(
            fam, 2, root_certs[3], identities[3], divisions[3], factors,
            samples=16, tally=Counter(),
        )
        # frozen: the approach region of chart 2 at n=3 opens near 10^-101
        assert cert.data["entry_scale"] == 101

    def test_scalar_reduction_equality_at_defaults(self, built_families):
        r, rho = built_families[2].params.r, built_families[2].params.rho
        assert r * r == (rho / 2) * (r - r * r)

    @pytest.mark.parametrize("n", [2, 3])
    def test_base_chart_proved(self, built_families, corollary_reports, identities, n):
        cert = base_chart_certificate(
            built_families[n], corollary_reports[n], identities[n], samples=64
        )
        assert cert.status is Status.PROVED

    def test_base_chart_degenerate_points(self, built_families):
        # at a common zero of f1 and f2 the boundary inequality reads 0 <= 0
        fam = built_families[2]
        eps = fam.params.eps
        for lam in (ComplexRational.of(0), ComplexRational.of(eps)):
            assert fam.f1(lam).is_zero
            assert fam.f2(lam).is_zero


def _expanded_common_zero(fam, z):
    """Whether f1 and f2 both vanish at z, by evaluating both."""
    a, b, den = as_scaled(z)
    return all(eval_scaled(p, a, b, den)[:2] == (0, 0) for p in (fam.f1, fam.f2))


class TestBaseChartForms:
    """The base chart's common zeros from the proved product forms, and the
    expanded f1 and f2 where the forms are not proved for the family."""

    @staticmethod
    def _degenerate(fam):
        root = fam.params.eps ** fam.params.c[-1]
        return ComplexRational.of(0), ComplexRational.of(root)

    @staticmethod
    def _spy(monkeypatch):
        """Record every ``(poly, triple)`` that ``disktrace`` evaluates."""
        seen, real = [], disktrace.eval_scaled

        def spy(poly, *triple):
            seen.append((poly, triple))
            return real(poly, *triple)

        monkeypatch.setattr(disktrace, "eval_scaled", spy)
        return seen

    @staticmethod
    def _reference(monkeypatch, *args, **kwargs):
        """``base_chart_certificate`` with every common zero evaluated on the
        expanded components."""
        with monkeypatch.context() as patch:
            patch.setattr(
                disktrace, "_common_zero", lambda fam, forms, z: _expanded_common_zero(fam, z)
            )
            return base_chart_certificate(*args, **kwargs)

    @pytest.mark.parametrize("n", SIZES)
    def test_forms_agree_with_the_expansion(self, built_families, identities, n):
        fam = built_families[n]
        forms = _forms_of(fam, identities[n])
        assert forms is not None
        # both degenerate points are common zeros, and a point that is not
        # one falls through to the expansion
        points = (*self._degenerate(fam), ComplexRational.of(F(1, 3), F(1, 7)))
        for z, want in zip(points, (True, True, False)):
            assert _common_zero(fam, forms, z) is want
            assert _common_zero(fam, None, z) is want
            assert _expanded_common_zero(fam, z) is want

    def test_proved_family_evaluates_neither_component(
        self, monkeypatch, built_families, corollary_reports, identities
    ):
        fam = built_families[4]
        want = self._reference(monkeypatch, fam, corollary_reports[4], identities[4])
        seen = self._spy(monkeypatch)
        cert = base_chart_certificate(fam, corollary_reports[4], identities[4])
        assert cert.status is Status.PROVED
        assert cert == want
        polys = [poly for poly, _ in seen]
        assert not any(poly is fam.f1 or poly is fam.f2 for poly in polys)
        # the root of the last factor is settled by that factor alone
        assert polys == [fam.Pk(3)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_identities_of_another_family_object_fall_back(
        self, monkeypatch, built_families, corollary_reports, identities, n
    ):
        fam = built_families[n]
        copy = Family(fam.params, fam.form)  # equal, but another object
        assert _forms_of(copy, identities[n]) is None
        args = (copy, corollary_reports[n], identities[n])
        want = self._reference(monkeypatch, *args, samples=64)
        seen = self._spy(monkeypatch)
        cert = base_chart_certificate(*args, samples=64)
        assert cert == want
        assert cert.data["degenerate_points"] == 2
        for z in self._degenerate(copy):
            for poly in (copy.f1, copy.f2):
                assert any(p is poly and t == as_scaled(z) for p, t in seen)

    @pytest.mark.parametrize(
        "component, witness",
        [("f1", 1), ("f2", 0)],  # the index of the degenerate point missed
    )
    def test_tampered_component_misses_a_common_zero(
        self, monkeypatch, built_families, corollary_reports, identities, component, witness
    ):
        # f1 + delta lam keeps lam = 0 and loses the root of P_2; f2 + delta
        # loses lam = 0.  The untampered family's forms would have passed
        # both, so they must not be borrowed.
        fam = built_families[3]
        delta = fam.params.eps**20
        bump = Poly.monomial(1, delta) if component == "f1" else Poly.constant(delta)
        tampered = retouched(
            fam, **{component: getattr(fam, component) + bump}
        )
        args = (tampered, corollary_reports[3], identities[3])
        want = self._reference(monkeypatch, *args, samples=64)
        seen = self._spy(monkeypatch)
        cert = base_chart_certificate(*args, samples=64)
        assert cert == want
        assert cert.status is Status.REFUTED
        assert cert.detail == "a common zero of the two components is missing"
        z = self._degenerate(fam)[witness]
        assert cert.data["witness"] == z.to_json()
        assert any(p is tampered.f1 and t == as_scaled(z) for p, t in seen)


class TestEntryModel:
    """The chart entry scales that decimal valuations predict, confirmed by
    two probes, against the doubling probe."""

    SCALES = {2: [9], 3: [9, 101], 4: [11, 111, 914], 5: [13, 134, 980, 7744]}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_model_scales(self, n):
        # the model reads the parameters alone, so n = 5 needs no build
        fam = SimpleNamespace(params=FamilyParams.build(n))
        assert [_entry_model(fam, k) for k in range(1, n)] == self.SCALES[n]

    @pytest.mark.parametrize("n", SIZES)
    def test_two_probes_match_the_doubling_probe(
        self, monkeypatch, built_families, identities, n
    ):
        fam = built_families[n]
        factors = _image_factors(fam, identities[n])
        tally = Counter()
        scales = [_entry_scale(fam, k, tally, factors) for k in range(1, n)]
        assert scales == self.SCALES[n]
        assert tally["points"] == 2 * (n - 1)  # one probe at e, one at e - 1
        monkeypatch.setattr(disktrace, "_entry_model", lambda fam, k: None)
        probed = Counter()
        assert [_entry_scale(fam, k, probed, factors) for k in range(1, n)] == scales
        assert probed["points"] > tally["points"]

    @pytest.mark.parametrize("shift", [-3, 3])
    def test_unconfirmed_model_falls_back(self, monkeypatch, built_families, shift):
        # too shallow a scale is no member; too deep a one has a member at
        # e - 1: either way the doubling probe decides
        fam = built_families[3]
        factors = _image_factors(fam)
        monkeypatch.setattr(disktrace, "_entry_model", lambda fam, k: 101 + shift)
        assert _entry_scale(fam, 2, Counter(), factors) == 101

    def test_non_decimal_eps_has_no_model(self):
        params = FamilyParams.build(3)
        eps = params.eps / 2
        fam = SimpleNamespace(
            params=FamilyParams(params.n, params.r, params.rho, eps, params.c, params.d, params.N)
        )
        assert _entry_model(fam, 1) is None

    def test_scale_beyond_the_cap_is_inconclusive(
        self, monkeypatch, built_families, root_certs, identities, divisions
    ):
        # chart 3 at n = 4 opens at 10^-914: below a cap of 512 digits
        # neither the model nor the probe reaches it
        monkeypatch.setattr(disktrace, "_ENTRY_CAP", 512)
        fam = built_families[4]
        factors = _image_factors(fam, identities[4])
        assert _entry_model(fam, 3) is None
        assert _entry_scale(fam, 3, Counter(), factors) is None
        cert = chart_cone_certificate(
            fam, 3, root_certs[4], identities[4], divisions[4], factors,
            samples=16, tally=Counter(),
        )
        assert cert.status is Status.INCONCLUSIVE
        assert cert.detail == "no entry scale found for the approach region of chart 3"


class TestConeWindowWitness:
    @staticmethod
    def _witness(built_families, identities, **kwargs):
        fam = built_families[2]
        return cone_window_witness(fam, _image_factors(fam, identities[2]), **kwargs)

    def test_proved_small_run(self, built_families, identities):
        wit = self._witness(built_families, identities, samples=200)
        assert wit.status is Status.PROVED
        assert wit.data["samples"] == 200

    def test_deterministic(self, built_families, identities):
        a = self._witness(built_families, identities, samples=64, seed=5)
        b = self._witness(built_families, identities, samples=64, seed=5)
        assert a.to_json() == b.to_json()

    def test_seed_changes_samples_not_verdict(self, built_families, identities):
        a = self._witness(built_families, identities, samples=64, seed=1)
        b = self._witness(built_families, identities, samples=64, seed=2)
        assert a.status is Status.PROVED and b.status is Status.PROVED


class TestEscapeWitness:
    """Condition iv: the vanishing orders (n, 1), whose gap n - 1 is the
    escape index; criterion 7 reads its strict increase across the traces."""

    def test_frozen_table(self, trace_reports):
        for n in SIZES:
            rep = trace_reports[n]
            condition = rep.condition_iv
            assert condition.status is Status.PROVED
            assert condition.detail == (
                f"components vanish to orders ({n}, 1); escape depth {n - 1}"
            )
            assert condition.data == {"orders": [n, 1], "escape_index": n - 1}
            assert rep.escape_index == n - 1

    def test_wrong_orders_refuted(
        self, built_families, root_certs, corollary_reports, identities, divisions
    ):
        # f1 times lam vanishes to order 3 at n = 2: condition iv is refuted
        # with the orders named, and so is the trace
        fam = built_families[2]
        tampered = retouched(fam, f1=fam.f1 * Poly.x())
        assert vanishing_orders(tampered) == (3, 1)
        rep = trace_family(
            tampered,
            root_certs=root_certs[2],
            corollary=corollary_reports[2],
            identities=identities[2],
            divisions=divisions[2],
            samples=64,
        )
        condition = rep.condition_iv
        assert condition.status is Status.REFUTED
        assert condition.detail == "components vanish to orders (3, 1) instead of (2, 1)"
        assert condition.data == {"orders": [3, 1], "escape_index": 2}
        assert rep.escape_index == 2
        assert rep.status is Status.REFUTED


class TestUniformConvergence:
    """Condition iii, the boundary sup metric, from the target certificate."""

    def test_bounds_and_monotonicity(self, trace_reports, unit_circle_sups):
        certs = [_sup_metric_certificate(n, trace_reports[n].condition_ii) for n in SIZES]
        for n, cert in zip(SIZES, certs):
            assert cert.status is Status.PROVED
            assert cert.detail == (
                "sup metric at most 1/n on the unit circle, from proved target containment"
            )
            assert cert.data == {
                "entry": {"n": n, "status": "proved", "bound_squared": f"1/{n * n}"}
            }
            # the certificate the trace reports
            assert cert == trace_reports[n].condition_iii
            assert 0 <= unit_circle_sups[n] <= F(1, n * n)
        sups = [unit_circle_sups[n] for n in SIZES]
        assert sups == sorted(sups, reverse=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sup_matches_fraction_max(self, n, built_families, unit_circle_sups):
        # the integer-triple sup of the fixture against Fraction evaluation
        fam = built_families[n]
        expected = F(0)
        for cpt in circle_points(F(1), 512):
            a1, a2 = fam.f1(cpt.point).abs2(), fam.f2(cpt.point).abs2()
            expected = max(expected, a1, a2, a2 / a1)
        assert unit_circle_sups[n] == expected <= F(1, n * n)

    def test_pair_comparison_is_exact(self):
        # the fixture's comparison of unreduced pairs, at ties, near ties
        # past its top-bit stages and apart, against Fractions
        from conftest import _pair_lt

        rng = random.Random(15)
        base = rng.getrandbits(9000) | 1
        cases = [((0, 3), (0, 5)), ((0, 3), (1, 5)), ((1, 5), (0, 3)), ((6, 4), (9, 6))]
        for _ in range(200):
            num, den = rng.getrandbits(rng.randrange(1, 9000)) + 1, base + rng.getrandbits(64)
            k = rng.randrange(1, 4)
            near = (num * den * k + rng.choice([-1, 0, 1]), den * den * k)
            cases += [((num, den), near), (near, (num, den)), ((num, den), (rng.getrandbits(50) + 1, 3))]
        for x, y in cases:
            assert _pair_lt(x, y) == (F(*x) < F(*y))

    def test_missing_target_cert_inconclusive(self):
        # a target certificate without a verdict proves no bound
        target = Certificate("annulus-into-target", Status.INCONCLUSIVE)
        cert = _sup_metric_certificate(2, target)
        assert cert.status is Status.INCONCLUSIVE
        assert cert.detail == "target containment is not proved for n in [2]"

    def test_refutation_without_a_unit_circle_witness_is_inconclusive(self):
        # an envelope refutation carries no point; the bound is not evaluated
        # at all, so the size alone will do
        envelope = Certificate("annulus-into-target", Status.REFUTED, "", {"target": {}})
        cert = _sup_metric_certificate(3, envelope)
        assert cert.status is Status.INCONCLUSIVE
        assert cert.data == {
            "entry": {"n": 3, "status": "inconclusive", "bound_squared": "1/9"}
        }
        assert cert.detail == "target containment is not proved for n in [3]"


class TestPipeline:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_conditions_proved(self, trace_reports, n):
        rep = trace_reports[n]
        assert rep.status is Status.PROVED
        for cert in rep.conditions:
            assert cert.status is Status.PROVED, cert.name

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_sample_plan(self, trace_reports, n):
        # the condition-I witness runs on at least 2000 accepted samples
        stages = trace_reports[n].condition_i.data["stages"]
        witness = next(s for s in stages if s["name"] == "cone-window-witness")
        assert witness["data"]["samples"] >= 2000

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sup_metric_bound(self, trace_reports, unit_circle_sups, n):
        condition = trace_reports[n].condition_iii
        assert condition.status is Status.PROVED
        assert condition.data["entry"]["bound_squared"] == f"1/{n * n}"
        assert unit_circle_sups[n] <= F(1, n * n)

    def test_sup_metric_nonincreasing(self, unit_circle_sups):
        sups = [unit_circle_sups[n] for n in (2, 3, 4)]
        assert sups == sorted(sups, reverse=True)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_escape_index(self, trace_reports, n):
        assert trace_reports[n].escape_index == n - 1

    def test_one_factor_map_per_family(
        self, monkeypatch, built_families, root_certs, corollary_reports, identities, divisions
    ):
        # each trace builds its factor map once and hands it to every stage,
        # so each chart's tests are compiled once per family: charts 0..n+1,
        # as the window scans one index beyond n, 15 over n = 2..4
        calls = Counter()
        for name in ("_image_factors", "_compile_chart"):

            def counted(*args, _real=getattr(disktrace, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(disktrace, name, counted)
        for n in SIZES:
            calls.clear()
            trace_family(
                built_families[n],
                root_certs=root_certs[n],
                corollary=corollary_reports[n],
                identities=identities[n],
                divisions=divisions[n],
            )
            assert calls == {"_image_factors": 1, "_compile_chart": n + 2}
        assert sum(n + 2 for n in SIZES) == 15

    def test_report_json_round_trip(self, trace_reports):
        import json

        payload = trace_reports[2].to_json()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload

    def test_deterministic(
        self, built_families, root_certs, corollary_reports, identities, divisions
    ):
        kwargs = dict(
            root_certs=root_certs[2],
            corollary=corollary_reports[2],
            identities=identities[2],
            divisions=divisions[2],
            samples=64,
        )
        a = trace_family(built_families[2], **kwargs)
        b = trace_family(built_families[2], **kwargs)
        assert a.to_json() == b.to_json()


class TestTamper:
    def test_oversized_epsilon_refutes(self):
        # scale epsilon up by 10^N (here to exactly 1): the pipeline must
        # flip at least one certificate to a refutation
        params = FamilyParams.build(2, eps=F(1), allow_unsafe_eps=True)
        fam = build_family(params)
        roots = family_root_certificates(fam)
        corollary = corollary_ineq_certificate(
            fam, annulus_bounds_certificate(fam, roots)
        )
        rep = trace_family(
            fam,
            root_certs=roots,
            corollary=corollary,
            identities=exact_identity_checks(fam),
            divisions=[lemma_div_check(fam, 1)],
            samples=64,
        )
        assert rep.status is Status.REFUTED
        assert any(c.status is Status.REFUTED for c in rep.conditions)

    def test_sampled_refutation_witness_is_pinned(self):
        # the refuting lambda is the sampler's integer draw rendered as exact
        # rationals, next to the Fraction chart cover of its image
        fam = build_family(FamilyParams.build(2, eps=1, allow_unsafe_eps=True))
        ids = _identities("square-ratio", "difference-factorization")
        wit = cone_window_witness(fam, _image_factors(fam, ids), samples=64)
        assert wit.status is Status.REFUTED
        assert wit.data["lambda"] == {"re": "-3299/16384", "im": "-2513/4096"}
        assert wit.data["cover"] == {
            "in_region": False,
            "indices": [],
            "detail": "point outside the covered region",
        }

    def test_sampled_refutation_through_the_factors(self):
        # the proved identities of the eps = 1 family bracket its images
        # through the factors; the refuting draw and its cover are the same
        fam = build_family(FamilyParams.build(2, eps=1, allow_unsafe_eps=True))
        ids = exact_identity_checks(fam)
        assert _image_factors(fam, ids).polys == fam.P
        wit = cone_window_witness(fam, _image_factors(fam, ids), samples=64)
        plain_ids = _identities("square-ratio", "difference-factorization")
        plain = cone_window_witness(fam, _image_factors(fam, plain_ids), samples=64)
        assert wit.status is Status.REFUTED
        assert wit.data == plain.data
        assert wit.data["lambda"] == {"re": "-3299/16384", "im": "-2513/4096"}

    def test_window_sampled_refutation_is_pinned(self):
        # zero factors make a unit of zero, which passes the outer-circle
        # check, so the components of the eps = 1 family are refuted by the
        # window's sampled covers; the witness renders lambda and its cover
        # from the image's exact triples
        fam = build_family(FamilyParams.build(2, eps=1, allow_unsafe_eps=True))
        roots = family_root_certificates(fam)
        corollary = corollary_ineq_certificate(
            fam, annulus_bounds_certificate(fam, roots)
        )
        fake = _fake(fam, fam.f1, fam.f2, (Poly.zero(),))
        identities = _identities("power-ratio")
        cert = image_in_chart_window(
            fake, corollary, identities, _image_factors(fake, identities), samples=16, seed=0
        )
        assert cert.status is Status.REFUTED
        assert cert.data["lambda"] == {"re": "3993/8192", "im": "26577/16384"}
        assert cert.data["cover"] == {
            "in_region": False,
            "indices": [],
            "detail": "point outside the covered region",
        }

    def test_certificate_worst_status_wins(self):
        proved = Certificate("a", Status.PROVED, "", {})
        assert proved.status is Status.PROVED
        refuted = Certificate("b", Status.REFUTED, "bad", {})
        assert refuted.status is Status.REFUTED
