"""Tests for the certified-analysis layer.

Reference values (quotients, root counts, bound constants) were computed with
an independent sympy/numpy oracle before being frozen here.
"""

import dataclasses
import heapq
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noricert.arith import Poly, eval_scaled, scaled_abs2
from noricert.certify import (
    AnnulusReport,
    CirclePoint,
    Dominance,
    Status,
    _abs2_at,
    _chord_upper,
    _cone_combination,
    _cone_identity,
    _degree_bound,
    _identity_points,
    _identity_sides,
    _perturbation_big,
    _proved_equal,
    _root_bracket,
    annulus_bounds_certificate,
    annulus_bounds_for_factor,
    certify_dominance,
    chart_point,
    circle_points,
    circle_triples,
    DEFAULT_BUDGET,
    cone_factor_certificate,
    corollary_ineq_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
    lipschitz_on_disk,
    power_ratio_unit,
    sqrt_lower,
    sqrt_upper,
)
from noricert.bounds import _p_lt
from noricert.family import FamilyParams, build_family, default_family

F = Fraction

nonneg_fractions = st.fractions(
    min_value=0, max_value=F(10**6), max_denominator=10**6
)


class TestSqrtBounds:
    @given(nonneg_fractions)
    @settings(max_examples=200, deadline=None)
    def test_bracketing(self, q):
        lo, hi = sqrt_lower(q), sqrt_upper(q)
        assert lo <= hi
        assert lo * lo <= q <= hi * hi

    def test_exact_on_perfect_squares(self):
        q = F(9, 4)
        assert sqrt_lower(q) == sqrt_upper(q) == F(3, 2)

    def test_tightness(self):
        q = F(2)
        assert sqrt_upper(q) - sqrt_lower(q) <= F(1, 2**63)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_lower(F(-1))


class TestCircleCharts:
    def test_points_are_on_circle(self):
        radius = F(1, 2)
        pts = circle_points(radius, 16)
        assert len(pts) == 16
        assert len({(p.point.re, p.point.im) for p in pts}) == 16
        assert {p.chart for p in pts} == {0, 1}
        for p in pts:
            assert p.point.abs2() == radius * radius

    def test_count_validation(self):
        with pytest.raises(ValueError):
            circle_points(F(1), 7)
        with pytest.raises(ValueError):
            circle_points(F(1), 0)

    @pytest.mark.parametrize("radius", [F(1), F(2), F(1, 3)])
    @pytest.mark.parametrize("count", [2, 4, 6, 64, 512])
    def test_triples_closed_under_conjugation(self, radius, count):
        # chart 0 pairs t with -t, the t = -1 points of the two charts pair
        # with each other, and lam = radius, -radius (t = 0, present when
        # count/2 is even) are their own conjugates
        pts = circle_triples(radius, count)
        assert len(set(pts)) == count
        assert {(a, -b, den) for a, b, den in pts} == set(pts)
        real = 2 if count % 4 == 0 else 0
        assert sum(1 for _, b, _ in pts if b == 0) == real
        assert sum(1 for _, b, _ in pts if b >= 0) == (count + real) // 2

    def test_lipschitz_bound_property(self):
        p = Poly([F(1, 3), F(-2), F(0), F(5, 7), F(1)])
        radius = F(3, 2)
        m = lipschitz_on_disk(p, radius)
        params = [F(i, 7) - 1 for i in range(15)]
        for i, s in enumerate(params):
            for t in params[i + 1 :]:
                a, b = chart_point(radius, s), chart_point(radius, t)
                dv2 = (p(a) - p(b)).abs2()
                dz2 = (a - b).abs2()
                assert dv2 <= m * m * dz2


class TestDominance:
    def test_proved_with_squared_margin(self):
        dom = certify_dominance(Poly.x(), Poly.constant(F(1, 10**8)), F(1, 2))
        assert dom.status is Status.PROVED
        assert dom.witness is None
        # margin is in squared-modulus units: here abs2(dominant) = 1/4
        # everywhere, so the certified squared gap sits strictly below 1/4
        # but well above 1/8 already at the coarsest subdivision.
        assert dom.margin is not None
        assert F(1, 8) < dom.margin < F(1, 4)

    def test_refuted_with_exact_witness(self):
        dom = certify_dominance(Poly.x(), Poly.constant(F(3, 5)), F(1, 2))
        assert dom.status is Status.REFUTED
        w = dom.witness.point
        assert w.abs2() == F(1, 4)
        assert dom.dominated(w).abs2() >= dom.dominant(w).abs2()

    def test_constant_one_refuted_on_large_circle(self):
        dom = certify_dominance(Poly.one(), Poly.x(), F(2))
        assert dom.status is Status.REFUTED
        assert dom.witness.point.abs2() == F(4)

    def test_budget_monotonicity(self):
        dominated = Poly.constant(F(499, 1000))
        starved = certify_dominance(Poly.x(), dominated, F(1, 2), budget=10)
        assert starved.status is Status.INCONCLUSIVE
        assert (starved.arcs, starved.subdivisions) == (26, 10)
        assert starved.detail == "subdivision budget 10 exhausted with 26 open arcs"
        fed = certify_dominance(Poly.x(), dominated, F(1, 2), budget=20000)
        assert fed.status is Status.PROVED

    def test_zero_polynomials_rejected(self):
        with pytest.raises(ValueError):
            certify_dominance(Poly.zero(), Poly.x(), F(1))
        with pytest.raises(ValueError):
            certify_dominance(Poly.x(), Poly.zero(), F(1))

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            certify_dominance(Poly.x(), Poly.one(), F(0))


def _reference_dominance(dominant, dominated, radius, budget=DEFAULT_BUDGET):
    """The Fraction reference: every arc decided with reduced Fractions.

    This is the arc loop that decided every arc before the 192-bit brackets:
    the bounds ``sqrt_lower(b2) - M * chord`` and ``sqrt_upper(s2) + N *
    chord``, the squared margin and the running minimum are all Fractions.
    """
    chart_pairs = (
        (dominant, dominated),
        (dominant.map_variable_negated(), dominated.map_variable_negated()),
    )
    m_dominant = lipschitz_on_disk(dominant, radius)
    m_dominated = lipschitz_on_disk(dominated, radius)
    heap, counter, margin, refuted = [], 0, None, None

    def assess(chart, lo, hi):
        nonlocal margin, refuted
        mid = (lo + hi) / 2
        w = chart_point(radius, mid)
        big, small = chart_pairs[chart]
        b2, s2 = F(*_abs2_at(big, w)), F(*_abs2_at(small, w))
        if s2 >= b2:
            refuted = CirclePoint(chart, mid, w if chart == 0 else -w)
            return None
        chord = _chord_upper(radius, lo, hi, mid)
        lower_big = sqrt_lower(b2) - m_dominant * chord
        upper_small = sqrt_upper(s2) + m_dominated * chord
        if lower_big > upper_small:
            arc_margin = lower_big * lower_big - upper_small * upper_small
            margin = arc_margin if margin is None else min(margin, arc_margin)
            return arc_margin
        return lower_big - upper_small

    def push(chart, lo, hi):
        nonlocal counter
        verdict = assess(chart, lo, hi)
        if verdict is None:
            return False
        if verdict <= 0:
            counter += 1
            heapq.heappush(heap, (verdict, counter, chart, lo, hi))
        return True

    def result(status, margin, witness, detail):
        return Dominance(
            status, dominant, dominated, radius, subdivisions, arcs, margin,
            witness, detail,
        )

    arcs = subdivisions = 0
    step = F(2, 8)
    for chart in (0, 1):
        for i in range(8):
            lo = -1 + i * step
            arcs += 1
            if not push(chart, lo, lo + step):
                return result(
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
                return result(
                    Status.REFUTED, None, refuted,
                    "inequality fails at an exact circle point",
                )
    if heap:
        return result(
            Status.INCONCLUSIVE, None, None,
            f"subdivision budget {budget} exhausted with {len(heap)} open arcs",
        )
    return result(Status.PROVED, margin, None, "all arcs certified")


def _assert_matches_reference(dominant, dominated, radius, budget=DEFAULT_BUDGET):
    dom = certify_dominance(dominant, dominated, radius, budget=budget)
    ref = _reference_dominance(dominant, dominated, radius, budget)
    assert dom.to_json() == ref.to_json()
    assert dom.margin == ref.margin
    return dom


def _default_dominance_calls(fam):
    """Every dominance certificate the pipeline builds for ``fam``, and chart 0."""
    n, eps, c = fam.n, fam.params.eps, fam.params.c
    calls = [
        (_perturbation_big(fam, k), Poly.constant(eps ** c[k - 1]), F(1, 2**k))
        for k in range(n - 2, 0, -1)
    ]
    for k in range(n - 1):
        _, unit_part, dominant = _cone_combination(fam, k)
        calls.append((dominant, unit_part, F(2)))
    calls.append((Poly.one(), power_ratio_unit(fam), F(2)))
    return calls


@st.composite
def _dominance_cases(draw):
    """A dominant part, a dominated part and a radius.

    The dominant part is a monomial, whose squared modulus on the circle is
    a perfect square, optionally with smaller lower terms, or a constant; the
    dominated part is scaled down by up to 10^-300.
    """
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=10**6)
    degree = draw(st.integers(0, 5))
    dominant = Poly.monomial(degree, draw(coeffs.filter(bool)))
    if degree and draw(st.booleans()):
        dominant = dominant + Poly(draw(st.lists(coeffs, max_size=degree))) * F(1, 8)
    scale = F(1, 10 ** draw(st.sampled_from([0, 1, 3, 40, 300])))
    dominated = Poly(draw(st.lists(coeffs, min_size=1, max_size=7))) * scale
    if dominant.is_zero or dominated.is_zero:
        dominated = Poly.constant(scale)
    radius = draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=64))
    return dominant, dominated, radius


class TestDominanceAgainstReference:
    """The bracket-decided dominance equals the Fraction reference exactly:
    the same report bytes and the same exact margin."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_default_family_calls(self, n, built_families):
        for dominant, dominated, radius in _default_dominance_calls(built_families[n]):
            dom = _assert_matches_reference(dominant, dominated, radius)
            assert dom.status is Status.PROVED
            # only the arcs whose bracket can hold the minimum get an exact margin
            assert dom.exact_margins <= 4 < dom.arcs

    def test_starved_family_call_keeps_the_exact_heap_order(self, built_families):
        # the n = 4 root localization of factor 1 needs 16 subdivisions; a
        # starved budget leaves open arcs whose count depends on the order in
        # which the exact heap keys pop
        fam = built_families[4]
        big, small = _perturbation_big(fam, 1), Poly.constant(fam.params.eps ** fam.params.c[0])
        for budget in (1, 5, 12, 15):
            dom = _assert_matches_reference(big, small, F(1, 2), budget)
            assert dom.status is Status.INCONCLUSIVE
        # the case of the pinned report of verify --n 4 --budget 12
        dom = certify_dominance(big, small, F(1, 2), budget=12)
        assert (dom.arcs, dom.subdivisions) == (28, 12)
        assert dom.detail == "subdivision budget 12 exhausted with 4 open arcs"

    @settings(max_examples=80, deadline=None)
    @given(_dominance_cases(), st.sampled_from([0, 3, 64]))
    def test_drawn_polynomials(self, case, budget):
        _assert_matches_reference(*case, budget=budget)

    def test_constant_dominant_and_tiny_dominated(self):
        # b2 = 1 everywhere: its bracket is a point, and the margins 1 - s^2
        # differ only far below 2^-192
        tiny = Poly([F(3, 10**400), F(-1, 10**401), F(7, 10**399)])
        dom = _assert_matches_reference(Poly.one(), tiny, F(2))
        assert dom.status is Status.PROVED
        assert dom.exact_arcs == 0 and dom.exact_margins < dom.arcs

    def test_equal_bounds_keep_the_arc_open(self):
        # x against the constant c = 1 - chord of the end arcs on |z| = 1:
        # there lower_big = sqrt_lower(1) - 1 * chord equals upper_small =
        # sqrt_upper(c^2) exactly, so those arcs must stay open
        radius, lo, hi = F(1), F(-1), F(-3, 4)
        chord = _chord_upper(radius, lo, hi, (lo + hi) / 2)
        c = 1 - chord
        assert sqrt_lower(F(1)) - chord == sqrt_upper(c * c)
        for budget in (0, 4, DEFAULT_BUDGET):
            dom = _assert_matches_reference(Poly.x(), Poly.constant(c), radius, budget)
        assert dom.status is Status.PROVED
        starved = certify_dominance(Poly.x(), Poly.constant(c), radius, budget=0)
        assert starved.detail == "subdivision budget 0 exhausted with 16 open arcs"

    def test_gap_below_the_bracket_precision_is_certified_exactly(self):
        # lower_big exceeds upper_small by 2^-300 on the end arcs: the
        # brackets cannot see it, the exact integers certify those arcs
        # without subdividing them
        radius, lo, hi = F(1), F(-1), F(-3, 4)
        c = 1 - _chord_upper(radius, lo, hi, (lo + hi) / 2) - F(1, 2**300)
        dom = _assert_matches_reference(Poly.x(), Poly.constant(c), radius)
        assert dom.status is Status.PROVED
        assert dom.exact_arcs >= 4

    def test_equal_bounds_beyond_the_bracket_precision(self):
        # the same tie with operands of more than 192 bits that share a large
        # factor: 1 + z/D on |z| = D has b2 = 256/113 at the end-arc midpoint,
        # so sqrt_lower(b2) lies below sqrt(b2) by up to 2^-64/113, far more
        # than the 192-bit precision; only the slack keeps the tie undecided
        big_d = 10**70
        radius, lo, hi = F(big_d), F(-1), F(-3, 4)
        mid = (lo + hi) / 2
        dominant = Poly([1, F(1, big_d)])
        b_num, b_den = _abs2_at(dominant, chart_point(radius, mid))
        assert b_den.bit_length() > 192 and F(b_num, b_den) == F(256, 113)
        chord = _chord_upper(radius, lo, hi, mid)
        c = sqrt_lower(F(256, 113)) - lipschitz_on_disk(dominant, radius) * chord
        assert 0 < c and sqrt_upper(c * c) == c
        dominated = Poly.constant(c)
        for budget in (0, 3, DEFAULT_BUDGET):
            _assert_matches_reference(dominant, dominated, radius, budget)
        starved = certify_dominance(dominant, dominated, radius, budget=0)
        assert starved.exact_arcs >= 1

    @settings(max_examples=300, deadline=None)
    @given(nonneg_fractions, st.integers(1, 2**200), st.sampled_from([1, 10**70]))
    def test_sqrt_slack(self, q, k, scale):
        # sqrt_lower and sqrt_upper lie within min(1, q) 2^-64 of sqrt(q),
        # the slack the unreduced brackets add; checked by exact squares
        q = q / scale
        slack = min(F(1), q) / 2**64
        lower, upper = sqrt_lower(q), sqrt_upper(q)
        assert (lower + slack) ** 2 >= q and lower * lower <= q
        assert upper - slack <= 0 or (upper - slack) ** 2 <= q
        # the bracket of the unreduced operands holds the one-sided root
        num, den = q.numerator * k, q.denominator * k
        for root, value in ((sqrt_lower, lower), (sqrt_upper, upper)):
            lo, hi = _root_bracket(num, den, root)
            assert F(lo[0]) * F(2) ** lo[1] <= value <= F(hi[0]) * F(2) ** hi[1]

    def test_dyadic_root_is_a_point(self):
        assert _root_bracket(7, 7, sqrt_lower) == _root_bracket(1, 1, sqrt_upper)
        lo, hi = _root_bracket(9, 4, sqrt_upper)
        assert not _p_lt(lo, hi) and not _p_lt(hi, lo)


class TestRootLocalization:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_factors_localized(self, n, built_families, root_certs):
        fam = built_families[n]
        certs = root_certs[n]
        d = fam.params.d
        assert set(certs) == set(range(1, n))
        for k in range(1, n):
            cert = certs[k]
            assert cert.status is Status.PROVED, cert.detail
            assert cert.radius == F(1, 2**k)
            assert cert.count == cert.degree == d[k - 1]
        assert certs[n - 1].method == "exact-root"

    def test_oversize_eps_refutes_linear_factor(self):
        params = FamilyParams.build(2, eps=F(1), allow_unsafe_eps=True)
        fam = build_family(params)
        certs = family_root_certificates(fam)
        assert certs[1].status is Status.REFUTED

    def test_oversize_eps_refutes_dominance(self):
        # eps = 2/5: the linear factor root eps^4 is still inside |z| < 1/4,
        # but the dominance step for the first factor fails outright
        params = FamilyParams.build(3, eps=F(2, 5), allow_unsafe_eps=True)
        fam = build_family(params)
        certs = family_root_certificates(fam)
        assert certs[2].status is Status.PROVED
        assert certs[1].status is Status.REFUTED
        assert certs[1].dominance.witness is not None

    def test_prerequisite_gap_is_inconclusive(self):
        params = FamilyParams.build(3, eps=F(1), allow_unsafe_eps=True)
        fam = build_family(params)
        certs = family_root_certificates(fam)
        assert certs[2].status is Status.REFUTED  # root at 1 outside |z| < 1/4
        assert certs[1].status is Status.INCONCLUSIVE


def _exact_annulus_failure(p, deg, per_circle):
    """The annulus spot checks with exact integers: first failing (radius, i)."""
    lo2, up2 = F(1, 4**deg), F(9**deg)
    for radius in (F(1), F(2)):
        for i, triple in enumerate(circle_triples(radius, per_circle)):
            num, den = scaled_abs2(eval_scaled(p, *triple))
            if not (
                lo2.numerator * den < num * lo2.denominator
                and num * up2.denominator < up2.numerator * den
            ):
                return radius, i
    return None


class TestAnnulusBounds:
    def test_bound_constants_frozen(self, built_families, annulus_reports):
        rep = annulus_reports[3]
        assert rep.status is Status.PROVED
        a1, a2 = rep.factor(1), rep.factor(2)
        assert (a1.lower, a1.upper) == (F(1, 8), F(27))
        assert (a2.lower, a2.upper) == (F(1, 2), F(3))
        assert a1.status is a2.status is Status.PROVED
        assert a1.spot_checks == 512

    @pytest.mark.parametrize("n", [2, 4])
    def test_all_indices_proved(self, n, annulus_reports):
        rep = annulus_reports[n]
        assert rep.status is Status.PROVED, rep.detail
        assert len(rep.per_factor) == n - 1
        for bounds in rep.per_factor:
            assert bounds.status is Status.PROVED, bounds.detail

    def test_spot_check_refutation(self, built_families, root_certs):
        fam = built_families[2]
        tampered = dataclasses.replace(fam, P=(Poly([F(-3), F(-1)]),))
        rep = annulus_bounds_certificate(tampered, root_certs[2])
        assert rep.status is Status.REFUTED
        assert "exact point" in rep.factor(1).detail

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spot_checks_match_exact_loop(self, n, built_families, annulus_reports):
        fam = built_families[n]
        for k, bounds in enumerate(annulus_reports[n].per_factor, start=1):
            assert _exact_annulus_failure(fam.Pk(k), fam.params.d[k - 1], 256) is None
            assert (bounds.spot_checks, bounds.exact_fallbacks) == (512, 0)
        assert annulus_reports[n].counts() == {
            "points": 512 * (n - 1),
            "exact_fallbacks": 0,
        }

    @pytest.mark.parametrize("scale", [F(1), F(1, 2)])
    def test_tampered_factor_refuted_at_the_exact_witness(
        self, built_families, root_certs, scale
    ):
        # |P_1|^2 = scale^2 |1 + z|^2 drops to (1/2)^2 in the left half of
        # |z| = 1 (scale 1) or stays above it up to the point z = -1, where it
        # vanishes (scale 1/2): both fail first inside chart 1
        fam = built_families[2]
        tampered = dataclasses.replace(fam, P=(Poly([scale, scale]),))
        radius, i = _exact_annulus_failure(tampered.Pk(1), 1, 256)
        assert radius == 1 and 128 < i < 256
        cert = annulus_bounds_for_factor(tampered, 1, root_certs[2][1])
        assert cert.status is Status.REFUTED
        point = circle_points(radius, 256)[i].point
        assert cert.detail == f"bound fails at exact point {point} on |z| = 1"
        assert cert.spot_checks == i + 1

    def test_missing_prerequisite_is_inconclusive(self, built_families, root_certs):
        fam = built_families[2]
        broken = dataclasses.replace(root_certs[2][1], status=Status.INCONCLUSIVE)
        cert = annulus_bounds_for_factor(fam, 1, broken)
        assert cert.status is Status.INCONCLUSIVE


class TestScaledEvaluationOracle:
    """The integer-scaled abs2 behind the circle certificates equals the
    Fraction-Horner reference at the points those certificates use.

    At n = 4 the Fraction reference costs about 0.2 s per point on the
    degree-31 cofactor unit, so a stride thins the points there.
    """

    STRIDE = {2: 1, 3: 1, 4: 4}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dominance_arc_midpoints(self, n, built_families, root_certs):
        fam = built_families[n]
        pairs = [
            (cert.dominance.dominant, cert.dominance.dominated, cert.dominance.radius)
            for cert in root_certs[n].values()
            if cert.dominance is not None
        ]
        for k in range(n - 1):
            _, unit_part, dominant = _cone_combination(fam, k)
            pairs.append((dominant, unit_part, F(2)))
        # the last chart's cofactor: one against the power-ratio unit
        pairs.append((Poly.one(), power_ratio_unit(fam), F(2)))
        for dominant, dominated, radius in pairs:
            charts = (
                (dominant, dominated),
                (dominant.map_variable_negated(), dominated.map_variable_negated()),
            )
            for polys in charts:
                # midpoints of the eight initial arcs of each chart
                for i in range(0, 8, self.STRIDE[n]):
                    w = chart_point(radius, F(2 * i + 1, 8) - 1)
                    for p in polys:
                        assert F(*_abs2_at(p, w)) == p(w).abs2()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_annulus_spot_points(self, n, built_families):
        fam = built_families[n]
        for k in range(1, n):
            p = fam.Pk(k)
            for radius in (F(1), F(2)):
                for cp in circle_points(radius, 256)[:: self.STRIDE[n]]:
                    assert F(*_abs2_at(p, cp.point)) == p(cp.point).abs2()


ABSENT_ANNULUS = AnnulusReport(Status.INCONCLUSIVE, (), "not built")


class TestCorollaryChains:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_chains_hold(self, n, built_families, annulus_reports):
        rep = corollary_ineq_certificate(built_families[n], annulus_reports[n])
        assert rep.status is Status.PROVED, [c.name for c in rep.failed()]
        assert {c.name for c in rep.checks} == {
            "f1-upper-vs-r-over-n",
            "f2-upper-vs-r2-over-n",
            "f2-scaled-vs-f1-lower",
            "f2-upper-below-one",
            "f2-upper-vs-f1-lower",
            "scalar-window",
            "outer-boundary-chain",
        }

    def test_scalar_window_is_equality_at_defaults(self, built_families):
        rep = corollary_ineq_certificate(built_families[2], ABSENT_ANNULUS)
        check = next(c for c in rep.checks if c.name == "scalar-window")
        assert check.passed and check.lhs == check.rhs

    def test_missing_annulus_is_inconclusive(self, built_families):
        rep = corollary_ineq_certificate(built_families[2], ABSENT_ANNULUS)
        assert rep.status is Status.INCONCLUSIVE

    def test_oversize_eps_refutes_chain(self):
        params = FamilyParams.build(2, eps=F(1), allow_unsafe_eps=True)
        fam = build_family(params)
        rep = corollary_ineq_certificate(fam, ABSENT_ANNULUS)
        assert rep.status is Status.REFUTED
        assert rep.failed()


class TestDivisionWitness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_index_divides(self, n, built_families):
        fam = built_families[n]
        for k in range(1, n):
            witness = lemma_div_check(fam, k)
            assert witness.status is Status.PROVED, (k, witness.detail)
            assert witness.quotient is not None

    def test_first_index_quotient_is_one(self, built_families):
        for n in (2, 3, 4):
            witness = lemma_div_check(built_families[n], 1)
            assert witness.quotient == Poly.one()

    def test_frozen_quotient_n3(self, built_families):
        fam = built_families[3]
        eps = fam.params.eps
        witness = lemma_div_check(fam, 2)
        assert witness.quotient == Poly([F(1), F(0), -(eps**3)])

    def test_index_validation(self, built_families):
        with pytest.raises(ValueError):
            lemma_div_check(built_families[3], 0)
        with pytest.raises(ValueError):
            lemma_div_check(built_families[3], 3)


class TestConeFactorization:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_chart_proved(self, n, built_families, root_certs, identities, divisions):
        fam = built_families[n]
        for k in range(n):
            cert = cone_factor_certificate(
                fam, k, root_certs[n], identities[n], divisions[n]
            )
            assert cert.status is Status.PROVED, (k, cert.detail)
            assert cert.identity_ok and cert.divisibility_ok
            if k < n - 1:
                assert cert.localized == fam.params.d[k]
                # the cofactor degree is read from the division witness
                assert f"degree {divisions[n][k].quotient.degree} " in cert.detail

    def test_frozen_cofactor_n3(self, built_families):
        fam = built_families[3]
        eps = fam.params.eps
        c_poly, _, _ = _cone_combination(fam, 1)
        quotient, remainder = divmod(c_poly, fam.Pk(2))
        assert remainder.is_zero
        assert quotient == Poly([F(1), F(0), -(eps**3)])

    def test_chart_index_validation(self, built_families, identities, divisions):
        with pytest.raises(ValueError):
            cone_factor_certificate(built_families[2], 5, {}, identities[2], divisions[2])

    def test_divisions_in_chart_order(self, built_families, root_certs, identities, divisions):
        reordered = divisions[3][::-1]
        with pytest.raises(ValueError):
            cone_factor_certificate(
                built_families[3], 0, root_certs[3], identities[3], reordered
            )

    def test_refuted_division_refutes(self, built_families, root_certs, identities, divisions):
        # a refuted witness still carries the sides of its combination
        failed = dataclasses.replace(
            divisions[3][1], status=Status.REFUTED, quotient=None,
            detail="nonzero remainder",
        )
        cert = cone_factor_certificate(
            built_families[3], 1, root_certs[3], identities[3],
            [divisions[3][0], failed],
        )
        assert cert.status is Status.REFUTED
        assert cert.identity_ok and not cert.divisibility_ok
        assert cert.detail == "factor k+1 does not divide the combination"

    @staticmethod
    def _assert_tampered_refuted(n, k, built_families, root_certs, divisions):
        fam = built_families[n]
        tampered = dataclasses.replace(fam, f1=fam.f1 + Poly.one())
        cert = cone_factor_certificate(
            tampered, k, root_certs[n], exact_identity_checks(tampered), divisions[n]
        )
        assert cert.status is Status.REFUTED
        assert not cert.identity_ok
        assert cert.detail == "factorization identity fails"

    def test_tampered_identity_refuted(self, built_families, root_certs, divisions):
        self._assert_tampered_refuted(2, 0, built_families, root_certs, divisions)

    @pytest.mark.parametrize("k", [1, 2])
    def test_tampered_identity_refuted_deep_charts(
        self, k, built_families, root_certs, divisions
    ):
        self._assert_tampered_refuted(4, k, built_families, root_certs, divisions)


def _expanded_identities(fam, unit):
    """The exact identities by coefficient comparison: the reference."""
    n, eps = fam.n, fam.params.eps
    f1, f2, z = fam.f1, fam.f2, Poly.x()
    diff = Poly.constant(eps) * z * fam.Pk(1) ** 2
    square = Poly.constant(eps) * z ** (2 * n - 1)
    for j in range(2, n):
        diff = diff * fam.Pk(j)
        square = square * fam.Pk(j) ** (2 * j - 1)
    return {
        "power-ratio": f2**n == f1 * unit,
        "difference-factorization": f2 - f1 == diff,
        "square-ratio": f1 * f1 == (f2 - f1) * square,
    }


def _expanded_cone_identity(fam, k):
    g = Poly.constant(fam.params.eps) * Poly.monomial(k + 1)
    for j in range(1, fam.n):
        g = g * fam.Pk(j) ** min(j, k + 1)
    c_poly, _, _ = _cone_combination(fam, k)
    return fam.f2 ** (k + 1) - fam.f1 == g * c_poly


def _evaluated_identities(fam, unit):
    return {
        name: _proved_equal(lhs, rhs)
        for name, (lhs, rhs) in _identity_sides(fam, unit).items()
    }


def _evaluated_cone_identity(fam, k):
    return _cone_identity(fam, k, _cone_combination(fam, k)[0])


def _tampered(fam, kind):
    """The family with f2 doubled ("f2-doubled") or one more term in P_j ("Pj")."""
    if kind == "f2-doubled":
        return dataclasses.replace(fam, f2=fam.f2 * 2)
    j = int(kind[1:])
    bumped = fam.Pk(j) + Poly.monomial(1, fam.params.eps)
    return dataclasses.replace(fam, P=fam.P[: j - 1] + (bumped,) + fam.P[j:])


class TestEvaluationProof:
    """The identities proved at D + 1 integers agree with their expansions."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_expansion(self, n, built_families, identities):
        fam = built_families[n]
        expanded = _expanded_identities(fam, power_ratio_unit(fam))
        assert expanded == dict.fromkeys(expanded, True)
        assert {c.name: c.passed for c in identities[n].checks} == expanded
        for k in range(n - 1):
            assert _expanded_cone_identity(fam, k)
            assert _evaluated_cone_identity(fam, k)

    @pytest.mark.parametrize(
        "n, kind",
        [(n, "f2-doubled") for n in (2, 3)]
        + [(n, f"P{j}") for n in (2, 3) for j in range(1, n)],
    )
    def test_tampered_agrees_with_expansion(self, n, kind, built_families):
        fam = _tampered(built_families[n], kind)
        unit = power_ratio_unit(fam)
        evaluated = _evaluated_identities(fam, unit)
        assert evaluated == _expanded_identities(fam, unit)
        assert not evaluated["power-ratio"]
        for k in range(n - 1):
            assert not _evaluated_cone_identity(fam, k)
            assert not _expanded_cone_identity(fam, k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_off_by_one_unit_in_last_place(self, n, built_families, identities):
        fam = built_families[n]
        unit = identities[n].unit
        i = unit.degree // 2
        bad = unit + Poly.monomial(i, F(1, unit.scaled()[1]))
        assert bad.coeff(i) != unit.coeff(i) and bad.degree == unit.degree
        assert not _evaluated_identities(fam, bad)["power-ratio"]

    @pytest.mark.parametrize("kind", ["f2-doubled", "P1", "P2", "P3"])
    def test_tampered_rejected_n4(self, kind, built_families):
        fam = _tampered(built_families[4], kind)
        rep = exact_identity_checks(fam)
        assert not rep.passed("power-ratio")
        for k in range(3):
            assert not _evaluated_cone_identity(fam, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_bound_from_the_polynomials(self, n, built_families):
        # A term c * prod (z - x) over the D + 1 points of the power-ratio
        # identity leaves f1 unchanged at every one of them, so a check whose
        # D came from the family's tables would accept the tampered f1.  Its
        # degree is D + 1, which the degree bound reads off f1 itself.
        fam = built_families[n]
        unit = power_ratio_unit(fam)
        lhs, rhs = _identity_sides(fam, unit)["power-ratio"]
        points = _identity_points(_degree_bound(lhs + rhs))
        bump = Poly.one()
        for x in points:
            bump = bump * Poly([-x, 1])
        tampered = dataclasses.replace(fam, f1=fam.f1 + bump)
        assert tampered.f1.degree == len(points) > fam.f1.degree
        for x in points:
            assert tampered.f1(x) == fam.f1(x)
            assert tampered.f2(x) ** n == tampered.f1(x) * unit(x)
        rep = exact_identity_checks(tampered)
        assert not rep.passed("power-ratio")
        assert not rep.all_passed

    def test_points_are_distinct_integers(self):
        for degree in range(8):
            points = list(_identity_points(degree))
            assert len(set(points)) == degree + 1
            assert points[0] == -(degree // 2)


class TestExactIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identities_hold(self, n, built_families):
        rep = exact_identity_checks(built_families[n])
        assert rep.all_passed, [c.name for c in rep.failed()]
        assert {c.name for c in rep.checks} == {
            "power-ratio",
            "difference-factorization",
            "square-ratio",
        }

    def test_tampering_detected(self, built_families):
        fam = built_families[3]
        tampered = dataclasses.replace(fam, f2=fam.f2 * 2)
        rep = exact_identity_checks(tampered)
        assert not rep.all_passed
