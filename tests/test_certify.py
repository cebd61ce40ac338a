"""Tests for the certified-analysis layer.

Reference values (quotients, root counts, bound constants) were computed with
an independent sympy/numpy oracle before being frozen here.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noricert.arith import Poly, as_scaled, eval_scaled, scaled_abs2
from noricert import certify
from noricert.certify import (
    AnnulusReport,
    DivisionWitness,
    IdentityReport,
    ProductForms,
    RootLocalization,
    SpotLoop,
    Status,
    _cone_combination,
    _cone_identity,
    _identity_cofactors,
    _proved_forms,
    _identity_products,
    _identity_sides,
    _negated,
    _normal_form,
    _side_bounds,
    _side_poly,
    _side_product,
    annulus_bounds_certificate,
    annulus_bounds_for_factor,
    annulus_spot_checks,
    circle_points,
    circle_triples,
    cone_factor_certificate,
    cone_sides,
    corollary_ineq_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
    root_product_dominance,
)
from noricert.cli import RunConfig, _run_family
import noricert.family as family_module
from noricert.family import (
    Family,
    FamilyForm,
    FamilyParams,
    build_family,
    recursion_sides,
    structural_checks,
)
from conftest import relocalized, retouched

F = Fraction


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
        # the recursions hold whatever eps is, so the divisions are still
        # derived from them
        witnesses = [lemma_div_check(fam, k) for k in (1, 2)]
        assert [(w.method, w.status, w.degree) for w in witnesses] == [
            ("recursion", Status.PROVED, 0),
            ("recursion", Status.PROVED, 2),
        ]

    def test_prerequisite_gap_is_inconclusive(self):
        params = FamilyParams.build(3, eps=F(1), allow_unsafe_eps=True)
        fam = build_family(params)
        certs = family_root_certificates(fam)
        assert certs[2].status is Status.REFUTED  # root at 1 outside |z| < 1/4
        assert certs[1].status is Status.INCONCLUSIVE

    def test_factor_off_its_recursion_is_inconclusive(self, built_families):
        # P_1 + eps^9 z^2 still has a dominance proved from the deeper factor,
        # but the recursion P_1 = eps - z^2 P_2, compared by expansion, fails
        fam = built_families[3]
        bumped = fam.Pk(1) + Poly.monomial(2, fam.params.eps**9)
        certs = family_root_certificates(retouched(fam, P=(bumped, fam.Pk(2))))
        assert certs[1].dominance.status is Status.PROVED
        assert certs[1].status is Status.INCONCLUSIVE
        assert certs[1].detail == "factor does not match its defining recursion"


def _dominances(fam):
    """The dominances the pipeline certifies for ``fam``, and chart 0's.

    Each is (dominant, dominated, R).
    """
    n = fam.n
    return [
        *((*recursion_sides(fam, k), F(1, 2**k)) for k in range(n - 2, 0, -1)),
        *((*cone_sides(fam, k), F(2)) for k in range(n)),
    ]


def _hand_built(*factors):
    """The factors P_1, P_2, ... of a family, without the rest of it."""
    return SimpleNamespace(n=len(factors) + 1, Pk=lambda j: factors[j - 1])


def _localized(fam, j, radius, degree, status=Status.PROVED):
    return RootLocalization(
        j, radius, degree, degree, status, "perturbation", None, family=fam
    )


class TestRootProductDominance:
    """Rouché by root products: the bounds hold, and a failed bound refutes
    only at a violating point."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bounds_enclose_the_exact_moduli(self, n, built_families, root_certs):
        fam = built_families[n]
        for dominant, dominated, radius in _dominances(fam):
            for side in (dominant, dominated):
                lower, upper = _side_bounds(fam, side, radius, root_certs[n])
                poly = _side_poly(fam, side)
                for triple in circle_triples(radius, 64):
                    exact = F(*scaled_abs2(eval_scaled(poly, *triple)))
                    assert lower * lower <= exact <= upper * upper
            dom = root_product_dominance(fam, dominant, dominated, radius, root_certs[n])
            assert dom.status is Status.PROVED
            assert dom.lower == _side_bounds(fam, dominant, radius, root_certs[n])[0]
            assert dom.upper == _side_bounds(fam, dominated, radius, root_certs[n])[1]

    def test_bounds_are_nearly_attained_by_roots_at_the_localization_radius(self):
        # P_1 = (z - a)^3 with a just inside |z| < 1/2: on |z| = 1 the side
        # P_1^2 comes within a factor 1 + 10^-4 of its lower bound at z = 1
        # and of its upper bound at z = -1
        a = F(1, 2) - F(1, 10**6)
        p = Poly([-a, 1]) ** 3
        fam, side = _hand_built(p), (1, 0, ((1, 2),))
        certs = {1: _localized(fam, 1, F(1, 2), 3)}
        lower, upper = _side_bounds(fam, side, F(1), certs)
        assert (lower, upper) == (F(1, 2) ** 6, F(3, 2) ** 6)
        values = [
            F(*scaled_abs2(eval_scaled(p, *triple))) ** 2
            for triple in circle_triples(F(1), 64)
        ]
        assert lower**2 <= min(values) < lower**2 * (1 + F(1, 10**4))
        assert upper**2 * (1 - F(1, 10**4)) < max(values) <= upper**2

    def test_unproved_root_certificate_is_inconclusive(self):
        # |z| = 1 > 1/10 on the whole circle, so no point refutes
        fam, dominant, dominated = _hand_built(Poly.x()), (1, 0, ((1, 1),)), (F(1, 10), 0, ())
        for status in (Status.INCONCLUSIVE, Status.REFUTED):
            certs = {1: _localized(fam, 1, F(1, 2), 1, status)}
            dom = root_product_dominance(fam, dominant, dominated, F(1), certs)
            assert dom.status is Status.INCONCLUSIVE
            assert dom.lower is None and dom.upper is None and dom.witness is None
            assert dom.detail.startswith("factors [1] lack")
        dom = root_product_dominance(fam, dominant, dominated, F(1), {})
        assert dom.status is Status.INCONCLUSIVE
        certs = {1: _localized(fam, 1, F(1, 2), 1)}
        proved = root_product_dominance(fam, dominant, dominated, F(1), certs)
        assert proved.status is Status.PROVED
        assert (proved.lower, proved.upper) == (F(1, 2), F(1, 10))

    def test_non_unit_leading_coefficient_is_inconclusive(self):
        # |2z| = 2 on |z| = 1, far above 1/10, but the root-product bound
        # needs |leading| = 1
        fam = _hand_built(Poly([0, 2]))
        certs = {1: _localized(fam, 1, F(1, 2), 1)}
        dom = root_product_dominance(fam, (1, 0, ((1, 1),)), (F(1, 10), 0, ()), F(1), certs)
        assert dom.status is Status.INCONCLUSIVE
        assert dom.lower is None and dom.witness is None

    def test_failed_bound_without_violation_is_inconclusive(self):
        # |z| = 1 on the circle, but a root anywhere in |z| < 1/2 only
        # guarantees 1/2, which is not above 3/4
        fam = _hand_built(Poly.x())
        certs = {1: _localized(fam, 1, F(1, 2), 1)}
        dom = root_product_dominance(fam, (1, 0, ((1, 1),)), (F(3, 4), 0, ()), F(1), certs)
        assert dom.status is Status.INCONCLUSIVE
        assert (dom.lower, dom.upper, dom.witness) == (F(1, 2), F(3, 4), None)
        assert dom.detail == (
            "root-product bound fails: |dominant| >= 5.00000e-01 is not above "
            "|dominated| <= 7.50000e-01; no violation at 16 circle points"
        )
        assert dom.to_json()["lower"] == "5.00000e-01"

    def test_certificates_of_another_family_are_not_used(self, built_families, root_certs):
        # P_1 + 1/2 keeps the degree and the leading coefficient of P_1 but
        # not its roots: with the certificates of the untampered family the
        # bound would prove the chart-2 cone dominance on |z| = 2
        fam = built_families[3]
        tampered = retouched(fam, P=(fam.Pk(1) + Poly.constant(F(1, 2)), fam.Pk(2)))
        sides = cone_sides(tampered, 2)
        for certs in (root_certs[3], family_root_certificates(tampered)):
            dom = root_product_dominance(tampered, *sides, F(2), certs)
            assert dom.status is Status.INCONCLUSIVE
            assert dom.lower is None and dom.witness is None
        assert root_product_dominance(fam, *sides, F(2), root_certs[3]).status is Status.PROVED

    def test_violation_refutes_at_the_first_failing_point(self):
        # |z - 1/4| <= 1 on the right part of |z| = 1
        p = Poly([F(-1, 4), 1])
        fam = _hand_built(p)
        certs = {1: _localized(fam, 1, F(1, 2), 1)}
        failing = [
            i for i, triple in enumerate(circle_triples(F(1), 16))
            if F(*scaled_abs2(eval_scaled(p, *triple))) <= 1
        ]
        assert 0 < failing[0] < len(failing) < 16
        dom = root_product_dominance(fam, (1, 0, ((1, 1),)), (1, 0, ()), F(1), certs)
        assert dom.status is Status.REFUTED
        assert dom.witness == circle_points(F(1), 16)[failing[0]]
        assert (dom.lower, dom.upper) == (F(1, 2), F(1))


class TestDominance:
    """The certificate on sides with no family factor: c z^m against c'."""

    def test_proved_with_squared_margin(self):
        dom = root_product_dominance(
            _hand_built(), (1, 1, ()), (F(1, 10**8), 0, ()), F(1, 2), {}
        )
        assert dom.status is Status.PROVED
        assert dom.witness is None
        # |z|^2 = 1/4 on the whole circle, so the certified gap of squared
        # moduli sits strictly below 1/4 but well above 1/8
        assert (dom.lower, dom.upper) == (F(1, 2), F(1, 10**8))
        assert F(1, 8) < dom.lower**2 - dom.upper**2 < F(1, 4)

    def test_refuted_with_exact_witness(self):
        dom = root_product_dominance(_hand_built(), (1, 1, ()), (F(3, 5), 0, ()), F(1, 2), {})
        assert dom.status is Status.REFUTED
        w = dom.witness.point
        assert w.abs2() == F(1, 4)
        assert F(3, 5) ** 2 >= w.abs2()
        assert dom.witness == circle_points(F(1, 2), 16)[0]

    def test_constant_one_refuted_on_large_circle(self):
        dom = root_product_dominance(_hand_built(), (1, 0, ()), (1, 1, ()), F(2), {})
        assert dom.status is Status.REFUTED
        assert dom.witness.point.abs2() == F(4)

    def test_zero_polynomials_rejected(self):
        with pytest.raises(ValueError):
            root_product_dominance(_hand_built(), (0, 0, ()), (1, 1, ()), F(1), {})
        with pytest.raises(ValueError):
            root_product_dominance(_hand_built(), (1, 1, ()), (F(0), 2, ()), F(1), {})

    def test_bad_radius_rejected(self):
        for radius in (F(0), F(-1, 2)):
            with pytest.raises(ValueError):
                root_product_dominance(_hand_built(), (1, 1, ()), (1, 0, ()), radius, {})


def _reference_dominance(fam, dominant, dominated, radius, root_certs):
    """The Fraction reference: (status, lower, upper, witness).

    The bounds read the leading coefficient and the degree of each side's
    expansion; the circle points are decided by Fraction Horner on the
    factors.
    """
    sides = (dominant, dominated)
    used = sorted({j for _, _, factors in sides for j, _ in factors})
    usable = all(
        root_certs.get(j) is not None
        and root_certs[j].family is fam
        and root_certs[j].status is Status.PROVED
        and root_certs[j].index == j
        and root_certs[j].count == root_certs[j].degree == fam.Pk(j).degree
        and abs(fam.Pk(j).leading) == 1
        for j in used
    )
    lower = upper = None
    if usable:
        bounds = []
        for c, m, factors in sides:
            expanded = Poly.monomial(m, c)
            for j, e in factors:
                expanded = expanded * fam.Pk(j) ** e
            assert expanded.degree == m + sum(fam.Pk(j).degree * e for j, e in factors)
            scale = abs(expanded.leading) * radius**m
            low, high = scale, scale
            for j, e in factors:
                rho = root_certs[j].radius
                for _ in range(fam.Pk(j).degree * e):
                    low *= max(radius - rho, F(0))
                    high *= radius + rho
            bounds.append((low, high))
        lower, upper = bounds[0][0], bounds[1][1]
        if lower > upper:
            return Status.PROVED, lower, upper, None

    def abs2(side, w):
        c, m, factors = side
        value = F(c) ** 2 * w.abs2() ** m
        for j, e in factors:
            value *= fam.Pk(j)(w).abs2() ** e
        return value

    for cp in circle_points(radius, 16):
        if abs2(dominated, cp.point) >= abs2(dominant, cp.point):
            return Status.REFUTED, lower, upper, cp
    return Status.INCONCLUSIVE, lower, upper, None


def _assert_matches_reference(fam, dominant, dominated, radius, root_certs):
    dom = root_product_dominance(fam, dominant, dominated, radius, root_certs)
    reference = _reference_dominance(fam, dominant, dominated, radius, root_certs)
    assert (dom.status, dom.lower, dom.upper, dom.witness) == reference
    return dom


@st.composite
def _dominance_cases(draw):
    """Hand-built factors with real roots in |z| < rho_j, two sides of them
    and a circle; some root certificates unproved or too small."""
    radius = draw(st.sampled_from([F(1, 4), F(1, 2), F(1), F(2)]))
    factors, certs = [], {}
    for j in range(1, draw(st.integers(1, 3)) + 1):
        rho = draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 2)]))
        roots = draw(st.lists(
            st.fractions(min_value=-rho, max_value=rho, max_denominator=64).filter(
                lambda a, rho=rho: abs(a) < rho
            ),
            min_size=1, max_size=3,
        ))
        p = Poly.constant(draw(st.sampled_from([1, -1, 2])))
        for a in roots:
            p = p * Poly([-a, 1])
        factors.append(p)
        status = draw(st.sampled_from([Status.PROVED] * 3 + [Status.INCONCLUSIVE]))
        count = p.degree if draw(st.booleans()) else p.degree - 1
        certs[j] = (j, rho, p.degree, count, status, "perturbation", None)

    def side():
        c = draw(st.fractions(min_value=F(1, 1000), max_value=4, max_denominator=1000))
        powers = draw(st.lists(
            st.tuples(st.integers(1, len(factors)), st.integers(1, 2)),
            max_size=len(factors), unique_by=lambda t: t[0],
        ))
        return c, draw(st.integers(0, 2)), tuple(powers)

    fam = _hand_built(*factors)
    certs = {j: RootLocalization(*cert, family=fam) for j, cert in certs.items()}
    return fam, side(), side(), radius, certs


class TestDominanceAgainstReference:
    """The certificate equals the Fraction reference exactly: the same
    status, bounds and witness."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_default_family_calls(self, n, built_families, root_certs):
        fam, certs = built_families[n], root_certs[n]
        # each root certificate widened to its circle: the bounds no longer
        # prove, and the circle points decide
        for dominant, dominated, radius in _dominances(fam):
            dom = _assert_matches_reference(fam, dominant, dominated, radius, certs)
            assert dom.status is Status.PROVED
            swapped = _assert_matches_reference(fam, dominated, dominant, radius, certs)
            assert swapped.status is Status.REFUTED
            assert swapped.witness == circle_points(radius, 16)[0]
            coarse = {
                j: relocalized(cert, radius=radius) for j, cert in certs.items()
            }
            widened = _assert_matches_reference(fam, dominant, dominated, radius, coarse)
            assert widened.status is not Status.REFUTED

    @settings(max_examples=60, deadline=None)
    @given(_dominance_cases())
    def test_drawn_polynomials(self, case):
        _assert_matches_reference(*case)


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
        # derived from the root localizations: no boundary point is tested
        assert a1.spot_checks == a2.spot_checks == 0
        assert annulus_spot_checks(built_families[3], 1).points == 512

    @pytest.mark.parametrize("n", [2, 4])
    def test_all_indices_proved(self, n, annulus_reports):
        rep = annulus_reports[n]
        assert rep.status is Status.PROVED, rep.detail
        assert len(rep.per_factor) == n - 1
        for bounds in rep.per_factor:
            assert bounds.status is Status.PROVED, bounds.detail

    def test_spot_check_refutation(self, built_families, root_certs):
        fam = built_families[2]
        tampered = retouched(fam, P=(Poly([F(-3), F(-1)]),))
        rep = annulus_bounds_certificate(tampered, root_certs[2])
        assert rep.status is Status.REFUTED
        assert "exact point" in rep.factor(1).detail

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spot_checks_match_exact_loop(self, n, built_families, annulus_reports):
        # the proved bounds run no loop; the split-out loop at 512 points per
        # factor passes wherever they are proved, every point decided on
        # ball brackets, and agrees with the exact-integer port
        fam = built_families[n]
        for k, bounds in enumerate(annulus_reports[n].per_factor, start=1):
            assert bounds.status is Status.PROVED
            assert (bounds.spot_checks, bounds.exact_fallbacks) == (0, 0)
            assert _exact_annulus_failure(fam.Pk(k), fam.params.d[k - 1], 256) is None
            assert annulus_spot_checks(fam, k) == SpotLoop(512, 0)
        assert annulus_reports[n].counts() == {"points": 0, "exact_fallbacks": 0}

    def test_root_certificate_of_another_family_is_not_trusted(
        self, built_families, root_certs
    ):
        # the same polynomials in another family object: the derivation
        # lacks its prerequisite, so the loop runs, passes and proves nothing
        fam = build_family(built_families[2].params)
        cert = annulus_bounds_for_factor(fam, 1, root_certs[2][1])
        assert cert.status is Status.INCONCLUSIVE
        assert cert.spot_checks == 512
        own = annulus_bounds_for_factor(fam, 1, family_root_certificates(fam)[1])
        assert (own.status, own.spot_checks) == (Status.PROVED, 0)

    @pytest.mark.parametrize("scale", [F(1), F(1, 2)])
    def test_tampered_factor_refuted_at_the_exact_witness(
        self, built_families, root_certs, scale
    ):
        # |P_1|^2 = scale^2 |1 + z|^2 drops to (1/2)^2 in the left half of
        # |z| = 1 (scale 1) or stays above it up to the point z = -1, where it
        # vanishes (scale 1/2): both fail first inside chart 1
        fam = built_families[2]
        tampered = retouched(fam, P=(Poly([scale, scale]),))
        radius, i = _exact_annulus_failure(tampered.Pk(1), 1, 256)
        assert radius == 1 and 128 < i < 256
        point = circle_points(radius, 256)[i].point
        assert annulus_spot_checks(tampered, 1) == SpotLoop(
            i + 1, 0, F(1), circle_points(radius, 256)[i]
        )
        # the tampered family's own localization is not proved (P_1 is not
        # eps - z), and the certificate of the untampered family is not its
        # own: either way the loop runs and refutes at the same point
        own = family_root_certificates(tampered)[1]
        assert own.status is not Status.PROVED
        for root_cert in (own, root_certs[2][1]):
            cert = annulus_bounds_for_factor(tampered, 1, root_cert)
            assert cert.status is Status.REFUTED
            assert cert.detail == f"bound fails at exact point {point} on |z| = 1"
            assert cert.spot_checks == i + 1

    def test_missing_prerequisite_is_inconclusive(self, built_families, root_certs):
        fam = built_families[2]
        broken = relocalized(root_certs[2][1], status=Status.INCONCLUSIVE)
        cert = annulus_bounds_for_factor(fam, 1, broken)
        assert cert.status is Status.INCONCLUSIVE


class TestScaledEvaluationOracle:
    """The integer-scaled abs2 behind the circle certificates equals the
    Fraction-Horner reference at the points those certificates use.

    At n = 4 the Fraction reference is slow on the factors' coefficients,
    so a stride thins the points there.
    """

    STRIDE = {2: 1, 3: 1, 4: 4}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dominance_fallback_points(self, n, built_families):
        # the points a root-product dominance tests when its bound fails
        fam = built_families[n]
        for radius in sorted({radius for *_, radius in _dominances(fam)}):
            for cp in circle_points(radius, 16)[:: self.STRIDE[n]]:
                for j in range(1, n):
                    p = fam.Pk(j)
                    exact = scaled_abs2(eval_scaled(p, *as_scaled(cp.point)))
                    assert F(*exact) == p(cp.point).abs2()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_annulus_spot_points(self, n, built_families):
        fam = built_families[n]
        for k in range(1, n):
            p = fam.Pk(k)
            for radius in (F(1), F(2)):
                for cp in circle_points(radius, 256)[:: self.STRIDE[n]]:
                    exact = scaled_abs2(eval_scaled(p, *as_scaled(cp.point)))
                    assert F(*exact) == p(cp.point).abs2()


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

    def test_annulus_of_another_family_is_not_trusted(
        self, built_families, annulus_reports
    ):
        # the same polynomials in another family object: the chain passes
        # but rests on annulus bounds proved for a different family
        fam = build_family(built_families[2].params)
        rep = corollary_ineq_certificate(fam, annulus_reports[2])
        assert rep.status is Status.INCONCLUSIVE and not rep.failed()
        roots = family_root_certificates(fam)
        own = corollary_ineq_certificate(fam, annulus_bounds_certificate(fam, roots))
        assert own.status is Status.PROVED and own.family is fam

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_derived_division_matches_the_long_division(self, n, built_families, monkeypatch):
        # with the recursions proved nothing is expanded; the lazy quotient
        # is the long division's, of the degree the witness states (0, 2,
        # then 0, 5, 18 at n = 4), with value 1 at 0
        fam = built_families[n]

        def expanded(*args):
            raise AssertionError("a side was expanded")

        with monkeypatch.context() as patch:
            patch.setattr(certify, "_side_poly", expanded)
            patch.setattr(family_module, "expand_side", expanded)
            derived = [lemma_div_check(fam, k) for k in range(1, n)]
        # the long division: the same family with the derivation switched off
        monkeypatch.setattr(certify, "_derived_quotient_degree", lambda fam, k: None)
        for k, witness in enumerate(derived, start=1):
            divided = lemma_div_check(fam, k)
            assert (witness.method, divided.method) == ("recursion", "long-division")
            assert witness.status is divided.status is Status.PROVED
            assert witness.degree == divided.degree == divided.quotient.degree
            assert witness.quotient == divided.quotient
            assert witness.quotient.coeff(0) == 1
            assert witness.combination == divided.combination
            assert set(witness.to_json()) == {
                "index", "status", "method", "quotient_degree", "detail"
            }
            assert witness.to_json()["quotient_degree"] == witness.degree
        assert [w.degree for w in derived] == {2: [0], 3: [0, 2], 4: [0, 5, 18]}[n]

    def test_degree_tie_falls_back_to_the_long_division(self, built_families, monkeypatch):
        # with every premise proved but the two side degrees tied, the
        # leading terms may cancel, so the degree is not derived: C is
        # expanded and divided, and the quotient has the degree the
        # recursions give where the degrees are apart (0, 2 at n = 3)
        fam = built_families[3]
        derived = [lemma_div_check(fam, k) for k in (1, 2)]
        assert {w.method for w in derived} == {"recursion"}
        monkeypatch.setattr(certify, "_side_degree", lambda fam, side: 7)
        for k, want in zip((1, 2), derived):
            witness = lemma_div_check(fam, k)
            assert witness.method == "long-division"
            assert witness.status is Status.PROVED
            assert witness.expanded is not None
            assert witness.degree == witness.quotient.degree == want.degree
            assert witness.quotient == want.quotient

    def test_premises_of_another_family_fall_back(self, built_families):
        # the same polynomials given as polynomials: the ring proves no
        # recursion of the copy, the comparison of expansions proves each,
        # and the copy's divisions are derived from its own recursions
        fam = built_families[3]
        copy = retouched(fam)
        assert copy.ring.recursions == frozenset() and copy.recursions == {1, 2}
        for k in (1, 2):
            witness = lemma_div_check(copy, k)
            assert witness.method == "recursion"
            assert witness.status is Status.PROVED
            assert witness.quotient == lemma_div_check(fam, k).quotient

    def test_tampered_factor_falls_back_and_is_refuted(self, built_families):
        # P_2 with one more term at n = 4: its recursion, and that of P_1,
        # which contains it, are not proved, so every division falls back to
        # the long division, and P_2 does not divide its combination
        tampered = _tampered(built_families[4], "P2")
        assert tampered.recursions == {3}
        witnesses = [lemma_div_check(tampered, k) for k in (1, 2, 3)]
        assert {w.method for w in witnesses} == {"long-division"}
        assert witnesses[1].status is Status.REFUTED
        assert witnesses[1].quotient is None and witnesses[1].degree is None
        assert "nonzero remainder" in witnesses[1].detail


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

    def test_deeper_localization_of_another_family_is_missing(
        self, built_families, root_certs, divisions
    ):
        # chart 1 at n = 3 dominates with P_1 alone; the root count of its
        # cofactor also needs P_2, whose certificate belongs to another
        # family object with the same polynomials
        fam = built_families[3]
        copy = Family(fam.params, fam.form)
        own = {j: relocalized(c, family=copy) for j, c in root_certs[3].items()}
        mixed = {1: own[1], 2: root_certs[3][2]}
        ids = exact_identity_checks(copy)
        cert = cone_factor_certificate(copy, 1, mixed, ids, divisions[3])
        assert cert.nonvanishing.status is Status.PROVED
        assert cert.status is Status.INCONCLUSIVE
        assert cert.detail == "a deeper root localization is missing"
        assert cone_factor_certificate(copy, 1, own, ids, divisions[3]).status is Status.PROVED

    def test_refuted_division_refutes(self, built_families, root_certs, identities, divisions):
        # a refuted witness still expands the sides of its combination
        proved = divisions[3][1]
        failed = DivisionWitness(
            proved.index, Status.REFUTED, proved.method, None, "nonzero remainder",
            family=proved.family, expanded=proved.expanded,
        )
        assert failed.quotient is None
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
        tampered = retouched(fam, f1=fam.f1 + Poly.one())
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


def _expanded_unit(fam):
    """The power-ratio unit eps^(2n-1) prod_j P_j^(n-j), expanded."""
    unit = Poly.constant(fam.params.eps ** (2 * fam.n - 1))
    for j in range(1, fam.n):
        unit = unit * fam.Pk(j) ** (fam.n - j)
    return unit


def _compared_identities(fam):
    """Each identity decided by comparing the expansions of its own sides."""
    compared = {}
    for name, sides in _identity_sides(fam).items():
        lhs, rhs = sides()
        compared[name] = lhs == rhs
    return compared


def _not_expanded():
    raise AssertionError("the cone combination was expanded")


def _compared_cone_identity(fam, k):
    return _cone_identity(fam, k, lambda: _cone_combination(fam, k)[0])


def _vanishing_points(fam):
    """The D + 1 integers -floor(D/2) .. D - floor(D/2), D = deg f2^n: the
    points at which an evaluation of power-ratio, with D read from the
    family's tables, would compare its sides."""
    degree = fam.n * fam.f2.degree
    return range(-(degree // 2), degree - degree // 2 + 1)


def _tampered(fam, kind):
    """The family with f2 doubled ("f2-doubled"), f1 + 1 ("f1-plus-one"), f1
    plus a polynomial of degree D + 1 that vanishes at ``_vanishing_points``
    ("f1-plus-vanishing") or one more term in P_j ("Pj")."""
    if kind == "f2-doubled":
        return retouched(fam, f2=fam.f2 * 2)
    if kind == "f1-plus-one":
        return retouched(fam, f1=fam.f1 + Poly.one())
    if kind == "f1-plus-vanishing":
        bump = Poly.one()
        for x in _vanishing_points(fam):
            bump = bump * Poly([-x, 1])
        return retouched(fam, f1=fam.f1 + bump)
    j = int(kind[1:])
    bumped = fam.Pk(j) + Poly.monomial(1, fam.params.eps)
    return retouched(fam, P=fam.P[: j - 1] + (bumped,) + fam.P[j:])


class TestEvaluationProof:
    """The identities proved by comparing expansions agree with the expanded
    oracles, on built and on tampered families."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_expansion(self, n, built_families, identities):
        fam = built_families[n]
        expanded = _expanded_identities(fam, _expanded_unit(fam))
        assert expanded == dict.fromkeys(expanded, True)
        assert {c.name: c.passed for c in identities[n].checks} == expanded
        for k in range(n - 1):
            assert _expanded_cone_identity(fam, k)
            assert _compared_cone_identity(fam, k)
            # the product forms close: the combination is never expanded
            assert _cone_identity(fam, k, _not_expanded, identities[n].forms)

    @pytest.mark.parametrize(
        "n, kind",
        [(n, kind) for n in (2, 3) for kind in ("f2-doubled", "f1-plus-vanishing")]
        + [(n, f"P{j}") for n in (2, 3) for j in range(1, n)],
    )
    def test_tampered_agrees_with_expansion(self, n, kind, built_families):
        fam = _tampered(built_families[n], kind)
        compared = _compared_identities(fam)
        assert compared == _expanded_identities(fam, _expanded_unit(fam))
        assert not compared["power-ratio"]
        for k in range(n - 1):
            assert not _compared_cone_identity(fam, k)
            assert not _expanded_cone_identity(fam, k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_off_by_one_unit_in_last_place(self, n, built_families):
        # the identity's left side against f1 times an expanded unit: the
        # exact one is accepted, one off by 1/den in a coefficient is not
        fam = built_families[n]
        unit = _expanded_unit(fam)
        i = unit.degree // 2
        bad = unit + Poly.monomial(i, F(1, unit.scaled()[1]))
        assert bad.coeff(i) != unit.coeff(i) and bad.degree == unit.degree
        lhs, rhs = _identity_sides(fam)["power-ratio"]()
        assert lhs == rhs == fam.f1 * unit
        assert lhs != fam.f1 * bad

    @pytest.mark.parametrize("kind", ["f2-doubled", "f1-plus-vanishing", "P1", "P2", "P3"])
    def test_tampered_rejected_n4(self, kind, built_families):
        fam = _tampered(built_families[4], kind)
        rep = exact_identity_checks(fam)
        assert not rep.passed("power-ratio")
        for k in range(3):
            assert not _compared_cone_identity(fam, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_bound_from_the_polynomials(self, n, built_families):
        # f1 plus a polynomial of degree D + 1 that vanishes at the D + 1
        # integers of ``_vanishing_points``: there the tampered f1 agrees
        # with f1 and power-ratio holds, so a check at those points would
        # accept it; its expansion does not
        fam = built_families[n]
        unit = _expanded_unit(fam)
        points = _vanishing_points(fam)
        tampered = _tampered(fam, "f1-plus-vanishing")
        assert tampered.f1.degree == len(points) > fam.f1.degree
        for x in points:
            assert tampered.f1(x) == fam.f1(x)
            assert tampered.f2(x) ** n == tampered.f1(x) * unit(x)
        rep = exact_identity_checks(tampered)
        assert not rep.passed("power-ratio")
        assert not rep.all_passed


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
        tampered = retouched(fam, f2=fam.f2 * 2)
        rep = exact_identity_checks(tampered)
        assert not rep.all_passed


@pytest.fixture
def expansions(monkeypatch):
    """Records the side of each expansion, by ``certify._side_poly`` or by
    the recursions' fallback (``family.expand_side``)."""
    calls = []

    def counted(fam, side):
        calls.append(side)
        return _side_poly(fam, side)

    monkeypatch.setattr(certify, "_side_poly", counted)
    monkeypatch.setattr(family_module, "expand_side", counted)
    return calls


@pytest.fixture
def ring_passes(monkeypatch):
    """Counts the passes of ``FamilyForm.check``, the ring products."""
    calls = []
    real = FamilyForm.check

    def counted(form, c):
        calls.append(form)
        return real(form, c)

    monkeypatch.setattr(FamilyForm, "check", counted)
    return calls


def _cone_certificates(fam, root_certs, identities, divisions):
    return [
        cone_factor_certificate(fam, k, root_certs, identities, divisions)
        for k in range(fam.n)
    ]


class TestDerivedIdentities:
    """The identities read from two proved product forms and the recursion of
    P_1 (exponent bookkeeping), against the compared and expanded oracles."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verdicts_match_the_oracles(self, n, built_families, identities):
        fam = built_families[n]
        rep = identities[n]
        assert isinstance(rep, IdentityReport) and rep.forms is not None
        derived = _identity_products(rep.forms)
        assert {name: rep.forms.equal(*sides) for name, sides in derived.items()} == (
            dict.fromkeys(derived, True)
        )
        # the expanded oracles: TestEvaluationProof::test_agrees_with_expansion
        assert {c.name: c.passed for c in rep.checks} == _compared_identities(fam)
        for k in range(n - 1):
            c_poly = _cone_combination(fam, k)[0]
            assert _cone_identity(fam, k, lambda: c_poly, rep.forms)
            assert _compared_cone_identity(fam, k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_three_evaluations_per_family(
        self, n, built_families, root_certs, identities, divisions, expansions
    ):
        fam = built_families[n]
        # f1, f2 and the recursion of P_1 are checked in the ring, so
        # nothing is expanded
        rep = exact_identity_checks(fam)
        assert rep.all_passed and rep.forms is not None
        assert expansions == []
        certs = _cone_certificates(fam, root_certs[n], rep, divisions[n])
        assert all(c.status is Status.PROVED and c.identity_ok for c in certs)
        assert expansions == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_proof_of_the_p1_recursion_per_family(
        self, n, built_families, expansions, ring_passes
    ):
        # one pass of ring products proves every recursion, P_1's among them
        # (at n = 2 its linear form), and f1 and f2; every stage reads it
        fam = build_family(built_families[n].params)
        assert structural_checks(fam).all_passed
        roots = family_root_certificates(fam)
        assert all(cert.status is Status.PROVED for cert in roots.values())
        rep = exact_identity_checks(fam)
        assert rep.all_passed and rep.forms is not None
        assert all(lemma_div_check(fam, k).method == "recursion" for k in range(1, n))
        assert fam.recursions == set(range(1, n)) == fam.ring.recursions
        assert ring_passes == [fam.form] and expansions == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pipeline_expands_only_the_premises(self, n, expansions, ring_passes):
        # every stage of a run on the built family: the premises and the
        # recursions are proved in one pass in Z[lam, eps], and nothing is
        # expanded: no recursion side, no identity side and no cone
        # combination
        entry, _ = _run_family(RunConfig(n_list=(n,), samples=64), n)
        assert {c["status"] for c in entry["certificates"]} == {"proved"}
        assert expansions == [] and len(ring_passes) == 1

    def test_recursion_of_another_family_is_proved_again(
        self, built_families, expansions, ring_passes
    ):
        # another family object with the same form makes its own pass
        fam = build_family(built_families[3].params)
        rep = exact_identity_checks(fam)
        assert rep.forms is not None
        assert ring_passes == [fam.form] and expansions == []

    def test_report_bytes_and_equality(self, built_families, identities):
        # the forms are neither serialized nor compared
        rep = identities[3]
        bare = IdentityReport(rep.checks)
        assert bare.forms is None and bare == rep
        assert rep.to_json() == bare.to_json() == {
            "all_passed": True,
            "checks": [c.to_json() for c in rep.checks],
        }

    @pytest.mark.parametrize(
        "n, kind",
        [
            (n, kind)
            for n in (2, 3, 4)
            for kind in ("f2-doubled", "f1-plus-one", "f1-plus-vanishing")
        ]
        + [(n, f"P{j}") for n in (2, 3, 4) for j in range(1, n)],
    )
    def test_tampered_families_fall_back(self, n, kind, built_families, expansions):
        fam = _tampered(built_families[n], kind)
        rep = exact_identity_checks(fam)
        assert rep.forms is None
        # its f1 and f2 are not the products in Z[lam, eps], so no premise is
        # expanded; the three identities on their own sides: the unit,
        # difference and square sides
        assert expansions == list(_identity_cofactors(fam))
        assert {c.name: c.passed for c in rep.checks} == _compared_identities(fam)
        assert not rep.passed("power-ratio")
        if n < 4:
            expanded = _expanded_identities(fam, _expanded_unit(fam))
            assert {c.name: c.passed for c in rep.checks} == expanded

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_premise_is_sound(self, n, built_families, expansions):
        # f1 plus eps lam^0 as a term of the ring and minus eps as a lam-only
        # term: the same polynomial at eps, but not eps lam^n prod P_j^j in
        # Z[lam, eps], so the premise proves nothing, and the three
        # identities are proved on their own sides
        fam = built_families[n]
        f1 = {**fam.form.f1, (0, 1): 1, (0, 0): -fam.params.eps}
        shifted = Family(fam.params, fam.form._replace(f1=f1))
        assert shifted.f1 == fam.f1 and not shifted.ring.products
        assert _proved_forms(shifted) is None
        rep = exact_identity_checks(shifted)
        assert rep.all_passed and rep.forms is None
        assert expansions == list(_identity_cofactors(shifted))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tampered_cone_identities_refuted(
        self, n, built_families, root_certs, divisions
    ):
        # with its own report (no forms) or the report of the untampered
        # family (forms of another family), the cone identity is decided by
        # comparing expansions
        fam = built_families[n]
        tampered = _tampered(fam, "f1-plus-one")
        for rep in (exact_identity_checks(tampered), exact_identity_checks(fam)):
            for k in range(n - 1):
                cert = cone_factor_certificate(
                    tampered, k, root_certs[n], rep, divisions[n]
                )
                assert cert.status is Status.REFUTED and not cert.identity_ok

    def test_identity_with_different_normal_forms_is_proved(
        self, built_families, monkeypatch, expansions
    ):
        # power-ratio stated with P_2 = eps^(c_2) - z written out: it holds,
        # but the symbol X_2 is not eliminated, so the normal forms differ
        fam = built_families[3]
        forms = exact_identity_checks(fam).forms
        lhs, rhs = _identity_products(forms)["power-ratio"]
        (c, m, factors), = rhs
        powers = dict(factors)
        powers[2] -= 1
        rest = (c, m, tuple(powers.items()))
        last = (fam.params.eps ** fam.params.c[1], 0, ())
        written_out = [_side_product(rest, last), _negated(_side_product(rest, (1, 1, ())))]
        assert _side_poly(fam, rhs[0]) == sum(
            (_side_poly(fam, side) for side in written_out), Poly.zero()
        )
        assert not forms.equal(lhs, written_out)

        derived = _identity_products(forms)
        monkeypatch.setattr(
            certify, "_identity_products",
            lambda forms: {**derived, "power-ratio": (lhs, written_out)},
        )
        expansions.clear()
        rep = exact_identity_checks(fam)
        assert rep.all_passed and rep.forms is not None
        # power-ratio's unit side alone
        assert expansions == [cone_sides(fam, 2)[1]]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cone_mismatch_is_proved_by_evaluation(
        self, n, built_families, root_certs, identities, divisions,
        monkeypatch, expansions,
    ):
        monkeypatch.setattr(ProductForms, "equal", lambda self, lhs, rhs: False)
        fam = built_families[n]
        certs = _cone_certificates(fam, root_certs[n], identities[n], divisions[n])
        assert all(c.status is Status.PROVED and c.identity_ok for c in certs)
        # each chart below n - 1 expands its cofactor G once, besides the
        # sides of its combination where the witness has not expanded them
        combinations = {side for k in range(n - 1) for side in cone_sides(fam, k)}
        assert [side for side in expansions if side not in combinations] == [
            (fam.params.eps, k + 1, tuple((j, min(j, k + 1)) for j in range(1, n)))
            for k in range(n - 1)
        ]

    def test_normal_form_eliminates_p1(self, built_families):
        # P_1 = eps - z^2 P_2 at n = 3: X_1^2 expands binomially, and a side
        # off by one exponent is told apart
        fam = built_families[3]
        eps = fam.params.eps
        recursion = recursion_sides(fam, 1)
        assert recursion == ((1, 2, ((2, 1),)), (eps, 0, ()))
        square = _normal_form([(1, 0, ((1, 2),))], recursion)
        assert square == {
            (0, ()): eps**2,
            (2, ((2, 1),)): -2 * eps,
            (4, ((2, 2),)): F(1),
        }
        one = [(eps, 0, ()), (-1, 2, ((2, 1),))]
        assert _normal_form([(1, 0, ((1, 1),))], recursion) == _normal_form(one, recursion)
        assert _normal_form([(1, 0, ((1, 1), (2, 1)))], recursion) != (
            _normal_form(one, recursion)
        )
        # terms that cancel leave nothing
        assert _normal_form([(eps, 0, ((1, 1),)), (-eps, 0, ((1, 1),))], recursion) == {}

    @pytest.mark.parametrize("n", [2, 3])
    def test_forms_reject_a_wrong_exponent(self, n, built_families, identities):
        forms = identities[n].forms
        lhs, rhs = _identity_products(forms)["power-ratio"]
        for j in range(1, n):
            assert not forms.equal(lhs, [_side_product(rhs[0], (1, 0, ((j, 1),)))])
        assert not forms.equal(lhs, [_side_product(rhs[0], (2, 0, ()))])

    def test_eps_one_family(self, expansions):
        # eps^(c_1) against eps is compared exactly whatever eps is
        fam = build_family(FamilyParams.build(2, eps=F(1), allow_unsafe_eps=True))
        rep = exact_identity_checks(fam)
        assert rep.forms is not None
        assert rep.all_passed and expansions == []
        assert {c.name: c.passed for c in rep.checks} == _compared_identities(fam)
