"""Tests for the certified-analysis layer.

Reference values (quotients, root counts, bound constants) were computed with
an independent sympy/numpy oracle before being frozen here.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noricert.arith import Poly
from noricert.certify import (
    AnnulusReport,
    Status,
    _abs2_at,
    _cone_combination,
    annulus_bounds_certificate,
    annulus_bounds_for_factor,
    certify_dominance,
    chart_point,
    circle_points,
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
        assert "budget" in starved.detail
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
            _, _, unit_part, dominant = _cone_combination(fam, k)
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
    def test_every_chart_proved(self, n, built_families, root_certs, identities):
        fam = built_families[n]
        for k in range(n):
            cert = cone_factor_certificate(fam, k, root_certs[n], identities[n])
            assert cert.status is Status.PROVED, (k, cert.detail)
            assert cert.identity_ok and cert.divisibility_ok
        d = fam.params.d
        for k in range(n - 1):
            cert = cone_factor_certificate(fam, k, root_certs[n], identities[n])
            assert cert.localized == d[k]

    def test_frozen_cofactor_n3(self, built_families):
        fam = built_families[3]
        eps = fam.params.eps
        _, c_poly, _, _ = _cone_combination(fam, 1)
        quotient, remainder = divmod(c_poly, fam.Pk(2))
        assert remainder.is_zero
        assert quotient == Poly([F(1), F(0), -(eps**3)])

    def test_chart_index_validation(self, built_families, identities):
        with pytest.raises(ValueError):
            cone_factor_certificate(built_families[2], 5, {}, identities[2])

    def test_tampered_identity_refuted(self, built_families, root_certs):
        fam = built_families[2]
        tampered = dataclasses.replace(fam, f1=fam.f1 + Poly.one())
        cert = cone_factor_certificate(
            tampered, 0, root_certs[2], exact_identity_checks(tampered)
        )
        assert cert.status is Status.REFUTED
        assert not cert.identity_ok


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
