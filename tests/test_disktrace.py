"""Tests for the per-size disk verification pipeline.

Reference values (quotient polynomials, vanishing orders, escape indices,
chart index sets at named points) were computed with independent sympy
oracles before being frozen here.  The scaled fast-path predicates are
cross-validated against the reference Fraction implementations.
"""

import random
from fractions import Fraction

import pytest

from noricert.arith import ComplexRational, Poly, eval_scaled
from noricert.atlas import ChartPoint, chart_cover_indices, cone_condition
from noricert.certify import (
    Status,
    annulus_bounds_certificate,
    circle_points,
    corollary_ineq_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
    power_ratio_unit,
)
from noricert.disktrace import (
    Certificate,
    TargetRegion,
    annulus_into_target,
    base_chart_certificate,
    chart_cone_certificate,
    cone_window_witness,
    escape_witness,
    image_in_chart_window,
    trace_family,
    uniform_convergence_witness,
    vanishing_orders,
)
from noricert.bounds import (
    _abs2_bounds,
    _p_add,
    _p_div,
    _p_int,
    _p_lt,
    _p_mul,
    _p_pow,
    _p_sqrt,
)
from noricert.disktrace import (
    _chart_entry_test,
    _cone_test,
    _cover_indices_scaled,
    _first_open_cone_scaled,
    _member_test,
)
from noricert.family import FamilyParams, build_family, default_family

F = Fraction


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
        rng = random.Random(20)
        box = TargetRegion(3)
        for _ in range(300):
            re1, im1 = rng.randrange(-40, 41), rng.randrange(-40, 41)
            re2, im2 = rng.randrange(-40, 41), rng.randrange(-40, 41)
            den = rng.choice([60, 100, 120])
            scaled = box.contains_scaled((re1, im1, den), (re2, im2, den))
            exact = box.contains(
                ComplexRational(F(re1, den), F(im1, den)),
                ComplexRational(F(re2, den), F(im2, den)),
            )
            assert scaled == exact


class TestMantissaBounds:
    """The directed truncation used by the deep-scale fast paths."""

    def test_directed_ops_bracket(self):
        rng = random.Random(7)
        for _ in range(400):
            x = rng.getrandbits(rng.randrange(1, 600)) + 1
            y = rng.getrandbits(rng.randrange(1, 600)) + 1
            e = rng.randrange(1, 8)
            for up in (False, True):
                checks = [
                    (_p_mul(_p_int(x, up), _p_int(y, up), up), x * y),
                    (_p_pow(_p_int(x, up), e, up), x**e),
                    (_p_div(_p_int(x, up), _p_int(y, not up), up), F(x, y)),
                    (_p_add(_p_int(x, up), _p_int(y, up), up), x + y),
                ]
                for (m, s), target in checks:
                    value = F(m) * F(2) ** s
                    assert value >= target if up else value <= target
                m, s = _p_sqrt(_p_int(x, up), up)
                value = F(m) * F(2) ** s
                assert value * value >= x if up else value * value <= x

    def test_comparison_is_exact(self):
        rng = random.Random(8)
        for _ in range(400):
            a = (rng.getrandbits(rng.randrange(1, 200)), rng.randrange(-400, 400))
            b = (rng.getrandbits(rng.randrange(1, 200)), rng.randrange(-400, 400))
            va = F(a[0]) * F(2) ** a[1]
            vb = F(b[0]) * F(2) ** b[1]
            assert _p_lt(a, b) == (va < vb)

    def test_abs2_bounds_bracket(self):
        rng = random.Random(9)
        for _ in range(200):
            re = rng.randrange(-(10**12), 10**12)
            im = rng.randrange(-(10**12), 10**12)
            den = rng.randrange(1, 10**9)
            lo, hi = _abs2_bounds((re, im, den))
            exact = F(re * re + im * im, den * den)
            assert F(lo[0]) * F(2) ** lo[1] <= exact <= F(hi[0]) * F(2) ** hi[1]


class TestScaledPredicates:
    """Fast-path chart predicates agree with the Fraction reference."""

    def test_against_atlas_reference(self, built_families):
        fam = built_families[3]
        r, rho = fam.params.r, fam.params.rho
        rng = random.Random(11)
        checked = 0
        for _ in range(250):
            a, b = rng.randrange(-300, 301), rng.randrange(-300, 301)
            if a == 0 and b == 0:
                continue
            den = rng.choice([64, 100, 1024, 10**4, 10**7])
            v1 = eval_scaled(fam.f1, a, b, den)
            v2 = eval_scaled(fam.f2, a, b, den)
            lam = ComplexRational(F(a, den), F(b, den))
            p = ChartPoint(fam.f1(lam), fam.f2(lam))
            ref = chart_cover_indices(p, r, 4)
            in_region, indices = _cover_indices_scaled(fam, v1, v2, 4)
            assert in_region == ref.in_region
            if ref.in_region:
                assert indices == ref.indices
            for k in range(4):
                assert _chart_entry_test(fam, v1, v2, k) == (
                    p.z2.abs2() ** (k + 2) < r**2 * p.z1.abs2()
                )
                assert _member_test(fam, v1, v2, k) == (
                    p.z1.abs2() < r**2 * p.z2.abs2() ** k
                )
                assert _cone_test(fam, v1, v2, k, halved=False) == cone_condition(
                    p, k, rho
                )
            checked += 1
        assert checked >= 200

    def test_first_open_cone_matches_ladder(self, built_families):
        fam = built_families[2]
        rng = random.Random(12)
        for _ in range(150):
            a, b = rng.randrange(-200, 201), rng.randrange(-200, 201)
            if a == 0 and b == 0:
                continue
            den = rng.choice([128, 1000, 10**5])
            v1 = eval_scaled(fam.f1, a, b, den)
            v2 = eval_scaled(fam.f2, a, b, den)
            in_region, first = _first_open_cone_scaled(fam, v1, v2, fam.n)
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
    def test_remainder_zero(self, built_families, n):
        fam = built_families[n]
        quotient, remainder = divmod(fam.f2**n, fam.f1)
        assert remainder.is_zero
        # the window certificate takes its quotient from the product form
        assert quotient == power_ratio_unit(fam)

    def test_status_proved(self, built_families, corollary_reports, identities):
        cert = image_in_chart_window(
            built_families[2], corollary_reports[2], identities[2], samples=32
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
    def test_proved(self, built_families, corollary_reports, n):
        cert = annulus_into_target(built_families[n], corollary_reports[n])
        assert cert.status is Status.PROVED
        # 64 exact points on each of the two bounding circles
        assert cert.data["spot_checks"] == 128

    def test_unproved_prerequisite_is_inconclusive(
        self, built_families, corollary_reports
    ):
        import dataclasses

        weak = dataclasses.replace(
            corollary_reports[2], status=Status.INCONCLUSIVE
        )
        cert = annulus_into_target(built_families[2], weak)
        assert cert.status is Status.INCONCLUSIVE


class TestConeCertificates:
    def test_chart_index_validation(
        self, built_families, root_certs, identities, divisions
    ):
        fam = built_families[2]
        prereqs = (root_certs[2], identities[2], divisions[2])
        with pytest.raises(ValueError):
            chart_cone_certificate(fam, 0, *prereqs)
        with pytest.raises(ValueError):
            chart_cone_certificate(fam, fam.n, *prereqs)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2)])
    def test_proved(self, built_families, root_certs, identities, divisions, n, k):
        cert = chart_cone_certificate(
            built_families[n], k, root_certs[n], identities[n], divisions[n],
            samples=48,
        )
        assert cert.status is Status.PROVED
        assert cert.data["samples"] == 48
        assert cert.data["core"]["status"] == "proved"

    def test_entry_scale_recorded(
        self, built_families, root_certs, identities, divisions
    ):
        cert = chart_cone_certificate(
            built_families[3], 2, root_certs[3], identities[3], divisions[3],
            samples=16,
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


class TestConeWindowWitness:
    def test_proved_small_run(self, built_families):
        wit = cone_window_witness(built_families[2], samples=200)
        assert wit.status is Status.PROVED
        assert wit.data["samples"] == 200

    def test_deterministic(self, built_families):
        a = cone_window_witness(built_families[2], samples=64, seed=5)
        b = cone_window_witness(built_families[2], samples=64, seed=5)
        assert a.to_json() == b.to_json()

    def test_seed_changes_samples_not_verdict(self, built_families):
        a = cone_window_witness(built_families[2], samples=64, seed=1)
        b = cone_window_witness(built_families[2], samples=64, seed=2)
        assert a.status is Status.PROVED and b.status is Status.PROVED


class TestEscapeWitness:
    def test_frozen_table(self, built_families):
        wit = escape_witness([built_families[n] for n in (2, 3, 4)])
        assert wit.status is Status.PROVED
        assert wit.entries == ((2, 1), (3, 2), (4, 3))

    def test_single_family(self, built_families):
        wit = escape_witness([built_families[2]])
        assert wit.status is Status.PROVED
        assert wit.entries == ((2, 1),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            escape_witness([])

    def test_non_monotone_refuted(self, built_families):
        wit = escape_witness([built_families[3], built_families[2]])
        assert wit.status is Status.REFUTED


class TestUniformConvergence:
    def test_bounds_and_monotonicity(self, built_families, trace_reports):
        wit = uniform_convergence_witness(
            [built_families[n] for n in (2, 3)],
            samples=128,
            target_certs={n: trace_reports[n].condition_ii for n in (2, 3)},
        )
        assert wit.status is Status.PROVED
        sups = [entry.sup_squared for entry in wit.entries]
        for entry in wit.entries:
            assert entry.sup_squared <= F(1, entry.n**2)
            assert entry.sup_squared >= 0
        assert sups[0] >= sups[1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_sup_matches_fraction_max(self, n, built_families):
        fam = built_families[n]
        wit = uniform_convergence_witness([fam], samples=512, target_certs={})
        expected = F(0)
        for cpt in circle_points(F(1), 512):
            a1, a2 = fam.f1(cpt.point).abs2(), fam.f2(cpt.point).abs2()
            expected = max(expected, a1, a2, a2 / a1)
        assert wit.entries[0].sup_squared == expected

    def test_missing_target_cert_inconclusive(self, built_families):
        wit = uniform_convergence_witness(
            [built_families[2]], samples=16, target_certs={}
        )
        assert wit.status is Status.INCONCLUSIVE


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
    def test_sup_metric_bound(self, trace_reports, n):
        assert trace_reports[n].sup_squared <= F(1, n * n)

    def test_sup_metric_nonincreasing(self, trace_reports):
        sups = [trace_reports[n].sup_squared for n in (2, 3, 4)]
        assert sups == sorted(sups, reverse=True)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_escape_index(self, trace_reports, n):
        assert trace_reports[n].escape_index == n - 1

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
            window_samples=16,
            cone_samples=16,
            witness_samples=64,
            sup_samples=32,
            spot_checks=8,
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
        roots = family_root_certificates(fam, budget=1 << 10)
        corollary = corollary_ineq_certificate(
            fam, annulus_bounds_certificate(fam, roots)
        )
        rep = trace_family(
            fam,
            root_certs=roots,
            corollary=corollary,
            identities=exact_identity_checks(fam),
            divisions=[lemma_div_check(fam, 1)],
            window_samples=16,
            cone_samples=16,
            witness_samples=64,
            sup_samples=32,
            spot_checks=8,
            budget=1 << 10,
        )
        assert rep.status is Status.REFUTED
        assert any(c.status is Status.REFUTED for c in rep.conditions)

    def test_certificate_worst_status_wins(self):
        proved = Certificate("a", Status.PROVED, "", {})
        assert proved.status is Status.PROVED
        refuted = Certificate("b", Status.REFUTED, "bad", {})
        assert refuted.status is Status.REFUTED
