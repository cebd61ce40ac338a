"""Tests for the blow-up chart combinatorics.

Reference verdicts for the worked examples were checked against exact
interval arithmetic (the chart conditions reduce to interval membership of
|z1| for fixed |z2|) before being frozen here.
"""

import random
from fractions import Fraction

import pytest

from noricert.arith import ComplexRational, scaled_to_complex
from noricert.atlas import (
    ChartPoint,
    IntersectionMatrix,
    chart_cover_indices,
    disjointness_certificate,
    negative_definite,
    overlap_polydisk_certificate,
)
from noricert.sampling import GRID_BITS, RationalSampler

from atlas_reference import (
    _membership_int,
    _overlap_int,
    chart_membership,
    cone_condition,
    disjointness_search,
    dyadic_in_annulus,
    dyadic_in_disk,
    overlap_inequalities,
    overlap_polydisk_check,
)

F = Fraction


def pt(z1re, z1im=0, z2re=0, z2im=0) -> ChartPoint:
    return ChartPoint(ComplexRational.of(z1re, z1im), ComplexRational.of(z2re, z2im))


class TestChartMembership:
    def test_axis_point_in_first_chart_only(self):
        r = F(1, 2)
        p = pt(F(1, 4))  # z2 = 0
        assert chart_membership(p, r, 0)
        assert not chart_membership(p, r, 1)

    def test_reference_point_in_second_chart(self):
        # |z2|^3 = 1/64 < r|z1| = 1/32 and |z1| = 1/16 < r|z2| = 1/8
        p = pt(F(1, 16), 0, F(1, 4))
        assert chart_membership(p, F(1, 2), 1)

    def test_complex_coordinates(self):
        p = ChartPoint(ComplexRational.of(0, F(1, 16)), ComplexRational.of(0, F(1, 4)))
        assert chart_membership(p, F(1, 2), 1)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            chart_membership(pt(0), F(1, 2), 0)
        with pytest.raises(ValueError):
            chart_membership(pt(F(1, 4)), F(1, 2), -1)


class TestChartCover:
    def test_axis_point_covered_by_first_chart_alone(self):
        res = chart_cover_indices(pt(F(1, 4)), F(1, 2), 8)
        assert res.in_region
        assert res.indices == (0,)

    def test_interior_witness_single_chart(self):
        # |z2| = 1/5 < r^2 would fail for r = 1/2 (1/5 < 1/4 holds);
        # |z1| = 3/16 lies in the first chart's interval only
        res = chart_cover_indices(pt(F(3, 16), 0, F(1, 5)), F(1, 2), 8)
        assert res.in_region
        assert res.indices == (0,)

    def test_overlap_point_in_two_charts(self):
        # with |z2| = 1/5 the first two intervals are (|z2|^2/r, r) = (2/25, 1/2)
        # and (|z2|^3/r, r|z2|) = (2/125, 1/10): |z1| = 1/11 lies in both
        res = chart_cover_indices(pt(F(1, 11), 0, F(1, 5)), F(1, 2), 8)
        assert res.in_region
        assert res.indices == (0, 1)

    def test_out_of_region_flagged(self):
        res = chart_cover_indices(pt(F(3, 4)), F(1, 2), 8)  # |z1| >= r
        assert not res.in_region and res.indices == ()
        res = chart_cover_indices(pt(0, 0, F(1, 8)), F(1, 2), 8)  # z1 = 0
        assert not res.in_region
        res = chart_cover_indices(pt(F(1, 4), 0, F(1, 4)), F(1, 2), 8)  # |z2| = r^2
        assert not res.in_region

    def test_cover_nonempty_contiguous_property(self):
        r = F(1, 2)
        sampler = RationalSampler("cover-property", r)
        checked = 0
        while checked < 2000:
            a1, b1, d1 = dyadic_in_disk(sampler, r)
            if a1 == b1 == 0:
                continue
            z1 = scaled_to_complex((a1, b1, d1 * 10 ** sampler.randint(0, 9)))
            a2, b2, d2 = dyadic_in_disk(sampler, r * r)
            z2 = scaled_to_complex((a2, b2, d2 * 10 ** sampler.randint(0, 9)))
            res = chart_cover_indices(ChartPoint(z1, z2), r, 64)
            assert res.in_region
            assert res.indices, (z1, z2)
            lo, hi = res.indices[0], res.indices[-1]
            assert res.indices == tuple(range(lo, hi + 1))
            checked += 1


class TestConeCondition:
    def test_vanishing_z1_inside(self):
        p = pt(0, 0, F(1, 3))
        for k in range(4):
            assert cone_condition(p, k, F(1, 2))

    def test_vanishing_z2_outside_for_positive_k(self):
        p = pt(F(1, 8))
        assert not cone_condition(p, 1, F(1, 2))
        assert not cone_condition(p, 3, F(1, 2))

    def test_reduces_to_disk_for_k0_on_axis(self):
        rho = F(1, 2)
        assert cone_condition(pt(F(1, 4)), 0, rho)  # |z1| < rho
        assert not cone_condition(pt(rho), 0, rho)  # equality excluded
        assert not cone_condition(pt(F(3, 4)), 0, rho)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            cone_condition(pt(0), 0, F(1, 2))

    def test_shrinking_z1_preserves_axis_verdict(self):
        rho = F(2, 5)
        sampler = RationalSampler("cone-scaling", rho)
        tried = 0
        grid = 1 << GRID_BITS
        while tried < 100:
            a, b, den = dyadic_in_disk(sampler, rho)
            if a == b == 0:
                continue
            z1 = scaled_to_complex((a, b, den))
            p = ChartPoint(z1, ComplexRational.of(0))
            if not cone_condition(p, 0, rho):
                continue
            t = F(1, 100) + F(98, 100) * F(sampler.randint(0, grid), grid)
            shrunk = ChartPoint(z1 * t, ComplexRational.of(0))
            assert cone_condition(shrunk, 0, rho)
            tried += 1


class TestDisjointness:
    def test_far_charts_disjoint(self):
        rep = disjointness_search(F(1, 2), 0, 2, 10**4, seed=7)
        assert rep.disjoint
        assert rep.counterexample is None
        assert rep.chain_failures == 0
        assert rep.samples == 10**4

    def test_unit_radius_disjoint(self):
        rep = disjointness_search(F(1), 1, 3, 10**4, seed=11)
        assert rep.disjoint

    def test_deterministic_replay(self):
        a = disjointness_search(F(1, 2), 2, 5, 2000, seed=3)
        b = disjointness_search(F(1, 2), 2, 5, 2000, seed=3)
        assert a.to_json() == b.to_json()

    def test_adjacent_indices_declined(self):
        with pytest.raises(ValueError):
            disjointness_search(F(1, 2), 0, 1, 100)
        with pytest.raises(ValueError):
            disjointness_search(F(1, 2), 3, 3, 100)

    def test_oversize_radius_declined(self):
        with pytest.raises(ValueError):
            disjointness_search(F(3, 2), 0, 2, 100)

    def test_integer_path_matches_fraction_path(self):
        # the fast integer transcription must agree with the Fraction
        # evaluation of chart membership on random dyadic points
        rng = random.Random(20260822)
        r = F(1, 2)
        for _ in range(500):
            s1, s2 = rng.randint(16, 40), rng.randint(16, 40)
            a1, b1 = rng.randint(-65536, 65536), rng.randint(-65536, 65536)
            a2, b2 = rng.randint(-65536, 65536), rng.randint(-65536, 65536)
            if a1 == b1 == 0:
                continue
            p = ChartPoint(
                ComplexRational(F(a1, 2**s1), F(b1, 2**s1)),
                ComplexRational(F(a2, 2**s2), F(b2, 2**s2)),
            )
            n1, n2 = a1 * a1 + b1 * b1, a2 * a2 + b2 * b2
            for k in range(5):
                want = chart_membership(p, r, k)
                got = _membership_int(n1, s1, n2, s2, 1, 4, k)
                assert want == got


class TestExactArguments:
    """The exact arguments the pipeline reports for the atlas geometry."""

    @pytest.mark.parametrize("r", [F(1, 5), F(1, 2), F(1)])
    def test_distant_charts_proved(self, r):
        for j in range(6):
            for k in range(j + 2, 9):
                for a, b in ((j, k), (k, j)):
                    cert = disjointness_certificate(r, a, b)
                    assert cert.proved, (r, a, b)
                    assert cert.claim == f"charts {j} and {k} are disjoint in the covered region"

    def test_disjointness_not_proved_when_a_hypothesis_fails(self):
        for j, k in ((0, 1), (3, 2), (2, 2)):
            cert = disjointness_certificate(F(1, 5), j, k)
            assert not cert.proved
            assert cert.detail == "the argument does not apply: |j - k| >= 2 fails"
        wide = disjointness_certificate(F(3, 2), 0, 2)
        assert not wide.proved
        assert wide.detail == "the argument does not apply: r^4 <= 1 fails"
        # adjacent charts do share points of the covered region, so no
        # argument could prove them disjoint
        r = F(1, 2)
        p = ChartPoint(ComplexRational.of(F(1, 30)), ComplexRational.of(F(1, 10)))
        assert p.z1.abs2() < r * r and p.z2.abs2() < r**4
        assert chart_membership(p, r, 0) and chart_membership(p, r, 1)

    def test_overlap_proved_and_declined(self):
        assert overlap_polydisk_certificate(F(1, 5)).proved
        assert overlap_polydisk_certificate(F(1)).proved
        wide = overlap_polydisk_certificate(F(3, 2))
        assert not wide.proved
        assert wide.detail == "the argument does not apply: r^3 <= r fails"
        # and there the polydisk is not the overlap
        x = ComplexRational.of(F(6, 5))
        assert not all(overlap_inequalities(x, x, F(3, 2)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            disjointness_certificate(F(0), 0, 2)
        with pytest.raises(ValueError):
            disjointness_certificate(F(1, 5), -1, 2)
        with pytest.raises(ValueError):
            overlap_polydisk_certificate(F(-1, 5))

    def test_json(self):
        assert disjointness_certificate(F(1, 5), 0, 3).to_json() == {
            "claim": "charts 0 and 3 are disjoint in the covered region",
            "r": "1/5",
            "hypotheses": [
                {"name": "|j - k| >= 2", "holds": True},
                {"name": "r^4 <= 1", "holds": True},
            ],
            "proved": True,
        }
        assert overlap_polydisk_certificate(F(3, 2)).to_json()["proved"] is False


class TestOverlap:
    def test_polydisk_identity_sampled(self):
        rep = overlap_polydisk_check(F(1, 2), 2000, seed=5)
        assert rep.passed, rep.detail
        assert rep.violation is None
        assert rep.interior_checked + rep.exterior_checked == 2000

    def test_worked_examples(self):
        r = F(1, 2)
        zero = ComplexRational.of(0)
        assert all(overlap_inequalities(zero, zero, r))
        boundary = ComplexRational.of(r)
        assert not all(overlap_inequalities(boundary, zero, r))
        q = ComplexRational.of(F(1, 4))
        assert all(overlap_inequalities(q, q, r))
        assert (q * q * q).abs2() == F(1, 64) ** 2  # |x^2 y| = 1/64 < 1/2

    @staticmethod
    def _int_and_fraction(x, y, r):
        got = _overlap_int(x, y, r.numerator**2, r.denominator**2)
        want = overlap_inequalities(scaled_to_complex(x), scaled_to_complex(y), r)
        return got, want

    def test_integer_path_matches_fraction_path(self):
        # dyadic points on both sides of every boundary, scaled down now
        # and then so that the products |x^2 y| and |x y^2| cross r too
        sampler = RationalSampler("overlap-int")
        for r in (F(1, 5), F(1, 2), F(7, 9)):
            for _ in range(300):
                xr, xi, xd = dyadic_in_annulus(sampler, 0, F(3, 2))
                yr, yi, yd = dyadic_in_annulus(sampler, 0, F(3, 2))
                x = (xr, xi, xd << sampler.randint(0, 3))
                y = (yr, yi, yd << sampler.randint(0, 3))
                got, want = self._int_and_fraction(x, y, r)
                assert got == want, (x, y, r)

    def test_integer_path_on_exact_boundaries(self):
        # |x| = r, |y| = r, |x^2 y| = r and |x y^2| = r at r = 1/5: the strict
        # inequality at equality fails; |x^2 y| = r forces |x| or |y| >= r
        r = F(1, 5)
        cases = [
            ((3, 4, 25), (1, 0, 10), (True, True, True, False)),  # |x| = 1/5
            ((1, 0, 10), (-3, 4, 25), (False, True, True, True)),  # |y| = 1/5
            ((3, 4, 10), (0, 4, 5), (False,) * 4),  # |x^2 y| = (1/4)(4/5)
            ((0, 4, 5), (3, -4, 10), (False,) * 4),  # |x y^2| = (4/5)(1/4)
        ]
        for x, y, expected in cases:
            got, want = self._int_and_fraction(x, y, r)
            assert got == want == expected, (x, y)

    def test_deterministic_replay(self):
        a = overlap_polydisk_check(F(1, 2), 500, seed=9)
        b = overlap_polydisk_check(F(1, 2), 500, seed=9)
        assert a.to_json() == b.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_polydisk_check(F(1), 100)
        with pytest.raises(ValueError):
            overlap_polydisk_check(F(1, 2), 1)


class TestIntersectionMatrix:
    def test_reference_matrices(self):
        assert negative_definite(IntersectionMatrix.from_rows([[-3, 2], [2, -3]]))
        assert not negative_definite(IntersectionMatrix.from_rows([[-2, 2], [2, -2]]))
        assert negative_definite(IntersectionMatrix.from_rows([[-1, 0], [0, -1]]))

    def test_determinant(self):
        assert IntersectionMatrix(-3, 2, -3).det == 5
        assert IntersectionMatrix(-2, 2, -2).det == 0

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            IntersectionMatrix.from_rows([[-3, 2], [1, -3]])
        with pytest.raises(ValueError):
            IntersectionMatrix(-3, Fraction(1, 2), -3)

    def test_agrees_with_eigenvalue_signs(self):
        # oracle: eigenvalues of [[a, b], [b, c]] are ((a+c) +/- sqrt(D))/2
        # with D = (a-c)^2 + 4b^2 >= 0; both negative iff the larger one is,
        # i.e. a + c < 0 and D < (a+c)^2 -- decided in exact integers.
        rng = random.Random(1723)
        for _ in range(100):
            a, b, c = (rng.randint(-20, 20) for _ in range(3))
            m = IntersectionMatrix(a, b, c)
            disc = (a - c) ** 2 + 4 * b * b
            largest_negative = a + c < 0 and disc < (a + c) ** 2
            assert negative_definite(m) == largest_negative
