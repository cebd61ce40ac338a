"""Tests for the blow-up chart combinatorics.

Reference verdicts for the worked examples were checked against exact
interval arithmetic (the chart conditions reduce to interval membership of
|z1| for fixed |z2|) before being frozen here.
"""

import random
from fractions import Fraction

import pytest

from noricert.arith import ComplexRational
from noricert.atlas import (
    ChartPoint,
    IntersectionMatrix,
    _membership_int,
    chart_cover_indices,
    chart_membership,
    cone_condition,
    disjointness_search,
    negative_definite,
    overlap_inequalities,
    overlap_polydisk_check,
)
from noricert.sampling import RationalSampler

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
            z1 = sampler.nonzero_complex_in_disk(r) * sampler.unit_scale(9)
            z2 = sampler.complex_in_disk(r * r) * sampler.unit_scale(9)
            if z1.is_zero or not z1.abs2() < r * r:
                continue
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
        while tried < 100:
            z1 = sampler.nonzero_complex_in_disk(rho)
            p = ChartPoint(z1, ComplexRational.of(0))
            if not cone_condition(p, 0, rho):
                continue
            t = sampler.fraction(F(1, 100), F(99, 100))
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
