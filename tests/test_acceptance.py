"""Acceptance suite: the ten gate criteria, one test (and one report line) each.

Each test re-states its criterion in code at the stated load and tolerance;
`pytest -v` therefore prints exactly one pass/fail line per criterion.  The
session fixtures are reused where the criterion allows derived artifacts
(root certificates, the full traces); everything with a stated runtime bound
is computed fresh inside the test and timed.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from noricert.arith import Poly, as_scaled, eval_scaled, poly_gcd
from noricert.atlas import (
    IntersectionMatrix,
    disjointness_search,
    negative_definite,
    overlap_polydisk_check,
)
from noricert.certify import (
    Status,
    annulus_bounds_certificate,
    circle_points,
    cone_factor_certificate,
    corollary_ineq_certificate,
    family_root_certificates,
    lemma_div_check,
)
from noricert.bounds import _abs2_bounds, _p_int, _p_lt, _p_mul, _p_pow
from noricert.cli import RunConfig, UsageError
from noricert.disktrace import escape_witness, vanishing_orders
from noricert.family import (
    FamilyParamError,
    FamilyParams,
    build_family,
    structural_checks,
)

from conftest import SIZES

EXPECTED_C = {2: (1,), 3: (1, 4), 4: (1, 4, 11)}
EXPECTED_D = {2: (1,), 3: (3, 1), 4: (8, 3, 1)}
EXPECTED_N = {2: 8, 3: 30, 4: 104}


def _verdict(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS — {text}")


def test_criterion_01_structural(built_families):
    started = time.perf_counter()
    for n in SIZES:
        fam = built_families[n]
        eps = fam.params.eps
        assert tuple(fam.params.c) == EXPECTED_C[n]
        assert tuple(fam.params.d) == EXPECTED_D[n]
        assert fam.params.N == EXPECTED_N[n]
        factors = [fam.Pk(k) for k in range(1, n)]
        for k, p in enumerate(factors, start=1):
            assert p.degree == EXPECTED_D[n][k - 1]
            assert abs(p.leading) == 1  # monic up to sign
            assert p.coeffs[0] == eps ** EXPECTED_C[n][k - 1]
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert poly_gcd(factors[i], factors[j]).degree == 0
        report = structural_checks(fam)
        assert report.all_passed, [c.name for c in report.failed()]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict(1, f"tables, monicity, constants, coprimality exact ({elapsed:.2f}s)")


def _float_log2_max_root(poly: Poly) -> float:
    """Float oracle: log2 of the max root modulus, via a balanced companion
    matrix.

    The raw coefficients underflow float64 at the deeper scales, so the
    polynomial is evaluated at ``2^E * mu`` for the integer ``E`` matching
    the mean root scale; the oracle then works near magnitude one and the
    exact exponent is added back in log space.
    """
    coeffs = list(poly.coeffs)
    deg = len(coeffs) - 1

    def decompose(q: F):
        if q == 0:
            return 0.0, 0
        e = q.numerator.bit_length() - q.denominator.bit_length()
        return float(q / F(2) ** e), e

    parts = [decompose(F(c)) for c in coeffs]
    e0, ed = parts[0][1], parts[deg][1]
    scale = round((e0 - ed) / deg)
    balanced = [
        math.ldexp(m, e + scale * i - e0) if m else 0.0
        for i, (m, e) in enumerate(parts)
    ]
    roots = np.roots(list(reversed(balanced)))
    return scale + math.log2(max(abs(z) for z in roots))


def test_criterion_02_root_localization(built_families):
    started = time.perf_counter()
    for n in SIZES:
        fam = built_families[n]
        certs = family_root_certificates(fam)
        for k in range(1, n):
            cert = certs[k]
            d_k = EXPECTED_D[n][k - 1]
            assert cert.status is Status.PROVED
            assert cert.radius == F(1, 2**k)
            assert cert.count == cert.degree == d_k
            # independent float oracle: max root modulus below 2^-k with
            # relative margin > 10^3 (checked in log space; the roots sit at
            # scales far below float64 underflow)
            log_max = _float_log2_max_root(fam.Pk(k))
            assert (-k) - log_max > math.log2(1000.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(2, f"all roots in |z| < 2^-k, oracle margin > 10^3 ({elapsed:.2f}s)")


def test_criterion_03_divisibility(built_families):
    for n in SIZES:
        fam = built_families[n]
        for k in range(1, n):
            witness = lemma_div_check(fam, k)
            assert witness.status is Status.PROVED, (n, k, witness.detail)
    eps3 = built_families[3].params.eps
    quotient = lemma_div_check(built_families[3], 2).quotient
    assert quotient == Poly((F(1), F(0), -(eps3**3)))
    _verdict(3, "zero remainders; the n=3,k=2 quotient is 1 - eps^3*z^2")


def test_criterion_04_annulus_bounds(built_families, root_certs):
    for n in SIZES:
        report = annulus_bounds_certificate(
            built_families[n], root_certs[n], spot_checks=1024
        )
        assert report.status is Status.PROVED
        for k in range(1, n):
            bounds = report.factor(k)
            d_k = EXPECTED_D[n][k - 1]
            assert bounds.status is Status.PROVED
            assert bounds.lower == F(1, 2) ** d_k
            assert bounds.upper == F(3) ** d_k
            assert bounds.spot_checks == 1024  # 512 per boundary circle
    _verdict(4, "factor bounds hold at 512 exact points per circle")


def test_criterion_05_modulus_chain(built_families, corollary_reports):
    # exact envelope chain first
    for n in SIZES:
        report = corollary_reports[n]
        assert report.status is Status.PROVED
        assert not report.failed()

    # then the pointwise form: at 512 exact points on each of |z| = 1 and
    # |z| = 2, certified strict bounds for
    #   (a) |f1| < r/n   (b) |f2| < r^2/n   (c) n|f2| < |f1|
    #   (d) |f2|^k < |f1| for k = 1..2n
    for n in SIZES:
        fam = built_families[n]
        r = fam.params.r
        rn2, rd2 = r.numerator**2, r.denominator**2
        nn = _p_int(n * n, True)
        for radius in (F(1), F(2)):
            for cp in circle_points(radius, 512):
                a, b, c = as_scaled(cp.point)
                v1 = eval_scaled(fam.f1, a, b, c)
                v2 = eval_scaled(fam.f2, a, b, c)
                a1_lo, a1_hi = _abs2_bounds(v1)
                a2_lo, a2_hi = _abs2_bounds(v2)
                checks = {
                    "a": _p_lt(
                        _p_mul(_p_mul(nn, a1_hi, True), _p_int(rd2, True), True),
                        _p_int(rn2, False),
                    ),
                    "b": _p_lt(
                        _p_mul(
                            _p_mul(nn, a2_hi, True), _p_int(rd2 * rd2, True), True
                        ),
                        _p_int(rn2 * rn2, False),
                    ),
                    "c": _p_lt(_p_mul(nn, a2_hi, True), a1_lo),
                }
                for k in range(1, 2 * n + 1):
                    checks[f"d{k}"] = _p_lt(_p_pow(a2_hi, k, True), a1_lo)
                undecided = [name for name, ok in checks.items() if not ok]
                if undecided:
                    # certified bounds could not separate: settle exactly
                    exact1 = fam.f1(cp.point).abs2()
                    exact2 = fam.f2(cp.point).abs2()
                    assert n * n * exact1 < r * r, (n, cp.point)
                    assert n * n * exact2 < r**4, (n, cp.point)
                    assert n * n * exact2 < exact1, (n, cp.point)
                    power = F(1)
                    for k in range(1, 2 * n + 1):
                        power *= exact2
                        assert power < exact1, (n, k, cp.point)
    _verdict(5, "chain certificates plus 512-point (a)-(d), (d) up to k=2n")


def test_criterion_06_disk_trace(trace_reports):
    previous_sup = None
    for n in SIZES:
        report = trace_reports[n]
        assert report.condition_i.status is Status.PROVED
        assert report.condition_ii.status is Status.PROVED
        assert report.condition_iii.status is Status.PROVED
        stages = report.condition_i.data["stages"]
        witness = next(s for s in stages if s["name"] == "cone-window-witness")
        assert witness["data"]["samples"] >= 2000
        assert report.sup_squared is not None
        assert report.sup_squared <= F(1, n * n)
        if previous_sup is not None:
            assert report.sup_squared <= previous_sup
        previous_sup = report.sup_squared
    _verdict(6, ">=2000 samples per n in the cone cover; sup <= 1/n, nonincreasing")


def test_criterion_07_escape(built_families, trace_reports):
    fams = [built_families[n] for n in SIZES]
    for fam in fams:
        assert vanishing_orders(fam) == (fam.n, 1)
    witness = escape_witness(fams)
    assert witness.status is Status.PROVED
    assert witness.entries == ((2, 1), (3, 2), (4, 3))
    depths = [depth for _, depth in witness.entries]
    assert all(b > a for a, b in zip(depths, depths[1:]))
    for n in SIZES:
        assert trace_reports[n].escape_index == n - 1
    _verdict(7, "orders (n, 1); escape indices (1, 2, 3) strictly increasing")


def test_criterion_08_cone_internals(
    built_families, root_certs, identities, corollary_reports
):
    for n in SIZES:
        fam = built_families[n]
        for k in range(0, n):
            cert = cone_factor_certificate(fam, k, root_certs[n], identities[n])
            assert cert.status is Status.PROVED, (n, k, cert.detail)
            assert cert.identity_ok and cert.divisibility_ok
            assert cert.nonvanishing is not None
            assert cert.nonvanishing.margin is not None
            assert cert.nonvanishing.margin > 0
        scalar = next(
            c for c in corollary_reports[n].checks if c.name == "scalar-window"
        )
        assert scalar.passed and scalar.relation == "<="
        assert scalar.lhs == scalar.rhs  # equality exactly at the defaults
    r, rho = F(1, 5), F(1, 2)
    assert r * r == (rho / 2) * (r - r * r)
    _verdict(8, "nonvanishing margins > 0; scalar window tight at defaults")


def test_criterion_09_atlas():
    r, seed = F(1, 5), 0
    pairs = [(j, k) for j in range(0, 5) for k in range(j + 2, 7)]
    assert len(pairs) == 15  # all nonadjacent index pairs up to 6
    for j, k in pairs:
        report = disjointness_search(r, j, k, 100_000, seed)
        assert report.disjoint, (j, k, report.detail)
    overlap = overlap_polydisk_check(r, 10_000, seed)
    assert overlap.passed, overlap.detail
    assert negative_definite(IntersectionMatrix(-3, 2, -3)) is True
    assert negative_definite(IntersectionMatrix(-2, 2, -2)) is False
    _verdict(9, "10^5-sample disjointness x15 pairs; 10^4 overlap; matrix pair")


def test_criterion_10_refutation_paths():
    # scale parameter pushed up by 10^N: at least one certificate must refute
    n = 2
    params = FamilyParams.build(n)
    tampered = FamilyParams.build(
        n, eps=params.eps * 10 ** params.N, allow_unsafe_eps=True
    )
    fam = build_family(tampered)
    statuses = []
    structural = structural_checks(fam)
    statuses.append(Status.PROVED if structural.all_passed else Status.REFUTED)
    roots = family_root_certificates(fam)
    statuses.extend(rc.status for rc in roots.values())
    annulus = annulus_bounds_certificate(fam, roots)
    statuses.append(annulus.status)
    statuses.append(corollary_ineq_certificate(fam, annulus).status)
    assert Status.REFUTED in statuses

    # incompatible radius/opening pair: rejected before any pipeline runs
    try:
        RunConfig(n_list=(2,), r=F(9, 10), rho=F(1, 2)).validate()
        raise AssertionError("r=9/10, rho=1/2 must fail config validation")
    except UsageError:
        pass
    try:
        FamilyParams.build(2, r=F(9, 10), rho=F(1, 2))
        raise AssertionError("r=9/10, rho=1/2 must fail parameter validation")
    except FamilyParamError as exc:
        assert exc.violation == "r-rho-compat"
    _verdict(10, "eps*10^N refutes; r=9/10 rejected at validation")
