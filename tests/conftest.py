"""Shared fixtures: building families and certificates once per session.

Certificate construction is deterministic, so caching across tests changes
nothing about what is verified — only how often it is recomputed.
"""

from fractions import Fraction

import numpy as np
import pytest

from noricert.arith import eval_scaled, scaled_abs2
from noricert.certify import (
    RootLocalization,
    annulus_bounds_certificate,
    circle_triples,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
)
from noricert.family import Family, default_family

SIZES = (2, 3, 4)


def retouched(fam, **changes):
    """``fam`` with the polynomials ``changes`` (``P``, ``f1`` or ``f2``) in
    place of its own, as a family given by its polynomials (``Family.of``)."""
    return Family.of(fam.params, **{"P": fam.P, "f1": fam.f1, "f2": fam.f2, **changes})


def relocalized(cert, **changes):
    """The root localization ``cert`` with the fields ``changes`` in place of
    its own."""
    fields = {name: getattr(cert, name) for name in RootLocalization.__slots__}
    return RootLocalization(**{**fields, **changes})


@pytest.fixture(scope="session")
def built_families():
    return {n: default_family(n) for n in SIZES}


@pytest.fixture(scope="session")
def root_certs(built_families):
    return {n: family_root_certificates(built_families[n]) for n in SIZES}


@pytest.fixture(scope="session")
def annulus_reports(built_families, root_certs):
    return {
        n: annulus_bounds_certificate(built_families[n], root_certs[n])
        for n in SIZES
    }


@pytest.fixture(scope="session")
def identities(built_families):
    return {n: exact_identity_checks(built_families[n]) for n in SIZES}


@pytest.fixture(scope="session")
def divisions(built_families):
    """The pipeline's division witnesses, derived from the recursions."""
    return {n: [lemma_div_check(built_families[n], k) for k in range(1, n)] for n in SIZES}


def float_roots(poly):
    """Float oracle: numpy companion-matrix roots of an exact polynomial."""
    coeffs = [float(c) for c in reversed(poly.coeffs)]
    return np.roots(coeffs)


@pytest.fixture(scope="session")
def corollary_reports(built_families, annulus_reports):
    from noricert.certify import corollary_ineq_certificate

    return {
        n: corollary_ineq_certificate(built_families[n], annulus_reports[n])
        for n in SIZES
    }


@pytest.fixture(scope="session")
def trace_reports(built_families, root_certs, corollary_reports, identities, divisions):
    """Full end-to-end trace per n, built once (the n=4 trace dominates)."""
    from noricert.disktrace import trace_family

    return {
        n: trace_family(
            built_families[n],
            root_certs=root_certs[n],
            corollary=corollary_reports[n],
            identities=identities[n],
            divisions=divisions[n],
        )
        for n in SIZES
    }


def _scaled_product(p, q, z, bits):
    """``(lo, hi)`` with lo <= p q / 2^z < hi, from the top ``bits`` bits of p."""
    a = min(max(p.bit_length() - bits, 0), z)
    top_p, top_q = p >> a, q >> (z - a)
    return top_p * top_q, (top_p + 1) * (top_q + 1)


def _pair_lt(x, y):
    """x[0]/x[1] < y[0]/y[1] for unreduced pairs (num >= 0, den > 0).

    The cross products are compared by bit lengths, then by their top bits
    at rising precision, and formed only when those leave it open: the sup
    candidates of neighbouring circle points can agree to thousands of bits.
    """
    if not x[0] or not y[0] or x == y:  # conjugate points give equal pairs
        return x[0] < y[0]
    left = x[0].bit_length() + y[1].bit_length()
    right = y[0].bit_length() + x[1].bit_length()
    if left + 2 <= right:
        return True
    if right + 2 <= left:
        return False
    for bits in (64, 512, 4096):
        z = max(max(left, right) - 2 * bits, 0)
        l_lo, l_hi = _scaled_product(x[0], y[1], z, bits)
        r_lo, r_hi = _scaled_product(y[0], x[1], z, bits)
        if l_hi <= r_lo:
            return True
        if r_hi <= l_lo:
            return False
    return x[0] * y[1] < y[0] * x[1]


def exact_sup(fam, pts):
    """max(|f1|^2, |f2|^2, |f2/f1|^2) over every point of ``pts``, as a Fraction.

    The candidates stay unreduced integer pairs, compared by cross-multiplying;
    only the maximum is reduced.
    """
    best = (0, 1)
    for triple in pts:
        (n1, q1), (n2, q2) = (scaled_abs2(eval_scaled(f, *triple)) for f in (fam.f1, fam.f2))
        for candidate in ((n1, q1), (n2, q2), (n2 * q1, q2 * n1)):
            if _pair_lt(best, candidate):
                best = candidate
    return Fraction(*best)


@pytest.fixture(scope="session")
def unit_circle_sups(built_families):
    """The sampled boundary sup metric (squared) at all 512 exact points of |lam| = 1.

    The pipeline derives the bound 1/n from its target certificate and
    evaluates nothing; this is the sampled cross-check of that bound.
    """
    pts = circle_triples(Fraction(1), 512)
    return {n: exact_sup(built_families[n], pts) for n in SIZES}
