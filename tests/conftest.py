"""Shared fixtures: building families and certificates once per session.

Certificate construction is deterministic, so caching across tests changes
nothing about what is verified — only how often it is recomputed.
"""

import numpy as np
import pytest

from noricert.certify import (
    annulus_bounds_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
)
from noricert.family import default_family

SIZES = (2, 3, 4)


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
    return {
        n: [lemma_div_check(built_families[n], k) for k in range(1, n)]
        for n in SIZES
    }


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
