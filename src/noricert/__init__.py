"""noricert: exact-arithmetic certification of a polynomial disk family.

The package builds an explicit family of polynomial maps of the unit disk
into an infinite chain of blow-up charts and machine-verifies, in exact
rational arithmetic, every inequality, divisibility, and root-localization
statement that the construction relies on, producing reproducible
certificates and refutation witnesses.
"""

from .arith import ComplexRational, Poly, Rational, format_rational, parse_rational, poly_gcd
from .atlas import (
    ChartPoint,
    IntersectionMatrix,
    chart_cover_indices,
    negative_definite,
)
from .certify import (
    Status,
    annulus_bounds_certificate,
    cone_factor_certificate,
    root_product_dominance,
    corollary_ineq_certificate,
    exact_identity_checks,
    family_root_certificates,
    lemma_div_check,
)
from .disktrace import (
    Certificate,
    TargetRegion,
    TraceReport,
    annulus_into_target,
    base_chart_certificate,
    chart_cone_certificate,
    cone_window_witness,
    image_in_chart_window,
    trace_family,
    vanishing_orders,
)
from .family import Family, FamilyParams, choose_epsilon, default_family, make_constants
from .sampling import RationalSampler, seed_for

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChartPoint",
    "ComplexRational",
    "Family",
    "FamilyParams",
    "IntersectionMatrix",
    "Poly",
    "Rational",
    "RationalSampler",
    "Status",
    "TargetRegion",
    "TraceReport",
    "annulus_bounds_certificate",
    "annulus_into_target",
    "base_chart_certificate",
    "chart_cone_certificate",
    "chart_cover_indices",
    "choose_epsilon",
    "cone_factor_certificate",
    "cone_window_witness",
    "corollary_ineq_certificate",
    "default_family",
    "exact_identity_checks",
    "family_root_certificates",
    "format_rational",
    "image_in_chart_window",
    "lemma_div_check",
    "make_constants",
    "negative_definite",
    "parse_rational",
    "poly_gcd",
    "root_product_dominance",
    "seed_for",
    "trace_family",
    "vanishing_orders",
    "__version__",
]
