"""Exact classification of uniqueness and strong-uniqueness polynomials over Q.

The library decides, for a polynomial P with rational coefficients, whether
P(f) = P(g) forces f = g for nonconstant rational functions f, g (and the
meromorphic variants, and the strong variants where P(f) = c P(g) is allowed),
and emits machine-checkable certificates for every verdict.
"""

from __future__ import annotations

from .classify import (
    SLOTS,
    Verdict,
    Witness,
    classify,
    consistency_audit,
    corollary_classify,
    corollary_shape,
    verify_witness,
    witness_search,
)
from .criteria import (
    critical_structure,
    index_data,
    linear_factor_scan,
    normalize,
)
from .curves import (
    Configuration,
    bezout_irreducibility,
    genus_ordinary,
    scaled_value_curve,
    shared_value_curve,
    singular_census,
    verify_curve_identities,
)
from .orders import enumerate_configurations, hyperbolicity_verdict, replay_verdict
from .parser import ParseError, format_poly, parse_poly
from .polynomials import Poly, X

__all__ = [
    "SLOTS",
    "Configuration",
    "ParseError",
    "Poly",
    "Verdict",
    "Witness",
    "X",
    "bezout_irreducibility",
    "classify",
    "consistency_audit",
    "corollary_classify",
    "corollary_shape",
    "critical_structure",
    "enumerate_configurations",
    "format_poly",
    "genus_ordinary",
    "hyperbolicity_verdict",
    "index_data",
    "linear_factor_scan",
    "normalize",
    "parse_poly",
    "replay_verdict",
    "scaled_value_curve",
    "shared_value_curve",
    "singular_census",
    "verify_curve_identities",
    "verify_witness",
    "witness_search",
]

__version__ = "0.1.0"
