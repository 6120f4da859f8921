"""Exact analysis of weight-preserving linear maps between finite-field function spaces.

Builds measured Hamming weights, point quotients, controllability and
separation certificates, and weighted-composition decompositions, down to
the classical permutation/scaling equivalence of block codes.
"""

from .decompose import (
    Decomposition,
    Refutation,
    decompose,
    functional_at,
    h_properties,
    is_support,
    minimal_support,
    monomial_form,
    omega_cocycle_check,
    verify,
)
from .funspace import CozRing, FunctionSpace, coz_ring, is_controllable
from .gf import Field, field_new
from .linmap import LinMap, disjointness_additivity, is_isometry, is_separating
from .macwilliams import (
    MonomialMap,
    equivalence_decide,
    isometry_search,
    monomial_apply,
    monomial_search,
)
from .quotient import (
    Quotient,
    build_quotient,
    is_saturated,
    lambda_scalar,
    related,
    related_fast,
    separating_witness,
)
from .space import PointSet, PointSpace, measure

__all__ = [
    "Decomposition",
    "Refutation",
    "decompose",
    "functional_at",
    "h_properties",
    "is_support",
    "minimal_support",
    "monomial_form",
    "omega_cocycle_check",
    "verify",
    "CozRing",
    "FunctionSpace",
    "coz_ring",
    "is_controllable",
    "Field",
    "field_new",
    "LinMap",
    "disjointness_additivity",
    "is_isometry",
    "is_separating",
    "MonomialMap",
    "equivalence_decide",
    "isometry_search",
    "monomial_apply",
    "monomial_search",
    "Quotient",
    "build_quotient",
    "is_saturated",
    "lambda_scalar",
    "related",
    "related_fast",
    "separating_witness",
    "PointSet",
    "PointSpace",
    "measure",
]

__version__ = "0.1.0"
