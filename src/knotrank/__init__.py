"""knotrank: exact knot-invariant computations for pretzel knots.

Computes Alexander polynomials (closed form and Seifert determinant),
decides homological fiberedness, builds witness knots whose top
knot-Floer rank a chosen prime divides, and emits machine-checkable
certificates that the resulting prime-component rank characters are
linearly independent.
"""

from .characters import (
    CertifiedWitness,
    IndependenceCertificate,
    SearchExhausted,
    VerificationResult,
    build_certificate,
    certify,
    prime_component,
    verify_certificate,
    witness_for_prime,
)
from .laurent import LaurentPoly, NotUnitAtOne, PoleAtZero, ZeroPolynomial
from .numtheory import (
    NotOneModFour,
    NotPrime,
    PrimePower,
    factorize,
    is_prime,
    primes_one_mod_four,
    sqrt_minus_one,
    witness_index,
)
from .pretzel import (
    AlreadyStabilized,
    PretzelKnot,
    UnsupportedStabilized,
    WitnessKnot,
    alexander_closed_form,
    alexander_of_witness,
    hfk_bigraded,
    hfk_top_rank,
    stabilize,
    witness,
)
from .seifert import (
    SeifertMatrix,
    alexander_from_seifert,
    fiberedness,
    is_homology_product,
    pretzel_seifert_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AlreadyStabilized",
    "CertifiedWitness",
    "IndependenceCertificate",
    "LaurentPoly",
    "NotOneModFour",
    "NotPrime",
    "NotUnitAtOne",
    "PoleAtZero",
    "PretzelKnot",
    "PrimePower",
    "SearchExhausted",
    "SeifertMatrix",
    "UnsupportedStabilized",
    "VerificationResult",
    "WitnessKnot",
    "ZeroPolynomial",
    "alexander_closed_form",
    "alexander_from_seifert",
    "alexander_of_witness",
    "build_certificate",
    "certify",
    "factorize",
    "fiberedness",
    "hfk_bigraded",
    "hfk_top_rank",
    "is_homology_product",
    "is_prime",
    "prime_component",
    "primes_one_mod_four",
    "pretzel_seifert_matrix",
    "sqrt_minus_one",
    "stabilize",
    "verify_certificate",
    "witness",
    "witness_for_prime",
    "witness_index",
]
