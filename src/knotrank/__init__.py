"""knotrank: exact knot-invariant computations for pretzel knots.

Computes Alexander polynomials (closed form and Seifert determinant),
decides homological fiberedness, builds witness knots whose top
knot-Floer rank a chosen prime divides, and emits machine-checkable
certificates that the resulting prime-component rank characters are
linearly independent.

``import knotrank`` executes none of its submodules.  Each public name
below, and each submodule that defines one, is imported on its first
access as an attribute of the package (PEP 562) and then kept here, so
a caller of the Alexander polynomials never loads the number theory and
certificate code.  ``knotrank.cli`` is not resolved this way: it loads
only when imported by name.
"""

__version__ = "0.1.0"

# public name: the submodule that defines it
_HOMES = {
    "CertifiedWitness": "characters",
    "IndependenceCertificate": "characters",
    "SearchExhausted": "characters",
    "VerificationResult": "characters",
    "build_certificate": "characters",
    "certify": "characters",
    "prime_component": "characters",
    "verify_certificate": "characters",
    "witness_for_prime": "characters",
    "LaurentPoly": "laurent",
    "NotUnitAtOne": "laurent",
    "PoleAtZero": "laurent",
    "ZeroPolynomial": "laurent",
    "NotOneModFour": "numtheory",
    "NotPrime": "numtheory",
    "PrimePower": "numtheory",
    "factorize": "numtheory",
    "is_prime": "numtheory",
    "primes_one_mod_four": "numtheory",
    "sqrt_minus_one": "numtheory",
    "witness_index": "numtheory",
    "AlreadyStabilized": "pretzel",
    "PretzelKnot": "pretzel",
    "UnsupportedStabilized": "pretzel",
    "WitnessKnot": "pretzel",
    "alexander_closed_form": "pretzel",
    "alexander_of_witness": "pretzel",
    "hfk_bigraded": "pretzel",
    "hfk_top_rank": "pretzel",
    "stabilize": "pretzel",
    "witness": "pretzel",
    "SeifertMatrix": "seifert",
    "alexander_from_seifert": "seifert",
    "fiberedness": "seifert",
    "is_homology_product": "seifert",
    "pretzel_seifert_matrix": "seifert",
}

__all__ = sorted(_HOMES)
_MODULES = frozenset(_HOMES.values())


def __getattr__(name: str):
    """Import the public name or home submodule ``name`` and keep it in the package."""
    home = _HOMES.get(name, name)
    if home not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # the import binds the submodule here
    if name in _HOMES:
        globals()[name] = getattr(globals()[home], name)
    return globals()[name]


def __dir__() -> list:
    return sorted({*globals(), *_HOMES, *_MODULES})
