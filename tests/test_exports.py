import importlib

import knotrank

# the public names, in the sorted order of __all__
PUBLIC = [
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
    "pretzel_seifert_matrix",
    "prime_component",
    "primes_one_mod_four",
    "sqrt_minus_one",
    "stabilize",
    "verify_certificate",
    "witness",
    "witness_for_prime",
    "witness_index",
]


def test_every_export_resolves():
    for name in knotrank.__all__:
        assert hasattr(knotrank, name), name


def test_exports_are_exactly_the_public_imports():
    assert knotrank.__all__ == sorted(set(knotrank.__all__))
    assert knotrank.__all__ == sorted(knotrank._HOMES)
    assert knotrank.__all__ == PUBLIC
    for name, home in knotrank._HOMES.items():
        module = importlib.import_module(f"knotrank.{home}")
        assert getattr(knotrank, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name
    assert set(knotrank.__all__) <= set(dir(knotrank))
    namespace: dict = {}
    exec("from knotrank import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(knotrank, name) for name in PUBLIC
    }
