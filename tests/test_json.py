"""JSON round trips of every serialized type, through real JSON text."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotrank import cli
from knotrank.characters import (
    CertifiedWitness,
    IndependenceCertificate,
    build_certificate,
    certify,
    verify_certificate,
)
from knotrank.laurent import LaurentPoly
from knotrank.pretzel import WitnessKnot, hfk_top_rank
from knotrank.seifert import SeifertMatrix

ROUND_TRIP = settings(max_examples=200, deadline=None, derandomize=True)


def through_text(data):
    return json.loads(json.dumps(data))


@ROUND_TRIP
@given(st.integers(-(10**6), 10**6), st.lists(st.integers(-(10**40), 10**40), max_size=8))
def test_laurent_poly_round_trip(lowest, coeffs):
    poly = LaurentPoly(lowest, coeffs)
    assert LaurentPoly.from_json(through_text(poly.to_json())) == poly


@st.composite
def seifert_matrices(draw):
    size = 2 * draw(st.integers(1, 4))
    row = st.lists(st.integers(-(10**20), 10**20), min_size=size, max_size=size)
    return SeifertMatrix.from_rows(draw(st.lists(row, min_size=size, max_size=size)))


@ROUND_TRIP
@given(seifert_matrices())
def test_seifert_matrix_round_trip(matrix):
    assert SeifertMatrix.from_json(through_text(matrix.to_json())) == matrix


@ROUND_TRIP
@given(st.integers(1, 10**15), st.integers(0, 50))
def test_witness_knot_round_trip(index, stab):
    w = WitnessKnot(index, stab)
    data = through_text(w.to_json())
    assert WitnessKnot.from_json(data) == w
    assert data["top_rank"] == hfk_top_rank(w)


@ROUND_TRIP
@given(st.integers(1, 10**6))
def test_certified_witness_round_trip(index):
    cw = certify(WitnessKnot(index))
    assert CertifiedWitness.from_json(through_text(cw.to_json())) == cw


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 30))
def test_certificate_round_trip(count):
    cert = build_certificate(count, 10_000)
    assert IndependenceCertificate.from_json(through_text(cert.to_json())) == cert


def test_read_count_300_envelope_is_the_built_record(capsys):
    # A square matrix of ints is read into the cell view a built record
    # holds: the same record, hash and repr, and it verifies.
    assert cli.main(["certificate", "--count", "300", "--json"]) == 0
    read = IndependenceCertificate.from_json(json.loads(capsys.readouterr().out)["result"])
    built = build_certificate(300, 10_000)
    assert read == built and hash(read) == hash(built) and repr(read) == repr(built)
    assert type(read.evaluation) is type(built.evaluation)
    assert verify_certificate(read)


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda m: m[1].pop(), "witness, prime, and matrix dimensions disagree"),
        (lambda m: m.append([0, 0, 0]), "witness, prime, and matrix dimensions disagree"),
        (lambda m: m[2].__setitem__(0, 10**30), "triangularity violated at evaluation[2][0]"),
    ],
)
def test_read_matrix_of_any_shape_keeps_its_verdict(change, reason):
    # A ragged or non-square matrix is refused when it is read, with the
    # constructor's message; a square one is read and keeps its verdict.
    data = through_text(build_certificate(3, 100).to_json())
    change(data["matrix"])
    if reason == "witness, prime, and matrix dimensions disagree":
        with pytest.raises(ValueError) as info:
            IndependenceCertificate.from_json(data)
        assert str(info.value) == f"malformed certificate JSON: {reason}"
        return
    cert = IndependenceCertificate.from_json(data)
    dense = tuple(tuple(row) for row in data["matrix"])
    assert tuple(cert.evaluation) == dense and cert.evaluation != dense
    assert verify_certificate(cert).reason == reason


@pytest.mark.parametrize(
    "row, message",
    [
        ([1, True, 0], "a matrix entry must be an integer, got True"),
        ([1, 0.0, 0], "a matrix entry must be an integer, got 0.0"),
        (5, "'int' object is not iterable"),
        ({"a": 1}, "a matrix entry must be an integer, got 'a'"),
        ("12", "a matrix entry must be an integer, got '1'"),
    ],
)
def test_read_matrix_names_the_first_bad_entry(row, message):
    data = through_text(build_certificate(3, 100).to_json())
    data["matrix"][1] = row
    with pytest.raises(ValueError) as info:
        IndependenceCertificate.from_json(data)
    assert str(info.value) == f"malformed certificate JSON: {message}"


def test_certificate_rejects_coerced_integers():
    # int() used to turn 5.9 into 5, true into 1 and "5" into 5, and this
    # dict then round-tripped into a certificate that verified
    data = through_text(build_certificate(3, 100).to_json())
    data["primes"][0] = 5.9
    data["matrix"][0][0] = True
    data["witnesses"][0]["factorization"][0] = ["5", 1.0]
    with pytest.raises(ValueError):
        IndependenceCertificate.from_json(data)


@pytest.mark.parametrize(
    "path, value",
    [
        (("primes", 0), 5.0),
        (("primes", 0), "5"),
        (("matrix", 0, 0), True),
        (("matrix", 1, 0), 0.0),
        (("witnesses", 0, "rank"), 5.0),
        (("witnesses", 0, "max_prime"), "5"),
        (("witnesses", 0, "factorization", 0), ["5", 1]),
        (("witnesses", 0, "factorization", 0), [5, True]),
        (("witnesses", 0, "factorization", 0), [5, 1, 1]),
        (("witnesses", 0, "factorization", 0), [5]),
        (("witnesses", 0, "witness", "index"), True),
        (("witnesses", 0, "witness", "stab"), False),
    ],
)
def test_certificate_rejects_each_non_integer_field(path, value):
    data = through_text(build_certificate(3, 100).to_json())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        IndependenceCertificate.from_json(data)
