"""Value semantics shared by knotrank's seven record classes and the evaluation view.

Each record is an immutable value: its fields are fixed at construction,
two records are equal exactly when they have the same class and equal
fields, equal records hash alike, and pickle and copy rebuild an equal
record.
"""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from knotrank import (
    CertifiedWitness,
    IndependenceCertificate,
    LaurentPoly,
    PretzelKnot,
    SeifertMatrix,
    VerificationResult,
    WitnessKnot,
    build_certificate,
    certify,
    witness,
)
from knotrank import characters
from knotrank.numtheory import PrimePower

CW = certify(witness(2))

# (record, its fields in declaration order, its exact repr)
RECORDS = [
    (LaurentPoly(-1, (1, 0, 2)), ("lowest", "coeffs"), "LaurentPoly(lowest=-1, coeffs=(1, 0, 2))"),
    (PretzelKnot(1, 2, 3), ("l", "m", "n"), "PretzelKnot(l=1, m=2, n=3)"),
    (WitnessKnot(2), ("index", "stab_count"), "WitnessKnot(index=2, stab_count=0)"),
    (
        SeifertMatrix(((1, 0), (1, 1))),
        ("entries",),
        "SeifertMatrix(entries=((1, 0), (1, 1)))",
    ),
    (
        CW,
        ("witness", "rank", "factorization", "max_prime"),
        "CertifiedWitness(witness=WitnessKnot(index=2, stab_count=0), rank=5, "
        "factorization=(PrimePower(prime=5, exponent=1),), max_prime=5)",
    ),
    (
        IndependenceCertificate((CW,), (5,), ((1,),)),
        ("witnesses", "selected_primes", "evaluation"),
        "IndependenceCertificate(witnesses=(CertifiedWitness(witness=WitnessKnot(index=2, "
        "stab_count=0), rank=5, factorization=(PrimePower(prime=5, exponent=1),), "
        "max_prime=5),), selected_primes=(5,), evaluation=((1,),))",
    ),
    (VerificationResult(False, "x"), ("ok", "reason"), "VerificationResult(ok=False, reason='x')"),
    # a certificate's evaluation is a record too, printed as its dense tuple
    (characters._EvaluationView((((0, 1),),)), ("rows",), "((1,),)"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr_is_exact(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records_with_equal_hashes(record, fields, text):
    twin = type(record)(*values(record, fields))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values(record, fields))
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_records_of_another_class_are_never_equal(record, fields, text):
    subclass = type("Twin", (type(record),), {})
    other = subclass(*values(record, fields))
    assert record != other and other != record
    assert record != values(record, fields)
    assert record != None  # noqa: E711  (the operator is what is tested)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(record, fields, text):
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, fields, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert hash(clone) == hash(record)


def cell_backed_certificates():
    # rank 25 = 5^2 and rank 85 = 5 * 17: an exponent of two and an entry above the diagonal
    ws = (certify(witness(4)), certify(witness(7)))
    rows = characters._prime_cells(ws, (5, 17))
    return {
        "built": build_certificate(6, 100),
        "entry above the diagonal": IndependenceCertificate(
            ws, (5, 17), characters._EvaluationView(rows)
        ),
    }


@pytest.mark.parametrize("name", sorted(cell_backed_certificates()))
def test_a_cell_backed_certificate_is_the_record_of_its_dense_matrix(name):
    cert = cell_backed_certificates()[name]
    view = cert.evaluation
    matrix = tuple(tuple(row) for row in view)
    dense = IndependenceCertificate(cert.witnesses, cert.selected_primes, matrix)
    assert type(view) is characters._EvaluationView and type(matrix) is tuple
    # the dense matrix is read into the same cells
    assert type(dense.evaluation) is characters._EvaluationView
    assert dense.evaluation.rows == view.rows
    # the view is a record, equal to the view of the same cells and to no tuple
    assert tuple(view) == matrix and view != matrix and matrix != view
    assert view == dense.evaluation and not view != dense.evaluation
    assert cert == dense and dense == cert and not cert != dense
    assert hash(view) == hash(dense.evaluation) and hash(cert) == hash(dense)
    assert len({cert, dense}) == 1
    assert repr(view) == repr(matrix) and repr(cert) == repr(dense)
    assert cert.to_json() == dense.to_json()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(cert, protocol))
        assert back == dense and hash(back) == hash(dense)
    for clone in (copy.copy(cert), copy.deepcopy(cert)):
        assert clone == dense and hash(clone) == hash(dense)
    # it indexes and iterates as the tuple does
    assert len(view) == len(matrix) and list(view) == list(matrix)
    for index in (0, 1, -1, slice(1, None), slice(None, None, -1)):
        assert view[index] == matrix[index]
    with pytest.raises(IndexError):
        view[len(matrix)]
    # and it is unequal to a view of other cells
    assert view != [list(row) for row in matrix]
    assert view != characters._EvaluationView(view.rows[:-1])
    changed = ((matrix[0][0] + 1, *matrix[0][1:]), *matrix[1:])
    other = IndependenceCertificate(cert.witnesses, cert.selected_primes, changed).evaluation
    assert view != other and other != view
    with pytest.raises(AttributeError):
        view.rows = ()


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter (-I: no PYTHONPATH, no user site), where no
# record has been compared yet.  It keeps every entry of each record
# class's namespace, uses one record of each class every way a record is
# used, and reports each entry that is no longer the same object.
CLASS_PROBE = f"""
import copy, json, pickle, sys
sys.path.insert(0, {str(SRC)!r})
from knotrank import *
from knotrank.characters import _EvaluationView
cw = certify(witness(2))
records = [
    LaurentPoly(-1, (1, 0, 2)), PretzelKnot(1, 2, 3), WitnessKnot(2),
    SeifertMatrix(((1, 0), (1, 1))), cw, IndependenceCertificate((cw,), (5,), ((1,),)),
    VerificationResult(False, "x"), _EvaluationView((((0, 1),),)),
]
before = {{type(r): dict(vars(type(r))) for r in records}}
for r in records:
    twin = copy.copy(r)
    assert r == twin and not r != twin and r != None and hash(r) == hash(twin)
    assert {{r, twin, copy.deepcopy(r), pickle.loads(pickle.dumps(r))}} == {{r}}
    repr(r)
changed = sorted(
    f"{{cls.__name__}}.{{name}}"
    for cls, entries in before.items()
    for name in entries.keys() | vars(cls).keys()
    if entries.get(name) is not vars(cls).get(name)
)
print(json.dumps({{"classes": len(before), "changed": changed}}))
"""


def test_records_never_rewrite_their_classes():
    # perfbench's traced pass checks that the package is restored by the
    # identity of every class attribute, which holds only if using a
    # record leaves its class as it was at import
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CLASS_PROBE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"classes": 8, "changed": []}


def test_keyword_construction():
    assert PretzelKnot(l=1, m=2, n=3) == PretzelKnot(1, 2, 3)
    assert LaurentPoly(lowest=2, coeffs=(0, 3)) == LaurentPoly(3, (3,))
    assert WitnessKnot(index=3, stab_count=1) == WitnessKnot(3, 1)
    assert SeifertMatrix(entries=((0, 1), (0, 0))).genus == 1
    assert VerificationResult(ok=True) == VerificationResult(True, None)
    cw = CertifiedWitness(
        witness=CW.witness, rank=5, factorization=(PrimePower(5, 1),), max_prime=5
    )
    assert cw == CW
    cert = IndependenceCertificate(witnesses=(CW,), selected_primes=(5,), evaluation=((1,),))
    assert cert == IndependenceCertificate((CW,), (5,), ((1,),))


def test_defaults():
    assert WitnessKnot(4).stab_count == 0
    assert VerificationResult(True).reason is None
    assert LaurentPoly() == LaurentPoly(0, ())


def test_laurent_construction_is_canonical_after_a_round_trip():
    p = LaurentPoly(2, [0, 0, 7, 0])
    assert (p.lowest, p.coeffs) == (4, (7,))
    assert type(p.coeffs) is tuple
    assert pickle.loads(pickle.dumps(p)).coeffs == (7,)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0,), "witness index must be >= 1, got 0"),
        ((-3,), "witness index must be >= 1, got -3"),
        ((1, -1), "stab_count must be >= 0, got -1"),
    ],
)
def test_witness_knot_rejects_bad_fields(args, message):
    with pytest.raises(ValueError) as info:
        WitnessKnot(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "entries, message",
    [
        ((), "Seifert matrix size must be even and >= 2, got 0"),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "Seifert matrix size must be even and >= 2, got 3"),
        (((1, 0), (1,)), "Seifert matrix must be square"),
        (((1, 0), (0, 1, 2)), "Seifert matrix must be square"),
        (((1, 0), (0, 1.0)), "Seifert matrix entries must be integers"),
        (((1, 0), (0, True)), "Seifert matrix entries must be integers"),
        (((1, "0"), (0, 1)), "Seifert matrix entries must be integers"),
    ],
)
def test_seifert_matrix_rejects_bad_entries(entries, message):
    with pytest.raises(ValueError) as info:
        SeifertMatrix(entries)
    assert str(info.value) == message
