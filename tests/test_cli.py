import copy
import functools
import hashlib
import io
import json
import os
import pickle
import reprlib
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

from cli_calls import run_calls
from knotrank import characters, cli, pretzel, seifert
from knotrank.laurent import LaurentPoly
from knotrank.numtheory import PrimePower
from knotrank.pretzel import PretzelKnot
from knotrank.seifert import SeifertMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    envelope = json.loads(out)
    # canonical re-serialization plus one newline must be the whole stream
    assert out == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    assert envelope["schema_version"] == "1"
    return code, envelope, err


def write_matrix(tmp_path, rows, name="matrix.json", size=None):
    path = tmp_path / name
    payload = {"size": len(rows) if size is None else size, "entries": rows}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "strands,expected",
    [("-1,3,3", "1 - t + t^2"), ("1,1,1", "1 - t + t^2"), ("1,1,-1", "1")],
)
def test_alexander_pretzel_text(capsys, strands, expected):
    code, out, _ = run_cli(capsys, "alexander", "--pretzel", strands)
    assert code == 0
    assert out.strip() == expected


def test_alexander_json_envelope(capsys):
    code, envelope, _ = run_json(capsys, "alexander", "--pretzel", "-1,3,3")
    assert code == 0
    assert envelope["command"] == "alexander"
    assert envelope["result"]["alexander"] == {"lowest": 0, "coeffs": [1, -1, 1]}
    assert envelope["result"]["pretty"] == "1 - t + t^2"


def test_alexander_from_seifert_file(capsys, tmp_path):
    path = write_matrix(tmp_path, [[1, 1], [0, 1]])
    code, out, _ = run_cli(capsys, "alexander", "--seifert", path)
    assert code == 0
    assert out.strip() == "1 - t + t^2"


def test_alexander_rejects_even_strand(capsys):
    code, _, err = run_cli(capsys, "alexander", "--pretzel", "2,3,3")
    assert code == 2
    with pytest.raises(ValueError) as exc:
        PretzelKnot.from_strands(2, 3, 3)
    assert err == f"error: {exc.value}\n"


def test_alexander_rejects_malformed_strands(capsys):
    code, _, err = run_cli(capsys, "alexander", "--pretzel", "1,1")
    assert code == 2
    code, _, err = run_cli(capsys, "alexander", "--pretzel", "a,b,c")
    assert code == 2


def test_alexander_rejects_non_square_matrix(capsys, tmp_path):
    path = write_matrix(tmp_path, [[1, 1, 0], [0, 1, 0]], size=2)
    code, _, err = run_cli(capsys, "alexander", "--seifert", path)
    assert code == 2


@pytest.mark.parametrize("entries", [[1, 2], [[1, 2], None]])
def test_alexander_rejects_rows_that_are_not_lists(capsys, tmp_path, entries):
    code, _, err = run_cli(capsys, "alexander", "--seifert", write_matrix(tmp_path, entries))
    assert code == 2
    assert err == "error: 'entries' must be a list of rows\n"


TREFOIL_ROWS = [[1, 1], [0, 1]]


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"entries": TREFOIL_ROWS}, id="missing-size"),
        pytest.param({"size": 2}, id="missing-entries"),
        pytest.param(TREFOIL_ROWS, id="list-not-object"),
        pytest.param("matrix", id="string-not-object"),
        pytest.param(None, id="null-not-object"),
        pytest.param({"size": "2", "entries": TREFOIL_ROWS}, id="size-string"),
        pytest.param({"size": 2.0, "entries": TREFOIL_ROWS}, id="size-float"),
        pytest.param({"size": True, "entries": [[0, 1], [0, 0]]}, id="size-bool"),
        pytest.param({"size": 2, "entries": "[[1, 1], [0, 1]]"}, id="entries-string"),
        pytest.param({"size": 2, "entries": {"0": [1, 1], "1": [0, 1]}}, id="entries-object"),
        pytest.param({"size": 2, "entries": [[1, 1], [0]]}, id="ragged"),
        pytest.param({"size": 3, "entries": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}, id="odd-size"),
        pytest.param({"size": 0, "entries": []}, id="empty"),
        pytest.param({"size": 2, "entries": [[1, 1.5], [0, 1]]}, id="float-entry"),
        pytest.param({"size": 2, "entries": [[1, 1.0], [0, 1]]}, id="integral-float-entry"),
        pytest.param({"size": 2, "entries": [[1, "1"], [0, 1]]}, id="string-entry"),
        pytest.param({"size": 2, "entries": [[1, None], [0, 1]]}, id="null-entry"),
        pytest.param({"size": 2, "entries": [[1, True], [0, 1]]}, id="bool-entry"),
        pytest.param({"size": 2, "entries": [[1, 1], [False, 1]]}, id="bool-entry-below"),
    ],
)
@pytest.mark.parametrize("command", ["alexander", "fibered"])
def test_malformed_seifert_envelope_exits_two(capsys, tmp_path, payload, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, command, "--seifert", str(path))
    assert code == 2
    assert out == ""
    with pytest.raises(ValueError) as exc:
        SeifertMatrix.from_json(payload)
    assert err == f"error: {exc.value}\n"


json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=2)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["size", "entries", "x"]), inner, max_size=3),
    max_leaves=16,
)
int_rows = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
)
envelopes = json_values | st.fixed_dictionaries(
    {"size": st.integers(0, 4) | json_values, "entries": int_rows | json_values}
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(envelopes)
def test_any_seifert_envelope_maps_to_an_exit_code(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["fibered", "--seifert", str(path), "--json"])
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_alexander_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, _, err = run_cli(capsys, "alexander", "--seifert", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_alexander_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "alexander", "--seifert", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_alexander_rejects_a_file_that_is_not_json(capsys, tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{"size": 2, "entries": [[1, 1], [0, 1]')
    code, out, err = run_cli(capsys, "alexander", "--seifert", str(path))
    assert (code, out) == (2, "")
    reason = "Expecting ',' delimiter: line 1 column 39 (char 38)"
    assert err == f"error: {path} is not valid JSON: {reason}\n"


def test_alexander_rejects_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "alexander", "--seifert", str(tmp_path / "no.json"))
    assert code == 2


def test_alexander_symmetric_matrix_is_domain_failure(capsys, tmp_path):
    # V - V^T = 0: input parses fine but is not a Seifert matrix of a knot
    path = write_matrix(tmp_path, [[1, 0], [0, 1]])
    code, _, err = run_cli(capsys, "alexander", "--seifert", path)
    assert code == 1
    assert "V - V^T" in err


def test_alexander_requires_exactly_one_source(capsys):
    code, _, _ = run_cli(capsys, "alexander")
    assert code == 2
    code, _, _ = run_cli(capsys, "alexander", "--pretzel", "1,1,1", "--seifert", "x.json")
    assert code == 2


def test_fibered_true(capsys):
    code, out, _ = run_cli(capsys, "fibered", "--pretzel", "-1,3,3")
    assert code == 0
    assert out.strip() == "true"


def test_fibered_false_constant_term(capsys):
    code, out, _ = run_cli(capsys, "fibered", "--pretzel", "3,3,3")
    assert code == 0
    assert out.strip() == "false (Delta(0) = 7)"


def test_fibered_false_degree(capsys):
    code, out, _ = run_cli(capsys, "fibered", "--pretzel", "1,1,-1")
    assert code == 0
    assert out.strip() == "false (degree 0 != 2)"


def test_fibered_json_reports_conditions(capsys):
    code, envelope, _ = run_json(capsys, "fibered", "--pretzel", "3,3,3")
    assert code == 0
    result = envelope["result"]
    assert result["fibered"] is False
    assert result["at_zero"] == 7
    assert result["degree_span"] == 2
    assert result["failing"] == ["Delta(0) = 7"]


def test_fibered_seifert_genus_two(capsys, tmp_path):
    # direct sum of two trefoil blocks: genus 2, still a homology product
    rows = [
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    code, out, _ = run_cli(capsys, "fibered", "--seifert", write_matrix(tmp_path, rows))
    assert code == 0
    assert out.strip() == "true"


def test_witness_five(capsys):
    code, envelope, _ = run_json(capsys, "witness", "--prime", "5")
    assert code == 0
    result = envelope["result"]
    assert result == {
        "prime": 5,
        "m": 2,
        "n": 4,
        "pretzel": [-7, 9, 33],
        "rank": 25,
        "factorization": [[5, 2]],
        "rank_mod_p": 0,
    }


def test_witness_seventeen(capsys):
    code, envelope, _ = run_json(capsys, "witness", "--prime", "17")
    assert code == 0
    result = envelope["result"]
    assert result["m"] == 13
    assert result["n"] == 7
    assert result["rank"] == 85
    assert result["factorization"] == [[5, 1], [17, 1]]
    assert result["rank_mod_p"] == 0


def witness_envelope(p: int) -> str:
    """The ``witness --prime P --json`` output, from ``witness_for_prime`` and ``json.dumps``."""
    cw = characters.witness_for_prime(p)
    n = cw.witness.index
    result = {
        "prime": p,
        "m": (2 * n - 1) % p,
        "n": n,
        "pretzel": list(cw.witness.strands),
        "rank": cw.rank,
        "factorization": [[q, e] for q, e in cw.factorization],
        "rank_mod_p": cw.rank % p,
    }
    envelope = {"schema_version": "1", "command": "witness", "result": result}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def first_prime_one_mod_four(n: int) -> int:
    p = nextprime(n - 1)
    while p % 4 != 1:
        p = nextprime(p)
    return p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(5, 10**12).map(first_prime_one_mod_four))
@example(5)  # rank 25 = 5^2: an exponent above 1
@example(13)
@example(100000000000000013)  # its cofactor is split by Pollard rho
def test_witness_writer_matches_json_dumps(p):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["witness", "--prime", str(p), "--json"])
    assert (code, out.getvalue(), err.getvalue()) == (0, witness_envelope(p), "")


def test_witness_json_calls_no_generic_encoder(capsys, monkeypatch):
    expected = witness_envelope(13)

    def refuse(*args, **kwargs):
        raise AssertionError("the witness envelope is written from its template")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out, err = run_cli(capsys, "witness", "--prime", "13", "--json")
    assert (code, out, err) == (0, expected, "")


def test_witness_rejects_three_mod_four(capsys):
    code, _, err = run_cli(capsys, "witness", "--prime", "7")
    assert code == 2
    assert "mod 4" in err


def test_witness_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "witness", "--prime", "21")
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize(
    "prime",
    [
        # the least strong pseudoprime to the 13 bases, which is_prime accepts
        "3317044064679887385961981",
        # the first prime = 1 (mod 4) with 2p above that bound
        "1658522032339943692981061",
    ],
)
def test_witness_refuses_primes_beyond_the_proven_range(capsys, prime):
    code, out, err = run_cli(capsys, "witness", "--prime", prime)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_witness_largest_admissible_prime(capsys):
    p = 1658522032339943692980889  # the largest prime with 2p below the bound
    code, envelope, _ = run_json(capsys, "witness", "--prime", str(p))
    assert code == 0
    factors = envelope["result"]["factorization"]
    assert p in [q for q, _ in factors]
    assert all(isprime(q) for q, _ in factors)


def test_certificate_two_rows(capsys):
    code, envelope, _ = run_json(capsys, "certificate", "--count", "2", "--search-limit", "10")
    assert code == 0
    result = envelope["result"]
    assert result["primes"] == [5, 13]
    assert result["matrix"] == [[1, 0], [0, 1]]
    assert result["verified"] is True
    assert [w["witness"]["index"] for w in result["witnesses"]] == [2, 3]


def test_certificate_single_row(capsys):
    code, envelope, _ = run_json(capsys, "certificate", "--count", "1")
    assert code == 0
    matrix = envelope["result"]["matrix"]
    assert len(matrix) == 1 and len(matrix[0]) == 1 and matrix[0][0] >= 1


def test_certificate_refuses_a_search_limit_beyond_the_proven_range(capsys):
    # the smallest L with 2L^2 - 2L + 1 at or above numtheory.PRIMALITY_BOUND
    code, out, err = run_cli(capsys, "certificate", "--search-limit", "1287836182262")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: search limit 1287836182262 ")


def test_certificate_largest_admissible_search_limit(capsys):
    code, envelope, _ = run_json(
        capsys, "certificate", "--count", "1", "--search-limit", "1287836182261"
    )
    assert code == 0
    assert envelope["result"]["primes"] == [5]


def test_certificate_exhaustion_exit_code(capsys):
    code, _, err = run_cli(capsys, "certificate", "--count", "100000", "--search-limit", "10")
    assert code == 3
    assert "witnesses" in err


@pytest.mark.parametrize("option", ["--count", "--search-limit"])
def test_certificate_refuses_a_count_or_search_limit_below_one(capsys, option):
    code, out, err = run_cli(capsys, "certificate", option, "0")
    assert (code, out) == (2, "")
    assert err == f"error: {option} must be >= 1, got 0\n"


def test_certificate_csv_into_a_missing_directory_exits_two(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "certificate", "--count", "3", "--csv", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n"


def test_certificate_writes_csv(capsys, tmp_path):
    path = tmp_path / "matrix.csv"
    code, _, _ = run_cli(
        capsys, "certificate", "--count", "2", "--search-limit", "10", "--csv", str(path)
    )
    assert code == 0
    assert path.read_text() == "prime,witness_2,witness_3\n5,1,0\n13,0,1\n"


# sha256 of the v1 output of `certificate --count C --search-limit L --json
# --csv PATH`: standard output, then the CSV file.  Any change to a byte of
# either, the dense matrix included, is a change to the v1 format.
V1_CERTIFICATE_SHA256 = {
    (25, 116): (
        "8dd94803f333588f77f32b3b32c8e09b2fac1898312cd3c60eed961de3d269de",
        "89ccdb7c7bf85765190c49f0b5cef72c5234ae6cba86ffa89118869b679e5827",
    ),
    (200, 1092): (
        "11ec09fbacb4c713197968d12ab508a657610444e26f0532864519f493c59e87",
        "b76ebb46dbb7cc356f4fe3c766e72c0ddeffab2978074b885df78fe42404727d",
    ),
    (1000, 20000): (
        "e1a56ae0ebaf5a0b7bea2f107be7a9a3004ed51561560c46c10cef4bd84d2f79",
        "70b02e649c1789cf7fec776ff3cdec0cdb390ec923aab403ae8cec98b695cfba",
    ),
}


@pytest.mark.parametrize("count,limit", sorted(V1_CERTIFICATE_SHA256))
def test_certificate_v1_output_is_pinned_byte_for_byte(capsys, tmp_path, count, limit):
    path = tmp_path / "matrix.csv"
    code, out, err = run_cli(
        capsys,
        "certificate",
        "--count",
        str(count),
        "--search-limit",
        str(limit),
        "--json",
        "--csv",
        str(path),
    )
    assert (code, err) == (0, "")
    digests = (
        hashlib.sha256(out.encode()).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )
    assert digests == V1_CERTIFICATE_SHA256[count, limit]


# sha256 of the whole standard output of the other commands' --json
# envelopes, one of each kind: a Laurent polynomial, a non-empty list of
# strings, a list of pairs, a list of dictionaries, and the witness
# envelope that is written from its template.
ENVELOPE_SHA256 = {
    "alexander --pretzel -1,3,3": "d59c7e54fa0807f8ec4d99fef871c27e3107e10e03093655bef16f6a036598b7",
    "fibered --pretzel 1,1,3": "b8daac6025fae1f8532c12c467e744a90043bf8afd1fe9ae04750df1625ab3ec",
    "rank --index 2": "52a4f08325a89746741a6bb2e2b1c69c541dde2712a48b250302731539eb28a0",
    "selftest --fast": "7e7aac9f2bad5816a3e2bb4907bb3596dee2e0d865412f974aba1511648e428d",
    "witness --prime 1000000009": "fdb3a5b0268429c87782c4fa742d28e0fe7273fe1f5a2716dffe3bfdfc59d9f6",
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_SHA256))
def test_envelope_is_pinned_byte_for_byte(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENVELOPE_SHA256[command]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "command", ["alexander --pretzel -1,3,3", "rank --index 3 --stab 2", "rank --index 2"]
)
def test_polynomial_is_formatted_once_per_command(capsys, monkeypatch, command, mode):
    calls = []
    to_text = LaurentPoly.__str__

    def counted(poly):
        calls.append(poly)
        return to_text(poly)

    monkeypatch.setattr(LaurentPoly, "__str__", counted)
    code, _, err = run_cli(capsys, *command.split(), *mode)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_certificate_text_output_ends_with_verified(capsys):
    code, out, _ = run_cli(capsys, "certificate", "--count", "2", "--search-limit", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "prime,witness_2,witness_3"
    assert lines[-1] == "verified: true"


def test_certificate_failing_verification_exits_one(capsys, monkeypatch):
    # the command's own verify_certificate call is the only check on its output
    real = characters.build_certificate(2, 10)
    tampered = characters.IndependenceCertificate(real.witnesses, (5, 15), real.evaluation)
    monkeypatch.setattr(characters, "build_certificate", lambda count, limit: tampered)
    code, envelope, err = run_json(capsys, "certificate", "--count", "2")
    assert code == 1
    assert envelope["result"]["verified"] is False
    assert err == "error: selected value 15 at position 1 is not prime\n"


def certificate_envelope(cert, verified: bool, matrix=None) -> str:
    """The ``certificate --json`` output, from ``to_json`` and ``json.dumps``.

    ``matrix``, a list of rows, stands in for the record's own, if given.
    """
    result = {**cert.to_json(), "verified": verified}
    if matrix is not None:
        result["matrix"] = [list(row) for row in matrix]
    envelope = {"schema_version": "1", "command": "certificate", "result": result}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.integers(1, 400), st.booleans())
@example(1, 2, True)  # one row
def test_certificate_writer_matches_json_dumps(count, limit, verified):
    try:
        cert = characters.build_certificate(count, limit)
    except characters.SearchExhausted:
        return
    assert "".join(cli._certificate_json(cert, verified)) == certificate_envelope(cert, verified)


def hand_built_certificates():
    real = characters.build_certificate(2, 10)
    # rank 25 = 5^2: a rank, a max prime and an exponent that all differ
    stabilized = characters.CertifiedWitness(pretzel.WitnessKnot(4, 2), 25, (PrimePower(5, 2),), 5)
    rank_one = characters.CertifiedWitness(pretzel.WitnessKnot(1), 1, (), 1)
    build = characters.IndependenceCertificate
    return {
        # the primes of test_certificate_failing_verification_exits_one
        "tampered primes": (build(real.witnesses, (5, 15), real.evaluation), False),
        # 10 is past a single digit, and bytes() refuses -1 and 256
        "entries outside 0..9": (build(real.witnesses, (5, 13), ((1, 10), (-1, 256))), False),
        "stabilized witness": (build((stabilized,), (5,), ((2,),)), True),
        "empty factorization": (
            build((rank_one, *real.witnesses), (1, 5, 13), ((0, 0, 0),) * 3),
            False,
        ),
    }


# matrices that no record holds: bytes() refuses a float with a TypeError,
# not a ValueError, and str and json.dumps write True, False and NaN
# differently, and neither as a digit
NON_INT_MATRICES = {
    "float entry": ((1, 0.5), (0, 1)),
    "bool, float and NaN entries": ((True, 0.5), (float("nan"), 1)),
    "bool entries in int rows": ((True, 0), (False, 1)),
}
# records that no one can make, each with its witnesses, primes, matrix and
# the constructor's message: a certificate has k >= 1 witnesses
REFUSED_RECORDS = {
    "empty certificate": (((), (), ()), "certificate is empty"),
    "empty row": (((), (5,), ((),)), "certificate is empty"),
}
HAND_BUILT = sorted([*hand_built_certificates(), *NON_INT_MATRICES, *REFUSED_RECORDS])


def refused_entry(matrix) -> str:
    """The message that refuses ``matrix``: its first entry that is no int, in reading order."""
    entry = next(v for row in matrix for v in row if type(v) is not int)
    return f"a matrix entry must be an integer, got {entry!r}"


@pytest.mark.parametrize("name", HAND_BUILT)
def test_certificate_writer_matches_json_dumps_on_hand_built_records(name):
    if name in NON_INT_MATRICES:
        # no record can be written with this matrix, and the text json.dumps
        # gives for one is refused when it is read back
        matrix = NON_INT_MATRICES[name]
        real = characters.build_certificate(2, 10)
        result = json.loads(certificate_envelope(real, False, matrix))["result"]
        with pytest.raises(ValueError) as info:
            characters.IndependenceCertificate.from_json(result)
        assert str(info.value) == f"malformed certificate JSON: {refused_entry(matrix)}"
        return
    if name in REFUSED_RECORDS:
        # no record can be written, and the JSON of its fields is refused when it is read
        (witnesses, primes, matrix), message = REFUSED_RECORDS[name]
        result = {"witnesses": list(witnesses), "primes": list(primes), "matrix": matrix}
        with pytest.raises(ValueError) as info:
            characters.IndependenceCertificate.from_json(result)
        assert str(info.value) == f"malformed certificate JSON: {message}"
        return
    cert, verified = hand_built_certificates()[name]
    assert "".join(cli._certificate_json(cert, verified)) == certificate_envelope(cert, verified)


def certificate_csv(cert, matrix) -> str:
    """``cert.to_csv()`` with ``matrix`` for its matrix, from ``str.join`` alone."""
    header = ["prime"] + [f"witness_{cw.witness.index}" for cw in cert.witnesses]
    rows = [[p, *row] for p, row in zip(cert.selected_primes, matrix)]
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", HAND_BUILT)
def test_certificate_csv_matches_str_join_on_hand_built_records(name):
    if name in NON_INT_MATRICES:
        # the record is refused when it is made, so there is no CSV to write
        matrix = NON_INT_MATRICES[name]
        real = characters.build_certificate(2, 10)
        with pytest.raises(ValueError) as info:
            characters.IndependenceCertificate(real.witnesses, (5, 13), matrix)
        assert str(info.value) == refused_entry(matrix)
        return
    if name in REFUSED_RECORDS:
        fields, message = REFUSED_RECORDS[name]
        with pytest.raises(ValueError) as info:
            characters.IndependenceCertificate(*fields)
        assert str(info.value) == message
        return
    cert, _ = hand_built_certificates()[name]
    assert cert.to_csv() == certificate_csv(cert, cert.evaluation)


# every kind of entry a hand-built or malformed matrix can hold: the int 0,
# digits, longer and negative ints, and the values that are no int but
# are falsy or equal to one
INTS = st.one_of(
    st.just(0),
    st.integers(1, 9),
    st.integers(min_value=10),
    st.integers(max_value=-1),
)
ENTRIES = st.one_of(
    INTS,
    st.none(),
    st.booleans(),
    st.sampled_from([0.0, -0.0, float("nan")]),
    st.text(max_size=3),
)


def square_matrices(entries):
    """k x k matrices of ``entries``, k from 1 to 12."""
    return st.integers(1, 12).flatmap(
        lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k)
    )


# square matrices of ints and of any entries, and matrices of any shape
MATRICES = st.one_of(
    square_matrices(INTS),
    square_matrices(ENTRIES),
    st.lists(st.lists(ENTRIES, max_size=12), max_size=12),
)


@functools.lru_cache(maxsize=None)
def greedy_witnesses(k: int) -> tuple:
    return characters.build_certificate(k, 10_000).witnesses


@settings(max_examples=300, deadline=None, derandomize=True)
@given(MATRICES, st.booleans())
@example([], True)
@example([[1]], True)
@example([[], [0, 0.0, -0.0, False, None, ""]], False)
@example([[""]], False)  # one empty string: no int, though str writes it as no text
@example([[0, 1], [2]], False)  # ragged
def test_any_matrix_is_held_as_its_cells_and_written_as_its_rows(m, verified):
    # k rows are drawn over k witnesses and k primes; no rows, over one of each
    k = max(len(m), 1)
    witnesses, primes = greedy_witnesses(k), tuple(range(5, 5 + k))
    bad = [v for r in m for v in r if type(v) is not int]
    if bad:
        # the first entry that is no int, in reading order, is named before the shape
        with pytest.raises(ValueError) as info:
            characters.IndependenceCertificate(witnesses, primes, m)
        assert str(info.value) == f"a matrix entry must be an integer, got {reprlib.repr(bad[0])}"
        return
    if len(m) != k or any(len(r) != k for r in m):
        with pytest.raises(ValueError) as info:
            characters.IndependenceCertificate(witnesses, primes, m)
        assert str(info.value) == "witness, prime, and matrix dimensions disagree"
        return
    cert = characters.IndependenceCertificate(witnesses, primes, m)
    view, dense = cert.evaluation, tuple(map(tuple, m))
    assert type(view) is characters._EvaluationView
    # the view is a record, equal to no tuple, and prints as its dense tuple
    assert tuple(view) == dense and view != dense and dense != view
    assert repr(view) == repr(dense)
    assert view.rows == tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in m)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(cert, protocol))
        assert type(back.evaluation) is characters._EvaluationView
        assert repr(back) == repr(cert) and back.evaluation.rows == view.rows
        assert back == cert and hash(back) == hash(cert)
    for clone in (copy.copy(cert), copy.deepcopy(cert)):
        assert clone == cert and hash(clone) == hash(cert) and repr(clone) == repr(cert)
    assert cert.to_csv() == certificate_csv(cert, m)
    envelope = certificate_envelope(cert, verified, m)
    assert "".join(cli._certificate_json(cert, verified)) == envelope


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_certificate_command_builds_no_dense_row(capsys, monkeypatch, tmp_path, mode):
    # a built record's matrix is verified and written from its cells alone
    argv = ["certificate", "--count", "40", "--csv", str(tmp_path / "m.csv"), *mode]
    expected = run_cli(capsys, *argv)

    def refuse(*args):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(characters, "_dense_row", refuse)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


def test_a_read_record_equals_the_built_one_without_a_dense_row(monkeypatch):
    # two views compare and hash by their cells; a dense row has k entries, and k = 2000
    built = characters.build_certificate(2000, 100_000)
    envelope = json.loads("".join(cli._certificate_json(built, True)))
    read = characters.IndependenceCertificate.from_json(envelope["result"])

    def refuse(*args):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(characters, "_dense_row", refuse)
    assert read == built and built == read and not read != built
    assert read.evaluation.rows == built.evaluation.rows
    assert hash(read) == hash(built) and len({read, built}) == 1
    for back in (pickle.loads(pickle.dumps(read)), copy.deepcopy(read)):
        assert back == built and hash(back) == hash(built)


def test_certificate_json_calls_no_generic_encoder(capsys, monkeypatch):
    cert = characters.build_certificate(3, 10_000)
    expected = certificate_envelope(cert, True)

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate envelope is written from the record")

    for owner, name in [
        (characters.IndependenceCertificate, "to_json"),
        (characters.CertifiedWitness, "to_json"),
        (pretzel.WitnessKnot, "to_json"),
        (json, "dumps"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    code, out, err = run_cli(capsys, "certificate", "--count", "3", "--json")
    assert (code, out, err) == (0, expected, "")


def test_rank_index_two(capsys):
    code, envelope, _ = run_json(capsys, "rank", "--index", "2")
    assert code == 0
    result = envelope["result"]
    assert result["rank"] == 5
    assert result["genus"] == 1
    assert result["bigraded"] == [[1, 2], [2, 3]]
    assert result["alexander"] == {"lowest": 0, "coeffs": [1, -1, 1]}


def test_rank_stabilized(capsys):
    code, envelope, _ = run_json(capsys, "rank", "--index", "2", "--stab", "3")
    assert code == 0
    result = envelope["result"]
    assert result["rank"] == 5
    assert result["genus"] == 4
    assert "bigraded" not in result
    # (1 - t + t^2)^4 has degree 8
    assert len(result["alexander"]["coeffs"]) == 9


def test_rank_rejects_bad_index(capsys):
    code, _, err = run_cli(capsys, "rank", "--index", "0")
    assert (code, err) == (2, "error: --index must be >= 1, got 0\n")
    code, _, err = run_cli(capsys, "rank", "--index", "2", "--stab", "-1")
    assert code == 2
    # the CLI's own guard, not the size check's math domain error
    code, _, err = run_cli(capsys, "rank", "--index", "3", "--stab", "-2")
    assert (code, err) == (2, "error: --stab must be >= 0, got -2\n")


def test_selftest_fast_passes_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "selftest", "--fast")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    assert out == "ok: pretzel box oracle\nok: witness verification\nok: certificate\n"


def test_selftest_json_envelope(capsys):
    code, envelope, _ = run_json(capsys, "selftest", "--fast")
    assert code == 0
    result = envelope["result"]
    assert result["ok"] is True
    assert result["checks"] == [
        {"name": name, "ok": True}
        for name in ("pretzel box oracle", "witness verification", "certificate")
    ]


def test_selftest_names_sabotaged_rank(capsys, monkeypatch):
    monkeypatch.setattr("knotrank.pretzel.hfk_top_rank", lambda w: 999)
    code, out, _ = run_cli(capsys, "selftest", "--fast")
    assert code == 1
    assert "FAIL: witness verification" in out


def test_selftest_names_a_failed_certificate(capsys, monkeypatch):
    forced = characters.VerificationResult(False, "forced")
    monkeypatch.setattr(characters, "verify_certificate", lambda cert: forced)
    code, out, _ = run_cli(capsys, "selftest", "--fast")
    assert code == 1
    assert out == "ok: pretzel box oracle\nok: witness verification\nFAIL: certificate (forced)\n"
    code, envelope, _ = run_json(capsys, "selftest", "--fast")
    assert code == 1
    assert envelope["result"] == {
        "checks": [
            {"name": "pretzel box oracle", "ok": True},
            {"name": "witness verification", "ok": True},
            {"name": "certificate", "ok": False, "detail": "forced"},
        ],
        "ok": False,
    }


def test_selftest_box_oracle_checks_witnesses_outside_the_fast_box(capsys, monkeypatch):
    # the bases (-i, i, i^2) with i >= 3 lie outside the --fast box (half width 6),
    # so only the oracle's witness block sums reach them
    closed_form = pretzel.alexander_closed_form

    def sabotaged(knot):
        i = knot.m
        if i >= 3 and (knot.l, knot.n) == (-i, i * i):
            return closed_form(knot) * closed_form(knot)
        return closed_form(knot)

    monkeypatch.setattr("knotrank.pretzel.alexander_closed_form", sabotaged)
    code, out, _ = run_cli(capsys, "selftest", "--fast")
    assert code == 1
    assert "FAIL: pretzel box oracle" in out


def test_selftest_names_a_sabotaged_genus_two_route(capsys, monkeypatch):
    # the polynomial 1 passes the det(V - V^T) check, so only the oracle catches it
    monkeypatch.setattr("knotrank.seifert._alexander_mod", lambda e, p: [1] + [0] * len(e))
    code, out, _ = run_cli(capsys, "selftest", "--fast")
    assert code == 1
    # the first disagreement, so a later loop of the check cannot stand in for it
    assert out == "FAIL: pretzel box oracle (routes disagree at witness index 1, stab 1)\n"


def test_selftest_box_oracle_meets_a_dense_skew_part(capsys, monkeypatch):
    # V - V^T is block diagonal for every pretzel matrix and witness block
    # sum, so only the congruent copies reach a fault in the dense case
    real = seifert._alexander_mod

    def wrong_when_dense(e, p):
        n = len(e)
        if any(e[i][j] != e[j][i] for i in range(n) for j in range(n) if i // 2 != j // 2):
            return [1] + [0] * n
        return real(e, p)

    monkeypatch.setattr(seifert, "_alexander_mod", wrong_when_dense)
    code, out, _ = run_cli(capsys, "selftest", "--fast")
    assert code == 1
    assert out == "FAIL: pretzel box oracle (routes disagree at witness index 1, stab 1, after a congruence)\n"
    full = dict(cli._selftest_checks(fast=False))["pretzel box oracle"]
    with pytest.raises(AssertionError, match="after a congruence"):
        full()


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def test_unknown_command_exits_two(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def module_env():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # keep CPython's default 4300-digit limit
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout, so output can still wait for the exit flush
    return env


def run_module(*argv, timeout):
    return subprocess.run(
        [sys.executable, "-m", "knotrank", *argv],
        capture_output=True,
        text=True,
        env=module_env(),
        cwd=REPO_ROOT,
        timeout=timeout,
    )


@pytest.mark.parametrize("command", ["alexander", "fibered"])
@pytest.mark.parametrize(
    "rows,det",
    [
        ([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]], 0),
        ([[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], 4),
    ],
)
def test_genus_two_non_knot_exits_one(tmp_path, command, rows, det):
    # a modulus search that never ended would run into the timeout
    proc = run_module(command, "--seifert", write_matrix(tmp_path, rows), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: det(V - V^T) = {det}; the matrix is not a Seifert matrix of a knot\n"


def test_closed_stdout_exits_two_with_one_error_line():
    # the JSON of 300 rows is far larger than a pipe buffer, so writes go on
    # after the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "knotrank", "certificate", "--count", "300", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(),
        cwd=REPO_ROOT,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert first == b"{\n"
    assert err.startswith("error: cannot write to standard output: ")
    assert len(err.splitlines()) == 1 and "Broken pipe" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_two_with_one_error_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "knotrank", "witness", "--prime", "13", "--json"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=module_env(),
            cwd=REPO_ROOT,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to standard output: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def run_into_full(*argv, stream="stdout", unbuffered=False):
    env = module_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: full}
        return subprocess.run(
            [sys.executable, "-m", "knotrank", *argv],
            **streams,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=60,
        )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["witness", "--help"]], ids=" ".join)
def test_full_stdout_help_exits_two_with_one_error_line(argv, unbuffered):
    # buffered, the help text waited for a flush that main never made (exit
    # 120); unbuffered, argparse dropped the failed write (exit 0)
    proc = run_into_full(*argv, unbuffered=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to standard output: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_keeps_the_usage_error():
    proc = run_into_full("witness", "--prime", "x")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: knotrank witness")
    assert "error: argument --prime: invalid int value: 'x'" in proc.stderr
    assert "standard output" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["witness", "--prime", "15"], 2),
        (["alexander", "--seifert", "no-such-matrix.json"], 2),
        (["witness", "--prime", "x"], 2),
        (["certificate", "--count", "5", "--search-limit", "3"], 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_full_stderr_keeps_the_exit_code(argv, code, unbuffered):
    proc = run_into_full(*argv, stream="stderr", unbuffered=unbuffered)
    assert proc.returncode == code
    assert proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_and_stderr_exit_two():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "knotrank", "witness", "--prime", "13"],
            stdout=full,
            stderr=full,
            env=module_env(),
            cwd=REPO_ROOT,
            timeout=60,
        )
    assert proc.returncode == 2


# In process, fd 2 becomes a full non-blocking pipe, so the first error
# line cannot be written; once the pipe is drained, a second call's line
# must arrive, so main may not have pointed fd 2 anywhere else.
STDERR_BACKPRESSURE = """
import os, sys
from knotrank import cli

r, w = os.pipe()
os.set_blocking(r, False)
os.set_blocking(w, False)
for chunk in (b"x" * 4096, b"x"):
    try:
        while True:
            os.write(w, chunk)
    except BlockingIOError:
        pass
saved = os.dup(2)
os.dup2(w, 2)
first = cli.main(["witness", "--prime", "15"])
try:
    while os.read(r, 1 << 16):
        pass
except BlockingIOError:
    pass
second = cli.main(["witness", "--prime", "15"])
sys.stderr.flush()
got = os.read(r, 1 << 16)
os.dup2(saved, 2)
print(first, second, got.decode())
"""


def test_in_process_call_leaves_stderr_usable_after_a_failed_write():
    proc = subprocess.run(
        [sys.executable, "-c", STDERR_BACKPRESSURE],
        capture_output=True,
        text=True,
        env=module_env(),  # a buffered stderr, whose write raises BlockingIOError
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, second, got = proc.stdout.split(" ", 2)
    assert (first, second) == ("2", "2")
    assert got.endswith("error: 15 is not prime\n\n")  # the line, then print's newline


# -- the stream contract: the table in README "Command line", one test per cell

# outcome: (argv, exit code, stdout, stderr) with both streams open; None
# stands for the help text
STREAM_OUTCOMES = {
    "success": (
        ["witness", "--prime", "13"],
        0,
        "prime: 13\nm: 8 (m^2 = -1 mod 13)\nwitness index: 11\npretzel: P(-21, 23, 243)\n"
        "rank: 221\nfactorization: 13 * 17\nrank mod 13: 0\n",
        "",
    ),
    "exit 1": (
        ["alexander", "--seifert", "identity.json"],
        1,
        "",
        "error: det(V - V^T) = 0; the matrix is not a Seifert matrix of a knot\n",
    ),
    "exit 2": (["witness", "--prime", "15"], 2, "", "error: 15 is not prime\n"),
    "exit 3": (
        ["certificate", "--count", "5", "--search-limit", "3"],
        3,
        "",
        "error: found only 2 of 5 witnesses with indices <= 3\n",
    ),
    "--help": (["--help"], 0, None, ""),
    "usage error": (
        ["witness", "--prime", "x"],
        2,
        "",
        "usage: knotrank witness [-h] --prime P [--json]\n"
        "knotrank witness: error: argument --prime: invalid int value: 'x'\n",
    ),
}
WRITE_ERRORS = {
    "closed": "[Errno 9] Bad file descriptor",
    "full": "[Errno 28] No space left on device",
}


@pytest.fixture(scope="module")
def stream_cwd(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("streams")
    write_matrix(cwd, [[1, 0], [0, 1]], name="identity.json")  # V - V^T = 0
    return cwd


def run_with_streams(argv, stdout, stderr, unbuffered, cwd):
    """Run ``python -m knotrank`` with each standard stream open (a pipe), closed or full."""
    env = dict(module_env(), COLUMNS="80")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    closed = [fd for fd, state in ((1, stdout), (2, stderr)) if state == "closed"]
    with open("/dev/full", "w") as full:
        target = {"open": subprocess.PIPE, "closed": subprocess.DEVNULL, "full": full}
        return subprocess.run(
            [sys.executable, "-m", "knotrank", *argv],
            stdout=target[stdout],
            stderr=target[stderr],
            preexec_fn=lambda: [os.close(fd) for fd in closed],  # as the shell's >&- and 2>&-
            text=True,
            env=env,
            cwd=cwd,
            timeout=60,
        )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", ["open", "closed", "full"], ids=lambda s: f"stderr {s}")
@pytest.mark.parametrize("stdout", ["open", "closed", "full"], ids=lambda s: f"stdout {s}")
@pytest.mark.parametrize("outcome", list(STREAM_OUTCOMES))
def test_stream_contract(outcome, stdout, stderr, unbuffered, stream_cwd):
    argv, code, out, err = STREAM_OUTCOMES[outcome]
    if out is None:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            out = cli.build_parser().format_help()
    if out and stdout != "open":  # the output cannot be written
        code, err = 2, f"error: cannot write to standard output: {WRITE_ERRORS[stdout]}\n"
    proc = run_with_streams(argv, stdout, stderr, unbuffered, stream_cwd)
    assert proc.returncode == code, proc.stderr
    if stdout == "open":
        assert proc.stdout == out
    if stderr == "open":
        assert proc.stderr == err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_closed_stdout_still_writes_the_csv(tmp_path):
    csv = tmp_path / "matrix.csv"
    proc = run_with_streams(
        ["certificate", "--count", "3", "--csv", str(csv)], "closed", "open", False, REPO_ROOT
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write to standard output: {WRITE_ERRORS['closed']}\n"
    assert csv.read_text().startswith("prime,witness_2,witness_3,witness_5\n5,1,0,0\n")


def test_in_process_call_with_no_stdout_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)  # as Python starts with a closed stdout
    assert cli.main(["witness", "--prime", "13"]) == 2
    assert cli.main(["--help"]) == 2
    assert cli.main(["witness", "--prime", "15"]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot write to standard output: {WRITE_ERRORS['closed']}\n" * 2
        + "error: 15 is not prime\n"
    )


def test_rank_large_stabilization_within_budget():
    # (1 - t + t^2)^3001 by dense repeated squaring ran past 20 s
    start = time.perf_counter()
    proc = run_module("rank", "--index", "3", "--stab", "3000", "--json", timeout=30)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5.0, f"rank --stab 3000 took {elapsed:.2f}s, budget 5s"
    result = json.loads(proc.stdout)["result"]
    assert result["genus"] == 3001
    coeffs = result["alexander"]["coeffs"]
    assert len(coeffs) == 6003 and sum(coeffs) == 1 and coeffs == coeffs[::-1]


def test_rank_past_the_int_string_limit_exits_two():
    # the largest coefficient of (1 - t + t^2)^9101 has more than 4300 digits
    proc = run_module("rank", "--index", "3", "--stab", "9100", timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "limit" in proc.stderr


def test_rank_refuses_an_unprintable_stabilization_up_front():
    # computing (1 - t + t^2)^100000 would take minutes, only to fail when printed
    start = time.perf_counter()
    proc = run_module("rank", "--index", "3", "--stab", "100000", timeout=30)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert elapsed < 1.0, f"rank --stab 100000 took {elapsed:.2f}s, budget 1s"
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --stab 100000 is too large")
    assert "4300 digits" in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_rank_refuses_the_genus_9024_power_before_computing_it(capsys, monkeypatch):
    # --stab 9023 prints the genus-9024 power, whose largest coefficient has
    # 4304 digits; the bound for the genus-9023 power let it through
    def refuse(*args):
        raise AssertionError("rank computed a polynomial it then refused")

    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        monkeypatch.setattr(pretzel, "alexander_of_witness", refuse)
        code, out, err = run_cli(capsys, "rank", "--index", "3", "--stab", "9023")
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 2 and out == ""
    assert err.startswith("error: --stab 9023 is too large") and len(err.splitlines()) == 1


def test_rank_refuses_only_what_could_not_be_printed(capsys):
    # Under a 640-digit limit, K = 1330..1369 first succeed, then fail
    # while printing, then are refused before any computation.  The
    # largest coefficient grows with K, so the refusal never takes a K
    # that would have printed if the first K it takes would not.
    outcomes = []
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for k in range(1330, 1370):
            code, out, err = run_cli(capsys, "rank", "--index", "3", "--stab", str(k))
            if code == 0:
                outcomes.append("printed")
            elif "is too large" in err:
                assert out == ""
                outcomes.append("refused")
            else:
                assert code == 2 and "Exceeds the limit" in err
                outcomes.append("failed")
    finally:
        sys.set_int_max_str_digits(before)
    assert outcomes == sorted(outcomes, key=["printed", "failed", "refused"].index)
    assert {*outcomes} == {"printed", "failed", "refused"}
    first = 1330 + outcomes.index("refused")
    poly = pretzel.alexander_of_witness(pretzel.stabilize(pretzel.witness(3), first))
    assert max(map(abs, poly.coeffs)) >= 10**640  # more than 640 digits


def test_rank_with_no_digit_limit_refuses_nothing(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run_cli(capsys, "rank", "--index", "3", "--stab", "1400")
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0 and out.startswith("rank: 13\n")


INDEX_REFUSAL = (
    "error: --index is too large: the witness rank 2N^2 - 2N + 1 would have more than "
    "{} digits, the limit for integer string conversion (PYTHONINTMAXSTRDIGITS raises it)\n"
)


def test_rank_refuses_an_unprintable_index_up_front():
    # 2,200 nines parse as an int, but their rank has 4,401 digits
    start = time.perf_counter()
    proc = run_module("rank", "--index", "9" * 2200, "--json", timeout=30)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert elapsed < 1.0, f"rank --index 9...9 took {elapsed:.2f}s, budget 1s"
    assert (proc.stdout, proc.stderr) == ("", INDEX_REFUSAL.format(4300))


def test_rank_refuses_exactly_the_indices_whose_rank_could_not_be_printed(capsys, monkeypatch):
    # Under a 640-digit limit, the last index whose rank 2N^2 - 2N + 1 has
    # 640 digits prints, and the next is refused before any computation.
    def rank(n):
        return 2 * n * n - 2 * n + 1

    last = isqrt(10**640 // 2)
    while rank(last + 1) < 10**640:
        last += 1
    while rank(last) >= 10**640:
        last -= 1

    def refuse(*args):
        raise AssertionError("rank computed a polynomial it then refused")

    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "rank", "--index", str(last))
        monkeypatch.setattr(pretzel, "alexander_of_witness", refuse)
        refused = run_cli(capsys, "rank", "--index", str(last + 1))
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0 and err == ""
    assert out.startswith(f"rank: {rank(last)}\n") and len(str(rank(last))) == 640
    assert refused == (2, "", INDEX_REFUSAL.format(640))


def test_module_entry_point_subprocess():
    proc = run_module("rank", "--index", "2", "--json", timeout=60)
    assert proc.returncode == 0
    envelope = json.loads(proc.stdout)
    assert envelope["result"]["rank"] == 5


# -- one parser per command ------------------------------------------------


@pytest.fixture(scope="module")
def command_mix(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mix")
    return [
        ["alexander", "--pretzel", "-1,3,3"],  # glued onto --pretzel before parsing
        ["alexander", "--seifert", write_matrix(tmp, [[1, 1], [0, 1]]), "--json"],
        ["fibered", "--pretzel", "3,3,3"],
        ["witness", "--prime", "13", "--json"],
        ["certificate", "--count", "3", "--search-limit", "100"],
        ["rank", "--index", "2", "--stab", "1", "--json"],
        ["selftest", "--fast"],
        ["witness", "--prime", "x"],  # usage error: SystemExit inside argparse
        ["witness", "--prime", "13", "extra"],  # top-level usage line
        ["frobnicate"],
        ["--help"],
        ["certificate", "--help"],
        ["alexander", "--pretzel", "2,3,3"],  # ValueError from the library
        ["fibered", "--seifert", str(tmp / "missing.json")],  # ValueError from the CLI
        ["certificate", "--count", "5", "--search-limit", "3"],  # search exhaustion
    ]


def run_calls_in_subprocess(calls):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tests" / "cli_calls.py"), json.dumps(calls)],
        capture_output=True,
        text=True,
        env=dict(module_env(), COLUMNS="80"),  # the help width
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def first_calls(command_mix):
    """Each command's exit code, stdout, stderr and parsers as the first call of a fresh interpreter."""
    return [run_calls_in_subprocess([argv])[0] for argv in command_mix]


def test_one_process_matches_first_calls(command_mix, first_calls):
    assert run_calls_in_subprocess(command_mix) == first_calls
    assert [code for code, *_ in first_calls] == [0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 2, 2, 3]
    assert "usage: knotrank [-h] {alexander,fibered,witness,certificate,rank,selftest} ..." in (
        first_calls[8][2]
    )


def test_a_named_command_builds_only_its_own_parser(command_mix, first_calls):
    every = list(cli._COMMANDS)
    assert every == ["alexander", "fibered", "witness", "certificate", "rank", "selftest"]
    full = [None, every]  # build_parser(), adding every subcommand

    def expected(argv):
        if argv == ["witness", "--prime", "13", "extra"]:  # leftover words: the full parser's error
            return [[argv[0], []], full]
        return [[argv[0], []]] if argv[0] in every else [full]

    assert [built for *_, built in first_calls] == [expected(argv) for argv in command_mix]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_command_order_matches_first_calls(command_mix, first_calls, data):
    order = data.draw(st.lists(st.sampled_from(range(len(command_mix))), min_size=2, max_size=20))
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        results = run_calls([command_mix[i] for i in order])
    assert results == [first_calls[i] for i in order]


# words that reach every branch of the parsers without a long computation:
# options of each subcommand, abbreviations, help, values and stray words
PARSER_WORDS = [
    "--prime", "--pri", "--json", "--js", "--pretzel", "--pretzel=3,3,3", "-1,3,3",
    "3,3,3", "--seifert", "--count", "--search-limit", "--search", "--index",
    "--stab", "--fast", "-h", "--help", "--bogus", "-x", "13", "2", "x", "witness",
    "rank", "--", "-", "--=x", "--json=1", "-hx", "--csv", "-1",
]


@pytest.fixture(scope="module")
def csv_cwd(tmp_path_factory):
    """A context that runs in a scratch directory, where ``--csv PATH`` writes its file."""
    tmp = tmp_path_factory.mktemp("csv")

    @contextmanager
    def inside():
        before = os.getcwd()
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(before)

    return inside


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([*cli._COMMANDS, "frobnicate", "-h", "--json"]),
    rest=st.lists(st.sampled_from(PARSER_WORDS), max_size=6),
)
@example(command="witness", rest=["--prime", "13", "extra"])
@example(command="rank", rest=["--index", "2", "--bogus"])
@example(command="certificate", rest=["-h"])
@example(command="certificate", rest=["--count", "2", "--json", "extra", "--bogus"])
@example(command="witness", rest=["--prime", "13", "--", "13"])
@example(command="rank", rest=["--", "--index", "2"])
def test_narrow_parser_prints_what_the_full_parser_prints(command, rest, csv_cwd):
    argv = [command, *rest]
    if command == "selftest" and "--fast" not in rest:
        argv.append("--fast")  # the full ranges take minutes
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), csv_cwd():
        narrow = run_calls([argv])
        # the reference parses the whole argv with the full parser
        with mock.patch.object(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv)):
            full = run_calls([argv])
    assert full[0][3] == [[None, list(cli._COMMANDS)]]
    assert narrow[0][:3] == full[0][:3]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["alexander", "fibered"]),
    before=st.lists(st.sampled_from(PARSER_WORDS), max_size=3),
    flag=st.sampled_from(["--p", "--pr", "--pret", "--pretzel"]),
    value=st.sampled_from(["-1,3,3", "-3,5,-7", "-1", "-1,x,3"]),
    after=st.lists(st.sampled_from(PARSER_WORDS), max_size=2),
)
@example(command="alexander", before=[], flag="--p", value="-1,3,3", after=[])
@example(command="fibered", before=["--json"], flag="--pret", value="-1,3,3", after=[])
def test_negative_pretzel_value_after_any_abbreviation(command, before, flag, value, after):
    # argparse takes "-1,3,3" for a flag unless it is glued on with "="
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        spaced, glued = run_calls(
            [
                [command, *before, flag, value, *after],
                [command, *before, f"--pretzel={value}", *after],
            ]
        )
    assert spaced[:3] == glued[:3]


def test_negative_value_after_a_witness_abbreviation_stays_a_value(capsys):
    # --pr abbreviates --prime here, whose negative values argparse already takes
    assert run_cli(capsys, "witness", "--pr", "-5") == (2, "", "error: -5 is not prime\n")
