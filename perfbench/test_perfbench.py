"""Self-tests of the benchmark: inputs, checks, tracer and layer predictions.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import random
import shutil

import pytest
from sympy import isprime

import checks
import oracle
import run
import worker
import workloads
from tracer import Tracer

# Which per-layer call counts each workload must exercise, and which it
# must leave at zero (README.md, "Layers and the metrics they move").
NONZERO = {
    "witness": [
        "numtheory.factorize", "numtheory.is_prime", "numtheory.sqrt_minus_one",
        "characters.certify", "cli.main", "cli.build_parser",
    ],
    "certificate": [
        "numtheory.factorize", "numtheory.is_prime", "characters.certify",
        "characters.build_certificate", "characters.verify_certificate",
        "seifert.rank_int", "cli.main", "cli.build_parser",
    ],
    "seifert-large": [
        "seifert.det_int", "seifert.determinant_poly", "seifert.alexander_from_seifert",
        "laurent.LaurentPoly.eval_at", "laurent.LaurentPoly.normalize",
        "cli.main", "cli.build_parser",
    ],
    "genus1-batch": [
        "pretzel.alexander_closed_form", "pretzel.alexander_of_witness",
        "laurent.LaurentPoly.__mul__", "laurent.LaurentPoly.__pow__",
        "laurent.LaurentPoly.normalize", "laurent.LaurentPoly.eval_at",
        "seifert.det_int", "seifert.determinant_poly", "seifert.alexander_from_seifert",
    ],
}
ZERO = {
    "witness": [
        "seifert.det_int", "seifert.rank_int", "seifert.determinant_poly",
        "characters.build_certificate", "characters.verify_certificate",
    ],
    "certificate": ["seifert.det_int", "seifert.determinant_poly", "numtheory.sqrt_minus_one"],
    "seifert-large": [
        "numtheory.factorize", "numtheory.is_prime", "numtheory.sqrt_minus_one",
        "characters.certify", "seifert.rank_int",
    ],
    "genus1-batch": [
        "numtheory.factorize", "numtheory.is_prime", "numtheory.sqrt_minus_one",
        "characters.certify", "cli.main", "cli.build_parser",
    ],
}

# Enough operations of each list to reach every layer the workload uses.
SLICE = {"witness": 60, "certificate": 3, "seifert-large": 4, "genus1-batch": 400}


@pytest.fixture(scope="module")
def ops_by_seed():
    return {
        (w, s): workloads.generate(w, s) for w in workloads.WORKLOADS for s in (1, 2)
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_the_operation_list(workload, ops_by_seed):
    assert workloads.generate(workload, 1) == ops_by_seed[(workload, 1)]
    assert ops_by_seed[(workload, 1)] != ops_by_seed[(workload, 2)]


def test_generated_primes(ops_by_seed):
    for seed in (1, 2):
        ops = ops_by_seed[("witness", seed)]
        for op in ops:
            p = int(op["argv"][2])
            assert workloads.WITNESS_LOW <= p <= workloads.WITNESS_HIGH <= 10**12
            if op["expect"] == 0:
                assert isprime(p) and p % 4 == 1
            else:
                assert not isprime(p) or p % 4 == 3
        bad = sum(op["expect"] == 2 for op in ops)
        assert 0 < bad < len(ops) // 10


def _det_is_unit(rows) -> bool:
    # Exact: the Hadamard bound keeps |det| far below the modulus.
    p = oracle.CHECK_MODULUS
    squared_bound = math.prod(sum(v * v for v in row) for row in rows)
    assert squared_bound < (p // 2) ** 2
    return oracle.det_mod(rows, p) in (1, p - 1)


def test_generated_seifert_matrices(ops_by_seed):
    for seed in (1, 2):
        for op in ops_by_seed[("seifert-large", seed)]:
            v = op["matrix"]
            n = len(v)
            skew = [[v[i][j] - v[j][i] for j in range(n)] for i in range(n)]
            assert _det_is_unit(skew) == (op["expect"] == 0)
    genera = workloads.genus_profile()
    assert genera == sorted(genera)
    assert genera[0] == workloads.GENUS_LOW and genera[-1] <= workloads.GENUS_HIGH


def test_certificate_limits_match_expected_exit_codes(ops_by_seed):
    greedy = oracle.GreedyCertificates()
    for op in ops_by_seed[("certificate", 1)]:
        count, limit = int(op["argv"][2]), int(op["argv"][4])
        found = greedy.certificate(count, limit) is not None
        assert found == (op["expect"] == 0)


# -- checks ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def kr():
    return workloads.import_knotrank("witness")


def _run_one(kr, op):
    return workloads.plain(workloads.bind(op, kr)(None))


def _tamper(output, edit):
    code, stdout = output
    envelope = json.loads(stdout)
    edit(envelope["result"])
    return code, json.dumps(envelope)


def test_tampered_witness_rank_fails(kr):
    check = checks.checker("witness")
    op = {"kind": "cli", "argv": ["witness", "--prime", "10037", "--json"], "expect": 0}
    good = _run_one(kr, op)
    rng = random.Random(0)
    assert check(op, good, rng) is None

    def off_by_one(r):
        r["rank"] += 1

    assert check(op, _tamper(good, off_by_one), rng)
    assert check(dict(op, expect=2), good, rng) == "exit code 0, expected 2"


def test_tampered_certificate_fails(kr):
    check = checks.checker("certificate")
    op = {"kind": "cli", "argv": ["certificate", "--count", "6", "--search-limit", "50",
                                  "--json"], "expect": 0}
    good = _run_one(kr, op)
    rng = random.Random(0)
    assert check(op, good, rng) is None

    def entry(r):
        r["matrix"][0][1] += 1

    assert check(op, _tamper(good, entry), rng)


def test_tampered_seifert_polynomial_fails(kr, tmp_path):
    check = checks.checker("seifert-large")
    ops = workloads.generate("seifert-large", 3)[:1]
    workloads.prepare(ops, tmp_path)
    good = _run_one(kr, ops[0])
    rng = random.Random(0)
    assert check(ops[0], good, rng) is None

    def symmetric_edit(r):
        # Still symmetric with Delta(1) = 1: only the determinant check sees it.
        c = r["alexander"]["coeffs"]
        c[0] += 1
        c[-1] += 1
        c[1] -= 1
        c[-2] -= 1

    assert check(ops[0], _tamper(good, symmetric_edit), rng)


def test_tampered_genus1_output_fails():
    check = checks.checker("genus1-batch")
    op = {"kind": "closed", "lmn": [1, 2, 3]}
    c = oracle.pretzel_coefficient(1, 2, 3)
    rng = random.Random(0)
    assert check(op, ("poly", 0, (c, 1 - 2 * c, c)), rng) is None
    assert check(op, ("poly", 0, (c, 2 - 2 * c, c)), rng)
    assert check(op, ("raised", "ValueError", "boom"), rng)


def _patched_sources(tmp_path, closed_form: str):
    """A copy of knotrank whose ``alexander_closed_form`` is replaced.

    Passes run in fresh interpreters, so a change must go into the
    sources rather than into this process.
    """
    shutil.copytree(run.SRC / "knotrank", tmp_path / "knotrank")
    with open(tmp_path / "knotrank" / "pretzel.py", "a", encoding="utf-8") as fh:
        fh.write("\n_real = alexander_closed_form\n" + closed_form)
    return tmp_path


def test_sabotaged_program_is_counted_as_failed(tmp_path):
    src = _patched_sources(
        tmp_path, "def alexander_closed_form(knot):\n    return _real(knot) * 2\n")
    result = run.run_workload("genus1-batch", seed=1, seconds=0, trace=False, src=src)
    assert result["correct"] is False
    assert result["failed"] >= workloads.GENUS1_GROUPS
    assert result["attempted"] % len(workloads.generate("genus1-batch", 1)) == 0


def test_no_state_survives_from_one_pass_to_the_next(tmp_path):
    # Goes wrong after one pass's worth of calls in the same process, as a
    # memo keyed on the input would let a repeat skip the work.  A pass
    # calls it twice per group: directly and inside alexander_of_witness.
    per_pass = 2 * workloads.GENUS1_GROUPS
    src = _patched_sources(tmp_path, (
        "_calls = []\n"
        "def alexander_closed_form(knot):\n"
        "    _calls.append(None)\n"
        f"    return _real(knot) * (2 if len(_calls) > {per_pass} else 1)\n"))
    result = run.run_workload("genus1-batch", seed=1, seconds=0, trace=False, src=src)
    assert result["attempted"] >= run.MIN_PASSES * len(workloads.generate("genus1-batch", 1))
    assert result["correct"] is True and result["failed"] == 0


# -- tracer ---------------------------------------------------------------------


def test_tracer_wraps_every_alias_and_restores_everything():
    import knotrank
    from knotrank import characters, laurent, seifert

    layers = worker.import_layers()
    before = worker.snapshot([knotrank, *layers])
    originals = (seifert.rank_int, laurent.LaurentPoly.__dict__["__mul__"])
    with Tracer(knotrank, layers):
        assert characters.rank_int is seifert.rank_int is knotrank.seifert.rank_int
        assert characters.rank_int is not originals[0]
        assert characters.rank_int.__wrapped__ is originals[0]
        assert laurent.LaurentPoly.__dict__["__mul__"] is not originals[1]
        assert knotrank.factorize is knotrank.numtheory.factorize
    assert worker.snapshot([knotrank, *layers]) == before
    assert (seifert.rank_int, laurent.LaurentPoly.__dict__["__mul__"]) == originals


def test_self_time_excludes_children():
    import knotrank

    tracer = Tracer(knotrank, worker.import_layers())
    with tracer:
        knotrank.factorize(2 * 1_000_003 * 1_000_033)
    summary = tracer.summary()
    total = tracer.end[0] - tracer.start[0]
    assert summary["numtheory.factorize"]["calls"] == 1
    assert summary["numtheory.is_prime"]["calls"] >= 1
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(total)


def _layer_calls(workload, tmp_path):
    ops = workloads.generate(workload, 1)[: SLICE[workload]]
    workloads.prepare(ops, tmp_path)
    kr = workloads.import_knotrank(workload)
    calls = [workloads.bind(op, kr) for op in ops]
    _, _, tracer, restored = worker.traced_pass(kr, calls, range(len(calls)))
    assert restored
    report = run.layer_report(tracer.summary(), 1.0)
    return ops, {k[: -len(".calls")]: v["value"] for k, v in report.items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_predictions(workload, tmp_path):
    ops, calls = _layer_calls(workload, tmp_path)
    for fn in NONZERO[workload]:
        assert calls[fn] > 0, fn
    for fn in ZERO[workload]:
        assert calls[fn] == 0, fn
    if workload == "certificate":
        built = sum(op["expect"] == 0 for op in ops)
        assert calls["characters.verify_certificate"] == 2 * built
    assert _layer_calls(workload, tmp_path)[1] == calls


def test_every_operation_gets_a_reference_timing():
    # Short operations share the reference timings around them; long ones
    # get their own.  A missing one would divide a latency by zero.
    calls = [lambda _prev, k=k: sum(range(k)) for k in (10, 10, 200_000, 10)]
    _, latency, reference, outputs = worker.run_pass(calls, [3, 0, 2, 1])
    assert outputs == [sum(range(k)) for k in (10, 10, 200_000, 10)]
    assert all(t > 0 for t in latency) and all(r > 0 for r in reference)


def test_tail_percentile_keeps_ten_beyond():
    values = list(range(1, 1001))
    q, value, beyond = run.tail_percentile(values)
    assert (q, value, beyond) == (99, 990, 10)
    q, _, beyond = run.tail_percentile(list(range(45)))
    assert q == 75 and beyond >= 10
    q, _, beyond = run.tail_percentile(list(range(416)))
    assert (q, beyond) == (97.5, 10)
