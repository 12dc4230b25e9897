"""Seeded operation lists for the four workloads, and how to run one operation.

An operation is a JSON-able dict.  ``kind == "cli"`` operations carry an
``argv`` for ``knotrank.cli.main`` and the exit code they must return;
the other kinds are library calls of the genus1-batch workload.  This
module imports only the standard library and the benchmark's own
oracle, so a set-up probe can load it before it starts its clock.

Every list starts with its lightest operation, so that set-up time
measures start-up cost rather than the luck of the draw; the rest of
the list is shuffled by the seed.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import oracle

WORKLOADS = ("witness", "certificate", "seifert-large", "genus1-batch")
CLI_WORKLOADS = frozenset({"witness", "certificate", "seifert-large"})

# witness: 400 primes p = 1 (mod 4) at the quantile midpoints of a
# log-uniform law between these bounds.  Like the certificate counts and
# the genera below, they are the same for every seed: whether a rank needs
# Pollard rho, and for how long, varies so much from prime to prime that
# drawn primes moved the p99 by a fifth between seeds.  The seed draws the
# order and the composites and primes = 3 (mod 4) that must exit 2.  Ranks
# stay below 2 p^2, far under the proven Miller-Rabin bound, so every
# answer is deterministic.  The ceiling and the count keep a pass near
# one second, so that each prime is timed about fifteen times in a 25 s
# run (README.md).
WITNESS_LOW = 10**4
WITNESS_HIGH = 3 * 10**10
WITNESS_PRIMES = 400
WITNESS_BAD_SHARE = 0.02  # of each: composites, and primes = 3 (mod 4)

# certificate: 42 row counts from 25 to 200, N_i = 25 * 8^((i/41)^3.1), so
# small certificates are common and large ones rare; 25, 100 and 200 are
# among them.  The counts are the same for every seed: a certificate's cost
# grows with about the 2.5th power of its count, so drawn counts would move
# the median command by a fifth.  The seed draws the search limits, the
# exhausted commands and the order.  300 is left out: that one command
# (2.3 s) would hold a pass above three seconds.
CERT_LOW, CERT_HIGH = 25, 200
CERT_COMMANDS = 42
CERT_SKEW = 3.1
CERT_EXHAUSTED = 3
CERT_EXHAUSTED_HIGH = 40  # small, so they stay below the median command

# seifert-large: genus profile, the quantile midpoints of a geometric law
# on 5..25 with mean excess GENUS_SCALE; it holds genus 10, 20 and 25.  The
# profile is the same for every seed, because one genus step near the top
# moves a command's cost by about 20 %; the seed draws the matrices, the
# non-knot cases and the order.  The top genus is 25 so that a pass stays
# near 1.6 s; one genus-31 matrix alone takes 2 s.
GENUS_LOW, GENUS_HIGH = 5, 25
GENUS_SCALE = 5.0
SEIFERT_MATRICES = 36
SEIFERT_NON_KNOTS = 4  # cheap; with them the list has 40 operations, enough for a p75
NON_KNOT_HIGH = 8
SEIFERT_ENTRY = 2  # S has entries in [-2, 2]

# genus1-batch: (l, m, n) in the box of acceptance criterion 2, witnesses
# below 1000 with up to 8 trefoil summands; four calls per group.
GENUS1_GROUPS = 2500
GENUS1_BOX = 15
GENUS1_MAX_INDEX = 1000
GENUS1_MAX_TREFOILS = 8


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's operation list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    try:
        make = _GENERATORS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}") from None
    return make(rng)


def _midpoints(count: int) -> list[float]:
    """The centres of count equal slices of [0, 1): a law's quantile points."""
    return [(i + 0.5) / count for i in range(count)]


def _lead_then_shuffle(rng: random.Random, ops: list[dict], extra: list[dict]) -> list[dict]:
    """Keep ops[0] (the lightest) first; shuffle the rest with the extras."""
    rest = ops[1:] + extra
    rng.shuffle(rest)
    return [ops[0], *rest]


def _log_uniform(u: float, low: float, high: float) -> float:
    return math.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def _next_with(x: int, residue: int, want_prime: bool, high: int) -> int:
    """First number >= x that is = residue (mod 4) and (not) prime; searches down past high."""
    x += (residue - x) % 4
    start = x
    while x <= high:
        if oracle.is_prime(x) == want_prime:
            return x
        x += 4
    x = start - 4
    while oracle.is_prime(x) != want_prime:
        x -= 4
    return x


def _witness(rng: random.Random) -> list[dict]:
    def op(p: int, expect: int) -> dict:
        return {"kind": "cli", "argv": ["witness", "--prime", str(p), "--json"], "expect": expect}

    primes = [
        _next_with(int(_log_uniform(u, WITNESS_LOW, WITNESS_HIGH)), 1, True, WITNESS_HIGH)
        for u in _midpoints(WITNESS_PRIMES)
    ]
    bad = []
    for _ in range(round(WITNESS_PRIMES * WITNESS_BAD_SHARE)):
        x = int(_log_uniform(rng.random(), WITNESS_LOW, WITNESS_HIGH))
        bad.append(op(_next_with(x, 1, False, WITNESS_HIGH), 2))
        bad.append(op(_next_with(x, 3, True, WITNESS_HIGH), 2))
    return _lead_then_shuffle(rng, [op(p, 0) for p in primes], bad)


def _certificate(rng: random.Random) -> list[dict]:
    greedy = oracle.GreedyCertificates()

    def op(count: int, limit: int, expect: int) -> dict:
        argv = ["certificate", "--count", str(count), "--search-limit", str(limit), "--json"]
        return {"kind": "cli", "argv": argv, "expect": expect}

    ops = []
    for i in range(CERT_COMMANDS):
        count = round(_log_uniform((i / (CERT_COMMANDS - 1)) ** CERT_SKEW, CERT_LOW, CERT_HIGH))
        needed = greedy.needed_index(count)
        ops.append(op(count, rng.randint(needed, 2 * needed), 0))
    exhausted = []
    for _ in range(CERT_EXHAUSTED):
        count = rng.randint(CERT_LOW, CERT_EXHAUSTED_HIGH)
        needed = greedy.needed_index(count)
        exhausted.append(op(count, rng.randint(needed // 2, needed - 1), 3))
    return _lead_then_shuffle(rng, ops, exhausted)


def genus_profile() -> list[int]:
    """The genera of the knot matrices, ascending; the same for every seed."""
    return [
        min(GENUS_HIGH, GENUS_LOW + int(-GENUS_SCALE * math.log(1.0 - u)))
        for u in _midpoints(SEIFERT_MATRICES)
    ]


def seifert_matrix(rng: random.Random, genus: int, knot: bool = True) -> list[list[int]]:
    """V = V0 + S with V0 - V0^T the standard symplectic form and S symmetric.

    For a non-knot matrix the first block of V0 carries a 2, so that
    det(V - V^T) = 4.
    """
    size = 2 * genus
    v = [[0] * size for _ in range(size)]
    for b in range(genus):
        v[2 * b][2 * b + 1] = 1
    if not knot:
        v[0][1] = 2
    for i in range(size):
        for j in range(i, size):
            s = rng.randint(-SEIFERT_ENTRY, SEIFERT_ENTRY)
            v[i][j] += s
            if j != i:
                v[j][i] += s
    return v


def _seifert(rng: random.Random) -> list[dict]:
    def op(i: int, entries: list[list[int]], expect: int) -> dict:
        argv = ["alexander", "--seifert", f"v{i:03d}.json", "--json"]
        return {"kind": "cli", "argv": argv, "expect": expect, "matrix": entries}

    ops = [op(i, seifert_matrix(rng, g), 0) for i, g in enumerate(genus_profile())]
    non_knots = [
        op(SEIFERT_MATRICES + i, seifert_matrix(rng, rng.randint(GENUS_LOW, NON_KNOT_HIGH), knot=False), 1)
        for i in range(SEIFERT_NON_KNOTS)
    ]
    return _lead_then_shuffle(rng, ops, non_knots)


def _genus1(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(GENUS1_GROUPS):
        lmn = [rng.randint(-GENUS1_BOX, GENUS1_BOX) for _ in range(3)]
        ops.append({"kind": "closed", "lmn": lmn})
        ops.append({"kind": "seifert2", "lmn": lmn})
        ops.append({"kind": "fibered", "lmn": lmn})
        n = rng.randint(1, GENUS1_MAX_INDEX)
        ops.append({"kind": "stabilized", "n": n, "k": rng.randint(0, GENUS1_MAX_TREFOILS)})
    return ops


def pass_orders(workload: str, seed: int, count: int):
    """Endless seeded orders of range(count), the list's own order first.

    genus1-batch moves in groups of four, because its fiberedness call
    reads the polynomial the call before it returned.
    """
    block = 4 if workload == "genus1-batch" else 1
    starts = list(range(0, count, block))
    rng = random.Random(f"{workload}:{seed}:order")
    yield range(count)
    while True:
        rng.shuffle(starts)
        yield [i for s in starts for i in range(s, s + block)]


_GENERATORS = {
    "witness": _witness,
    "certificate": _certificate,
    "seifert-large": _seifert,
    "genus1-batch": _genus1,
}


def prepare(ops: list[dict], workdir: Path) -> None:
    """Write each operation's Seifert matrix file and point its argv at it."""
    for op in ops:
        if "matrix" in op:
            path = workdir / op["argv"][2]
            path.write_text(json.dumps({"size": len(op["matrix"]), "entries": op["matrix"]}))
            op["argv"][2] = str(path)


# -- running operations --------------------------------------------------------


def import_knotrank(workload: str) -> SimpleNamespace:
    """Import what a user of the workload imports: the CLI, or only the library."""
    package = importlib.import_module("knotrank")
    if workload in CLI_WORKLOADS:
        importlib.import_module("knotrank.cli")
    return SimpleNamespace(
        package=package,
        cli=getattr(package, "cli", None),
        pretzel=package.pretzel,
        seifert=package.seifert,
    )


def bind(op: dict, kr: SimpleNamespace):
    """A callable ``f(previous_output) -> output`` that performs the operation.

    Functions are looked up on their modules at call time, so a tracer
    installed after binding still sees every call.
    """
    kind = op["kind"]
    if kind == "cli":
        argv = op["argv"]
        cli = kr.cli

        def run_cli(_prev):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        return run_cli
    pretzel, seifert = kr.pretzel, kr.seifert
    if kind == "closed":
        l, m, n = op["lmn"]
        return lambda _prev: pretzel.alexander_closed_form(pretzel.PretzelKnot(l, m, n))
    if kind == "seifert2":
        l, m, n = op["lmn"]
        return lambda _prev: seifert.alexander_from_seifert(seifert.pretzel_seifert_matrix(l, m, n))
    if kind == "fibered":
        # Reads fiberedness from the polynomial the previous call returned.
        return lambda prev: (prev.degree_span(), prev.eval_at(0))
    if kind == "stabilized":
        n, k = op["n"], op["k"]
        return lambda _prev: pretzel.alexander_of_witness(
            pretzel.stabilize(pretzel.witness(n), k)
        )
    raise ValueError(f"unknown operation kind {kind!r}")


def plain(output):
    """Output as plain data, independent of knotrank's types, for comparison and checks."""
    if isinstance(output, tuple):
        return tuple(plain(v) for v in output)
    if hasattr(output, "coeffs") and hasattr(output, "lowest"):
        return ("poly", output.lowest, tuple(output.coeffs))
    return output
