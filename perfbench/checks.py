"""Independent output checks, run after the timed region.

Each check takes an operation and its output (as ``workloads.plain``
gives it) and returns None when the output is right, or a reason.  The
checks never call knotrank: they use ``oracle`` and ``sympy``.
Operations with a documented error exit code pass only when they
return exactly that code.
"""

from __future__ import annotations

import json
import random

from sympy import isprime

import oracle


def _check_witness(op: dict, r: dict, _rng) -> str | None:
    p = int(op["argv"][2])
    m, n, rank = r["m"], r["n"], r["rank"]
    if r["prime"] != p:
        return f"prime {r['prime']} != {p}"
    if (m * m + 1) % p:
        return f"m^2 != -1 mod {p}"
    if n != ((m + 1) // 2 if m % 2 else (m + p + 1) // 2):
        return f"index {n} does not follow from m = {m}"
    if rank != oracle.witness_rank(n):
        return f"rank {rank} != 2n^2 - 2n + 1"
    if rank % p or r["rank_mod_p"] != 0:
        return f"{p} does not divide the rank"
    if r["pretzel"] != [-2 * n + 1, 2 * n + 1, 2 * n * n + 1]:
        return f"pretzel {r['pretzel']} is not the index-{n} witness"
    return _check_factorization(r["factorization"], rank)


def _check_factorization(factors, value: int) -> str | None:
    product, previous = 1, 1
    for q, e in factors:
        if q <= previous:
            return "factors are not ascending"
        if e < 1 or not isprime(q):
            return f"factor {q}^{e} is not a prime power"
        previous = q
        product *= q**e
    if product != value:
        return "factors do not multiply back"
    return None


class CertificateCheck:
    """Holds the greedy reference so that every command shares one scan."""

    def __init__(self) -> None:
        self.greedy = oracle.GreedyCertificates()

    def __call__(self, op: dict, r: dict, _rng) -> str | None:
        count, limit = int(op["argv"][2]), int(op["argv"][4])
        expected = self.greedy.certificate(count, limit)
        if r != expected:
            return "certificate differs from the greedy rule's"
        primes, matrix = r["primes"], r["matrix"]
        if any(b <= a for a, b in zip(primes, primes[1:])):
            return "primes do not strictly increase"
        for i, row in enumerate(matrix):
            if row[i] < 1 or any(row[j] for j in range(i)):
                return f"matrix row {i} breaks triangularity or has a non-positive diagonal"
        return None


def _check_seifert(op: dict, r: dict, rng: random.Random) -> str | None:
    poly = r["alexander"]
    coeffs = poly["coeffs"]
    if poly["lowest"] != 0 or not coeffs:
        return "polynomial is not normalized"
    if coeffs != coeffs[::-1]:
        return "polynomial is not symmetric"
    if sum(coeffs) != 1:
        return "Delta(1) != 1"
    v = op["matrix"]
    p = oracle.CHECK_MODULUS
    x = rng.randrange(2, p - 1)
    det = oracle.seifert_pencil_det_mod(v, x, p)
    value = oracle.eval_mod(coeffs, x, p)
    room = len(v) - (len(coeffs) - 1)  # det(V - tV^T) = +-t^k Delta(t), 0 <= k <= room
    for k in range(room + 1):
        shifted = value * pow(x, k, p) % p
        if det in (shifted, -shifted % p):
            return None
    return "polynomial differs from det(V - xV^T) at a random point"


def _check_genus1(op: dict, output) -> str | None:
    kind = op["kind"]
    if kind == "stabilized":
        n = op["n"]
        c = oracle.pretzel_coefficient(-n, n, n * n)
        expected = ("poly", 0, tuple(oracle.genus_one_alexander(c, op["k"])))
    else:
        coeffs = oracle.genus_one_alexander(oracle.pretzel_coefficient(*op["lmn"]))
        if kind == "fibered":
            expected = (len(coeffs) - 1, coeffs[0])
        else:
            expected = ("poly", 0, tuple(coeffs))
    return None if output == expected else f"{kind}: got {output}, expected {expected}"


_CLI_CHECKS = {
    "witness": _check_witness,
    "seifert-large": _check_seifert,
}


def checker(workload: str):
    """A check function for one run; certificate checks share a greedy scan."""
    table = dict(_CLI_CHECKS, certificate=CertificateCheck())

    def run(op: dict, output, rng: random.Random) -> str | None:
        if isinstance(output, tuple) and output and output[0] == "raised":
            return f"raised {output[1]}: {output[2]}"
        if op["kind"] != "cli":
            return _check_genus1(op, output)
        code, stdout = output
        if code != op["expect"]:
            return f"exit code {code}, expected {op['expect']}"
        if code != 0:
            return None
        try:
            result = json.loads(stdout)["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON envelope: {exc}"
        try:
            return table[workload](op, result, rng)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed result: {exc!r}"

    return run
