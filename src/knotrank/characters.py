"""Rank characters of witness knots and linear-independence certificates.

The rank of a witness is the top knot-Floer rank of its knot; it is
multiplicative under connected sums, so its p-adic valuations form a
family of additive characters.  A certificate exhibits witnesses whose
largest rank primes strictly increase, making the evaluation matrix of
those characters triangular with nonzero diagonal, hence of full rank.
"""

from __future__ import annotations

from typing import Optional

from . import numtheory, pretzel
from ._frozen import Frozen, json_int
from .numtheory import NotPrime, PrimePower
from .pretzel import WitnessKnot


class SearchExhausted(RuntimeError):
    """The witness scan ran out before enough primes were collected."""


def prime_component(w: WitnessKnot, p: int) -> int:
    """Exponent of the prime p in the rank of w."""
    if not numtheory.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    r = pretzel.hfk_top_rank(w)
    e = 0
    while r % p == 0:
        r //= p
        e += 1
    return e


class CertifiedWitness(Frozen):
    """A witness with its rank, full factorization, and largest rank prime."""

    __slots__ = ("witness", "rank", "factorization", "max_prime")
    witness: WitnessKnot
    rank: int
    factorization: tuple[PrimePower, ...]
    max_prime: int

    def __init__(
        self,
        witness: WitnessKnot,
        rank: int,
        factorization: tuple[PrimePower, ...],
        max_prime: int,
    ) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "factorization", factorization)
        object.__setattr__(self, "max_prime", max_prime)

    def to_json(self) -> dict:
        return {
            "witness": self.witness.to_json(),
            "rank": self.rank,
            "factorization": [[p, e] for p, e in self.factorization],
            "max_prime": self.max_prime,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CertifiedWitness":
        try:
            w = WitnessKnot.from_json(data["witness"])
            rank = json_int(data["rank"], "'rank'")
            # unpacking refuses a pair that does not have exactly 2 entries
            factorization = tuple(
                PrimePower(json_int(p, "a factor"), json_int(e, "an exponent"))
                for p, e in data["factorization"]
            )
            mp = json_int(data["max_prime"], "'max_prime'")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certified witness JSON: {exc}") from exc
        return cls(w, rank, factorization, mp)


def certify(w: WitnessKnot, known_prime: int = 1) -> CertifiedWitness:
    """Attach rank, factorization, and max prime to a witness.

    ``known_prime``, if above 1, must be prime.  It is divided out of
    the rank while it divides, and only the cofactor is factored.  The
    factorization is unique, so the result is the same as without it;
    only the cost changes.
    """
    r = pretzel.hfk_top_rank(w)
    cofactor = r
    e = 0
    while known_prime > 1 and cofactor % known_prime == 0:
        cofactor //= known_prime
        e += 1
    factors = numtheory.factorize(cofactor)
    if e:
        factors = sorted([*factors, PrimePower(known_prime, e)])
    return CertifiedWitness(w, r, tuple(factors), factors[-1].prime if factors else 1)


class IndependenceCertificate(Frozen):
    """Witnesses, their strictly increasing max primes, and the evaluation matrix.

    ``evaluation[i][j]`` is the exponent of ``selected_primes[i]`` in the
    rank of ``witnesses[j]``.  Nothing is validated at construction;
    ``verify_certificate`` is the trust boundary.
    """

    __slots__ = ("witnesses", "selected_primes", "evaluation")
    witnesses: tuple[CertifiedWitness, ...]
    selected_primes: tuple[int, ...]
    evaluation: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        witnesses: tuple[CertifiedWitness, ...],
        selected_primes: tuple[int, ...],
        evaluation: tuple[tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "selected_primes", selected_primes)
        object.__setattr__(self, "evaluation", evaluation)

    def to_json(self) -> dict:
        return {
            "witnesses": [cw.to_json() for cw in self.witnesses],
            "primes": list(self.selected_primes),
            "matrix": [list(row) for row in self.evaluation],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IndependenceCertificate":
        try:
            witnesses = tuple(CertifiedWitness.from_json(w) for w in data["witnesses"])
            primes = tuple(json_int(p, "a prime") for p in data["primes"])
            matrix = tuple(
                tuple(json_int(v, "a matrix entry") for v in row) for row in data["matrix"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc
        return cls(witnesses, primes, matrix)

    def to_csv(self) -> str:
        """Evaluation matrix as CSV: rows are primes, columns are witnesses."""
        header = ["prime"] + [f"witness_{cw.witness.index}" for cw in self.witnesses]
        lines = [",".join(header)]
        for p, row in zip(self.selected_primes, self.evaluation):
            lines.append(",".join([str(p)] + [str(v) for v in row]))
        return "\n".join(lines) + "\n"


class VerificationResult(Frozen):
    """Whether a certificate passed ``verify_certificate``, and if not, why."""

    __slots__ = ("ok", "reason")
    ok: bool
    reason: Optional[str]

    def __init__(self, ok: bool, reason: Optional[str] = None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def _evaluation_matrix(witnesses, primes) -> tuple[tuple[int, ...], ...]:
    """Row i holds the exponent of ``primes[i]`` in the rank of each witness.

    ``primes`` must be distinct.  Each prime is mapped to its row, the
    rows start at zero, and each witness's factorization fills in its
    column, so the Python work is one step per factor, not per entry.
    """
    row_of = {p: i for i, p in enumerate(primes)}
    rows = [[0] * len(witnesses) for _ in primes]
    for j, cw in enumerate(witnesses):
        for p, e in cw.factorization:
            i = row_of.get(p)
            if i is not None:
                rows[i][j] = e
    return tuple(map(tuple, rows))


def build_certificate(count: int, search_limit: int) -> IndependenceCertificate:
    """Greedy certificate over witness indices 1..search_limit.

    A witness is kept iff its max prime strictly exceeds the last kept
    one (rank-1 witnesses never qualify), until ``count`` are collected.
    The result is not verified here; pass it to ``verify_certificate``.
    Every rank in the range must be below ``numtheory.PRIMALITY_BOUND``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if search_limit < 1:
        raise ValueError(f"search_limit must be >= 1, got {search_limit}")
    if pretzel.hfk_top_rank(pretzel.witness(search_limit)) >= numtheory.PRIMALITY_BOUND:
        raise ValueError(
            f"search limit {search_limit} is too large: the rank of witness {search_limit} "
            f"is not below {numtheory.PRIMALITY_BOUND}, where primality stops being proven"
        )
    kept: list[CertifiedWitness] = []
    last = 1
    for index in range(1, search_limit + 1):
        cw = certify(pretzel.witness(index))
        if cw.max_prime > last:
            kept.append(cw)
            last = cw.max_prime
            if len(kept) == count:
                break
    else:
        raise SearchExhausted(
            f"found only {len(kept)} of {count} witnesses with indices <= {search_limit}"
        )
    primes = tuple(cw.max_prime for cw in kept)
    return IndependenceCertificate(tuple(kept), primes, _evaluation_matrix(kept, primes))


def verify_certificate(cert: IndependenceCertificate) -> VerificationResult:
    """Recheck a certificate from its stored factorizations alone.

    True implies the selected prime-component characters are linearly
    independent.  Once every check below has passed, each matrix entry
    equals the integer exponent recomputed from a verified
    factorization, the lower triangle is zero and every diagonal entry
    is at least 1.  The determinant is then the product of the diagonal,
    which is not 0, so the shape alone proves full rank over the
    rationals and no rank computation is needed.
    """

    def fail(reason: str) -> VerificationResult:
        return VerificationResult(False, reason)

    ws = cert.witnesses
    primes = cert.selected_primes
    matrix = cert.evaluation
    k = len(ws)
    if k == 0:
        return fail("certificate is empty")
    if len(primes) != k or len(matrix) != k or any(len(row) != k for row in matrix):
        return fail("witness, prime, and matrix dimensions disagree")
    for i in range(1, k):
        if primes[i] <= primes[i - 1]:
            return fail(f"selected primes are not strictly increasing at position {i}")
    for i in range(k):
        for j in range(i):
            if matrix[i][j] != 0:
                return fail(f"triangularity violated at evaluation[{i}][{j}]")
        if matrix[i][i] < 1:
            return fail(f"diagonal entry evaluation[{i}][{i}] is not positive")
    bound = numtheory.PRIMALITY_BOUND
    for i, p in enumerate(primes):
        if p >= bound:
            return fail(f"selected value {p} at position {i} is not below primality bound {bound}")
        if not numtheory.is_prime(p):
            return fail(f"selected value {p} at position {i} is not prime")
    for j, cw in enumerate(ws):
        if cw.rank != pretzel.hfk_top_rank(cw.witness):
            return fail(f"witness {j}: stored rank {cw.rank} does not match its knot")
        product = 1
        previous = 1
        for p, e in cw.factorization:
            if e < 1:
                return fail(f"witness {j}: exponent of {p} is not positive")
            if e > cw.rank.bit_length():
                return fail(f"witness {j}: exponent {e} of {p} exceeds the bit length of the rank")
            if p >= bound:
                return fail(f"witness {j}: factor {p} is not below primality bound {bound}")
            if not numtheory.is_prime(p):
                return fail(f"witness {j}: factor {p} is not prime")
            if p <= previous:
                return fail(f"witness {j}: factorization primes are not ascending")
            previous = p
            product *= p**e
        if product != cw.rank:
            return fail(f"witness {j}: factorization does not multiply back to the rank")
        expected_max = cw.factorization[-1].prime if cw.factorization else 1
        if cw.max_prime != expected_max:
            return fail(f"witness {j}: stored max prime {cw.max_prime} is wrong")
    # the checks above make the selected primes, and each witness's factors, distinct
    for i, (row, expected) in enumerate(zip(matrix, _evaluation_matrix(ws, primes))):
        if tuple(row) != expected:
            j = next(j for j in range(k) if row[j] != expected[j])
            return fail(f"evaluation[{i}][{j}] does not match the factorizations")
    return VerificationResult(True)


def witness_for_prime(p: int) -> CertifiedWitness:
    """The certified witness whose rank the prime p divides.

    Requires p prime and p = 1 (mod 4); the index comes from the square
    root of -1 case split, so prime_component(witness, p) >= 1.  The
    index is at most p, so the rank is below 2p^2; p is passed to
    ``certify`` as a known prime, which leaves a cofactor below 2p to
    factor, so Pollard rho never sees a number near p^2.

    Raises ``ValueError`` unless 2p < ``numtheory.PRIMALITY_BOUND``, so
    that every primality answer behind the result, for p and for each
    factor of the cofactor, is proven.
    """
    if 2 * p >= numtheory.PRIMALITY_BOUND:
        raise ValueError(
            f"{p} is too large: primality is proven only below "
            f"{numtheory.PRIMALITY_BOUND}, and the witness needs 2p below it"
        )
    return certify(pretzel.witness(numtheory.witness_index(p)), known_prime=p)
