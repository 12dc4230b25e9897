"""Rank characters of witness knots and linear-independence certificates.

The rank of a witness is the top knot-Floer rank of its knot; it is
multiplicative under connected sums, so its p-adic valuations form a
family of additive characters.  A certificate exhibits witnesses whose
largest rank primes strictly increase, making the evaluation matrix of
those characters triangular with nonzero diagonal, hence of full rank.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import isqrt

from . import numtheory, pretzel
from ._frozen import Frozen, is_int, json_int
from .numtheory import NotPrime, PrimePower
from .pretzel import WitnessKnot

# Iterator in annotations is collections.abc's; annotations are never evaluated.


class SearchExhausted(RuntimeError):
    """The witness scan ran out before enough primes were collected."""


def prime_component(w: WitnessKnot, p: int) -> int:
    """Exponent of the prime p in the rank of w.

    Raises ``ValueError`` for p >= ``numtheory.PRIMALITY_BOUND``, where
    ``is_prime`` proves nothing.
    """
    if p >= numtheory.PRIMALITY_BOUND:
        raise numtheory._unproven(p)
    if not numtheory.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    r = pretzel.hfk_top_rank(w)
    e = 0
    while r % p == 0:
        r //= p
        e += 1
    return e


class CertifiedWitness(Frozen):
    """A witness with its rank, full factorization, and largest rank prime.

    Every field is checked when the record is made, in this order: the
    witness must be a ``WitnessKnot`` with an integer index and
    stab_count, else ``ValueError`` (``... is not a witness knot``); the
    rank, each factor and then its exponent, and the max prime must be
    integers (``is_int``), else ``json_int``'s ``ValueError``.  An
    entry that does not unpack to a pair, or a factorization that is
    not iterable, raises Python's own unpacking or iteration error.  The
    factorization is stored as a tuple of ``PrimePower``.
    """

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
        w = witness
        if not (isinstance(w, WitnessKnot) and is_int(w.index) and is_int(w.stab_count)):
            raise ValueError(f"{w!r} is not a witness knot")
        # each ``type(...) is int`` spares an exact int the call of json_int
        if type(rank) is not int:
            json_int(rank, "'rank'")
        factors = []
        for pair in factorization:
            p, e = pair  # refuses any entry but a pair
            if not (type(p) is type(e) is int):
                json_int(p, "a factor")
                json_int(e, "an exponent")
            # a PrimePower is kept: building one runs the Python-level __new__ of a namedtuple
            factors.append(pair if type(pair) is PrimePower else PrimePower(p, e))
        if type(max_prime) is not int:
            json_int(max_prime, "'max_prime'")
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "factorization", tuple(factors))
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
            return cls(w, data["rank"], data["factorization"], data["max_prime"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certified witness JSON: {exc}") from exc


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
    return CertifiedWitness(w, r, factors, factors[-1].prime if factors else 1)


class IndependenceCertificate(Frozen):
    """Witnesses, their strictly increasing max primes, and the evaluation matrix.

    ``evaluation[i][j]`` is the exponent of ``selected_primes[i]`` in the
    rank of ``witnesses[j]``: a k x k matrix for k >= 1 witnesses and k
    primes.  Any iterable of rows may be passed, a one-shot one too; it
    is held as its ``_EvaluationView``, the read-only view over its
    nonzero cells, which indexes, compares, hashes and prints as the
    tuple of its row tuples.  A view is kept as it is, and any other
    matrix is read once, here, where every entry must be an integer
    (``is_int``): any other raises ``ValueError``, naming the first in
    reading order.  ``witnesses`` and ``selected_primes`` are stored as
    tuples; each witness must be a ``CertifiedWitness`` (``... is not a
    certified witness``) and each prime an integer (``json_int``'s
    message), else ``ValueError``.  Once every entry is read, a record
    with no witness raises ``ValueError("certificate is empty")``, and
    one whose number of primes, of rows or of entries in any row is not
    the number of witnesses raises ``ValueError("witness, prime, and
    matrix dimensions disagree")``.  So every field and the shape of the
    record are checked here, in the order ``from_json`` reads them, and
    ``verify_certificate`` checks only the arithmetic.
    """

    __slots__ = ("witnesses", "selected_primes", "evaluation")
    witnesses: tuple[CertifiedWitness, ...]
    selected_primes: tuple[int, ...]
    evaluation: _EvaluationView

    def __init__(
        self,
        witnesses: tuple[CertifiedWitness, ...],
        selected_primes: tuple[int, ...],
        evaluation: tuple[tuple[int, ...], ...],
    ) -> None:
        witnesses = tuple(witnesses)
        for cw in witnesses:
            if not isinstance(cw, CertifiedWitness):
                raise ValueError(f"{cw!r} is not a certified witness")
        primes = tuple(selected_primes)
        if not set(map(type, primes)) <= {int}:  # as ``_dense_cells`` scans a row
            for p in primes:
                json_int(p, "a prime")
        k = len(witnesses)
        view = _EvaluationView.of(evaluation, k)
        if not k:
            raise ValueError("certificate is empty")
        if view is None or len(primes) != k or len(view) != k:
            raise ValueError("witness, prime, and matrix dimensions disagree")
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "selected_primes", primes)
        object.__setattr__(self, "evaluation", view)

    def to_json(self) -> dict:
        return {
            "witnesses": [cw.to_json() for cw in self.witnesses],
            "primes": list(self.selected_primes),
            "matrix": [list(row) for row in self.evaluation],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IndependenceCertificate":
        """The record that ``data`` describes.

        Its fields and its shape are checked by the constructor, as any
        record's are; the matrix is read once, into the view of its cells
        that every record holds (``_EvaluationView.of``).  An empty
        certificate, or a matrix that is not k x k for k witnesses and k
        primes, is refused with the constructor's message.
        """
        try:
            witnesses = [CertifiedWitness.from_json(w) for w in data["witnesses"]]
            return cls(witnesses, data["primes"], data["matrix"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc

    def to_csv(self) -> str:
        """Evaluation matrix as CSV: rows are primes, columns are witnesses."""
        return "".join(_csv_lines(self))


class VerificationResult(Frozen):
    """Whether a certificate passed ``verify_certificate``, and if not, why."""

    __slots__ = ("ok", "reason")
    ok: bool
    reason: str | None

    def __init__(self, ok: bool, reason: str | None = None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def _prime_cells(witnesses, primes) -> list[list[tuple[int, int]]]:
    """For each of the distinct ``primes``, its cells ``(j, e)``, j ascending.

    e is the exponent of the prime in the rank of ``witnesses[j]``, for
    each witness whose factorization holds it: the nonzero entries of
    the prime's row of the evaluation matrix.  Each prime is mapped to
    its row, so the Python work is one step per factor, not per entry.
    """
    row_of = {p: i for i, p in enumerate(primes)}
    cells: list[list[tuple[int, int]]] = [[] for _ in primes]
    for j, cw in enumerate(witnesses):
        for p, e in cw.factorization:
            i = row_of.get(p)
            if i is not None:
                cells[i].append((j, e))
    return cells


def _csv_lines(cert: IndependenceCertificate) -> Iterator[str]:
    """The lines of ``cert.to_csv()``, each ending in a newline, one row at a time."""
    header = ["prime"] + [f"witness_{cw.witness.index}" for cw in cert.witnesses]
    yield ",".join(header) + "\n"
    for p, text in zip(cert.selected_primes, _joined_rows(cert.evaluation, ",")):
        yield f"{p},{text}\n"


class _EvaluationView(Frozen):
    """A read-only square evaluation matrix, stored as the nonzero cells of its rows.

    ``rows[i]`` is the tuple of the cells ``(j, v)`` of row i, j
    ascending and below ``len(rows)``, each v a nonzero int; every other
    entry is 0, and each row has ``len(rows)`` entries, the width of the
    view.  So a square matrix has one view, and two views are equal when
    their rows are.  The view stands for the tuple of its row tuples: it
    indexes, iterates, compares equal, hashes and prints as that tuple
    does, and builds a dense row only when one is asked for.  It pickles
    as its rows.
    """

    __slots__ = ("rows",)
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, rows) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    @classmethod
    def of(cls, matrix, k: int) -> "_EvaluationView | None":
        """``matrix`` if it is a view, else the view of its rows; None if a row's length is not k.

        The rows are read once, by ``_dense_cells``, which takes a row's
        length in the pass that reads its entries, so a one-shot iterable
        of rows is judged as the tuple of them is.  Every row is read
        before None is returned, so the first entry that is not an int
        is named before any shape fault.
        """
        if type(matrix) is cls:
            return matrix
        rows = [_dense_cells(row, k) for row in matrix]
        return None if None in rows else cls(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(_dense_row, repeat(len(self.rows)), self.rows[index]))
        return _dense_row(len(self.rows), self.rows[index])

    def __iter__(self) -> Iterator[tuple]:
        return map(_dense_row, repeat(len(self.rows)), self.rows)

    def __eq__(self, other):
        if isinstance(other, _EvaluationView):
            return self.rows == other.rows
        if not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _dense_row(k: int, cells) -> tuple:
    """The row of k entries that holds ``cells`` and the int 0 everywhere else."""
    row = [0] * k
    for j, v in cells:
        row[j] = v
    return tuple(row)


def _dense_cells(row, k: int) -> list[tuple[int, int]] | None:
    """The cells of a dense row of k entries, j ascending, or None if its length is not k.

    Every entry must be an integer (``is_int``); the first that is not
    raises ``json_int``'s ``ValueError``.  The cells ``(j, v)`` are the
    nonzero entries, found by C-level scans: a ``set`` of the entries'
    types, which only a row of exact ints passes unread, and a
    ``compress``.  The entries are read before the length, so a row that
    is not iterable fails as such.
    """
    if not set(map(type, row)) <= {int}:
        for v in row:
            json_int(v, "a matrix entry")
    return [(j, row[j]) for j in compress(range(k), row)] if len(row) == k else None


def _joined_rows(view: _EvaluationView, sep: str) -> Iterator[str]:
    """Yield ``sep.join(map(str, row))`` for each row of ``view``; ``sep`` is ASCII.

    The text of an evaluation matrix, in CSV and in the JSON envelope,
    where ``json.dumps`` writes an int as ``str`` does.  A row whose
    every cell (``view.rows``) is in 0..9 is written from its cells into
    a copy of a template of zeros and separators, made once per view,
    whose every row has ``len(view)`` entries: one Python step per cell,
    none per zero.  Any other row goes through ``str`` entry by entry.
    """
    step = len(sep) + 1
    k = len(view)
    zeros = sep.join("0" * k).encode()
    for cells in view.rows:
        text = bytearray(zeros)
        for j, v in cells:
            if not 0 <= v <= 9:
                yield sep.join(map(str, _dense_row(k, cells)))
                break
            text[j * step] = 48 + v  # the ASCII digit of v
        else:
            yield text.decode()


# Blocks of witness indices start this long and double up to the maximum,
# so a short certificate sieves few indices whatever its search limit.
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 14


class _RankSieve:
    """Tells which witness ranks are prime, a block of indices at a time.

    The rank r(n) = 2n^2 - 2n + 1 is odd and 2r = (2n - 1)^2 + 1, so
    each of its prime factors p is 1 (mod 4), and p divides r(n) exactly
    when n = n0 or n = 1 - n0 (mod p), where n0 = ``witness_index(p)``:
    the witness construction run in reverse.  The Eratosthenes sieve
    has proven each p, so n0 comes from the root search alone, with no
    second primality test, through the one root-to-index formula,
    ``numtheory._root_index``.  A block is sieved with the two roots of
    each such prime up to the square root of its largest rank: one
    strided slice assignment per root marks the multiples of p, except a
    rank equal to p, so a rank left unmarked is a prime.  This is the
    Eratosthenes form of the quadratic sieve's polynomial-value sieve:
    it marks composites and divides nothing.  Its table of primes and
    roots grows with the square root of the largest rank sieved, about
    8 MB at index 10^6.  Primality is all the greedy of
    ``build_certificate`` needs.  It keeps every prime rank r(n), n >= 2,
    since every factor of an earlier rank is at most that rank, which is
    below r(n); and a composite rank's prime factors are all 1 (mod 4),
    so its largest is at most r // 5.
    """

    def __init__(self) -> None:
        self.primes: list[int] = []  # the primes 1 (mod 4) up to self.top, ascending
        # for each prime up to the largest bound sieved yet, the n mod p with p | r(n)
        self.roots: list[tuple[int, int]] = []
        self.top = 1

    def block(self, lo: int, hi: int) -> bytearray:
        """Entry i is 1 if the rank of witness index lo + i is prime, else 0; 1 <= lo < hi."""
        largest = 2 * (hi - 1) * (hi - 2) + 1
        bound = isqrt(largest)
        if bound > self.top:
            # doubling keeps the total cost of the re-sieves linear
            self.top = max(bound, 2 * self.top)
            self.primes = numtheory.primes_one_mod_four(self.top)
        for p in self.primes[len(self.roots) :]:
            if p > bound:
                break  # its roots wait for a block that sieves with it
            n0 = numtheory._root_index(numtheory._pinned_root(p), p)
            self.roots.append((n0, (1 - n0) % p))
        size = hi - lo
        flags = bytearray(b"\x01") * size
        if lo == 1:
            flags[0] = 0  # the rank 1 is not prime
        # only a rank up to bound can equal a sieving prime
        small = 2 * lo * (lo - 1) + 1 <= bound
        for p, pair in zip(self.primes, self.roots):
            if p > bound:
                break
            for root in pair:
                start = (root - lo) % p
                if small and 2 * (lo + start) * (lo + start - 1) + 1 == p:
                    start += p  # the first multiple is p itself, a prime
                if p < size:
                    flags[start::p] = bytes(len(range(start, size, p)))
                elif start < size:  # at most one multiple in the block
                    flags[start] = 0
        return flags


def _rank_primality(search_limit: int):
    """Yield ``(n, 1 if the rank of n is prime else 0)`` for n = 1..search_limit.

    The blocks start short and double up to a fixed length, so a caller
    that stops early has sieved few indices, whatever the search limit.
    """
    sieve = _RankSieve()
    lo, size = 1, _FIRST_BLOCK
    while lo <= search_limit:
        hi = min(lo + size, search_limit + 1)
        yield from zip(range(lo, hi), sieve.block(lo, hi))
        lo, size = hi, min(2 * size, _MAX_BLOCK)


def build_certificate(count: int, search_limit: int) -> IndependenceCertificate:
    """Greedy certificate over witness indices 1..search_limit.

    A witness is kept iff its max prime strictly exceeds the last kept
    one (rank-1 witnesses never qualify), until ``count`` are collected.
    Each kept witness equals ``certify(witness(n))``, but the ranks are
    sieved for primality a block of indices at a time (``_RankSieve``),
    and almost none is factored.  A prime rank r(n), n >= 2, is always
    kept, as ``((r, 1),)``: every factor of an earlier rank is at most
    that rank, which is below r(n).  A composite rank's prime factors
    are all 1 (mod 4), so its largest is at most r // 5; unless that
    exceeds the last kept prime, the rank is skipped unfactored.  The
    sieve stops with the block of the last witness.  The result is not
    verified here; pass it to ``verify_certificate``.  Every rank in the
    range must be below ``numtheory.PRIMALITY_BOUND``.
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
    for index, prime in _rank_primality(search_limit):
        rank = 2 * index * (index - 1) + 1
        if prime:
            # the same PrimePower, without the Python-level __new__ of a namedtuple
            factors = (tuple.__new__(PrimePower, (rank, 1)),)
        elif rank // 5 > last:  # else its largest prime cannot exceed last
            factors = tuple(numtheory.factorize(rank))
        else:
            continue
        if factors[-1].prime > last:
            last = factors[-1].prime
            kept.append(CertifiedWitness(pretzel.witness(index), rank, factors, last))
            if len(kept) == count:
                break
    else:
        raise SearchExhausted(
            f"found only {len(kept)} of {count} witnesses with indices <= {search_limit}"
        )
    primes = tuple(cw.max_prime for cw in kept)
    return IndependenceCertificate(kept, primes, _EvaluationView(_prime_cells(kept, primes)))


def verify_certificate(cert: IndependenceCertificate) -> VerificationResult:
    """Recheck a certificate from its stored factorizations alone.

    True implies the selected prime-component characters are linearly
    independent.  Once every check below has passed, each matrix entry
    equals the integer exponent recomputed from a verified
    factorization, the lower triangle is zero and every diagonal entry
    is at least 1.  The determinant is then the product of the diagonal,
    which is not 0, so the shape alone proves full rank over the
    rationals and no rank computation is needed.

    The checks are arithmetic only: the record is a non-empty k x k
    certificate, every number it holds is an integer, each witness a
    ``WitnessKnot`` and each factorization a tuple of pairs, since the
    records refuse any other shape or value when they are made.

    The cost is linear in the input.  Each matrix row is read as the
    cells that every record holds (``evaluation.rows``), each a nonzero
    int, so the triangle takes one step per row, from its first cell, and
    the entries one comparison of the row's cells with the cells the
    factorizations give, plus one step per factor of a selected prime:
    no dense row is built.  Each distinct prime, selected or factor,
    gets one Miller-Rabin test; a factor already proven in this call is
    not tested again.
    """

    def fail(reason: str) -> VerificationResult:
        return VerificationResult(False, reason)

    ws = cert.witnesses
    primes = cert.selected_primes
    rows = cert.evaluation.rows
    for i in range(1, len(primes)):
        if primes[i] <= primes[i - 1]:
            return fail(f"selected primes are not strictly increasing at position {i}")
    # every cell is a nonzero int, so a row's first cell decides its shape
    for i, cells in enumerate(rows):
        j, v = cells[0] if cells else (i, 0)
        if j < i:
            return fail(f"triangularity violated at evaluation[{i}][{j}]")
        if j > i or v < 1:
            return fail(f"diagonal entry evaluation[{i}][{i}] is not positive")
    bound = numtheory.PRIMALITY_BOUND
    proven: set[int] = set()
    for i, p in enumerate(primes):
        if p >= bound:
            return fail(f"selected value {p} at position {i} is not below primality bound {bound}")
        if not numtheory.is_prime(p):
            return fail(f"selected value {p} at position {i} is not prime")
        proven.add(p)
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
            if p not in proven:
                if not numtheory.is_prime(p):
                    return fail(f"witness {j}: factor {p} is not prime")
                proven.add(p)
            if p <= previous:
                return fail(f"witness {j}: factorization primes are not ascending")
            previous = p
            product *= p**e
        if product != cw.rank:
            return fail(f"witness {j}: factorization does not multiply back to the rank")
        # the factors ascend, so previous is the largest, or 1 for the rank 1
        if cw.max_prime != previous:
            return fail(f"witness {j}: stored max prime {cw.max_prime} is wrong")
    # The checks above make the selected primes, and each witness's factors,
    # distinct, and every exponent at least 1, so row i must hold the cells
    # of primes[i] and a zero everywhere else.
    for i, (cells, expected) in enumerate(zip(rows, map(tuple, _prime_cells(ws, primes)))):
        if cells != expected:
            got, want = dict(cells), dict(expected)
            wrong = [j for j in got.keys() | want.keys() if got.get(j, 0) != want.get(j, 0)]
            return fail(f"evaluation[{i}][{min(wrong)}] does not match the factorizations")
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
