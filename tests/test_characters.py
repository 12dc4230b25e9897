import hashlib
import itertools
import random
import time
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime

from knotrank import characters, numtheory
from knotrank.characters import (
    CertifiedWitness,
    IndependenceCertificate,
    SearchExhausted,
    VerificationResult,
    build_certificate,
    certify,
    prime_component,
    verify_certificate,
    witness_for_prime,
)
from knotrank.numtheory import (
    PRIMALITY_BOUND,
    NotOneModFour,
    NotPrime,
    PrimePower,
    factorize,
    primes_one_mod_four,
    witness_index,
)
from knotrank.pretzel import WitnessKnot, hfk_top_rank, stabilize, witness
from oracles import fraction_rank


def verified_certificate(count, search_limit):
    # build_certificate does not verify its own output
    cert = build_certificate(count, search_limit)
    assert verify_certificate(cert)
    return cert


def test_rank_value_examples():
    # the rank a certified witness carries is the top HFK rank, stabilized or not
    assert certify(witness(1)).rank == 1
    assert certify(witness(4)).rank == 25
    assert certify(stabilize(witness(4), 3)).rank == 25


def test_prime_component_examples():
    assert prime_component(witness(4), 5) == 2
    assert prime_component(witness(3), 13) == 1
    assert prime_component(witness(3), 5) == 0


def test_prime_component_rejects_composite_modulus():
    with pytest.raises(NotPrime):
        prime_component(witness(4), 6)


def test_prime_component_refuses_values_from_the_primality_bound_on():
    # the bound passes every Miller-Rabin base, yet is 1287836182261 * 2575672364521
    bound = numtheory.PRIMALITY_BOUND
    for p in (bound, nextprime(bound)):
        with pytest.raises(ValueError, match=f"not below {bound}"):
            prime_component(witness(4), p)
    assert prime_component(witness(4), 5) == 2


def test_max_prime_examples():
    assert certify(witness(1)).max_prime == 1  # rank 1: the "or 1" clause
    assert certify(witness(7)).max_prime == 17  # rank 85 = 5 * 17
    assert certify(witness(2)).max_prime == 5


def test_certify_invariants():
    for n in (1, 2, 7, 11, 20):
        cw = certify(witness(n))
        assert cw.rank == hfk_top_rank(cw.witness)
        product = 1
        for p, e in cw.factorization:
            product *= p**e
            assert prime_component(cw.witness, p) == e
        assert product == cw.rank
        expected_max = cw.factorization[-1].prime if cw.factorization else 1
        assert cw.max_prime == expected_max
        listed = {p for p, _ in cw.factorization}
        for p in (2, 3, 7, 101):
            if p not in listed:
                assert prime_component(cw.witness, p) == 0


def test_certify_known_prime_changes_nothing():
    # dividing a known prime out first must give the unique factorization
    for n in (1, 2, 4, 7, 11, 20, 313):
        w = witness(n)
        for q in (2, 5, 13, 17, 101, 1_000_003):
            assert certify(w, known_prime=q) == certify(w)


def test_build_certificate_two_rows():
    cert = build_certificate(2, 100)
    assert [cw.witness.index for cw in cert.witnesses] == [2, 3]
    assert cert.selected_primes == (5, 13)
    # the view is a record: its dense tuple is asked for, never equal to it
    assert tuple(cert.evaluation) == ((1, 0), (0, 1)) != cert.evaluation
    assert verify_certificate(cert)


def test_build_certificate_three_rows_follows_greedy_rule():
    # ranks scanned: 1, 5, 13, 25, 41; 25 has max prime 5 and is skipped,
    # 41 is prime and kept, so the third selected prime is 41
    cert = verified_certificate(3, 100)
    assert [cw.witness.index for cw in cert.witnesses] == [2, 3, 5]
    assert cert.selected_primes == (5, 13, 41)


def test_build_certificate_single_row():
    cert = build_certificate(1, 10)
    assert len(cert.witnesses) == 1
    assert cert.evaluation[0][0] >= 1
    assert verify_certificate(cert)


def test_build_certificate_skips_rank_one_witness():
    cert = build_certificate(1, 10)
    assert cert.witnesses[0].witness.index == 2  # index 1 has rank 1, never selected


def test_build_certificate_exhaustion():
    with pytest.raises(SearchExhausted):
        build_certificate(100_000, 10)


def test_build_certificate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_certificate(0, 10)
    with pytest.raises(ValueError):
        build_certificate(1, 0)
    # its own guard, not the witness index check of pretzel.witness(0)
    with pytest.raises(ValueError, match="^search_limit must be >= 1, got 0$"):
        build_certificate(3, 0)


def rank_of(n):
    return 2 * n * n - 2 * n + 1


def sympy_factorization(r):
    return sorted(factorint(r).items())


@lru_cache(maxsize=1)
def shared_sieve():
    # one sieve for every example: near index 2 * 10^6 it needs every prime
    # 1 (mod 4) up to about 2.8 * 10^6, and those are found once
    return characters._RankSieve()


def crossing_block(i, reaches, width):
    # n is the first index whose rank reaches p^2, p the i-th prime = 1 (mod 4):
    # a block that reaches n sieves with p, one that ends just before it does not
    p = primes_one_mod_four(2000)[i]
    n = next(n for n in range(1, p + 1) if rank_of(n) >= p * p)
    hi = n + 1 if reaches else max(n, 2)
    return max(1, hi - 1 - width), hi


blocks = st.tuples(st.integers(1, 3000), st.integers(1, 300)).map(
    lambda t: (t[0], t[0] + t[1])
) | st.builds(crossing_block, st.integers(0, 140), st.booleans(), st.integers(0, 40))


def primality_flags(lo, hi):
    return [int(isprime(rank_of(n))) for n in range(lo, hi)]


def assert_marks_match_sympy(lo, hi, flags):
    assert type(flags) is bytearray
    assert list(flags) == primality_flags(lo, hi)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(blocks)
@example((1, 2))  # rank 1 alone: neither prime nor marked by a sieving prime
@example((1, 5))  # rank(4) = 25 = 5^2: the bound reaches 5 exactly
@example((1, 4))  # without index 4 the bound is 3: 5 and 13 are unmarked by bound alone
@example((1, 64))  # the ranks 5, 13, 41 and 61 are sieving primes of this block
@example((3, 40))  # not the first block, yet its ranks 13 and 41 are sieving primes
@example((21, 22))  # rank(21) = 841 = 29^2
@example((697, 698))  # rank(697) = 985^2 = 5^2 * 197^2
@example((60, 70))  # across the end of the first block of _rank_primality
@example((741_455, 741_460))  # ranks pass 2^40
def test_rank_sieve_block_marks_match_sympy(lo_hi):
    lo, hi = lo_hi
    assert_marks_match_sympy(lo, hi, shared_sieve().block(lo, hi))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 2 * 10**6), st.integers(1, 12))
@example(741_455, 5)  # ranks on both sides of 2^40
@example(741_470, 12)  # the prime ranks of 741,476, 741,478 and 741,480
@example(1_999_989, 12)  # the top of the range, with the prime rank of 1,999,991
def test_rank_sieve_far_block_marks_match_sympy(lo, width):
    # ranks up to about 8 * 10^12, each proven by the marks alone
    def refuse(x):
        raise AssertionError(f"is_prime({x}) called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtheory, "is_prime", refuse)
        flags = shared_sieve().block(lo, lo + width)
    assert_marks_match_sympy(lo, lo + width, flags)


def test_rank_sieve_marks_are_independent_of_block_boundaries():
    # the block schedule 64, 128, 256, ... and a search limit cut short
    expected = primality_flags(1, 2001)
    assert [v for _, v in characters._rank_primality(2000)] == expected
    for limit in (1, 63, 64, 65, 66, 192, 193, 194, 448, 449, 450, 960, 961):
        got = list(characters._rank_primality(limit))
        assert [n for n, _ in got] == list(range(1, limit + 1))
        assert [v for _, v in got] == expected[:limit]


def test_rank_sieve_searches_roots_only_for_the_primes_it_sieves_with(monkeypatch):
    # the table of primes doubles past the last block's bound; its roots do not
    calls = []
    pinned_root = numtheory._pinned_root

    def counted(p):
        calls.append(p)
        return pinned_root(p)

    monkeypatch.setattr(numtheory, "_pinned_root", counted)
    list(characters._rank_primality(65472))  # the scan of a count-8000 certificate
    assert calls == primes_one_mod_four(isqrt(rank_of(65472)))
    assert len(calls) == 4459


def test_rank_primality_flags_to_a_million_are_pinned():
    # the digest was taken from flags that a Miller-Rabin test on each
    # unmarked rank decided above index 741,455: an independent route
    flags = bytes(v for _, v in characters._rank_primality(10**6))
    assert sum(flags) == 104_893
    digest = "3beab196440ff2282f8a8de4c9f486aee438fe323e51c5ffc0fc9d209b0fd5ea"
    assert hashlib.sha256(flags).hexdigest() == digest


def test_rank_sieve_needs_no_factorize(monkeypatch):
    def refuse(x):
        raise AssertionError(f"factorize({x}) called")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    monkeypatch.setattr(characters, "certify", refuse)
    assert len(build_certificate(2000, 100_000).witnesses) == 2000


def test_build_certificate_proves_no_prime_twice(monkeypatch):
    # the Eratosthenes sieve proves the sieving primes, and the marks prove
    # every rank: no Miller-Rabin test
    calls = []
    real_is_prime = numtheory.is_prime

    def counting_is_prime(x):
        calls.append(x)
        return real_is_prime(x)

    monkeypatch.setattr(numtheory, "is_prime", counting_is_prime)
    assert len(build_certificate(200, 1092).witnesses) == 200
    assert calls == []


ORACLE_LIMIT = 3000


@lru_cache(maxsize=1)
def oracle_max_primes():
    # index n -> largest prime of rank(n), by sympy, for n up to ORACLE_LIMIT
    return [0] + [max(factorint(rank_of(n)), default=1) for n in range(1, ORACLE_LIMIT + 1)]


def greedy_oracle(count, limit, start=1):
    # the greedy rule on sympy's factorizations, over indices start..limit
    max_primes = oracle_max_primes()
    kept = []
    for n in range(start, limit + 1):
        if max_primes[n] > (max_primes[kept[-1]] if kept else 1):
            kept.append(n)
            if len(kept) == count:
                break
    return kept


def assert_matches_greedy_oracle(count, limit, start=1):
    kept = greedy_oracle(count, limit, start)
    if len(kept) < count:
        with pytest.raises(SearchExhausted) as raised:
            build_certificate(count, limit)
        assert str(raised.value) == (
            f"found only {len(kept)} of {count} witnesses with indices <= {limit}"
        )
        return
    cert = build_certificate(count, limit)
    assert [cw.witness.index for cw in cert.witnesses] == kept
    assert list(cert.selected_primes) == [oracle_max_primes()[n] for n in kept]
    for cw in cert.witnesses:
        assert list(cw.factorization) == sympy_factorization(cw.rank)
        assert all(type(f) is PrimePower for f in cw.factorization)
        assert cw == certify(cw.witness)
    assert verify_certificate(cert)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 200), st.integers(1, 2400))
@example(200, 1092)
@example(200, 1091)
@example(25, 116)
@example(25, 115)
@example(1, 1)
@example(1, 2)
def test_build_certificate_equals_a_greedy_scan_over_sympy(count, limit):
    assert_matches_greedy_oracle(count, limit)


@pytest.mark.parametrize("count", range(1, 61))
def test_build_certificate_at_and_just_below_its_exhaustion_point(count):
    # the count-th witness of the full scan sits at index needed: a search
    # limit of needed builds the certificate, one less exhausts the search
    needed = greedy_oracle(count, ORACLE_LIMIT)[-1]
    assert_matches_greedy_oracle(count, needed)
    assert_matches_greedy_oracle(count, needed - 1)


def test_build_certificate_on_seeded_random_pairs():
    rng = random.Random(19)
    for _ in range(40):
        assert_matches_greedy_oracle(rng.randint(1, 3000), rng.randint(1, ORACLE_LIMIT))


@pytest.mark.parametrize(
    "start, rejects", [(4, False), (7, False), (53, True), (239, True), (697, True), (1000, False)]
)
def test_build_certificate_factors_a_composite_above_five_times_the_last_prime(
    monkeypatch, start, rejects
):
    # A full scan never factors: each prime rank raises the last kept prime
    # too fast.  Started at index start with nothing kept, the greedy meets
    # composite ranks r with r // 5 above the last kept prime and factors
    # them: it keeps those whose largest prime is new, and rejects the rest.
    rank_primality = characters._rank_primality
    monkeypatch.setattr(
        characters,
        "_rank_primality",
        lambda limit: itertools.islice(rank_primality(limit), start - 1, None),
    )
    assert_matches_greedy_oracle(30, ORACLE_LIMIT, start)
    factored = []
    factorize = numtheory.factorize

    def counted(x):
        factored.append(x)
        return factorize(x)

    monkeypatch.setattr(numtheory, "factorize", counted)
    ranks = {cw.rank for cw in build_certificate(30, ORACLE_LIMIT).witnesses}
    assert factored and not any(map(isprime, factored))
    assert ranks & set(factored)
    assert bool(set(factored) - ranks) == rejects


def test_build_certificate_huge_search_limit_small_count_is_fast():
    # the sieve's blocks start short: five rows need the first 64 indices,
    # not a prime table for indices up to the search limit
    start = time.perf_counter()
    cert = build_certificate(5, 1287836182261)
    assert time.perf_counter() - start < 0.5
    assert cert == build_certificate(5, 100)


def test_certificate_matrix_is_triangular_with_positive_diagonal():
    cert = build_certificate(10, 10_000)
    k = len(cert.selected_primes)
    for i in range(k):
        for j in range(i):
            assert cert.evaluation[i][j] == 0
        assert cert.evaluation[i][i] >= 1
    assert fraction_rank(cert.evaluation) == k


def test_verify_rejects_zeroed_diagonal():
    cert = verified_certificate(4, 1_000)
    matrix = [list(row) for row in cert.evaluation]
    matrix[0][0] = 0
    tampered = IndependenceCertificate(
        cert.witnesses, cert.selected_primes, tuple(tuple(r) for r in matrix)
    )
    result = verify_certificate(tampered)
    assert not result
    assert result.reason


def test_verify_rejects_reordered_primes():
    cert = verified_certificate(4, 1_000)
    primes = list(cert.selected_primes)
    primes.reverse()
    tampered = IndependenceCertificate(cert.witnesses, tuple(primes), cert.evaluation)
    result = verify_certificate(tampered)
    assert not result
    assert "increasing" in result.reason


def test_verify_rejects_corrupt_factorization():
    cert = verified_certificate(4, 1_000)
    cw = cert.witnesses[1]
    factors = list(cw.factorization)
    p, e = factors[0]
    factors[0] = PrimePower(p, e + 1)
    witnesses = list(cert.witnesses)
    witnesses[1] = CertifiedWitness(cw.witness, cw.rank, tuple(factors), cw.max_prime)
    tampered = IndependenceCertificate(tuple(witnesses), cert.selected_primes, cert.evaluation)
    assert not verify_certificate(tampered)


def test_verify_rejects_wrong_rank():
    cert = verified_certificate(2, 100)
    cw = cert.witnesses[0]
    witnesses = (
        CertifiedWitness(cw.witness, cw.rank + 1, cw.factorization, cw.max_prime),
        cert.witnesses[1],
    )
    assert not verify_certificate(
        IndependenceCertificate(witnesses, cert.selected_primes, cert.evaluation)
    )


def forge_last_witness(rank, factorization, max_prime, selected):
    """``build_certificate(3, 100)`` (primes 5, 13, 41) with its last witness and prime replaced."""
    cert = verified_certificate(3, 100)
    assert cert.selected_primes == (5, 13, 41)
    cw = cert.witnesses[2]
    witnesses = (*cert.witnesses[:2], CertifiedWitness(cw.witness, rank, factorization, max_prime))
    primes = (*cert.selected_primes[:2], selected)
    return IndependenceCertificate(witnesses, primes, cert.evaluation)


def test_verify_ties_a_stored_rank_to_its_knot():
    # a prime rank with its own factorization, max prime and selection is
    # consistent everywhere else: only the rank-against-knot check sees it
    forged = forge_last_witness(1000003, (PrimePower(1000003, 1),), 1000003, 1000003)
    assert verify_certificate(forged) == VerificationResult(
        False, "witness 2: stored rank 1000003 does not match its knot"
    )


def test_verify_ties_a_factorization_to_its_rank():
    # the true rank 41 with a factorization, max prime and selection of 1000003:
    # only the product check sees it
    forged = forge_last_witness(41, (PrimePower(1000003, 1),), 1000003, 1000003)
    assert verify_certificate(forged) == VerificationResult(
        False, "witness 2: factorization does not multiply back to the rank"
    )


def test_verify_rejects_equal_selected_primes_by_their_order():
    # an equal pair also fails the entry check, but the order check names it first
    cert = verified_certificate(3, 100)
    tampered = IndependenceCertificate(cert.witnesses, (5, 13, 13), cert.evaluation)
    assert verify_certificate(tampered) == VerificationResult(
        False, "selected primes are not strictly increasing at position 2"
    )


def test_verify_rejects_composite_selected_prime():
    cert = verified_certificate(2, 100)
    tampered = IndependenceCertificate(cert.witnesses, (5, 15), cert.evaluation)
    assert not verify_certificate(tampered)


def test_verify_rejects_shape_mismatch_and_empty():
    # no such record reaches the verifier: each is refused when it is made
    cert = verified_certificate(2, 100)
    ws, primes, matrix = cert.witnesses, cert.selected_primes, tuple(cert.evaluation)
    dimensions = "witness, prime, and matrix dimensions disagree"
    for fields, message in [
        ((ws, primes[:1], cert.evaluation), dimensions),
        ((ws[:1], primes, matrix), dimensions),
        ((ws, primes, matrix[:1]), dimensions),
        ((ws, primes, (matrix[0], matrix[1][:1])), dimensions),
        ((ws, primes, (matrix[0], (*matrix[1], 0))), dimensions),
        ((ws, primes, (*matrix, (0, 0))), dimensions),
        ((ws, primes, characters._EvaluationView(cert.evaluation.rows[:1])), dimensions),
        # a view's cells must lie in its k columns, as a dense row's entries do
        ((ws, primes, characters._EvaluationView([((0, 1), (5, 1)), ((1, 1),)])), dimensions),
        ((ws, primes, characters._EvaluationView([((-1, 1),), ((1, 1),)])), dimensions),
        # and be nonzero ints at strictly ascending columns, as a dense row's cells are
        ((ws, primes, characters._EvaluationView([((0, 1), (1, 0)), ((1, 1),)])), dimensions),
        ((ws, primes, characters._EvaluationView([((0, 1), (0, 1)), ((1, 1),)])), dimensions),
        ((ws, primes, characters._EvaluationView([((1, 0), (0, 1)), ((1, 1),)])), dimensions),
        (((), (), ()), "certificate is empty"),
        (((), (5,), ((1,),)), "certificate is empty"),
    ]:
        with pytest.raises(ValueError) as info:
            IndependenceCertificate(*fields)
        assert str(info.value) == message


VIEW_VALUES = st.one_of(st.integers(-2, 2), st.booleans())


@st.composite
def views(draw):
    """k, k rows of drawn cells ``(j, v)``, and a k x k matrix of small ints."""
    k = draw(st.integers(1, 4))
    cell = st.tuples(st.integers(-1, k), VIEW_VALUES)
    # a list, or a tuple of one int, is no cell
    cells = st.lists(cell | cell.map(list) | st.tuples(st.integers(0, k)), max_size=k + 1)
    rows = draw(st.lists(cells, min_size=k, max_size=k))
    row = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    return k, rows, draw(st.lists(row, min_size=k, max_size=k))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(views())
@example((2, [[(0, 1), (1, 0)], [(1, 1)]], [[1, 0], [0, 1]]))  # a zero value
@example((2, [[(0, 1), (0, 1)], [(1, 1)]], [[1, 0], [0, 1]]))  # a repeated column
@example((2, [[(1, 0), (0, 1)], [(1, 1)]], [[1, 0], [0, 1]]))  # descending columns
@example((2, [[(0, True)], [(1, 1)]], [[1, 0], [0, 1]]))  # a bool value
@example((2, [[[0, 1]], [(1, 1)]], [[1, 0], [0, 1]]))  # a list cell
def test_a_view_is_kept_only_as_the_view_of_its_matrix(drawn):
    k, rows, matrix = drawn
    view = characters._EvaluationView(rows)
    kept = characters._EvaluationView.of(view, k)
    assert kept is None or (kept is view and view == characters._EvaluationView.of(tuple(view), k))
    of_matrix = characters._EvaluationView.of(matrix, k)
    assert characters._EvaluationView.of(of_matrix, k) is of_matrix


def test_a_one_shot_iterable_of_rows_is_read_as_the_tuple_of_them():
    # each row's length is taken as its entries are read: a second pass
    # over a generator would see no rows, and pass a ragged matrix
    cert = verified_certificate(3, 100)
    ws, primes, matrix = cert.witnesses, cert.selected_primes, tuple(cert.evaluation)
    ragged = (matrix[0], matrix[1][:2], matrix[2])
    with pytest.raises(ValueError) as info:
        IndependenceCertificate(ws, primes, (row for row in ragged))
    assert str(info.value) == "witness, prime, and matrix dimensions disagree"
    read = IndependenceCertificate(ws, primes, (row for row in matrix))
    assert read == IndependenceCertificate(ws, primes, matrix) == cert
    assert read.evaluation.rows == cert.evaluation.rows


def test_verify_rejects_recomputed_entry_mismatch():
    cert = verified_certificate(3, 1_000)
    matrix = [list(row) for row in cert.evaluation]
    matrix[0][2] += 1  # above the diagonal, so triangularity alone cannot catch it
    tampered = IndependenceCertificate(
        cert.witnesses, cert.selected_primes, tuple(tuple(r) for r in matrix)
    )
    result = verify_certificate(tampered)
    assert not result
    assert "factoriz" in result.reason


def test_verify_accepts_an_entry_above_the_diagonal_and_an_exponent_of_two():
    # greedy certificates up to count 200 have neither; rank 25 = 5^2, rank 85 = 5 * 17
    witnesses = (certify(witness(4)), certify(witness(7)))
    assert [cw.rank for cw in witnesses] == [25, 85]
    cert = IndependenceCertificate(witnesses, (5, 17), ((2, 1), (0, 1)))
    assert verify_certificate(cert)
    for entry in (0, 2, 3):
        tampered = IndependenceCertificate(witnesses, (5, 17), ((2, entry), (0, 1)))
        result = verify_certificate(tampered)
        assert not result
        assert result.reason == "evaluation[0][1] does not match the factorizations"


def test_verify_accepts_a_factorization_of_plain_pairs():
    # a factor may be passed as a plain (p, e) tuple
    cw = CertifiedWitness(WitnessKnot(2), 5, ((5, 1),), 5)
    result = verify_certificate(IndependenceCertificate((cw,), (5,), ((1,),)))
    assert result == VerificationResult(True)


# index n whose rank 2n^2 - 2n + 1 has the least strong pseudoprime to the 13
# Miller-Rabin bases (numtheory.PRIMALITY_BOUND) as its largest factor
PSEUDOPRIME_INDEX = 780432606278265017121082
PSEUDOPRIME_FACTORS = (5, 17, 113, 268937, 4047049, 35128789, PRIMALITY_BOUND)


def pseudoprime_certificate(selected_prime):
    cw = CertifiedWitness(
        witness(PSEUDOPRIME_INDEX),
        hfk_top_rank(witness(PSEUDOPRIME_INDEX)),
        tuple(PrimePower(p, 1) for p in PSEUDOPRIME_FACTORS),
        PRIMALITY_BOUND,
    )
    return IndependenceCertificate((cw,), (selected_prime,), ((1,),))


def test_verify_rejects_a_selected_prime_at_the_primality_bound():
    result = verify_certificate(pseudoprime_certificate(PRIMALITY_BOUND))
    assert not result
    assert result.reason == (
        f"selected value {PRIMALITY_BOUND} at position 0 is not below "
        f"primality bound {PRIMALITY_BOUND}"
    )


def test_verify_rejects_a_factor_at_the_primality_bound():
    result = verify_certificate(pseudoprime_certificate(5))
    assert not result
    assert result.reason == (
        f"witness 0: factor {PRIMALITY_BOUND} is not below primality bound {PRIMALITY_BOUND}"
    )


def test_verify_rejects_a_huge_exponent_before_raising_to_it():
    cert = verified_certificate(1, 10)
    cw = cert.witnesses[0]
    assert cw.factorization == (PrimePower(5, 1),)
    tampered = IndependenceCertificate(
        (CertifiedWitness(cw.witness, cw.rank, (PrimePower(5, 10**7),), 5),),
        cert.selected_primes,
        cert.evaluation,
    )
    start = time.perf_counter()
    result = verify_certificate(tampered)
    assert time.perf_counter() - start < 1.0
    assert not result
    assert result.reason == "witness 0: exponent 10000000 of 5 exceeds the bit length of the rank"


@pytest.mark.parametrize(
    "factors, max_prime, reason",
    [
        ([(5, 1), (7, 0), (13, 1), (17, 1)], 17, "witness 0: exponent of 7 is not positive"),
        ([(5, 1), (221, 1)], 221, "witness 0: factor 221 is not prime"),
        ([(5, 1), (17, 1), (13, 1)], 13, "witness 0: factorization primes are not ascending"),
        ([(5, 1), (13, 1), (17, 1)], 13, "witness 0: stored max prime 13 is wrong"),
    ],
)
def test_verify_rejects_a_tampered_factorization_of_a_rank(factors, max_prime, reason):
    # rank 1105 = 5 * 13 * 17; each tampered record still multiplies back to
    # it and meets the one-row matrix, so only its own check can refuse it
    cw = certify(witness(24))
    assert cw.rank == 1105 and cw.factorization == ((5, 1), (13, 1), (17, 1))
    factorization = tuple(PrimePower(p, e) for p, e in factors)
    tampered = CertifiedWitness(cw.witness, cw.rank, factorization, max_prime)
    result = verify_certificate(IndependenceCertificate((tampered,), (5,), ((1,),)))
    assert not result
    assert result.reason == reason


@pytest.mark.parametrize(
    "position, field, value, message",
    [
        (0, "prime", 5.0, "a prime must be an integer, got 5.0"),
        (2, "prime", None, "a prime must be an integer, got None"),
        (0, "rank", 5.0, "'rank' must be an integer, got 5.0"),
        (2, "max_prime", 41.0, "'max_prime' must be an integer, got 41.0"),
        (0, "factorization", ((5, None),), "an exponent must be an integer, got None"),
        (0, "factorization", (("5", 1),), "a factor must be an integer, got '5'"),
        (0, "factorization", ((5.0, 1),), "a factor must be an integer, got 5.0"),
        (0, "factorization", ((5, 1.0),), "an exponent must be an integer, got 1.0"),
        (0, "factorization", ((5, True),), "an exponent must be an integer, got True"),
    ],
    # the reasons the verifier gave these records when it checked their types
    ids=[
        "0-prime-5.0-selected value 5.0 at position 0 is not an integer",
        "2-prime-None-selected value None at position 2 is not an integer",
        "0-rank-5.0-witness 0: stored rank 5.0 is not an integer",
        "2-max_prime-41.0-witness 2: stored max prime 41.0 is not an integer",
        "0-factorization-value4-witness 0: exponent None of 5 is not an integer",
        "0-factorization-value5-witness 0: factor '5' is not an integer",
        "0-factorization-value6-witness 0: factor 5.0 is not an integer",
        "0-factorization-value7-witness 0: exponent 1.0 of 5 is not an integer",
        "0-factorization-value8-witness 0: exponent True of 5 is not an integer",
    ],
)
def test_verify_refuses_a_number_that_is_not_an_integer_by_its_position(
    position, field, value, message
):
    # json_int's rule, for a record built by hand: it is refused when it is
    # made, with the message from_json gives, and never reaches the verifier
    cert = build_certificate(3, 100)
    assert cert.selected_primes == (5, 13, 41) and verify_certificate(cert)
    primes = list(cert.selected_primes)
    cw = cert.witnesses[position]
    fields = {"rank": cw.rank, "factorization": cw.factorization, "max_prime": cw.max_prime}
    with pytest.raises(ValueError) as info:
        if field == "prime":
            primes[position] = value
            IndependenceCertificate(cert.witnesses, tuple(primes), cert.evaluation)
        else:
            CertifiedWitness(cw.witness, **{**fields, field: value})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("factorization", ((5,),), ValueError, "not enough values to unpack (expected 2, got 1)"),
        # Python 3.14 adds ", got 3" to this message
        ("factorization", ((5, 1, 1),), ValueError, "too many values to unpack (expected 2"),
        ("factorization", (5,), TypeError, "cannot unpack non-iterable int object"),
        ("factorization", None, TypeError, "'NoneType' object is not iterable"),
        ("witness", None, ValueError, "None is not a witness knot"),
        (
            "witness",
            WitnessKnot(2.0),
            ValueError,
            "WitnessKnot(index=2.0, stab_count=0) is not a witness knot",
        ),
        (
            "witness",
            WitnessKnot(2, 1.0),
            ValueError,
            "WitnessKnot(index=2, stab_count=1.0) is not a witness knot",
        ),
        (
            "witness",
            WitnessKnot(2, True),
            ValueError,
            "WitnessKnot(index=2, stab_count=True) is not a witness knot",
        ),
    ],
    ids=[
        "short pair",
        "long pair",
        "int pair",
        "no factorization",
        "no witness",
        "float index",
        "float stab",
        "bool stab",
    ],
)
def test_verify_refuses_a_malformed_witness_by_its_position(field, value, error, message):
    # refused when the record is made: unchecked, the first five would raise
    # inside the verifier, on unpacking or in hfk_top_rank, and the last three
    # would verify, though from_json refuses the JSON of their record
    cw = build_certificate(3, 100).witnesses[0]
    fields = {"witness": cw.witness, "rank": cw.rank, "factorization": cw.factorization}
    with pytest.raises(error) as info:
        CertifiedWitness(**{**fields, field: value}, max_prime=cw.max_prime)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "witnesses, primes, error, message",
    [
        ((None,), (5,), ValueError, "None is not a certified witness"),
        (("x",), (5,), ValueError, "'x' is not a certified witness"),
        (
            (WitnessKnot(2),),
            (5,),
            ValueError,
            "WitnessKnot(index=2, stab_count=0) is not a certified witness",
        ),
        (None, (5,), TypeError, "'NoneType' object is not iterable"),
        ((certify(witness(2)),), None, TypeError, "'NoneType' object is not iterable"),
    ],
    ids=["no witness", "string", "bare witness knot", "no witnesses", "no primes"],
)
def test_certificate_refuses_a_malformed_witness_list(witnesses, primes, error, message):
    # refused when the record is made, so the verifier never meets them
    with pytest.raises(error) as info:
        IndependenceCertificate(witnesses, primes, ((1,),))
    assert str(info.value) == message


TWELVE = build_certificate(12, 10_000)
TAMPER = settings(max_examples=300, deadline=None, derandomize=True)


def tampered_twelve(primes, matrix):
    return IndependenceCertificate(
        TWELVE.witnesses, tuple(primes), tuple(tuple(row) for row in matrix)
    )


@TAMPER
@given(st.integers(0, 11), st.integers(0, 11), st.integers(-50, 50).filter(bool))
@example(3, 3, -1)
@example(7, 2, 1)
def test_verify_rejects_any_single_entry_change(i, j, delta):
    matrix = [list(row) for row in TWELVE.evaluation]
    matrix[i][j] += delta
    result = verify_certificate(tampered_twelve(TWELVE.selected_primes, matrix))
    assert not result
    # a change that breaks the shape is refused by the shape checks themselves
    if j < i:
        assert "triangularity" in result.reason
    elif i == j and matrix[i][i] < 1:
        assert "diagonal" in result.reason


@TAMPER
@given(st.integers(0, 11), st.integers(-200, 200).filter(bool), st.booleans())
@example(11, 1187 - 1201, True)
def test_verify_rejects_any_single_prime_change(i, delta, rebuild):
    primes = list(TWELVE.selected_primes)
    primes[i] += delta
    matrix = TWELVE.evaluation
    if rebuild:
        # entries consistent with the changed primes, so only the shape checks,
        # the order and the primality test are left to refuse it
        matrix = [[dict(cw.factorization).get(p, 0) for cw in TWELVE.witnesses] for p in primes]
    assert not verify_certificate(tampered_twelve(primes, matrix))


def first_witness_of_each_max_prime(limit):
    # certified witnesses of index < limit, the first of each max prime, in
    # order of max prime: any subsequence of them makes a valid certificate
    first = {}
    for n in range(2, limit):
        cw = certify(witness(n))
        first.setdefault(cw.max_prime, cw)
    return tuple(first[p] for p in sorted(first))


def certificate_of(ws):
    primes = tuple(cw.max_prime for cw in ws)
    matrix = tuple(tuple(dict(cw.factorization).get(p, 0) for cw in ws) for p in primes)
    return IndependenceCertificate(ws, primes, matrix)


# unlike a greedy certificate's, its rows have entries above the diagonal
DENSE = certificate_of(first_witness_of_each_max_prime(60)[:16])


def test_dense_certificate_has_entries_above_the_diagonal():
    assert verify_certificate(DENSE)
    assert sum(v for i, row in enumerate(DENSE.evaluation) for v in row[i + 1 :]) >= 10


@TAMPER
@given(st.data())
def test_verify_rejects_a_nonzero_entry_moved_within_its_row(data):
    # the row keeps its count of zeros; only the columns of its entries change
    k = len(DENSE.selected_primes)
    matrix = [list(row) for row in DENSE.evaluation]
    i = data.draw(st.sampled_from([i for i, row in enumerate(matrix) if any(row[i + 1 :])]))
    row = matrix[i]
    j = data.draw(st.sampled_from([j for j in range(i + 1, k) if row[j]]))
    t = data.draw(st.sampled_from([t for t in range(i + 1, k) if row[t] != row[j]]))
    row[j], row[t] = row[t], row[j]
    tampered = IndependenceCertificate(
        DENSE.witnesses, DENSE.selected_primes, tuple(map(tuple, matrix))
    )
    result = verify_certificate(tampered)
    assert not result
    assert result.reason == f"evaluation[{i}][{min(j, t)}] does not match the factorizations"


def twelve_with(i, j, entry):
    matrix = [list(row) for row in TWELVE.evaluation]
    matrix[i][j] = entry
    return matrix


TWO = build_certificate(2, 10)


@pytest.mark.parametrize(
    "witnesses, primes, matrix, entry",
    [
        pytest.param(
            TWELVE.witnesses,
            TWELVE.selected_primes,
            twelve_with(i, j, entry),
            entry,
            id=f"{where} {entry!r}",
        )
        for where, (i, j) in {"below": (5, 2), "diagonal": (5, 5), "above": (5, 7)}.items()
        # falsy values and values equal to 0 or to the exponent 1, among others
        for entry in [0.0, -0.0, False, True, 1.0, 0.5, float("nan"), None, "1", [1]]
    ]
    + [
        # entries that are no number, at the first diagonal cell of a 2 x 2 matrix
        pytest.param(
            TWO.witnesses, (5, 13), ((entry, 0), (0, 1)), entry, id=f"first diagonal {entry!r}"
        )
        for entry in [None, "1", [1]]
    ],
)
def test_a_matrix_entry_must_be_an_integer(witnesses, primes, matrix, entry):
    # 0.0, False, True and 1.0 equal 0 or the exponent 1, so only the type
    # tells them apart, and the record is made before any check of its values
    with pytest.raises(ValueError) as info:
        IndependenceCertificate(witnesses, primes, matrix)
    assert str(info.value) == f"a matrix entry must be an integer, got {entry!r}"


def test_built_certificate_stores_the_cells_of_its_matrix():
    rows = TWELVE.evaluation.rows
    assert type(TWELVE.evaluation) is characters._EvaluationView
    assert len(TWELVE.evaluation) == len(TWELVE.witnesses)
    cells = characters._prime_cells(TWELVE.witnesses, TWELVE.selected_primes)
    assert rows == tuple(tuple(row) for row in cells)
    assert all(type(cells) is tuple for cells in rows)
    dense = tuple(
        tuple(dict(cw.factorization).get(p, 0) for cw in TWELVE.witnesses)
        for p in TWELVE.selected_primes
    )
    assert tuple(TWELVE.evaluation) == dense and TWELVE.evaluation != dense


def test_a_views_rows_and_cells_cannot_be_changed_in_place():
    # an assignment into the cells would change a frozen record's verdict and hash
    cert = build_certificate(12, 10_000)
    rows = cert.evaluation.rows
    before = (hash(cert), verify_certificate(cert))
    with pytest.raises(TypeError):
        rows[0] = ()
    with pytest.raises(TypeError):
        rows[0][0] = (0, 2)
    with pytest.raises(AttributeError):
        cert.evaluation.rows = ()
    assert cert == TWELVE and (hash(cert), verify_certificate(cert)) == before


@TAMPER
@given(st.sampled_from(["greedy", "dense"]), st.data())
def test_verify_gives_a_tampered_view_the_reason_of_the_same_tampered_tuple(which, data):
    # the same change, made once to a record's cells and once to the dense
    # matrix they stand for, is refused for the same reason
    cert = TWELVE if which == "greedy" else DENSE
    k = len(cert.selected_primes)
    cells = [list(row) for row in cert.evaluation.rows]
    matrix = [list(row) for row in cert.evaluation]
    i = data.draw(st.integers(0, k - 1), label="row")
    kind = data.draw(
        st.sampled_from(["zero diagonal", "below", "above", "exponent"]), label="tamper"
    )
    if kind == "zero diagonal":
        cells[i] = [(j, e) for j, e in cells[i] if j != i]
        matrix[i][i] = 0
    elif kind == "exponent":
        j, e = data.draw(st.sampled_from(cells[i]), label="cell")
        new = data.draw(st.integers(-50, 50).filter(lambda v: v != e), label="exponent")
        cells[i] = [(c, v) for c, v in cells[i] if c != j]
        if new:  # a view holds only nonzero cells: a drawn 0 drops the cell, as above
            cells[i] = sorted(cells[i] + [(j, new)])
        matrix[i][j] = new
    else:
        span = range(i) if kind == "below" else range(i + 1, k)
        columns = [j for j in span if not matrix[i][j]]
        if not columns:
            return
        j = data.draw(st.sampled_from(columns), label="column")
        v = data.draw(st.integers(1, 50), label="entry")
        cells[i] = sorted(cells[i] + [(j, v)])
        matrix[i][j] = v
    view = characters._EvaluationView(cells)
    dense = tuple(map(tuple, matrix))
    assert tuple(view) == dense and view != dense
    ws, primes = cert.witnesses, cert.selected_primes
    by_cells = verify_certificate(IndependenceCertificate(ws, primes, view))
    by_rows = verify_certificate(IndependenceCertificate(ws, primes, dense))
    assert not by_rows
    assert by_cells == by_rows


@pytest.mark.parametrize(
    "make_cert",
    [
        lambda: build_certificate(200, 1092),
        # every other witness: 5, 17, 37 and 53 divide several ranks but are not selected
        lambda: certificate_of(first_witness_of_each_max_prime(200)[1::2]),
    ],
    ids=["greedy", "unselected-factors"],
)
def test_verify_proves_each_distinct_prime_once(monkeypatch, make_cert):
    cert = make_cert()
    calls = []
    real_is_prime = numtheory.is_prime

    def counting_is_prime(x):
        calls.append(x)
        return real_is_prime(x)

    monkeypatch.setattr(numtheory, "is_prime", counting_is_prime)
    assert verify_certificate(cert)
    factors = [p for cw in cert.witnesses for p, _ in cw.factorization]
    assert set(factors) >= set(cert.selected_primes)
    assert sorted(calls) == sorted(set(factors))


def test_witness_for_prime_examples():
    cw = witness_for_prime(5)
    assert cw.witness.index == 4
    assert cw.rank == 25
    assert cw.factorization == (PrimePower(5, 2),)

    cw = witness_for_prime(13)
    assert cw.witness.index == 11
    assert cw.rank == 221
    assert cw.factorization == (PrimePower(13, 1), PrimePower(17, 1))

    cw = witness_for_prime(17)
    assert cw.witness.index == 7
    assert cw.rank == 85
    assert cw.factorization == (PrimePower(5, 1), PrimePower(17, 1))


def test_witness_for_prime_rejects_bad_primes():
    with pytest.raises(NotOneModFour):
        witness_for_prime(7)
    with pytest.raises(NotPrime):
        witness_for_prime(21)


def test_witness_for_prime_nontriviality_below_ten_thousand():
    for p in primes_one_mod_four(10_000):
        cw = witness_for_prime(p)
        assert prime_component(cw.witness, p) >= 1


def test_witness_for_prime_equals_certify_below_ten_thousand():
    # dividing p out before factoring changes nothing, p = 5 (rank 5^2) included
    primes = primes_one_mod_four(10_000)
    assert primes[0] == 5
    for p in primes:
        assert witness_for_prime(p) == certify(witness(witness_index(p)))


def primes_one_mod_four_from(start, count):
    primes = []
    p = start
    while len(primes) < count:
        p = nextprime(p)
        if p % 4 == 1:
            primes.append(p)
    return primes


@pytest.mark.parametrize("start", [10**10, 10**17])
def test_witness_for_prime_factorization_at_large_primes(start):
    for p in primes_one_mod_four_from(start, 10):
        cw = witness_for_prime(p)
        product = 1
        for q, e in cw.factorization:
            assert e >= 1
            assert isprime(q)
            product *= q**e
        assert product == cw.rank == hfk_top_rank(cw.witness)
        primes = [q for q, _ in cw.factorization]
        assert all(a < b for a, b in zip(primes, primes[1:]))
        assert p in primes
        assert cw.max_prime == primes[-1]


def test_witness_for_prime_budget_near_ten_to_seventeen():
    # without dividing p out first, these ranks near 10^34 go to Pollard rho
    primes = primes_one_mod_four_from(10**17, 20)
    start = time.perf_counter()
    for p in primes:
        witness_for_prime(p)
    assert time.perf_counter() - start < 2.0


def test_prime_components_add_on_formal_products():
    # the rank character is multiplicative, so its p-adic valuations add
    rng = random.Random(55)
    for _ in range(60):
        a = witness(rng.randrange(2, 40))
        b = witness(rng.randrange(2, 40))
        product = hfk_top_rank(a) * hfk_top_rank(b)
        for p, e in factorize(product):
            assert prime_component(a, p) + prime_component(b, p) == e


def test_certificate_json_round_trip():
    cert = build_certificate(5, 10_000)
    data = cert.to_json()
    assert set(data) == {"witnesses", "primes", "matrix"}
    restored = IndependenceCertificate.from_json(data)
    assert restored == cert
    assert verify_certificate(restored)


def test_certificate_json_rejects_malformed():
    with pytest.raises(ValueError):
        IndependenceCertificate.from_json({"witnesses": [], "primes": []})
    with pytest.raises(ValueError):
        CertifiedWitness.from_json({"rank": 5})


def test_certificate_csv_rendering():
    cert = build_certificate(2, 100)
    assert cert.to_csv() == "prime,witness_2,witness_3\n5,1,0\n13,0,1\n"
