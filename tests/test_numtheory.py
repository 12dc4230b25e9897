import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, primerange

from knotrank import numtheory
from knotrank.numtheory import (
    NotOneModFour,
    NotPrime,
    PrimePower,
    factorize,
    is_prime,
    prime_sieve,
    primes_one_mod_four,
    sqrt_minus_one,
    witness_index,
)
from oracles import (
    least_non_residue_root,
    scan_sqrt_minus_one,
    simple_sieve,
    strong_pseudoprime_to_first_bases,
    trial_division_is_prime,
)


def test_is_prime_small_values():
    assert is_prime(13)
    assert not is_prime(25)
    assert not is_prime(85)  # 2n^2 - 2n + 1 at n = 7: 5 * 17
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_base_screen():
    # one gcd with the product of the 13 bases stands in for 13 remainders
    for a in numtheory._MR_WITNESSES:
        assert is_prime(a), a
    assert not is_prime(1)
    assert not is_prime(2 * 41)
    assert not is_prime(41 * 43)
    assert not is_prime(43 * 47)  # no base divides it: Miller-Rabin rejects it


def test_is_prime_matches_trial_division():
    for n in range(1, 20_000):
        assert is_prime(n) == trial_division_is_prime(n)


def test_is_prime_on_strong_pseudoprimes():
    # composites that fool small Miller-Rabin witness sets
    assert not is_prime(3215031751)  # 151 * 751 * 28351, pseudoprime to 2,3,5,7
    assert not is_prime(3825123056546413051)  # pseudoprime to all bases up to 23
    assert 3825123056546413051 == 149491 * 747451 * 34233211


def test_is_prime_rejects_pseudoprime_to_bases_up_to_37():
    # the least strong pseudoprime to the 12 bases 2..37; base 41 exposes it
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_primality_bound_is_the_least_pseudoprime_to_all_13_bases():
    n = numtheory.PRIMALITY_BOUND
    assert n == 1287836182261 * 2575672364521
    assert is_prime(n)  # so answers from here on are only probable


def test_answers_resting_on_a_probable_prime_are_refused():
    bound = numtheory.PRIMALITY_BOUND
    q = nextprime(bound, 2)  # a prime = 1 mod 4 past the bound
    assert q % 4 == 1
    for p in (bound, q):
        with pytest.raises(ValueError, match=f"not below {bound}"):
            sqrt_minus_one(p)
        with pytest.raises(ValueError, match=f"not below {bound}"):
            witness_index(p)
        with pytest.raises(ValueError, match=f"not below {bound}"):
            factorize(p)
    with pytest.raises(ValueError, match=f"not below {bound}"):
        factorize(3 * bound)  # the probable prime is a part, not the input
    # a large input whose parts are all proven still factors
    assert factorize(2**100) == [PrimePower(2, 100)]
    assert factorize(5 * 10**30) == [PrimePower(2, 30), PrimePower(5, 31)]


# OEIS A014233: the least strong pseudoprime to the first k prime bases, k = 1..13
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_tier_bounds_are_the_least_strong_pseudoprimes():
    assert numtheory._MR_BOUNDS == A014233
    assert numtheory._MR_BOUNDS[-1] == numtheory.PRIMALITY_BOUND
    for k, psi in enumerate(A014233, start=1):
        assert strong_pseudoprime_to_first_bases(psi, k), k


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_rejects_every_tier_bound(k):
    # psi_k passes the first k bases, so the tier that stops after them
    # must not cover it
    assert not is_prime(A014233[k - 1])


TIER_BANDS = sorted({(lo, hi) for lo, hi in zip((2, *A014233), A014233) if lo < hi})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(TIER_BANDS).flatmap(lambda band: st.integers(band[0], band[1] - 1)))
def test_is_prime_agrees_with_sympy_in_every_tier(n):
    assert is_prime(n) == isprime(n)
    q = nextprime(n)
    assert is_prime(q)
    assert not is_prime(q * nextprime(q))  # no factor that trial division finds


def test_is_prime_near_64_bit_boundary():
    assert is_prime(2**64 - 59)  # largest prime below 2^64
    assert not is_prime(2**64 - 1)


def test_prime_sieve_matches_oracle():
    assert prime_sieve(1) == []
    assert prime_sieve(0) == prime_sieve(-3) == []
    assert prime_sieve(100) == simple_sieve(100)
    assert prime_sieve(10_000) == simple_sieve(10_000)


def test_primes_one_mod_four_examples():
    assert primes_one_mod_four(30) == [5, 13, 17, 29]
    assert primes_one_mod_four(4) == []
    assert primes_one_mod_four(5) == [5]


def test_primes_one_mod_four_matches_filtered_sieve_at_million():
    expected = [p for p in simple_sieve(1_000_000) if p % 4 == 1]
    assert primes_one_mod_four(1_000_000) == expected


def test_sqrt_minus_one_pinned_values():
    # pinned by the smallest-non-residue construction
    assert sqrt_minus_one(5) == 2
    assert sqrt_minus_one(13) == 8
    assert sqrt_minus_one(17) == 13


def test_sqrt_minus_one_rejects_wrong_congruence():
    with pytest.raises(NotOneModFour):
        sqrt_minus_one(7)
    with pytest.raises(NotOneModFour):
        sqrt_minus_one(2)


def test_sqrt_minus_one_rejects_composites():
    with pytest.raises(NotPrime):
        sqrt_minus_one(25)
    with pytest.raises(NotPrime):
        sqrt_minus_one(1)


@pytest.mark.parametrize("n", [21, 25])
def test_sqrt_minus_one_terminates_on_composite_past_is_prime(monkeypatch, n):
    # a composite that slipped past is_prime must not loop forever
    monkeypatch.setattr(numtheory, "is_prime", lambda x: True)
    with pytest.raises(NotPrime):
        sqrt_minus_one(n)


def test_pinned_root_matches_the_least_non_residue_oracle():
    for p in primes_one_mod_four(100_000):
        assert numtheory._pinned_root(p) == least_non_residue_root(p), p


def test_sqrt_minus_one_against_full_scan():
    for p in primes_one_mod_four(1_000):
        m = sqrt_minus_one(p)
        roots = scan_sqrt_minus_one(p)
        assert m in roots
        assert sorted(roots) == sorted({m, p - m})
        assert m * m % p == p - 1


def test_witness_index_examples():
    assert witness_index(5) == 4  # m = 2 even: (2 + 5 + 1) / 2
    assert witness_index(13) == 11  # m = 8 even: (8 + 13 + 1) / 2
    assert witness_index(17) == 7  # m = 13 odd: (13 + 1) / 2


def test_witness_index_validity_below_ten_thousand():
    for p in primes_one_mod_four(10_000):
        n = witness_index(p)
        assert 1 <= n <= p
        assert (2 * n * n - 2 * n + 1) % p == 0


def test_witness_index_is_the_root_halved_modulo_p():
    # the parity split: (m + 1) / 2 for odd m, (m + p + 1) / 2 for even m
    for p in primes_one_mod_four(20_000):
        m = sqrt_minus_one(p)
        split = (m + 1) // 2 if m % 2 else (m + p + 1) // 2
        assert witness_index(p) == split == numtheory._root_index(m, p)


def test_witness_index_propagates_precondition_errors():
    with pytest.raises(NotOneModFour):
        witness_index(7)
    with pytest.raises(NotPrime):
        witness_index(21)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(25) == [PrimePower(5, 2)]
    assert factorize(221) == [PrimePower(13, 1), PrimePower(17, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def test_factorize_prime_powers_and_mixed():
    assert factorize(2**10) == [PrimePower(2, 10)]
    assert factorize(101**3) == [PrimePower(101, 3)]
    assert factorize(2 * 3**4 * 9973) == [
        PrimePower(2, 1),
        PrimePower(3, 4),
        PrimePower(9973, 1),
    ]


def test_factorize_around_the_small_prime_screen():
    assert numtheory._small_prime_product() == prod(simple_sieve(10_000))
    # 10007 is the least prime above the screen's 10,000, so 10007^2 is the
    # least composite the screen leaves whole
    assert factorize(9973**2) == [PrimePower(9973, 2)]
    assert factorize(9973 * 10007) == [PrimePower(9973, 1), PrimePower(10007, 1)]
    assert factorize(10007**2) == [PrimePower(10007, 2)]
    assert factorize(10**8 - 1) == [
        PrimePower(3, 2),
        PrimePower(11, 1),
        PrimePower(73, 1),
        PrimePower(101, 1),
        PrimePower(137, 1),
    ]
    assert factorize(10007 * (2**61 - 1)) == [PrimePower(10007, 1), PrimePower(2**61 - 1, 1)]


NEAR_SCREEN = list(primerange(9_000, 10_101))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(NEAR_SCREEN), min_size=1, max_size=4), st.integers(1, 10**15))
def test_factorize_near_the_screen_against_sympy(near, y):
    # primes on both sides of 10,000, repeated or not, times an arbitrary cofactor
    x = prod(near) * y
    assert factorize(x) == [PrimePower(p, e) for p, e in sorted(factorint(x).items())]


def test_factorize_large_semiprime_via_rho():
    # both factors exceed the trial-division bound
    n = 1_000_003 * 1_000_033
    assert factorize(n) == [PrimePower(1_000_003, 1), PrimePower(1_000_033, 1)]


def test_factorize_large_prime():
    p = 2**64 - 59
    assert factorize(p) == [PrimePower(p, 1)]


def test_factorize_round_trips_on_random_inputs():
    rng = random.Random(8128)
    for _ in range(150):
        x = rng.randrange(1, 10**12)
        factors = factorize(x)
        product = 1
        for p, e in factors:
            assert e >= 1
            assert is_prime(p)
            product *= p**e
        assert product == x
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 10**18))
def test_factorize_property_against_sympy(x):
    factors = factorize(x)
    product = 1
    for p, e in factors:
        assert e >= 1
        assert isprime(p)
        product *= p**e
    assert product == x
    primes = [p for p, _ in factors]
    assert all(a < b for a, b in zip(primes, primes[1:]))
