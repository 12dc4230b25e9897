"""Number theory for the witness construction.

Primality (deterministic below ``PRIMALITY_BOUND``, about 3.3 * 10^24),
primes congruent to 1 mod 4, square roots of -1 modulo such primes, the
witness-index case split, and complete integer factorization.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod
from operator import mul


class NotPrime(ValueError):
    """The argument must be prime."""


class NotOneModFour(ValueError):
    """The argument must be congruent to 1 mod 4."""


PrimePower = namedtuple("PrimePower", ["prime", "exponent"])


# The first 13 prime bases, 2 to 41, admit no strong pseudoprime below
# PRIMALITY_BOUND (about 3.3 * 10^24; OEIS A014233), which is itself the
# least strong pseudoprime to all 13.  The 12 bases up to 37 alone are
# fooled by 318665857834031151167461.
PRIMALITY_BOUND = 3317044064679887385961981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# _MR_BOUNDS[k - 1] is the least strong pseudoprime to the first k bases
# (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017), so below it
# those k bases alone decide primality.
_MR_BOUNDS = (
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
    PRIMALITY_BOUND,
)
_MR_PRODUCT = prod(_MR_WITNESSES)


def _unproven(x: int) -> ValueError:
    """The error for an x from which on a True ``is_prime`` answer is only probable."""
    return ValueError(f"{x} is not below {PRIMALITY_BOUND}, where primality stops being proven")


def is_prime(x: int) -> bool:
    """Miller-Rabin primality, deterministic below ``PRIMALITY_BOUND``.

    One gcd with the product of the 13 bases screens them out: an x that
    shares a factor with it is prime only if it is one of them.  x - 1 =
    2^s * d is read from its lowest set bit.  Bases are tried in order,
    and x is proven prime as soon as it has passed the first k bases and
    lies below the least strong pseudoprime to them; every 64-bit integer
    needs at most 12 bases.  From ``PRIMALITY_BOUND`` on all 13 bases are
    tried, and a True answer is probable, not proven; ``sqrt_minus_one``,
    ``factorize`` and ``characters.prime_component`` refuse such a
    number rather than rely on it.
    """
    if x < 2:
        return False
    if gcd(x, _MR_PRODUCT) != 1:
        return x in _MR_WITNESSES
    d = x - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, bound in zip(_MR_WITNESSES, _MR_BOUNDS):
        v = pow(a, d, x)
        if v != 1 and v != x - 1:
            for _ in range(s - 1):
                v = v * v % x
                if v == x - 1:
                    break
            else:
                return False
        if x < bound:
            return True
    return True


def prime_sieve(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return list(compress(range(limit + 1), flags))


def primes_one_mod_four(limit: int) -> list[int]:
    """All primes p <= limit with p = 1 (mod 4), ascending."""
    return [p for p in prime_sieve(limit) if p % 4 == 1]


def sqrt_minus_one(p: int) -> int:
    """The pinned square root of -1 modulo a prime p = 1 (mod 4).

    Deterministic construction: a^((p-1)/4) mod p for the smallest
    quadratic non-residue a.  The other root is p minus the result.
    The search is bounded: it raises ``NotPrime`` when a base shows an
    Euler criterion value other than +-1, when the bases run out, or
    when the root does not square to -1, so a composite that passed
    ``is_prime`` cannot make it loop forever.  It raises ``ValueError``
    for p >= ``PRIMALITY_BOUND``, where ``is_prime`` proves nothing.
    """
    if p >= PRIMALITY_BOUND:
        raise _unproven(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p % 4 != 1:
        raise NotOneModFour(f"{p} is congruent to {p % 4}, not 1, mod 4")
    return _pinned_root(p)


def _pinned_root(p: int) -> int:
    """``sqrt_minus_one(p)`` without its checks, for a p = 1 (mod 4) that is
    prime or has passed ``is_prime``: the search for the least non-residue.

    Each candidate a costs one power: the root a^((p-1)/4) comes first,
    and its square is the Euler criterion value a^((p-1)/2).  A value
    of 1 moves on to a + 1, a value of -1 gives the root, and any other
    value shows that p is not prime.
    """
    for a in range(2, p):
        root = pow(a, (p - 1) // 4, p)
        euler = root * root % p
        if euler == 1:
            continue
        if euler == p - 1:
            return root
        break
    raise NotPrime(f"{p} is not prime")


def witness_index(p: int) -> int:
    """Witness index n with 2n^2 - 2n + 1 divisible by p.

    n = (m + 1) / 2 modulo p for m = sqrt_minus_one(p) (``_root_index``):
    (m + 1) / 2 for odd m, (m + p + 1) / 2 for even m.
    """
    return _root_index(sqrt_minus_one(p), p)


def _root_index(m: int, p: int) -> int:
    """The n in 1..p-1 with n = (m + 1) / 2 (mod p), for m^2 = -1 (mod p).

    2r(n) = (2n - 1)^2 + 1 for r(n) = 2n^2 - 2n + 1, and 2n - 1 = m, so
    p divides r(n).  (p + 1) / 2 inverts 2 modulo the odd p, and n is
    not 0, as m = -1 would square to 1.
    """
    return (m + 1) * ((p + 1) // 2) % p


# factorize divides out every prime below _SMALL_BOUND, so a leftover
# below _SMALL_BOUND^2 is prime: a composite with no smaller factor is
# at least 10007^2, the square of the least prime above the bound.
_SMALL_BOUND = 10_000


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(prime_sieve(_SMALL_BOUND))


@lru_cache(maxsize=1)
def _small_prime_product() -> int:
    # two primes below 10,000 fit in one 30-bit digit of an int, so the
    # running product is multiplied by half as many factors if they are
    # paired first; the 1 pads an odd count
    primes = (*_small_primes(), 1)
    return prod(map(mul, primes[::2], primes[1::2]))


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, Brent's cycle variant.

    n is always odd: ``factorize`` divides out every prime below 10,000,
    found by one gcd with their product, before ``_factor_completely``
    runs, so no factor it splits is even.
    Deterministic: the polynomial offset starts at 1 and is bumped until
    a factor splits.
    """
    for c in range(1, n):
        y = 2
        r = 1
        q = 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to split {n}")  # pragma: no cover


def _factor_completely(x: int, acc: list[int]) -> None:
    """Append the prime factors of x > 1, which has none below 10,000, to acc.

    A part below 10,000^2 is prime with no test, a proof (see
    ``_SMALL_BOUND``); a larger part is tested by ``is_prime`` and split
    by ``_pollard_rho``.  A part from ``PRIMALITY_BOUND`` on that passes
    every base raises ``ValueError``, since it is only a probable prime.
    """
    if x < _SMALL_BOUND * _SMALL_BOUND:
        acc.append(x)
        return
    if is_prime(x):
        if x >= PRIMALITY_BOUND:
            raise _unproven(x)
        acc.append(x)
        return
    d = _pollard_rho(x)
    _factor_completely(d, acc)
    _factor_completely(x // d, acc)


def factorize(x: int) -> list[PrimePower]:
    """Complete prime factorization, ascending; the unit 1 factors to [].

    One gcd with the product of the primes below 10,000 gives g, the
    product of those that divide x.  The table is walked only while the
    square of its prime is at most what is left of g, and what is left
    after the walk is 1 or the largest of them.  The cofactor goes to
    ``_factor_completely``.  Raises ``ValueError`` for x < 1, and for an
    x with a factor from ``PRIMALITY_BOUND`` on that passes every base.
    """
    if x < 1:
        raise ValueError(f"factorize requires a positive integer, got {x}")
    counts: dict[int, int] = {}
    g = gcd(x, _small_prime_product())
    small: list[int] = []
    for p in _small_primes():
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            small.append(p)
    if g > 1:
        small.append(g)
    for p in small:
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        counts[p] = e
    if x > 1:
        large: list[int] = []
        _factor_completely(x, large)
        for q in large:
            counts[q] = counts.get(q, 0) + 1
    return [PrimePower(p, e) for p, e in sorted(counts.items())]
