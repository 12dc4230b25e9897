"""Independent reference implementations used only to cross-check tests.

Everything here deliberately avoids the package's own code paths:
polynomials are dicts mapping exponent to coefficient, determinants are
cofactor expansions, primality is trial division or a textbook strong
test, and matrix rank uses plain Gaussian elimination over fractions.
"""

from fractions import Fraction
from math import isqrt


def d_trim(d):
    return {k: v for k, v in d.items() if v}


def d_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return d_trim(out)


def d_mul(a, b):
    out = {}
    for i, c in a.items():
        for j, e in b.items():
            out[i + j] = out.get(i + j, 0) + c * e
    return d_trim(out)


def d_neg(a):
    return {k: -v for k, v in a.items()}


def poly_to_dict(poly):
    """Convert a package polynomial to the dict form via its public fields."""
    return d_trim({poly.lowest + i: c for i, c in enumerate(poly.coeffs)})


def d_det(matrix):
    """Cofactor-expansion determinant of a matrix of dict polynomials."""
    n = len(matrix)
    if n == 0:
        return {0: 1}
    if n == 1:
        return d_trim(dict(matrix[0][0]))
    out = {}
    for j in range(n):
        entry = matrix[0][j]
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = d_mul(entry, d_det(minor))
        if j % 2:
            term = d_neg(term)
        out = d_add(out, term)
    return out


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def strong_probable_prime(n, a):
    """Textbook strong test of an odd n > 2 to the base a (Miller 1976, Rabin 1980)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def strong_pseudoprime_to_first_bases(n, k):
    """True iff n is composite and a strong probable prime to each of the first k primes.

    A prime passes every base, so one base among the primes below 200
    that rejects n proves n composite.
    """
    if n < 3 or n % 2 == 0:
        return False
    bases = simple_sieve(200)
    if not all(strong_probable_prime(n, a) for a in bases[:k]):
        return False
    return any(not strong_probable_prime(n, a) for a in bases[k:])


def simple_sieve(limit):
    flags = [True] * (limit + 1)
    if limit >= 0:
        flags[0] = False
    if limit >= 1:
        flags[1] = False
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i in range(2, limit + 1) if flags[i]]


def scan_sqrt_minus_one(p):
    """All m in [1, p) with m^2 = -1 mod p, by full scan."""
    return [m for m in range(1, p) if m * m % p == p - 1]


def least_non_residue_root(p):
    """a^((p-1)/4) mod p for the least a with a^((p-1)/2) = -1 mod p, for a prime p = 1 mod 4.

    Euler's criterion names the non-residue; its own power, not the
    square of the root, decides which a that is.
    """
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    return pow(a, (p - 1) // 4, p)


def fraction_rank(rows):
    """Matrix rank over Q, by textbook Gaussian elimination with fractions."""

    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(n_rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def det_mod(rows, q):
    """Determinant modulo a prime q, by Gaussian elimination with Fermat inverses."""
    m = [[v % q for v in row] for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % q
        inv = pow(m[c][c], q - 2, q)
        for i in range(c + 1, n):
            f = m[i][c] * inv % q
            m[i] = [(a - f * b) % q for a, b in zip(m[i], m[c])]
    return det % q
