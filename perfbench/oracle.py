"""Reference arithmetic for the benchmark, independent of knotrank.

Input generation and the output checks both use these functions, so
nothing here imports the package under test.  Everything is plain
standard-library integer arithmetic.
"""

from __future__ import annotations

# Strong-pseudoprime bases proven sufficient below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# A Mersenne prime, large enough that a wrong polynomial agrees with
# the true determinant at a random point with negligible probability.
CHECK_MODULUS = (1 << 61) - 1


def is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin, valid below 3.3 * 10^24."""
    if x < 2:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        v = pow(a, d, x)
        if v in (1, x - 1):
            continue
        for _ in range(s - 1):
            v = v * v % x
            if v == x - 1:
                break
        else:
            return False
    return True


def witness_rank(n: int) -> int:
    return 2 * n * n - 2 * n + 1


def trial_factor(x: int) -> list[list[int]]:
    """Ascending [prime, exponent] pairs by trial division (small x only)."""
    out: list[list[int]] = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            e = 0
            while x % d == 0:
                x //= d
                e += 1
            out.append([d, e])
        d += 1 if d == 2 else 2
    if x > 1:
        out.append([x, 1])
    return out


class GreedyCertificates:
    """The certificate the greedy rule defines, for any (count, limit).

    Scans witness indices 1, 2, ... and keeps a witness iff the largest
    prime of its rank exceeds the last kept one.  Every call shares one
    scan, so commands with common prefixes cost the scan once.
    """

    def __init__(self) -> None:
        self._kept: list[tuple[int, int, list[list[int]]]] = []  # (index, rank, factors)
        self._scanned = 0
        self._last = 1

    def _scan_until(self, count: int, limit: int) -> None:
        while len(self._kept) < count and self._scanned < limit:
            self._scanned += 1
            n = self._scanned
            rank = witness_rank(n)
            factors = trial_factor(rank)
            top = factors[-1][0] if factors else 1
            if top > self._last:
                self._kept.append((n, rank, factors))
                self._last = top

    def needed_index(self, count: int) -> int:
        """The smallest search limit for which count witnesses are found."""
        self._scan_until(count, 1 << 62)
        return self._kept[count - 1][0]

    def certificate(self, count: int, limit: int) -> dict | None:
        """The certificate JSON for count rows, or None if limit is too small."""
        self._scan_until(count, limit)
        kept = [k for k in self._kept[:count] if k[0] <= limit]
        if len(kept) < count:
            return None
        primes = [f[-1][0] for _, _, f in kept]
        matrix = [
            [dict(map(tuple, f)).get(p, 0) for _, _, f in kept] for p in primes
        ]
        witnesses = [
            {
                "witness": {
                    "index": n,
                    "stab": 0,
                    "pretzel": [-2 * n + 1, 2 * n + 1, 2 * n * n + 1],
                    "genus": 1,
                    "top_rank": rank,
                },
                "rank": rank,
                "factorization": factors,
                "max_prime": factors[-1][0],
            }
            for n, rank, factors in kept
        ]
        return {"witnesses": witnesses, "primes": primes, "matrix": matrix, "verified": True}


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p by Gaussian elimination."""
    m = [[v % p for v in row] for row in rows]
    n = len(m)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        row_k = m[k]
        det = det * row_k[k] % p
        inv = pow(row_k[k], p - 2, p)
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k] * inv % p
            if f:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] - f * row_k[j]) % p
    return det % p


def seifert_pencil_det_mod(entries: list[list[int]], x: int, p: int) -> int:
    """det(V - x V^T) modulo p."""
    n = len(entries)
    return det_mod(
        [[entries[i][j] - x * entries[j][i] for j in range(n)] for i in range(n)], p
    )


def eval_mod(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def strip(coeffs: list[int]) -> list[int]:
    """Drop zero coefficients at both ends (the normalized lowest is 0)."""
    lo, hi = 0, len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    return coeffs[lo:hi]


def convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pretzel_coefficient(l: int, m: int, n: int) -> int:
    """c in Delta = c t^2 + (1 - 2c) t + c for P(2l+1, 2m+1, 2n+1)."""
    return 1 + l + m + n + l * m + m * n + n * l


def genus_one_alexander(c: int, trefoils: int = 0) -> list[int]:
    """Coefficients of (c, 1 - 2c, c) * (1, -1, 1)^trefoils, normalized."""
    out = strip([c, 1 - 2 * c, c])
    for _ in range(trefoils):
        out = convolve(out, [1, -1, 1])
    return out

