"""Seifert matrices and the Alexander polynomial determinant pipeline.

``alexander_from_seifert`` computes det(V - t*V^T) in O(n^3) for n = 2g:
V - t*V^T = S * (I + (1 - t) * M) with S = V - V^T and M = S^-1 * V^T,
so the determinant is det(S) times a characteristic polynomial.  One
modulus P above twice Hadamard's bound on the coefficients carries the
whole computation: Gauss-Jordan elimination for M, a similarity
reduction to upper Hessenberg form and the Hessenberg recurrence for the
characteristic polynomial (Cohen, *A Course in Computational Algebraic
Number Theory*, 2.2.4), then the symmetric residues, which are the exact
coefficients.  Their sum Delta(1) = det(S) tells whether V is a knot's.
"""

from __future__ import annotations

from itertools import count
from math import isqrt
from typing import Sequence

from ._frozen import Frozen, json_int
from .laurent import LaurentPoly, NotUnitAtOne
from .numtheory import is_prime


class SeifertMatrix(Frozen):
    """Square integer matrix of even size 2g attached to a genus-g surface."""

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        if n == 0 or n % 2 != 0:
            raise ValueError(f"Seifert matrix size must be even and >= 2, got {n}")
        for row in entries:
            if len(row) != n:
                raise ValueError("Seifert matrix must be square")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError("Seifert matrix entries must be integers")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SeifertMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return self.size // 2

    def to_json(self) -> dict:
        return {"size": self.size, "entries": [list(row) for row in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "SeifertMatrix":
        try:
            size = data["size"]
            entries = data["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError("Seifert matrix JSON needs 'size' and 'entries'") from exc
        json_int(size, "'size'")
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ValueError("'entries' must be a list of rows")
        matrix = cls.from_rows(entries)
        if size != matrix.size:
            raise ValueError(f"declared size {size} does not match {matrix.size} rows")
        return matrix


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free row echelon form: the rank and the signed last pivot.

    Columns without a pivot are skipped; each row swap flips the sign.
    For a square matrix of full rank the signed last pivot is the
    determinant.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    for c in range(n_cols):
        pivot_row = rank
        while pivot_row < n_rows and not m[pivot_row][c]:
            pivot_row += 1
        if pivot_row == n_rows:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        row_k = m[rank]
        pivot = row_k[c]
        for i in range(rank + 1, n_rows):
            row_i = m[i]
            factor = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank, sign * prev


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    rank, pivot = _eliminate(rows)
    return pivot if rank == n else 0


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) elimination: every division is exact, so
    the rank is exact for entries of any size.
    """
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    return _eliminate(rows)[0]


def pretzel_seifert_matrix(l: int, m: int, n: int) -> SeifertMatrix:
    """Seifert matrix of the genus-1 standard surface of P(2l+1, 2m+1, 2n+1)."""
    return SeifertMatrix.from_rows([[l + m + 1, m + 1], [m, m + n + 1]])


def _coefficient_bound(e: Sequence[Sequence[int]]) -> int:
    """B with |c| < B for every coefficient c of det(V - t*V^T).

    A coefficient is at most the maximum of |det(V - z*V^T)| on |z| = 1
    (Cauchy), and Hadamard's inequality bounds that determinant by the
    product of its row norms, where |V_ij - z*V_ji| <= |V_ij| + |V_ji|.
    """
    n = len(e)
    product = 1
    for i in range(n):
        row = e[i]
        product *= sum((abs(row[j]) + abs(e[j][i])) ** 2 for j in range(n))
    return isqrt(product) + 1


def _alexander_mod(e: Sequence[Sequence[int]], p: int) -> list[int]:
    """The coefficients of det(V - t*V^T) modulo p, lowest first.

    Every step is a ring operation modulo p, and every division is by a
    pivot inverted modulo p, so the result is correct for any modulus
    p >= 2, prime or not.  ``NotUnitAtOne`` means S = V - V^T is singular
    modulo p: with every earlier pivot a unit, p divides det(S), which is
    then not +-1.  A plain ``ValueError`` means a pivot is nonzero but not
    a unit, which needs a composite p.
    """
    n = len(e)
    # Gauss-Jordan on [S | -V^T] leaves [I | N] with N = -S^-1 * V^T.
    rows = [
        [(e[i][j] - e[j][i]) % p for j in range(n)] + [-e[j][i] % p for j in range(n)]
        for i in range(n)
    ]
    det_s = 1
    for c in range(n):
        r = c
        while r < n and not rows[r][c]:
            r += 1
        if r == n:
            raise NotUnitAtOne(f"V - V^T is singular modulo {p}")
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det_s = -det_s
        det_s = det_s * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)  # ValueError unless a unit
        pivot_row = rows[c] = [x * inv % p for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if f and i != c:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], pivot_row)]
    h = [row[n:] for row in rows]
    # Upper Hessenberg form by similarity: clear column k below row k + 1
    # with row operations, and undo each one with a column operation.
    for k in range(n - 2):
        r = k + 1
        while r < n and not h[r][k]:
            r += 1
        if r == n:
            continue
        if r != k + 1:
            h[k + 1], h[r] = h[r], h[k + 1]
            for row in h:
                row[k + 1], row[r] = row[r], row[k + 1]
        pivot_row = h[k + 1]
        inv = pow(pivot_row[k], -1, p)  # ValueError unless a unit
        factors = []
        for i in range(k + 2, n):
            u = h[i][k] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], pivot_row)]
                factors.append((i, u))
        if factors:
            for row in h:
                row[k + 1] = (row[k + 1] + sum(u * row[i] for i, u in factors)) % p
    # chars[m] is det(x*I - H_m) for the leading m x m block H_m, lowest first.
    chars = [[1]]
    for m in range(n):
        nxt = [0] + chars[m]
        diag = h[m][m]
        for j, c in enumerate(chars[m]):
            nxt[j] -= diag * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            f = h[i][m] * sub % p
            for j, c in enumerate(chars[i]):
                nxt[j] -= f * c
        chars.append([c % p for c in nxt])
    # det(I - s*N) = sum of chars[n][n - j] * s^j.  Horner in s = 1 - t
    # gives det(I + (1 - t) * M); det(S) scales it to det(V - t*V^T).
    coeffs = [0] * (n + 1)
    for a in chars[n]:
        coeffs = [(a + coeffs[0]) % p] + [(x - y) % p for x, y in zip(coeffs[1:], coeffs)]
    return [c * det_s % p for c in coeffs]


def alexander_from_seifert(V: SeifertMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial via det(V - t*V^T).

    At genus 1, V = [[w, x], [y, z]] gives (wz - xy) * (1 + t^2) +
    (x^2 + y^2 - 2wz) * t.  Above it the coefficients come from
    ``_alexander_mod`` modulo the first prime P > 2B (``_coefficient_bound``).
    Unless their sum det(V - V^T) is +-1, this raises ``NotUnitAtOne``.

    The result is exact whether or not P is prime: each step is a ring
    operation with a unit pivot, so the residues are those of the integer
    coefficients, each in (-B, B) with P > 2B, so the symmetric residues
    and their sum are exact.  If S = V - V^T is singular modulo P, P
    divides det(S), below B in size (the bound at z = 1), so det(S) = 0.
    A non-unit pivot, which needs a composite P, moves on to the next prime.
    """
    e = V.entries
    if V.size == 2:
        (w, x), (y, z) = e
        det_v = w * z - x * y
        coeffs = (det_v, x * x + y * y - 2 * w * z, det_v)
    else:
        for p in count(2 * _coefficient_bound(e) + 1, 2):
            if is_prime(p):
                try:
                    residues = _alexander_mod(e, p)
                except NotUnitAtOne:
                    residues = []  # det(V - V^T) = 0, the empty sum
                except ValueError:
                    continue
                break
        half = p // 2
        coeffs = [c - p if c > half else c for c in residues]
    d = sum(coeffs)
    if d not in (1, -1):
        raise NotUnitAtOne(f"det(V - V^T) = {d}; the matrix is not a Seifert matrix of a knot")
    return LaurentPoly(0, coeffs).normalize()


def fiberedness(poly: LaurentPoly, genus: int) -> tuple[bool, list[str]]:
    """Homological fiberedness of a genus-g surface from its Alexander polynomial.

    The surface is homologically fibered iff the polynomial has degree
    span 2g and |Delta(0)| = 1.  Returns the verdict and the reasons it
    fails, empty when it holds.
    """
    span = poly.degree_span()
    at_zero = poly.eval_at(0)
    failing: list[str] = []
    if span != 2 * genus:
        failing.append(f"degree {span} != {2 * genus}")
    if abs(at_zero) != 1:
        failing.append(f"Delta(0) = {at_zero}")
    return not failing, failing


def is_homology_product(V: SeifertMatrix) -> bool:
    """True when the complementary sutured manifold of the surface is a homology product.

    Equivalent to det(V) = +-1, and for a knot's Seifert matrix, one with
    det(V - V^T) = +-1, to ``fiberedness`` of its Alexander polynomial at genus g.
    """
    return det_int(V.entries) in (1, -1)
