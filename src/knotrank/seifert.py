"""Seifert matrices and the Alexander polynomial determinant pipeline.

``alexander_from_seifert`` computes det(V - t*V^T) in O(n^3) for n = 2g:
V - t*V^T = S * (I + (1 - t) * M) with S = V - V^T and M = S^-1 * V^T,
so the determinant is det(S) times a characteristic polynomial.  One
modulus P = 2^k, the least power of two above twice Hadamard's bound
on the coefficients, carries the whole computation: Gauss-Jordan
elimination for M, a similarity reduction to upper Hessenberg form and
the Hessenberg recurrence for the characteristic polynomial (Cohen, *A
Course in Computational Algebraic Number Theory*, 2.2.4), then the
symmetric residues, which are the exact coefficients.  Their sum
Delta(1) = det(S) tells whether V is a knot's.
Both eliminations pivot on an entry of least 2-adic valuation.  A knot
has det(S) = +-1, which is odd, so every Gauss-Jordan column has an odd
pivot, a unit modulo 2^k; a column without one means det(S) is even,
and V is not a knot's.  In the Hessenberg reduction the pivot 2^v * u,
u odd, divides every other entry of its column modulo 2^k.  So no pivot
fails and no other modulus is ever needed.
The elimination and the reduction defer their ``& (P - 1)``: entries
may be unreduced between steps, and each value that is tested as a
pivot, inverted or used as a multiplier is reduced first.  A value and
its reduction have the same residue, so the routine takes the same
branches and returns the same residues as with every entry reduced.
"""

from __future__ import annotations

from math import isqrt
from operator import mul
from typing import Sequence

from ._frozen import Frozen, json_int
from .laurent import LaurentPoly, NotUnitAtOne


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


def _pivot(rows: list[list[int]], col: int, start: int, mask: int) -> tuple[int, int]:
    """The first row from ``start`` whose entry in column ``col`` has the
    least 2-adic valuation modulo 2^k = mask + 1, and that entry reduced.

    An odd entry ends the search.  The entry is 0 when every one is.
    """
    best, pivot = start, 0
    for r in range(start, len(rows)):
        x = rows[r][col] & mask
        if x & 1:
            return r, x
        if x and (not pivot or x & -x < pivot & -pivot):
            best, pivot = r, x
    return best, pivot


def _alexander_mod(e: Sequence[Sequence[int]], p: int) -> list[int]:
    """The coefficients of det(V - t*V^T) modulo p = 2^k, lowest first.

    Every step is a ring operation modulo p, so the result is correct for
    any power of two p >= 2.  Gauss-Jordan on S = V - V^T divides only by
    odd pivots, units modulo p.  If a column has no odd entry left, det(S)
    is even (with every earlier pivot odd, S is singular modulo 2), and
    this raises ``NotUnitAtOne``; if det(S) is odd, every column has one.
    The Hessenberg reduction pivots on an entry x = 2^v * u of least
    2-adic valuation, u odd, so every entry y below it in its column is
    2^v times (y >> v), and the multiplier (y >> v) * u^-1 clears y
    modulo p.  The similarity is unipotent, so the characteristic
    polynomial is unchanged; a column that is 0 modulo p is skipped.

    The reductions are deferred.  Between steps an entry may be
    unreduced: a row update is x - u*y with no reduction.  Every value
    that is tested as a pivot, inverted, or used as a multiplier is
    reduced first, and so is the pivot row an update reads; a column
    operation's sum is reduced as it is written, one entry per row.  A
    reduced value has the same residue as the unreduced one, so every
    branch (the pivot chosen, a skipped column, ``NotUnitAtOne``) and
    every residue is what it would be with every entry kept reduced.  As
    u and y are residues, an entry grows only by sums of products of two
    residues, never multiplicatively.  The Hessenberg part is reduced
    once before the characteristic-polynomial recurrence, which works on
    residues.
    """
    n = len(e)
    mask = p - 1
    # Gauss-Jordan on [S | -V^T] leaves [I | N] with N = -S^-1 * V^T.
    # Columns up to c hold the identity once column c is done; they are
    # never read again, so row operations skip them and they are dropped.
    rows = [
        [e[i][j] - e[j][i] for j in range(n)] + [-e[j][i] for j in range(n)] for i in range(n)
    ]
    det_s = 1
    for c in range(n):
        r, pivot = _pivot(rows, c, c, mask)
        if not pivot & 1:
            raise NotUnitAtOne(f"det(V - V^T) is even: column {c} has no odd pivot")
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det_s = -det_s
        det_s = det_s * pivot & mask
        inv = pow(pivot, -1, p)
        pivot_tail = [x * inv & mask for x in rows[c][c + 1 :]]
        rows[c][c + 1 :] = pivot_tail
        for i, row in enumerate(rows):
            f = row[c] & mask
            if f and i != c:
                row[c + 1 :] = [x - f * y for x, y in zip(row[c + 1 :], pivot_tail)]
    for row in rows:
        del row[:n]
    h = rows
    # Upper Hessenberg form by similarity: clear column k below row k + 1
    # with row operations, and undo them with one column operation, a dot
    # product per row.  Row operations skip the columns left of k, which
    # hold zeros, and write column k's residue, 0, without computing it.
    for k in range(n - 2):
        r, pivot = _pivot(h, k, k + 1, mask)
        if not pivot:
            continue
        if r != k + 1:
            h[k + 1], h[r] = h[r], h[k + 1]
            for row in h:
                row[k + 1], row[r] = row[r], row[k + 1]
        pivot_tail = [x & mask for x in h[k + 1][k + 1 :]]
        h[k + 1][k + 1 :] = pivot_tail
        v = (pivot & -pivot).bit_length() - 1
        inv = pow(pivot >> v, -1, p)
        factors = [((h[i][k] & mask) >> v) * inv & mask for i in range(k + 2, n)]
        if any(factors):
            for u, row in zip(factors, h[k + 2 :]):
                if u:
                    row[k] = 0
                    row[k + 1 :] = [x - u * y for x, y in zip(row[k + 1 :], pivot_tail)]
            for row in h:
                row[k + 1] = (row[k + 1] + sum(map(mul, factors, row[k + 2 :]))) & mask
    # The recurrence reads only the upper Hessenberg part: reduce it once.
    for i, row in enumerate(h):
        lo = max(i - 1, 0)
        row[lo:] = [x & mask for x in row[lo:]]
    # chars[m] is det(x*I - H_m) for the leading m x m block H_m, lowest first.
    chars = [[1]]
    for m in range(n):
        nxt = [0] + chars[m]
        diag = h[m][m]
        for j, c in enumerate(chars[m]):
            nxt[j] -= diag * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] & mask
            if not sub:
                break
            f = h[i][m] * sub & mask
            for j, c in enumerate(chars[i]):
                nxt[j] -= f * c
        chars.append([c & mask for c in nxt])
    # det(I - s*N) = sum of chars[n][n - j] * s^j.  Horner in s = 1 - t
    # gives det(I + (1 - t) * M); det(S) scales it to det(V - t*V^T).
    coeffs = [0] * (n + 1)
    for a in chars[n]:
        coeffs = [(a + coeffs[0]) & mask] + [(x - y) & mask for x, y in zip(coeffs[1:], coeffs)]
    return [c * det_s & mask for c in coeffs]


def alexander_from_seifert(V: SeifertMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial via det(V - t*V^T).

    At genus 1, V = [[w, x], [y, z]] gives (wz - xy) * (1 + t^2) +
    (x^2 + y^2 - 2wz) * t.  Above it the coefficients come from
    ``_alexander_mod`` modulo P, the least power of two with P > 2B
    (``_coefficient_bound``).  Unless their sum det(V - V^T) is +-1,
    this raises ``NotUnitAtOne``.

    The residues are those of the integer coefficients, each in (-B, B)
    with P > 2B, so the symmetric residues and their sum are exact.  When
    det(V - V^T) is odd no pivot fails, so the only failure is an even
    det(V - V^T), which is not +-1; Bareiss ``det_int`` then gives its
    value for the message.  A knot never reaches it.
    """
    e = V.entries
    n = V.size
    if n == 2:
        (w, x), (y, z) = e
        det_v = w * z - x * y
        coeffs = (det_v, x * x + y * y - 2 * w * z, det_v)
        d = sum(coeffs)
    else:
        p = 1 << (2 * _coefficient_bound(e)).bit_length()
        try:
            residues = _alexander_mod(e, p)
        except NotUnitAtOne:
            d = det_int([[e[i][j] - e[j][i] for j in range(n)] for i in range(n)])
        else:
            half = p >> 1
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
