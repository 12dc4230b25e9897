"""Seifert matrices and the Alexander polynomial determinant pipeline.

The polynomial determinant is computed by sampling det(V - t*V^T) at
the integer points 0, 1, -1, 2, -2, ... with fraction-free (Bareiss)
elimination and recovering the coefficients by Newton interpolation.
The divided differences of an integer polynomial at integer points are
integers, so the whole pipeline is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .laurent import LaurentPoly, NotUnitAtOne


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix of even size 2g attached to a genus-g surface."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0 or n % 2 != 0:
            raise ValueError(f"Seifert matrix size must be even and >= 2, got {n}")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("Seifert matrix must be square")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError("Seifert matrix entries must be integers")

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
    if n == 2:  # genus-1 matrices: skip the elimination's setup
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    rank, pivot = _eliminate(rows)
    return pivot if rank == n else 0


# A word-size prime for the modular rank screen in ``rank_int``.
_RANK_PRIME = 2**61 - 1


def _rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over the field of p elements, by division-free elimination.

    Rows whose entry in the pivot column is 0 mod p are skipped, so a
    triangular matrix costs O(k^2).
    """
    m = [[v % p for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for c in range(n_cols):
        pivot_row = rank
        while pivot_row < n_rows and not m[pivot_row][c]:
            pivot_row += 1
        if pivot_row == n_rows:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        row_k = m[rank]
        pivot = row_k[c]
        for i in range(rank + 1, n_rows):
            row_i = m[i]
            factor = row_i[c]
            if not factor:
                continue
            for j in range(c + 1, n_cols):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the rationals.

    The rank modulo a fixed prime is never above the rank over the
    rationals, so when the modular rank already equals min(rows, cols)
    it is the answer.  Otherwise the exact fraction-free elimination
    decides.  A triangular matrix with nonzero diagonal, as in an
    independence certificate, takes the O(k^2) modular path.
    """
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    full = min(len(rows), len(rows[0]) if rows else 0)
    if _rank_mod(rows, _RANK_PRIME) == full:
        return full
    return _eliminate(rows)[0]


def _interpolate_int(points: Sequence[int], values: Sequence[int]) -> list[int]:
    """Coefficients, lowest first, of the integer polynomial through the points."""
    n = len(points)
    diffs = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            q, r = divmod(diffs[i] - diffs[i - 1], points[i] - points[i - k])
            if r:
                raise ArithmeticError("interpolation did not clear to integer coefficients")
            diffs[i] = q
    # Nested multiplication: p = d0 + (t - x0)(d1 + (t - x1)(d2 + ...)).
    coeffs = [diffs[-1]]
    for k in range(n - 2, -1, -1):
        x = points[k]
        coeffs = [diffs[k] - x * coeffs[0]] + [
            a - x * b for a, b in zip(coeffs, coeffs[1:])
        ] + [coeffs[-1]]
    return coeffs


def determinant_poly(matrix: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix with Laurent polynomial entries."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return LaurentPoly.one()
    # Factor t^v out of each row so every entry becomes an ordinary
    # polynomial; the shifts multiply back onto the result.
    shift = 0
    rows: list[list[LaurentPoly]] = []
    for row in matrix:
        nonzero = [e for e in row if e]
        if not nonzero:
            return LaurentPoly.zero()
        v = min(e.lowest for e in nonzero)
        shift += v
        rows.append([e.shift(-v) for e in row])
    bound = sum(max(e.highest for e in row if e) for row in rows)
    points = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(bound + 1)]
    values = [det_int([[e.eval_at(x) for e in row] for row in rows]) for x in points]
    return LaurentPoly(shift, _interpolate_int(points, values))


def pretzel_seifert_matrix(l: int, m: int, n: int) -> SeifertMatrix:
    """Seifert matrix of the genus-1 standard surface of P(2l+1, 2m+1, 2n+1)."""
    return SeifertMatrix.from_rows([[l + m + 1, m + 1], [m, m + n + 1]])


def alexander_from_seifert(V: SeifertMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial via det(V - t*V^T)."""
    n = V.size
    e = V.entries
    skew = [[e[i][j] - e[j][i] for j in range(n)] for i in range(n)]
    d = det_int(skew)
    if d not in (1, -1):
        raise NotUnitAtOne(
            f"det(V - V^T) = {d}; the matrix is not a Seifert matrix of a knot"
        )
    vmt = [
        [LaurentPoly(0, (e[i][j], -e[j][i])) for j in range(n)] for i in range(n)
    ]
    return determinant_poly(vmt).normalize()


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

    Equivalent to det(V) = +-1, and to ``fiberedness`` of the Alexander
    polynomial computed from V at genus g.
    """
    return det_int(V.entries) in (1, -1)
