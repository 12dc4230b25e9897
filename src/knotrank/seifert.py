"""Seifert matrices and the Alexander polynomial determinant pipeline.

The polynomial determinant is computed by sampling det(V - t*V^T) at
integer points with fraction-free (Bareiss) elimination and recovering
the coefficients by exact integer Lagrange interpolation; the degree
bound 2g makes the interpolation exact without polynomial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
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


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the rationals, by fraction-free elimination."""
    if not rows:
        return 0
    n_cols = len(rows[0])
    if any(len(row) != n_cols for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    m = [list(row) for row in rows]
    n_rows = len(m)
    rank = 0
    prev = 1
    for c in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, n_rows):
            factor = m[i][c]
            for j in range(c, n_cols):
                m[i][j] = (pivot * m[i][j] - factor * m[rank][j]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def _sample_points(count: int) -> tuple[int, ...]:
    # 0, 1, -1, 2, -2, ...; deterministic so the basis cache below hits
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return tuple(pts[:count])


@lru_cache(maxsize=128)
def _lagrange_basis(points: tuple[int, ...]):
    """Numerator polynomials plus integer weights clearing all denominators."""
    nums: list[tuple[int, ...]] = []
    dens: list[int] = []
    for i, xi in enumerate(points):
        num = [1]
        den = 1
        for j, xj in enumerate(points):
            if j == i:
                continue
            nxt = [0] * (len(num) + 1)
            for k, a in enumerate(num):
                nxt[k + 1] += a
                nxt[k] -= xj * a
            num = nxt
            den *= xi - xj
        nums.append(tuple(num))
        dens.append(den)
    scale = lcm(*(abs(d) for d in dens)) if len(points) > 1 else 1
    weights = tuple(scale // d for d in dens)
    return tuple(nums), weights, scale


def _interpolate_int(points: tuple[int, ...], values: Sequence[int]) -> list[int]:
    nums, weights, scale = _lagrange_basis(points)
    out = [0] * len(points)
    for value, weight, num in zip(values, weights, nums):
        if value == 0:
            continue
        f = value * weight
        for k, a in enumerate(num):
            if a:
                out[k] += f * a
    coeffs = []
    for c in out:
        q, r = divmod(c, scale)
        if r:
            raise ArithmeticError("interpolation did not clear to integer coefficients")
        coeffs.append(q)
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
    points = _sample_points(bound + 1)
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
