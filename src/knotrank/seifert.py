"""Seifert matrices and the Alexander polynomial determinant pipeline.

``alexander_from_seifert`` computes det(V - t*V^T) in O(n^3) for n = 2g:
V - t*V^T = S * (I + (1 - t) * M) with S = V - V^T and M = S^-1 * V^T,
so the determinant is det(S) times a characteristic polynomial.  One
modulus P = 2^k, the least power of two above twice Hadamard's bound
on the coefficients, carries the whole computation: Gaussian
elimination with back substitution for M, a similarity reduction to
upper Hessenberg form and the Hessenberg recurrence for the
characteristic polynomial (Cohen, *A Course in Computational Algebraic
Number Theory*, 2.2.4), then the symmetric residues, which are the
exact coefficients.  Their sum Delta(1) = det(S) tells whether V is a
knot's.
Both eliminations pivot on an entry of least 2-adic valuation.  A knot
has det(S) = +-1, which is odd, so every elimination column has an odd
pivot, a unit modulo 2^k; a column without one means det(S) is even,
and V is not a knot's.  In the Hessenberg reduction the pivot 2^v * u,
u odd, divides every other entry of its column modulo 2^k.  So no pivot
fails and no other modulus is ever needed.
The elimination works on lists of ints.  The Hessenberg reduction and
the recurrence work on packed ints: a column of the matrix, or a
polynomial, is one int holding one residue per slot of 2k + O(log n)
bits (Kronecker substitution; Schoenhage, 1982).  A row update of a
whole column is then one multiply-add, and one ``&`` with P - 1 in
every slot reduces every entry at once, since modulo a power of two a
residue is its low k bits.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from ._frozen import Frozen, is_int, json_int, slot_setters
from .laurent import LaurentPoly, NotUnitAtOne

# Sequence in annotations is collections.abc's; annotations are never evaluated.


class SeifertMatrix(Frozen):
    """Square integer matrix of even size 2g attached to a genus-g surface.

    Any iterable of rows may be passed; it is stored, and checked, as the
    tuple of its row tuples, so a matrix built from lists equals, and
    hashes like, the one built from tuples.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[int]]) -> None:
        entries = tuple(map(tuple, entries))
        n = len(entries)
        if n == 0 or n % 2 != 0:
            raise ValueError(f"Seifert matrix size must be even and >= 2, got {n}")
        for row in entries:
            if len(row) != n:
                raise ValueError("Seifert matrix must be square")
            # the type set passes a row of exact ints without a call per entry
            if not (set(map(type, row)) <= {int} or all(map(is_int, row))):
                raise ValueError("Seifert matrix entries must be integers")
        _set_entries(self, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SeifertMatrix":
        return cls(rows)

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


(_set_entries,) = slot_setters(SeifertMatrix)


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
    return SeifertMatrix(((l + m + 1, m + 1), (m, m + n + 1)))


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


def _pivot(column: Sequence[int], mask: int) -> tuple[int, int]:
    """The index of the first entry of least 2-adic valuation modulo
    2^k = mask + 1, and that entry reduced.

    An odd entry ends the search.  The entry is 0 when every one is.
    """
    best, pivot = 0, 0
    for r, x in enumerate(column):
        x &= mask
        if x & 1:
            return r, x
        if x and (not pivot or x & -x < pivot & -pivot):
            best, pivot = r, x
    return best, pivot


def _pack(values: Sequence[int], width: int) -> int:
    """values[i] in the slot of bits [i * width, (i + 1) * width)."""
    x = 0
    for v in reversed(values):
        x = x << width | v
    return x


def _slots(x: int, width: int, count: int, mask: int) -> list[int]:
    """The lowest ``count`` slots of x, each taken modulo mask + 1."""
    out = []
    for _ in range(count):
        out.append(x & mask)
        x >>= width
    return out


def _charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """The coefficients of det(x*I - N) modulo p = 2^k, lowest first, for
    the n x n integer matrix N given by its rows.  ``rows`` is emptied
    once its columns are packed, so that N is held only once.

    A similarity reduction to upper Hessenberg form, then the Hessenberg
    recurrence (Cohen 2.2.4).  The reduction clears column k below row
    k + 1 with row operations and undoes them with one column operation.
    It pivots on an entry x = 2^v * u of least 2-adic valuation, u odd, so
    every entry y below it in its column is 2^v times (y >> v), and the
    multiplier (y >> v) * u^-1 clears y modulo p.  The similarity is
    unipotent, so the characteristic polynomial is unchanged; a column
    that is 0 modulo p is skipped.  Every step is a ring operation modulo
    p, so the result is correct for any power of two p >= 2.

    Column c of N is held as one int, with the residue of row i in the
    slot of bits [i*w, (i + 1)*w), where w = 2k + n.bit_length() + 1.  A
    row update adds (p - f) * y to a slot, which is -f*y modulo p; a
    column operation adds at most n - 2 products of a residue and a
    column to a column.  Either way a slot holds at most
    (p - 1) + n * (p - 1)^2 < 2^w before it is reduced, so no sum carries
    into the next slot, and one ``&`` with p - 1 repeated in every slot
    reduces them all.  Every slot is reduced after every step, so each
    entry that is read, as a pivot, a multiplier or by the recurrence, is
    a residue.  The characteristic polynomials are packed the same way
    (Kronecker substitution), one coefficient per slot of width
    2k + (n + 1).bit_length() + 1, which holds the at most n + 1 terms of
    a step of the recurrence.
    """
    n = len(rows)
    mask = p - 1
    bits = p.bit_length() - 1
    w = 2 * bits + n.bit_length() + 1
    full = mask * _pack([1] * n, w)
    cols = [_pack([row[c] & mask for row in rows], w) for c in range(n)]
    rows.clear()
    # A row update touches only the slots from row k + 2 up, so each
    # column is split there and its high part gets one multiply-add.
    # Columns left of k hold zeros below row k + 1.
    for k in range(n - 2):
        top = w * (k + 1)
        below = _slots(cols[k] >> top, w, n - k - 1, mask)
        i, pivot = _pivot(below, mask)
        if not pivot:
            continue
        v = (pivot & -pivot).bit_length() - 1
        inv = pow(pivot >> v, -1, p)
        below[i] = below[0]  # rows k + 1 and r = k + 1 + i trade places
        factors = [(y >> v) * inv & mask for y in below[1:]]
        if not i and not any(factors):
            continue
        # Swap rows and columns k + 1 and r (when i > 0), then subtract
        # factors[j] times row k + 1 from row k + 2 + j.
        if i:
            cols[k + 1], cols[k + 1 + i] = cols[k + 1 + i], cols[k + 1]
        cols[k] = cols[k] & (1 << top) - 1 | pivot << top
        split = top + w
        low = (1 << split) - 1
        high = full >> split
        swap = w * (i - 1)
        negated = _pack([-f & mask for f in factors], w)
        for c in range(k + 1, n):
            x = cols[c]
            lo, hi = x & low, x >> split
            y = lo >> top
            if i:
                z = hi >> swap & mask
                lo += z - y << top
                hi += y - z << swap
                y = z
            cols[c] = lo | (hi + negated * y & high) << split
        if negated:
            cols[k + 1] = sum(map(mul, factors, cols[k + 2 :]), cols[k + 1]) & full
    # chars[m] is det(x*I - H_m) for the leading m x m block H_m.  Column
    # m of H has entries in rows 0..m+1 only, so the slot of row m + 1 is
    # the top of the int.
    width = 2 * bits + (n + 1).bit_length() + 1
    reduce = mask * _pack([1] * (n + 1), width)
    sub_diagonal = [cols[m] >> w * (m + 1) for m in range(n - 1)]
    chars = [1]
    for m in range(n):
        column = _slots(cols[m], w, m + 1, mask)
        nxt = (chars[m] << width) + (-column[m] & mask) * chars[m]
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * sub_diagonal[i] & mask
            if not sub:
                break
            f = column[i] * sub & mask
            if f:
                nxt += (p - f) * chars[i]
        chars.append(nxt & reduce)
    return _slots(chars[n], width, n + 1, mask)


def _alexander_mod(e: Sequence[Sequence[int]], p: int) -> list[int]:
    """The coefficients of det(V - t*V^T) modulo p = 2^k, lowest first.

    Every step is a ring operation modulo p, so the result is correct for
    any power of two p >= 2.  The elimination on S = V - V^T divides only
    by odd pivots, units modulo p.  If a column has no odd entry left,
    det(S) is even (with every earlier pivot odd, S is singular modulo 2),
    and this raises ``NotUnitAtOne``; if det(S) is odd, every column has
    one.  The elimination works on lists and defers its reductions: a row
    update is x - f*y with no reduction, and every value that is tested as
    a pivot, inverted or used as a multiplier is reduced first, so every
    branch and residue is what it would be with every entry reduced.
    ``_charpoly_mod`` then gives det(x*I - N) for N = -S^-1 * V^T.
    """
    n = len(e)
    mask = p - 1
    # Forward elimination on [S | -V^T] leaves S unit upper triangular;
    # its row updates skip the columns up to the pivot's, whose entries
    # below the pivot are then 0.  Back substitution clears the upper
    # triangle by updating the right half alone, which ends as N.
    rows = [
        [e[i][j] - e[j][i] for j in range(n)] + [-e[j][i] for j in range(n)] for i in range(n)
    ]
    det_s = 1
    for c in range(n):
        r, pivot = _pivot([row[c] for row in rows[c:]], mask)
        r += c
        if not pivot & 1:
            raise NotUnitAtOne(f"det(V - V^T) is even: column {c} has no odd pivot")
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det_s = -det_s
        det_s = det_s * pivot & mask
        inv = pow(pivot, -1, p)
        pivot_tail = [x * inv & mask for x in rows[c][c + 1 :]]
        rows[c][c + 1 :] = pivot_tail
        for row in rows[c + 1 :]:
            f = row[c] & mask
            if f:
                row[c + 1 :] = [x - f * y for x, y in zip(row[c + 1 :], pivot_tail)]
    for c in range(n - 1, 0, -1):
        tail = [x & mask for x in rows[c][n:]]
        for row in rows[:c]:
            f = row[c] & mask
            if f:
                row[n:] = [x - f * y for x, y in zip(row[n:], tail)]
    rows = [row[n:] for row in rows]  # N alone, which _charpoly_mod then drops
    chars = _charpoly_mod(rows, p)
    # det(I - s*N) = sum of chars[n - j] * s^j.  Horner in s = 1 - t gives
    # det(I + (1 - t) * M) with M = -N; det(S) scales it to det(V - t*V^T).
    # The coefficients are packed in slots of 2k + 2 bits: a step adds
    # a + c_j + (p - c_(j-1)) < 3p to slot j, p - c rather than -c, and
    # the scaling puts a product of two residues in each.
    width = 2 * p.bit_length()
    ones = _pack([1] * (n + 1), width)
    reduce, shifted = mask * ones, p * ones
    coeffs = 0
    for a in chars:
        coeffs = a + coeffs + (shifted - coeffs << width) & reduce
    return _slots(coeffs * det_s & reduce, width, n + 1, mask)


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
