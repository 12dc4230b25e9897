"""The Seifert kernel on lists of ints: the reference for the packed one.

``knotrank.seifert._alexander_mod`` and ``_charpoly_mod`` hold the
Hessenberg reduction and the characteristic polynomials as packed
integers, one residue per slot.  Here Gauss-Jordan elimination, the
Hessenberg reduction, the recurrence and Horner's rule work on lists,
one int per entry.  The arithmetic is the same ring arithmetic modulo
2^k, so the packed kernel must return exactly these residues, and raise
``NotUnitAtOne`` exactly where this one does.
"""

from operator import mul

from knotrank.laurent import NotUnitAtOne


def list_pivot(rows, col, start, mask):
    """The first row from ``start`` whose entry in column ``col`` has the
    least 2-adic valuation modulo mask + 1, and that entry reduced."""
    best, pivot = start, 0
    for r in range(start, len(rows)):
        x = rows[r][col] & mask
        if x & 1:
            return r, x
        if x and (not pivot or x & -x < pivot & -pivot):
            best, pivot = r, x
    return best, pivot


def list_charpoly_mod(rows, p):
    """det(x*I - N) modulo p = 2^k, lowest first, for N given by its rows."""
    h = [list(row) for row in rows]
    n = len(h)
    mask = p - 1
    # Upper Hessenberg form by similarity: clear column k below row k + 1
    # with row operations, and undo them with one column operation.
    for k in range(n - 2):
        r, pivot = list_pivot(h, k, k + 1, mask)
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
    for i, row in enumerate(h):
        lo = max(i - 1, 0)
        row[lo:] = [x & mask for x in row[lo:]]
    # chars[m] is det(x*I - H_m) for the leading m x m block H_m.
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
    return chars[n]


def list_alexander_mod(e, p):
    """The coefficients of det(V - t*V^T) modulo p = 2^k, lowest first."""
    n = len(e)
    mask = p - 1
    # Gauss-Jordan on [S | -V^T] leaves [I | N] with N = -S^-1 * V^T.
    rows = [
        [e[i][j] - e[j][i] for j in range(n)] + [-e[j][i] for j in range(n)] for i in range(n)
    ]
    det_s = 1
    for c in range(n):
        r, pivot = list_pivot(rows, c, c, mask)
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
    chars = list_charpoly_mod([row[n:] for row in rows], p)
    # det(I - s*N) = sum of chars[n - j] * s^j.  Horner in s = 1 - t gives
    # det(I + (1 - t) * M); det(S) scales it to det(V - t*V^T).
    coeffs = [0] * (n + 1)
    for a in chars:
        coeffs = [(a + coeffs[0]) & mask] + [(x - y) & mask for x, y in zip(coeffs[1:], coeffs)]
    return [c * det_s & mask for c in coeffs]
