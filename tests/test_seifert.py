import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from knotrank import seifert
from knotrank.laurent import LaurentPoly, NotUnitAtOne
from knotrank.pretzel import PretzelKnot, alexander_closed_form
from knotrank.seifert import (
    SeifertMatrix,
    _alexander_mod,
    _charpoly_mod,
    _coefficient_bound,
    alexander_from_seifert,
    det_int,
    fiberedness,
    is_homology_product,
    pretzel_seifert_matrix,
    rank_int,
)
from list_kernel import list_alexander_mod, list_charpoly_mod
from oracles import d_det, d_trim, det_mod, fraction_rank

TREFOIL = SeifertMatrix.from_rows([[1, 1], [0, 1]])
ONE_MINUS_T_PLUS_T2 = LaurentPoly(0, (1, -1, 1))


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1]],
        [[1, 2], [3, 4], [5, 6]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[1, 2], [3]],
        [[1, 2], [3, 4.5]],
        [[1, 2], [3, True]],
    ],
)
def test_matrix_validation_rejects_malformed(rows):
    with pytest.raises(ValueError):
        SeifertMatrix.from_rows(rows)


def test_matrix_size_and_genus():
    assert TREFOIL.size == 2
    assert TREFOIL.genus == 1
    four = SeifertMatrix.from_rows([[0] * 3 + [1]] * 4)
    assert four.genus == 2


def test_matrix_json_round_trip():
    assert SeifertMatrix.from_json(TREFOIL.to_json()) == TREFOIL
    assert TREFOIL.to_json() == {"size": 2, "entries": [[1, 1], [0, 1]]}


def test_matrix_json_rejects_size_mismatch():
    with pytest.raises(ValueError):
        SeifertMatrix.from_json({"size": 4, "entries": [[1, 1], [0, 1]]})
    with pytest.raises(ValueError):
        SeifertMatrix.from_json({"entries": [[1, 1], [0, 1]]})


def test_det_int_small_cases():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24


def test_det_int_matches_cofactor_oracle():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randrange(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        expected = d_det([[{0: v} if v else {} for v in row] for row in rows])
        assert det_int(rows) == expected.get(0, 0)


def test_det_int_singular_with_pivot_search():
    # leading zeros force row swaps, duplicated rows force determinant 0
    assert det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_int([[1, 2, 3], [1, 2, 3], [0, 1, 1]]) == 0


def test_rank_int_matches_fraction_oracle():
    rng = random.Random(4242)
    for _ in range(200):
        n_rows = rng.randrange(1, 6)
        n_cols = rng.randrange(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(n_rows)]
        if rng.random() < 0.4 and n_rows >= 2:
            # plant a dependent row to exercise deficiency
            k = rng.randrange(n_rows - 1)
            rows[-1] = [2 * v for v in rows[k]]
        assert rank_int(rows) == fraction_rank(rows)


def int_matrices(n_rows, n_cols):
    row = st.lists(st.integers(-2, 2), min_size=n_cols, max_size=n_cols)
    return st.lists(row, min_size=n_rows, max_size=n_rows)


# Entries in [-2, 2] make singular matrices, zero columns and row swaps
# common, so both callers of the shared elimination meet every branch.
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(st.integers(0, 5).flatmap(lambda n: int_matrices(n, n)))
def test_det_int_property_against_cofactor_oracle(rows):
    expected = d_det([[{0: v} if v else {} for v in row] for row in rows])
    assert det_int(rows) == expected.get(0, 0)


@PROPERTY_SETTINGS
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(lambda shape: int_matrices(*shape)))
def test_rank_int_property_against_fraction_oracle(rows):
    assert rank_int(rows) == fraction_rank(rows)


def test_det_int_and_rank_int_reject_ragged_rows():
    with pytest.raises(ValueError, match="^matrix is not square$"):
        det_int([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError, match="^matrix is not square$"):
        det_int([[1, 2], [3]])
    with pytest.raises(ValueError, match="^matrix rows have unequal lengths$"):
        rank_int([[1, 2], [3]])
    with pytest.raises(ValueError, match="^matrix rows have unequal lengths$"):
        rank_int([[1, 2, 3], [4, 5, 6], [7, 8]])


def test_rank_int_edge_cases():
    assert rank_int([]) == 0
    assert rank_int([[0, 0], [0, 0]]) == 0
    assert rank_int([[1, 0], [0, 1]]) == 2


RANK_PRIME = 2**61 - 1  # large entries: each case below loses rank modulo this prime


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[RANK_PRIME]], 1),
        ([[1, 1], [1, 1 + RANK_PRIME]], 2),
        ([[RANK_PRIME, 0, 0], [0, 2 * RANK_PRIME, 0]], 2),
        ([[1, 2, 3], [2, 4 + RANK_PRIME, 6], [0, 0, 1]], 3),
        ([[RANK_PRIME], [3 * RANK_PRIME]], 1),
    ],
)
def test_rank_int_full_rank_but_deficient_mod_screen_prime(rows, rank):
    # the rank over the rationals is higher than the rank modulo RANK_PRIME
    assert rank_int(rows) == rank == fraction_rank(rows)


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[1, 2], [2, 4]], 1),
        ([[1, 2, 3], [4, 5, 6], [5, 7, 9]], 2),
        ([[0, 1, 2], [0, 2, 4], [0, 0, 0]], 1),
        ([[RANK_PRIME, 1], [2 * RANK_PRIME, 2]], 1),
        ([[3, 1, 4], [3, 1, 4]], 1),
        ([[0], [0], [0]], 0),
        ([[], []], 0),
        ([[2, 0, 5], [0, 0, 7], [0, 0, 0]], 2),
    ],
)
def test_rank_int_rank_deficient(rows, rank):
    assert rank_int(rows) == rank == fraction_rank(rows)


def test_rank_int_triangular_certificate_shape():
    # triangular with a positive diagonal, as verify_certificate sees it
    k = 30
    rng = random.Random(77)
    rows = [[0] * i + [rng.randint(1, 3)] + [rng.randint(0, 2) for _ in range(k - i - 1)] for i in range(k)]
    assert rank_int(rows) == fraction_rank(rows) == k
    rows[-1][-1] = 0
    assert rank_int(rows) == fraction_rank(rows) == k - 1


def test_alexander_from_seifert_trefoil():
    assert alexander_from_seifert(TREFOIL) == ONE_MINUS_T_PLUS_T2


def test_alexander_from_seifert_unknot_like():
    assert alexander_from_seifert(SeifertMatrix.from_rows([[0, 1], [0, 0]])) == LaurentPoly(0, (1,))


def test_alexander_from_seifert_first_witness():
    assert alexander_from_seifert(pretzel_seifert_matrix(-1, 1, 1)) == ONE_MINUS_T_PLUS_T2


def test_alexander_from_seifert_rejects_non_seifert_matrix():
    # symmetric matrix: V - V^T = 0, so det(V - V^T) = 0, not a knot's Seifert matrix
    with pytest.raises(NotUnitAtOne):
        alexander_from_seifert(SeifertMatrix.from_rows([[1, 0], [0, 1]]))


def test_alexander_degree_bounded_by_twice_genus():
    rng = random.Random(5)
    seen = 0
    while seen < 60:
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        V = SeifertMatrix.from_rows(rows)
        skew = [[rows[i][j] - rows[j][i] for j in range(4)] for i in range(4)]
        if det_int(skew) not in (1, -1):
            continue
        seen += 1
        poly = alexander_from_seifert(V)
        assert poly.degree_span() <= 2 * V.genus
        assert poly.is_symmetric()
        assert poly.eval_at(1) == 1


@pytest.mark.parametrize(
    "params,rows",
    [
        ((0, 0, 0), [[1, 1], [0, 1]]),
        ((-1, 1, 1), [[1, 2], [1, 3]]),
        ((-2, 2, 8), [[1, 3], [2, 11]]),
    ],
)
def test_pretzel_seifert_matrix_values(params, rows):
    assert pretzel_seifert_matrix(*params) == SeifertMatrix.from_rows(rows)


def test_is_homology_product_examples():
    assert is_homology_product(TREFOIL)
    assert not is_homology_product(SeifertMatrix.from_rows([[0, 1], [0, 0]]))
    assert is_homology_product(pretzel_seifert_matrix(-1, 1, 1))


@pytest.mark.parametrize(
    "poly,genus,expected",
    [
        (LaurentPoly(0, (1,)), 1, (False, ["degree 0 != 2"])),
        (LaurentPoly(0, (7, -13, 7)), 1, (False, ["Delta(0) = 7"])),
        (LaurentPoly(0, (7, -13, 7)), 2, (False, ["degree 2 != 4", "Delta(0) = 7"])),
        (ONE_MINUS_T_PLUS_T2, 1, (True, [])),
        # genus 2: a (2, 1; 0, 1) block plus a trefoil block, so Delta(0) = det(V) = 2
        (
            alexander_from_seifert(
                SeifertMatrix.from_rows([[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
            ),
            2,
            (False, ["Delta(0) = 2"]),
        ),
    ],
)
def test_fiberedness_reasons(poly, genus, expected):
    assert fiberedness(poly, genus) == expected


def test_homology_product_equals_polynomial_conditions_on_box():
    # det(V) = +-1 iff (degree span 2g and |Delta(0)| = 1), checked on pretzel matrices
    for l in range(-5, 6):
        for m in range(-5, 6):
            for n in range(-5, 6):
                V = pretzel_seifert_matrix(l, m, n)
                poly = alexander_from_seifert(V)
                via_poly = poly.degree_span() == 2 * V.genus and abs(poly.eval_at(0)) == 1
                assert is_homology_product(V) == via_poly


def test_two_routes_agree_on_small_box():
    # the master oracle on a reduced box; the acceptance suite runs [-15, 15]^3
    for l in range(-5, 6):
        for m in range(-5, 6):
            for n in range(-5, 6):
                via_matrix = alexander_from_seifert(pretzel_seifert_matrix(l, m, n))
                via_formula = alexander_closed_form(PretzelKnot(l, m, n))
                assert via_matrix == via_formula


def _sympy_alexander(rows):
    """Normalized det(V - t*V^T) over ZZ[t] by sympy, coefficients lowest first."""
    t = symbols("t")
    ring = ZZ[t]
    n = len(rows)
    entries = [[ring(rows[i][j]) - ring(rows[j][i]) * ring(t) for j in range(n)] for i in range(n)]
    det = DomainMatrix(entries, (n, n), ring).det()
    coeffs = Poly(ring.to_sympy(det), t).all_coeffs()[::-1]
    while coeffs[0] == 0:
        coeffs.pop(0)
    sign = 1 if sum(coeffs) == 1 else -1
    return [sign * int(c) for c in coeffs]


def symplectic_plus_symmetric(genus, upper):
    """V = V0 + S, V0 - V0^T the standard symplectic form, S symmetric.

    ``upper`` lists S's upper triangle row by row; det(V - V^T) = 1.
    """
    size = 2 * genus
    rows = [[0] * size for _ in range(size)]
    for b in range(genus):
        rows[2 * b][2 * b + 1] = 1
    values = iter(upper)
    for i in range(size):
        for j in range(i, size):
            s = next(values)
            rows[i][j] += s
            if j != i:
                rows[j][i] += s
    return rows


def random_knot_matrix(rng, genus, entry=3):
    size = 2 * genus
    upper = [rng.randint(-entry, entry) for _ in range(size * (size + 1) // 2)]
    return symplectic_plus_symmetric(genus, upper)


@pytest.mark.parametrize("genus", range(3, 9))
def test_alexander_from_seifert_matches_sympy_at_higher_genus(genus):
    rows = random_knot_matrix(random.Random(genus), genus)
    poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
    assert poly.lowest == 0
    assert list(poly.coeffs) == _sympy_alexander(rows)


def cofactor_seifert_det(rows):
    """Coefficients of det(V - t*V^T), t^0 to t^n, by the cofactor oracle."""
    n = len(rows)
    det = d_det([[d_trim({0: rows[i][j], 1: -rows[j][i]}) for j in range(n)] for i in range(n)])
    return [det.get(k, 0) for k in range(n + 1)]


def normalized(coeffs):
    """Strip zeros at both ends and fix the sign so the value at t = 1 is +1."""
    nonzero = [k for k, c in enumerate(coeffs) if c]
    coeffs = coeffs[nonzero[0] : nonzero[-1] + 1]
    sign = 1 if sum(coeffs) == 1 else -1
    return [sign * c for c in coeffs]


def elementary_congruence(rows, i, j, c):
    """V -> E V E^T in place for E = I + c * E_ij, i != j: add c times row j
    to row i, then c times column j to column i."""
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for row in rows:
        row[i] += c * row[j]


@st.composite
def knot_matrices(draw):
    """Genus 1-3 knot matrices with entries up to 10^6, some moved by a congruence.

    A congruence V -> U V U^T with det U = 1 keeps det(V - V^T) = 1 but
    fills in V - V^T, so the elimination meets dense pivot columns.
    """
    genus = draw(st.integers(1, 3))
    size = 2 * genus
    count = size * (size + 1) // 2
    upper = draw(st.lists(st.integers(-(10**6), 10**6), min_size=count, max_size=count))
    rows = symplectic_plus_symmetric(genus, upper)
    index = st.integers(0, size - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=4)):
        if i != j:
            elementary_congruence(rows, i, j, c)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(knot_matrices())
def test_alexander_from_seifert_property_against_cofactor_oracle(rows):
    expected = cofactor_seifert_det(rows)
    assert max(abs(c) for c in expected) < _coefficient_bound(rows)
    poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
    assert poly.lowest == 0
    assert list(poly.coeffs) == normalized(expected)


def test_alexander_from_seifert_genus_forty_budget():
    rng = random.Random(40)
    rows = random_knot_matrix(rng, 40, entry=2)
    start = time.perf_counter()
    poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, f"genus 40 took {elapsed:.2f}s, budget 4s"
    assert poly.lowest == 0 and poly.is_symmetric() and poly.eval_at(1) == 1
    # Delta = +-t^-k * det(V - t*V^T), with k = (80 - span) / 2 by symmetry
    q = 2**61 - 1
    x = rng.randrange(2, q)
    at_x = det_mod([[rows[i][j] - x * rows[j][i] for j in range(80)] for i in range(80)], q)
    k = (80 - poly.degree_span()) // 2
    value = sum(c * pow(x, k + i, q) for i, c in enumerate(poly.coeffs)) % q
    assert at_x in (value, -value % q)


def dense_knot_matrix(genus):
    """A seeded knot matrix U V U^T whose skew part is dense, U unimodular.

    ``random_knot_matrix`` has V - V^T equal to the standard symplectic
    form, so the elimination has one nonzero per column.  U is a product of
    elementary matrices, so det(V - V^T) stays 1 and V - V^T fills in.
    """
    rng = random.Random(1000 + genus)
    rows = random_knot_matrix(rng, genus, entry=2)
    size = 2 * genus
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        elementary_congruence(rows, i, j, rng.choice((-1, 1)))
    return rows


@pytest.mark.parametrize("genus", range(6, 16))
def test_alexander_from_seifert_with_a_dense_skew_part(genus):
    rows = dense_knot_matrix(genus)
    n = 2 * genus
    skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
    assert sum(v != 0 for row in skew for v in row) > n * n // 2
    q = 2**61 - 1
    assert det_mod(skew, q) == 1
    poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
    assert poly.lowest == 0 and poly.is_symmetric() and poly.eval_at(1) == 1
    # det(V - t*V^T) = t^k * Delta(t), with k = (n - span) / 2 by symmetry
    # and no sign, as both sides are det(V - V^T) = 1 at t = 1
    k = (n - poly.degree_span()) // 2
    exact = [0] * k + list(poly.coeffs) + [0] * k
    rng = random.Random(genus)
    for _ in range(3):
        x = rng.randrange(2, q)
        at_x = det_mod([[rows[i][j] - x * rows[j][i] for j in range(n)] for i in range(n)], q)
        assert at_x == sum(c * pow(x, j, q) for j, c in enumerate(exact)) % q
    # any power of two, below 2B or not: det(V - V^T) = 1 is odd, so no pivot fails
    for modulus in (2, 4, 2**64, 2**200):
        assert _alexander_mod(rows, modulus) == [c % modulus for c in exact], modulus


def ci_dense_matrix(genus, corner=1):
    """The dense generator of the CI's genus-30 Seifert step, at any genus.

    V = V0 + S, with S symmetric and entries in [-2, 2], then 3n
    congruences V -> U V U^T by elementary U, all drawn from one 64-bit
    LCG.  V0 has ``corner`` at (0, 1) and 1 at every other (2b, 2b + 1),
    so det(V - V^T) = corner^2: corner 1 gives a knot, corner 2 a
    non-knot with det(V - V^T) = 4.
    """
    n, x = 2 * genus, 1

    def draw(k):
        nonlocal x
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        return (x >> 33) % k

    v = [[int(j == i + 1 and i % 2 == 0) for j in range(n)] for i in range(n)]
    v[0][1] = corner
    for i in range(n):
        for j in range(i, n):
            s = draw(5) - 2
            v[i][j] += s
            v[j][i] += s if j != i else 0
    for _ in range(3 * n):
        i, j, c = draw(n), draw(n - 1), 2 * draw(2) - 1
        j += j >= i
        elementary_congruence(v, i, j, c)
    return v


def test_alexander_from_seifert_dense_genus_forty_budget():
    # The dense elimination path, which the benchmark's matrices never take,
    # for a knot and for a non-knot whose det(V - V^T) = 4 is even
    knot, non_knot = ci_dense_matrix(40), ci_dense_matrix(40, corner=2)
    skew = [[knot[i][j] - knot[j][i] for j in range(80)] for i in range(80)]
    assert sum(v != 0 for row in skew for v in row) > 80 * 80 // 2
    start = time.perf_counter()
    poly = alexander_from_seifert(SeifertMatrix.from_rows(knot))
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, f"dense genus 40 took {elapsed:.2f}s, budget 4s"
    assert poly.lowest == 0 and poly.is_symmetric() and poly.eval_at(1) == 1
    q = 2**61 - 1
    x = random.Random(80).randrange(2, q)
    at_x = det_mod([[knot[i][j] - x * knot[j][i] for j in range(80)] for i in range(80)], q)
    k = (80 - poly.degree_span()) // 2
    assert at_x == sum(c * pow(x, k + i, q) for i, c in enumerate(poly.coeffs)) % q
    start = time.perf_counter()
    with pytest.raises(NotUnitAtOne) as info:
        alexander_from_seifert(SeifertMatrix.from_rows(non_knot))
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, f"dense genus-40 non-knot took {elapsed:.2f}s, budget 4s"
    assert str(info.value) == not_a_knot(4)


def test_alexander_mod_any_modulus_raises_or_is_right():
    # Any power of two, below 2B or not: the residues need no bound.  An
    # odd det(V - V^T), +-1 or not, never stops the routine; an even one
    # always does.
    rng = random.Random(11)
    matrices = [random_knot_matrix(rng, genus) for genus in (2, 3) for _ in range(4)]
    matrices += [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for n in (4, 6) for _ in range(12)]
    moduli = [2, 4, 8, 2**20, 2**64, 2**200]
    dets = set()
    for rows in matrices:
        expected = cofactor_seifert_det(rows)
        d = skew_det(rows)
        dets.add(d)
        for modulus in moduli:
            if d % 2:
                assert _alexander_mod(rows, modulus) == [c % modulus for c in expected], modulus
            else:
                with pytest.raises(NotUnitAtOne):
                    _alexander_mod(rows, modulus)
    assert 1 in dets and any(d % 2 and d != 1 for d in dets) and any(d % 2 == 0 for d in dets)


def test_alexander_mod_raises_when_skew_part_is_singular_mod_p():
    # det(V - V^T) = 4 is even: some elimination column has no odd pivot
    rows = [[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    for modulus in (2, 2**64):
        with pytest.raises(NotUnitAtOne):
            _alexander_mod(rows, modulus)


def kernel_result(kernel, *args):
    """A kernel's residues, or None where it raises NotUnitAtOne."""
    try:
        return kernel(*args)
    except NotUnitAtOne:
        return None


@st.composite
def kernel_inputs(draw):
    """A matrix of size 4 to 24 and a modulus 2^1 to 2^16, or the real 2^k.

    "knot" is V0 + 2^j * X, X symmetric, moved by congruences with
    multipliers +-1 and +-2: a dense skew part, row swaps and even
    Hessenberg pivots.  "any" has entries in [-3, 3], and mostly an even
    det(V - V^T).  "wide" has entries up to 2^20 in size, so that most
    residues below 2^16 are large.
    """
    size = 2 * draw(st.integers(2, 12))
    kind = draw(st.sampled_from(("knot", "any", "wide")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "knot":
        j = draw(st.integers(0, 8))
        upper = [rng.randint(-3, 3) << j for _ in range(size * (size + 1) // 2)]
        rows = symplectic_plus_symmetric(size // 2, upper)
        for _ in range(draw(st.integers(0, 2 * size))):
            a, b = rng.sample(range(size), 2)
            elementary_congruence(rows, a, b, rng.choice((-2, -1, 1, 2)))
    else:
        entry = 3 if kind == "any" else 2**20
        rows = [[rng.randint(-entry, entry) for _ in range(size)] for _ in range(size)]
    bits = draw(st.integers(0, 16))
    modulus = 1 << bits if bits else 1 << (2 * _coefficient_bound(rows)).bit_length()
    return rows, modulus


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_inputs())
@example(([[-1] * 4] * 4, 2**16))  # every residue p - 1, and det(V - V^T) = 0
@example((symplectic_plus_symmetric(2, [-1] * 10), 2**16))
@example((symplectic_plus_symmetric(12, [2**16 - 1] * 300), 2**16))
def test_packed_kernel_returns_the_list_kernels_residues(case):
    # The same ring arithmetic on packed ints: the same residues, or
    # NotUnitAtOne exactly where the list kernel raises it.
    rows, modulus = case
    assert kernel_result(_alexander_mod, rows, modulus) == kernel_result(
        list_alexander_mod, rows, modulus
    )


@st.composite
def charpoly_inputs(draw):
    """A matrix N of size 1 to 24 and a modulus 2^1 to 2^16, 2^64 or 2^200.

    Entries are residues, residues times 2^j with j drawn per column (even
    Hessenberg pivots), p - 1 (the largest slot value), or unreduced
    integers of either sign; some columns are 0.
    """
    n = draw(st.integers(1, 24))
    bits = draw(st.sampled_from([*range(1, 17), 64, 200]))
    p = 1 << bits
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("residues", "even", "top", "unreduced")))
    shifts = [rng.randint(0, bits) for _ in range(n)]
    draw_entry = {
        "residues": lambda c: rng.randrange(p),
        "even": lambda c: rng.randrange(p) << shifts[c],
        "top": lambda c: p - 1 if rng.random() < 0.8 else rng.randrange(p),
        "unreduced": lambda c: rng.randint(-(p**2), p**2),
    }[kind]
    zero_share = draw(st.sampled_from((0.0, 0.3)))
    zero = {c for c in range(n) if rng.random() < zero_share}
    rows = [[0 if c in zero else draw_entry(c) for c in range(n)] for _ in range(n)]
    return rows, p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(charpoly_inputs())
@example(([[2**16 - 1] * 24] * 24, 2**16))  # every residue p - 1
@example(([[2**200 - 1] * 24] * 24, 2**200))
@example(([[1] * 5] * 5, 2))
@example(([[0, 1, 2, 3], [2, 5, 0, 1], [1, 3, 3, 0], [4, 1, 1, 2]], 2**8))  # a row swap
@example(([[4 * (i + j) for j in range(6)] for i in range(6)], 2**8))  # even pivots
@example(([[0, 1, 1], [0, 1, 1], [0, 3, 1]], 2**4))  # a zero column
def test_packed_charpoly_returns_the_list_residues(case):
    rows, p = case
    assert _charpoly_mod([list(row) for row in rows], p) == list_charpoly_mod(rows, p)


def test_alexander_from_seifert_modulus_is_the_least_power_of_two_above_2b(monkeypatch):
    moduli = []
    real = seifert._alexander_mod

    def record(e, p):
        moduli.append(p)
        return real(e, p)

    monkeypatch.setattr(seifert, "_alexander_mod", record)
    for entry in (1, 10**20, 10**200):
        rows = random_knot_matrix(random.Random(entry), 2, entry=entry)
        alexander_from_seifert(SeifertMatrix.from_rows(rows))
        bound = 2 * _coefficient_bound(rows)
        p = moduli[-1]
        assert p & (p - 1) == 0 and p // 2 <= bound < p
    assert len(moduli) == 3  # one modulus per call


def test_alexander_from_seifert_takes_even_hessenberg_pivots(monkeypatch):
    # V = V0 + 2^j * X, X symmetric, keeps S = V - V^T the standard
    # symplectic form, and N = -S^-1 * V^T is diagonal modulo 2^j: the
    # Hessenberg reduction meets columns with no odd entry.  Congruences
    # with even multipliers mix in further powers of two.  For a knot the
    # elimination asks for one pivot per column, all odd; the Hessenberg
    # reduction's come after them.
    pivots = []
    real = seifert._pivot

    def record(column, mask):
        i, pivot = real(column, mask)
        pivots.append(pivot)
        return i, pivot

    monkeypatch.setattr(seifert, "_pivot", record)
    lows = []
    rng = random.Random(2)
    for _ in range(40):
        genus = rng.randint(2, 3)
        size = 2 * genus
        j = rng.randint(1, 8)
        upper = [rng.randint(-3, 3) << j for _ in range(size * (size + 1) // 2)]
        rows = symplectic_plus_symmetric(genus, upper)
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(range(size), 2)
            elementary_congruence(rows, a, b, rng.choice((-2, -1, 1, 2)))
        pivots.clear()
        poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
        assert list(poly.coeffs) == normalized(cofactor_seifert_det(rows))
        assert len(pivots) >= size and all(pivot & 1 for pivot in pivots[:size])
        lows += [pivot & -pivot for pivot in pivots[size:]]
    assert sum(low > 1 for low in lows) >= 10


def test_alexander_from_seifert_with_200_digit_entries():
    # A modulus search that tests ~2,000-bit candidates near 2B for
    # primality takes most of a minute; a power of two needs no such test.
    rows = random_knot_matrix(random.Random(200), 2, entry=10**200)
    assert max(len(str(abs(v))) for row in rows for v in row) == 200
    start = time.perf_counter()
    poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"200-digit entries took {elapsed:.2f}s, budget 2s"
    assert list(poly.coeffs) == normalized(cofactor_seifert_det(rows))


def skew_det(rows):
    """det(V - V^T) by the cofactor oracle."""
    n = len(rows)
    return d_det([[d_trim({0: rows[i][j] - rows[j][i]}) for j in range(n)] for i in range(n)]).get(0, 0)


def not_a_knot(d):
    return f"det(V - V^T) = {d}; the matrix is not a Seifert matrix of a knot"


@st.composite
def any_matrices(draw):
    """Genus 2-3 matrices with entries in [-3, 3], knots or not."""
    size = 2 * draw(st.integers(2, 3))
    row = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    return draw(st.lists(row, min_size=size, max_size=size))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_matrices())
@example([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]])  # symmetric: det 0
@example([[0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])  # det 4
@example([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])  # two trefoils
def test_alexander_from_seifert_property_on_any_matrix(rows):
    # det(V - V^T) is read off the coefficients; the oracle computes it apart
    d = skew_det(rows)
    try:
        poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
    except NotUnitAtOne as exc:
        assert str(exc) == not_a_knot(d)
        return
    assert d in (1, -1)
    assert poly.lowest == 0
    assert list(poly.coeffs) == normalized(cofactor_seifert_det(rows))


def block_sum(*blocks):
    """The block-diagonal matrix with the given square blocks."""
    size = sum(len(block) for block in blocks)
    rows = []
    for block in blocks:
        at = len(rows)
        rows += [[0] * at + list(row) + [0] * (size - at - len(row)) for row in block]
    return rows


def test_alexander_from_seifert_needs_no_bareiss_determinant(monkeypatch):
    # A knot, or an odd det(V - V^T), reads det(V - V^T) off the exact
    # coefficients.  Only an even one stops the elimination before any
    # coefficient, and takes the value for its message from det_int.
    calls = []
    real_det, real_eliminate = seifert.det_int, seifert._eliminate

    def det_int(rows):
        calls.append(("det_int", [list(row) for row in rows]))
        return real_det(rows)

    def eliminate(rows):
        calls.append(("_eliminate", None))
        return real_eliminate(rows)

    monkeypatch.setattr(seifert, "det_int", det_int)
    monkeypatch.setattr(seifert, "_eliminate", eliminate)
    knots = [[[1, 1], [0, 1]], random_knot_matrix(random.Random(2), 3)]
    non_knots = [
        [[1, 0], [0, 1]],
        [[0, 3], [1, 0]],
        block_sum([[1, 2], [2, 1]], [[3, 1], [1, 3]], [[0, 0], [0, 0]]),
        block_sum([[0, 2], [0, 0]], [[1, 1], [0, 1]], [[0, 0], [3, 0]]),
        block_sum([[0, 3], [0, 0]], [[1, 1], [0, 1]], [[2, 1], [-2, 0]]),
    ]
    for rows in knots:
        poly = alexander_from_seifert(SeifertMatrix.from_rows(rows))
        assert list(poly.coeffs) == normalized(cofactor_seifert_det(rows))
    assert calls == []
    for rows in non_knots:
        calls.clear()
        with pytest.raises(NotUnitAtOne) as info:
            alexander_from_seifert(SeifertMatrix.from_rows(rows))
        d = skew_det(rows)
        assert str(info.value) == not_a_knot(d)
        n = len(rows)
        if n > 2 and d % 2 == 0:
            skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
            assert calls == [("det_int", skew), ("_eliminate", None)]
        else:
            assert calls == []
    assert [skew_det(rows) for rows in non_knots] == [0, 4, 0, 36, 81]
