import random
from fractions import Fraction

import pytest

from knotrank.laurent import LaurentPoly, NotUnitAtOne, PoleAtZero, ZeroPolynomial
from oracles import d_mul, poly_to_dict

ONE_MINUS_T_PLUS_T2 = LaurentPoly(0, (1, -1, 1))


def random_poly(rng, max_len=8, max_abs=9):
    length = rng.randrange(0, max_len + 1)
    coeffs = [rng.randint(-max_abs, max_abs) for _ in range(length)]
    return LaurentPoly(rng.randint(-5, 5), coeffs)


def random_unit_poly(rng):
    """A random polynomial with value +1 or -1 at t = 1."""
    target = rng.choice((1, -1))
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 9))]
    coeffs[-1] += target - sum(coeffs)
    return LaurentPoly(rng.randint(-6, 6), coeffs)


def test_construction_trims_both_ends():
    p = LaurentPoly(2, (0, 0, 7, 0))
    assert p.lowest == 4
    assert p.coeffs == (7,)


def test_zero_polynomial_is_canonical():
    assert LaurentPoly(5, (0, 0, 0)) == LaurentPoly()
    assert LaurentPoly().lowest == 0
    assert LaurentPoly().coeffs == ()
    assert not LaurentPoly()


def test_equality_across_representations():
    assert LaurentPoly(2, (0, 3)) == LaurentPoly(3, (3,))
    assert hash(LaurentPoly(2, (0, 3))) == hash(LaurentPoly(3, (3,)))


def test_mul_identity():
    assert ONE_MINUS_T_PLUS_T2 * LaurentPoly(0, (1,)) == ONE_MINUS_T_PLUS_T2


def test_mul_square_hand_convolution():
    assert ONE_MINUS_T_PLUS_T2 * ONE_MINUS_T_PLUS_T2 == LaurentPoly(0, (1, -2, 3, -2, 1))


def test_mul_difference_of_squares():
    t_minus_1 = LaurentPoly(0, (-1, 1))
    t_plus_1 = LaurentPoly(0, (1, 1))
    assert t_minus_1 * t_plus_1 == LaurentPoly(0, (-1, 0, 1))


@pytest.mark.parametrize("other", ["x", 1.5])
def test_mul_by_a_non_integer_is_a_type_error(other):
    # __mul__ gives way, so Python raises TypeError, not an AttributeError
    with pytest.raises(TypeError):
        LaurentPoly(0, (1, 1)) * other


def test_normalize_factors_sign_and_shift():
    # -t^3 + t^2 - t = -t * (t^2 - t + 1)
    assert LaurentPoly(1, (-1, 1, -1)).normalize() == ONE_MINUS_T_PLUS_T2


def test_normalize_is_identity_on_normalized_input():
    assert ONE_MINUS_T_PLUS_T2.normalize() == ONE_MINUS_T_PLUS_T2


def test_normalize_returns_a_normal_polynomial_itself():
    poly = LaurentPoly(0, (2, -3, 2))
    assert poly.normalize() is poly
    # a shift, a sign and both still build a new, equal polynomial
    for lowest, sign in ((3, 1), (0, -1), (-2, -1)):
        other = LaurentPoly(lowest, tuple(sign * c for c in poly.coeffs))
        normalized = other.normalize()
        assert normalized is not other
        assert normalized == poly


def test_normalize_shifts_negative_exponents():
    assert LaurentPoly(-1, (1, -1, 1)).normalize() == ONE_MINUS_T_PLUS_T2


def test_normalize_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        LaurentPoly().normalize()


def test_normalize_rejects_non_unit_value():
    with pytest.raises(NotUnitAtOne):
        LaurentPoly(0, (2,)).normalize()
    with pytest.raises(NotUnitAtOne):
        LaurentPoly(0, (1, 1)).normalize()


def test_degree_span_values():
    assert ONE_MINUS_T_PLUS_T2.degree_span() == 2
    assert LaurentPoly(0, (5,)).degree_span() == 0
    assert LaurentPoly(-2, (1, 0, 0, 0, 1)).degree_span() == 4


def test_degree_span_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        LaurentPoly().degree_span()


def test_eval_at_zero():
    assert ONE_MINUS_T_PLUS_T2.eval_at(0) == 1
    assert LaurentPoly(1, (1,)).eval_at(0) == 0
    assert LaurentPoly().eval_at(0) == 0


def test_eval_at_one():
    assert ONE_MINUS_T_PLUS_T2.eval_at(1) == 1


def test_eval_at_zero_pole():
    with pytest.raises(PoleAtZero):
        LaurentPoly(-1, (1, 1)).eval_at(0)


def test_eval_at_an_integer_is_an_int_with_a_negative_exponent():
    # t^-1 + t at 1 is 2, an int, not Fraction(2, 1)
    value = LaurentPoly(-1, (1, 0, 1)).eval_at(1)
    assert value == 2 and type(value) is int


def test_eval_at_is_exact_on_fractions():
    # t^-1 + 1 at 1/2 is exactly 3
    assert LaurentPoly(-1, (1, 1)).eval_at(Fraction(1, 2)) == 3
    # 1 - t at 1/3 is exactly 2/3
    assert LaurentPoly(0, (1, -1)).eval_at(Fraction(1, 3)) == Fraction(2, 3)


def test_eval_matches_dict_oracle_on_random_inputs():
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(rng)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if x == 0 and p.lowest < 0:
            continue
        expected = sum(Fraction(c) * Fraction(x) ** k for k, c in poly_to_dict(p).items())
        assert p.eval_at(x) == expected


def test_is_symmetric():
    assert ONE_MINUS_T_PLUS_T2.is_symmetric()
    assert LaurentPoly(0, (1, -2, 3, -2, 1)).is_symmetric()
    assert not LaurentPoly(0, (1, 2)).is_symmetric()
    # antisymmetric coefficient lists count as symmetric up to sign
    assert LaurentPoly(0, (1, 0, -1)).is_symmetric()


def test_is_symmetric_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        LaurentPoly().is_symmetric()


def test_add_mul_match_dict_oracle():
    rng = random.Random(1729)
    for _ in range(300):
        a, b = random_poly(rng), random_poly(rng)
        assert poly_to_dict(a * b) == d_mul(poly_to_dict(a), poly_to_dict(b))


def test_ring_axioms_on_random_inputs():
    rng = random.Random(2718)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_normalize_idempotent_and_canonical_on_random_units():
    rng = random.Random(31415)
    for _ in range(500):
        p = random_unit_poly(rng)
        q = p.normalize()
        assert q.normalize() == q
        assert q.lowest == 0
        assert q.eval_at(1) == 1


def test_degree_span_additive_under_mul():
    rng = random.Random(999)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        if not a or not b:
            continue
        assert (a * b).degree_span() == a.degree_span() + b.degree_span()


def test_int_coercion_in_arithmetic():
    assert ONE_MINUS_T_PLUS_T2 * 2 == LaurentPoly(0, (2, -2, 2))
    assert -3 * LaurentPoly(-1, (1, 1)) == LaurentPoly(-1, (-3, -3))
    assert 0 * ONE_MINUS_T_PLUS_T2 == LaurentPoly()


def test_json_round_trip():
    for p in (LaurentPoly(), ONE_MINUS_T_PLUS_T2, LaurentPoly(-3, (2, 0, -5))):
        assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly().to_json() == {"lowest": 0, "coeffs": []}


MISSING = "polynomial JSON needs 'lowest' and 'coeffs'"
MALFORMED = [
    ({}, MISSING),
    ({"lowest": 0}, MISSING),
    ({"coeffs": [1]}, MISSING),
    ({"lowest": "0", "coeffs": [1]}, "'lowest' must be an integer, got '0'"),
    ({"lowest": 0, "coeffs": [1.5]}, "a 'coeffs' entry must be an integer, got 1.5"),
    ({"lowest": 0, "coeffs": "abc"}, "'coeffs' must be a list of integers"),
    ({"lowest": True, "coeffs": [1]}, "'lowest' must be an integer, got True"),
    ({"lowest": 0, "coeffs": [True]}, "a 'coeffs' entry must be an integer, got True"),
    (
        {"lowest": [0] * 1000, "coeffs": [1]},
        "'lowest' must be an integer, got [0, 0, 0, 0, 0, 0, ...]",
    ),
]


# the ids pytest gives a lone ``data`` parameter, data0, data1, ...
@pytest.mark.parametrize(
    "data, message", MALFORMED, ids=[f"data{i}" for i in range(len(MALFORMED))]
)
def test_from_json_rejects_malformed(data, message):
    with pytest.raises(ValueError) as info:
        LaurentPoly.from_json(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "poly,text",
    [
        (LaurentPoly(), "0"),
        (LaurentPoly(0, (1,)), "1"),
        (LaurentPoly(0, (-1,)), "-1"),
        (LaurentPoly(1, (1,)), "t"),
        (ONE_MINUS_T_PLUS_T2, "1 - t + t^2"),
        (LaurentPoly(0, (1, -2, 3, -2, 1)), "1 - 2t + 3t^2 - 2t^3 + t^4"),
        (LaurentPoly(-2, (1, 0, 0, 0, 1)), "t^-2 + t^2"),
        (LaurentPoly(-1, (-2, 0, 5)), "-2t^-1 + 5t"),
    ],
)
def test_pretty_printer(poly, text):
    assert str(poly) == text
