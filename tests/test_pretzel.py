import random

import pytest

from knotrank import pretzel
from knotrank.laurent import LaurentPoly
from knotrank.pretzel import (
    AlreadyStabilized,
    PretzelKnot,
    UnsupportedStabilized,
    WitnessKnot,
    alexander_closed_form,
    alexander_of_witness,
    hfk_bigraded,
    hfk_top_rank,
    stabilize,
    witness,
)
from knotrank.seifert import fiberedness
from oracles import d_mul, poly_to_dict

ONE_MINUS_T_PLUS_T2 = LaurentPoly(0, (1, -1, 1))


def trefoil_power(g):
    """(1 - t + t^2)^g as an exponent -> coefficient dict, by schoolbook products."""
    power = {0: 1}
    for _ in range(g):
        power = d_mul(power, {0: 1, 1: -1, 2: 1})
    return power


def test_strands_round_trip():
    k = PretzelKnot(-2, 2, 8)
    assert k.strands == (-3, 5, 17)
    assert PretzelKnot.from_strands(*k.strands) == k


def test_from_strands_rejects_even_values():
    with pytest.raises(ValueError):
        PretzelKnot.from_strands(2, 3, 5)
    with pytest.raises(ValueError):
        PretzelKnot.from_strands(1, 1, 0)


def test_closed_form_trefoil():
    assert alexander_closed_form(PretzelKnot(0, 0, 0)) == ONE_MINUS_T_PLUS_T2


def test_closed_form_first_witness():
    assert alexander_closed_form(PretzelKnot(-1, 1, 1)) == ONE_MINUS_T_PLUS_T2


def test_closed_form_degenerate_coefficient():
    # c = 0 leaves the bare t term, which normalizes to 1
    assert alexander_closed_form(PretzelKnot(0, 0, -1)) == LaurentPoly(0, (1,))


def test_closed_form_general_coefficient():
    # c = 7: polynomial 7 - 13t + 7t^2
    assert alexander_closed_form(PretzelKnot(1, 1, 1)) == LaurentPoly(0, (7, -13, 7))


def test_is_homologically_fibered():
    assert fiberedness(alexander_closed_form(PretzelKnot(-1, 1, 1)), 1) == (True, [])
    assert not fiberedness(alexander_closed_form(PretzelKnot(0, 0, -1)), 1)[0]
    assert not fiberedness(alexander_closed_form(PretzelKnot(1, 1, 1)), 1)[0]


def test_fibered_agrees_with_polynomial_conditions():
    # on the genus-1 standard surface both conditions collapse to |c| = 1,
    # c = 1 + l + m + n + lm + mn + nl
    for l in range(-6, 7):
        for m in range(-6, 7):
            for n in range(-6, 7):
                c = 1 + l + m + n + l * m + m * n + n * l
                fibered, failing = fiberedness(alexander_closed_form(PretzelKnot(l, m, n)), 1)
                assert fibered == (abs(c) == 1) == (not failing)


@pytest.mark.parametrize(
    "index,strands",
    [(1, (-1, 3, 3)), (2, (-3, 5, 9)), (3, (-5, 7, 19))],
)
def test_witness_strand_values(index, strands):
    assert witness(index).base.strands == strands
    assert witness(index).strands == strands


def test_witness_strands_equal_the_base_knot_strands():
    # the property writes out (1 - 2n, 2n + 1, 2n^2 + 1) without building the base
    for n in [*range(1, 10_001), *range(10**12 - 50, 10**12 + 51)]:
        w = witness(n)
        assert w.strands == w.base.strands, n
    assert WitnessKnot(7, 3).strands == WitnessKnot(7).base.strands


def test_witness_rejects_bad_index():
    with pytest.raises(ValueError):
        witness(0)
    with pytest.raises(ValueError):
        WitnessKnot(3, -1)


def test_witness_closed_form_is_constant_over_the_family():
    for n in range(1, 101):
        assert alexander_closed_form(witness(n).base) == ONE_MINUS_T_PLUS_T2


def test_hfk_top_rank_values():
    assert hfk_top_rank(witness(1)) == 1
    assert hfk_top_rank(witness(2)) == 5
    assert hfk_top_rank(witness(4)) == 25
    assert hfk_top_rank(WitnessKnot(3, 4)) == 13
    assert hfk_top_rank(stabilize(witness(4), 3)) == 25


def test_hfk_bigraded_values():
    assert hfk_bigraded(witness(1)) == [(1, 0), (2, 1)]
    assert hfk_bigraded(witness(2)) == [(1, 2), (2, 3)]
    assert hfk_bigraded(witness(3)) == [(1, 6), (2, 7)]


def test_hfk_bigraded_rejects_stabilized():
    with pytest.raises(UnsupportedStabilized):
        hfk_bigraded(WitnessKnot(2, 1))


def test_bigraded_ranks_sum_to_top_rank():
    for n in range(1, 60):
        w = witness(n)
        assert sum(r for _, r in hfk_bigraded(w)) == hfk_top_rank(w)


def test_stabilize_sets_genus_and_keeps_rank():
    w = stabilize(witness(2), 1)
    assert w.genus == 2
    assert hfk_top_rank(w) == 5
    assert stabilize(witness(3), 2).genus == 3


def test_stabilize_by_zero_is_identity():
    assert stabilize(witness(1), 0) == witness(1)


def test_stabilize_rejects_restabilization():
    with pytest.raises(AlreadyStabilized):
        stabilize(WitnessKnot(2, 1), 1)
    with pytest.raises(ValueError):
        stabilize(witness(2), -1)


def test_alexander_of_witness_unstabilized():
    assert alexander_of_witness(witness(1)) == ONE_MINUS_T_PLUS_T2
    assert alexander_of_witness(witness(5)) == ONE_MINUS_T_PLUS_T2


def test_alexander_of_witness_one_trefoil():
    assert alexander_of_witness(WitnessKnot(1, 1)) == LaurentPoly(0, (1, -2, 3, -2, 1))


def test_alexander_of_witness_matches_dict_oracle_powers():
    # the trefoil's g-th power by schoolbook products, for genus 1 to 60
    for g in range(1, 61):
        assert poly_to_dict(alexander_of_witness(WitnessKnot(4, g - 1))) == trefoil_power(g)


def test_alexander_of_witness_matches_the_general_power_at_genus_3001():
    # Horner's rule on the coefficients against Python's modular power of the
    # trefoil's value: a wrong coefficient would have to make a polynomial of
    # degree at most 6002 vanish at each of these points modulo each prime
    poly = alexander_of_witness(WitnessKnot(3, 3000))
    assert poly.lowest == 0
    rng = random.Random(3001)
    for q in (10**9 + 7, 2**61 - 1, 2**89 - 1):
        for x in (2, q - 1, *(rng.randrange(3, q - 1) for _ in range(3))):
            value = 0
            for c in reversed(poly.coeffs):
                value = (value * x + c) % q
            assert value == pow(1 - x + x * x, 3001, q)


@pytest.mark.parametrize("g", [1, 2, 3, 10, 61, 500, 3001])
def test_alexander_of_witness_is_a_palindrome_with_the_trefoil_values(g):
    poly = alexander_of_witness(WitnessKnot(2, g - 1))
    assert poly.lowest == 0 and len(poly.coeffs) == 2 * g + 1
    assert poly.coeffs == poly.coeffs[::-1]
    assert poly.eval_at(1) == 1
    # 1 - t + t^2 is 3 at t = -1
    assert abs(poly.eval_at(-1)) == 3**g


def test_alexander_of_witness_builds_no_pretzel_and_multiplies_nothing(monkeypatch):
    # Delta is the trefoil's power read off the witness's genus: c = 1 for every index
    def refuse(*args):
        raise AssertionError("alexander_of_witness derived the base pretzel's polynomial")

    cases = ((1, 0), (7, 0), (1000, 0), (3, 1), (1000, 12))
    expected = [trefoil_power(k + 1) for _, k in cases]
    monkeypatch.setattr(pretzel, "alexander_closed_form", refuse)
    monkeypatch.setattr(WitnessKnot, "base", property(refuse))
    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    for (n, k), poly in zip(cases, expected):
        assert poly_to_dict(alexander_of_witness(WitnessKnot(n, k))) == poly


def test_alexander_of_witness_equals_the_base_pretzel_times_trefoils():
    rng = random.Random(18)
    pairs = [(1, 0), (1000, 12)] + [(rng.randint(1, 1000), rng.randint(0, 12)) for _ in range(60)]
    for n, k in pairs:
        derived = d_mul(poly_to_dict(alexander_closed_form(witness(n).base)), trefoil_power(k))
        assert poly_to_dict(alexander_of_witness(WitnessKnot(n, k))) == derived


def test_stabilized_witnesses_stay_homologically_fibered():
    # degree 2(k+1) and unit value at 0: criteria (i)/(ii) at genus k+1
    for n in range(1, 13):
        for k in range(5):
            poly = alexander_of_witness(WitnessKnot(n, k))
            assert poly.degree_span() == 2 * (k + 1)
            assert abs(poly.eval_at(0)) == 1
            assert poly.is_symmetric()
            assert poly.eval_at(1) == 1


def test_witness_json():
    w = WitnessKnot(2, 3)
    data = w.to_json()
    assert data == {
        "index": 2,
        "stab": 3,
        "pretzel": [-3, 5, 9],
        "genus": 4,
        "top_rank": 5,
    }
    assert WitnessKnot.from_json(data) == w
    assert WitnessKnot.from_json({"index": 4}) == witness(4)
    for malformed, message in (
        ({"index": "4"}, "'index' must be an integer, got '4'"),
        ({}, "witness JSON needs an 'index' field"),
        ({"index": 4, "stab": 1.0}, "'stab' must be an integer, got 1.0"),
        ({"index": True}, "'index' must be an integer, got True"),
    ):
        with pytest.raises(ValueError) as info:
            WitnessKnot.from_json(malformed)
        assert str(info.value) == message
