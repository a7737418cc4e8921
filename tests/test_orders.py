import pytest
from hypothesis import given
from hypothesis import strategies as st

from npverify import orders
from npverify.errors import EmptyUniverseError, InvalidAlternativeError, TextFormatError

orderings = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.permutations(list(range(m))).map(tuple))


def test_all_orderings_counts():
    assert orders.all_orderings(1) == ((0,),)
    assert len(orders.all_orderings(3)) == 6
    assert len(orders.all_orderings(4)) == 24


def test_all_orderings_distinct_permutations():
    for m in range(1, 6):
        everything = orders.all_orderings(m)
        assert len(set(everything)) == len(everything)
        for o in everything:
            assert sorted(o) == list(range(m))


def test_all_orderings_lexicographic():
    for m in (2, 3, 4):
        everything = orders.all_orderings(m)
        assert list(everything) == sorted(everything)


def test_all_orderings_empty_universe():
    with pytest.raises(EmptyUniverseError):
        orders.all_orderings(0)


def test_position():
    o = (0, 1, 2)  # x y z
    assert orders.position(o, 1) == 2
    assert orders.position(o, 0) == 1
    assert orders.position((2, 1, 0), 0) == 3
    with pytest.raises(InvalidAlternativeError):
        orders.position(o, 5)


@given(orderings)
def test_position_is_a_bijection(o):
    assert sorted(orders.position(o, a) for a in o) == list(
        range(1, len(o) + 1))


def test_between():
    assert orders.between((0, 1, 2, 3), 0, 3) == (1, 2)
    assert orders.between((0, 1, 2, 3), 3, 0) == (1, 2)
    assert orders.between((0, 1, 2), 0, 1) == ()


def test_project_keeps_labels():
    assert orders.project((2, 1, 0), {0, 2}) == (2, 0)


def test_letters_m3_uses_xyz():
    assert orders.encode_ordering((0, 1, 2)) == "xyz"
    assert orders.encode_ordering((2, 1, 0)) == "zyx"
    assert orders.decode_ordering("xzy", 3) == (0, 2, 1)


def test_letters_other_m():
    assert orders.encode_ordering((0, 1)) == "ab"
    assert orders.encode_ordering((3, 0, 1, 2)) == "dabc"
    assert orders.decode_ordering("dabc", 4) == (3, 0, 1, 2)


def test_decode_rejects_malformed():
    with pytest.raises(TextFormatError):
        orders.decode_ordering("xy", 3)
    with pytest.raises(TextFormatError):
        orders.decode_ordering("xxz", 3)
    with pytest.raises(TextFormatError):
        orders.decode_ordering("xyq", 3)


@given(orderings)
def test_letter_round_trip(o):
    assert orders.decode_ordering(orders.encode_ordering(o), len(o)) == o


def test_decode_letter():
    assert orders.decode_letter("y", 3) == 1
    assert orders.decode_letter("d", 4) == 3
    for text in ("", "xy", "q", "a"):
        with pytest.raises(TextFormatError):
            orders.decode_letter(text, 3)
