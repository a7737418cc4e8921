import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from npverify import orders
from npverify.errors import (
    EmptyUniverseError,
    InvalidAlternativeError,
    InvalidSubsetError,
    RejectedMoveError,
    TextFormatError,
)

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


def test_invert():
    assert orders.invert((0, 1, 2)) == (2, 1, 0)
    assert orders.invert((0, 2, 1)) == (1, 2, 0)
    assert orders.invert((0,)) == (0,)


@given(orderings)
def test_invert_involution(o):
    assert orders.invert(orders.invert(o)) == o
    for a, b in itertools.combinations(o, 2):
        assert orders.ranks_above(o, a, b) != orders.ranks_above(
            orders.invert(o), a, b)


def test_swap():
    assert orders.apply_move((0, 1, 2), orders.Swap(1, 2)) == (0, 2, 1)


def test_raise_to_top():
    assert orders.apply_move((1, 0, 2), orders.RaiseToTop(0)) == (0, 1, 2)


def test_lower_to_bottom():
    assert orders.apply_move((1, 0, 2), orders.LowerToBottom(1)) == (0, 2, 1)


def test_shift_with_barrier():
    # universe w,a,b,z as 0,1,2,3: z moves up to rank 2, staying below w
    moved = orders.apply_move((0, 1, 2, 3), orders.Shift(3, 2, barrier=0))
    assert moved == (0, 3, 1, 2)


def test_shift_barrier_crossing_rejected():
    with pytest.raises(RejectedMoveError):
        orders.apply_move((0, 1, 2, 3), orders.Shift(3, 1, barrier=0))
    with pytest.raises(RejectedMoveError):
        orders.shift((0, 1, 2), 0, 9)


@given(orderings, st.data())
def test_moves_preserve_the_multiset(o, data):
    a = data.draw(st.sampled_from(list(o)))
    b = data.draw(st.sampled_from(list(o)))
    rank = data.draw(st.integers(min_value=1, max_value=len(o)))
    moves = [orders.RaiseToTop(a), orders.LowerToBottom(a),
             orders.Shift(a, rank)]
    if a != b:
        moves.append(orders.Swap(a, b))
    for move in moves:
        assert sorted(orders.apply_move(o, move)) == sorted(o)


def test_unnamed_alternatives_keep_relative_order():
    o = (3, 1, 0, 2)
    moved = orders.apply_move(o, orders.RaiseToTop(2))
    rest = [a for a in moved if a != 2]
    assert rest == [a for a in o if a != 2]


def test_between():
    assert orders.between((0, 1, 2, 3), 0, 3) == (1, 2)
    assert orders.between((0, 1, 2, 3), 3, 0) == (1, 2)
    assert orders.between((0, 1, 2), 0, 1) == ()


def test_restrict():
    restricted, mapping = orders.restrict((0, 1, 2), {0, 2})
    assert restricted == (0, 1)
    assert mapping == {0: 0, 2: 1}
    restricted, _ = orders.restrict((2, 1, 0), {0, 2})
    assert restricted == (1, 0)
    full, mapping = orders.restrict((1, 0, 2), {0, 1, 2})
    assert full == (1, 0, 2)
    with pytest.raises(InvalidSubsetError):
        orders.restrict((0, 1, 2), set())
    with pytest.raises(InvalidSubsetError):
        orders.restrict((0, 1), {0, 5})


@given(st.permutations(list(range(4))).map(tuple), st.data())
def test_restrict_agrees_on_pairs(o, data):
    subset = data.draw(st.sets(st.sampled_from(list(o)), min_size=1))
    restricted, mapping = orders.restrict(o, subset)
    for a, b in itertools.combinations(sorted(subset), 2):
        assert orders.ranks_above(o, a, b) == orders.ranks_above(
            restricted, mapping[a], mapping[b])


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
