"""Strict linear orderings on a finite alternative set.

An ordering is a tuple of alternative indices, best to worst; alternatives
are the integers ``0..m-1``.  The tuple is a permutation, which already
encodes completeness, asymmetry and transitivity, and makes rank queries
and hashing cheap.  For ``m == 3`` the conventional letters are ``x, y, z``
(mapped to 0, 1, 2); other universe sizes use letters ``a..z``.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from types import MappingProxyType

from .errors import EmptyUniverseError, TextFormatError

Ordering = tuple[int, ...]

_XYZ = "xyz"
_ABC = "abcdefghijklmnopqrstuvwxyz"


def all_orderings(m: int) -> tuple[Ordering, ...]:
    """All m! strict orderings, in lexicographic order."""
    if m < 1:
        raise EmptyUniverseError("need at least one alternative")
    return tuple(itertools.permutations(range(m)))


@functools.cache
def rank_table(m: int) -> Mapping[Ordering, tuple[int, ...]]:
    """Each of the m! orderings -> its rank tuple, ``rank[a]`` being the
    0-based position of `a`.  Built once per m and shared read-only; hot
    loops answer "is a above b" and "how many lie between a and b" from it
    by subtraction instead of scanning the ordering."""
    table = {}
    for order in all_orderings(m):
        rank = [0] * m
        for pos, alt in enumerate(order):
            rank[alt] = pos
        table[order] = tuple(rank)
    return MappingProxyType(table)


def ranks_above(order: Ordering, a: int, b: int) -> bool:
    """True iff `a` is preferred to `b` under `order`."""
    return order.index(a) < order.index(b)


def between(order: Ordering, a: int, b: int) -> tuple[int, ...]:
    """Alternatives strictly between `a` and `b`, top-down, order-agnostic
    in the pair (the bracket may be given either way up)."""
    i, j = order.index(a), order.index(b)
    if i > j:
        i, j = j, i
    return order[i + 1:j]


def relabel(order: Ordering, perm) -> Ordering:
    """Rename alternatives: `perm[a]` takes the place of `a` in the result
    (perm is a permutation given as a sequence or mapping)."""
    return tuple(perm[a] for a in order)


def letters_for(m: int) -> str:
    if m < 1:
        raise EmptyUniverseError("need at least one alternative")
    if m > 26:
        raise TextFormatError(f"no letter encoding for m={m} > 26")
    return _XYZ if m == 3 else _ABC[:m]


def encode_ordering(order: Ordering) -> str:
    """Letters best-to-worst, e.g. ``xyz`` for m=3; bit-exact."""
    letters = letters_for(len(order))
    return "".join(letters[a] for a in order)


def decode_letter(text: str, m: int) -> int:
    """The alternative named by exactly one letter, e.g. ``y`` -> 1 for m=3."""
    letters = letters_for(m)
    idx = letters.find(text) if len(text) == 1 else -1
    if idx < 0:
        raise TextFormatError(
            f"{text!r} is not one of the letters {', '.join(letters)}")
    return idx


def decode_ordering(text: str, m: int) -> Ordering:
    letters = letters_for(m)
    if len(text) != m:
        raise TextFormatError(
            f"ordering text {text!r} has length {len(text)}, expected {m}")
    out = []
    for pos_, ch in enumerate(text):
        idx = letters.find(ch)
        if idx < 0:
            raise TextFormatError(f"unknown letter {ch!r}", position=pos_)
        out.append(idx)
    ordering = tuple(out)
    if sorted(ordering) != list(range(m)):
        raise TextFormatError(f"duplicate letters in {text!r}")
    return ordering
