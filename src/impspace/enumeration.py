"""Counting, ranking and unranking of IMP programs.

Three numbering schemes live here, all exact over arbitrary-precision
integers:

* the **base** enumeration, a grammar-driven bijection between positions
  and programs built from Euclidean division and Cantor tuple pairing.
  Child positions never exceed the payload they are unpacked from, so
  every proper subprogram of ``unrank_base(k)`` sits at a position below
  ``k``;
* **fixed-length** enumerations listing exactly the programs of one
  length, ordered by grammar alternative, then by recursive left-to-right
  comparison of children (each child compared by length first, then by
  its own rank; numerals order by value);
* the **canonical** enumeration concatenating the fixed-length blocks in
  increasing length order.

Counts come from mutual recurrences over the grammar: the number of trees
of an alternative at a given length is a convolution of child counts over
all ways to split the remaining length.  Everything is memoized, so the
first query for a length pays the convolution cost and later ones are
dictionary lookups.

Trees are shared, not rebuilt.  The first time a small block is needed,
every member of that (category, length), or every child tuple of that
(children, total) split, is built once in rank order and kept in a
module-level table.  Only blocks of at most ``_TABLE_CAP`` (4,096)
entries get a table, which keeps the tables to a few megabytes; walks
over larger blocks stream their top layers and pair the shared subtrees
from the tables beneath.  Unranking inside a tabled block is a tuple
index.  Nothing is built at import.  Shared subtrees are ordinary
immutable nodes, so a program may hold one object at two places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from operator import add
from typing import Any, Callable, Iterator, Sequence

from .lang import (
    Add, And, Arith, Assign, Bool, Eq, FalseLit, If, Lt, Mul, Not, Num, Or,
    Program, Reg, Seq, Skip, Sub, TrueLit, While, arith_length, bool_length,
    digit_count, program_length, FALSE, SKIP, TRUE,
)


class PositionRangeError(ValueError):
    """Raised when a position falls outside the enumeration it indexes."""


# ---------------------------------------------------------------------------
# Grammar tables
#
# Categories: N (numerals, represented as plain ints), X (registers, also
# ints), A (arithmetic), B (boolean), P (programs).  Each non-numeral
# category lists its alternatives in grammar order; that order is the
# major sort key inside a length block.  ``cost`` is the category's own
# node contribution to the length metric (Num and Reg carry none of their
# own: the digit/bracket cost lives in N and X).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Alt:
    cost: int
    children: tuple[str, ...]
    build: Callable[..., Any]


_GRAMMAR: dict[str, tuple[_Alt, ...]] = {
    "X": (_Alt(1, ("N",), lambda n: n),),
    "A": (
        _Alt(0, ("N",), Num),
        _Alt(0, ("X",), Reg),
        _Alt(1, ("A", "A"), Add),
        _Alt(1, ("A", "A"), Sub),
        _Alt(1, ("A", "A"), Mul),
    ),
    "B": (
        _Alt(1, (), lambda: TRUE),
        _Alt(1, (), lambda: FALSE),
        _Alt(1, ("A", "A"), Eq),
        _Alt(1, ("A", "A"), Lt),
        _Alt(1, ("B",), Not),
        _Alt(1, ("B", "B"), Or),
        _Alt(1, ("B", "B"), And),
    ),
    "P": (
        _Alt(1, (), lambda: SKIP),
        _Alt(1, ("X", "A"), Assign),
        _Alt(1, ("P", "P"), Seq),
        _Alt(1, ("B", "P", "P"), If),
        _Alt(1, ("B", "P"), While),
    ),
}

_MIN_LEN = {"N": 1, "X": 2, "A": 1, "B": 1, "P": 1}


def _numeral_count(digits: int) -> int:
    if digits < 1:
        return 0
    if digits == 1:
        return 10
    return 9 * 10 ** (digits - 1)


_count_cache: dict[tuple[str, int], int] = {}
_ways_cache: dict[tuple[tuple[str, ...], int], int] = {}


def _count(cat: str, length: int) -> int:
    """Number of category members of exactly this length."""
    if length < _MIN_LEN[cat]:
        return 0
    key = (cat, length)
    cached = _count_cache.get(key)
    if cached is not None:
        return cached
    if cat == "N":
        total = _numeral_count(length)
    else:
        total = 0
        for alt in _GRAMMAR[cat]:
            if not alt.children:
                total += 1 if length == alt.cost else 0
            else:
                total += _ways(alt.children, length - alt.cost)
    _count_cache[key] = total
    return total


def _ways(children: tuple[str, ...], total: int) -> int:
    """Tuples of child trees, one per category, with lengths summing to total."""
    if not children:
        return 1 if total == 0 else 0
    key = (children, total)
    cached = _ways_cache.get(key)
    if cached is not None:
        return cached
    head, rest = children[0], children[1:]
    floor = sum(_MIN_LEN[c] for c in rest)
    acc = 0
    for head_len in range(_MIN_LEN[head], total - floor + 1):
        n = _count(head, head_len)
        if n:
            acc += n * _ways(rest, total - head_len)
    _ways_cache[key] = acc
    return acc


def count_programs(length: int) -> int:
    """How many programs have exactly this length (0 for length < 1)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _count("P", length)


_cumulative: list[int] = [0]


def cumulative_count(length: int) -> int:
    """How many programs have length at most the argument."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    while len(_cumulative) <= length:
        _cumulative.append(_cumulative[-1] + _count("P", len(_cumulative)))
    return _cumulative[length]


# ---------------------------------------------------------------------------
# Fixed-length enumeration
# ---------------------------------------------------------------------------

def _unrank_in_length(cat: str, length: int, k: int) -> Any:
    if k < 0 or k >= _count(cat, length):
        raise PositionRangeError(
            f"rank {k} out of range for {_count(cat, length)} "
            f"category-{cat} trees of length {length}")
    table = _members(cat, length)
    if table is not None:
        return table[k]
    for alt in _GRAMMAR[cat]:
        if not alt.children:
            if length == alt.cost:
                if k == 0:
                    return alt.build()
                k -= 1
            continue
        size = _ways(alt.children, length - alt.cost)
        if k < size:
            return alt.build(*_unrank_children(alt.children, length - alt.cost, k))
        k -= size
    raise AssertionError("unreachable: rank inside a counted block")


def _unrank_children(children: tuple[str, ...], total: int, k: int) -> list[Any]:
    """Invert the (length, rank) interleaved lexicographic child order."""
    out: list[Any] = []
    for i, cat in enumerate(children):
        rest = children[i + 1:]
        floor = sum(_MIN_LEN[c] for c in rest)
        for cat_len in range(_MIN_LEN[cat], total - floor + 1):
            n = _count(cat, cat_len)
            if not n:
                continue
            tail = _ways(rest, total - cat_len)
            if not tail:
                continue
            if k < n * tail:
                rank_here, k = divmod(k, tail)
                out.append(_unrank_in_length(cat, cat_len, rank_here))
                total -= cat_len
                break
            k -= n * tail
        else:
            raise AssertionError("unreachable: rank inside a counted block")
    return out


def _decompose(cat: str, value: Any) -> tuple[int, tuple[Any, ...]]:
    """Map a tree back to (alternative index, child values)."""
    if cat == "X":
        return 0, (value,)
    if cat == "A":
        match value:
            case Num(n):
                return 0, (n,)
            case Reg(i):
                return 1, (i,)
            case Add(l, r):
                return 2, (l, r)
            case Sub(l, r):
                return 3, (l, r)
            case Mul(l, r):
                return 4, (l, r)
    if cat == "B":
        match value:
            case TrueLit():
                return 0, ()
            case FalseLit():
                return 1, ()
            case Eq(l, r):
                return 2, (l, r)
            case Lt(l, r):
                return 3, (l, r)
            case Not(o):
                return 4, (o,)
            case Or(l, r):
                return 5, (l, r)
            case And(l, r):
                return 6, (l, r)
    if cat == "P":
        match value:
            case Skip():
                return 0, ()
            case Assign(t, v):
                return 1, (t, v)
            case Seq(f, s):
                return 2, (f, s)
            case If(c, t, e):
                return 3, (c, t, e)
            case While(c, b):
                return 4, (c, b)
    raise TypeError(f"not a category-{cat} value: {value!r}")


def _length_of(cat: str, value: Any) -> int:
    if cat == "N":
        return digit_count(value)
    if cat == "X":
        return 1 + digit_count(value)
    if cat == "A":
        return arith_length(value)
    if cat == "B":
        return bool_length(value)
    return program_length(value)


def _rank_in_length(cat: str, value: Any) -> int:
    if cat == "N":
        return value if value < 10 else value - 10 ** (digit_count(value) - 1)
    alt_index, kids = _decompose(cat, value)
    length = _length_of(cat, value)
    rank = 0
    for alt in _GRAMMAR[cat][:alt_index]:
        if not alt.children:
            rank += 1 if length == alt.cost else 0
        else:
            rank += _ways(alt.children, length - alt.cost)
    alt = _GRAMMAR[cat][alt_index]
    if not alt.children:
        return rank
    children = alt.children
    total = length - alt.cost
    for i, (cat_i, kid) in enumerate(zip(children, kids)):
        rest = children[i + 1:]
        kid_len = _length_of(cat_i, kid)
        for cat_len in range(_MIN_LEN[cat_i], kid_len):
            rank += _count(cat_i, cat_len) * _ways(rest, total - cat_len)
        rank += _rank_in_length(cat_i, kid) * _ways(rest, total - kid_len)
        total -= kid_len
    return rank


def _iter_in_length(cat: str, length: int, start: int = 0) -> Iterator[Any]:
    """Yield category members of one length in rank order, from ``start``.

    Equivalent to unranking start, start+1, ... in turn, but amortizes the
    tree construction across the whole walk.
    """
    table = _members(cat, length)
    if table is not None:
        return iter(table[start:])
    return _stream_members(cat, length, start)


def _stream_members(cat: str, length: int, start: int) -> Iterator[Any]:
    for alt in _GRAMMAR[cat]:
        if not alt.children:
            if length == alt.cost:
                if start == 0:
                    yield alt.build()
                else:
                    start -= 1
            continue
        size = _ways(alt.children, length - alt.cost)
        if start >= size:
            start -= size
            continue
        yield from starmap(alt.build, _iter_children(
            alt.children, length - alt.cost, start))
        start = 0


def _iter_children(children: tuple[str, ...], total: int,
                   start: int = 0) -> Iterator[tuple[Any, ...]]:
    if len(children) == 1:
        # the tuples of a single child are its members, one at a time
        return zip(_iter_in_length(children[0], total, start))
    table = _child_tuples(children, total)
    if table is not None:
        return iter(table[start:])
    return _stream_children(children, total, start)


def _stream_children(children: tuple[str, ...], total: int,
                     start: int) -> Iterator[tuple[Any, ...]]:
    head, rest = children[0], children[1:]
    floor = sum(_MIN_LEN[c] for c in rest)
    for head_len in range(_MIN_LEN[head], total - floor + 1):
        n = _count(head, head_len)
        if not n:
            continue
        tail = _ways(rest, total - head_len)
        if not tail:
            continue
        if start >= n * tail:
            start -= n * tail
            continue
        head_start, tail_start = divmod(start, tail)
        for head_val in _iter_in_length(head, head_len, head_start):
            yield from map(add, repeat((head_val,)),
                           _iter_children(rest, total - head_len, tail_start))
            tail_start = 0
        start = 0


# ---------------------------------------------------------------------------
# Shared subtree tables (see the module docstring)
#
# The cap bounds every table.  At 4,096 a length-7 sweep keeps about
# 10,500 table entries and peaks at 28 MB; raised to 2**18 it would also
# table the 77,514 boolean trees of length 5 and the larger splits, about
# 315,000 entries, and peak at 44 MB.
# Numerals need no table: their block is a ``range``.
# ---------------------------------------------------------------------------

_TABLE_CAP = 4096

_member_tables: dict[tuple[str, int], Sequence[Any] | None] = {}
_child_tables: dict[tuple[tuple[str, ...], int],
                    tuple[tuple[Any, ...], ...] | None] = {}


def _members(cat: str, length: int) -> Sequence[Any] | None:
    """All category members of one length in rank order, or None if too many."""
    key = (cat, length)
    if key in _member_tables:
        return _member_tables[key]
    if cat == "N":
        first = 10 ** (length - 1) if length > 1 else 0
        table: Sequence[Any] | None = range(first, first + _count("N", length))
    elif _count(cat, length) <= _TABLE_CAP:
        table = tuple(_stream_members(cat, length, 0))
    else:
        table = None
    _member_tables[key] = table
    return table


def _child_tuples(children: tuple[str, ...],
                  total: int) -> tuple[tuple[Any, ...], ...] | None:
    """All child tuples of one split in rank order, or None if too many."""
    key = (children, total)
    if key in _child_tables:
        return _child_tables[key]
    table = None
    if _ways(children, total) <= _TABLE_CAP:
        table = tuple(_stream_children(children, total, 0))
    _child_tables[key] = table
    return table


def unrank_fixed_length(length: int, k: int) -> Program:
    """The k-th program of exactly this length, 0-based."""
    if k < 0 or k >= count_programs(length):
        raise PositionRangeError(
            f"rank {k} out of range: {count_programs(length)} programs "
            f"of length {length}")
    return _unrank_in_length("P", length, k)


def rank_fixed_length(p: Program) -> int:
    """Rank of a program within its own length block; inverse of unrank."""
    return _rank_in_length("P", p)


def iter_fixed_length(length: int, start: int = 0) -> Iterator[Program]:
    """All programs of one length in rank order, starting at rank ``start``."""
    if start < 0:
        raise PositionRangeError(f"start rank {start} is negative")
    return _iter_in_length("P", length, start)


# ---------------------------------------------------------------------------
# Canonical (sorted) enumeration
# ---------------------------------------------------------------------------

def _length_at(k: int) -> int:
    """The program length whose block contains canonical position k."""
    length = 1
    while cumulative_count(length) <= k:
        length += 1
    return length


def unrank_canonical(k: int) -> Program:
    """The k-th program of all, sorted by length then by block rank."""
    if k < 0:
        raise PositionRangeError(f"position {k} is negative")
    length = _length_at(k)
    return _unrank_in_length("P", length, k - cumulative_count(length - 1))


def rank_canonical(p: Program) -> int:
    """Canonical position of a program; inverse of unrank_canonical."""
    length = program_length(p)
    return cumulative_count(length - 1) + _rank_in_length("P", p)


def iter_canonical(start: int = 0, stop: int | None = None) -> Iterator[Program]:
    """Programs in canonical order for positions [start, stop)."""
    if start < 0:
        raise PositionRangeError(f"position {start} is negative")
    if stop is not None and stop <= start:
        return
    length = _length_at(start)
    remaining = None if stop is None else stop - start
    offset = start - cumulative_count(length - 1)
    while True:
        block = _iter_in_length("P", length, offset)
        if remaining is None:
            yield from block
        else:
            yield from islice(block, remaining)
            remaining -= count_programs(length) - offset
            if remaining <= 0:
                return
        length += 1
        offset = 0


# ---------------------------------------------------------------------------
# Base enumeration (Cantor pairing)
# ---------------------------------------------------------------------------

def _pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def _pack(values: tuple[int, ...]) -> int:
    acc = values[0]
    for v in values[1:]:
        acc = _pair(acc, v)
    return acc


def _unpack(z: int, arity: int) -> tuple[int, ...]:
    out = [z]
    for _ in range(arity - 1):
        a, b = _unpair(out[0])
        out[0] = a
        out.insert(1, b)
    return tuple(out)


# Alternatives with children, in grammar order; leaves are handled by the
# offsets below.  Numerals and registers map to their own value.
_BASE_COMPOSITES: dict[str, tuple[_Alt, ...]] = {
    cat: tuple(alt for alt in alts if alt.children)
    for cat, alts in _GRAMMAR.items()
}
_BASE_LEAVES: dict[str, tuple[_Alt, ...]] = {
    cat: tuple(alt for alt in alts if not alt.children)
    for cat, alts in _GRAMMAR.items()
}


def _unrank_base(cat: str, k: int) -> Any:
    if cat in ("N", "X"):
        return k
    leaves = _BASE_LEAVES[cat]
    if k < len(leaves):
        return leaves[k].build()
    payload, which = divmod(k - len(leaves), len(_BASE_COMPOSITES[cat]))
    alt = _BASE_COMPOSITES[cat][which]
    parts = _unpack(payload, len(alt.children))
    return alt.build(*(_unrank_base(c, p) for c, p in zip(alt.children, parts)))


def _rank_base(cat: str, value: Any) -> int:
    if cat in ("N", "X"):
        return value
    alt_index, kids = _decompose(cat, value)
    alts = _GRAMMAR[cat]
    leaves_before = sum(1 for a in alts[:alt_index] if not a.children)
    if not alts[alt_index].children:
        return leaves_before
    composites_before = sum(1 for a in alts[:alt_index] if a.children)
    payload = _pack(tuple(
        _rank_base(c, kid)
        for c, kid in zip(alts[alt_index].children, kids)))
    return (len(_BASE_LEAVES[cat])
            + payload * len(_BASE_COMPOSITES[cat]) + composites_before)


def unrank_base(k: int) -> Program:
    """Grammar-pairing bijection from positions onto all programs.

    Positions of proper subprograms are strictly smaller than the
    position of the program containing them.
    """
    if k < 0:
        raise PositionRangeError(f"position {k} is negative")
    return _unrank_base("P", k)


def rank_base(p: Program) -> int:
    """Position of a program in the base enumeration; inverse of unrank_base."""
    return _rank_base("P", p)
