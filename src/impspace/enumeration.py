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

Counts and ranks come from one recurrence over the grammar, the rank
offsets (Nijenhuis and Wilf, *Combinatorial Algorithms*, 1978).  Every
block gets one memoized table of offsets: the start rank of each
non-empty alternative of a (category, length), and the start rank, head
length and tail count of each non-empty split of a (children, total),
each list of starts ending with the block size.  A count is that last
offset, and the tail counts are the counts of the shorter blocks beneath,
so the first query for a length pays the convolution over all ways to
split it once and later ones are lookups.

Trees are shared, not rebuilt.  The first time a small block is needed,
every member of that (category, length), or every child tuple of that
(children, total) split, is built once in rank order and memoized as a
table.  Only blocks of at most ``_TABLE_CAP`` (4,096) entries get a
table, which keeps the tables to a few megabytes; walks over larger
blocks stream their top layers and pair the shared subtrees from the
tables beneath.  Such a walk chains one C iterator per grammar
alternative, or per value of a split's first child, so a Python
generator resumes once per such run, not once per tree.  Shared
subtrees are ordinary immutable nodes, so a program may hold one object
at two places.

Unranking inside a tabled block is a tuple index; outside one it
descends the grammar with one ``bisect_right`` over the offsets and one
``divmod`` of the rank per level.  Walks started at a rank find their
first alternative and split by the same bisection.  Ranking climbs back
up: each subtree returns its rank together with its length, and its
parent adds the offsets of that length.  The descent, the climb and
both directions of the base numbering run over an explicit stack, so
any program the parser accepts ranks and unranks, however deeply
nested.  No table or offset is built at import.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, repeat, starmap
from operator import add
from typing import Any, Callable, Iterator, Sequence

from .lang import (
    Add, And, Assign, Eq, If, Lt, Mul, Not, Num, Or, Program, Reg, Seq, Sub,
    While, digit_count, FALSE, SKIP, TRUE,
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


def _count(cat: str, length: int) -> int:
    """Number of category members of exactly this length."""
    if length < _MIN_LEN[cat]:
        return 0
    if cat == "N":
        return 10 if length == 1 else 9 * 10 ** (length - 1)
    return _alt_offsets(cat, length)[0][-1]


def _ways(children: tuple[str, ...], total: int) -> int:
    """Tuples of child trees, one per category, with lengths summing to total."""
    if not children:
        return 1 if total == 0 else 0
    return _split_offsets(children, total)[0][-1]


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
# Rank offsets (see the module docstring)
#
# Each list of start ranks ends with the block size, so the last start is
# the count and ``bisect_right(starts, k) - 1`` picks the part of any
# in-range rank k.
# ---------------------------------------------------------------------------

_Ints = tuple[int, ...]


@cache
def _alt_offsets(cat: str, length: int) -> tuple[_Ints, _Ints]:
    """Start ranks and grammar indices of the non-empty alternatives."""
    starts, indices = [0], []
    for i, alt in enumerate(_GRAMMAR[cat]):
        size = _ways(alt.children, length - alt.cost)
        if size:
            starts.append(starts[-1] + size)
            indices.append(i)
    return tuple(starts), tuple(indices)


@cache
def _split_offsets(children: tuple[str, ...],
                   total: int) -> tuple[_Ints, _Ints, _Ints]:
    """Start ranks, head lengths and tail counts of the non-empty splits
    of a child tuple; a split's ranks run head-major."""
    head, rest = children[0], children[1:]
    floor = sum(_MIN_LEN[c] for c in rest)
    starts, head_lens, tails = [0], [], []
    for head_len in range(_MIN_LEN[head], total - floor + 1):
        n = _count(head, head_len)
        tail = _ways(rest, total - head_len)
        if n and tail:
            starts.append(starts[-1] + n * tail)
            head_lens.append(head_len)
            tails.append(tail)
    return tuple(starts), tuple(head_lens), tuple(tails)


# ---------------------------------------------------------------------------
# Fixed-length enumeration
# ---------------------------------------------------------------------------

def _unfold_tree(key: tuple, expand: Callable[[tuple], tuple]) -> Any:
    """Build a tree top-down over an explicit stack, so that a rank of any
    depth unranks without deep recursion; the inverse of ``_fold_tree``.

    ``expand(key)`` returns ``(build, parts)``: the node at ``key`` is
    ``build(*children)``, and ``parts`` lists its children in order, each
    either a finished subtree or the key of one still to build.  Keys are
    tuples and no subtree is, so the type tells them apart.
    """
    build, parts = expand(key)
    parts.reverse()  # so that pop() takes the children in order
    built: list[Any] = []
    # the nodes above the current one: (build, children built, parts left)
    stack: list[tuple[Callable[..., Any], list[Any], list[Any]]] = []
    while True:
        while parts:
            part = parts.pop()
            if type(part) is tuple:  # descend into the child
                stack.append((build, built, parts))
                build, parts = expand(part)
                parts.reverse()
                built = []
            else:
                built.append(part)
        value = build(*built)
        if not stack:
            return value
        build, built, parts = stack.pop()
        built.append(value)


def _expand_ranked(key: tuple[str, int, int]) -> tuple:
    """One node of ``_unrank_in_length``: the rank picks an alternative,
    and the rest of it splits into one rank per child, head first, until
    a tabled tail of children ends the split."""
    cat, length, k = key
    starts, indices = _alt_offsets(cat, length)
    i = bisect_right(starts, k) - 1
    alt = _GRAMMAR[cat][indices[i]]
    children, total, k = alt.children, length - alt.cost, k - starts[i]
    parts = []
    while children:
        if len(children) == 1:
            head_len, head_rank = total, k
        else:
            table = _child_tuples(children, total)
            if table is not None:
                parts.extend(table[k])
                break
            starts, head_lens, tails = _split_offsets(children, total)
            i = bisect_right(starts, k) - 1
            head_len = head_lens[i]
            head_rank, k = divmod(k - starts[i], tails[i])
        # a child in a tabled block is finished, any other is a key
        table = _members(children[0], head_len)
        parts.append((children[0], head_len, head_rank) if table is None
                     else table[head_rank])
        children, total = children[1:], total - head_len
    return alt.build, parts


def _unrank_in_length(cat: str, length: int, k: int) -> Any:
    if k < 0 or k >= _count(cat, length):
        raise PositionRangeError(
            f"rank {k} out of range for {_count(cat, length)} "
            f"category-{cat} trees of length {length}")
    table = _members(cat, length)
    if table is not None:
        return table[k]
    return _unfold_tree((cat, length, k), _expand_ranked)


def _alt_of_type(alts: tuple[_Alt, ...],
                 ) -> dict[type, tuple[int, tuple[str, ...]]]:
    """Node type -> (alternative index, child field names) of one category.

    A composite alternative builds its node class, a leaf its singleton;
    a node's fields follow the grammar's child order.
    """
    table = {}
    for i, alt in enumerate(alts):
        cls = alt.build if alt.children else type(alt.build())
        table[cls] = (i, cls.__match_args__)
    return table


_ALT_OF_TYPE = {cat: _alt_of_type(_GRAMMAR[cat]) for cat in "ABP"}


def _decompose(cat: str, value: Any) -> tuple[int, tuple[Any, ...]]:
    """Map a tree back to (alternative index, child values)."""
    if cat == "X":
        return 0, (value,)
    entry = _ALT_OF_TYPE[cat].get(type(value))
    if entry is None:
        raise TypeError(f"not a category-{cat} value: {value!r}")
    index, fields = entry
    return index, tuple(getattr(value, f) for f in fields)


def _fold_tree(cat: str, value: Any, atoms: str, atom: Callable[[Any], Any],
               join: Callable[[str, int, list], Any]) -> Any:
    """Fold a tree bottom-up over an explicit stack, so that a tree of any
    depth the parser accepts folds without deep recursion.

    A value of a category in ``atoms`` becomes ``atom(value)``; any other
    node becomes ``join(cat, alternative index, parts)``, with ``parts``
    the folds of its children in grammar order.
    """
    done: list[Any] = []  # folds of finished subtrees, in visit order
    todo: list[tuple[str, Any, int]] = [(cat, value, -1)]
    while todo:
        cat, value, alt_index = todo.pop()
        if alt_index >= 0:  # every child is folded: join them
            cut = len(done) - len(_GRAMMAR[cat][alt_index].children)
            parts = done[cut:]
            del done[cut:]
            done.append(join(cat, alt_index, parts))
        elif cat in atoms:
            done.append(atom(value))
        else:
            alt_index, kids = _decompose(cat, value)
            todo.append((cat, None, alt_index))
            children = _GRAMMAR[cat][alt_index].children
            todo.extend(zip(reversed(children), reversed(kids), repeat(-1)))
    return done[0]


def _rank_numeral(value: int) -> tuple[int, int]:
    length = digit_count(value)
    return (value if value < 10 else value - 10 ** (length - 1)), length


def _join_rank(cat: str, alt_index: int,
               parts: list[tuple[int, int]]) -> tuple[int, int]:
    """(rank, length) of a node from the (rank, length) of its children."""
    alt = _GRAMMAR[cat][alt_index]
    rank = total = 0
    # a child tuple ranks head-major: fold from the last child back
    for i in range(len(parts) - 1, -1, -1):
        head_rank, head_len = parts[i]
        total += head_len
        starts, head_lens, tails = _split_offsets(alt.children[i:], total)
        j = head_lens.index(head_len)
        rank = starts[j] + head_rank * tails[j] + rank
    length = total + alt.cost
    starts, indices = _alt_offsets(cat, length)
    return starts[indices.index(alt_index)] + rank, length


def _rank_in_length(cat: str, value: Any) -> tuple[int, int]:
    """Rank of a tree within its length block, and that length."""
    return _fold_tree(cat, value, "N", _rank_numeral, _join_rank)


def _iter_in_length(cat: str, length: int, start: int = 0) -> Iterator[Any]:
    """Yield category members of one length in rank order, from ``start``.

    Equivalent to unranking start, start+1, ... in turn, but amortizes the
    tree construction across the whole walk.
    """
    table = _members(cat, length)
    if table is not None:
        return iter(table[start:])
    return chain.from_iterable(_alt_runs(cat, length, start))


def _alt_runs(cat: str, length: int, start: int) -> Iterator[Iterator[Any]]:
    """One iterator per alternative, over its members from ``start`` on."""
    starts, indices = _alt_offsets(cat, length)
    if start >= starts[-1]:
        return
    first = bisect_right(starts, start) - 1
    start -= starts[first]
    for i in indices[first:]:
        alt = _GRAMMAR[cat][i]
        if alt.children:
            yield starmap(alt.build, _iter_children(
                alt.children, length - alt.cost, start))
        else:
            yield (alt.build(),)
        start = 0


def _iter_children(children: tuple[str, ...], total: int,
                   start: int = 0) -> Iterator[tuple[Any, ...]]:
    if len(children) == 1:
        # the tuples of a single child are its members, one at a time
        return zip(_iter_in_length(children[0], total, start))
    table = _child_tuples(children, total)
    if table is not None:
        return iter(table[start:])
    return chain.from_iterable(_head_runs(children, total, start))


def _head_runs(children: tuple[str, ...], total: int,
               start: int) -> Iterator[Iterator[tuple[Any, ...]]]:
    """One iterator per head value, over the child tuples it begins."""
    starts, head_lens, tails = _split_offsets(children, total)
    if start >= starts[-1]:
        return
    first = bisect_right(starts, start) - 1
    head_start, tail_start = divmod(start - starts[first], tails[first])
    head, rest = children[0], children[1:]
    for head_len in head_lens[first:]:
        for head_val in _iter_in_length(head, head_len, head_start):
            yield map(add, repeat((head_val,)),
                      _iter_children(rest, total - head_len, tail_start))
            tail_start = 0
        head_start = 0


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


@cache
def _members(cat: str, length: int) -> Sequence[Any] | None:
    """All category members of one length in rank order, or None if too many."""
    if cat == "N":
        first = 10 ** (length - 1) if length > 1 else 0
        return range(first, first + _count("N", length))
    if _count(cat, length) <= _TABLE_CAP:
        return tuple(chain.from_iterable(_alt_runs(cat, length, 0)))
    return None


@cache
def _child_tuples(children: tuple[str, ...],
                  total: int) -> tuple[tuple[Any, ...], ...] | None:
    """All child tuples of one split in rank order, or None if too many."""
    if _ways(children, total) <= _TABLE_CAP:
        return tuple(chain.from_iterable(_head_runs(children, total, 0)))
    return None


def unrank_fixed_length(length: int, k: int) -> Program:
    """The k-th program of exactly this length, 0-based."""
    if k < 0 or k >= count_programs(length):
        raise PositionRangeError(
            f"rank {k} out of range: {count_programs(length)} programs "
            f"of length {length}")
    return _unrank_in_length("P", length, k)


def rank_fixed_length(p: Program) -> int:
    """Rank of a program within its own length block; inverse of unrank."""
    return _rank_in_length("P", p)[0]


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
    while _cumulative[-1] <= k:
        cumulative_count(len(_cumulative))
    # the first length whose cumulative count passes k; the empty
    # length-2 block repeats length 1's count, so bisect_right skips it
    return bisect_right(_cumulative, k)


def unrank_canonical(k: int) -> Program:
    """The k-th program of all, sorted by length then by block rank."""
    if k < 0:
        raise PositionRangeError(f"position {k} is negative")
    length = _length_at(k)
    return _unrank_in_length("P", length, k - _cumulative[length - 1])


def rank_canonical(p: Program) -> int:
    """Canonical position of a program; inverse of unrank_canonical."""
    rank, length = _rank_in_length("P", p)
    return cumulative_count(length - 1) + rank


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


def _expand_base(key: tuple[str, int]) -> tuple:
    """One node of the base unranking: leaves come first, and a
    composite's payload unpacks into one position per child; numerals
    and registers are their own position."""
    cat, k = key
    leaves = _BASE_LEAVES[cat]
    if k < len(leaves):
        return leaves[k].build, []
    payload, which = divmod(k - len(leaves), len(_BASE_COMPOSITES[cat]))
    alt = _BASE_COMPOSITES[cat][which]
    parts = _unpack(payload, len(alt.children))
    return alt.build, [p if c in "NX" else (c, p)
                       for c, p in zip(alt.children, parts)]


def _join_base(cat: str, alt_index: int, parts: list[int]) -> int:
    """Base position of a node from the base positions of its children."""
    alts = _GRAMMAR[cat]
    leaves_before = sum(1 for a in alts[:alt_index] if not a.children)
    if not parts:
        return leaves_before
    composites_before = sum(1 for a in alts[:alt_index] if a.children)
    return (len(_BASE_LEAVES[cat])
            + _pack(tuple(parts)) * len(_BASE_COMPOSITES[cat])
            + composites_before)


def unrank_base(k: int) -> Program:
    """Grammar-pairing bijection from positions onto all programs.

    Positions of proper subprograms are strictly smaller than the
    position of the program containing them.
    """
    if k < 0:
        raise PositionRangeError(f"position {k} is negative")
    return _unfold_tree(("P", k), _expand_base)


def rank_base(p: Program) -> int:
    """Position of a program in the base enumeration; inverse of unrank_base."""
    return _fold_tree("P", p, "NX", lambda index: index, _join_base)
