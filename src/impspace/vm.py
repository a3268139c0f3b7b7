"""Small-step interpreter for IMP with metered execution.

Programs run against a store mapping register indexes to natural numbers
(absent registers read as 0; the store keeps only nonzero entries).  Every
run is metered the same fixed way: a statement transition costs one step,
and resolving the expression it depends on costs one step per expression
node, operators and leaves alike.  A run either empties its control stack
within the step budget (halted) or is cut off with ``steps`` pinned to the
budget.

``run`` applies the budget literally, always through the interpreter
loop: it is the reference.  ``classify`` produces the same answer but
watches for repeated machine configurations at ``while`` heads, which
lets it bail out of tight loops long before the budget is spent, and
answers a lone ``x[i] := A`` (most of the program space) in one step.
``detect_divergence`` is the same machine with no budget at all, and a
cap on the configurations it remembers.  Otherwise all three share one
interpreter loop.

A run builds its per-node cost cache and its set of configurations at
the first ``while`` it meets.  Before a loop no statement repeats, so a
loop-free run (most of the program space) evaluates each cost once and
keeps neither structure.

``run`` and ``classify`` answer with a ``RunResult``, a named tuple
``(halted, steps, store)`` built by the C tuple constructor, so making
one runs no Python frame.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .lang import (
    Add, Arith, Assign, Bool, Eq, FalseLit, If, Lt, Not, Num, Or, Program,
    Reg, Seq, Skip, Sub, TrueLit, While, nat_to_string,
)


class RunResult(NamedTuple):
    """Outcome of one metered execution; not hashable (the store is a dict).

    A named tuple: it unpacks as ``(halted, steps, store)`` and compares
    equal to that plain tuple.
    """

    halted: bool
    steps: int
    store: dict[int, int]

    @property
    def output(self) -> str:
        """Bitstring output; defined (possibly empty) only for halted runs."""
        if not self.halted:
            return ""
        return output_string(self.store)


# builds a result in C, with no Python frame per run
_new_result = tuple.__new__


def output_string(store: dict[int, int]) -> str:
    """Concatenated register codes in ascending index order.

    Each value contributes its canonical bitstring; zero encodes to the
    empty string, so untouched registers are invisible.
    """
    if not store:
        return ""
    if len(store) == 1:
        (value,) = store.values()
        return nat_to_string(value)
    return "".join(nat_to_string(v) for _, v in sorted(store.items()))


def expression_cost(expr: Arith | Bool) -> int:
    """Steps charged for evaluating an expression: one per node (no
    short-circuiting)."""
    t = type(expr)
    if t in (Num, Reg, TrueLit, FalseLit):
        return 1
    if t is Not:
        return 1 + expression_cost(expr.operand)
    return 1 + expression_cost(expr.left) + expression_cost(expr.right)


def eval_arith(a: Arith, store: dict[int, int]) -> int:
    t = type(a)
    if t is Num:
        return a.value
    if t is Reg:
        return store.get(a.index, 0)
    left = eval_arith(a.left, store)
    right = eval_arith(a.right, store)
    if t is Add:
        return left + right
    if t is Sub:
        return left - right if left > right else 0
    return left * right


def eval_bool(b: Bool, store: dict[int, int]) -> bool:
    t = type(b)
    if t is TrueLit:
        return True
    if t is FalseLit:
        return False
    if t is Not:
        return not eval_bool(b.operand, store)
    if t is Eq:
        return eval_arith(b.left, store) == eval_arith(b.right, store)
    if t is Lt:
        return eval_arith(b.left, store) < eval_arith(b.right, store)
    left = eval_bool(b.left, store)
    right = eval_bool(b.right, store)
    return (left or right) if t is Or else (left and right)


class Divergence(enum.Enum):
    HALTS = "halts"
    DIVERGES = "diverges"
    UNKNOWN = "unknown"


def _execute(program: Program, budget: int | None, cycle_cap: int | None,
             ) -> tuple[bool, int, dict[int, int], bool]:
    """Drive the machine; returns (halted, steps, store, cycled).

    The control stack holds statements still to run, innermost first.  A
    transition whose cost would push ``steps`` past the budget does not
    fire: the run ends with steps equal to the budget and the store as it
    stood.  ``budget=None`` runs without a limit.

    Unless ``cycle_cap`` is None, the configuration (stack plus store) is
    remembered each time a ``while`` head is about to run; seeing one
    twice proves the run never ends.  Only ``while`` heads need checking:
    code without loops always halts, so an endless run keeps returning to
    some loop head, and a run that repeats a configuration repeats one
    there.  A new configuration met with ``cycle_cap`` already remembered
    ends the run unresolved (neither halted nor cycled).

    Expression costs are cached per node, and configurations remembered,
    only from the first ``while`` on; until then each statement runs once.
    """
    limit = math.inf if budget is None else budget
    stack: list[Program] = [program]
    store: dict[int, int] = {}
    steps = 0
    cost_cache: dict[int, int] | None = None
    seen: set[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] | None = None

    while stack:
        node = stack.pop()
        t = type(node)
        if t is Skip:
            continue
        if t is Seq:
            if steps + 1 > limit:
                return False, budget, store, False
            steps += 1
            stack.append(node.second)
            stack.append(node.first)
            continue
        if t is Assign:
            if cost_cache is None:
                cost = 1 + expression_cost(node.value)
            else:
                cost = cost_cache.get(id(node))
                if cost is None:
                    cost = cost_cache[id(node)] = 1 + expression_cost(node.value)
            if steps + cost > limit:
                return False, budget, store, False
            steps += cost
            value = eval_arith(node.value, store)
            if value:
                store[node.target] = value
            else:
                store.pop(node.target, None)
            continue
        if t is While:
            if cost_cache is None:
                cost_cache, seen = {}, set()
            if cycle_cap is not None:
                key = (tuple(map(id, stack)) + (id(node),),
                       tuple(sorted(store.items())))
                if key in seen:
                    return False, budget, store, True
                if len(seen) >= cycle_cap:
                    return False, steps, store, False
                seen.add(key)
            cost = cost_cache.get(id(node))
        else:  # If
            cost = None if cost_cache is None else cost_cache.get(id(node))
        if cost is None:
            cost = 1 + expression_cost(node.cond)
            if cost_cache is not None:
                cost_cache[id(node)] = cost
        if steps + cost > limit:
            return False, budget, store, False
        steps += cost
        if t is If:
            stack.append(node.then if eval_bool(node.cond, store) else node.orelse)
        else:  # While
            if eval_bool(node.cond, store):
                stack.append(node)
                stack.append(node.body)
    return True, steps, store, False


def run(program: Program, budget: int) -> RunResult:
    """Execute under a hard step budget.

    Halted runs report their true step count (at most the budget);
    cut-off runs report steps equal to the budget with the store frozen
    at the moment the budget ran out.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    halted, steps, store, _ = _execute(program, budget, None)
    return _new_result(RunResult, (halted, steps, store))


def classify(program: Program, budget: int) -> RunResult:
    """Like ``run`` but with early loop detection.

    A repeated configuration at a ``while`` head proves the program never
    halts, so the result can be reported without grinding out the
    remaining budget.  The halted flag and step count always match ``run``
    exactly; for a run cut short this way the store is the one seen at
    detection time rather than at budget exhaustion, and the output (empty
    either way) is unaffected.  Every configuration is remembered: each
    ``while`` head costs at least 2 steps, so a run under this budget
    meets at most ``budget // 2 + 1`` of them and never reaches a cap of
    ``budget + 1``.

    A program that is one ``x[i] := A`` skips the loop: it costs
    ``1 + expression_cost(A)`` and stores the value ``A`` takes in the
    empty store, or, over the budget, is cut off with the store empty.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if type(program) is Assign:
        # a leaf costs 1 and reads as its numeral or as an unset register
        a, t = program.value, type(program.value)
        cost = 2 if t is Num or t is Reg else 1 + expression_cost(a)
        if cost > budget:
            return _new_result(RunResult, (False, budget, {}))
        v = a.value if t is Num else 0 if t is Reg else eval_arith(a, {})
        store = {program.target: v} if v else {}
        return _new_result(RunResult, (True, cost, store))
    halted, steps, store, _ = _execute(program, budget, budget + 1)
    return _new_result(RunResult, (halted, steps, store))


def detect_divergence(program: Program,
                      state_cap: int = 100_000) -> Divergence:
    """Decide halting where feasible, without a step budget.

    Runs until the program halts, a configuration repeats at a ``while``
    head (a proof of divergence), or ``state_cap`` distinct ``while``-head
    configurations have been seen, in which case the answer is UNKNOWN.
    """
    halted, _, _, cycled = _execute(program, None, state_cap)
    if halted:
        return Divergence.HALTS
    return Divergence.DIVERGES if cycled else Divergence.UNKNOWN
