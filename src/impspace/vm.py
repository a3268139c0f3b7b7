"""Small-step interpreter for IMP with metered execution.

Programs run against a store mapping register indexes to natural numbers
(absent registers read as 0; the store keeps only nonzero entries).  Every
run is metered: a statement transition costs one step, and resolving the
expression it depends on costs one step per expression node, operators and
leaves alike.  A run either empties its control stack within the step
budget (halted) or is cut off with ``steps`` pinned to the budget.

``run`` applies the budget literally.  ``classify`` produces the same
halted/steps answer but additionally watches for repeated machine
configurations at ``while`` heads, which lets it bail out of tight loops
long before the budget is spent.  ``detect_divergence`` is the same
machine with no budget at all.  All three share one interpreter loop.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .lang import (
    Add, And, Arith, Assign, Bool, Eq, FalseLit, If, Lt, Mul, Not, Num, Or,
    Program, Reg, Seq, Skip, Sub, TrueLit, While, nat_to_string,
)


@dataclass(frozen=True, slots=True)
class CostModel:
    """Step charges: per statement transition, per operator, per leaf."""

    statement: int = 1
    operator: int = 1
    atom: int = 1


DEFAULT_COSTS = CostModel()


@dataclass(frozen=True, eq=True, slots=True)
class RunResult:
    """Outcome of one metered execution; not hashable (the store is a dict)."""

    halted: bool
    steps: int
    store: dict[int, int]

    @property
    def output(self) -> str:
        """Bitstring output; defined (possibly empty) only for halted runs."""
        if not self.halted:
            return ""
        return output_string(self.store)


def output_string(store: dict[int, int]) -> str:
    """Concatenated register codes in ascending index order.

    Each value contributes its canonical bitstring; zero encodes to the
    empty string, so untouched registers are invisible.
    """
    return "".join(nat_to_string(v) for _, v in sorted(store.items()))


def expression_cost(expr: Arith | Bool, costs: CostModel = DEFAULT_COSTS) -> int:
    """Steps charged for evaluating an expression (no short-circuiting)."""
    t = type(expr)
    if t in (Num, Reg, TrueLit, FalseLit):
        return costs.atom
    if t is Not:
        return costs.operator + expression_cost(expr.operand, costs)
    return (costs.operator + expression_cost(expr.left, costs)
            + expression_cost(expr.right, costs))


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


def _execute(program: Program, budget: int | None, costs: CostModel,
             detect_cycles: bool, state_cap: int | None,
             ) -> tuple[bool, int, dict[int, int], bool]:
    """Drive the machine; returns (halted, steps, store, cycled).

    The control stack holds statements still to run, innermost first.  A
    transition whose cost would push ``steps`` past the budget does not
    fire: the run ends with steps equal to the budget and the store as it
    stood.  ``budget=None`` runs without a limit.

    With ``detect_cycles`` the configuration (stack plus store) is
    remembered each time a ``while`` head is about to run; seeing one
    twice proves the run never ends.  Only ``while`` heads need checking:
    code without loops always halts, so an endless run keeps returning to
    some loop head, and a run that repeats a configuration repeats one
    there.  Once ``state_cap`` configurations are remembered, checking
    stops; an unlimited run then ends unresolved (neither halted nor
    cycled) rather than running on blind.
    """
    limit = math.inf if budget is None else budget
    stack: list[Program] = [program]
    store: dict[int, int] = {}
    steps = 0
    cost_cache: dict[int, int] = {}
    seen: set[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] | None
    seen = set() if detect_cycles else None

    while stack:
        node = stack.pop()
        t = type(node)
        if t is Skip:
            continue
        if t is Seq:
            if steps + costs.statement > limit:
                return False, budget, store, False
            steps += costs.statement
            stack.append(node.second)
            stack.append(node.first)
            continue
        if t is Assign:
            cost = cost_cache.get(id(node))
            if cost is None:
                cost = costs.statement + expression_cost(node.value, costs)
                cost_cache[id(node)] = cost
            if steps + cost > limit:
                return False, budget, store, False
            steps += cost
            value = eval_arith(node.value, store)
            if value:
                store[node.target] = value
            else:
                store.pop(node.target, None)
            continue
        if t is While and seen is not None:
            key = (tuple(map(id, stack)) + (id(node),),
                   tuple(sorted(store.items())))
            if key in seen:
                return False, budget, store, True
            if state_cap is not None and len(seen) >= state_cap:
                if budget is None:
                    return False, steps, store, False
                seen = None
            else:
                seen.add(key)
        cost = cost_cache.get(id(node))
        if cost is None:
            cost = costs.statement + expression_cost(node.cond, costs)
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


def run(program: Program, budget: int,
        costs: CostModel = DEFAULT_COSTS) -> RunResult:
    """Execute under a hard step budget.

    Halted runs report their true step count (at most the budget);
    cut-off runs report steps equal to the budget with the store frozen
    at the moment the budget ran out.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    halted, steps, store, _ = _execute(program, budget, costs, False, None)
    return RunResult(halted, steps, store)


def classify(program: Program, budget: int, costs: CostModel = DEFAULT_COSTS,
             state_cap: int | None = None) -> RunResult:
    """Like ``run`` but with early loop detection.

    A repeated configuration at a ``while`` head proves the program never
    halts, so the result can be reported without grinding out the
    remaining budget.  The halted flag and step count always match ``run``
    exactly; for a run cut short this way the store is the one seen at
    detection time rather than at budget exhaustion, and the output (empty
    either way) is unaffected.  ``state_cap`` bounds the number of
    remembered ``while``-head configurations; past it the function
    degrades to plain budgeted execution.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    halted, steps, store, _ = _execute(program, budget, costs, True, state_cap)
    return RunResult(halted, steps, store)


def detect_divergence(program: Program,
                      state_cap: int = 100_000) -> Divergence:
    """Decide halting where feasible, without a step budget.

    Runs until the program halts, a configuration repeats at a ``while``
    head (a proof of divergence), or ``state_cap`` distinct ``while``-head
    configurations have been seen, in which case the answer is UNKNOWN.
    """
    halted, _, _, cycled = _execute(program, None, DEFAULT_COSTS, True,
                                    state_cap)
    if halted:
        return Divergence.HALTS
    return Divergence.DIVERGES if cycled else Divergence.UNKNOWN
