"""Interpreter tests: semantics, step accounting, budgets, loop detection."""

import random

import pytest

from impspace.enumeration import count_programs, unrank_fixed_length
from impspace.lang import Assign, Num, SKIP, Seq, Sub, parse, render
from impspace.vm import (
    Divergence, RunResult, classify, detect_divergence, eval_arith,
    expression_cost, output_string, run,
)

import bruteforce


def test_run_result_fields():
    for execute in (run, classify):
        result = execute(parse("x[0] := 5"), 100)
        assert (result.halted, result.steps, result.store) == (True, 2, {0: 5})
        assert result.output == "10"
        assert repr(result) == "RunResult(halted=True, steps=2, store={0: 5})"
        with pytest.raises(AttributeError):
            result.halted = False
        with pytest.raises(TypeError):
            hash(result)
    stuck = run(parse("(while true do x[0] := 1)"), 7)
    assert (stuck.halted, stuck.steps, stuck.output) == (False, 7, "")


def test_run_result_is_a_named_tuple():
    result = run(parse("x[0] := 5"), 100)
    halted, steps, store = result
    assert (halted, steps, store) == (True, 2, {0: 5})
    assert result == (True, 2, {0: 5})
    assert result == RunResult(True, 2, {0: 5})


def test_worked_example():
    p = parse("(x[0] := 2; (x[1] := 1; x[2] := 3))")
    result = run(p, 10_000)
    assert result.halted
    assert result.store == {0: 2, 1: 1, 2: 3}
    assert result.output == "1000"
    assert result.steps == 8


def test_skip_is_terminal_and_free():
    result = run(SKIP, 10)
    assert result.halted and result.steps == 0 and result.store == {}
    assert result.output == ""


def test_while_true_exhausts_budget():
    result = run(parse("(while true do skip)"), 100)
    assert not result.halted
    assert result.steps == 100
    assert result.output == ""


def test_step_counts_fixed_points():
    cases = [
        ("skip", 0),
        ("(skip; skip)", 1),
        ("x[0] := 5", 2),
        ("(while false do skip)", 2),
        ("(if true then skip else skip)", 2),
        ("(if (1 < 2) then skip else skip)", 4),
        ("x[0] := (1 + 2)", 4),
        ("(x[0] := 1; x[1] := 2)", 5),
        ("(x[0] := 2; (x[1] := 1; x[2] := 3))", 8),
    ]
    for text, steps in cases:
        assert run(parse(text), 10_000).steps == steps, text


def test_expression_cost_counts_every_node():
    assert expression_cost(parse("x[9] := 0").value) == 1
    assert expression_cost(parse("x[0] := ((1 + 2) * x[3])").value) == 5


def test_monus_subtraction():
    assert run(parse("x[0] := (2 - 5)"), 100).store == {}
    assert run(parse("x[0] := (5 - 2)"), 100).store == {0: 3}
    assert eval_arith(parse("x[0] := (0 - 0)").value, {}) == 0


def test_store_drops_zero_writes():
    result = run(parse("(x[3] := 7; x[3] := 0)"), 100)
    assert result.store == {}
    assert result.output == ""


def test_output_ordering_is_register_ascending():
    p = parse("(x[5] := 2; x[1] := 3)")
    assert run(p, 100).output == "00" + "1"


def test_output_string_examples():
    assert output_string({}) == ""
    assert output_string({0: 8, 1: 3}) == "00100"


def test_boolean_evaluation_is_total():
    # (0 - 1) stays a natural, guards see 0
    p = parse("(if ((0 - 1) = 0) then x[0] := 1 else x[0] := 2)")
    assert run(p, 100).store == {0: 1}


def test_budget_cuts_before_store_effect():
    p = parse("(x[0] := 1; x[1] := 1)")
    # statement 1 costs 1 (seq) + 2 (assign); the second assign needs 2 more
    partial = run(p, 4)
    assert not partial.halted and partial.steps == 4
    assert partial.store == {0: 1}


def test_budget_monotonicity_small_space():
    for p in bruteforce.programs_up_to(5):
        small = run(p, 30)
        if small.halted:
            big = run(p, 10_000)
            assert (big.halted, big.steps, big.store) == \
                (True, small.steps, small.store)


def test_classify_matches_run_exactly():
    for budget in (7, 200, 10_000):
        for p in bruteforce.programs_up_to(5):
            a = run(p, budget)
            b = classify(p, budget)
            assert (a.halted, a.steps) == (b.halted, b.steps)
            if a.halted:
                assert a.store == b.store
                assert a.output == b.output


def test_classify_answers_assignments_like_run_at_every_budget():
    # classify answers a lone x[i] := A without the interpreter loop; run
    # is the reference, on the store too when the run is cut off
    programs = [p for p in bruteforce.programs_up_to(6) if type(p) is Assign]
    rng = random.Random(13)
    for k in rng.sample(range(count_programs(8)), 2_000):
        p = unrank_fixed_length(8, k)
        if type(p) is Assign:
            programs.append(p)
    assert len(programs) > 30_000
    zero = [p for p in programs if not eval_arith(p.value, {})]
    truncated = [p for p in zero if type(p.value) is Sub
                 and eval_arith(p.value.left, {}) < eval_arith(p.value.right, {})]
    assert zero and truncated
    for p in programs:
        cost = 1 + expression_cost(p.value)
        for budget in {0, 1, cost - 1, cost, cost + 1, 10_000}:
            assert tuple(classify(p, budget)) == tuple(run(p, budget)), \
                (render(p), budget)


def test_detect_divergence_examples():
    assert detect_divergence(parse("(while true do skip)")) is Divergence.DIVERGES
    assert detect_divergence(SKIP) is Divergence.HALTS
    assert detect_divergence(parse("(while false do skip)")) is Divergence.HALTS
    grower = parse("(while true do x[0] := (x[0] + 1))")
    assert detect_divergence(grower, state_cap=50) is Divergence.UNKNOWN
    # cap 0 remembers nothing, so any while head is unresolved; cap 1
    # remembers the first, so the loop's second visit proves divergence
    for text, cap, verdict in (("(while true do skip)", 0, "UNKNOWN"),
                               ("(while false do skip)", 0, "UNKNOWN"),
                               ("skip", 0, "HALTS"),
                               ("(while true do skip)", 1, "DIVERGES")):
        assert detect_divergence(parse(text), state_cap=cap) \
            is Divergence[verdict], (text, cap)


def test_budget_classification_agrees_with_divergence_oracle():
    for p in bruteforce.programs_up_to(5):
        verdict = detect_divergence(p, state_cap=10_000)
        if verdict is Divergence.UNKNOWN:
            continue
        assert run(p, 10_000).halted == (verdict is Divergence.HALTS)


def test_agreement_with_naive_interpreter():
    for p in bruteforce.programs_up_to(5):
        naive = bruteforce.run_naive(p, fuel=100_000)
        result = run(p, 10_000)
        if naive is None:
            assert not result.halted
        else:
            assert result.halted
            assert result.store == naive


def test_store_soundness_random_programs():
    rng = random.Random(11)
    pool = bruteforce.programs_up_to(6)
    for p in rng.sample(pool, 500):
        result = run(p, 1_000)
        assert all(v > 0 for v in result.store.values())


def test_determinism():
    p = parse("(while (x[0] < 7) do x[0] := (x[0] + 2))")
    assert run(p, 10_000) == run(p, 10_000)
    assert run(p, 10_000).halted


def test_rejects_negative_budget():
    with pytest.raises(ValueError):
        run(SKIP, -1)
    with pytest.raises(ValueError):
        classify(SKIP, -1)


def test_run_result_output_only_for_halted():
    stuck = run(parse("(while true do x[9] := 1)"), 50)
    assert not stuck.halted
    assert stuck.output == ""
    assert stuck.store == {9: 1}  # the store is still inspectable
