"""Syntax, length metric, and codec tests for impspace.lang."""

import dataclasses
import inspect
import pickle
import random

import pytest

from impspace import lang
from impspace.lang import (
    Add, And, Assign, Eq, FALSE, If, ImpSyntaxError, Lt, Mul, Not, Num, Or,
    Reg, SKIP, Seq, Sub, TRUE, While,
    arith_length, bool_length, digit_count, nat_to_string, parse,
    parse_arith, parse_bool, program_length, render, string_to_nat,
)

import bruteforce


# ---------------------------------------------------------------------------
# Syntax-tree nodes
# ---------------------------------------------------------------------------

# every node class with fields: (its fields, the same fields with the last
# one changed)
NODES = {
    Num: ((3,), (4,)),
    Reg: ((3,), (4,)),
    Add: ((Num(1), Reg(0)), (Num(1), Reg(1))),
    Sub: ((Num(1), Reg(0)), (Num(1), Reg(1))),
    Mul: ((Num(1), Reg(0)), (Num(1), Reg(1))),
    Eq: ((Num(1), Reg(0)), (Num(1), Num(0))),
    Lt: ((Num(1), Reg(0)), (Num(1), Num(0))),
    Not: ((TRUE,), (FALSE,)),
    Or: ((TRUE, FALSE), (TRUE, TRUE)),
    And: ((TRUE, FALSE), (TRUE, TRUE)),
    Assign: ((0, Num(5)), (0, Num(6))),
    Seq: ((SKIP, Assign(0, Num(1))), (SKIP, SKIP)),
    If: ((TRUE, SKIP, Assign(0, Num(1))), (TRUE, SKIP, SKIP)),
    While: ((FALSE, SKIP), (FALSE, Assign(0, Num(1)))),
}


def test_node_table_covers_every_class_with_fields():
    classes = {c for c in vars(lang).values()
               if dataclasses.is_dataclass(c) and isinstance(c, type)
               and dataclasses.fields(c)}
    assert classes == set(NODES)


@pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
def test_node_construction_contract(cls):
    args, other = NODES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(cls.__match_args__) == names
    assert list(inspect.signature(cls).parameters) == names
    node = cls(*args)
    assert cls(**dict(zip(names, args))) == node
    assert tuple(getattr(node, name) for name in names) == args
    assert node == cls(*args) and hash(node) == hash(cls(*args))
    assert node != cls(*other)
    assert repr(node) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, args)) + ")"
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(node, proto))
        assert type(again) is cls and again == node
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, args[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})


def test_nodes_compare_by_type_and_fields():
    assert Num(3) != Reg(3)
    assert Add(Num(1), Num(2)) != Sub(Num(1), Num(2))
    assert Add(Num(1), Num(2)) != Add(Num(2), Num(1))
    assert Or(TRUE, FALSE) != And(TRUE, FALSE)
    assert len({Num(3), Num(3), Reg(3)}) == 2


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_skip():
    assert parse("skip") is SKIP


def test_parse_worked_example():
    text = "(x[0] := 2; (x[1] := 1; x[2] := 3))"
    assert parse(text) == Seq(Assign(0, Num(2)),
                              Seq(Assign(1, Num(1)), Assign(2, Num(3))))


def test_parse_if_while():
    assert parse("(if true then skip else x[7] := 0)") == \
        If(TRUE, SKIP, Assign(7, Num(0)))
    assert parse("(while false do skip)") == While(FALSE, SKIP)


def test_parse_arith_operators():
    assert parse_arith("((1 + x[2]) - (3 * 4))") == \
        Sub(Add(Num(1), Reg(2)), Mul(Num(3), Num(4)))


def test_parse_bool_operators():
    assert parse_bool("((1 = 2) ∨ ¬(x[0] < 5))") == \
        Or(Eq(Num(1), Num(2)), Not(Lt(Reg(0), Num(5))))


def test_parse_ascii_aliases():
    assert parse_bool("((true || false) && !true)") == \
        And(Or(TRUE, FALSE), Not(TRUE))


def test_parse_whitespace_insensitive():
    assert parse("(x[0]:=2;(x[1]:=1;x[2]:=3))") == \
        parse("( x[0] := 2 ;  ( x[1] := 1 ; x[2] := 3 ) )")


def test_parse_leading_zero_rejected():
    with pytest.raises(ImpSyntaxError) as exc:
        parse("x[01] := 0")
    assert exc.value.position == 2
    with pytest.raises(ImpSyntaxError):
        parse("x[0] := 007")


def test_parse_rejects_non_ascii_digits():
    # str.isdigit accepts both; int() rejects the first and reads the
    # second as 3, which would accept a text that does not render back
    with pytest.raises(ImpSyntaxError) as exc:
        parse("x[0] := ²")
    assert exc.value.position == 8
    with pytest.raises(ImpSyntaxError):
        parse("x[٣] := 1")


def test_parse_error_positions():
    with pytest.raises(ImpSyntaxError) as exc:
        parse("(skip; skip")      # missing close paren
    assert exc.value.position == 11
    with pytest.raises(ImpSyntaxError):
        parse("(skip skip)")
    with pytest.raises(ImpSyntaxError):
        parse("skip; skip")       # sequencing demands parentheses
    with pytest.raises(ImpSyntaxError):
        parse("while true do skip")
    with pytest.raises(ImpSyntaxError):
        parse("x[2] :=")
    with pytest.raises(ImpSyntaxError):
        parse("")
    with pytest.raises(ImpSyntaxError):
        parse("(x[0] := 1; skip) trailing")
    with pytest.raises(ImpSyntaxError):
        parse("foo")


# ill-kinded texts, each with the offset where no reading of it is left
ILL_KINDED = [
    (parse_bool, "((1 = 1) + 2)", 9),
    (parse_bool, "(1 ∨ true)", 3),
    (parse_bool, "¬1", 1),
    (parse_bool, "((1 + 1) ∧ true)", 9),
    (parse_bool, "(true = true)", 6),
    (parse_bool, "((1 + 1) = (1 = 1))", 14),
    (parse_arith, "(1 = 2)", 3),
    (parse_arith, "(true + 1)", 1),
    (parse, "x[0] := true", 8),
    (parse, "(while 1 do skip)", 7),
    (parse, "(x[0] := 1; x[1] := (1 = 2))", 23),
    (parse, "(if (1 < 2) then skip else x[0] := ¬true)", 35),
]


def test_parse_boolean_backtracking():
    # both comparison and connective shapes behind the same '('
    assert parse_bool("((1 + 1) = 2)") == Eq(Add(Num(1), Num(1)), Num(2))
    assert parse_bool("((1 = 1) ∧ (2 = 2))") == \
        And(Eq(Num(1), Num(1)), Eq(Num(2), Num(2)))
    with pytest.raises(ImpSyntaxError):
        parse_bool("((1 = 1) + 2)")
    for rule, text, position in ILL_KINDED:
        with pytest.raises(ImpSyntaxError) as exc:
            rule(text)
        assert exc.value.position == position, (rule.__name__, text)


def test_parse_reads_each_text_in_one_pass(monkeypatch):
    # a parser that tries one reading and rewinds to another raises and
    # catches a syntax error on the way; one that reads once raises none
    raised = []
    init = ImpSyntaxError.__init__

    def counting_init(self, message, position):
        raised.append(message)
        init(self, message, position)

    monkeypatch.setattr(ImpSyntaxError, "__init__", counting_init)
    programs = bruteforce.programs_up_to(5)
    assert len(programs) == 2232
    for p in programs:
        parse(render(p))
    assert raised == []
    with pytest.raises(ImpSyntaxError):
        parse("x[0] := true")
    assert len(raised) == 1  # the counter sees a real error


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_fixed_forms():
    assert render(SKIP) == "skip"
    assert render(Seq(SKIP, SKIP)) == "(skip; skip)"
    assert render(While(TRUE, SKIP)) == "(while true do skip)"
    assert render(If(Not(FALSE), SKIP, Assign(0, Num(10)))) == \
        "(if ¬false then skip else x[0] := 10)"
    assert render(While(Or(TRUE, And(FALSE, TRUE)), SKIP)) == \
        "(while (true ∨ (false ∧ true)) do skip)"


def test_render_parse_round_trip_bruteforce():
    for p in bruteforce.programs_up_to(5):
        assert parse(render(p)) == p


def test_parse_render_round_trip_on_text():
    texts = [
        "skip",
        "(x[0] := 2; (x[1] := 1; x[2] := 3))",
        "(while (x[1] < 23) do (x[1] := (x[1] + 1); x[0] := (x[0] * 2)))",
        "(if ((1 = 1) ∨ ¬true) then skip else (skip; skip))",
    ]
    for text in texts:
        assert render(parse(text)) == text


# ---------------------------------------------------------------------------
# Length metric
# ---------------------------------------------------------------------------

def test_length_base_cases():
    assert program_length(SKIP) == 1
    assert program_length(Seq(SKIP, SKIP)) == 3
    assert program_length(Assign(0, Num(2))) == 4
    assert program_length(While(TRUE, SKIP)) == 3
    assert program_length(If(TRUE, SKIP, SKIP)) == 4


def test_length_numerals_cost_their_digits():
    assert arith_length(Num(0)) == 1
    assert arith_length(Num(7)) == 1
    assert arith_length(Num(10)) == 2
    assert arith_length(Num(999)) == 3
    assert arith_length(Reg(0)) == 2
    assert arith_length(Reg(42)) == 3
    assert program_length(Assign(10, Num(100))) == 7  # 1 + (1+2) + 3


def test_length_operators():
    assert arith_length(Add(Num(1), Mul(Reg(0), Num(2)))) == 6
    assert bool_length(TRUE) == 1
    assert bool_length(Not(Not(FALSE))) == 3
    assert bool_length(And(Eq(Num(1), Num(2)), TRUE)) == 5


def test_length_strict_subterm_monotonicity():
    rng = random.Random(7)
    pool = bruteforce.programs_up_to(6)
    for p in rng.sample(pool, 300):
        for q in bruteforce.subprograms(p):
            assert program_length(q) < program_length(p)


def test_digit_count_rejects_negative():
    with pytest.raises(ValueError):
        digit_count(-1)


def test_digit_count_past_the_str_limit():
    # Python refuses int -> str conversions above 4,300 digits by default
    for k in (4299, 4300, 4301):
        assert digit_count(10**k - 1) == k
        assert digit_count(10**k) == k + 1


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def test_nat_to_string_small_values():
    expected = ["", "0", "1", "00", "01", "10", "11", "000"]
    assert [nat_to_string(n) for n in range(8)] == expected
    assert nat_to_string(2) == "1"
    assert nat_to_string(3) == "00"
    assert nat_to_string(23) == "1000"


def test_string_to_nat_examples():
    assert string_to_nat("") == 0
    assert string_to_nat("00") == 3
    assert string_to_nat("1000") == 23


def test_codec_round_trip():
    for n in range(50_000):
        assert string_to_nat(nat_to_string(n)) == n


def _closed_form(n):
    """The n-th bitstring as offset past the 2**k - 1 shorter strings."""
    k = (n + 1).bit_length() - 1
    return format(n - (2**k - 1), "b").zfill(k) if k else ""


def test_codec_matches_closed_form_at_length_boundaries():
    # up to 20,000 bits, and one value far past the int-str digit limit
    ks = [*range(1, 130), 1_000, 4_300, 14_000, 20_000]
    values = [n for k in ks for n in (2**k - 2, 2**k - 1, 2**k)]
    for n in [*values, 3**126_000 + 5]:
        bits = _closed_form(n)
        assert nat_to_string(n) == bits
        assert string_to_nat(bits) == n


def test_codec_round_trip_on_strings():
    for length in range(13):
        for value in range(1 << length):
            bits = format(value, "b").zfill(length) if length else ""
            assert nat_to_string(string_to_nat(bits)) == bits


def test_codec_canonical_order_monotone():
    strings = [nat_to_string(n) for n in range(4096)]
    keyed = [(len(s), s) for s in strings]
    assert keyed == sorted(keyed)
    assert len(set(strings)) == len(strings)


def test_codec_rejects_junk():
    with pytest.raises(ValueError):
        nat_to_string(-1)
    with pytest.raises(ValueError):
        string_to_nat("012")
    with pytest.raises(ValueError):
        string_to_nat("binary")
