"""IMP abstract syntax, concrete syntax, the length metric, and the bitstring codec.

IMP is a minimal imperative language: ``skip``, register assignment,
sequencing, conditionals, and ``while`` loops over registers ``x[0]``,
``x[1]``, ... holding unbounded natural numbers.  The concrete syntax is
fully parenthesized, so every valid text has exactly one syntax tree:

    P ::= skip | x[N] := A | (P; P) | (if B then P else P) | (while B do P)
    A ::= N | x[N] | (A + A) | (A - A) | (A * A)
    B ::= true | false | (A = A) | (A < A) | ¬B | (B ∨ B) | (B ∧ B)
    N ::= decimal numeral without leading zeros

Syntax-tree nodes are frozen slotted dataclasses: immutable, hashable,
compared by type and fields.  Their constructor writes each slot through
its member descriptor instead of calling ``object.__setattr__`` per
field, because a sweep builds a node for most programs it runs.

The module also provides the bijection between natural numbers and finite
bitstrings in canonical order (sorted by length, then lexicographically),
which is how register contents are turned into program output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

def _slot_init(cls):
    """Give a frozen slotted dataclass an ``__init__`` that writes each slot
    through its member descriptor.

    The generated one goes through ``object.__setattr__`` per field (the
    class's own ``__setattr__`` refuses); the descriptor's ``__set__``
    skips that lookup.  Parameter names and order stay those of the
    fields, and everything else the dataclass generated stays as it is.
    """
    names = cls.__match_args__
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class Num:
    """Numeral literal (nonnegative, canonical decimal form)."""

    value: int


@_slot_init
@dataclass(frozen=True, slots=True)
class Reg:
    """Register reference ``x[index]`` used as an arithmetic expression."""

    index: int


@_slot_init
@dataclass(frozen=True, slots=True)
class Add:
    left: "Arith"
    right: "Arith"


@_slot_init
@dataclass(frozen=True, slots=True)
class Sub:
    """Truncated subtraction: values below zero clamp to zero."""

    left: "Arith"
    right: "Arith"


@_slot_init
@dataclass(frozen=True, slots=True)
class Mul:
    left: "Arith"
    right: "Arith"


Arith = Num | Reg | Add | Sub | Mul


@dataclass(frozen=True, slots=True)
class TrueLit:
    pass


@dataclass(frozen=True, slots=True)
class FalseLit:
    pass


@_slot_init
@dataclass(frozen=True, slots=True)
class Eq:
    left: Arith
    right: Arith


@_slot_init
@dataclass(frozen=True, slots=True)
class Lt:
    left: Arith
    right: Arith


@_slot_init
@dataclass(frozen=True, slots=True)
class Not:
    operand: "Bool"


@_slot_init
@dataclass(frozen=True, slots=True)
class Or:
    left: "Bool"
    right: "Bool"


@_slot_init
@dataclass(frozen=True, slots=True)
class And:
    left: "Bool"
    right: "Bool"


Bool = TrueLit | FalseLit | Eq | Lt | Not | Or | And


@dataclass(frozen=True, slots=True)
class Skip:
    pass


@_slot_init
@dataclass(frozen=True, slots=True)
class Assign:
    """``x[target] := value``; the target is a register index."""

    target: int
    value: Arith


@_slot_init
@dataclass(frozen=True, slots=True)
class Seq:
    first: "Program"
    second: "Program"


@_slot_init
@dataclass(frozen=True, slots=True)
class If:
    cond: Bool
    then: "Program"
    orelse: "Program"


@_slot_init
@dataclass(frozen=True, slots=True)
class While:
    cond: Bool
    body: "Program"


Program = Skip | Assign | Seq | If | While

SKIP = Skip()
TRUE = TrueLit()
FALSE = FalseLit()


# ---------------------------------------------------------------------------
# Length metric
# ---------------------------------------------------------------------------

# Smaller values convert to str under any int-to-str digit limit Python
# accepts (the smallest is 640 digits).
_STR_BOUND = 10 ** 600


def digit_count(n: int) -> int:
    """Number of decimal digits of a nonnegative integer (0 has one digit)."""
    if n < 0:
        raise ValueError("negative value has no numeral")
    if n < _STR_BOUND:
        return len(str(n))
    # start below the digit count, whatever the float rounding, and step up
    d = int(n.bit_length() * math.log10(2)) - 1
    while 10 ** d <= n:
        d += 1
    return d


def arith_length(a: Arith) -> int:
    t = type(a)
    if t is Num:
        return digit_count(a.value)
    if t is Reg:
        return 1 + digit_count(a.index)
    return 1 + arith_length(a.left) + arith_length(a.right)


def bool_length(b: Bool) -> int:
    t = type(b)
    if t is TrueLit or t is FalseLit:
        return 1
    if t is Not:
        return 1 + bool_length(b.operand)
    if t is Eq or t is Lt:
        return 1 + arith_length(b.left) + arith_length(b.right)
    return 1 + bool_length(b.left) + bool_length(b.right)


def program_length(p: Program) -> int:
    """Syntax-tree size of a program.

    Every construct counts 1 plus its children, except that a numeral with
    d digits counts d and a register counts 1 plus its index numeral.
    """
    t = type(p)
    if t is Skip:
        return 1
    if t is Assign:
        return 2 + digit_count(p.target) + arith_length(p.value)
    if t is Seq:
        return 1 + program_length(p.first) + program_length(p.second)
    if t is If:
        return (1 + bool_length(p.cond)
                + program_length(p.then) + program_length(p.orelse))
    return 1 + bool_length(p.cond) + program_length(p.body)


# ---------------------------------------------------------------------------
# Natural number <-> bitstring codec
# ---------------------------------------------------------------------------

def nat_to_string(n: int) -> str:
    """The n-th bitstring in canonical order (by length, then lexicographic).

    Index 0 is the empty string; strings of all zeros sit at indexes of the
    form 2**k - 1.
    """
    if n < 0:
        raise ValueError("bitstring index must be nonnegative")
    # n + 1 in binary is a 1 followed by the n-th string's bits
    return bin(n + 1)[3:]


def string_to_nat(bits: str) -> int:
    """Position of a bitstring in canonical order; inverse of nat_to_string."""
    if any(c not in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int("1" + bits, 2) - 1


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# The one map between operator symbols and node classes: each binary
# operator's class and the kind of both its operands, "A" (arithmetic) or
# "B" (boolean).  The kind of the node it builds is its class's.
_BINARY = {"+": (Add, "A"), "-": (Sub, "A"), "*": (Mul, "A"),
           "=": (Eq, "A"), "<": (Lt, "A"), "∨": (Or, "B"), "∧": (And, "B")}
_OPERATOR = {cls: (symbol, operand)
             for symbol, (cls, operand) in _BINARY.items()}
_KIND = {**dict.fromkeys(Arith.__args__, "A"),
         **dict.fromkeys(Bool.__args__, "B")}
_ARTICLE = {"A": "an arithmetic", "B": "a boolean", None: "an"}


def _render_expr(e: Arith | Bool, kind: str) -> str:
    """Text of an expression of ``kind``; TypeError for any other node."""
    t = type(e)
    if _KIND.get(t) != kind:
        raise TypeError(f"not {_ARTICLE[kind]} expression: {e!r}")
    if t is Num:
        return str(e.value)
    if t is Reg:
        return f"x[{e.index}]"
    if t is TrueLit or t is FalseLit:
        return "true" if t is TrueLit else "false"
    if t is Not:
        # a chain of negations renders in a loop, so that any depth the
        # parser accepts renders back
        depth = 0
        while type(e) is Not:
            e, depth = e.operand, depth + 1
        return "¬" * depth + _render_expr(e, "B")
    symbol, operand = _OPERATOR[t]
    return (f"({_render_expr(e.left, operand)} {symbol} "
            f"{_render_expr(e.right, operand)})")


def render(p: Program) -> str:
    """Canonical fully parenthesized text of a program; parse(render(p)) == p."""
    match p:
        case Skip():
            return "skip"
        case Assign(target, value):
            return f"x[{target}] := {_render_expr(value, 'A')}"
        case Seq(first, second):
            return f"({render(first)}; {render(second)})"
        case If(cond, then, orelse):
            return (f"(if {_render_expr(cond, 'B')} then {render(then)} "
                    f"else {render(orelse)})")
        case While(cond, body):
            return f"(while {_render_expr(cond, 'B')} do {render(body)})"
    raise TypeError(f"not a program: {p!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ImpSyntaxError(ValueError):
    """Raised for text not generated by the grammar; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_KEYWORDS = {"skip", "if", "then", "else", "while", "do", "true", "false", "x"}
_ALIASES = {"!": "¬", "||": "∨", "&&": "∧"}
# No symbol is a prefix of another, so the first one that matches is the
# longest.
_SYMBOLS = (":=", ";", "(", ")", "[", "]", "¬", *_BINARY, *_ALIASES)

# Levels of program and expression nesting the parser reads, whoever calls
# it.  The readers of a tree (render, program_length, expression_cost,
# eval_*) recurse once per level too; this leaves them and the caller
# about 300 of Python's default 1,000 frames.
_MAX_NESTING = 700


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        # ASCII digits only: str.isdigit also accepts '²' and '٣'
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            lexeme = text[i:j]
            if len(lexeme) > 1 and lexeme[0] == "0":
                raise ImpSyntaxError(f"numeral with leading zero: {lexeme}", i)
            tokens.append((lexeme, i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word not in _KEYWORDS:
                raise ImpSyntaxError(f"unknown word: {word}", i)
            tokens.append((word, i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((_ALIASES.get(sym, sym), i))
                i += len(sym)
                break
        else:
            raise ImpSyntaxError(f"unexpected character: {c!r}", i)
    return tokens


class _Parser:
    """Recursive descent in one pass over the tokens, never rewinding."""

    def __init__(self, text: str, what: str):
        self.text = text
        self.what = what
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def offset(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def fail(self, message: str):
        raise ImpSyntaxError(message, self.offset())

    def expect(self, wanted: str) -> None:
        tok = self.peek()
        if tok != wanted:
            self.fail(f"expected {wanted!r}, found {tok!r}")
        self.pos += 1

    def numeral(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            self.fail(f"expected numeral, found {tok!r}")
        self.pos += 1
        return int(tok)

    def register(self) -> int:
        self.expect("x")
        self.expect("[")
        index = self.numeral()
        self.expect("]")
        return index

    def nest(self) -> None:
        """Go one level deeper; the rule that calls this steps back out
        when it returns."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail(f"{self.what} nested too deeply")

    def program(self) -> Program:
        self.nest()
        tok = self.peek()
        if tok == "skip":
            self.pos += 1
            node = SKIP
        elif tok == "x":
            target = self.register()
            self.expect(":=")
            node = Assign(target, self.expr("A"))
        elif tok == "(":
            self.pos += 1
            inner = self.peek()
            if inner == "if":
                self.pos += 1
                cond = self.expr("B")
                self.expect("then")
                then = self.program()
                self.expect("else")
                node = If(cond, then, self.program())
            elif inner == "while":
                self.pos += 1
                cond = self.expr("B")
                self.expect("do")
                node = While(cond, self.program())
            else:
                first = self.program()
                self.expect(";")
                node = Seq(first, self.program())
            self.expect(")")
        else:
            self.fail(f"expected a program, found {tok!r}")
        self.depth -= 1
        return node

    def expr(self, kind: str | None) -> Arith | Bool:
        """An expression of ``kind``: "A", "B", or None for either.

        Behind ``(`` the left operand is read first, as arithmetic where
        arithmetic is wanted (only arithmetic operators make it), else of
        either kind.  The operator then fixes the kind of both operands
        and of the result; both are checked there, once."""
        self.nest()
        tok = self.peek()
        if tok == "(":
            self.pos += 1
            left = self.expr("A" if kind == "A" else None)
            op = self.peek()
            # the operators that take this left operand and make this kind
            fits = [s for s, (c, o) in _BINARY.items()
                    if o == _KIND[type(left)] and kind in (None, _KIND[c])]
            if op not in fits:
                self.fail(f"expected one of {' '.join(fits)}, found {op!r}")
            self.pos += 1
            cls, operand = _BINARY[op]
            node = cls(left, self.expr(operand))
            self.expect(")")
        elif tok is not None and tok.isdigit() and kind != "B":
            node = Num(self.numeral())
        elif tok == "x" and kind != "B":
            node = Reg(self.register())
        elif tok in ("true", "false") and kind != "A":
            self.pos += 1
            node = TRUE if tok == "true" else FALSE
        elif tok == "¬" and kind != "A":
            self.pos += 1
            node = Not(self.expr("B"))
        else:
            self.fail(f"expected {_ARTICLE[kind]} expression, found {tok!r}")
        self.depth -= 1
        return node


def _parse_whole(text: str, what: str, rule, *args):
    """Parse all of ``text`` as one ``what`` with a rule of ``_Parser``."""
    parser = _Parser(text, what)
    try:
        tree = rule(parser, *args)
    except RecursionError:
        raise ImpSyntaxError(f"{what} nested too deeply",
                             parser.offset()) from None
    if parser.peek() is not None:
        parser.fail(f"trailing input after {what}: {parser.peek()!r}")
    return tree


def parse(text: str) -> Program:
    """Parse the unique syntax tree of a fully parenthesized program text.

    Whitespace between tokens is insignificant.  ASCII aliases ``!``, ``||``
    and ``&&`` are accepted for ``¬``, ``∨`` and ``∧`` (the renderer always
    emits the canonical glyphs).  Raises ImpSyntaxError, with the text
    offset, for anything outside the grammar, including numerals with
    leading zeros, and for text nested more than 700 levels deep
    (``_MAX_NESTING``), counting each program and expression inside
    another as one level.
    """
    return _parse_whole(text, "program", _Parser.program)


def parse_arith(text: str) -> Arith:
    return _parse_whole(text, "expression", _Parser.expr, "A")


def parse_bool(text: str) -> Bool:
    return _parse_whole(text, "expression", _Parser.expr, "B")
