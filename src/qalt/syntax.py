"""Surface syntax: AST, tokenizer, parser and pretty-printer.

The language is a small imperative quantum fragment:

    program  := stmt+
    stmt     := "skip"
              | "new" ("qbit" | "bit") IDENT
              | name ("," name)* "*=" gate
              | "discard" name
              | "measure" name "then" block "else" block
              | "if" name "then" block "else" block
              | "case" "(" name ("," name)* ")" "of" arm+
              | "for" IDENT "=" expr "to" expr block
    arm      := "|" (BITSTRING | "_") ">" "->" block
    block    := "{" stmt* "}"
    name     := IDENT ("[" expr "]")?
    gate     := "I"|"X"|"Y"|"Z"|"H"|"S"|"T"
              | "Rk" "(" expr ")" | "Phase" "(" expr ")"
              | "OracleU" "(" BITSTRING "," expr ")"
              | "[" row ("," row)* "]"

Comments run from ``//`` to end of line.  Identifiers are case-sensitive and
ASCII-only.  ``for`` is meta-level iteration: loop variables may appear in
loop bounds, gate arguments and bracketed name indices, and are substituted
away before anything reaches the semantics.
"""

from __future__ import annotations

import bisect
import collections
import math
import operator
import re
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

from .errors import ParseError

QBIT = "qbit"
BIT = "bit"

KEYWORDS = {
    "skip", "new", "qbit", "bit", "discard", "measure", "then", "else",
    "if", "case", "of", "for", "to",
}

GATE_NAMES = ("I", "X", "Y", "Z", "H", "S", "T")


# ---------------------------------------------------------------------------
# Meta-level integer/real expressions
# ---------------------------------------------------------------------------

@dataclass
class Num:
    value: object  # int or float


@dataclass
class Var:
    name: str


@dataclass
class BinOp:
    op: str
    left: object
    right: object


@dataclass
class Neg:
    operand: object


Expr = object


@dataclass
class NameRef:
    """A variable reference, possibly indexed by a meta expression."""

    base: str
    index: Expr | None = None


# ---------------------------------------------------------------------------
# Gate expressions
# ---------------------------------------------------------------------------

@dataclass
class NamedGate:
    name: str


@dataclass
class RkGate:
    k: Expr


@dataclass
class PhaseGate:
    theta: Expr


@dataclass
class MatrixGate:
    entries: tuple  # tuple of row tuples of complex


@dataclass
class OracleGate:
    """Truth-table oracle: transposes |0> with |f(point)> on the target."""

    table: tuple  # tuple of 0/1 ints, length 2^n
    point: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Skip:
    pass


@dataclass
class NewQbit:
    name: NameRef
    kind: ClassVar[str] = QBIT


@dataclass
class NewBit:
    name: NameRef
    kind: ClassVar[str] = BIT


@dataclass
class ApplyGate:
    targets: list
    gate: object


@dataclass
class Discard:
    name: NameRef


@dataclass
class MeasureThenElse:
    control: NameRef
    then_block: list
    else_block: list


@dataclass
class QIf:
    control: NameRef
    then_block: list
    else_block: list


@dataclass
class CaseArm:
    label: str | None  # bitstring, or None for the "_" default arm
    block: list


@dataclass
class QCase:
    controls: list
    arms: list


@dataclass
class ForLoop:
    var: str
    lo: Expr
    hi: Expr
    body: list


@dataclass
class Program:
    """A block of statements.  On a core program ``gates`` lists each distinct
    gate node of ``body`` once, in the order :func:`qalt.check.elaborate`
    made them; it is left out of ``==`` and ``repr``."""

    body: list
    gates: tuple = field(default=(), compare=False, repr=False)


# ---------------------------------------------------------------------------
# Typing contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Context:
    """Ordered list of (name, kind) pairs with unique names."""

    entries: tuple = ()

    def __post_init__(self):
        entries = tuple((str(n), str(k)) for n, k in self.entries)
        seen = set()
        for n, k in entries:
            if k not in (QBIT, BIT):
                raise ValueError(f"unknown kind {k!r}")
            if n.split() != [n]:  # no program could mention it
                raise ValueError(f"context name {n!r} is empty or holds whitespace")
            if n in seen:
                raise ValueError(f"duplicate name {n!r} in context")
            seen.add(n)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def empty(cls) -> "Context":
        return cls(())

    @classmethod
    def of(cls, *pairs) -> "Context":
        return cls(tuple(pairs))

    @classmethod
    def from_spec(cls, spec: str) -> "Context":
        """Parse ``"q0:qbit, b:bit"`` into a context."""
        entries = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, kind = part.partition(":")
            entries.append((name.strip(), kind.strip() or QBIT))
        return cls(tuple(entries))

    def names(self):
        return [n for n, _ in self.entries]

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.entries)

    def kind_of(self, name: str) -> str:
        for n, k in self.entries:
            if n == name:
                return k
        raise KeyError(name)

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.entries):
            if n == name:
                return i
        raise KeyError(name)

    def qubits(self):
        return [n for n, k in self.entries if k == QBIT]

    def bits(self):
        return [n for n, k in self.entries if k == BIT]

    def add(self, name: str, kind: str) -> "Context":
        return Context(self.entries + ((name, kind),))

    def remove(self, name: str) -> "Context":
        return Context(tuple(e for e in self.entries if e[0] != name))

    def insert(self, i: int, name: str, kind: str) -> "Context":
        entries = list(self.entries)
        entries.insert(i, (name, kind))
        return Context(tuple(entries))

    def describe(self) -> str:
        return ", ".join(f"{n}:{k}" for n, k in self.entries)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

#: One token per match, after the space and comments before it; each named
#: group is a token kind, and BAD is any character that no other kind admits.
#: A match of no group is the space and comments that end the text.
_TOKEN = re.compile(r"""
    [ \t\r\n]* (?://.*[ \t\r\n]*)*
    (?: (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<NUM>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | (?P<SYM>->|\*=|[{}()\[\],|>=+\-*/])
      | (?P<BAD>.) )?
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # IDENT, NUM, SYM, EOF
    text: str
    at: int  # offset in its piece of the source (see _pieces)


def _line_col(text: str, at: int, first: int = 1) -> tuple[int, int]:
    """1-based (line, column) of offset ``at`` in ``text``, whose first line
    is line ``first`` of the source: worked out only for an error."""
    return first + text.count("\n", 0, at), at - text.rfind("\n", 0, at)


def _pieces(text: str) -> list[tuple[int, str, bool]]:
    """``text`` cut into pieces of whole lines, each (number of its first
    line, its text, shared).  A line that occurs more than once is a shared
    piece of its own; each run of lines between such lines is one piece.
    No token or comment runs past a newline, so each piece is scanned alone.
    """
    lines = text.split("\n")
    counts = collections.Counter(lines)
    if len(counts) == len(lines):
        return [(1, text, False)]
    pieces, run = [], 0
    for i in [i for i, line in enumerate(lines) if counts[line] > 1]:
        if run < i:
            pieces.append((run + 1, "\n".join(lines[run:i]), False))
        pieces.append((i + 1, lines[i], True))
        run = i + 1
    if run < len(lines):
        pieces.append((run + 1, "\n".join(lines[run:]), False))
    return pieces


def _scan(piece: str, first: int) -> list[Token]:
    """The tokens of ``piece``, a piece of the source from line ``first`` on."""
    tokens = [Token(kind, m.group(kind), m.start(kind))
              for m in _TOKEN.finditer(piece) if (kind := m.lastgroup)]
    if "BAD" in map(operator.itemgetter(0), tokens):
        bad = next(tok for tok in tokens if tok.kind == "BAD")
        what = "non-ASCII" if ord(bad.text) > 127 else "unexpected"
        raise ParseError(f"{what} character {bad.text!r}", *_line_col(piece, bad.at, first))
    return tokens


def _tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` and EOF, each at its offset in ``text``."""
    parser = _Parser(text)
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    return [tok._replace(at=starts[parser.piece(k)[0] - 1] + tok.at)
            for k, tok in enumerate(parser.tokens)]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: Deepest nesting of blocks, parentheses and unary minus signs, counted
#: together, that :func:`parse` accepts; each binary operator of an
#: expression counts as one more level until that expression ends.  Every
#: later stage recurses once or a few times per level, so the bound keeps
#: them inside Python's stack.
MAX_NESTING = 200


def _num_value(text: str):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _open_end(stmt) -> str | None:
    """The text of a next token that would continue ``stmt``, if any: one
    more arm of a case, or an index for a name without one at the end."""
    if isinstance(stmt, QCase):
        return "|"
    if isinstance(stmt, (NewQbit, NewBit, Discard)) and stmt.name.index is None:
        return "["
    return None


class _Parser:
    """Recursive descent with one method per grammar form.

    A symbol's text is only ever a SYM token and a keyword's text only ever
    an IDENT token, so :meth:`accept` and :meth:`expect` compare text alone.
    Each piece of the source (see :func:`_pieces`) is tokenized once and its
    tokens are shared by its copies, so a token's offset is within its
    piece; :meth:`piece` finds the piece of a token for an error.
    """

    def __init__(self, text: str):
        self.tokens = tokens = []
        #: the index of each piece's first token (or of the token after it),
        #: and each piece's (number of its first line, text)
        self.firsts, self.pieces = [], []
        #: (text, end) of each shared line that holds a token, by its first
        #: token's index; ``end`` is the index of the token after the line
        self.lines = {}
        #: a statement that filled a line, and its open end, by (text, depth)
        self.memo = {}
        scanned = {}
        for first, piece, shared in _pieces(text):
            piece_tokens = scanned.get(piece)
            if piece_tokens is None:
                piece_tokens = scanned[piece] = _scan(piece, first)
            if shared and piece_tokens:
                self.lines[len(tokens)] = piece, len(tokens) + len(piece_tokens)
            self.firsts.append(len(tokens))
            self.pieces.append((first, piece))
            tokens += piece_tokens
        # EOF after a comment on the last line is at the comment's start
        end = piece.find("//", piece.rfind("\n") + 1)
        tokens.append(Token("EOF", "", end if end >= 0 else len(piece)))
        self.pos = 0
        self.depth = 0

    def piece(self, k: int) -> tuple[int, str]:
        """(number of its first line, text) of the piece of token ``k``."""
        return self.pieces[bisect.bisect_right(self.firsts, k) - 1]

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, k: int | None = None):
        """Raise at the token of index ``k``, the next token by default."""
        k = self.pos if k is None else k
        first, piece = self.piece(k)
        raise ParseError(message, *_line_col(piece, self.tokens[k].at, first))

    def nest(self):
        """Enter one nesting level, opened by the token just consumed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", self.pos - 1)

    def at_sym(self, *syms: str) -> bool:
        return self.tokens[self.pos].text in syms

    def accept(self, word: str) -> Token | None:
        """Consume and return the next token if its text is ``word``."""
        tok = self.tokens[self.pos]
        if tok.text != word:
            return None
        self.pos += 1
        return tok

    def expect(self, word: str) -> Token:
        tok = self.accept(word)
        if tok is None:
            self.fail(f"expected {word!r}, found {self.peek().text!r}")
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in KEYWORDS:
            self.fail(f"expected an identifier, found {tok.text!r}")
        return self.next()

    def items(self, item, close: str) -> list:
        """``item ("," item)* close``: the results of ``item()``."""
        found = [item()]
        while self.accept(","):
            found.append(item())
        self.expect(close)
        return found

    # -- expressions --

    def parse_expr(self) -> Expr:
        # each operator deepens the tree, so its level lasts until the end
        depth = self.depth
        node = self.parse_term()
        while self.at_sym("+", "-"):
            op = self.next().text
            self.nest()
            node = BinOp(op, node, self.parse_term())
        self.depth = depth
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.at_sym("*", "/"):
            op = self.next().text
            self.nest()
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUM":
            try:
                value = _num_value(tok.text)
            except ValueError:  # past Python's limit on integer digits
                self.fail(f"integer literal of {len(tok.text)} digits is too long")
            self.next()
            return Num(value)
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            self.next()
            return Var(tok.text)
        if not self.at_sym("-", "("):
            self.fail(f"expected an expression, found {tok.text!r}")
        self.next()
        self.nest()
        if tok.text == "-":
            node = Neg(self.parse_factor())
        else:
            node = self.parse_expr()
            self.expect(")")
        self.depth -= 1
        return node

    # -- names --

    def parse_name(self) -> NameRef:
        base = self.expect_ident().text
        index = None
        if self.accept("["):
            index = self.parse_expr()
            self.expect("]")
        return NameRef(base, index)

    # -- gates --

    def parse_gate(self):
        tok = self.peek()
        if self.accept("["):
            rows = self.items(self.parse_row, "]")
            if any(len(r) != len(rows[0]) for r in rows):
                self.fail("ragged matrix literal")
            return MatrixGate(tuple(rows))
        if tok.kind != "IDENT":
            self.fail(f"expected a gate, found {tok.text!r}")
        if tok.text in GATE_NAMES:
            self.next()
            return NamedGate(tok.text)
        node = {"Rk": RkGate, "Phase": PhaseGate, "OracleU": OracleGate}.get(tok.text)
        if node is None:
            self.fail(f"unknown gate {tok.text!r}")
        self.next()
        self.expect("(")
        args = []
        if node is OracleGate:
            args.append(self.parse_bitstring())
            self.expect(",")
        args.append(self.parse_expr())
        self.expect(")")
        return node(*args)

    def parse_bitstring(self) -> tuple:
        tok = self.peek()
        if tok.kind != "NUM" or any(c not in "01" for c in tok.text):
            self.fail(f"expected a bitstring, found {tok.text!r}")
        self.next()
        return tuple(int(c) for c in tok.text)

    def parse_row(self) -> tuple:
        self.expect("[")
        return tuple(self.items(self.parse_complex, "]"))

    def parse_complex(self) -> complex:
        value = self._complex_term()
        while self.at_sym("+", "-"):
            sign = 1 if self.next().text == "+" else -1
            # the full complex product, which CPython <= 3.13 also takes for
            # ``sign * term``; 3.14 multiplies an int by a complex componentwise
            value += complex(sign, 0.0) * self._complex_term()
        return value

    def _complex_term(self) -> complex:
        sign = 1
        while self.at_sym("-", "+"):
            if self.next().text == "-":
                sign = -sign
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            mag = float(tok.text)
            if self.accept("i"):
                return complex(0, sign * mag)
            return complex(sign * mag, 0)
        if self.accept("i"):
            return complex(0, sign)
        self.fail(f"expected a number, found {tok.text!r}")

    # -- statements --

    def parse_block(self) -> list:
        self.expect("{")
        self.nest()
        body = []
        while not self.accept("}"):
            if self.peek().kind == "EOF":
                self.fail("unterminated block")
            body.append(self.statement())
        self.depth -= 1
        return body if body else [Skip()]

    def statement(self):
        """The next statement, read from the memo where a parse here would
        give a node already made.

        A statement that fills a line that occurs more than once, from the
        line's first token to its last, is kept by the line's text and the
        depth.  A later copy of that line at that depth is the same node,
        unless the token after it would continue the statement (see
        :func:`_open_end`).  Only a parse that succeeds is kept, so an error
        is raised where it occurs.
        """
        line = self.lines.get(self.pos)
        if line is None:
            return self.parse_stmt()
        text, end = line
        key = text, self.depth
        kept = self.memo.get(key)
        if kept is not None and self.tokens[end].text != kept[1]:
            self.pos = end
            return kept[0]
        node = self.parse_stmt()
        if self.pos == end:
            self.memo[key] = node, _open_end(node)
        return node

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            return ApplyGate(self.items(self.parse_name, "*="), self.parse_gate())
        if self.accept("skip"):
            return Skip()
        if self.accept("new"):
            node = {QBIT: NewQbit, BIT: NewBit}.get(self.peek().text)
            if node is None:
                self.fail("expected 'qbit' or 'bit' after 'new'")
            self.next()
            return node(self.parse_name())
        if self.accept("discard"):
            return Discard(self.parse_name())
        if tok.text in ("measure", "if"):
            self.next()
            node = MeasureThenElse if tok.text == "measure" else QIf
            control = self.parse_name()
            self.expect("then")
            then_block = self.parse_block()
            self.expect("else")
            return node(control, then_block, self.parse_block())
        if self.accept("case"):
            self.expect("(")
            controls = self.items(self.parse_name, ")")
            self.expect("of")
            arms = [self.parse_arm()]
            while self.at_sym("|"):
                arms.append(self.parse_arm())
            return QCase(controls, arms)
        if self.accept("for"):
            var = self.expect_ident().text
            self.expect("=")
            lo = self.parse_expr()
            self.expect("to")
            hi = self.parse_expr()
            return ForLoop(var, lo, hi, self.parse_block())
        self.fail(f"expected a statement, found {tok.text!r}")

    def parse_arm(self) -> CaseArm:
        self.expect("|")
        label = None
        if not self.accept("_"):
            label = "".join(str(b) for b in self.parse_bitstring())
        self.expect(">")
        self.expect("->")
        return CaseArm(label, self.parse_block())

    def parse_program(self) -> Program:
        body = []
        while self.peek().kind != "EOF":
            body.append(self.statement())
        return Program(body)


def parse(text: str) -> Program:
    """Parse source text into an AST, raising :class:`ParseError` on failure.

    Nesting deeper than :data:`MAX_NESTING` levels is a :class:`ParseError`.
    Within one call, each distinct line is tokenized once, and a statement
    that fills a line is parsed once per distinct line text and depth:
    repeated lines share one read-only statement node, so the tree must not
    be mutated.  ``==`` and ``repr`` are as if each copy were parsed afresh.
    """
    return _Parser(text).parse_program()


# ---------------------------------------------------------------------------
# Pretty-printer (inverse of parse on ASTs)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def expr_str(e: Expr, parent_prec: int = 0, right_side: bool = False,
             inf: str = "inf") -> str:
    """Source text of a meta expression, parenthesised only where needed.

    A literal past the float range parses as inf and is written ``inf``;
    :func:`pretty` passes ``inf="1e999"``, a literal that overflows again.
    """
    if isinstance(e, Num):
        return inf if e.value == math.inf else repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = expr_str(e.operand, 3, inf=inf)
        return f"-{inner}"
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        text = (f"{expr_str(e.left, prec, inf=inf)} {e.op} "
                f"{expr_str(e.right, prec, right_side=True, inf=inf)}")
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    raise TypeError(f"not an expression: {e!r}")


def _expr_source(e: Expr) -> str:
    return expr_str(e, inf="1e999")


def _complex_str(z: complex) -> str:
    """Text that :meth:`_Parser.parse_complex` reads back as ``z``, bit for bit.

    The parser sums its terms in complex arithmetic, where a term with sign
    s is multiplied by s + 0j, so -0.0 + 0.0 is 0.0 and 0 * inf is nan.  A
    -0.0, inf or nan part therefore needs its terms in a particular order.
    """
    re, im = z.real, z.imag
    if im == 0 and math.copysign(1, im) > 0:
        return _float_str(re)
    if re == 0 and math.copysign(1, re) > 0:
        return f"{_float_str(im)}i"
    if math.isnan(re) or math.isnan(im):
        # nan is inf - inf, or 0 * inf from an inf term added to 0
        if math.isnan(re) and math.isnan(im):
            return "1e999 - 1e999"
        return "0 + " + (f"{_float_str(im)}i" if math.isnan(re) else _float_str(re))
    if im != 0 and not math.isinf(im):
        sign = "+" if im > 0 else "-"
        return f"{_float_str(re)} {sign} {_float_str(abs(im))}i"
    # im is -0.0 or inf: the imaginary term first, then real terms that
    # leave it be ("- -c" keeps a -0.0); an infinite re is two finite terms
    # that overflow, as an inf term would add 0 * inf = nan to im
    op = "- -" if im == 0 else "- " if re < 0 else "+ "
    terms = ["1e308"] * 2 if math.isinf(re) else [_float_str(abs(re))]
    return f"{_float_str(im)}i " + " ".join(op + t for t in terms)


def _float_str(x: float) -> str:
    """An integer where exact, ``-0`` for -0.0, a literal that overflows for inf."""
    if math.isinf(x):
        return "-1e999" if x < 0 else "1e999"
    if x == int(x) and abs(x) < 1e15:
        return repr(int(x)) if x or math.copysign(1, x) > 0 else "-0"
    return repr(x)


def _name_str(n: NameRef) -> str:
    if n.index is None:
        return n.base
    return f"{n.base}[{_expr_source(n.index)}]"


def _gate_str(g) -> str:
    if isinstance(g, NamedGate):
        return g.name
    if isinstance(g, RkGate):
        return f"Rk({_expr_source(g.k)})"
    if isinstance(g, PhaseGate):
        return f"Phase({_expr_source(g.theta)})"
    if isinstance(g, OracleGate):
        bits = "".join(str(b) for b in g.table)
        return f"OracleU({bits}, {_expr_source(g.point)})"
    if isinstance(g, MatrixGate):
        rows = ", ".join(
            "[" + ", ".join(_complex_str(z) for z in row) + "]"
            for row in g.entries)
        return f"[{rows}]"
    raise TypeError(f"not a gate: {g!r}")


def _block_lines(block: list, indent: int) -> list[str]:
    lines = []
    for stmt in block:
        lines.extend(_stmt_lines(stmt, indent))
    return lines


def _stmt_lines(stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(stmt, Skip):
        return [pad + "skip"]
    if isinstance(stmt, (NewQbit, NewBit, Discard)):
        word = {NewQbit: "new qbit", NewBit: "new bit", Discard: "discard"}[type(stmt)]
        return [pad + f"{word} {_name_str(stmt.name)}"]
    if isinstance(stmt, ApplyGate):
        targets = ", ".join(_name_str(t) for t in stmt.targets)
        return [pad + f"{targets} *= {_gate_str(stmt.gate)}"]
    if isinstance(stmt, (MeasureThenElse, QIf)):
        word = "measure" if isinstance(stmt, MeasureThenElse) else "if"
        lines = [pad + f"{word} {_name_str(stmt.control)} then {{"]
        lines += _block_lines(stmt.then_block, indent + 1)
        lines.append(pad + "} else {")
        lines += _block_lines(stmt.else_block, indent + 1)
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, QCase):
        controls = ", ".join(_name_str(c) for c in stmt.controls)
        lines = [pad + f"case ({controls}) of"]
        for arm in stmt.arms:
            label = arm.label if arm.label is not None else "_"
            lines.append(pad + f"  |{label}> -> {{")
            lines += _block_lines(arm.block, indent + 2)
            lines.append(pad + "  }")
        return lines
    if isinstance(stmt, ForLoop):
        head = (f"for {stmt.var} = {_expr_source(stmt.lo)} "
                f"to {_expr_source(stmt.hi)} {{")
        lines = [pad + head]
        lines += _block_lines(stmt.body, indent + 1)
        lines.append(pad + "}")
        return lines
    raise TypeError(f"not a statement: {stmt!r}")


def pretty(program: Program) -> str:
    """Render an AST back to parseable source text."""
    return "\n".join(_block_lines(program.body, 0)) + "\n"
