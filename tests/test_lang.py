import dataclasses
import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest

from qalt import (
    Context,
    TruthTable,
    denote,
    elaborate,
    eval_direct,
    gen_deutsch,
    gen_deutsch_jozsa,
    gen_grover_oracle,
    gen_qft,
    parse,
    pretty,
    run,
    typecheck,
)
from helpers import count_calls
from qalt import check
from qalt import syntax as ast
from qalt.check import lint_closed_system
from qalt.core import RK_IDENTITY, DensityState, Signature, rk_gate
from qalt.errors import (
    BranchContextMismatch,
    ControlCapture,
    DuplicateName,
    InvalidGate,
    KindError,
    NonConstantBound,
    ParseError,
    UnknownName,
)

CTX_Q01 = Context.of(("q0", "qbit"), ("q1", "qbit"))


class TestParse:
    def test_controlled_gate(self):
        p = parse("if q0 then { skip } else { q1 *= X }")
        (stmt,) = p.body
        assert stmt == ast.QIf(ast.NameRef("q0"), [ast.Skip()],
                               [ast.ApplyGate([ast.NameRef("q1")],
                                              ast.NamedGate("X"))])

    def test_for_loop_with_gate_argument(self):
        p = parse("for i = 2 to 4 { q *= Rk(i) }")
        (loop,) = p.body
        assert loop == ast.ForLoop(
            "i", ast.Num(2), ast.Num(4),
            [ast.ApplyGate([ast.NameRef("q")], ast.RkGate(ast.Var("i")))])

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse("if q then { } else")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("new qbit q\nq *= $")
        assert err.value.line == 2

    def test_indexed_names(self):
        p = parse("q[k + i - 1] *= H")
        (stmt,) = p.body
        ref = stmt.targets[0]
        assert ref.base == "q"
        assert ref.index == ast.BinOp("-", ast.BinOp("+", ast.Var("k"),
                                                     ast.Var("i")), ast.Num(1))

    def test_case_with_default(self):
        p = parse("case (a, b) of |00> -> { skip } |_> -> { t *= X }")
        (stmt,) = p.body
        assert [arm.label for arm in stmt.arms] == ["00", None]

    def test_measure(self):
        p = parse("measure q then { skip } else { discard q }")
        (stmt,) = p.body
        assert isinstance(stmt, ast.MeasureThenElse)
        assert stmt.else_block == [ast.Discard(ast.NameRef("q"))]

    def test_matrix_literal(self):
        p = parse("q *= [[0, 1], [1, 0]]")
        assert p.body[0].gate == ast.MatrixGate(((0, 1), (1, 0)))

    def test_complex_entries(self):
        p = parse("q *= [[1, 0], [0, 0.5 + 0.8660254037844386i]]")
        entry = p.body[0].gate.entries[1][1]
        assert entry == complex(0.5, 0.8660254037844386)

    def test_comments_ignored(self):
        p = parse("// prepare\nnew qbit q // trailing\nq *= H")
        assert len(p.body) == 2

    def test_non_ascii_rejected(self):
        # reported at the character, not at the identifier holding it
        with pytest.raises(ParseError) as info:
            parse("new qbit qé")
        assert (info.value.line, info.value.col) == (1, 11)
        assert str(info.value) == "1:11: non-ASCII character 'é'"
        # a non-ASCII digit is not read as part of a number
        for source, col in (("a *= Rk(1\u0663)", 10), ("for i = 1 to 2\u0663 { skip }", 15)):
            with pytest.raises(ParseError) as info:
                parse(source)
            assert (info.value.line, info.value.col) == (1, col)

    def test_tokenizer_edges(self):
        def tokens(text):
            return [(t.kind, t.text, *ast._line_col(text, t.at))
                    for t in ast._tokenize(text)]
        # a comment does not move the end-of-input column
        assert tokens("skip // c") == [("IDENT", "skip", 1, 1), ("EOF", "", 1, 6)]
        assert tokens("x\n// c\n") == [("IDENT", "x", 1, 1), ("EOF", "", 3, 1)]
        # an exponent needs digits; "1e+" is a number, a name and a sign
        assert tokens("1e+") == [("NUM", "1", 1, 1), ("IDENT", "e", 1, 2),
                                 ("SYM", "+", 1, 3), ("EOF", "", 1, 4)]
        assert tokens("2.5e-3") == [("NUM", "2.5e-3", 1, 1), ("EOF", "", 1, 7)]
        # "\r" is space: it counts as a column and ends no line
        assert tokens("a\r\n b\r") == [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 2),
                                        ("EOF", "", 2, 4)]
        # the first "//" of the last line starts its comment
        assert tokens("x\ny // c // d") == [("IDENT", "x", 1, 1), ("IDENT", "y", 2, 1),
                                            ("EOF", "", 2, 3)]
        for text, message in (("1.", "1:2: unexpected character '.'"),
                              ("a\tb\x0c", "1:4: unexpected character '\\x0c'"),
                              ("q *= H\nabé1", "2:3: non-ASCII character 'é'"),
                              ("x // é $\n $", "2:2: unexpected character '$'")):
            with pytest.raises(ParseError) as info:
                ast._tokenize(text)
            assert str(info.value) == message

    def test_non_ascii_allowed_in_comments(self):
        p = parse("// préparation\nnew qbit q")
        assert len(p.body) == 1

    def test_oracle_gate(self):
        p = parse("t *= OracleU(0110, 2)")
        assert p.body[0].gate == ast.OracleGate((0, 1, 1, 0), ast.Num(2))

    def test_empty_block_normalizes_to_skip(self):
        p = parse("if q then { } else { skip }")
        assert p.body[0].then_block == [ast.Skip()]


def nested_measure(depth: int) -> str:
    """``depth`` measurements nested in then-blocks, one opening per line."""
    return ("measure q then {\n" * depth + "q *= H"
            + "\n} else { skip }" * depth)


class TestNesting:
    CTX = Context.of(("q", "qbit"))

    def test_program_at_the_bound_runs(self):
        source = nested_measure(ast.MAX_NESTING)
        d = denote(source, self.CTX)
        flat = denote("measure q then { q *= H } else { skip }", self.CTX)
        assert len(d.kraus) == len(flat.kraus)
        for a, b in zip(d.kraus.ops, flat.kraus.ops):
            assert np.abs(a - b).max() < 1e-12
        plus = DensityState(Signature((2,)), (np.full((2, 2), 0.5),))
        a = run(source, plus, self.CTX)
        b = eval_direct(source, plus, self.CTX)
        assert np.abs(a.blocks[0] - b.blocks[0]).max() < 1e-12
        assert a.trace() == pytest.approx(1.0)

    def test_one_level_past_the_bound(self):
        with pytest.raises(ParseError, match="nesting deeper than 200") as err:
            parse(nested_measure(ast.MAX_NESTING + 1))
        assert err.value.line == ast.MAX_NESTING + 1

    def test_blocks_and_parentheses_count_together(self):
        # a gate's own parentheses do not nest, so they do not count
        inner = "measure q then {\n" * 198
        close = "\n} else { skip }" * 198
        parse(inner + "q *= Phase(-(1))" + close)  # 198 + 2 levels
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(inner + "q *= Phase(-(-1))" + close)
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(inner + "q *= Phase((((1))))" + close)

    def test_deep_parentheses(self):
        with pytest.raises(ParseError, match="nesting deeper"):
            parse("q *= Phase(" + "(" * 1000 + "1" + ")" * 1001)

    @staticmethod
    def chain(op: str, terms: int) -> str:
        return "new qbit a\na *= Phase(" + f" {op} ".join(["1"] * terms) + ")"

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_long_operator_chain(self, op):
        source = self.chain(op, 1500)
        # the 201st operator is the first past the bound
        col = len("a *= Phase(") + 1 + len(f"1 {op} ") * ast.MAX_NESTING + 2
        for stage in (parse, denote):
            with pytest.raises(ParseError, match="nesting deeper") as err:
                stage(source)
            assert (err.value.line, err.value.col) == (2, col)

    def test_operator_chain_below_the_bound_denotes(self):
        (op,) = denote(self.chain("+", 150)).kraus.ops
        assert np.abs(op - np.exp(150j) * np.array([[1], [0]])).max() < 1e-12

    def test_operator_levels_end_with_their_expression(self):
        parse("a *= Phase(1 + 2 * 3)\n" * 300)
        parse("a *= Phase(" + " + ".join(["(1 + 1)"] * 150) + ")")

    def test_operators_count_with_blocks(self):
        inner = "measure q then {\n" * 199
        close = "\n} else { skip }" * 199
        parse(inner + "q *= Phase(1 + 2)" + close)  # 199 + 1 levels
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(inner + "q *= Phase(1 + 2 * 3)" + close)


class TestPrettyRoundTrip:
    SOURCES = [
        "skip",
        "new qbit q\nnew bit b\nq *= H\ndiscard b",
        "if q0 then { skip } else { q1 *= X }",
        "measure q then { q *= H } else { skip }",
        "case (a, b) of |00> -> { skip } |01> -> { t *= X } |_> -> { skip }",
        "for i = 1 to 3 { q[i] *= Rk(i + 1) }",
        "q *= Phase(pi / 4)",
        "q *= [[0, 1i], [-1i, 0]]",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_source_round_trip(self, source):
        tree = parse(source)
        assert parse(pretty(tree)) == tree

    def test_corpus_round_trip(self):
        from qalt import gen_grover_oracle
        programs = [gen_deutsch(TruthTable.from_bits(b))
                    for b in ("00", "01", "10", "11")]
        programs += [gen_deutsch_jozsa(TruthTable.from_bits(b))
                     for b in ("0110", "00001111", "11111111")]
        programs += [gen_qft(n) for n in (1, 2, 3, 4)]
        programs += [gen_grover_oracle(x0, n)
                     for n in (1, 2, 3) for x0 in (0, 2 ** n - 1)]
        for program in programs:
            assert parse(pretty(program)) == program

    # ``==`` on a tree holds for -0.0 against 0.0 and fails for nan, so an
    # exact round trip is checked on ``repr``
    EXACT_SOURCES = [
        "q *= [[-0.0, 1], [1, 0]]",
        "q *= [[-0i, 1], [1, 0]]",
        "q *= [[1e400, 0], [0, 1]]",
        "q *= [[1e400i, 0], [0, 1]]",
        "q *= Phase(1e400)",
        "for i = 1 to 1e400 { skip }",
        # sums with a -0.0, inf or nan part
        "q *= [[-0 - 1i, -0i - -2.5, 1e400i - 1, -1e400 + 1i, 1 + 1e400i, 1 - 1e400]]",
        "q *= [[1e400 - 1e400, 1e400i + 1e308 + 1e308, -0i - -1e308 - -1e308]]",
    ]

    @pytest.mark.parametrize("source", EXACT_SOURCES)
    def test_exact_round_trip(self, source):
        tree = parse(source)
        assert repr(parse(pretty(tree))) == repr(tree)

    def test_negative_zero_keeps_its_denotation(self):
        ctx = Context.of(("q", "qbit"))
        tree = parse("q *= [[-0.0, 1], [1, 0]]")
        assert pretty(tree) == "q *= [[-0, 1], [1, 0]]\n"
        [a] = denote(tree, ctx).kraus.ops
        [b] = denote(pretty(tree), ctx).kraus.ops
        assert a.tobytes() == b.tobytes()

    def test_overflowed_literals_overflow_again(self):
        assert pretty(parse("q *= Phase(1e400)")) == "q *= Phase(1e999)\n"
        assert pretty(parse("q *= [[1e400i, -1e400]]")) == "q *= [[1e999i, -1e999]]\n"


class TestComplexLiteral:
    """A matrix entry sums its terms, each multiplied by its sign as the full
    complex product (s + 0j) * term, whatever the Python version."""

    TERMS = ["0", "1", "2.5", "1e999", "0i", "1i", "2.5i", "1e999i", "i"]
    # the first term takes a unary sign, each later one an operator too
    FIRST, LATER = ["", "-"], ["+ ", "- ", "+ -", "- -"]

    @staticmethod
    def term(sign: str, text: str) -> tuple:
        mag = 1.0 if text == "i" else float(text.rstrip("i"))
        part = -mag if sign.endswith("-") else mag
        return (0.0, part) if text.endswith("i") else (part, 0.0)

    @staticmethod
    def signed(op: str, term: tuple) -> tuple:
        s, (a, b) = (-1.0 if op.startswith("-") else 1.0), term
        return (s * a - 0.0 * b, s * b + 0.0 * a)

    def test_every_sum_of_up_to_three_terms(self):
        sources, expected = [], []
        for k in (1, 2, 3):
            for texts in itertools.product(self.TERMS, repeat=k):
                for signs in itertools.product(self.FIRST, *[self.LATER] * (k - 1)):
                    re, im = self.term(signs[0], texts[0])
                    for sign, text in zip(signs[1:], texts[1:]):
                        x, y = self.signed(sign, self.term(sign[1:], text))
                        re, im = re + x, im + y
                    sources.append(" ".join(s + t for s, t in zip(signs, texts)))
                    expected.append(repr(complex(re, im)))
        tree = parse(f"q *= [[{', '.join(sources)}]]")
        [row] = tree.body[0].gate.entries
        assert [repr(z) for z in row] == expected
        # the sums fall into 198 values (zero signs, infs and nans apart)
        assert len(set(expected)) == 198
        assert repr(parse(pretty(tree))) == repr(tree)


#: Words of the seeded parser inputs: every keyword, gate and symbol, some
#: names and numbers, a comment and characters the tokenizer rejects.
PARSER_VOCAB = sorted(ast.KEYWORDS) + list(ast.GATE_NAMES) + [
    "Rk", "Phase", "OracleU", "Foo", "i", "_", "q", "q0", "a", "pi",
    "0", "1", "01", "0110", "2", "10", "1.5", "2e3", "0.25e-1",
    "->", "*=", "{", "}", "(", ")", "[", "]", ",", "|", ">", "=",
    "+", "-", "*", "/", "$", ".", "é", "// c\n"]

PARSER_CORPUS = TestPrettyRoundTrip.SOURCES + [
    pretty(program) for program in (
        [gen_deutsch(TruthTable.from_bits(b)) for b in ("01", "11")]
        + [gen_deutsch_jozsa(TruthTable.from_bits("0110"))]
        + [gen_qft(n) for n in (2, 3)]
        + [gen_grover_oracle(1, 2)])] + [
    "q *= [[0.5 + 0.5i, -i], [1e-3 - -2i, +1]]\nq *= [[1], [i]]",
    "t *= OracleU(0110, k * 2 - (1 + -j) / 3)",
    "new bit b[2 * i]\nfor j = -1 to (n) { a[j], b *= Rk(-(-j)) }",
]


def _mutant(rng, programs) -> str:
    """A corpus program with one or two words dropped, added or changed."""
    words = list(rng.choice(programs))
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(words) + 1)
        roll = rng.randrange(6)
        if roll == 0:
            words[at:at + 1] = []
        elif roll == 1:
            words.insert(at, rng.choice(PARSER_VOCAB))
        elif roll == 2:
            words[at:at + 1] = [rng.choice(PARSER_VOCAB)]
        elif roll == 3:
            words[at:at] = words[at:at + rng.randint(1, 3)]
        elif roll == 4:
            words[at:at + 2] = words[at:at + 2][::-1]
        else:
            words = words[:at]
    return "".join(w + rng.choice(" \n") for w in words)


def _deep_source(rng) -> str:
    """Blocks and expression levels that end near :data:`MAX_NESTING`."""
    # two of the five forms open no level around their operand
    blocks = rng.randrange(25)
    expr = "1"
    for _ in range((ast.MAX_NESTING - blocks) * rng.randrange(160, 240) // 100):
        expr = rng.choice(
            ["-{}", "({})", "{} + 2", "2 * {}", "{} / x - 1"]).format(expr)
    return ("measure q then {\n" * blocks + f"q *= Phase({expr})"
            + "\n} else { skip }" * blocks)


def parser_inputs(seed: int, count: int) -> list[str]:
    """Seeded parser inputs: random word strings, corpus mutants and deep
    nestings."""
    rng = random.Random(seed)
    programs = [[t.text for t in ast._tokenize(source)[:-1]]
                for source in PARSER_CORPUS]
    inputs = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.01:
            inputs.append(_deep_source(rng))
        elif roll < 0.45:
            words = rng.choices(PARSER_VOCAB, k=rng.randint(1, 10))
            inputs.append("".join(w + rng.choice(["", " ", " ", "\n"])
                                  for w in words))
        else:
            inputs.append(_mutant(rng, programs))
    return inputs


def parser_outcome(source: str) -> str:
    """``repr`` of the AST, or of the error's (message, line, col)."""
    try:
        return repr(parse(source))
    except ParseError as err:
        return repr((str(err), err.line, err.col))


class TestParserPinned:
    def test_outcomes_of_seeded_inputs(self):
        # pins every AST and every ParseError message and position that
        # the parser gives on 20000 inputs, about 1300 of which parse
        outcomes = [parser_outcome(s) for s in parser_inputs(2024, 20000)]
        parsed = sum(o.startswith("Program(") for o in outcomes)
        digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
        assert (parsed, digest) == (
            1284, "22592496a4305a26d2c6bec3e2b62061c908423f58e7742ade332aa6d4db252a")


    def test_pretty_is_exact_on_seeded_inputs(self):
        trees = []
        for source in parser_inputs(2024, 20000):
            try:
                trees.append(parse(source))
            except ParseError:
                pass
        assert len(trees) == 1284
        for tree in trees:
            assert repr(parse(pretty(tree))) == repr(tree)


class TestTypecheck:
    def test_control_capture(self):
        p = parse("if q then { q *= X } else { skip }")
        with pytest.raises(ControlCapture) as err:
            typecheck(elaborate(p), Context.of(("q", "qbit")))
        assert str(err.value) == "branch mentions control qubit 'q'"

    def test_branch_context_mismatch(self):
        p = parse("if q0 then { discard q1 } else { skip }")
        with pytest.raises(BranchContextMismatch) as err:
            typecheck(elaborate(p), CTX_Q01)
        assert str(err.value) == ("branches produce different contexts: "
                                  "() vs (q1:qbit)")

    def test_deutsch_well_typed(self):
        assert typecheck(elaborate(gen_deutsch(TruthTable.from_bits("01")))) == CTX_Q01

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            typecheck(parse("q *= H"))

    @pytest.mark.parametrize("name", ["", " ", "x y", " q", "q\t"])
    def test_context_rejects_names_no_program_can_mention(self, name):
        with pytest.raises(ValueError, match="empty or holds whitespace"):
            Context.of((name, "qbit"))

    def test_context_keeps_names_an_index_resolves_to(self):
        # q[0 - 1] is the variable q-1
        ctx = Context.of(("q-1", "qbit"))
        assert typecheck(elaborate(parse("q[0 - 1] *= X")), ctx) == ctx

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            typecheck(parse("new qbit q\nnew bit q"))

    def test_kind_error_if_on_bit(self):
        p = parse("new bit b\nif b then { skip } else { skip }")
        with pytest.raises(KindError):
            typecheck(elaborate(p))

    def test_kind_error_gate_on_bit(self):
        with pytest.raises(KindError):
            typecheck(parse("new bit b\nb *= X"))

    def test_measure_branches_may_touch_control(self):
        p = parse("measure q then { q *= X } else { skip }")
        assert typecheck(p, Context.of(("q", "qbit"))) == Context.of(("q", "qbit"))

    def test_branches_may_allocate_when_contexts_match(self):
        src = ("if q0 then { new qbit r\ndiscard r } "
               "else { measure q1 then { skip } else { skip } }")
        assert typecheck(elaborate(parse(src)), CTX_Q01) == CTX_Q01

    def test_statement_contexts_by_prefix(self):
        # the context before statement i is the output of the first i
        body = parse("new qbit q\nq *= H").body
        contexts = [typecheck(ast.Program(body[:i])) for i in range(3)]
        assert contexts == [Context.empty(), Context.of(("q", "qbit")),
                            Context.of(("q", "qbit"))]

    def test_nonunitary_matrix_literal(self):
        with pytest.raises(InvalidGate):
            typecheck(parse("q *= [[1, 0], [0, 2]]"), Context.of(("q", "qbit")))

    def test_case_needs_cover(self):
        p = parse("case (a, b) of |00> -> { skip }")
        with pytest.raises(BranchContextMismatch):
            elaborate(p)

    def test_duplicate_case_label(self):
        p = parse("case (a) of |0> -> { skip } |0> -> { skip }")
        with pytest.raises(DuplicateName):
            elaborate(p)

    def test_case_control_capture(self):
        p = parse("case (a, b) of |_> -> { a *= H }")
        with pytest.raises(ControlCapture):
            typecheck(elaborate(p), Context.of(("a", "qbit"), ("b", "qbit")))

    def test_unbound_loop_variable(self):
        with pytest.raises(NonConstantBound):
            elaborate(parse("for i = 1 to n { skip }"))

    @pytest.mark.parametrize("source, text", [
        ("q0 *= Rk(1/0)", "'1 / 0' fails: division by zero"),
        ("for i = 1 to 4 / (2 - 2) { q0 *= H }", "'4 / (2 - 2)' fails"),
        ("q0 *= Phase(1e308 * 10)", "'1e+308 * 10' is not finite"),
        ("q0 *= Phase(1e999)", "'inf' is not finite"),
    ])
    def test_meta_arithmetic_faults(self, source, text):
        with pytest.raises(NonConstantBound, match=re.escape(text)):
            elaborate(parse(source))

    def test_deterministic(self):
        p = elaborate(gen_qft(3))
        a = typecheck(p, Context.of(("q1", "qbit"), ("q2", "qbit"), ("q3", "qbit")))
        b = typecheck(p, Context.of(("q1", "qbit"), ("q2", "qbit"), ("q3", "qbit")))
        assert a == b

    def test_order_independent_for_unrelated_declarations(self):
        a = parse("new qbit x\nnew qbit y\nx *= H\ny *= X")
        b = parse("new qbit y\nnew qbit x\nx *= H\ny *= X")
        assert typecheck(a).names() == ["x", "y"]
        assert typecheck(b).names() == ["y", "x"]


class TestFrontEnd:
    """parse -> elaborate -> typecheck: elaborate owns every meta-level fault."""

    def test_meta_fault_reported_before_typing_fault(self):
        # x is not in scope, but the loop bound fails first
        with pytest.raises(NonConstantBound, match="division by zero"):
            denote("x *= H\nfor i = 1 to 1/0 { skip }")

    @pytest.mark.parametrize("source, error, text", [
        ("t *= Rk(-1)", InvalidGate, "Rk needs a nonnegative index"),
        ("t *= Rk(1 - 2)", InvalidGate, "Rk needs a nonnegative index"),
        ("t *= OracleU(011, 0)", InvalidGate, "must be a power of two"),
        ("t *= OracleU(0110, 4)", InvalidGate, "oracle point 4 outside table"),
        ("case (t) of |00> -> { skip } |_> -> { skip }", KindError,
         "case label '00' does not match 1 control qubit(s)"),
        ("case (t) of |_> -> { skip } |_> -> { skip }", DuplicateName,
         "duplicate case label '_'"),
    ])
    def test_elaborate_checks_meta_values(self, source, error, text):
        with pytest.raises(error, match=re.escape(text)):
            elaborate(parse(source))

    def test_phase_of_huge_integer(self):
        # the product stays an exact int, too large to become a float angle
        product = " * ".join(["1000000000"] * 40)
        with pytest.raises(NonConstantBound, match=re.escape(
                f"meta expression '{product}' is too large for a float")):
            elaborate(parse(f"t *= Phase({product})"))

    def test_integer_literal_past_the_digit_limit(self):
        # longer than Python's limit on int(str): a ParseError at the literal
        with pytest.raises(ParseError) as info:
            parse("new qbit q\nq *= Rk(" + "1" * 5000 + ")")
        assert str(info.value) == "2:9: integer literal of 5000 digits is too long"

    def test_name_index_past_the_digit_limit(self):
        # the index is an exact int whose name Python will not write out
        nines = "9" * 4000
        with pytest.raises(NonConstantBound, match="index of 'q' has too many digits"):
            elaborate(parse(f"q[{nines} * {nines}] *= H"))

    def test_rk_is_exactly_the_identity_from_1078_on(self):
        # the angle 2*pi*2**-k underflows to 0 at k = 1078, not before
        eye = np.eye(2, dtype=complex).tobytes()
        assert rk_gate(1078).tobytes() == eye
        assert rk_gate(1077).tobytes() != eye
        assert RK_IDENTITY == 1078

    @pytest.mark.parametrize("source, reference", [
        ("q *= Rk({n} * {n})", "q *= I"),
        ("for i = {n} * {n} to {n} * {n} {{ q *= Rk(i) }}\nq *= H", "q *= I\nq *= H"),
    ], ids=["literal", "loop"])
    def test_rk_index_past_the_digit_limit_is_the_identity(self, source, reference):
        nines = "9" * 4000
        program = parse("new qbit q\n" + source.format(n=nines))
        core = elaborate(program)
        assert core.body[1].gate == ast.RkGate(ast.Num(1078))
        assert "Rk(1078)" in pretty(core) and "Num(value=1078)" in repr(core)
        assert denote(program).kraus == denote("new qbit q\n" + reference).kraus

    def test_oracle_point_past_the_digit_limit(self):
        # the message names the point as written, not the product's digits
        nines = "9" * 4000
        with pytest.raises(InvalidGate) as info:
            elaborate(parse(f"t *= OracleU(01, {nines} * {nines})"))
        assert str(info.value) == f"oracle point {nines} * {nines} outside table of size 2"

    @pytest.mark.parametrize("default", ["{ skip }", "{ t *= H }"],
                             ids=["well_typed", "ill_typed"])
    def test_default_arm_matching_no_label(self, default):
        p = parse(f"case (t) of |0> -> {{ skip }} |1> -> {{ skip }} |_> -> {default}")
        with pytest.raises(KindError, match="default arm .* matches no label"):
            elaborate(p)

    @pytest.mark.parametrize("source", [
        "for i = 1 to 2 { t *= H }",
        "if t then { skip } else { skip }",
        "q[1] *= H",
        "t *= OracleU(01, 0)",
        "t *= Rk(1 + 1)",
        "t *= Phase(pi / 4)",
        "case (t) of |_> -> { skip }",
        "case (t) of |1> -> { skip } |0> -> { skip }",
        "case (t) of |0> -> { skip }",
        "measure t then { case (t) of |_> -> { skip } } else { skip }",
    ])
    def test_typecheck_rejects_surface_constructs(self, source):
        ctx = Context.of(("t", "qbit"), ("q1", "qbit"))
        with pytest.raises(TypeError, match="not elaborated"):
            typecheck(parse(source), ctx)


class TestElaborate:
    def test_qft_unrolls(self):
        core = elaborate(gen_qft(3))
        typecheck(core, Context.of(("q1", "qbit"), ("q2", "qbit"), ("q3", "qbit")))
        kinds = [type(s).__name__ for s in core.body]
        assert kinds.count("ApplyGate") == 3
        cases = [s for s in core.body if isinstance(s, ast.QCase)]
        assert len(cases) == 3
        assert all(len(s.controls) == 1 for s in cases)
        assert "QIf" not in kinds
        assert len(core.body) == 6

    def test_vacuous_loop(self):
        core = elaborate(parse("new qbit q\nfor i = 5 to 4 { q *= H }"))
        assert [type(s).__name__ for s in core.body] == ["NewQbit"]

    def test_vacuous_loop_in_branch_becomes_skip(self):
        core = elaborate(parse(
            "if q then { for i = 2 to 1 { r *= H } } else { skip }"))
        assert core.body[0] == ast.QCase([ast.NameRef("q")],
                                         [ast.CaseArm("0", [ast.Skip()]),
                                          ast.CaseArm("1", [ast.Skip()])])

    def test_oracle_resolution(self):
        core = elaborate(parse("t *= OracleU(0001, 3)"))
        gate = core.body[0].gate
        assert isinstance(gate, ast.MatrixGate)
        assert np.array_equal(np.array(gate.entries), [[0, 1], [1, 0]])
        core_id = elaborate(parse("t *= OracleU(0001, 1)"))
        assert np.array_equal(np.array(core_id.body[0].gate.entries), np.eye(2))

    def test_case_default_expansion(self):
        core = elaborate(parse(
            "case (a, b) of |10> -> { t *= X } |_> -> { skip }"))
        (stmt,) = core.body
        assert [arm.label for arm in stmt.arms] == ["00", "01", "10", "11"]
        assert stmt.arms[2].block == [ast.ApplyGate([ast.NameRef("t")],
                                                    ast.NamedGate("X"))]
        assert stmt.arms[0].block == [ast.Skip()]

    def test_indexed_names_resolved(self):
        core = elaborate(parse("for i = 1 to 2 { q[i] *= H }"))
        assert [s.targets[0].base for s in core.body] == ["q1", "q2"]
        assert all(s.targets[0].index is None for s in core.body)

    def test_elaborate_preserves_typing(self):
        ctx = Context.of(("q1", "qbit"), ("q2", "qbit"), ("q3", "qbit"))
        program = gen_qft(3)
        core_ctx = typecheck(elaborate(program), ctx)
        assert core_ctx == denote(program, ctx).output_ctx == ctx

    def test_rk_argument_resolved(self):
        core = elaborate(parse("for k = 2 to 2 { q *= Rk(k) }"))
        assert core.body[0].gate == ast.RkGate(ast.Num(2))

    def test_phase_evaluated(self):
        core = elaborate(parse("q *= Phase(pi / 4)"))
        assert core.body[0].gate.theta.value == pytest.approx(math.pi / 4)


class TestHashConsing:
    """elaborate makes each distinct core statement one node; typecheck checks
    each (node, context, blocked) triple once."""

    def test_invariant_loop_body_is_elaborated_and_checked_once(self, monkeypatch):
        elabs = count_calls(monkeypatch, "_elab_stmt", check)
        checks = count_calls(monkeypatch, "_check_stmt", check)
        core = elaborate(parse("for i = 1 to 50 { a *= H }"))
        assert len(core.body) == 50 and all(s is core.body[0] for s in core.body)
        ctx = Context.of(("a", "qbit"))
        assert typecheck(core, ctx) == ctx
        assert [type(args[0]) for args in elabs] == [ast.ForLoop, ast.ApplyGate]
        assert len(checks) == 1

    def test_loop_that_mentions_its_variable_elaborates_each_iteration(self, monkeypatch):
        elabs = count_calls(monkeypatch, "_elab_stmt", check)
        core = elaborate(parse("for i = 1 to 3 { q[i] *= H }"))
        assert len([args for args in elabs if isinstance(args[0], ast.ApplyGate)]) == 3
        assert [s.targets[0].base for s in core.body] == ["q1", "q2", "q3"]
        assert core.body[0].gate is core.body[1].gate

    @pytest.mark.parametrize("source, targets", [
        # the inner bound mentions i
        ("for i = 1 to 2 { for j = 1 to i { a *= H } }", ["a"] * 3),
        # the inner loop binds i again, so the outer body counts as mentioning it
        ("for i = 1 to 3 { for i = 1 to 2 { q[i] *= H } }", ["q1", "q2"] * 3),
        ("for i = 1 to 2 { for j = 1 to 2 { q[j] *= H } }", ["q1", "q2"] * 2),
    ])
    def test_nested_loops(self, source, targets):
        core = elaborate(parse(source))
        assert [s.targets[0].base for s in core.body] == targets

    def test_loop_without_iterations_elaborates_nothing(self, monkeypatch):
        elabs = count_calls(monkeypatch, "_elab_stmt", check)
        # the body would raise if it were elaborated
        assert elaborate(parse("for i = 2 to 1 { a *= OracleU(011, 0) }")).body == []
        assert [type(args[0]) for args in elabs] == [ast.ForLoop]

    def test_same_node_in_a_new_context_is_checked_again(self, monkeypatch):
        checks = count_calls(monkeypatch, "_check_stmt", check)
        core = elaborate(parse("for i = 1 to 2 { new qbit t }"))
        assert core.body[0] is core.body[1]
        with pytest.raises(DuplicateName) as err:
            typecheck(core)
        assert str(err.value) == "name 't' is already in scope"
        assert len(checks) == 2 and checks[0][0] is checks[1][0]

    def test_ill_typed_long_loop_elaborates_its_body_once(self, monkeypatch):
        elabs = count_calls(monkeypatch, "_elab_stmt", check)
        with pytest.raises(UnknownName, match="name 'x' is not in scope"):
            denote("for i = 1 to 100000 { x *= H }")
        assert len(elabs) == 2

    @pytest.mark.parametrize("x, y", [
        ("Phase(0.0)", "Phase(-0.0)"),
        ("Phase(0.1)", "Phase(0.1000000000000001)"),
        ("[[1, 0], [0, 1]]", "[[1, -0.0], [0, 1]]"),
    ])
    def test_literals_are_keyed_by_their_bits(self, x, y):
        body = elaborate(parse(f"a *= {x}\na *= {y}\na *= {x}")).body
        assert body[0] is body[2] and body[0] is not body[1]
        assert body[0].gate is not body[1].gate

    def test_oracle_and_equal_literal_are_one_node(self):
        body = elaborate(parse("a *= OracleU(01, 1)\na *= [[0, 1], [1, 0]]")).body
        assert body[0] is body[1]

    def test_gates_lists_each_distinct_gate_node_once(self):
        nines = "9" * 4000
        core = elaborate(parse("\n".join([
            "a *= H", "b *= H", "for i = 1 to 3 { a *= X\nb *= Phase(0.5) }",
            "case (a, b) of |00> -> { c *= Y } |_> -> { c *= H }",
            "a *= OracleU(01, 1)", "a *= [[0, 1], [1, 0]]",
            "a *= Rk(1078)", f"a *= Rk({nines} * {nines})",
            "for i = 2 to 1 { a *= Z }"])))

        def gates(block):  # the gate nodes of a core block
            for stmt in block:
                if isinstance(stmt, ast.ApplyGate):
                    yield stmt.gate
                elif isinstance(stmt, ast.QCase):
                    for arm in stmt.arms:
                        yield from gates(arm.block)
        assert {id(g): g for g in gates(core.body)} == {id(g): g for g in core.gates}
        assert len(set(map(id, core.gates))) == len(core.gates)
        # in the order elaboration made them; Z sits in a loop without iterations
        assert core.gates == (
            ast.NamedGate("H"), ast.NamedGate("X"), ast.PhaseGate(ast.Num(0.5)),
            ast.NamedGate("Y"), ast.MatrixGate(((0j, 1 + 0j), (1 + 0j, 0j))),
            ast.RkGate(ast.Num(1078)))

    def test_gates_change_neither_eq_nor_repr(self):
        core = elaborate(parse("a *= H\nif a then { b *= X } else { skip }"))
        bare = ast.Program(core.body)
        assert len(core.gates) == 2 and bare.gates == ()
        assert core == bare and repr(core) == repr(bare)
        assert core == parse("a *= H\ncase (a) of |0> -> { b *= X } |1> -> { skip }")


def distinct_lines(source: str) -> str:
    """``source`` with a comment that differs on each line: the same tokens at
    the same columns, with no line repeated, so no parse is read from the memo."""
    return "\n".join(f"{line}//{i}" for i, line in enumerate(source.split("\n")))


#: Lines that fill a statement, lines that continue or open one, and traps.
MEMO_LINES = [
    "a *= H", "  a *= H", "a *= H\r", "a *= H // é", "a *= H b *= X", "skip",
    "discard a", "new qbit a", "new bit b", "discard a[0]", "[0] *= H", "[0]",
    "case (a) of |0> -> { skip } |1> -> { b *= X }", "|_> -> { skip }",
    "|1> -> { a *= X }", "case (a) of", "measure a then {", "} else {", "}",
    "} else { skip }", "if a then { b *= H } else { skip }",
    "for i = 1 to 3 {", "q[i] *= Rk(i)", "a *= Phase(-(-1))", "a *= Rk(2", ")",
    "a, b *= [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]",
    "", "// only a comment", "a *= é", "  ",
]


class TestParseMemo:
    """parse tokenizes and parses each distinct line once; elaborate reuses the
    core statements of a shared surface node."""

    def test_repeated_line_is_one_node(self):
        source = "a *= H\nb *= X\na *= H\n a *= H\na *= H"
        p = parse(source)
        assert p.body[0] is p.body[2] is p.body[4]
        assert p.body[3] is not p.body[0] and p.body[3] == p.body[0]
        fresh = parse(distinct_lines(source))
        assert len({id(s) for s in fresh.body}) == 5
        assert p == fresh and repr(p) == repr(fresh)

    def test_each_distinct_line_is_tokenized_and_parsed_once(self, monkeypatch):
        source = "\n".join(["a *= H", "b *= Rk(3)"] * 300 + ["measure a then {",
                                                            "  a *= H", "} else {",
                                                            "  a *= H", "}"] * 2)
        tokens = count_calls(monkeypatch, "Token", ast)
        stmts = count_calls(monkeypatch, "parse_stmt", ast._Parser)
        p = parse(source)
        assert len(p.body) == 602
        # 3 + 6 + 4 + 3 + 3 + 1 tokens in the distinct lines, and EOF
        assert len(tokens) == 21
        # a *= H, b *= Rk(3), two measurements (no line holds one) and
        # the indented line, one level deep in all four blocks
        assert len(stmts) == 5
        arms = [p.body[600].then_block[0], p.body[600].else_block[0],
                p.body[601].then_block[0]]
        assert all(s is arms[0] for s in arms) and arms[0] == p.body[0]

    def test_program_without_repeated_lines_builds_each_token_once(self, monkeypatch):
        source = "new qbit a // é\na *= Rk(2 * 3)\nmeasure a then {\n  a *= H\n} else { skip }"
        expected = len(ast._tokenize(source))
        tokens = count_calls(monkeypatch, "Token", ast)
        stmts = count_calls(monkeypatch, "parse_stmt", ast._Parser)
        parse(source)
        assert len(tokens) == expected == 24
        assert len(stmts) == 5

    def test_elaborate_elaborates_each_distinct_surface_node_once(self, monkeypatch):
        elabs = count_calls(monkeypatch, "_elab_stmt", check)
        program = parse("\n".join(["a *= H", "if a then { b *= X } else { skip }",
                                   "b *= Phase(pi / 4)"] * 100))
        core = elaborate(program)
        assert [type(args[0]) for args in elabs] == [ast.ApplyGate, ast.QIf, ast.ApplyGate,
                                                     ast.Skip, ast.ApplyGate]
        assert core.body == elaborate(parse(distinct_lines(pretty(program)))).body
        assert [core.body[3 * i + j] is core.body[j] for i in range(100)
                for j in range(3)] == [True] * 300

        def nodes(node):  # every dataclass node and list under ``node``
            if isinstance(node, list) or dataclasses.is_dataclass(node):
                yield node
                for child in node if isinstance(node, list) else vars(node).values():
                    yield from nodes(child)
        # the result still shares no node with its input
        assert not {id(n) for n in nodes(program)} & {id(n) for n in nodes(core)}

    def test_shared_line_elaborates_once_per_loop_value(self, monkeypatch):
        elabs = count_calls(monkeypatch, "_elab_stmt", check)
        core = elaborate(parse("for i = 1 to 3 {\n  q[i] *= H\n  q[i] *= H\n}"))
        assert [type(args[0]) for args in elabs] == [ast.ForLoop] + [ast.ApplyGate] * 3
        assert [s.targets[0].base for s in core.body] == ["q1", "q1", "q2", "q2", "q3", "q3"]

    @pytest.mark.parametrize("source, outcome", [
        # the name takes the index on the next line
        ("discard a\ndiscard a\n[0]",
         "Program(body=[Discard(name=NameRef(base='a', index=None)), "
         "Discard(name=NameRef(base='a', index=Num(value=0)))])"),
        ("new qbit a\nnew qbit a\n[0] *= H",
         repr(("3:5: expected a statement, found '*='", 3, 5))),
        # the case takes the arm on the next line
        ("case (a) of |0> -> { skip } |1> -> { b *= X }\n" * 2 + "|_> -> { skip }",
         None),
        # a comment with non-ASCII characters, and a line with one outside it
        ("a *= H // é\na *= H // é\na *= é // é",
         repr(("3:6: non-ASCII character 'é'", 3, 6))),
        # "\r" ends no line and counts as a column
        ("a *= H\r\na *= H\r\n$\r\n", repr(("3:1: unexpected character '$'", 3, 1))),
        ("a *= H\r\na *= H\r\na *= H", None),
        # EOF after a comment on the last line is at the comment's start
        ("x *= H // c\nx *= H // c\nmeasure x then { x *= H // c",
         repr(("3:25: unterminated block", 3, 25))),
        ("x *= H // c\nmeasure x then { x *= H // c\nx *= H // c",
         repr(("3:8: unterminated block", 3, 8))),
    ])
    def test_memo_gives_what_a_fresh_parse_gives(self, source, outcome):
        got = parser_outcome(source)
        assert got == parser_outcome(distinct_lines(source))
        if outcome is not None:
            assert got == outcome
        if source.startswith("case"):
            p = parse(source)
            assert [len(s.arms) for s in p.body] == [2, 3]

    def test_same_line_one_level_deeper_can_exceed_the_bound(self):
        line = "measure q then { q *= H } else { skip }"
        opener = "measure q then {"
        head = [opener] * (ast.MAX_NESTING - 1) + [line, line]
        close = ["} else { skip }"] * (ast.MAX_NESTING - 1)
        p = parse("\n".join(head + close))
        inner = p.body[0]
        for _ in range(ast.MAX_NESTING - 2):
            inner = inner.then_block[0]
        assert inner.then_block[0] is inner.then_block[1]
        source = "\n".join(head + [opener, line, "}"] + close)
        with pytest.raises(ParseError) as info:
            parse(source)
        assert str(info.value) == f"{ast.MAX_NESTING + 3}:16: nesting deeper than 200 levels"

    @pytest.mark.parametrize("source, position", [
        ("a *= Rk(2)\nb *= X\na *= Rk(2 + )", (3, 13)),
        ("a *= Rk(2)\nb *= X\na *= Rk(2", (3, 10)),
        ("discard a\ndiscard a\ndiscard", (3, 8)),
        ("new qbit a\nnew qbit a\nnew qbit", (3, 9)),
    ])
    def test_error_in_a_near_duplicate_is_at_its_own_position(self, source, position):
        with pytest.raises(ParseError) as info:
            parse(source)
        assert (info.value.line, info.value.col) == position

    def test_memo_agrees_with_fresh_parses_on_seeded_line_mixes(self):
        rng = random.Random(29)
        parsed = shared = 0
        for _ in range(3000):
            source = "\n".join(rng.choices(MEMO_LINES, k=rng.randint(2, 12)))
            outcome = parser_outcome(source)
            assert outcome == parser_outcome(distinct_lines(source)), source
            if outcome.startswith("Program("):
                parsed += 1
                body = parse(source).body
                shared += len(body) - len({id(s) for s in body})
        # both outcomes occur, and many parses reuse a node
        assert 100 < parsed < 2900 and shared > 20


class TestLint:
    def test_flags_measurement_in_quantum_branch(self):
        src = "if q0 then { measure q1 then { skip } else { skip } } else { skip }"
        warnings = lint_closed_system(parse(src))
        assert len(warnings) == 1
        assert "MeasureThenElse" in warnings[0]

    def test_flags_allocation_in_loop_in_quantum_branch(self):
        src = ("if q0 then { for i = 1 to 2 { new qbit a\ndiscard a } } "
               "else { skip }")
        warnings = lint_closed_system(parse(src))
        assert [w.split()[-1] for w in warnings] == ["'NewQbit'", "'Discard'"]
        assert all("'q0'" in w for w in warnings)

    def test_clean_program(self):
        assert lint_closed_system(gen_deutsch(TruthTable.from_bits("01"))) == []
