"""Randomized program fuzzing: the two evaluators must always agree.

Programs are grown statement by statement against a live context, with
quantum conditionals placed on controls at arbitrary layout positions and
classical bits riding along, which is exactly where layout bugs would hide.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from helpers import count_calls, rand_density, state_deviation
from test_corpus import generated_programs
from qalt import (Context, compose, denote, elaborate, eval_direct,
                  lint_closed_system, parse, pretty, run, typecheck)
from qalt import semantics
from qalt import syntax as ast
from qalt.errors import BranchContextMismatch, ControlCapture, ParseError, QaltError
from qalt.semantics import signature_of

MAX_QUBITS = 3
MAX_BITS = 2

GATES = ["H", "X", "S", "Rk(2)", "Phase(pi / 3)", "Phase(1.25)"]


def _neutral_stmt(rng, qubits, blocked, depth):
    """A statement that leaves the context unchanged."""
    usable = [q for q in qubits if q not in blocked]
    if not usable:
        return "skip"
    roll = rng.random()
    if roll < 0.45 or depth >= 2:
        q = usable[int(rng.integers(len(usable)))]
        return f"{q} *= {GATES[int(rng.integers(len(GATES)))]}"
    if roll < 0.7:
        q = usable[int(rng.integers(len(usable)))]
        inner = _neutral_block(rng, qubits, blocked, depth + 1)
        other = _neutral_block(rng, qubits, blocked, depth + 1)
        return f"measure {q} then {{ {inner} }} else {{ {other} }}"
    q = usable[int(rng.integers(len(usable)))]
    inner = _neutral_block(rng, qubits, blocked | {q}, depth + 1)
    other = _neutral_block(rng, qubits, blocked | {q}, depth + 1)
    return f"if {q} then {{ {inner} }} else {{ {other} }}"


def _neutral_block(rng, qubits, blocked, depth):
    count = int(rng.integers(1, 3))
    return "\n".join(_neutral_stmt(rng, qubits, blocked, depth)
                     for _ in range(count))


def random_program(rng):
    lines = []
    qubits = []
    bits = []
    fresh = 0
    for _ in range(int(rng.integers(4, 10))):
        roll = rng.random()
        if (roll < 0.3 and len(qubits) < MAX_QUBITS) or not qubits:
            name = f"q{fresh}"
            fresh += 1
            qubits.append(name)
            lines.append(f"new qbit {name}")
        elif roll < 0.4 and len(bits) < MAX_BITS:
            name = f"b{fresh}"
            fresh += 1
            bits.append(name)
            lines.append(f"new bit {name}")
        elif roll < 0.5 and len(qubits) > 1:
            victim = qubits.pop(int(rng.integers(len(qubits))))
            lines.append(f"discard {victim}")
        else:
            lines.append(_neutral_stmt(rng, qubits, set(), 0))
    return "\n".join(lines)


def test_fuzzed_programs_agree():
    rng = np.random.default_rng(20240607)
    for _ in range(40):
        source = random_program(rng)
        a = run(source)
        b = eval_direct(source)
        dev = state_deviation(a, b)
        assert dev < 1e-9, f"evaluators disagree by {dev}\n{source}"


def test_fuzzed_programs_agree_on_random_initial_states():
    rng = np.random.default_rng(20240608)
    ctx = Context.of(("q0", "qbit"), ("b0", "bit"), ("q1", "qbit"))
    for _ in range(15):
        body = "\n".join(
            _neutral_stmt(rng, ["q0", "q1"], set(), 0) for _ in range(4))
        rho = rand_density(rng, signature_of(ctx))
        a = run(body, rho, ctx)
        b = eval_direct(body, rho, ctx)
        dev = state_deviation(a, b)
        assert dev < 1e-9, f"evaluators disagree by {dev}\n{body}"


def test_fuzzed_round_trip():
    rng = np.random.default_rng(20240609)
    for _ in range(25):
        source = random_program(rng)
        tree = parse(source)
        assert parse(pretty(tree)) == tree
        typecheck(elaborate(tree))


@pytest.mark.parametrize("seed", [20240607, 20240608, 20240609, 20240610])
def test_fuzzed_programs_typecheck_again_after_elaboration(seed):
    # the typechecker's rule for the core agrees with the contexts the
    # semantics works out as it goes
    rng = np.random.default_rng(seed)
    for _ in range(40):
        program = parse(random_program(rng))
        assert typecheck(elaborate(program)) == denote(program).output_ctx


@pytest.mark.parametrize("seed", [20240607, 20240608, 20240609, 20240610])
def test_typecheck_leaves_fuzzed_programs_unchanged(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        program = parse(random_program(rng))
        before = pickle.dumps(program)
        core = elaborate(program)
        assert pickle.dumps(program) == before
        before = pickle.dumps(core)
        typecheck(core)
        assert pickle.dumps(core) == before


def _core_statements(block: list):
    """Every statement of a core block, those in measurement and case arms included."""
    for stmt in block:
        yield stmt
        if isinstance(stmt, ast.MeasureThenElse):
            inner = [stmt.then_block, stmt.else_block]
        else:
            inner = [arm.block for arm in getattr(stmt, "arms", [])]
        for sub in inner:
            yield from _core_statements(sub)


@pytest.mark.parametrize("seed", [20240607, 20240608, 20240609, 20240610, 20240612,
                                  20240613])
def test_interning_is_exactly_as_fine_as_repr(seed):
    # two core statements are one node exactly when their reprs, exact for
    # every literal, are equal: the step memo's hits are those of repr keys
    rng = np.random.default_rng(seed)
    shared = 0
    for _ in range(20):
        source = random_program(rng) if seed < 20240612 else looped_program(rng)
        stmts = list(_core_statements(elaborate(parse(source)).body))
        nodes_of, reprs_of = {}, {}
        for stmt in stmts:
            nodes_of.setdefault(repr(stmt), set()).add(id(stmt))
            reprs_of.setdefault(id(stmt), set()).add(repr(stmt))
        assert all(len(ids) == 1 for ids in nodes_of.values()), source
        assert all(len(reprs) == 1 for reprs in reprs_of.values()), source
        shared += len(stmts) - len(reprs_of)
    assert shared > 0


def test_fuzzed_denotations_are_valid_maps():
    rng = np.random.default_rng(20240610)
    for _ in range(15):
        d = denote(random_program(rng))
        total = d.kraus.completeness_sum()
        assert float(np.linalg.eigvalsh(total).max()) <= 1 + 1e-9


def test_parser_never_crashes_on_garbage():
    rng = np.random.default_rng(20240611)
    alphabet = list("abq01 *=(){}[]|><->,._+-/\n\tifthenelsecasemeasure")
    for _ in range(200):
        length = int(rng.integers(1, 60))
        text = "".join(alphabet[int(rng.integers(len(alphabet)))]
                       for _ in range(length))
        try:
            parse(text)
        except ParseError:
            pass


def test_pretty_is_exact_on_fuzzed_programs():
    # the programs of the fuzzers above and below, and the garbage that parses
    rng = np.random.default_rng(20240614)
    alphabet = list("abq01 *=(){}[]|><->,._+-/\n\tifthenelsecasemeasure")
    trees = []
    for _ in range(40):
        trees += [parse(random_program(rng)), parse(looped_program(rng))]
    for _ in range(2000):
        text = "".join(alphabet[int(rng.integers(len(alphabet)))]
                       for _ in range(int(rng.integers(1, 60))))
        try:
            trees.append(parse(text))
        except ParseError:
            pass
    assert len(trees) > 80
    for tree in trees:
        assert repr(parse(pretty(tree))) == repr(tree)


# ---------------------------------------------------------------------------
# A quantum if is the one-control case
# ---------------------------------------------------------------------------

def as_case(block: list) -> list:
    """``block`` with every ``if q then A else B`` written as a case on q."""
    return [_stmt_as_case(stmt) for stmt in block]


def _stmt_as_case(stmt):
    if isinstance(stmt, ast.QIf):
        return ast.QCase([stmt.control],
                         [ast.CaseArm("0", as_case(stmt.then_block)),
                          ast.CaseArm("1", as_case(stmt.else_block))])
    if isinstance(stmt, ast.QCase):
        return ast.QCase(stmt.controls, [ast.CaseArm(arm.label, as_case(arm.block))
                                         for arm in stmt.arms])
    if isinstance(stmt, ast.MeasureThenElse):
        return ast.MeasureThenElse(stmt.control, as_case(stmt.then_block),
                                   as_case(stmt.else_block))
    if isinstance(stmt, ast.ForLoop):
        return ast.ForLoop(stmt.var, stmt.lo, stmt.hi, as_case(stmt.body))
    return stmt


def if_edits(block: list, edit):
    """Copies of ``block`` with ``edit`` applied to one quantum if, in turn."""
    for i, stmt in enumerate(block):
        for new in _stmt_if_edits(stmt, edit):
            yield block[:i] + [new] + block[i + 1:]


def _stmt_if_edits(stmt, edit):
    if isinstance(stmt, ast.QIf):
        yield edit(stmt)
    for field in ("then_block", "else_block", "body"):
        if hasattr(stmt, field):
            for new in if_edits(getattr(stmt, field), edit):
                yield dataclasses.replace(stmt, **{field: new})
    for k, arm in enumerate(getattr(stmt, "arms", ())):
        for new in if_edits(arm.block, edit):
            arms = list(stmt.arms)
            arms[k] = ast.CaseArm(arm.label, new)
            yield dataclasses.replace(stmt, arms=arms)


#: Edits that make a quantum if ill-typed, with the error each should raise.
IF_FAULTS = {
    ControlCapture: lambda s: dataclasses.replace(
        s, then_block=s.then_block + [ast.ApplyGate([s.control],
                                                    ast.NamedGate("H"))]),
    BranchContextMismatch: lambda s: dataclasses.replace(
        s, else_block=s.else_block + [ast.NewQbit(ast.NameRef("fresh"))]),
}


def _typecheck_outcome(program, ctx):
    try:
        return typecheck(elaborate(program), ctx)
    except QaltError as exc:
        return type(exc), str(exc)


def _programs(source):
    if source == "corpus":
        return generated_programs()
    rng = np.random.default_rng(source)
    return [(parse(random_program(rng)), Context.empty()) for _ in range(40)]


@pytest.mark.parametrize("source", ["corpus", 20240607, 20240608, 20240609,
                                    20240610])
def test_if_is_the_one_control_case(source):
    faults_seen = set()
    for program, ctx in _programs(source):
        case = ast.Program(as_case(program.body))
        a, b = denote(program, ctx), denote(case, ctx)
        assert a.output_ctx == b.output_ctx
        assert len(a.kraus) == len(b.kraus)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(a.kraus.ops, b.kraus.ops))
        assert lint_closed_system(program) == lint_closed_system(case)
        for edit in IF_FAULTS.values():
            for body in if_edits(program.body, edit):
                bad = ast.Program(body)
                bad_case = ast.Program(as_case(body))
                outcome = _typecheck_outcome(bad, ctx)
                assert outcome == _typecheck_outcome(bad_case, ctx)
                assert lint_closed_system(bad) == lint_closed_system(bad_case)
                if isinstance(outcome, tuple):  # a vacuous loop raises nothing
                    faults_seen.add(outcome[0])
    assert faults_seen == set(IF_FAULTS)


# ---------------------------------------------------------------------------
# Loops: a block denotes each repeated statement once
# ---------------------------------------------------------------------------

def _loop_segment(rng, qubits):
    """A loop body: gates, an allocation and discard, a measurement or a case."""
    roll = rng.random()
    q = qubits[int(rng.integers(len(qubits)))]
    if roll < 0.25:
        return _neutral_block(rng, qubits, set(), 0)
    if roll < 0.5:
        inner = _neutral_block(rng, qubits + ["t"], set(), 0)
        return f"new qbit t\nt *= H\n{inner}\ndiscard t"
    if roll < 0.75 or len(qubits) < 2:
        inner = _neutral_block(rng, qubits, set(), 1)
        return (f"measure {q} then {{ {inner} }} "
                f"else {{ new qbit t\nt *= X\ndiscard t }}")
    r = [x for x in qubits if x != q][int(rng.integers(len(qubits) - 1))]
    arms = [_neutral_block(rng, qubits, {q, r}, 1) for _ in range(3)]
    return (f"case ({q}, {r}) of |00> -> {{ {arms[0]} }} "
            f"|11> -> {{ {arms[1]} }} |_> -> {{ {arms[2]} }}")


def looped_program(rng):
    """A fuzzed program twice in a loop, then again, then looped segments."""
    prefix = random_program(rng)
    live = typecheck(elaborate(parse(prefix)))
    discards = "\n".join(f"discard {name}" for name in live.names())
    lines = [f"for i = 1 to 2 {{ {prefix}\n{discards} }}", prefix]
    for _ in range(int(rng.integers(1, 4))):
        body = _loop_segment(rng, live.qubits())
        lines.append(f"for j = 1 to {int(rng.integers(2, 4))} {{ {body} }}")
    return "\n".join(lines)


def _fresh_block(block, ctx, tol):
    """``_denote_block`` without its memo: a fresh step for every statement."""
    kset = None
    for stmt in block:
        step, ctx = semantics._denote_stmt(stmt, ctx, tol)
        kset = step if kset is None else compose(step, kset, tol)
    return kset, ctx


@pytest.mark.parametrize("seed", [20240612, 20240613])
def test_looped_programs_match_fresh_steps(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    programs = [looped_program(rng) for _ in range(20)]
    steps = count_calls(monkeypatch, "_denote_stmt", semantics)
    memoised = [denote(source) for source in programs]
    memo_steps = len(steps)
    for source in programs:
        dev = state_deviation(run(source), eval_direct(source))
        assert dev < 1e-9, f"evaluators disagree by {dev}\n{source}"
    monkeypatch.setattr(semantics, "_denote_block", _fresh_block)
    del steps[:]
    for source, got in zip(programs, memoised):
        want = denote(source)
        assert got.output_ctx == want.output_ctx
        assert [x.tobytes() for x in got.kraus.ops] == \
            [x.tobytes() for x in want.kraus.ops], source
    assert memo_steps < len(steps) / 2  # the loops repeat most statements
