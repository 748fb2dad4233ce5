"""Elaborator and typing-context checker: parse -> elaborate -> typecheck.

``elaborate`` does all meta-level work and builds a new core program: it
evaluates each meta expression once, unrolls `for` loops, resolves indexed
names and truth-table oracles, and turns every alternation into a `case`
with one arm per label, in label order (an `if` becomes a one-control
`case`).  It raises every fault in a value it computes, so a meta-level
fault is reported before any typing fault.  The core program is
hash-consed: each distinct statement is one node, looked up by an exact
key and made only when the key misses, and a loop whose body does not
mention its variable is elaborated once.  ``typecheck`` then threads a
typing context through the core program, which ``denote`` and
``eval_direct`` read too, and returns the output context; it checks each
(node, context, blocked controls) triple once, so an unrolled loop body is
checked once per distinct context.  Case arms may
not mention their controls, and all branches must map the input context to
one output context; :func:`control_contexts` holds that rule.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import struct

import numpy as np

from . import syntax as ast
from .core import RK_IDENTITY, transposition_gate
from .errors import (
    BranchContextMismatch,
    ControlCapture,
    DuplicateName,
    InvalidGate,
    KindError,
    NonConstantBound,
    UnknownName,
)
from .syntax import QBIT, Context

#: Unitarity tolerance for matrix-literal gates.
GATE_UNITARY_TOL = 1e-9

_F64 = struct.Struct("<d").pack  # a float's exact bits


# ---------------------------------------------------------------------------
# Meta expressions
# ---------------------------------------------------------------------------

_ARITH = {"+": operator.add, "-": operator.sub,
          "*": operator.mul, "/": operator.truediv}


def _finite(value, e):
    if isinstance(value, float) and not math.isfinite(value):
        raise NonConstantBound(
            f"meta expression '{ast.expr_str(e)}' is not finite")
    return value


def eval_expr(e, env: dict):
    """Evaluate a meta expression; loop variables come from ``env``.

    Raises :class:`NonConstantBound` for an unbound variable, a division by
    zero or overflow, and a value that is not a finite number.
    """
    if isinstance(e, ast.Num):
        return _finite(e.value, e)
    if isinstance(e, ast.Var):
        if e.name in env:
            return env[e.name]
        if e.name == "pi":
            return math.pi
        raise NonConstantBound(
            f"meta expression uses unbound variable '{e.name}'")
    if isinstance(e, ast.Neg):
        return -eval_expr(e.operand, env)
    if isinstance(e, ast.BinOp):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        try:
            return _finite(_ARITH[e.op](left, right), e)
        except (ZeroDivisionError, OverflowError) as exc:
            raise NonConstantBound(
                f"meta expression '{ast.expr_str(e)}' fails: {exc}") from None
    raise TypeError(f"not a meta expression: {e!r}")


def eval_int(e, env: dict) -> int:
    v = eval_expr(e, env)
    if isinstance(v, float):
        if v != int(v):
            raise NonConstantBound(f"expected an integer, got {v}")
        v = int(v)
    return v


def resolve_name(ref: ast.NameRef, env: dict) -> str:
    """Concrete variable name of a (possibly indexed) reference."""
    if ref.index is None:
        return ref.base
    try:
        return ref.base + str(eval_int(ref.index, env))
    except ValueError:  # past Python's limit on integer digits
        raise NonConstantBound(f"index of '{ref.base}' has too many digits") from None


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

def _labels(n: int) -> list[str]:
    """The labels of an alternation on ``n`` controls, in order."""
    return [format(value, f"0{n}b") for value in range(2 ** n)]


def _node(nodes: dict, key: tuple, make):
    """The one node of ``key`` in this elaboration, made by ``make()`` on a miss."""
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = make()
    return node


def _matrix_gate(nodes: dict, m: np.ndarray):
    return _node(nodes, (ast.MatrixGate, m.shape, m.tobytes()),
                 lambda: ast.MatrixGate(tuple(map(tuple, m.tolist()))))


def _elab_gate(gate, env: dict, n_targets: int, nodes: dict):
    if isinstance(gate, ast.NamedGate):
        return _node(nodes, (ast.NamedGate, gate.name), lambda: ast.NamedGate(gate.name))
    if isinstance(gate, ast.RkGate):
        k = eval_int(gate.k, env)
        if k < 0:
            raise InvalidGate("Rk needs a nonnegative index")
        k = min(k, RK_IDENTITY)
        return _node(nodes, (ast.RkGate, k), lambda: ast.RkGate(ast.Num(k)))
    if isinstance(gate, ast.PhaseGate):
        try:
            theta = float(eval_expr(gate.theta, env))
        except OverflowError:  # an exact int beyond the float range
            raise NonConstantBound(f"meta expression '{ast.expr_str(gate.theta)}' "
                                   "is too large for a float") from None
        return _node(nodes, (ast.PhaseGate, _F64(theta)),
                     lambda: ast.PhaseGate(ast.Num(theta)))
    if isinstance(gate, ast.MatrixGate):
        return _matrix_gate(nodes, np.array(gate.entries, dtype=complex))
    if isinstance(gate, ast.OracleGate):
        size = len(gate.table)
        if size < 2 or size & (size - 1):
            raise InvalidGate("oracle table length must be a power of two")
        point = eval_int(gate.point, env)
        if not 0 <= point < size:
            raise InvalidGate(f"oracle point {ast.expr_str(gate.point)} outside table "
                              f"of size {size}")
        u = transposition_gate(gate.table[point], 2 ** n_targets)
        return _matrix_gate(nodes, u)
    raise TypeError(f"not a gate: {gate!r}")


def _elab_block(block: list, env: dict, nodes: dict, done: dict) -> list:
    """The core statements of ``block`` under ``env``.

    ``done`` maps each surface statement elaborated under ``env`` so far,
    by identity, to its core statements, so a statement that
    :func:`qalt.syntax.parse` shares between lines is elaborated once per
    environment.  Each loop iteration starts its own and drops it at its
    end.  A fault is raised where it occurs, and nothing is kept for it.
    """
    out = []
    for stmt in block:
        core = done.get(id(stmt))
        if core is None:
            core = done[id(stmt)] = _elab_stmt(stmt, env, nodes, done)
        out.extend(core)
    return out


def _sub_block(block: list, env: dict, nodes: dict, done: dict) -> list:
    return _elab_block(block, env, nodes, done) or [_node(nodes, (ast.Skip,), ast.Skip)]


def _ids(block: list) -> tuple:
    return tuple(map(id, block))


def _arm_blocks(stmt) -> tuple[list, list]:
    """(controls, the source block of each label, in label order) of an alternation.

    ``if q then A else B`` reads as ``case (q) of |0> -> A |1> -> B``.  A
    fault in a case's labels is raised here.
    """
    if isinstance(stmt, ast.QIf):
        return [stmt.control], [stmt.then_block, stmt.else_block]
    n = len(stmt.controls)
    by_label = {}
    for arm in stmt.arms:
        if arm.label is not None and len(arm.label) != n:
            raise KindError(
                f"case label '{arm.label}' does not match {n} control qubit(s)")
        if arm.label in by_label:
            raise DuplicateName(f"duplicate case label '{arm.label or '_'}'")
        by_label[arm.label] = arm
    default = by_label.pop(None, None)
    if default is None and len(by_label) < 2 ** n:
        raise BranchContextMismatch(
            f"case over {n} qubit(s) covers {len(by_label)} of {2 ** n} "
            f"labels and has no default arm")
    if default is not None and len(by_label) == 2 ** n:
        raise KindError(f"default arm of a case over {n} qubit(s) matches no label")
    return stmt.controls, [by_label.get(label, default).block for label in _labels(n)]


def _mentions(node, name: str) -> bool:
    """Whether a ``Var`` called ``name`` occurs anywhere in a surface node or block."""
    if isinstance(node, ast.Var):
        return node.name == name
    if isinstance(node, list):
        return any(_mentions(x, name) for x in node)
    # tuples hold literal data (matrix entries, oracle tables), never a Var
    return dataclasses.is_dataclass(node) and any(
        _mentions(v, name) for v in vars(node).values())


def _elab_stmt(stmt, env: dict, nodes: dict, done: dict) -> list:
    if isinstance(stmt, ast.Skip):
        return [_node(nodes, (ast.Skip,), ast.Skip)]
    if isinstance(stmt, (ast.NewQbit, ast.NewBit, ast.Discard)):
        name = resolve_name(stmt.name, env)
        kind = type(stmt)
        return [_node(nodes, (kind, name), lambda: kind(ast.NameRef(name)))]
    if isinstance(stmt, ast.ApplyGate):
        names = tuple([resolve_name(t, env) for t in stmt.targets])
        gate = _elab_gate(stmt.gate, env, len(names), nodes)
        return [_node(nodes, (ast.ApplyGate, names, id(gate)), lambda: ast.ApplyGate(
            [ast.NameRef(name) for name in names], gate))]
    if isinstance(stmt, ast.MeasureThenElse):
        name = resolve_name(stmt.control, env)
        then = _sub_block(stmt.then_block, env, nodes, done)
        else_ = _sub_block(stmt.else_block, env, nodes, done)
        return [_node(nodes, (ast.MeasureThenElse, name, _ids(then), _ids(else_)),
                      lambda: ast.MeasureThenElse(ast.NameRef(name), then, else_))]
    if isinstance(stmt, (ast.QIf, ast.QCase)):
        controls, sources = _arm_blocks(stmt)
        blocks = [_sub_block(block, env, nodes, done) for block in sources]
        names = tuple([resolve_name(c, env) for c in controls])
        return [_node(nodes, (ast.QCase, names, tuple(map(_ids, blocks))),
                      lambda: ast.QCase([ast.NameRef(c) for c in names],
                                        list(map(ast.CaseArm, _labels(len(names)), blocks))))]
    if isinstance(stmt, ast.ForLoop):
        lo = eval_int(stmt.lo, env)
        hi = eval_int(stmt.hi, env)
        if lo <= hi and not _mentions(stmt.body, stmt.var):
            # every iteration elaborates to the same nodes
            return _elab_block(stmt.body, env, nodes, done) * (hi - lo + 1)
        out = []
        for value in range(lo, hi + 1):
            out.extend(_elab_block(stmt.body, {**env, stmt.var: value}, nodes, {}))
        return out
    raise TypeError(f"not a statement: {stmt!r}")


def elaborate(program: ast.Program) -> ast.Program:
    """Unroll loops, resolve names and oracles, make every alternation a case.

    ``if q then A else B`` becomes ``case (q) of |0> -> A |1> -> B``, and a
    case lists one arm per label, in label order, with default arms
    expanded.  The result contains no ``ForLoop``, no ``QIf``, no indexed
    name, no ``OracleGate``, no default arm and no gate argument but a
    literal.  Every fault in a meta-level value is raised here; scope and
    variable kinds are left to :func:`typecheck`.  ``program`` is only read, and the
    result shares no node with it.

    Within one call the result is hash-consed: equal core statements (and
    gates) are one read-only node, so callers must not mutate them.  A node
    is looked up by an exact key and made only when the key misses: a
    literal is keyed by the bits of its floats (-0.0 and 0.0 differ), a
    compound statement by its children's identities.  A loop whose body
    mentions no ``Var`` of its variable's name (a nested loop's bounds
    included) is elaborated once and repeated; one without iterations
    elaborates nothing.  A surface statement met again under the same loop
    variables, such as a line that :func:`qalt.syntax.parse` shared, gives
    the core statements of its first elaboration without a second one.  The
    result's ``gates`` are the gate nodes of the table, so each gate of the
    body is listed once and nothing else is.
    """
    nodes: dict = {}
    body = _elab_block(program.body, {}, nodes, {})
    return ast.Program(body, tuple(node for node in nodes.values() if isinstance(
        node, (ast.NamedGate, ast.RkGate, ast.PhaseGate, ast.MatrixGate))))


# ---------------------------------------------------------------------------
# Typechecking the core
# ---------------------------------------------------------------------------

def _name(ref: ast.NameRef) -> str:
    if ref.index is not None:
        raise TypeError(f"indexed name not elaborated: {ref!r}")
    return ref.base


def check_use(name: str, ctx: Context, blocked: frozenset, kind: str | None = None):
    """Raise unless ``name`` is in scope, not in ``blocked`` and of ``kind``."""
    if name in blocked:
        raise ControlCapture(f"branch mentions control qubit '{name}'")
    if not ctx.has(name):
        raise UnknownName(f"name '{name}' is not in scope")
    if kind is not None and ctx.kind_of(name) != kind:
        raise KindError(f"'{name}' has kind {ctx.kind_of(name)}, expected {kind}")


def _declare(name: str, ctx: Context, blocked: frozenset):
    if name in blocked:
        raise ControlCapture(f"branch mentions control qubit '{name}'")
    if ctx.has(name):
        raise DuplicateName(f"name '{name}' is already in scope")


def _check_gate(gate, n_targets: int):
    if isinstance(gate, (ast.RkGate, ast.PhaseGate)):
        arg = gate.k if isinstance(gate, ast.RkGate) else gate.theta
        if not isinstance(arg, ast.Num):
            raise TypeError(f"gate argument not elaborated: {gate!r}")
    if isinstance(gate, (ast.NamedGate, ast.RkGate, ast.PhaseGate)):
        if n_targets != 1:
            raise InvalidGate("single-qubit gate applied to a register")
        return
    if isinstance(gate, ast.MatrixGate):
        m = np.array(gate.entries, dtype=complex)
        d = 2 ** n_targets
        if m.shape != (d, d):
            raise InvalidGate(
                f"matrix literal of shape {m.shape} applied to "
                f"{n_targets} qubit(s)")
        if not np.all(np.isfinite(m)):
            raise InvalidGate("matrix literal entries must be finite")
        # a unitary within the tolerance has no entry above 1 + tol, so
        # rejecting those first keeps m'm finite; `not <=` rejects NaN too
        if (np.abs(m).max() > 1 + GATE_UNITARY_TOL
                or not np.abs(m.conj().T @ m - np.eye(d)).max() <= GATE_UNITARY_TOL):
            raise InvalidGate("matrix literal is not unitary")
        return
    raise TypeError(f"gate not elaborated: {gate!r}")


def _check_block(block: list, ctx: Context, blocked: frozenset, seen: dict) -> Context:
    """Thread ``ctx`` through ``block``, checking each (node, context, blocked) once.

    ``seen`` maps a checked triple to its output context for the whole
    :func:`typecheck` call; a node is keyed by its identity, which is exact
    on a hash-consed program and only misses more often on any other.
    """
    for stmt in block:
        key = (id(stmt), ctx, blocked)
        out = seen.get(key)
        if out is None:
            out = seen[key] = _check_stmt(stmt, ctx, blocked, seen)
        ctx = out
    return ctx


def control_contexts(ctx: Context, names: list[str]):
    """Inner context of an alternation on ``names`` and its output rule.

    Returns ``(inner, restore)``: ``inner`` is ``ctx`` without the control
    qubits, and ``restore(inner_out)`` is the alternation's output context,
    the branches' common output with each control put back at its position
    in ``ctx`` (at the end if the output has become shorter).
    """
    inner = ctx
    for name in names:
        inner = inner.remove(name)
    positions = sorted((ctx.index_of(name), name) for name in names)

    def restore(inner_out: Context) -> Context:
        out = inner_out
        for pos, name in positions:
            out = out.insert(min(pos, len(out.entries)), name, QBIT)
        return out

    return inner, restore


def _branch_contexts_equal(a: Context, b: Context):
    if a != b:
        raise BranchContextMismatch(
            f"branches produce different contexts: "
            f"({a.describe()}) vs ({b.describe()})")


def _check_stmt(stmt, ctx: Context, blocked: frozenset, seen: dict) -> Context:
    if isinstance(stmt, ast.Skip):
        return ctx
    if isinstance(stmt, (ast.NewQbit, ast.NewBit)):
        name = _name(stmt.name)
        _declare(name, ctx, blocked)
        return ctx.add(name, stmt.kind)
    if isinstance(stmt, ast.ApplyGate):
        names = [_name(t) for t in stmt.targets]
        if len(set(names)) != len(names):
            raise InvalidGate(f"duplicate gate target in {names}")
        for name in names:
            check_use(name, ctx, blocked, QBIT)
        _check_gate(stmt.gate, len(names))
        return ctx
    if isinstance(stmt, ast.Discard):
        name = _name(stmt.name)
        check_use(name, ctx, blocked)
        return ctx.remove(name)
    if isinstance(stmt, ast.MeasureThenElse):
        check_use(_name(stmt.control), ctx, blocked, QBIT)
        out = _check_block(stmt.then_block, ctx, blocked, seen)
        _branch_contexts_equal(out, _check_block(stmt.else_block, ctx, blocked, seen))
        return out
    if isinstance(stmt, ast.QCase):
        names = [_name(c) for c in stmt.controls]
        if [arm.label for arm in stmt.arms] != _labels(len(names)):
            raise TypeError("case arms not elaborated: expected one arm per "
                            "label, in label order")
        if len(set(names)) != len(names):
            raise DuplicateName(f"duplicate control in {names}")
        for name in names:
            check_use(name, ctx, blocked, QBIT)
        inner, restore = control_contexts(ctx, names)
        shielded = blocked | set(names)
        out = _check_block(stmt.arms[0].block, inner, shielded, seen)
        for arm in stmt.arms[1:]:
            _branch_contexts_equal(out, _check_block(arm.block, inner, shielded, seen))
        return restore(out)
    raise TypeError(f"statement not elaborated: {stmt!r}")


def typecheck(program: ast.Program, initial: Context | None = None) -> Context:
    """Output context of the core ``program`` run from ``initial``, or raise.

    ``program`` is only read and no meta expression is evaluated.  A
    construct that :func:`elaborate` removes (``for``, ``if``, an indexed
    name, an oracle, a gate argument but a literal, a case whose arms are not
    one per label in label order) raises ``TypeError``.
    """
    initial = initial if initial is not None else Context.empty()
    return _check_block(program.body, initial, frozenset(), {})


# ---------------------------------------------------------------------------
# Closed-system lint
# ---------------------------------------------------------------------------

_IRREVERSIBLE = (ast.NewQbit, ast.NewBit, ast.Discard, ast.MeasureThenElse)


def lint_closed_system(program: ast.Program) -> list[str]:
    """Warnings for quantum branches that are not pure unitary operations.

    The semantics permits allocation, measurement and discarding inside
    quantum-conditional branches; this lint flags the stricter reading in
    which every alternation branch must be reversible.
    """
    warnings: list[str] = []

    def scan(block, control=None):
        for stmt in block:
            if control is not None and isinstance(stmt, _IRREVERSIBLE):
                warnings.append(
                    f"branch of quantum conditional on '{control}' contains "
                    f"non-reversible statement '{type(stmt).__name__}'")
            if isinstance(stmt, ast.QIf):  # as case (q) of |0> -> A |1> -> B
                for block in (stmt.then_block, stmt.else_block):
                    scan(block, stmt.control.base)
            elif isinstance(stmt, ast.QCase):
                for arm in stmt.arms:
                    scan(arm.block, ", ".join(c.base for c in stmt.controls))
            elif isinstance(stmt, ast.MeasureThenElse):
                scan(stmt.then_block)
                scan(stmt.else_block)
            elif isinstance(stmt, ast.ForLoop):
                scan(stmt.body, control)

    scan(program.body)
    return warnings
