"""Typing-context checker and elaborator.

``typecheck`` threads a typing context through a program, without changing
it, and returns the output context.  It enforces the branching rules:
quantum-`if` and `case` branches may not mention their control qubits, and
all branches of a conditional must map the shared input context to one
common output context.  A quantum `if` is read as the two-arm `case` on its
control, so there is one alternation rule, and :func:`control_contexts`
holds its inner and output contexts for the typechecker and the semantics.
``elaborate`` then builds a new core program: it unrolls meta-level `for`
loops, resolves indexed names and truth-table oracles, and turns every
alternation into a `case` with one arm per label, so the semantics can
interpret the result directly.  The semantics works out the context of each
statement again as it goes; none is stored on the syntax tree.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import syntax as ast
from .core import transposition_gate
from .errors import (
    BranchContextMismatch,
    ControlCapture,
    DuplicateName,
    InvalidGate,
    KindError,
    NonConstantBound,
    UnknownName,
)
from .syntax import BIT, QBIT, Context

#: Unitarity tolerance for matrix-literal gates.
GATE_UNITARY_TOL = 1e-9


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
    return ref.base + str(eval_int(ref.index, env))


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------

def _use(name: str, ctx: Context, blocked: frozenset, kind: str | None = None) -> str:
    if name in blocked:
        raise ControlCapture(f"branch mentions control qubit '{name}'")
    if not ctx.has(name):
        raise UnknownName(f"name '{name}' is not in scope")
    actual = ctx.kind_of(name)
    if kind is not None and actual != kind:
        raise KindError(f"'{name}' has kind {actual}, expected {kind}")
    return actual


def _declare(name: str, ctx: Context, blocked: frozenset):
    if name in blocked:
        raise ControlCapture(f"branch mentions control qubit '{name}'")
    if ctx.has(name):
        raise DuplicateName(f"name '{name}' is already in scope")


def _check_gate(gate, n_targets: int, env: dict):
    if isinstance(gate, (ast.NamedGate, ast.RkGate, ast.PhaseGate)):
        if n_targets != 1:
            raise InvalidGate("single-qubit gate applied to a register")
        if isinstance(gate, ast.RkGate) and eval_int(gate.k, env) < 0:
            raise InvalidGate("Rk needs a nonnegative index")
        if isinstance(gate, ast.PhaseGate):
            eval_expr(gate.theta, env)  # must be closed
        return
    if isinstance(gate, ast.MatrixGate):
        m = np.array(gate.entries, dtype=complex)
        d = 2 ** n_targets
        if m.shape != (d, d):
            raise InvalidGate(
                f"matrix literal of shape {m.shape} applied to "
                f"{n_targets} qubit(s)")
        if np.abs(m.conj().T @ m - np.eye(d)).max() > GATE_UNITARY_TOL:
            raise InvalidGate("matrix literal is not unitary")
        return
    if isinstance(gate, ast.OracleGate):
        size = len(gate.table)
        if size < 2 or size & (size - 1):
            raise InvalidGate("oracle table length must be a power of two")
        point = eval_int(gate.point, env)
        if not 0 <= point < size:
            raise InvalidGate(f"oracle point {point} outside table of size {size}")
        return
    raise TypeError(f"not a gate: {gate!r}")


def _check_block(block: list, ctx: Context, env: dict, blocked: frozenset) -> Context:
    for stmt in block:
        ctx = _check_stmt(stmt, ctx, env, blocked)
    return ctx


def _alternation_arms(stmt) -> tuple[list, list]:
    """(controls, labelled arms) of a quantum alternation.

    ``if q then A else B`` reads as ``case (q) of |0> -> A |1> -> B``.
    """
    if isinstance(stmt, ast.QIf):
        return [stmt.control], [ast.CaseArm("0", stmt.then_block),
                                ast.CaseArm("1", stmt.else_block)]
    return stmt.controls, stmt.arms


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


def _check_stmt(stmt, ctx: Context, env: dict, blocked: frozenset) -> Context:
    if isinstance(stmt, ast.Skip):
        out = ctx
    elif isinstance(stmt, ast.NewQbit):
        name = resolve_name(stmt.name, env)
        _declare(name, ctx, blocked)
        out = ctx.add(name, QBIT)
    elif isinstance(stmt, ast.NewBit):
        name = resolve_name(stmt.name, env)
        _declare(name, ctx, blocked)
        out = ctx.add(name, BIT)
    elif isinstance(stmt, ast.ApplyGate):
        names = [resolve_name(t, env) for t in stmt.targets]
        if len(set(names)) != len(names):
            raise InvalidGate(f"duplicate gate target in {names}")
        for name in names:
            _use(name, ctx, blocked, QBIT)
        _check_gate(stmt.gate, len(names), env)
        out = ctx
    elif isinstance(stmt, ast.Discard):
        name = resolve_name(stmt.name, env)
        _use(name, ctx, blocked)
        out = ctx.remove(name)
    elif isinstance(stmt, ast.MeasureThenElse):
        name = resolve_name(stmt.control, env)
        _use(name, ctx, blocked, QBIT)
        ctx_then = _check_block(stmt.then_block, ctx, env, blocked)
        ctx_else = _check_block(stmt.else_block, ctx, env, blocked)
        _branch_contexts_equal(ctx_then, ctx_else)
        out = ctx_then
    elif isinstance(stmt, (ast.QIf, ast.QCase)):
        controls, arms = _alternation_arms(stmt)
        names = [resolve_name(c, env) for c in controls]
        if len(set(names)) != len(names):
            raise DuplicateName(f"duplicate control in {names}")
        for name in names:
            _use(name, ctx, blocked, QBIT)
        inner, restore = control_contexts(ctx, names)
        shielded = blocked | set(names)
        n = len(names)
        seen: set[str] = set()
        has_default = False
        arm_ctx = None
        for arm in arms:
            if arm.label is None:
                has_default = True
            else:
                if len(arm.label) != n:
                    raise KindError(
                        f"case label '{arm.label}' does not match "
                        f"{n} control qubit(s)")
                if arm.label in seen:
                    raise DuplicateName(f"duplicate case label '{arm.label}'")
                seen.add(arm.label)
            this_ctx = _check_block(arm.block, inner, env, shielded)
            if arm_ctx is None:
                arm_ctx = this_ctx
            else:
                _branch_contexts_equal(arm_ctx, this_ctx)
        if len(seen) < 2 ** n and not has_default:
            raise BranchContextMismatch(
                f"case over {n} qubit(s) covers {len(seen)} of {2 ** n} "
                f"labels and has no default arm")
        out = restore(arm_ctx)
    elif isinstance(stmt, ast.ForLoop):
        lo = eval_int(stmt.lo, env)
        hi = eval_int(stmt.hi, env)
        out = ctx
        for value in range(lo, hi + 1):
            out = _check_block(stmt.body, out, {**env, stmt.var: value}, blocked)
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    return out


def typecheck(program: ast.Program, initial: Context | None = None) -> Context:
    """Output context of ``program`` run from ``initial``, or raise.

    ``program`` is only read.
    """
    initial = initial if initial is not None else Context.empty()
    return _check_block(program.body, initial, {}, frozenset())


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

def _elab_gate(gate, env: dict, n_targets: int):
    if isinstance(gate, ast.NamedGate):
        return ast.NamedGate(gate.name)
    if isinstance(gate, ast.RkGate):
        return ast.RkGate(ast.Num(eval_int(gate.k, env)))
    if isinstance(gate, ast.PhaseGate):
        return ast.PhaseGate(ast.Num(float(eval_expr(gate.theta, env))))
    if isinstance(gate, ast.MatrixGate):
        return ast.MatrixGate(gate.entries)
    if isinstance(gate, ast.OracleGate):
        point = eval_int(gate.point, env)
        if not 0 <= point < len(gate.table):
            raise InvalidGate(
                f"oracle point {point} outside table of size {len(gate.table)}")
        image = gate.table[point]
        u = transposition_gate(image, 2 ** n_targets)
        return ast.MatrixGate(tuple(tuple(z for z in row) for row in u))
    raise TypeError(f"not a gate: {gate!r}")


def _elab_block(block: list, env: dict) -> list:
    out = []
    for stmt in block:
        out.extend(_elab_stmt(stmt, env))
    return out


def _sub_block(block: list, env: dict) -> list:
    inner = _elab_block(block, env)
    return inner if inner else [ast.Skip()]


def _elab_stmt(stmt, env: dict) -> list:
    if isinstance(stmt, ast.Skip):
        return [ast.Skip()]
    if isinstance(stmt, ast.NewQbit):
        return [ast.NewQbit(ast.NameRef(resolve_name(stmt.name, env)))]
    if isinstance(stmt, ast.NewBit):
        return [ast.NewBit(ast.NameRef(resolve_name(stmt.name, env)))]
    if isinstance(stmt, ast.ApplyGate):
        targets = [ast.NameRef(resolve_name(t, env)) for t in stmt.targets]
        return [ast.ApplyGate(targets, _elab_gate(stmt.gate, env, len(targets)))]
    if isinstance(stmt, ast.Discard):
        return [ast.Discard(ast.NameRef(resolve_name(stmt.name, env)))]
    if isinstance(stmt, ast.MeasureThenElse):
        return [ast.MeasureThenElse(
            ast.NameRef(resolve_name(stmt.control, env)),
            _sub_block(stmt.then_block, env),
            _sub_block(stmt.else_block, env))]
    if isinstance(stmt, (ast.QIf, ast.QCase)):
        controls, source_arms = _alternation_arms(stmt)
        controls = [ast.NameRef(resolve_name(c, env)) for c in controls]
        n = len(controls)
        explicit = {}
        default = None
        for arm in source_arms:
            if arm.label is None:
                default = arm
            else:
                explicit[arm.label] = arm
        arms = []
        for value in range(2 ** n):
            label = format(value, f"0{n}b")
            source = explicit.get(label, default)
            if source is None:
                raise BranchContextMismatch(
                    f"case is missing a branch for label '{label}'")
            arms.append(ast.CaseArm(label, _sub_block(source.block, env)))
        return [ast.QCase(controls, arms)]
    if isinstance(stmt, ast.ForLoop):
        lo = eval_int(stmt.lo, env)
        hi = eval_int(stmt.hi, env)
        out = []
        for value in range(lo, hi + 1):
            out.extend(_elab_block(stmt.body, {**env, stmt.var: value}))
        return out
    raise TypeError(f"not a statement: {stmt!r}")


def elaborate(program: ast.Program) -> ast.Program:
    """Unroll loops, resolve names and oracles, make every alternation a case.

    ``if q then A else B`` becomes ``case (q) of |0> -> A |1> -> B``, and a
    case lists one arm per label, in label order, with default arms
    expanded.  The result contains no ``ForLoop``, no ``QIf``, no indexed
    name, no ``OracleGate`` and no default arm; ``measure`` statements are
    kept as single nodes.  ``program`` must typecheck; it is only read, and
    the result shares no node with it.
    """
    return ast.Program(_elab_block(program.body, {}))


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

    def scan_branch(block, control):
        for stmt in block:
            if isinstance(stmt, _IRREVERSIBLE):
                warnings.append(
                    f"branch of quantum conditional on '{control}' contains "
                    f"non-reversible statement '{type(stmt).__name__}'")
            scan(stmt, in_branch_of=control)

    def scan(stmt, in_branch_of=None):
        if isinstance(stmt, (ast.QIf, ast.QCase)):
            controls, arms = _alternation_arms(stmt)
            label = ", ".join(c.base for c in controls)
            for arm in arms:
                scan_branch(arm.block, label)
        elif isinstance(stmt, ast.MeasureThenElse):
            for block in (stmt.then_block, stmt.else_block):
                for inner in block:
                    scan(inner)
        elif isinstance(stmt, ast.ForLoop):
            for inner in stmt.body:
                scan(inner)

    for stmt in program.body:
        scan(stmt)
    return warnings
