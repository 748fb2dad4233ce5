"""Denotational semantics: programs to Kraus sets, plus a direct evaluator.

The variable-to-factor layout is defined in this module.  A context's
basis is one index tensor with a length-2 axis per variable, the bits first
and then the qubits, each in allocation order (:func:`_layout`).  So bits
select signature blocks (first allocated = most significant) and qubits are
the tensor factors of a block (first allocated = leading factor).  Every
layout map is read off that tensor: a gate acts on its targets' axes,
allocation, discard, measurement and the control blocks of an alternation
fix values on variables' axes (:func:`_where`), and moving the controls of
an alternation to the front transposes its axes
(:func:`leading_permutation`).  Two readers outside the module take the
same axis order, the first axis most significant: :func:`qalt.core.embed_gate`
and :attr:`qalt.kraus.LocalKraus.form`.

A gate, and an alternation whose arms are each ``skip``, empty or one such
step, is a local set (:class:`qalt.kraus.LocalKraus`): its small matrix and
the layout axes it acts on (:func:`_local_alternation` writes the arms'
matrices into one under the controls).  Its products with other operators
are contracted on those axes alone.  Its full-width operator is built only
when something reads it: the first statement of a block, an arm of another
alternation or of a measurement, or ``apply``; a gate's through
:func:`qalt.core.embed_gate` over the axes, bits included, an alternation's
from its case elements placed by :func:`leading_permutation`.

Both evaluators take a program through parse -> elaborate -> typecheck
(:func:`_prepare`) and read the same core language as the typechecker.
``denote`` interprets the core program as one composed Kraus set, and
``run`` is ``apply(denote(..))`` by design, so the Kraus semantics is what
``qalt run`` prints.  The denotation is compositional: [[S1; S2]] is [[S2]]
after [[S1]].  :func:`_denote_block` denotes a repeated statement once and
canonicalises a run of one-operator steps once, whatever the set it starts
from; an alternation is one set over its case elements read in the context
layout.  A
measurement reads the direct sum of its arms (:func:`qalt.kraus.branch_sum`)
through one column index map, which gives QPL's
{E Pi_0 : E in A} u {F Pi_1 : F in B} with no dense measure or merge map.
``eval_direct`` is the cross-checking oracle: it streams the density
matrix statement by statement (gates by tensor contraction, allocation and
discard by scatter and gather, measurement by projection) and never composes
program-level Kraus sets.  At an alternation it denotes each arm and fills
block (k, l) of the output from block (k, l) of the input: S_k(rho_kk) on
the diagonal and Oi's interference term sigma_k rho_kl sigma_l' off it,
where sigma = sum E / sqrt(|S|).  So it checks the paper's
product-of-branches construction through a different identity, not a second
copy of it.  Both evaluators work out each statement's typing context as
they go; an alternation's output context comes from :func:`_alternation`,
which follows the typechecker's rule (:func:`qalt.check.control_contexts`).

Where each set is checked (I - sum E'E >= -tol): a statement whose set
holds one operator is built unchecked at full width (a local set, or
:func:`qalt.kraus.unchecked_singleton`): a smaller residual decides its
own, or it is exactly 0.  A gate's, I (x) U re-indexed, is
I (x) (I - U'U), so :func:`_prepare` checks I - U'U once per entry of the
core program's ``gates``, the gate nodes of ``elaborate``'s hash-cons
table, per call of ``denote``, ``run`` or ``eval_direct``, after the
typecheck and before any set is built: both evaluators reject the same
gates, wherever they sit.  ``skip``, the empty block and an allocation (an
isometry) have residual exactly 0, so they pass at every ``tol`` above 0,
the only ones :func:`qalt.core.check_tol` lets through, and are not
checked.  An alternation whose arms each hold one operator is not checked
again: its one element's residual is the direct sum of the arms'.  Other
alternations, measurements, discards and compositions go through
``make_kraus`` at full width, and so does a run of one-operator steps,
once, when it ends: the run holds one raw product per operator of the set
it started from.  ``make_kraus`` canonicalises a set as one stack of its
operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import syntax as ast
from .check import check_use, control_contexts, elaborate, typecheck
from .core import (
    DEFAULT_TOL,
    DensityState,
    Matrix,
    NAMED_GATES,
    Signature,
    check_tol,
    dim,
    embed_gate,
    phase_gate,
    rk_gate,
    unit_state,
)
from .errors import SignatureMismatch
from .kraus import (
    KrausSet,
    LocalKraus,
    _check_residual,
    apply,
    apply_full,
    branch_sum,
    case_elements,
    coalesces,
    compose,
    diagonal_blocks,
    identity_kraus,
    make_kraus,
    unchecked_singleton,
)
from .syntax import QBIT, Context

# ---------------------------------------------------------------------------
# Layout maps
# ---------------------------------------------------------------------------


def signature_of(ctx: Context) -> Signature:
    """State-space shape of a context: 2^#bits blocks of dimension 2^#qubits."""
    m = len(ctx.qubits())
    k = len(ctx.bits())
    return Signature((2 ** m,) * (2 ** k))


def _layout(ctx: Context) -> tuple[list[str], np.ndarray]:
    """The context's basis as an index tensor with one axis per variable.

    Axes are the bits, then the qubits, each in allocation order; the entry
    at (v_1, ..., v_n) is the basis index where variable i holds v_i.
    """
    names = ctx.bits() + ctx.qubits()
    return names, np.arange(2 ** len(names)).reshape((2,) * len(names))


def _where(ctx: Context, names: list[str], k: int) -> np.ndarray:
    """Basis indices of ``ctx`` where ``names`` read the bits of ``k``, increasing.

    The first name is the most significant bit.  Entry g is the index, in
    ``ctx``, of basis vector g of the context without ``names``: the other
    axes stay in layout order.
    """
    layout, index = _layout(ctx)
    at = [slice(None)] * len(layout)
    for i, name in enumerate(names):
        at[layout.index(name)] = (k >> (len(names) - 1 - i)) & 1
    return index[tuple(at)].ravel()


def _bra(ctx: Context, name: str, v: int) -> Matrix:
    """<v| on the axis of ``name``: the rows of I where ``name`` reads ``v``.

    Discarding ``name`` is {<0|, <1|}.  Allocation appends ``name`` as the
    last variable of its kind in ``out`` and is the adjoint of <0| there,
    ``_bra(out, name, 0).T`` (the matrix is real).
    """
    return np.eye(dim(signature_of(ctx)), dtype=complex)[_where(ctx, [name], v)]


def leading_permutation(ctx: Context, controls: list[str]) -> np.ndarray:
    """Index map from the context layout to the controls-leading layout.

    Entry ``g`` is the basis index, in the layout where the listed control
    qubits are the leading factors (in listed order, followed by the other
    qubits in context order), of context-layout basis vector ``g``.  Blocks
    are untouched.  An operator ``a`` between two controls-leading layouts
    is ``a[np.ix_(leading_permutation(out, c), leading_permutation(ctx, c))]``
    between the context layouts.
    """
    names, index = _layout(ctx)
    controls = list(controls)
    lead = ctx.bits() + controls + [q for q in ctx.qubits() if q not in controls]
    # read as the lead layout, the index tensor moved back to context axis
    # order holds each context basis vector's lead index
    return index.transpose(np.argsort([names.index(n) for n in lead])).ravel()


# ---------------------------------------------------------------------------
# Primitive operators in the context layout
# ---------------------------------------------------------------------------

def _gate_matrix(gate) -> Matrix:
    if isinstance(gate, ast.NamedGate):
        return np.array(NAMED_GATES[gate.name])
    if isinstance(gate, ast.RkGate):
        return rk_gate(gate.k.value)
    if isinstance(gate, ast.PhaseGate):
        return phase_gate(gate.theta.value)
    if isinstance(gate, ast.MatrixGate):
        return np.array(gate.entries, dtype=complex)
    raise TypeError(f"gate not elaborated: {gate!r}")


# ---------------------------------------------------------------------------
# Denotation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Denotation:
    """A program fragment together with its Kraus set and typing contexts."""

    source: object
    kraus: KrausSet
    input_ctx: Context
    output_ctx: Context

    def __post_init__(self):
        if (self.kraus.input_sig != signature_of(self.input_ctx)
                or self.kraus.output_sig != signature_of(self.output_ctx)):
            raise SignatureMismatch(
                "Kraus signatures do not match the typing contexts")


#: Bytes of step operators one block may keep for later repeats (see
#: :func:`_denote_block`); the one place the semantics trades memory for time.
MEMO_BYTES = 4 * 2 ** 20


def _denote_block(block: list, ctx: Context, tol: float) -> tuple[KrausSet, Context]:
    """[[S1; ...; Sn]] = [[Sn]] after ... after [[S1]], with each repeat denoted once.

    A statement's set depends only on the statement and its typing context,
    so a step is kept under (the statement's node, context) and reused when
    that pair comes again in this block.  :func:`qalt.check.elaborate`
    hash-conses the core program, so two statements are one node exactly
    when they are equal, every literal compared by its bits, and a node is
    keyed by its identity, which the block keeps alive.  A step is kept
    only while its statement occurs again later in the block, and only
    within :data:`MEMO_BYTES` of operators per block; a local step is
    charged its small matrix.  A local step read at full width (the first
    statement of a block) keeps that operator too, as long as it is kept.

    A step of one operator U takes each operator F of the set so far to
    U F, so the block keeps a run open: one raw product per operator of the
    set the run started from, each step forming them by ``step.times``, the
    routine ``compose`` forms its products by, from the same operands.  A
    local step contracts its small matrix on its own axes of every product
    at once (:meth:`qalt.kraus.LocalKraus.times`), and a product's bytes do
    not depend on the others.  A run of several products stays
    open while :func:`qalt.kraus.coalesces`, which asks the fold
    ``make_kraus`` runs, finds that canonicalising them would drop or merge
    nothing; their sort keys then differ, so their final order does not
    depend on the order kept.  A run of one product is not
    asked: every statement is trace-preserving (a gate within its unitarity
    tolerance), so the one operator E of a set has E'E = I, and steps of one
    operator keep U E as far from 0.  At a step of several operators (or
    none), or one after which something would drop or merge, the run so far is
    canonicalised and checked by ``make_kraus`` at full width and the step
    goes through ``compose``; the end of the block ends a run too.  So a
    prefix of a run is not checked on its own, and a prefix that exceeds
    ``tol`` only by rounding passes if the whole run does.  A run of one
    step is not checked again (see the module docstring).  The operator
    tuples are those of composing a fresh denotation of every statement,
    and every set that is built is still checked at ``tol``.  The empty
    block denotes {I}.
    """
    if not block:
        return identity_kraus(signature_of(ctx)), ctx
    keys = list(map(id, block)) if len(block) > 1 else [None]
    last = {key: i for i, key in enumerate(keys)}
    memo: dict = {}  # node identity -> {context: (step, output context)}
    held = 0
    kset = None
    run_ops = None  # the open run: one raw product per operator of kset
    for i, (stmt, key) in enumerate(zip(block, keys)):
        steps = memo.get(key, {})
        if ctx in steps:
            step, out = steps[ctx]
        else:
            step, out = _denote_stmt(stmt, ctx, tol)
            if last[key] > i and held + _nbytes(step) <= MEMO_BYTES:
                memo.setdefault(key, {})[ctx] = step, out
                held += _nbytes(step)
        if last[key] == i:
            held -= sum(_nbytes(s) for s, _ in memo.pop(key, {}).values())
        if kset is None:
            kset = step
        else:
            run = None
            if len(step) == 1:
                run = step.times(kset.ops if run_ops is None else run_ops)
            if run is None or len(run) > 1 and coalesces(run):
                if run_ops is not None:
                    kset = make_kraus(kset.input_sig, step.input_sig, run_ops, tol)
                kset, run = compose(step, kset, tol), None
            run_ops = run
        ctx = out
    if run_ops is not None:
        kset = make_kraus(kset.input_sig, signature_of(ctx), run_ops, tol)
    return kset, ctx


def _nbytes(s: KrausSet) -> int:
    """Bytes a kept step is charged: a local set's small matrix, else its operators."""
    if isinstance(s, LocalKraus):
        return s.form[0].nbytes
    return sum(e.nbytes for e in s.ops)


def _alternation(stmt: ast.QCase, ctx: Context, tol: float):
    """Controls, branch denotations and output context of an alternation.

    Each arm is denoted from the inner context (``ctx`` without the
    controls).  Returns the control names, the arms' Kraus sets (set k is
    the arm for control value k, the first control being the most
    significant bit) and the output context; the contexts follow
    :func:`qalt.check.control_contexts`.
    """
    names = [c.base for c in stmt.controls]
    inner, restore = control_contexts(ctx, names)
    branches = []
    for arm in stmt.arms:
        kset, inner_out = _denote_block(arm.block, inner, tol)
        branches.append(kset)
    return names, branches, restore(inner_out)


def _local_alternation(ctx: Context, names: list[str], branches):
    """The local form of the one element sum_k Pi_k (x) U_k of an alternation.

    Arm k is a local set on axes of the inner context (``ctx`` without the
    controls ``names``).  The element is local on the controls' axes and
    the arms' axes of ``ctx``: block k of it, where the controls read k, is
    U_k on arm k's axes and the identity on the arms' other axes.  Every
    entry is written, none computed.  Returns the matrix and its axes.
    """
    layout, _ = _layout(ctx)
    inner = [n for n in layout if n not in names]
    controls = [layout.index(n) for n in names]
    forms = [b.form for b in branches]
    arms = [[layout.index(inner[a]) for a in axes] for _, axes, _ in forms]
    axes = sorted(set(controls).union(*arms))
    index = np.arange(2 ** len(axes)).reshape((2,) * len(axes))
    u = np.zeros((index.size, index.size), dtype=complex)
    for k, ((v, _, _), on) in enumerate(zip(forms, arms)):
        at = [slice(None)] * len(axes)
        for i, c in enumerate(controls):
            at[axes.index(c)] = (k >> (len(controls) - 1 - i)) & 1
        free = [a for a in axes if a not in controls]  # the axes of index[at]
        lead = [free.index(a) for a in on]
        rest = [i for i in range(len(free)) if i not in lead]
        # row g, column h: U_k's entry (g, h) on each value of the other axes
        block = index[tuple(at)].transpose(lead + rest).reshape(len(v), -1)
        u[block[:, None], block[None, :]] = v[:, :, None]
    return u, axes


def _denote_stmt(stmt, ctx: Context, tol: float) -> tuple[KrausSet, Context]:
    sig = signature_of(ctx)
    if isinstance(stmt, ast.Skip):
        return identity_kraus(sig), ctx
    if isinstance(stmt, (ast.NewQbit, ast.NewBit)):
        # appending |0> is an isometry: its residual is exactly 0
        name = stmt.name.base
        out = ctx.add(name, stmt.kind)
        op = _bra(out, name, 0).T
        return unchecked_singleton(sig, signature_of(out), op), out
    if isinstance(stmt, ast.ApplyGate):
        # I (x) U re-indexed: residual I (x) (I - U'U), checked on U'U
        u = _gate_matrix(stmt.gate)
        names, _ = _layout(ctx)
        axes = [names.index(t.base) for t in stmt.targets]
        return LocalKraus(sig, lambda: (u, axes),
                          lambda: embed_gate(u, axes, len(names))), ctx
    if isinstance(stmt, ast.Discard):
        name = stmt.name.base
        out = ctx.remove(name)
        ops = [_bra(ctx, name, v) for v in (0, 1)]
        return make_kraus(sig, signature_of(out), ops, tol), out
    if isinstance(stmt, ast.MeasureThenElse):
        then_k, out_ctx = _denote_block(stmt.then_block, ctx, tol)
        else_k, _ = _denote_block(stmt.else_block, ctx, tol)
        # column g is column g + d * v(g) of the sum, v(g) the value of the qubit;
        # each operator lies in one block, so adding its output copies is exact
        d, d_out = dim(sig), dim(then_k.output_sig)
        cols = np.arange(d)
        cols[_where(ctx, [stmt.control.base], 1)] += d
        ops = [(x[:d_out] + x[d_out:])[:, cols]
               for x in branch_sum(then_k, else_k, tol).ops]
        return make_kraus(sig, then_k.output_sig, ops, tol), out_ctx
    if isinstance(stmt, ast.QCase):
        # one set: the case elements, built controls leading, read in the
        # context layout; a permutation keeps coalescing and the order keys
        names, branches, out_ctx = _alternation(stmt, ctx, tol)

        def elements():
            at = np.ix_(leading_permutation(out_ctx, names),
                        leading_permutation(ctx, names))
            return [e[at] for e in case_elements(branches, len(names))]
        # one element, the direct sum of the arms re-indexed: its residual is
        # the direct sum of the arms' residuals, each already checked
        if all(isinstance(b, LocalKraus) for b in branches):
            local = LocalKraus(sig, lambda: _local_alternation(ctx, names, branches),
                               lambda: elements()[0])
            return local, out_ctx
        if all(len(b) == 1 for b in branches):
            return unchecked_singleton(sig, signature_of(out_ctx),
                                       elements()[0]), out_ctx
        return make_kraus(sig, signature_of(out_ctx), elements(), tol), out_ctx
    raise TypeError(f"statement not elaborated: {stmt!r}")


def _prepare(program, ctx: Context, tol: float) -> ast.Program:
    """The core program, elaborated, typechecked from ``ctx`` and with the
    residual I - U'U of each of its gates checked at ``tol``, the check
    ``make_kraus`` ends with, with no set built.

    Raises ``ValueError`` first for a ``tol`` that is not a finite number
    above 0 (:func:`qalt.core.check_tol`).
    """
    check_tol(tol)
    if isinstance(program, str):
        program = ast.parse(program)
    elif not isinstance(program, ast.Program):
        program = ast.Program([program])
    core = elaborate(program)
    typecheck(core, ctx)
    for gate in core.gates:
        u = _gate_matrix(gate)
        _check_residual(u.conj().T @ u, tol)
    return core


def denote(program, ctx: Context | None = None,
           tol: float = DEFAULT_TOL) -> Denotation:
    """Denotation of a program (source text, AST or single statement).

    The program is elaborated and then typechecked from ``ctx``; statements
    compose right-to-left, so the empty program denotes {I} on the signature
    of ``ctx``.  Every Kraus set built on the way is checked at ``tol``.
    """
    ctx = ctx if ctx is not None else Context.empty()
    kset, out_ctx = _denote_block(_prepare(program, ctx, tol).body, ctx, tol)
    return Denotation(program, kset, ctx, out_ctx)


def _start(initial: DensityState | None, ctx: Context | None):
    """The initial state and context, defaulting to the empty context's unit state."""
    ctx = ctx if ctx is not None else Context.empty()
    if initial is None:
        if ctx.entries:
            raise ValueError("an initial state is required for a nonempty context")
        initial = unit_state()
    return initial, ctx


def run(program, initial: DensityState | None = None,
        ctx: Context | None = None, tol: float = DEFAULT_TOL) -> DensityState:
    """Final density state of a program via its composed Kraus set."""
    return run_with_context(program, initial, ctx, tol)[0]


def run_with_context(program, initial: DensityState | None = None,
                     ctx: Context | None = None,
                     tol: float = DEFAULT_TOL) -> tuple[DensityState, Context]:
    """:func:`run`, also returning the output context of its one denotation."""
    initial, ctx = _start(initial, ctx)
    d = denote(program, ctx, tol)
    return apply(d.kraus, initial, tol), d.output_ctx


def outcome_probability(rho: DensityState, ctx: Context,
                        assignment: dict) -> float:
    """Joint probability of reading the given qubit values simultaneously."""
    if rho.signature != signature_of(ctx):
        raise SignatureMismatch("state does not match the context layout")
    for name in assignment:
        check_use(name, ctx, frozenset(), QBIT)
    values = [int(v) for v in assignment.values()]
    if any(v not in (0, 1) for v in values):
        return 0.0
    k = sum(v << i for i, v in enumerate(reversed(values)))
    diag = np.concatenate([np.diag(block).real for block in rho.blocks])
    # summed term by term in basis order (np.sum's pairwise order would move
    # the last digit of printed probabilities); + 0.0 turns -0.0 into 0.0
    return float(np.cumsum(diag[_where(ctx, list(assignment), k)])[-1]) + 0.0


def measure_stats(rho: DensityState, name: str, ctx: Context) -> tuple[float, float]:
    """Outcome probabilities (p0, p1) of measuring qubit ``name`` in ``rho``."""
    return (outcome_probability(rho, ctx, {name: 0}),
            outcome_probability(rho, ctx, {name: 1}))


# ---------------------------------------------------------------------------
# Direct evaluator (cross-checking oracle)
# ---------------------------------------------------------------------------

def _conjugate_full(rho: Matrix, u: Matrix, positions: list[int],
                    m: int, nblocks: int) -> Matrix:
    """rho -> U rho U' with U on the given qubit axes, via tensor contraction."""
    t = len(positions)
    shape = (nblocks,) + (2,) * m
    naxes = m + 1
    pos = [p + 1 for p in positions]
    tens = rho.reshape(shape + shape)
    u_t = u.reshape((2,) * (2 * t))
    cur = np.tensordot(u_t, tens, axes=(list(range(t, 2 * t)), pos))
    cur = np.moveaxis(cur, range(t), pos)
    cols = [naxes + p for p in pos]
    cur = np.tensordot(cur, u_t.conj(), axes=(cols, list(range(t, 2 * t))))
    cur = np.moveaxis(cur, range(2 * naxes - t, 2 * naxes), cols)
    d = nblocks * 2 ** m
    return cur.reshape(d, d)


def _interference(s: KrausSet) -> Matrix:
    """sigma = sum E / sqrt(|S|), the zero matrix for the empty set."""
    if not s.ops:
        return np.zeros(s.op_shape(), dtype=complex)
    return sum(s.ops) / np.sqrt(len(s.ops))


def _direct_step(stmt, rho: Matrix, ctx: Context,
                 tol: float) -> tuple[Matrix, Context]:
    if isinstance(stmt, ast.Skip):
        return rho, ctx
    if isinstance(stmt, ast.ApplyGate):
        qubits = ctx.qubits()
        positions = [qubits.index(t.base) for t in stmt.targets]
        return _conjugate_full(rho, _gate_matrix(stmt.gate), positions, len(qubits),
                               2 ** len(ctx.bits())), ctx
    if isinstance(stmt, (ast.NewQbit, ast.NewBit)):
        name = stmt.name.base
        out_ctx = ctx.add(name, stmt.kind)
        d = dim(signature_of(out_ctx))
        out = np.zeros((d, d), dtype=complex)
        at = _where(out_ctx, [name], 0)
        out[np.ix_(at, at)] = rho
        return out, out_ctx
    if isinstance(stmt, ast.Discard):
        name = stmt.name.base
        kept = [_where(ctx, [name], v) for v in (0, 1)]
        return sum(rho[np.ix_(at, at)] for at in kept), ctx.remove(name)
    if isinstance(stmt, ast.MeasureThenElse):
        total = None
        for v, block in ((0, stmt.then_block), (1, stmt.else_block)):
            keep = _where(ctx, [stmt.control.base], v)
            projected = np.zeros_like(rho)
            projected[np.ix_(keep, keep)] = rho[np.ix_(keep, keep)]
            out_ctx = ctx
            for inner in block:
                projected, out_ctx = _direct_step(inner, projected, out_ctx, tol)
            total = projected if total is None else total + projected
        return total, out_ctx
    if isinstance(stmt, ast.QCase):
        # block (k, l) of the state, controls reading k on the left and l on
        # the right, becomes S_k(rho_kk) when k = l, else sigma_k rho_kl sigma_l'
        names, branches, out_ctx = _alternation(stmt, ctx, tol)
        rows = [_where(out_ctx, names, k) for k in range(len(branches))]
        cols = [_where(ctx, names, k) for k in range(len(branches))]
        sigmas = [_interference(s) for s in branches]
        d = dim(signature_of(out_ctx))
        out = np.zeros((d, d), dtype=complex)
        for k, l in itertools.product(range(len(branches)), repeat=2):
            block = rho[np.ix_(cols[k], cols[l])]
            out[np.ix_(rows[k], rows[l])] = (
                apply_full(branches[k], block) if k == l
                else sigmas[k] @ block @ sigmas[l].conj().T)
        return out, out_ctx
    raise TypeError(f"statement not elaborated: {stmt!r}")


def eval_direct(program, initial: DensityState | None = None,
                ctx: Context | None = None,
                tol: float = DEFAULT_TOL) -> DensityState:
    """Independent evaluator: streams the density matrix statement by statement.

    Agrees with :func:`run` on every well-formed program; used to cross-check
    the composed Kraus semantics (an alternation goes through the
    interference identity described in the module docstring).  A final state
    that fails its check at ``tol`` (as rounding can at a ``tol`` far below
    it) raises :class:`SemanticError`.
    """
    initial, ctx = _start(initial, ctx)
    if initial.signature != signature_of(ctx):
        raise SignatureMismatch("initial state does not match the context")
    rho = np.array(initial.full())
    for stmt in _prepare(program, ctx, tol).body:
        rho, ctx = _direct_step(stmt, rho, ctx, tol)
    return diagonal_blocks(rho, signature_of(ctx), tol)
