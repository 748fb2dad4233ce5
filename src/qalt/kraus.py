"""Kraus decompositions as canonical finite operator sets.

A :class:`KrausSet` is a finite set of operators E between two signature
spaces with sum E'E <= I.  Construction canonicalizes: zero operators are
dropped, l equal occurrences coalesce into sqrt(l) * E, and the survivors are
stored in a deterministic order.  On top of that this module provides
composition, the quantum alternation of two (or 2^n) sets, direct-sum
branching, the induced superoperator action on density states, per-block Choi
matrices, extensional equality and the Loewner order.  Each function that
decides at a ``tol`` raises ``ValueError`` first for a ``tol`` that is not a
finite number above 0 (:func:`qalt.core.check_tol`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityState,
    Matrix,
    Signature,
    as_matrix,
    block_offsets,
    check_tol,
    dim,
    dsum,
    exact_eq,
    freeze,
    freeze_fresh,
    is_psd,
    tensor_sig,
)
from .errors import (
    BranchCountMismatch,
    DimensionMismatch,
    NonBlockDiagonalResult,
    SemanticError,
    SignatureMismatch,
    TraceConditionViolated,
)

#: Entrywise tolerance at which two operators count as equal occurrences.
COALESCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Canonical Kraus decomposition between two signature spaces.

    ``ops`` is a tuple of frozen C-contiguous matrices, each dim(output) x
    dim(input), in canonical order: lexicographic over the entries rounded to
    12 digits, then over the exact entries, each entry as (re, im) in
    row-major order and -0.0 equal to 0.0; operators equal under both keep
    their input order.  The empty tuple is the zero superoperator.  Use
    :func:`make_kraus` to construct one from raw operators.

    ``==`` is :func:`~qalt.core.exact_eq`, so the operator order counts
    (:func:`ext_equal` compares the action instead).  Sets are unhashable.
    """

    input_sig: Signature
    output_sig: Signature
    ops: tuple[Matrix, ...]

    __eq__ = exact_eq

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def op_shape(self) -> tuple[int, int]:
        return (dim(self.output_sig), dim(self.input_sig))

    def times(self, fs) -> list[Matrix]:
        """E F for each operator E of this set and F of ``fs``, E major.

        These are the products :func:`compose` forms.  ``fs`` is a sequence
        or a stack of operators of one shape.
        """
        return [e @ f for e in self.ops for f in fs]

    def completeness_sum(self) -> Matrix:
        """Sum of E'E over the set (zero matrix for the empty set)."""
        d = dim(self.input_sig)
        total = np.zeros((d, d), dtype=complex)
        for e in self.ops:
            total += e.conj().T @ e
        return total


_SIGN_BIT = np.uint64(1 << 63)


def _canonical_keys(stack: np.ndarray) -> np.ndarray:
    """Sort keys of a stack of operators: their canonical order as bytes.

    The order is lexicographic over the entries rounded to 12 digits, then
    over the exact entries, each entry as (re, im) in row-major order, with
    -0.0 equal to 0.0.  Each float is written as a big-endian unsigned
    integer that orders like the float (negatives bit-flipped, positives
    with the sign bit set), so comparing keys as bytes is that order.
    Returns one fixed-width bytes item per operator.  The operators share a
    shape, so the shape is not encoded.
    """
    # a fresh C-contiguous buffer, so the float view is valid for any stack;
    # worked on in place, so the keys cost it and one mask of its size
    parts = np.empty((len(stack), 2) + stack.shape[1:], dtype=complex)
    np.round(stack, 12, out=parts[:, 0])
    parts[:, 1] = stack
    floats = parts.view(np.float64)
    floats += 0.0  # folds -0.0
    bits = floats.view(np.uint64)
    # sign set: flip all bits; sign clear: set the sign bit
    mask = (bits.view(np.int64) >> 63).view(np.uint64)
    mask |= _SIGN_BIT
    bits ^= mask
    if np.little_endian:
        bits.byteswap(inplace=True)  # big-endian: bytes compare as the integers
    rows = parts.reshape(len(stack), -1)
    return rows.view(f"S{rows.itemsize * rows.shape[1]}")[:, 0]


def _coalesce(ops) -> list[Matrix]:
    """Drop zero operators and fold l equal occurrences into sqrt(l) * E.

    Each operator whose largest entry modulus lies in (COALESCE_TOL, inf)
    joins the first group whose representative lies within
    :data:`COALESCE_TOL` of it entrywise, else it starts a group; the rest,
    zero or not finite (``make_kraus`` rejects those first), are dropped.
    Folding repeats until a pass merges nothing.  ``ops`` is a stack, or
    operators of one shape, and its peaks and entry sums are each one array
    operation; if nothing drops or merges, it returns ``ops``'s operators.

    A group is skipped without the entrywise comparison when its
    representative's mean entry is more than 2 * COALESCE_TOL from the
    operator's, compared as entry sums of N entries with the margin scaled
    by N.  The skip is exact: |mean(A) - mean(B)| <= mean|A - B| <=
    max|A - B|, so a skipped group could never have matched, and the first
    match, the sqrt(l) cascade and the result are those of the full scan.
    The second COALESCE_TOL covers the rounding of the two computed means:
    near 1e-15 for entries of modulus about 1, still below COALESCE_TOL
    for entries of a few hundred.  A set that passes the trace check at
    ``tol`` has no entry above sqrt(1 + tol), since |E_ij| <= ||E|| and
    ||E||^2 <= ||sum E'E|| <= 1 + tol; a set with larger entries fails that
    check whatever the grouping.  :func:`coalesces` asks this fold too, so
    which operators count as equal is decided here alone.
    """
    stack = np.asarray(ops)
    if not len(stack):
        return []
    keep = [COALESCE_TOL < peak < math.inf
            for peak in np.abs(stack).max(axis=(1, 2)).tolist()]
    current = stack if all(keep) else stack[keep]
    while len(current) > 1:
        margin = 2 * COALESCE_TOL * current[0].size
        groups: list[list] = []  # [entry sum, representative, count]
        for m, total in zip(current, np.asarray(current).sum(axis=(1, 2)).tolist()):
            for g in groups:
                if (abs(g[0] - total) <= margin
                        and np.abs(g[1] - m).max() <= COALESCE_TOL):
                    g[2] += 1
                    break
            else:
                groups.append([total, m, 1])
        if len(groups) == len(current):
            break
        # scaling may have created new collisions; fold again
        current = [g[1] * math.sqrt(g[2]) if g[2] > 1 else g[1] for g in groups]
    return list(current)


def coalesces(ops) -> bool:
    """Whether canonicalising ``ops`` would drop or merge any of them.

    This is :func:`_coalesce`'s own answer: True when it returns fewer
    operators, so when some operator has every entry within
    :data:`COALESCE_TOL` of 0 or is not finite, or two lie within it of each
    other entrywise.  ``ops`` is as for :func:`_coalesce`.
    """
    stack = np.asarray(ops)
    return len(_coalesce(stack)) < len(stack)


def make_kraus(input_sig: Signature, output_sig: Signature, raw_ops,
               tol: float = DEFAULT_TOL) -> KrausSet:
    """Canonicalize a multiset of operators into a valid Kraus set.

    The operators are read into one stack.  Zero operators are dropped and
    equal occurrences coalesced, then the survivors are sorted into the
    order described at :class:`KrausSet` (the sort key is a bytes encoding
    of that order) and stored as read-only views of one reordered stack.
    The positivity of I - sum E'E is checked on every call.

    Raises :class:`DimensionMismatch` if an operator has the wrong shape and
    :class:`TraceConditionViolated` if the coalesced set has sum E'E > I
    beyond ``tol``.
    """
    check_tol(tol)
    shape = (dim(output_sig), dim(input_sig))
    raw_ops = raw_ops if isinstance(raw_ops, np.ndarray) else list(raw_ops)
    try:
        stack = np.array(raw_ops, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
        stack = None
    if stack is None or stack.shape[1:] != shape or not np.isfinite(stack).all():
        # one by one, as as_matrix reads them (1-D too): the first fault raises
        ops = []
        for raw in raw_ops:
            m = as_matrix(raw)
            if m.shape != shape:
                raise DimensionMismatch(
                    f"operator of shape {m.shape} does not map "
                    f"{input_sig.blocks} into {output_sig.blocks}")
            ops.append(m)
        stack = np.array(ops, dtype=complex).reshape((len(ops),) + shape)
    ops = _coalesce(stack)
    if len(ops) < len(stack):  # else ops are the stack's own rows
        stack = np.array(ops, dtype=complex).reshape((len(ops),) + shape)
    if len(stack) > 1:  # one operator needs no key
        stack = stack[np.argsort(_canonical_keys(stack), kind="stable")]
    stack.setflags(write=False)
    kset = KrausSet(input_sig, output_sig, tuple(stack))
    _check_residual(kset.completeness_sum(), tol)
    return kset


def _check_residual(gram: Matrix, tol: float) -> None:
    """Raise :class:`TraceConditionViolated` unless I - ``gram``, a sum of
    E'E, is positive at ``tol``: the check :func:`make_kraus` ends with,
    also made on a stack of gates' U'U, with no set built."""
    if not is_psd(np.eye(gram.shape[-1]) - gram, tol):
        raise TraceConditionViolated(
            "sum of E'E exceeds the identity; not trace-nonincreasing")


def unchecked_singleton(input_sig: Signature, output_sig: Signature,
                        op: Matrix) -> KrausSet:
    """The set {op}, built without a check of its own.

    This is the value ``make_kraus(input_sig, output_sig, [op], tol)``
    returns when that call passes, byte for byte, but it forms no sum E'E.
    The caller owes everything ``make_kraus`` would have checked: ``op`` is a
    finite dim(output) x dim(input) matrix with an entry above
    :data:`COALESCE_TOL`, and I - op'op is positive at ``tol``.  An
    allocation's op is an isometry, so its residual is exactly 0; an
    alternation's one element has the direct sum of its arms' residuals,
    each checked already.
    """
    return KrausSet(input_sig, output_sig, (freeze(op),))


class LocalKraus(KrausSet):
    """{I (x) u}: one operator that is ``u`` on a few binary axes of ``sig``.

    The 2^n basis vectors of ``sig`` are read as n binary axes, the first
    most significant.  ``local()`` returns ``u`` and the axes it acts on,
    its first listed axis most significant; the operator is the identity
    on the other axes.  :meth:`times` applies ``u`` to those axes of other
    operators alone.  Each form is built when first needed: ``local()``
    when :attr:`form` is read, the one full-width operator, ``dense()``,
    when ``ops`` is read.  The set checks nothing: like
    :func:`unchecked_singleton`, the caller owes what ``make_kraus`` would
    have checked, and ``dense()`` must return the operator I (x) u, an
    array no one else holds (it is frozen in place).  ``len`` is 1 and
    reads nothing.
    """

    def __init__(self, sig: Signature, local, dense):
        for name, value in (("input_sig", sig), ("output_sig", sig),
                            ("local", local), ("dense", dense)):
            object.__setattr__(self, name, value)

    @cached_property
    def ops(self) -> tuple[Matrix, ...]:
        return (freeze_fresh(self.dense()),)

    @cached_property
    def form(self) -> tuple[Matrix, tuple[int, ...], int | None]:
        """``(u, axes, before)``: the axes increasing, ``u`` re-indexed to
        match, and 2^(first axis) when the axes are adjacent, else None."""
        u, axes = self.local()
        u, axes, t = np.asarray(u, dtype=complex), list(axes), len(axes)
        if axes != sorted(axes):
            order = list(np.argsort(axes))
            u = u.reshape((2,) * (2 * t)).transpose(order + [t + i for i in order])
            u, axes = u.reshape(2 ** t, 2 ** t), sorted(axes)
        first = axes[0] if axes else 0
        before = 2 ** first if axes == list(range(first, first + t)) else None
        return freeze(u), tuple(axes), before

    def __len__(self) -> int:
        return 1

    def times(self, fs) -> np.ndarray:
        """U F for each operator F of ``fs``, contracted on the axes of U alone.

        Returns the products as one stack.  Each product is formed by the
        same matmul of ``u`` with a view of F, whatever else ``fs`` holds:
        where the axes are adjacent, F's rows are read as (before, axes,
        after) with the columns after; elsewhere the axes are moved to the
        front.  So a product's bytes depend on U and F alone, and a run
        and :func:`compose` form the same ones.
        """
        if not len(fs):
            return []
        u, axes, before = self.form
        stack = np.asarray(fs)
        k, d, c = stack.shape
        if before is not None:
            return np.matmul(u, stack.reshape(k * before, len(u), -1)).reshape(k, d, c)
        n = d.bit_length() - 1
        rest = [a for a in range(n) if a not in axes]
        perm = [0, *(1 + a for a in axes), *(1 + a for a in rest), n + 1]
        moved = stack.reshape((k,) + (2,) * n + (c,)).transpose(perm)
        out = np.matmul(u, moved.reshape(k, len(u), -1)).reshape(moved.shape)
        return out.transpose(np.argsort(perm)).reshape(k, d, c)


def identity_kraus(sig: Signature) -> KrausSet:
    """{I} on ``sig``, local on no axis: its d x d identity is built only
    when its operators are read.  Its residual is exactly 0, so it needs no
    check at any ``tol``."""
    return LocalKraus(sig, lambda: (np.eye(1), ()),
                      lambda: np.eye(dim(sig), dtype=complex))


def zero_kraus(input_sig: Signature, output_sig: Signature) -> KrausSet:
    return KrausSet(input_sig, output_sig, ())


def compose(s: KrausSet, t: KrausSet, tol: float = DEFAULT_TOL) -> KrausSet:
    """Composition ``s after t``: canonicalized products {E F}.

    The products are ``s.times(t.ops)``, so a local set (:class:`LocalKraus`)
    forms them on its own axes.
    """
    if t.output_sig != s.input_sig:
        raise DimensionMismatch(
            f"cannot compose: inner output {t.output_sig.blocks} "
            f"!= outer input {s.input_sig.blocks}")
    return make_kraus(t.input_sig, s.output_sig, s.times(t.ops), tol)


# ---------------------------------------------------------------------------
# Quantum alternation
# ---------------------------------------------------------------------------

def _control_indices(sig: Signature, n: int, k: int) -> np.ndarray:
    """Indices, in qbit^n (x) sig, of sig's basis under control value ``k``.

    Block b of qbit^n (x) sig is 2^n copies of sig's block b, control value
    major, so entry j of block b goes to index 2^n * off_b + k * n_b + j.
    """
    offsets = np.array(block_offsets(sig))
    sizes = np.array(sig.blocks)
    return np.arange(dim(sig)) + np.repeat((2 ** n - 1) * offsets + k * sizes, sizes)


def case_elements(branches, n: int) -> list[Matrix]:
    """The element multiset of a 2^n-way alternation, before canonicalization.

    One operator sum_k Pi_k (x) E_k for every tuple (E_k) of operators of the
    nonempty branches, in ``itertools.product`` order (first branch major),
    each E_k scaled by one over the square root of the product of the other
    nonempty branches' sizes.  Empty branches drop out; all empty yields the
    empty list.  Pi_k (x) E_k is laid out as qbit^n (x) sig, block by block,
    each E_k written straight to control value k's indices.
    """
    if len(branches) != 2 ** n:
        raise BranchCountMismatch(
            f"expected {2 ** n} branches for {n} control qubit(s), "
            f"got {len(branches)}")
    for b in branches[1:]:
        _check_same_type(branches[0], b)
    sig_in, sig_out = branches[0].input_sig, branches[0].output_sig
    populated = [(k, b.ops) for k, b in enumerate(branches) if b.ops]
    if not populated:
        return []
    sizes = [len(ops) for _, ops in populated]
    scales = [math.sqrt(math.prod(sizes[:i] + sizes[i + 1:]))
              for i in range(len(sizes))]
    places = [np.ix_(_control_indices(sig_out, n, k),
                     _control_indices(sig_in, n, k)) for k, _ in populated]
    shape = (2 ** n * dim(sig_out), 2 ** n * dim(sig_in))
    elements = []
    for combo in itertools.product(*[ops for _, ops in populated]):
        element = np.zeros(shape, dtype=complex)
        for at, e, scale in zip(places, combo, scales):
            element[at] = e / scale
        elements.append(element)
    return elements


def alternate(s: KrausSet, t: KrausSet, tol: float = DEFAULT_TOL) -> KrausSet:
    """Quantum alternation of two sets under a fresh leading control qubit.

    For singleton unitary branches this is the controlled operator
    Pi_0 (x) U_0 + Pi_1 (x) U_1; in general it superposes every pair of
    branch operators without measuring the control.
    """
    return alternate_case([s, t], 1, tol)


def alternate_case(branches, n: int, tol: float = DEFAULT_TOL) -> KrausSet:
    """Alternation over a 2^n-way control register.

    Elements are sums over control values k of Pi_k (x) E_k, one for every
    tuple of branch operators, each E_k scaled by the square root of the
    product of the other branches' sizes.  Empty branches drop out exactly as
    in the binary case.
    """
    branches = list(branches)
    elements = case_elements(branches, n)
    controls = Signature((2 ** n,))
    return make_kraus(tensor_sig(controls, branches[0].input_sig),
                      tensor_sig(controls, branches[0].output_sig), elements, tol)


def branch_sum(s: KrausSet, t: KrausSet, tol: float = DEFAULT_TOL) -> KrausSet:
    """Direct sum of two sets acting on tagged states (r0, r1) -> (S r0, T r1).

    Each operator of ``s`` (of ``t``) is written into the first (second)
    diagonal block of a zero operator on the doubled spaces.
    """
    _check_same_type(s, t)
    sig, tau = s.input_sig, s.output_sig
    d_out, d_in = s.op_shape()
    ops = []
    for k, kset in enumerate((s, t)):
        for e in kset.ops:
            op = np.zeros((2 * d_out, 2 * d_in), dtype=complex)
            op[k * d_out:(k + 1) * d_out, k * d_in:(k + 1) * d_in] = e
            ops.append(op)
    return make_kraus(dsum(sig, sig), dsum(tau, tau), ops, tol)


# ---------------------------------------------------------------------------
# Superoperator action
# ---------------------------------------------------------------------------

def apply_full(s: KrausSet, full_state: Matrix) -> Matrix:
    """Raw linear action sum E rho E' on a full-space matrix, unvalidated."""
    rho = as_matrix(full_state)
    d_out = dim(s.output_sig)
    out = np.zeros((d_out, d_out), dtype=complex)
    for e in s.ops:
        out += e @ rho @ e.conj().T
    return out


def apply(s: KrausSet, rho: DensityState, tol: float = DEFAULT_TOL) -> DensityState:
    """Apply the superoperator to a density state.

    The result is read by :func:`diagonal_blocks`, which raises
    :class:`NonBlockDiagonalResult` for coherence outside the output blocks
    (the set is not a morphism between the block spaces) and
    :class:`SemanticError` for a state that fails its check at ``tol``.
    """
    if rho.signature != s.input_sig:
        raise SignatureMismatch(
            f"state on {rho.signature.blocks} fed to map expecting "
            f"{s.input_sig.blocks}")
    return diagonal_blocks(apply_full(s, rho.full()), s.output_sig, tol)


def diagonal_blocks(full: Matrix, sig: Signature,
                    tol: float = DEFAULT_TOL) -> DensityState:
    """The density state on ``sig`` of a full-space result, built at ``tol``.

    Raises :class:`NonBlockDiagonalResult` if ``full`` carries more than
    ``tol`` of coherence outside those blocks, and :class:`SemanticError`,
    chained from the ``ValueError``, if the state fails its check at ``tol``
    (as rounding can at a ``tol`` far below it).
    """
    check_tol(tol)
    full = as_matrix(full)  # a finite copy, cleared block by block below
    blocks = []
    for off, n in zip(block_offsets(sig), sig.blocks):
        at = slice(off, off + n)
        blocks.append(full[at, at].copy())
        full[at, at] = 0
    residual = np.abs(full).max() if len(blocks) > 1 else 0.0
    if residual > tol:
        raise NonBlockDiagonalResult(
            f"off-block mass {residual:.3e} exceeds tolerance {tol:.1e}")
    try:
        return DensityState(sig, blocks, tol)
    except ValueError as exc:
        raise SemanticError(f"final state fails its check at tol {tol:.1e}: "
                            f"{exc}") from exc


# ---------------------------------------------------------------------------
# Choi family, extensional equality, Loewner order
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChoiFamily:
    """One Choi matrix per input block: the canonical form of the action.

    Member i encodes the completely positive map restricted to inputs
    supported on block i, including any off-block output components, so two
    Kraus sets have equal families exactly when they act identically on all
    block-diagonal states.

    ``==`` is :func:`~qalt.core.exact_eq` (use :func:`choi_distance` for a
    tolerance).  Families are unhashable.
    """

    input_sig: Signature
    output_sig: Signature
    members: tuple[Matrix, ...]

    __eq__ = exact_eq


def to_choi(s: KrausSet) -> ChoiFamily:
    """Per-input-block Choi matrices: sum of vec(E J_i) outer products.

    Member i is V V' for the matrix V whose column k is E_k's columns of
    block i stacked row-major; the empty set gives zero members.
    """
    d_out, d_in = s.op_shape()
    stack = np.asarray(s.ops, dtype=complex).reshape(len(s.ops), d_out, d_in)
    members = []
    for off, n in zip(block_offsets(s.input_sig), s.input_sig.blocks):
        v = stack[:, :, off:off + n].reshape(len(s.ops), d_out * n).T
        members.append(freeze_fresh(v @ v.conj().T))
    return ChoiFamily(s.input_sig, s.output_sig, tuple(members))


def _check_same_type(s: KrausSet, t: KrausSet):
    if s.input_sig != t.input_sig or s.output_sig != t.output_sig:
        raise SignatureMismatch(
            f"maps of different types: {s.input_sig.blocks}->{s.output_sig.blocks} vs "
            f"{t.input_sig.blocks}->{t.output_sig.blocks}")


def choi_distance(s: KrausSet, t: KrausSet) -> float:
    """Largest entrywise difference between the two sets' Choi families."""
    _check_same_type(s, t)
    cs, ct = to_choi(s), to_choi(t)
    return max(float(np.abs(a - b).max()) for a, b in zip(cs.members, ct.members))


def _pencil_verdict(s: KrausSet, t: KrausSet, tol: float,
                    order: bool) -> bool | None:
    """:func:`lowner_leq` (``order``) or :func:`ext_equal` of ``s`` and ``t``
    from a small pencil per input block, or None where it does not settle it.

    For a block of n inputs, Choi(t) - Choi(s) = M S M' with M = [vec F_j,
    vec E_i] the D x (k + l) matrix of the columns :func:`to_choi` stacks
    (D = dim(output) n, F_j of ``t``, E_i of ``s``) and S = diag(+1 (k
    times), -1 (l times)).  With M = QR, its nonzero eigenvalues are those
    of the (k + l) x (k + l) matrix P = R S R', its Frobenius norm is P's,
    and 0 is one more eigenvalue when k + l < D.  Writing A for the
    difference, max |a_ij| <= ||A||_2 <= ||A||_F <= D max |a_ij|, so:

    - equal when ||P||_F + b <= tol, and not equal when ||P||_F / D - b >
      tol (the dense test is max |a_ij| <= tol);
    - below when min(0, lambda_min(P)) - b >= -tol, and not below when
      min(0, lambda_min(P)) + b < -tol (the dense test is ``is_psd``).

    b = 16 eps D ||M||_F^2 is the margin for rounding in both forms: the
    pencil's QR, product and eigenvalues, and the dense Choi entries and
    their eigenvalues, each of the order of eps times a size at most D
    times ||M||_F^2 >= ||A||_2.  A block inside a band, or a ``tol`` at or
    below b (where the dense form also rejects rounding-level non-Hermitian
    entries), leaves the verdict to the dense form.  So does a block where
    the pencil is not faster: 4 (k + l) > D, where its QR is not much
    smaller than the Choi products, or D < 128.  A verdict that runs right
    after other work has its numpy calls miss the caches, so the pencil's
    half dozen of them cost about 0.15-0.2 ms, and the dense form is as
    fast up to D = 100 for ``ext_equal`` and D = 81 for ``lowner_leq``
    (measured with k = l = 1 to 4).
    """
    # every verdict runs this size test, so it is kept to a few builtins
    d_out = sum(s.output_sig.blocks)
    narrowest = d_out * min(s.input_sig.blocks)
    k, l = len(t.ops), len(s.ops)
    if narrowest < 128 or narrowest < 4 * (k + l):
        return None
    _check_same_type(s, t)
    d_in = dim(s.input_sig)
    stack = np.concatenate([np.asarray(t.ops).reshape(k, d_out, d_in),
                            np.asarray(s.ops).reshape(l, d_out, d_in)])
    signs = np.repeat([1.0, -1.0], [k, l])
    settled = True
    for off, n in zip(block_offsets(s.input_sig), s.input_sig.blocks):
        d = d_out * n
        r = np.linalg.qr(stack[:, :, off:off + n].reshape(k + l, d).T, mode="r")
        bound = 16 * np.finfo(float).eps * d * np.vdot(r, r).real
        if tol <= bound:
            return None
        pencil = (r * signs) @ r.conj().T
        if order:
            low = min(0.0, np.linalg.eigvalsh(pencil).min(initial=0.0))
            if low + bound < -tol:
                return False
            settled = settled and low - bound >= -tol
        else:
            norm = np.linalg.norm(pencil)
            if norm / d - bound > tol:
                return False
            settled = settled and norm + bound <= tol
    return True if settled else None


def ext_equal(s: KrausSet, t: KrausSet, tol: float = DEFAULT_TOL) -> bool:
    """Extensional equality: do the two sets denote the same superoperator?

    The answer is ``choi_distance(s, t) <= tol``.  Where every input block's
    Choi difference is at least 128 wide and four times the two sets'
    operator count, the Frobenius norm of a small pencil decides it with a
    rounding bound (:func:`_pencil_verdict`) and no Choi member is built.
    A norm within the bound of the band [tol, D tol], or a ``tol`` at or
    below the bound, leaves it to the dense Choi families.
    """
    check_tol(tol)
    verdict = _pencil_verdict(s, t, tol, order=False)
    return choi_distance(s, t) <= tol if verdict is None else verdict


def lowner_leq(s: KrausSet, t: KrausSet, tol: float = DEFAULT_TOL) -> bool:
    """Loewner order: True iff t - s is completely positive on block states.

    The answer is ``is_psd`` of each block's Choi difference at ``tol``.
    Where every block's difference is at least 128 wide and four times the
    two sets' operator count, the smallest eigenvalue of a small pencil
    decides it with a rounding bound (:func:`_pencil_verdict`) and no Choi
    member is built.  An eigenvalue within the bound of -``tol``, or a
    ``tol`` at or below the bound, leaves it to the dense Choi families,
    where ``is_psd`` settles a difference at least 32 wide by a shifted
    Cholesky outside its rounding band, and by ``eigvalsh`` inside it.
    """
    check_tol(tol)
    verdict = _pencil_verdict(s, t, tol, order=True)
    if verdict is not None:
        return verdict
    _check_same_type(s, t)
    cs, ct = to_choi(s), to_choi(t)
    return all(is_psd(b - a, tol) for a, b in zip(cs.members, ct.members))


def is_reversible(s: KrausSet, tol: float = 1e-10) -> bool:
    """True iff the set is a single unitary operator."""
    check_tol(tol)
    if s.input_sig != s.output_sig:
        raise SignatureMismatch("reversibility needs equal input and output")
    if len(s.ops) != 1:
        return False
    u = s.ops[0]
    eye = np.eye(u.shape[0])
    return (np.abs(u.conj().T @ u - eye).max() <= tol
            and np.abs(u @ u.conj().T - eye).max() <= tol)
