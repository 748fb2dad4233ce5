"""Stinespring representations of Kraus sets.

A representation is a pair (ancilla dimension, V) with V mapping the output
space into input (x) ancilla and T(rho) = V' (rho (x) I_A) V.  The ancilla
basis is indexed by the canonical operator ordering of the originating Kraus
set, so constructions here are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, Matrix, Signature, as_matrix, dim, exact_eq,
                   freeze, qbit_tensor)
from .errors import DimensionMismatch, EmptySetError
from .kraus import KrausSet, _check_same_type, case_elements, ext_equal, make_kraus


@dataclass(frozen=True, eq=False)
class StinespringRep:
    """Dilation data: V maps the output space into input (x) ancilla.

    Rows of ``v`` are indexed (input basis) * ancilla_dim + (ancilla basis);
    columns by the output basis.  The represented channel must be
    trace-nonincreasing: construction reads the operators off V, as
    :func:`from_stinespring` does, and ``make_kraus`` checks sum E'E <= I.

    ``==`` is :func:`~qalt.core.exact_eq`; representations are unhashable.
    """

    ancilla_dim: int
    v: Matrix
    input_sig: Signature
    output_sig: Signature

    __eq__ = exact_eq

    def __post_init__(self):
        v = freeze(as_matrix(self.v))
        expected = (dim(self.input_sig) * self.ancilla_dim, dim(self.output_sig))
        if v.shape != expected:
            raise DimensionMismatch(
                f"dilation operator of shape {v.shape}, expected {expected}")
        object.__setattr__(self, "v", v)
        from_stinespring(self)  # raises unless sum E'E <= I


def _dilation(ops, input_sig: Signature, output_sig: Signature) -> StinespringRep:
    """V psi = sum_k ops[k]' psi (x) |k>: rows k, k + a, ... of V hold ops[k]'."""
    a = len(ops)
    v = np.zeros((dim(input_sig) * a, dim(output_sig)), dtype=complex)
    for k, e in enumerate(ops):
        v[k::a] += e.conj().T
    return StinespringRep(a, v, input_sig, output_sig)


def to_stinespring(s: KrausSet) -> StinespringRep:
    """Dilate a nonempty Kraus set: V psi = sum_E E' psi (x) |E>."""
    if not s.ops:
        raise EmptySetError("the zero map has no canonical dilation here")
    return _dilation(s.ops, s.input_sig, s.output_sig)


def from_stinespring(rep: StinespringRep) -> KrausSet:
    """Read the Kraus operators back off the ancilla components of V."""
    ops = []
    for k in range(rep.ancilla_dim):
        e_dag = rep.v[k::rep.ancilla_dim, :]  # (I (x) <k|) V
        ops.append(e_dag.conj().T)
    return make_kraus(rep.input_sig, rep.output_sig, ops)


def verify_stinespring(s: KrausSet, rep: StinespringRep,
                       tol: float = DEFAULT_TOL) -> bool:
    """Is V' (rho (x) I_A) V = sum E rho E' within ``tol``?

    The set read off ``rep`` and ``s`` are compared as superoperators, by
    their Choi families (:func:`qalt.kraus.ext_equal`).
    """
    if rep.input_sig != s.input_sig or rep.output_sig != s.output_sig:
        raise DimensionMismatch(
            "representation and Kraus set act on different spaces")
    return ext_equal(s, from_stinespring(rep), tol)


def alternation_stinespring(s: KrausSet, t: KrausSet) -> StinespringRep:
    """Dilation of the alternation with environment A' (x) A.

    The ancilla is the tensor product of the branch environments with the
    second branch's factor leading: composite index |F> (x) |E|  ->
    index(F) * |s| + index(E).
    """
    if not s.ops or not t.ops:
        raise EmptySetError("alternation dilation needs two nonempty branches")
    _check_same_type(s, t)
    elements = case_elements([s, t], 1)  # ordered E-major: (e, f) pairs
    f_major = [x for f in range(len(t.ops)) for x in elements[f::len(t.ops)]]
    return _dilation(f_major, qbit_tensor(s.input_sig), qbit_tensor(s.output_sig))
