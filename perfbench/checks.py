"""Correctness gate: checks on qalt's outputs, made from outside the library.

Every check returns a list of problems (empty when the output is right), so
run.py can count a job as failed without stopping the run.

The canonical form of a Kraus set is re-derived here from its documentation
in ``qalt.kraus``: no zero operator, no two operators within
``COALESCE_TOL`` of each other, operators sorted by the key (shape, entries
rounded to 12 digits, exact entries) with entries read row by row as
(re, im) pairs, and sum E'E <= I.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from qalt.kraus import COALESCE_TOL

TOL = 1e-9


def _interleaved(m: np.ndarray) -> np.ndarray:
    return np.stack([m.real, m.imag], axis=-1).reshape(-1)


def _lex_less(a: np.ndarray, b: np.ndarray) -> int:
    """-1 if a < b lexicographically, 0 if equal, 1 if a > b."""
    diff = np.flatnonzero(a != b)
    if diff.size == 0:
        return 0
    k = diff[0]
    return -1 if a[k] < b[k] else 1


def canonical_key(m: np.ndarray):
    """The documented sort key, as a tuple (for sorting reference sets)."""
    return (m.shape, tuple(_interleaved(np.round(m, 12) + 0.0)),
            tuple(_interleaved(m)))


def canonical_problems(ops, d_in: int) -> list[str]:
    """Problems with the canonical form of an ordered operator tuple."""
    ops = [np.asarray(e) for e in ops]
    if not ops:
        return []
    shapes = {e.shape for e in ops}
    if len(shapes) != 1 or ops[0].shape[1] != d_in:
        return [f"operator shapes {sorted(shapes)} do not map dimension {d_in}"]
    flat = np.stack([e.reshape(-1) for e in ops])
    problems = []
    if (np.abs(flat).max(axis=1) <= COALESCE_TOL).any():
        problems.append("zero operator kept")
    for i in range(len(ops) - 1):
        if (np.abs(flat[i + 1:] - flat[i]).max(axis=1) <= COALESCE_TOL).any():
            problems.append(f"operator {i} within COALESCE_TOL of a later one")
            break
    for i in range(len(ops) - 1):
        a, b = ops[i], ops[i + 1]
        order = _lex_less(_interleaved(np.round(a, 12) + 0.0),
                          _interleaved(np.round(b, 12) + 0.0))
        if order == 0:
            order = _lex_less(_interleaved(a), _interleaved(b))
        if order >= 0:
            problems.append(f"operators {i} and {i + 1} out of canonical order")
            break
    stack = np.stack(ops)
    total = np.tensordot(stack.conj(), stack, axes=([0, 1], [0, 1]))
    slack = np.eye(d_in) - total
    if float(np.linalg.eigvalsh((slack + slack.conj().T) / 2).min()) < -TOL:
        problems.append("sum E'E exceeds the identity")
    return problems


def same_ops(ops, reference, what: str) -> list[str]:
    """Operator-by-operator comparison with a closed-form reference set.

    The reference is given unordered; it is sorted by the documented key so
    the comparison also checks the order of ``ops``.
    """
    ops = [np.asarray(e) for e in ops]
    ref = sorted((np.asarray(r, dtype=complex) for r in reference
                  if np.abs(r).max() > COALESCE_TOL), key=canonical_key)
    if len(ops) != len(ref):
        return [f"{what}: {len(ops)} operators, closed form has {len(ref)}"]
    for i, (e, r) in enumerate(zip(ops, ref)):
        if e.shape != r.shape or np.abs(e - r).max() > TOL:
            return [f"{what}: operator {i} differs from the closed form"]
    return []


def close(value: float, expected: float, what: str, tol: float = TOL) -> list[str]:
    if not math.isfinite(value) or abs(value - expected) > tol:
        return [f"{what}: got {value!r}, expected {expected!r}"]
    return []


def state_problems(state, expected_full: np.ndarray, trace_in: float,
                   what: str) -> list[str]:
    """A run's output against a closed form, plus trace preservation."""
    problems = close(state.trace(), trace_in, f"{what}: trace")
    full = state.full()
    if full.shape != expected_full.shape or np.abs(full - expected_full).max() > TOL:
        problems.append(f"{what}: final state differs from the closed form")
    return problems


# ---------------------------------------------------------------------------
# Recorded references (default seed)
# ---------------------------------------------------------------------------

def sketch(mats) -> list[list[float]]:
    """Per-matrix fingerprint: two fixed random projections and the norm.

    A reordered, rescaled or rephased operator tuple changes some entry of
    the fingerprint by far more than 1e-9, so comparing fingerprints within
    1e-9 checks the ordered tuple without committing the matrices.
    """
    out = []
    for m in mats:
        m = np.asarray(m, dtype=complex)
        rng = np.random.default_rng(list(m.shape))
        probes = rng.normal(size=(2,) + m.shape) + 1j * rng.normal(size=(2,) + m.shape)
        probes /= np.linalg.norm(probes.reshape(2, -1), axis=1)[:, None, None]
        proj = np.tensordot(probes.conj(), m, axes=([1, 2], [0, 1]))
        out.append([float(proj[0].real), float(proj[0].imag),
                    float(proj[1].real), float(proj[1].imag),
                    float(np.linalg.norm(m))])
    return out


def sketch_problems(got, want, what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} matrices, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if max(abs(a - b) for a, b in zip(g, w)) > TOL:
            return [f"{what}: matrix {i} differs from the recorded reference"]
    return []


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
