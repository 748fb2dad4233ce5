"""Shared random generators and brute-force oracles for the test suite."""

import math

import numpy as np

from qalt import DensityState, dim, make_kraus, syntax
from qalt.core import as_matrix, freeze, is_psd
from qalt.errors import DimensionMismatch, TraceConditionViolated
from qalt.kraus import COALESCE_TOL, KrausSet, _canonical_keys


def rand_unitary(rng, d):
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def rand_kraus(rng, sig_in, sig_out=None, size=2, scale=1.0):
    """Random valid Kraus set with sum E'E = scale**2 * I (scale <= 1).

    When the signatures have matching block counts the operators are drawn
    block-diagonal, so the set is a genuine morphism between the block
    spaces (it maps block-diagonal states to block-diagonal states).
    """
    sig_out = sig_out if sig_out is not None else sig_in
    d_in, d_out = dim(sig_in), dim(sig_out)

    def draw():
        if len(sig_in.blocks) == len(sig_out.blocks):
            parts = [rng.normal(size=(mo, mi)) + 1j * rng.normal(size=(mo, mi))
                     for mo, mi in zip(sig_out.blocks, sig_in.blocks)]
            out = np.zeros((d_out, d_in), dtype=complex)
            ro = ci = 0
            for part in parts:
                out[ro:ro + part.shape[0], ci:ci + part.shape[1]] = part
                ro += part.shape[0]
                ci += part.shape[1]
            return out
        return rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))

    ops = [draw() for _ in range(size)]
    total = sum(e.conj().T @ e for e in ops)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return make_kraus(sig_in, sig_out, [scale * e @ inv_sqrt for e in ops])


def rand_density(rng, sig, trace=1.0):
    """Random density state with the given total trace."""
    blocks = []
    weights = rng.random(len(sig.blocks)) + 0.05
    weights = trace * weights / weights.sum()
    for n, w in zip(sig.blocks, weights):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = g @ g.conj().T
        blocks.append(w * m / np.trace(m).real)
    return DensityState(sig, tuple(blocks))


def state_deviation(a: DensityState, b: DensityState) -> float:
    """Largest entrywise distance between two states of one signature."""
    assert a.signature == b.signature, (a.signature, b.signature)
    return max(float(np.abs(x - y).max()) for x, y in zip(a.blocks, b.blocks))


def psd_brute_force(m, tol):
    """Independent positivity check: hermitize, full eigendecomposition."""
    m = np.asarray(m, dtype=complex)
    if np.abs(m - m.conj().T).max() > tol:
        return False
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    # reconstruct as a sanity check that the decomposition is faithful
    assert np.abs(v @ np.diag(w) @ v.conj().T - (m + m.conj().T) / 2).max() < 1e-10
    return bool(w.min() >= -tol)


def superop_matrix(kset):
    """Full-space superoperator matrix via row-major vectorization."""
    d_in = dim(kset.input_sig)
    d_out = dim(kset.output_sig)
    out = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
    for e in kset.ops:
        out += np.kron(np.asarray(e), np.asarray(e).conj())
    return out


def count_calls(monkeypatch, name, *owners) -> list:
    """Count the calls of the function ``name`` that ``owners`` all bind.

    Each owner's binding is replaced by one counting wrapper; the returned
    list grows by the positional arguments of each call.
    """
    original = getattr(owners[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


def pairwise_coalesce(ops, tol):
    """Reference coalescing: every operator against every group in turn.

    The full first-match scan that :func:`qalt.kraus._coalesce` must agree
    with byte for byte: each operator joins the first group whose
    representative lies within ``tol`` entrywise, l members fold into
    sqrt(l) times the representative, and folding repeats until a pass
    merges nothing.
    """
    current = [m for m in ops if np.abs(m).max() > tol]
    while len(current) > 1:
        groups = []  # [representative, count]
        for m in current:
            for g in groups:
                if np.abs(g[0] - m).max() <= tol:
                    g[1] += 1
                    break
            else:
                groups.append([m, 1])
        if len(groups) == len(current):
            break
        current = [g[0] * math.sqrt(g[1]) if g[1] > 1 else g[0] for g in groups]
    return current


def basis_elements(sig):
    """Block-diagonal matrix units spanning the space of block tuples.

    Returns one per-block tuple for each unit e^(i)_{jk}; the elements are
    generally neither Hermitian nor positive, they are a linear spanning set.
    """
    out = []
    for i, n in enumerate(sig.blocks):
        for j in range(n):
            for k in range(n):
                blocks = []
                for ii, nn in enumerate(sig.blocks):
                    b = np.zeros((nn, nn), dtype=complex)
                    if ii == i:
                        b[j, k] = 1.0
                    blocks.append(b)
                out.append(tuple(blocks))
    return out


# ---------------------------------------------------------------------------
# Per-operator reference canonicalisation
# ---------------------------------------------------------------------------

_SIGN_BIT = np.uint64(1 << 63)


def canonical_key(m):
    """The sort key of one operator: ``kraus._canonical_keys`` of one row."""
    return _canonical_keys(np.asarray(m)[None]).tobytes()


def reference_canonical_key(m):
    """One operator's canonical sort key, built on its own: rounded entries,
    then exact entries, each float as a big-endian integer that orders like
    it, with -0.0 folded into 0.0."""
    parts = np.empty((2,) + m.shape, dtype=complex)
    np.round(m, 12, out=parts[0])
    parts[1] = m
    bits = (parts.view(np.float64) + 0.0).view(np.uint64)
    bits ^= (bits.view(np.int64) >> 63).view(np.uint64) | _SIGN_BIT
    return bits.astype(">u8").tobytes()


def reference_coalesce(ops):
    """The first-match fold with the mean-entry prefilter, zeros dropped and
    entry sums taken one operator at a time."""
    current = [m for m in ops if np.abs(m).max() > COALESCE_TOL]
    while len(current) > 1:
        margin = 2 * COALESCE_TOL * current[0].size
        groups = []  # [entry sum, representative, count]
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
        current = [g[1] * math.sqrt(g[2]) if g[2] > 1 else g[1] for g in groups]
    return current


def reference_make_kraus(input_sig, output_sig, raw_ops, tol):
    """``make_kraus`` one operator at a time: each read and shape-checked in
    turn, coalesced, sorted by its own key, copied and frozen, then checked."""
    shape = (dim(output_sig), dim(input_sig))
    ops = []
    for raw in raw_ops:
        m = as_matrix(raw)
        if m.shape != shape:
            raise DimensionMismatch(
                f"operator of shape {m.shape} does not map "
                f"{input_sig.blocks} into {output_sig.blocks}")
        ops.append(m)
    ops = reference_coalesce(ops)
    if len(ops) > 1:
        ops.sort(key=reference_canonical_key)
    kset = KrausSet(input_sig, output_sig, tuple(freeze(m) for m in ops))
    if not is_psd(np.eye(shape[1]) - kset.completeness_sum(), tol):
        raise TraceConditionViolated(
            "sum of E'E exceeds the identity; not trace-nonincreasing")
    return kset


# ---------------------------------------------------------------------------
# Parser views
# ---------------------------------------------------------------------------

def tokenize(text):
    """The parser's tokens of ``text`` and EOF, each at its offset in ``text``."""
    parser = syntax._Parser(text)
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    return [tok._replace(at=starts[parser.piece(k)[0] - 1] + tok.at)
            for k, tok in enumerate(parser.tokens)]
