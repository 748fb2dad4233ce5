"""Dense complex linear algebra and state-space shape arithmetic.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries.
Every operation returns a fresh array, and arrays stored inside value
objects are frozen (``writeable=False``) so the semantic layers can treat
them as immutable.

A :class:`Signature` names a mixed classical/quantum state space: a tuple of
block dimensions ``(n_1, ..., n_s)`` whose associated Hilbert space is the
direct sum of the blocks.  Basis vectors of that space are ordered block by
block.  Inside a tensor block the first-listed qubit is the leftmost (most
significant) factor.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields

import numpy as np

from .errors import DimensionMismatch

#: Default numeric tolerance for positivity and trace checks.
DEFAULT_TOL = 1e-9

Matrix = np.ndarray


def check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is a finite number above 0, the
    one rule of every public entry that decides at a ``tol``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and greater than 0, got {tol}")


def as_matrix(data) -> Matrix:
    """Coerce ``data`` to a fresh 2-D complex matrix, rejecting NaN/Inf."""
    return _checked(np.array(data, dtype=complex))


def _checked(m: np.ndarray, stack: bool = False) -> Matrix:
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise DimensionMismatch(f"expected a 2-D matrix, got {m.ndim} axes")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def freeze(m: Matrix) -> Matrix:
    """Return a read-only C-contiguous copy of ``m``: with one memory order for
    every stored operator, later products take one BLAS path."""
    out = np.array(m, dtype=complex, order="C")
    out.setflags(write=False)
    return out


def freeze_fresh(m: Matrix) -> Matrix:
    """:func:`freeze` for an array no one else holds: in place if it can be."""
    out = np.asarray(m, dtype=complex, order="C")
    out.setflags(write=False)
    return out


def exact_eq(a, b):
    """Exact ``==`` of two dataclass values, ``NotImplemented`` for another class.

    Every field must match: a matrix, alone or in a tuple, by dtype, shape
    and bytes, so -0.0 differs from 0.0, and anything else by ``==``.
    """
    if not isinstance(b, type(a)):
        return NotImplemented
    return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _same(x, y) -> bool:
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    return x == y


def tensor(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left operand as the leading factor."""
    return np.kron(as_matrix(a), as_matrix(b))


def adjoint(a: Matrix) -> Matrix:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def is_psd(a: Matrix, tol: float = DEFAULT_TOL) -> bool:
    """Positivity oracle: Hermitian within ``tol`` and min eigenvalue >= -tol.

    ``a`` is a matrix, or a non-empty stack that passes when each member
    does.  Each is symmetrized once, H = (A + A')/2, and its Gershgorin
    lower bound min_i (h_ii - sum_{j != i} |h_ij|) is computed in O(d^2).
    A bound >= -tol is a proof, in exact arithmetic, that every eigenvalue
    of H is >= -tol (Horn & Johnson, *Matrix Analysis*, Thm 6.1.1); the
    computed row sums carry at most about d * eps * ||H||_inf of rounding,
    the order of ``eigvalsh``'s own backward error.

    A 2-D H at least 32 wide whose bound fails but is finite (no entry or row
    sum overflowed) is next factored, its diagonal shifted in place.  With s =
    max |h_ii| + tol, c = 2 d (d + 1) eps (d gamma_{d+1} in complex arithmetic)
    and the margin m = 2 c s + sqrt(tiny), a failed Cholesky of H + (tol + m) I
    answers False: it succeeds on any A whose diagonally scaled form has
    lambda_min above about c (Demmel; Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 10.7), so lambda_min(H) <= c (s + m) - m - tol.
    A factor of H + (tol - m) I proves True: it is exact for A + E with ||E||_2
    <= gamma_{d+1} trace(A) <= c s (Higham Thm 10.3), so lambda_min(H) >= m - c
    s - tol.  Either answer keeps lambda_min(H) about c s away from -tol, beyond
    ``eigvalsh``'s error of about d eps ||H||_2 with ||H||_2 at most about d s
    there (by the trace of the factored matrix, or of H, which the negative
    eigenvalues balance), so ``eigvalsh`` would agree.  The bounds hold barring
    underflow: sqrt(tiny) sends every tol whose square underflows, 1e-300 among
    them, to ``eigvalsh``, which scales into range first.  A ``tol <= 2 m``, an
    H between the shifts (its diagonal restored bit for bit), a narrower H and
    each stacked member whose bound fails get their smallest eigenvalue
    computed: below 32 wide only ``eigvalsh`` rejects a Hermitian matrix.  A
    complex ndarray input is read in place, not copied.
    """
    m = _checked(np.asarray(a, dtype=complex), stack=True)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"is_psd needs a square matrix, got {m.shape}")
    adj = m.conj().transpose(0, 2, 1) if m.ndim == 3 else m.conj().T
    if np.abs(m - adj).max() > tol:
        return False
    herm = m + adj
    herm *= 0.5
    diag = herm.diagonal(0, -2, -1).real
    radii = np.abs(herm).sum(axis=-1) - np.abs(diag)
    bound = (diag - radii).min(axis=-1)
    if m.ndim == 3:
        herm = herm[~(bound >= -tol)]
        if not len(herm):
            return True
    elif bound >= -tol:
        return True
    elif len(herm) >= 32 and math.isfinite(bound):
        d, fp, keep = len(herm), np.finfo(float), herm.diagonal().copy()
        scale = float(np.abs(diag).max()) + tol
        margin = 4 * d * (d + 1) * fp.eps * scale + math.sqrt(fp.tiny)
        if tol > 2 * margin:
            for shift, answer in ((tol + margin, False), (tol - margin, True)):
                np.fill_diagonal(herm, keep + shift)
                try:
                    np.linalg.cholesky(herm)
                    factored = True
                except np.linalg.LinAlgError:
                    factored = False
                if factored == answer:
                    return answer
            np.fill_diagonal(herm, keep)
    return float(np.linalg.eigvalsh(herm).min()) >= -tol


def block_diag(blocks) -> Matrix:
    """Assemble square blocks into one block-diagonal matrix."""
    blocks = [as_matrix(b) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for b in blocks:
        k = b.shape[0]
        out[off:off + k, off:off + k] = b
        off += k
    return out


# ---------------------------------------------------------------------------
# Qubit register embeddings
# ---------------------------------------------------------------------------

def embed_gate(u: Matrix, targets, n: int) -> Matrix:
    """Lift ``u`` onto an ``n``-qubit register.

    ``u`` must act on ``2**len(targets)`` dimensions; the result acts as ``u``
    on the listed qubit factors (in listed order) and as the identity on the
    rest.  Qubit 0 is the leading (most significant) tensor factor.
    """
    u = as_matrix(u)
    targets = list(targets)
    t = len(targets)
    if len(set(targets)) != t:
        raise ValueError(f"duplicate gate target in {targets}")
    if any(not 0 <= q < n for q in targets):
        raise ValueError(f"gate target out of range in {targets} for n={n}")
    if u.shape != (2 ** t, 2 ** t):
        raise DimensionMismatch(
            f"gate of shape {u.shape} does not fit {t} qubit target(s)")
    rest = [q for q in range(n) if q not in targets]
    order = targets + rest
    # p[x] = index of basis state x once the `order` factors are moved front:
    # the basis index tensor read in `order`, moved back to register order.
    p = np.arange(2 ** n).reshape((2,) * n).transpose(np.argsort(order)).ravel()
    big = np.kron(u, np.eye(2 ** (n - t), dtype=complex))
    return big[np.ix_(p, p)]


# ---------------------------------------------------------------------------
# Common gates
# ---------------------------------------------------------------------------

ID2 = freeze(np.eye(2, dtype=complex))
X = freeze(np.array([[0, 1], [1, 0]], dtype=complex))
Y = freeze(np.array([[0, -1j], [1j, 0]], dtype=complex))
Z = freeze(np.array([[1, 0], [0, -1]], dtype=complex))
H = freeze(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
PI0 = freeze(np.array([[1, 0], [0, 0]], dtype=complex))
PI1 = freeze(np.array([[0, 0], [0, 1]], dtype=complex))
KET0 = freeze(np.array([[1], [0]], dtype=complex))
KET1 = freeze(np.array([[0], [1]], dtype=complex))


#: The least k whose ``rk_gate(k)`` is exactly I: 2*pi*2**-k underflows to 0.
RK_IDENTITY = 1078


def rk_gate(k: int) -> Matrix:
    """Phase-shift gate with angle 2*pi/2**k on the |1> component."""
    if k < 0:
        raise ValueError("rk_gate needs k >= 0")
    theta = math.ldexp(2 * math.pi, -k)  # 2 ** k overflows a float for k > 1023
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def phase_gate(theta: float) -> Matrix:
    """Global phase on one qubit: exp(i*theta) times the identity."""
    return np.exp(1j * theta) * np.eye(2, dtype=complex)


def transposition_gate(image: int, dim: int) -> Matrix:
    """Permutation swapping basis state 0 with ``image``, fixing the rest."""
    if not 0 <= image < dim:
        raise ValueError(f"image {image} out of range for dimension {dim}")
    out = np.eye(dim, dtype=complex)
    if image != 0:
        out[[0, image]] = out[[image, 0]]
    return out


NAMED_GATES = {
    "I": ID2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": freeze(np.array([[1, 0], [0, 1j]], dtype=complex)),
    "T": freeze(np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)),
}


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """Tuple of positive block dimensions naming a state space."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks:
            raise ValueError("signature needs at least one block")
        if any(b < 1 for b in blocks):
            raise ValueError(f"block dimensions must be positive: {blocks}")
        object.__setattr__(self, "blocks", blocks)


def dim(sig: Signature) -> int:
    """Total dimension of the direct-sum space."""
    return sum(sig.blocks)


def dsum(a: Signature, b: Signature) -> Signature:
    """Concatenation of signatures (classical branching)."""
    return Signature(a.blocks + b.blocks)


def tensor_sig(a: Signature, b: Signature) -> Signature:
    """Tensor product: all pairwise products in lexicographic block order."""
    return Signature(tuple(x * y for x in a.blocks for y in b.blocks))


def qbit_tensor(sig: Signature) -> Signature:
    """Adjoin one qubit as the leading factor of every block."""
    return tensor_sig(Signature((2,)), sig)


def block_offsets(sig: Signature) -> list[int]:
    offs = [0]
    for n in sig.blocks[:-1]:
        offs.append(offs[-1] + n)
    return offs


# ---------------------------------------------------------------------------
# Density states
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityState:
    """Sub-normalized mixed state: one positive matrix per signature block.

    Construction validates hermiticity, positivity and total trace at most 1
    within ``tol`` (not stored; :func:`check_tol` first) and freezes the
    block arrays.  ``==`` is :func:`exact_eq`; states are unhashable.
    """

    signature: Signature
    blocks: tuple[Matrix, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        check_tol(tol)
        sig = self.signature
        blocks = tuple(freeze(as_matrix(b)) for b in self.blocks)
        if len(blocks) != len(sig.blocks):
            raise DimensionMismatch(
                f"{len(blocks)} blocks for signature {sig.blocks}")
        for b, n in zip(blocks, sig.blocks):
            if b.shape != (n, n):
                raise DimensionMismatch(
                    f"block of shape {b.shape} does not match dimension {n}")
            if not is_psd(b, tol):
                # the Hermitian test runs again only to name the failure
                if np.abs(b - b.conj().T).max() > tol:
                    raise ValueError("density block is not Hermitian")
                raise ValueError("density block is not positive semidefinite")
        object.__setattr__(self, "blocks", blocks)
        tr = self.trace()
        if not -tol <= tr <= 1 + tol:
            raise ValueError(f"total trace {tr} outside [0, 1]")

    __eq__ = exact_eq

    def full(self) -> Matrix:
        """The state as a single block-diagonal matrix."""
        return block_diag(self.blocks)

    def trace(self) -> float:
        return sum(float(np.trace(b).real) for b in self.blocks)


def unit_state() -> DensityState:
    """The scalar 1 on the trivial signature (1): the empty-context state."""
    return DensityState(Signature((1,)), (np.array([[1.0]]),))
