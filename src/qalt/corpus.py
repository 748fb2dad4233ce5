"""Generators for the standard example programs used in tests and demos.

Each generator returns a surface AST; QFT and the search-oracle programs act
on pre-existing registers, so companion ``*_context`` helpers supply the
initial typing context they expect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import syntax as ast
from .errors import UnsupportedArity
from .syntax import QBIT, Context, NameRef


@dataclass(frozen=True)
class TruthTable:
    """Boolean function on n-bit inputs as an explicit value table."""

    n: int
    values: tuple

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        if len(values) != 2 ** self.n:
            raise ValueError(
                f"table of length {len(values)} for arity {self.n}")
        if any(v not in (0, 1) for v in values):
            raise ValueError("table entries must be bits")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_bits(cls, bits: str) -> "TruthTable":
        n = (len(bits) - 1).bit_length()
        return cls(n, tuple(int(c) for c in bits))

    def __call__(self, x: int) -> int:
        return self.values[x]

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) == 1

    @property
    def is_balanced(self) -> bool:
        return sum(self.values) * 2 == len(self.values)


def constant_tables(n: int) -> list[TruthTable]:
    return [TruthTable(n, (v,) * 2 ** n) for v in (0, 1)]


def balanced_tables(n: int) -> list[TruthTable]:
    """All balanced tables of arity n, in lexicographic order."""
    size = 2 ** n
    out = []
    for ones in itertools.combinations(range(size), size // 2):
        values = [0] * size
        for i in ones:
            values[i] = 1
        out.append(TruthTable(n, tuple(values)))
    return out


def _apply(name: str, gate) -> ast.ApplyGate:
    return ast.ApplyGate([NameRef(name)], gate)


def _oracle_arm(target: str, table: TruthTable, x: int) -> list:
    return [_apply(target, ast.OracleGate(table.values, ast.Num(x)))]


def gen_deutsch(f: TruthTable) -> ast.Program:
    """Single-query constancy test for a one-bit Boolean function.

    Self-contained: allocates q0 (the query register) and q1 (the target),
    superposes the two oracle permutations under q0, and interferes.  After
    the final H the probability of reading q0 = 0 is 1 for constant f and 0
    for balanced f.
    """
    if f.n != 1:
        raise UnsupportedArity(f"deutsch needs a 1-bit function, got n={f.n}")
    return ast.Program([
        ast.NewQbit(NameRef("q0")),
        ast.NewQbit(NameRef("q1")),
        _apply("q0", ast.NamedGate("H")),
        _apply("q1", ast.NamedGate("X")),
        _apply("q1", ast.NamedGate("H")),
        ast.QIf(NameRef("q0"),
                _oracle_arm("q1", f, 0),
                _oracle_arm("q1", f, 1)),
        _apply("q0", ast.NamedGate("H")),
    ])


def gen_deutsch_jozsa(f: TruthTable) -> ast.Program:
    """n-bit generalization: the quantum `if` becomes a `case` over q0_*."""
    if not 1 <= f.n <= 4:
        raise UnsupportedArity(f"deutsch-jozsa supports 1 <= n <= 4, got n={f.n}")
    controls = [f"q0_{i}" for i in range(f.n)]
    body = [ast.NewQbit(NameRef(c)) for c in controls]
    body.append(ast.NewQbit(NameRef("q1")))
    body += [_apply(c, ast.NamedGate("H")) for c in controls]
    body += [_apply("q1", ast.NamedGate("X")), _apply("q1", ast.NamedGate("H"))]
    arms = [ast.CaseArm(format(x, f"0{f.n}b"), _oracle_arm("q1", f, x))
            for x in range(2 ** f.n)]
    body.append(ast.QCase([NameRef(c) for c in controls], arms))
    body += [_apply(c, ast.NamedGate("H")) for c in controls]
    return ast.Program(body)


def gen_qft(n: int) -> ast.Program:
    """Quantum Fourier transform on given qubits q1..qn as a double loop.

    Controlled phase rotations are expressed with the quantum `if`; the
    loops are meta-level and unroll to n Hadamards and n(n-1)/2 conditionals.
    Typecheck against :func:`qft_context`.
    """
    if not 1 <= n <= 6:
        raise UnsupportedArity(f"qft supports 1 <= n <= 6, got n={n}")
    i, k = ast.Var("i"), ast.Var("k")
    inner = ast.ForLoop(
        "k", ast.Num(2), ast.BinOp("+", ast.BinOp("-", ast.Num(n), i), ast.Num(1)),
        [ast.QIf(NameRef("q", ast.BinOp("-", ast.BinOp("+", k, i), ast.Num(1))),
                 [ast.Skip()],
                 [ast.ApplyGate([NameRef("q", i)], ast.RkGate(k))])])
    outer = ast.ForLoop(
        "i", ast.Num(1), ast.Num(n),
        [ast.ApplyGate([NameRef("q", i)], ast.NamedGate("H")), inner])
    return ast.Program([outer])


def qft_context(n: int) -> Context:
    return Context(tuple((f"q{i}", QBIT) for i in range(1, n + 1)))


def gen_grover_oracle(x0: int, n: int) -> ast.Program:
    """Case program denoting the search oracle that flips q1 exactly on |x0>."""
    if not 1 <= n <= 3:
        raise UnsupportedArity(f"search oracle supports 1 <= n <= 3, got n={n}")
    if not 0 <= x0 < 2 ** n:
        raise ValueError(f"marked item {x0} outside range for n={n}")
    f = TruthTable(n, tuple(1 if x == x0 else 0 for x in range(2 ** n)))
    controls = [f"q0_{i}" for i in range(n)]
    arms = [ast.CaseArm(format(x, f"0{n}b"), _oracle_arm("q1", f, x))
            for x in range(2 ** n)]
    return ast.Program([ast.QCase([NameRef(c) for c in controls], arms)])


def oracle_context(n: int) -> Context:
    entries = tuple((f"q0_{i}", QBIT) for i in range(n)) + (("q1", QBIT),)
    return Context(entries)


# ---------------------------------------------------------------------------
# Golden reference matrices
# ---------------------------------------------------------------------------

def cnot_matrix() -> np.ndarray:
    """Controlled NOT with the control as the leading factor."""
    return np.array([[1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=complex)


def toffoli_matrix() -> np.ndarray:
    """Doubly controlled NOT: permutation swapping |110> and |111>."""
    out = np.eye(8, dtype=complex)
    out[[6, 7]] = out[[7, 6]]
    return out


def dft_matrix(n: int) -> np.ndarray:
    """Discrete Fourier transform on N = 2^n points: omega^(jk)/sqrt(N)."""
    size = 2 ** n
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    omega = np.exp(2j * np.pi / size)
    return omega ** (j * k) / np.sqrt(size)


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Permutation matrix sending |x> to |reverse of x's n bits>."""
    size = 2 ** n
    out = np.zeros((size, size), dtype=complex)
    for x in range(size):
        rev = int(format(x, f"0{n}b")[::-1], 2)
        out[rev, x] = 1.0
    return out
