import dataclasses
import math

import numpy as np
import pytest

from helpers import basis_elements, count_calls, psd_brute_force, rand_unitary
from qalt import (
    DensityState,
    Signature,
    adjoint,
    dim,
    dsum,
    embed_gate,
    is_psd,
    qbit_tensor,
    tensor,
    tensor_sig,
)
from qalt.core import H, ID2, KET0, KET1, PI0, X, rk_gate
from qalt.errors import DimensionMismatch
from qalt.kraus import ChoiFamily, make_kraus
from qalt.stinespring import StinespringRep

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


class TestTensorAdjoint:
    def test_tensor_identity(self):
        assert np.array_equal(tensor(ID2, ID2), np.eye(4))

    def test_tensor_block_structure(self):
        got = tensor(PI0, X)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = X
        assert np.array_equal(got, expected)

    def test_tensor_kets(self):
        assert np.array_equal(tensor(KET0, KET1),
                              np.array([[0], [1], [0], [0]], dtype=complex))

    def test_tensor_associative(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_adjoint_involution(self):
        assert np.array_equal(adjoint(ID2), ID2)
        ketbra = KET0 @ adjoint(KET1)  # |0><1|
        assert np.array_equal(adjoint(ketbra), KET1 @ adjoint(KET0))
        assert np.array_equal(adjoint(1j * ID2), -1j * ID2)

    def test_unitary_adjoint_inverse(self):
        for u in (H, X, rk_gate(3)):
            assert np.abs(adjoint(u) @ u - np.eye(2)).max() < 1e-12


def eigvalsh_only(m, tol):
    """The positivity verdict without the Gershgorin shortcut."""
    m = np.asarray(m, dtype=complex)
    if np.abs(m - m.conj().T).max() > tol:
        return False
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) >= -tol


@pytest.fixture
def eig_calls(monkeypatch):
    return count_calls(monkeypatch, "eigvalsh", np.linalg)


class TestIsPsd:
    def test_projection(self):
        assert is_psd(PI0, 1e-9)

    def test_indefinite_2x2(self):
        m = 0.5 * np.array([[0, 1], [1, 1]])
        assert not is_psd(m, 1e-9)
        # closed-form eigenvalues (1 +- sqrt(5))/4
        low = np.linalg.eigvalsh(m).min()
        assert low == pytest.approx((1 - math.sqrt(5)) / 4, abs=1e-12)

    def test_zero_matrix_zero_tol(self, eig_calls):
        assert is_psd(np.zeros((3, 3)), 0.0)
        assert not eig_calls  # the bound decides

    def test_non_hermitian(self):
        assert not is_psd(np.array([[0, 1], [0, 0]]), 1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            is_psd(np.zeros((2, 3)), 1e-9)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            herm = (g + g.conj().T) / 2
            shift = rng.uniform(-2, 2)
            m = herm + shift * np.eye(8)
            assert is_psd(m, 1e-9) == psd_brute_force(m, 1e-9)


class TestIsPsdBound:
    """The Gershgorin bound decides where it holds; eigvalsh decides the rest."""

    TOL = 1e-9
    OFFSETS = [1e-10, -1e-10, 1e-13, -1e-13]

    @staticmethod
    def spectrum(offset):
        return np.array([1.0, 0.5, 0.25, -TestIsPsdBound.TOL + offset])

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_diagonal_near_boundary(self, eig_calls, offset):
        m = np.diag(self.spectrum(offset)).astype(complex)
        reference = eigvalsh_only(m, self.TOL)
        eig_calls.clear()
        assert is_psd(m, self.TOL) == reference == (offset > 0)
        # the bound is exact on a diagonal matrix: a pass needs no eigvalsh,
        # a rejection comes from one
        assert len(eig_calls) == (0 if offset > 0 else 1)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_rotated_near_boundary(self, eig_calls, offset):
        rng = np.random.default_rng(31)
        for _ in range(5):
            u = rand_unitary(rng, 4)
            m = u @ np.diag(self.spectrum(offset)) @ u.conj().T
            reference = eigvalsh_only(m, self.TOL)
            eig_calls.clear()
            assert is_psd(m, self.TOL) == reference == (offset > 0)
            assert len(eig_calls) == 1  # the bound fails, eigvalsh decides

    def test_random_agrees_with_eigvalsh_only(self, eig_calls):
        rng = np.random.default_rng(97)
        decided_by_bound = 0
        for i in range(200):
            d = int(rng.integers(2, 13))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2
            if i % 2 == 0:
                # diagonally dominant up to a margin a little either side of -tol
                np.fill_diagonal(h, 0)
                margin = -self.TOL + rng.choice([-1, 1]) * rng.uniform(1e-12, 1e-10)
                h += np.diag(np.abs(h).sum(axis=1) + margin)
            else:
                # barely indefinite or barely positive: min eigenvalue -tol +- delta
                w, v = np.linalg.eigh(h)
                delta = rng.choice([-1, 1]) * rng.uniform(1e-12, 1e-10)
                h = v @ np.diag(w - w.min() - self.TOL + delta) @ v.conj().T
            reference = eigvalsh_only(h, self.TOL)
            before = len(eig_calls)
            assert is_psd(h, self.TOL) == reference, i
            decided_by_bound += len(eig_calls) == before
        assert 0 < decided_by_bound < 200

    def test_complex_input_is_not_copied(self, monkeypatch):
        copies = count_calls(monkeypatch, "array", np)
        assert is_psd(np.eye(3, dtype=complex))
        assert not copies


class TestEmbedGate:
    def test_leading_qubit(self):
        assert np.array_equal(embed_gate(X, [0], 2), tensor(X, ID2))

    def test_trailing_qubit(self):
        assert np.array_equal(embed_gate(X, [1], 2), tensor(ID2, X))

    def test_reversed_targets_is_swap_conjugation(self):
        # brute force: SWAP . CNOT . SWAP
        swap = np.array([[1, 0, 0, 0],
                         [0, 0, 1, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1]], dtype=complex)
        assert np.array_equal(embed_gate(CNOT, [1, 0], 2), swap @ CNOT @ swap)

    def test_disjoint_targets_commute(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        prod = embed_gate(u, [0], 2) @ embed_gate(v, [1], 2)
        assert np.abs(prod - tensor(u, v)).max() < 1e-12

    def test_unitarity_preserved(self):
        rng = np.random.default_rng(6)
        from helpers import rand_unitary
        u = rand_unitary(rng, 4)
        emb = embed_gate(u, [2, 0], 3)
        assert np.abs(emb @ emb.conj().T - np.eye(8)).max() < 1e-12

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            embed_gate(X, [0, 0], 2)
        with pytest.raises(ValueError):
            embed_gate(X, [2], 2)
        with pytest.raises(DimensionMismatch):
            embed_gate(CNOT, [0], 2)


class TestSignatures:
    def test_bit_signature(self):
        one = Signature((1,))
        assert dsum(one, one) == Signature((1, 1))
        assert dim(Signature((1, 1))) == 2

    def test_qbit_tensor(self):
        assert qbit_tensor(Signature((1,))) == Signature((2,))
        assert qbit_tensor(Signature((2, 1))) == Signature((4, 2))

    def test_tensor_sig_pairwise(self):
        assert tensor_sig(Signature((2,)), Signature((1, 1))) == Signature((2, 2))

    def test_dim_laws(self):
        a, b = Signature((2, 3)), Signature((1, 4))
        assert dim(dsum(a, b)) == dim(a) + dim(b)
        assert dim(tensor_sig(a, b)) == dim(a) * dim(b)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Signature(())
        with pytest.raises(ValueError):
            Signature((0, 2))


class TestBasisElements:
    def test_scalar(self):
        elems = basis_elements(Signature((1,)))
        assert len(elems) == 1
        assert elems[0][0] == np.array([[1.0]])

    def test_qubit(self):
        elems = basis_elements(Signature((2,)))
        assert len(elems) == 4
        total = sum(e[0] for e in elems)
        assert np.array_equal(total, np.ones((2, 2)))

    def test_bit(self):
        elems = basis_elements(Signature((1, 1)))
        assert len(elems) == 2
        assert np.array_equal(elems[0][0], [[1.0]])
        assert np.array_equal(elems[0][1], [[0.0]])
        assert np.array_equal(elems[1][1], [[1.0]])

    def test_count(self):
        sig = Signature((2, 3))
        assert len(basis_elements(sig)) == 4 + 9


class TestDensityState:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityState(Signature((2,)), (np.array([[0, 1], [0, 0]]),))
        with pytest.raises(ValueError):
            DensityState(Signature((2,)), (np.diag([1.0, 0.5]),))  # trace 1.5
        with pytest.raises(ValueError):
            DensityState(Signature((2,)), (0.5 * np.array([[0, 1], [1, 1]]),))

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityState(Signature((2,)), (np.array([[0.5, 0.1], [0, 0.5]]),))
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityState(Signature((2,)), (0.5 * np.array([[0, 1], [1, 1]]),))

    def test_tolerance(self):
        over = (np.diag([1.0 + 1e-6, 0.0]),)
        with pytest.raises(ValueError, match="total trace"):
            DensityState(Signature((2,)), over)
        slack = DensityState(Signature((2,)), over, 1e-3)
        # the tolerance is not a field, so it is neither stored nor compared
        assert [f.name for f in dataclasses.fields(slack)] == ["signature", "blocks"]
        assert repr(slack) == repr(DensityState(Signature((2,)), over, 1e-5))

    def test_equality_is_exact(self):
        half = np.eye(2) / 2
        state = DensityState(Signature((2,)), (half,))
        assert state == DensityState(Signature((2,)), (half.copy(),))
        assert state == DensityState(Signature((2,)), (half,), 1e-3)
        assert state != DensityState(Signature((2,)), (np.diag([0.5, 0.25]),))
        assert state != DensityState(Signature((2,)), (half * (1 + 1e-15),))
        assert state != "not a state"

    def test_equality_order_count_and_signature(self):
        a, b = np.diag([0.25, 0.0]), np.diag([0.0, 0.5])
        two = DensityState(Signature((2, 2)), (a, b))
        assert two == DensityState(Signature((2, 2)), (a, b))
        assert two != DensityState(Signature((2, 2)), (b, a))
        assert two != DensityState(Signature((2, 2, 1)), (a, b, [[0.0]]))
        assert (DensityState(Signature((1, 1)), ([[0.5]], [[0.5]]))
                != DensityState(Signature((2,)), (np.eye(2) / 2,)))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DensityState(Signature((2,)), (PI0,)))

    def test_blocks_frozen(self):
        state = DensityState(Signature((2,)), (PI0,))
        with pytest.raises(ValueError):
            state.blocks[0][0, 0] = 5.0

    def test_full_and_trace(self):
        state = DensityState(Signature((1, 1)), ([[0.25]], [[0.75]]))
        assert np.array_equal(state.full(), np.diag([0.25, 0.75]))
        assert state.trace() == pytest.approx(1.0)


#: A value of each class whose ``==`` is ``exact_eq``, built from one 2x2
#: matrix on the one-qubit signature.
Q = Signature((2,))
EXACT_EQ_VALUES = {
    "KrausSet": lambda m: make_kraus(Q, Q, [m]),
    "ChoiFamily": lambda m: ChoiFamily(Q, Q, (m,)),
    "DensityState": lambda m: DensityState(Q, (m,)),
    "StinespringRep": lambda m: StinespringRep(1, m, Q, Q),
}


@pytest.mark.parametrize("name", sorted(EXACT_EQ_VALUES))
def test_exact_eq(name):
    def value(zero, cls=name):
        return EXACT_EQ_VALUES[cls](np.array([[1.0, zero], [zero, 0.0]], dtype=complex))
    assert value(0.0) == value(0.0)
    assert value(0.0) != value(-0.0)  # a signed zero is another byte pattern
    for other in EXACT_EQ_VALUES:
        if other != name:
            assert value(0.0) != value(0.0, other)
    with pytest.raises(TypeError):
        hash(value(0.0))
