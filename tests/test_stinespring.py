import math

import numpy as np
import pytest

from helpers import rand_kraus, rand_unitary
from qalt import (
    Signature,
    alternate,
    alternation_stinespring,
    ext_equal,
    from_stinespring,
    make_kraus,
    to_stinespring,
    verify_stinespring,
    zero_kraus,
)
from qalt.errors import EmptySetError, TraceConditionViolated
from qalt.stinespring import StinespringRep
from qalt.core import H, ID2, PI0, PI1, X, Z

Q = Signature((2,))


def kraus_of(*ops):
    return make_kraus(Q, Q, ops)


class TestToStinespring:
    def test_unitary_is_its_own_adjoint_dilation(self):
        rng = np.random.default_rng(7)
        u = rand_unitary(rng, 2)
        rep = to_stinespring(kraus_of(u))
        assert rep.ancilla_dim == 1
        assert np.abs(rep.v - u.conj().T).max() < 1e-12

    def test_measurement_dilation(self):
        s = kraus_of(PI0, PI1)
        rep = to_stinespring(s)
        assert rep.ancilla_dim == 2
        # V psi = sum_k E_k psi (x) |k>, ancilla indexed by canonical op order
        units = (np.array([[1], [0]]), np.array([[0], [1]]))
        expected = sum(np.kron(op.conj().T, unit)
                       for op, unit in zip(s.ops, units))
        assert np.abs(rep.v - expected).max() < 1e-12
        # projections are self-adjoint, so both orderings give the same span
        assert {tuple(np.diag(op).real) for op in s.ops} == {(1, 0), (0, 1)}

    def test_xz_mixture(self):
        rep = to_stinespring(kraus_of(X / math.sqrt(2), Z / math.sqrt(2)))
        assert rep.ancilla_dim == 2
        # (X'X + Z'Z)/2 = I: read-off completeness is exactly the identity
        gram = rep.v @ rep.v.conj().T
        traced = np.einsum("iaja->ij", gram.reshape(2, 2, 2, 2))
        assert np.abs(traced - np.eye(2)).max() < 1e-12

    def test_empty_refused(self):
        with pytest.raises(EmptySetError):
            to_stinespring(zero_kraus(Q, Q))

    def test_equality_is_exact(self):
        s = kraus_of(X / math.sqrt(2), Z / math.sqrt(2))
        rep = to_stinespring(s)
        assert rep == to_stinespring(s)
        assert not rep != to_stinespring(s)
        assert rep != to_stinespring(kraus_of(PI0, PI1))
        assert to_stinespring(kraus_of(ID2)) != to_stinespring(kraus_of(ID2 * (1 - 1e-15)))
        same_v = StinespringRep(1, np.eye(2), Q, Q)
        assert same_v != StinespringRep(1, np.eye(2), Signature((1, 1)), Q)
        assert rep != "not a representation"
        with pytest.raises(TypeError):
            hash(rep)


class TestVerifyStinespring:
    def test_roundtrip_verifies(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = rand_kraus(rng, Q, size=int(rng.integers(1, 4)), scale=0.95)
            assert verify_stinespring(s, to_stinespring(s))

    def test_wrong_channel(self):
        rep = StinespringRep(1, X.conj().T, Q, Q)
        assert not verify_stinespring(kraus_of(ID2), rep)

    def test_dephasing_action(self):
        s = kraus_of(PI0, PI1)
        rep = to_stinespring(s)
        assert verify_stinespring(s, rep)
        rho = np.array([[0.5, 0.4], [0.4, 0.5]])
        eye_a = np.eye(rep.ancilla_dim)
        out = rep.v.conj().T @ np.kron(rho, eye_a) @ rep.v
        assert np.abs(out - (PI0 @ rho @ PI0 + PI1 @ rho @ PI1)).max() < 1e-12


class TestFromStinespring:
    def test_singleton_roundtrip(self):
        got = from_stinespring(to_stinespring(kraus_of(H)))
        assert len(got.ops) == 1
        assert np.abs(got.ops[0] - H).max() < 1e-12

    def test_measurement_roundtrip(self):
        s = kraus_of(PI0, PI1)
        assert ext_equal(from_stinespring(to_stinespring(s)), s)

    def test_unitary_embedding(self):
        rng = np.random.default_rng(13)
        u = rand_unitary(rng, 2)
        rep = StinespringRep(1, u.conj().T, Q, Q)
        got = from_stinespring(rep)
        assert len(got.ops) == 1
        assert ext_equal(got, kraus_of(u))

    def test_random_roundtrips(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = rand_kraus(rng, Signature((2, 1)), size=int(rng.integers(1, 4)),
                           scale=0.9)
            assert ext_equal(from_stinespring(to_stinespring(s)), s, 1e-10)

    def test_overcomplete_rejected(self):
        with pytest.raises(TraceConditionViolated):
            StinespringRep(2, np.kron(H, [[1], [0]]) + np.kron(H, [[0], [1]]), Q, Q)


class TestAlternationStinespring:
    def test_both_singletons_is_cnot_adjoint(self):
        rep = alternation_stinespring(kraus_of(ID2), kraus_of(X))
        assert rep.ancilla_dim == 1
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        assert np.abs(rep.v - cnot.conj().T).max() < 1e-12

    def test_measuring_branch(self):
        s, t = kraus_of(ID2), kraus_of(PI0, PI1)
        rep = alternation_stinespring(s, t)
        assert rep.ancilla_dim == 2
        assert verify_stinespring(alternate(s, t), rep)

    def test_random_sizes(self):
        rng = np.random.default_rng(19)
        s = rand_kraus(rng, Q, size=2, scale=0.9)
        t = rand_kraus(rng, Q, size=3)
        rep = alternation_stinespring(s, t)
        assert rep.ancilla_dim == 6
        assert verify_stinespring(alternate(s, t), rep, 1e-10)

    def test_environment_product_law(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            s = rand_kraus(rng, Q, size=int(rng.integers(1, 4)), scale=0.9)
            t = rand_kraus(rng, Q, size=int(rng.integers(1, 4)), scale=0.9)
            rep = alternation_stinespring(s, t)
            assert rep.ancilla_dim == (to_stinespring(t).ancilla_dim
                                       * to_stinespring(s).ancilla_dim)

    def test_empty_branch_refused(self):
        with pytest.raises(EmptySetError):
            alternation_stinespring(kraus_of(ID2), zero_kraus(Q, Q))
