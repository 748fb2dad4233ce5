import math

import numpy as np
import pytest

from helpers import basis_elements, rand_kraus, rand_unitary
from qalt import (
    Signature,
    dim,
    alternate,
    alternation_stinespring,
    ext_equal,
    from_stinespring,
    make_kraus,
    to_stinespring,
    verify_stinespring,
    zero_kraus,
)
from qalt.errors import DimensionMismatch, EmptySetError, TraceConditionViolated
from qalt.kraus import apply_full
from qalt.stinespring import StinespringRep
from qalt.core import DEFAULT_TOL, H, ID2, PI0, PI1, X, Z, block_diag, is_psd

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

    def test_spaces_must_match(self):
        rep = to_stinespring(make_kraus(Signature((1, 1)), Signature((1, 1)), [ID2]))
        with pytest.raises(DimensionMismatch, match="act on different spaces"):
            verify_stinespring(kraus_of(ID2), rep)

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

    def test_shape_must_fit_the_spaces(self):
        with pytest.raises(DimensionMismatch, match=r"shape \(3, 3\), expected \(2, 2\)"):
            StinespringRep(1, np.eye(3), Q, Q)

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


def spanning_set_verdict(s, rep, tol) -> bool:
    """V' (rho (x) I_A) V against sum E rho E' on every matrix unit rho."""
    eye_a = np.eye(rep.ancilla_dim, dtype=complex)
    for blocks in basis_elements(s.input_sig):
        rho = block_diag(blocks)
        lhs = rep.v.conj().T @ np.kron(rho, eye_a) @ rep.v
        if np.abs(lhs - apply_full(s, rho)).max() > tol:
            return False
    return True


def partial_trace_valid(v, ancilla_dim: int, d_in: int) -> bool:
    """I minus the ancilla partial trace of VV' is positive at the default tol."""
    gram = (v @ v.conj().T).reshape(d_in, ancilla_dim, d_in, ancilla_dim)
    return is_psd(np.eye(d_in) - np.einsum("iaja->ij", gram), DEFAULT_TOL)


class TestAgainstDirectChecks:
    """Construction and verification agree with the checks written out from
    the definitions: the ancilla partial trace and the spanning set."""

    SIGNATURES = [Signature((2,)), Signature((2, 1)), Signature((4,)), Signature((1, 1))]

    def test_verdicts_agree(self):
        rng = np.random.default_rng(29)
        verdicts = []
        for k in range(300):
            sig = self.SIGNATURES[k % 4]
            scale = 1.0 if k % 2 else float(rng.uniform(0.5, 1.0))
            s = rand_kraus(rng, sig, size=int(rng.integers(1, 5)), scale=scale)
            built = to_stinespring(s)
            for factor in (1.0, 1 - 1e-6, 1 + 1e-6):
                v = built.v * factor
                valid = partial_trace_valid(v, built.ancilla_dim, dim(sig))
                try:
                    rep = StinespringRep(built.ancilla_dim, v, sig, sig)
                except TraceConditionViolated:
                    assert not valid
                    continue
                assert valid
                for tol in (1e-10, 1e-9, 1e-6, 1e-5):
                    verdict = verify_stinespring(s, rep, tol)
                    assert verdict == spanning_set_verdict(s, rep, tol)
                    verdicts.append(verdict)
        assert len(verdicts) >= 2400
        assert 0 < sum(verdicts) < len(verdicts)
