"""The paper's lifting question: when do two Kraus sets alternate alike?

An alternation sees a branch S only through its channel and its
interference term sigma = sum E / sqrt(|S|).  Two sets with the same
channel and the same sigma alternate to the same map, with one or two
controls.  Sharing the channel alone is not enough, and neither pair is a
congruence: composing with a projection coalesces equal products into
sqrt(l) * E, which can separate two sets that agreed on both.
"""

import math

import numpy as np
import pytest

from helpers import rand_kraus
from qalt import (Signature, alternate, alternate_case, compose, ext_equal,
                  identity_kraus, make_kraus)
from qalt.core import ID2, PI0, X, Z
from qalt.kraus import choi_distance

Q = Signature((2,))


def sigma(s):
    return sum(s.ops) / math.sqrt(len(s.ops))


def mixed(s, w):
    """The set {sum_j w_ij E_j}: the same channel for every unitary w."""
    return make_kraus(s.input_sig, s.output_sig,
                      [sum(w[i, j] * e for j, e in enumerate(s.ops))
                       for i in range(len(w))])


def rotation(axis, angle):
    """Rotation of R^3 by ``angle`` about ``axis`` (Rodrigues)."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return (math.cos(angle) * np.eye(3) + math.sin(angle) * cross
            + (1 - math.cos(angle)) * np.outer(n, n))


def unitary(rng, d, fix_ones: bool):
    """exp(iH) for a random Hermitian H, with H 1 = 0 when ``fix_ones``."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    if fix_ones:
        p = np.eye(d) - np.ones((d, d)) / d
        h = p @ h @ p
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(1j * w)) @ v.conj().T


class TestCounterexample:
    """S = {I, Z, X}/sqrt(3) and S2, S mixed by a rotation about (1, 1, 1)."""

    S = make_kraus(Q, Q, [ID2 / math.sqrt(3), Z / math.sqrt(3), X / math.sqrt(3)])
    S2 = mixed(S, rotation((1, 1, 1), 0.7))
    SKIP = identity_kraus(Q)

    def test_same_channel_and_sigma_alternate_alike(self):
        assert ext_equal(self.S, self.S2)
        assert np.abs(sigma(self.S) - sigma(self.S2)).max() < 1e-12
        assert ext_equal(alternate(self.S, self.SKIP), alternate(self.S2, self.SKIP))

    def test_a_projection_after_separates_them(self):
        p0 = make_kraus(Q, Q, [PI0])
        a, b = compose(p0, self.S), compose(p0, self.S2)
        # P0 I = P0 Z coalesce into one operator; the mixed products do not
        assert (len(a), len(b)) == (2, 3)
        assert ext_equal(a, b)
        distance = choi_distance(alternate(a, self.SKIP), alternate(b, self.SKIP))
        assert distance == pytest.approx(0.0893, abs=1e-4)


class TestChannelAndSigmaDecide:
    """Random sets mixed by a unitary W: the channel stays; sigma stays
    exactly when W fixes the all-ones vector."""

    @pytest.mark.parametrize("seed", [31, 32, 33, 34, 35])
    def test_one_and_two_controls(self, seed):
        rng = np.random.default_rng(seed)
        sig = Signature((2, 1)) if seed % 2 else Q
        s = rand_kraus(rng, sig, size=int(rng.integers(2, 5)), scale=0.9)
        others = [rand_kraus(rng, sig, size=int(rng.integers(1, 4)), scale=0.9)
                  for _ in range(3)]
        arm = int(rng.integers(4))
        for fix_ones in (True, False):
            t = mixed(s, unitary(rng, len(s.ops), fix_ones))
            assert len(t.ops) == len(s.ops)
            assert ext_equal(s, t)
            same_sigma = np.abs(sigma(s) - sigma(t)).max() < 1e-12
            assert same_sigma == fix_ones
            arms_s = others[:arm] + [s] + others[arm:]
            arms_t = others[:arm] + [t] + others[arm:]
            one = choi_distance(alternate(s, others[0]), alternate(t, others[0]))
            two = choi_distance(alternate_case(arms_s, 2), alternate_case(arms_t, 2))
            if fix_ones:
                assert max(one, two) < 1e-12
            else:
                assert min(one, two) > 1e-3
