import itertools
import math

import numpy as np
import pytest

from helpers import (basis_elements, canonical_key, count_calls, pairwise_coalesce,
                     rand_density, rand_kraus, rand_unitary, reference_canonical_key,
                     reference_make_kraus, superop_matrix)
from qalt import (
    Context,
    DensityState,
    Signature,
    alternate,
    alternate_case,
    apply,
    apply_full,
    branch_sum,
    compose,
    denote,
    dim,
    dsum,
    ext_equal,
    identity_kraus,
    is_reversible,
    lowner_leq,
    make_kraus,
    qbit_tensor,
    tensor,
    to_choi,
    zero_kraus,
)
from qalt.core import H, ID2, PI0, PI1, X, Y, Z, block_diag, freeze, is_psd
from qalt.errors import (
    BranchCountMismatch,
    DimensionMismatch,
    NonBlockDiagonalResult,
    SignatureMismatch,
    TraceConditionViolated,
)
from qalt import kraus
from qalt.kraus import (COALESCE_TOL, KrausSet, _canonical_keys,
                        _coalesce, case_elements, choi_distance, coalesces)

Q = Signature((2,))
ONE = Signature((1,))


def kraus_of(*ops, sig_in=Q, sig_out=None):
    return make_kraus(sig_in, sig_out if sig_out is not None else sig_in, ops)


class TestMakeKraus:
    def test_coalesce_two_halves(self):
        s = kraus_of(ID2 / math.sqrt(2), ID2 / math.sqrt(2))
        assert len(s.ops) == 1
        assert np.abs(s.ops[0] - np.eye(2)).max() < 1e-12

    def test_zero_removed(self):
        s = kraus_of(np.zeros((2, 2)))
        assert len(s.ops) == 0

    def test_trace_condition_violated(self):
        with pytest.raises(TraceConditionViolated):
            kraus_of(H, H)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_kraus(Q, Q, [np.eye(3)])

    def test_cascading_coalesce(self):
        # {K, K, sqrt(2) K} folds to {2K}: same superoperator, true set
        k = ID2 / 2
        s = kraus_of(k, k, math.sqrt(2) * k)
        assert len(s.ops) == 1
        assert np.abs(s.ops[0] - 2 * k).max() < 1e-12

    def test_four_quarters_fold_into_one(self):
        # one group of four: {X/2} x 4 is {X}
        s = kraus_of(*[X / 2] * 4)
        assert len(s.ops) == 1
        assert np.abs(s.ops[0] - X).max() < 1e-12

    def test_zero_operators_dropped_among_duplicates(self):
        s = kraus_of(X / 2, np.zeros((2, 2)), X / 2, np.full((2, 2), 1e-13))
        assert len(s.ops) == 1
        assert np.abs(s.ops[0] - X / math.sqrt(2)).max() < 1e-12

    def test_coalesce_tolerance_is_inclusive(self):
        # operators exactly COALESCE_TOL apart merge, and an operator whose
        # entries are at most COALESCE_TOL counts as zero
        e = np.array([[COALESCE_TOL, 0.5], [0.0, 0.0]])
        s = kraus_of(e, np.array([[0.0, 0.5], [0.0, 0.0]]),
                     np.full((2, 2), COALESCE_TOL))
        assert len(s.ops) == 1
        assert np.array_equal(s.ops[0], e * math.sqrt(2))

    def test_zero_append_invariance(self):
        rng = np.random.default_rng(17)
        raw = list(rand_kraus(rng, Q, size=2).ops)
        with_zero = make_kraus(Q, Q, raw + [np.zeros((2, 2))])
        assert ext_equal(with_zero, make_kraus(Q, Q, raw))

    def test_canonical_order_deterministic(self):
        a = kraus_of(PI1, PI0)
        b = kraus_of(PI0, PI1)
        assert all(np.array_equal(x, y) for x, y in zip(a.ops, b.ops))


def tuple_key(m):
    """The canonical order as Python tuples: reference for the bytes key."""
    r = np.round(m, 12) + 0.0  # -0.0 -> 0.0
    rounded = np.stack([r.real, r.imag], axis=-1).reshape(-1)
    exact = np.stack([m.real, m.imag], axis=-1).reshape(-1)
    return (tuple(rounded), tuple(exact))


# signed zeros, values equal after rounding to 12 digits but not exactly,
# offsets below the rounding digit, and magnitudes far apart
AWKWARD = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 0.1 + 1e-13,
                    0.1 - 4e-13, 1e-13, -1e-13, 7e-12, 1e-300, -1e-300, 3e5])


def awkward_set(rng):
    """Operators of one random shape, with duplicates and near-duplicates."""
    shape = tuple(rng.integers(1, 4, size=2))
    ops = []
    for _ in range(rng.integers(2, 9)):
        if ops and rng.random() < 0.4:
            m = ops[rng.integers(len(ops))].copy()
            if rng.random() < 0.5:
                m = m + rng.choice([1e-13, -1e-13]) * (rng.random(shape) < 0.5)
        else:
            m = rng.choice(AWKWARD, size=shape) + 1j * rng.choice(AWKWARD, size=shape)
        ops.append(np.asfortranarray(m) if rng.random() < 0.3 else m)
    return ops


class TestCanonicalForm:
    def test_key_order_matches_tuple_order(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            ops = awkward_set(rng)
            if ops[0].shape[0] == ops[0].shape[1] and rng.random() < 0.3:
                ops = [m.conj().T for m in ops]  # not C-contiguous
            by_tuple = sorted(range(len(ops)), key=lambda i: tuple_key(ops[i]))
            by_bytes = sorted(range(len(ops)), key=lambda i: canonical_key(ops[i]))
            assert by_bytes == by_tuple

    def test_key_folds_signed_zeros_only(self):
        zero = np.array([[0.0 + 0.0j, 1.0]])
        negative_zero = np.array([[complex(-0.0, -0.0), 1.0]])
        assert canonical_key(zero) == canonical_key(negative_zero)
        assert canonical_key(zero) < canonical_key(zero + 1e-300)
        assert canonical_key(zero - 1e-300) < canonical_key(zero)

    def test_key_of_non_contiguous_operator(self):
        m = np.arange(6).reshape(2, 3) * (1 - 0.5j)
        view = m.conj().T
        assert not view.flags.c_contiguous
        assert canonical_key(view) == canonical_key(np.ascontiguousarray(view))

    def test_single_operator_still_canonicalised_and_checked(self, monkeypatch):
        calls = []
        monkeypatch.setattr("qalt.kraus.is_psd",
                            lambda *a: calls.append(a) or is_psd(*a))
        assert len(kraus_of(np.full((2, 2), 1e-13))) == 0
        with pytest.raises(TraceConditionViolated):
            kraus_of(2 * ID2)
        (op,) = kraus_of(np.array([[-0.0, 1.0], [1.0, 0.0]])).ops
        assert np.signbit(op[0, 0].real)  # stored as given, -0.0 kept
        assert len(calls) == 3


def assert_coalesce_matches_full_scan(ops):
    """The prefiltered fold against the pairwise reference, byte for byte."""
    got = _coalesce(list(ops))
    want = pairwise_coalesce(list(ops), COALESCE_TOL)
    assert [(m.shape, m.tobytes()) for m in got] == [(m.shape, m.tobytes()) for m in want]
    return got


def tol_apart(a, direction):
    """``a`` moved by COALESCE_TOL along ``direction`` (+-1 or +-1j) in every
    entry, then pulled back ulp by ulp until no entry is more than
    COALESCE_TOL away."""
    part = "imag" if complex(direction).imag else "real"
    b = a + COALESCE_TOL * direction
    while True:
        over = np.abs(b - a) > COALESCE_TOL
        if not over.any():
            return b
        moved = getattr(b, part)
        moved[over] = np.nextafter(moved[over], getattr(a, part)[over])


def mean_twins(rng, d):
    """Distinct operators with equal means: permuted rows and columns, Paulis
    and their tensor products, and alternation elements whose branch
    operators trade places."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a /= 2 * np.abs(a).max()
    twins = [a, a[rng.permutation(d)], a[:, rng.permutation(d)], a.T.copy()]
    paulis = [ID2, X, Y, Z]
    if d == 2:
        twins += [p / 2 for p in paulis]
    elif d == 4:
        twins += [np.kron(p, q) / 2 for p, q in itertools.product(paulis, repeat=2)]
    if d % 2 == 0:
        half = d // 2
        e = rng.normal(size=(half, half)) / half
        f = e[::-1].copy()
        s = KrausSet(Signature((half,)), Signature((half,)), (e, f))
        twins += case_elements([s, s], 1)
    return twins


def random_multiset(rng, size):
    """Operators of one shape drawn with repeats from mean twins, some
    tol apart in every entry, some folded or split as sqrt(l) cascades, and
    some zero."""
    pool = mean_twins(rng, int(rng.choice([2, 4, 8])))
    ops = []
    while len(ops) < size:
        m = pool[rng.integers(len(pool))]
        r = rng.random()
        if r < 0.15:
            m = tol_apart(m, rng.choice([1, 1j]) * rng.choice([1, -1]))
        elif r < 0.3:
            ops += [m / math.sqrt(2)] * 2  # a split that refolds into m
            continue
        elif r < 0.4:
            m = m * math.sqrt(2)  # {K, K, sqrt(2) K} when two copies of m are drawn
        elif r < 0.45:
            m = np.zeros_like(m)
        elif r < 0.6:
            m = m + rng.choice([-1, 1], size=m.shape) * 1e-13
        ops.append(m)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


class TestMeanPrefilter:
    """`_coalesce` skips a group whose representative's mean entry is more
    than 2 * COALESCE_TOL from the operator's; it must return what the full
    pairwise scan returns, operator for operator and byte for byte."""

    def test_random_multisets_match_full_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            assert_coalesce_matches_full_scan(random_multiset(rng, int(rng.integers(2, 40))))

    def test_sets_of_128_match_full_scan(self):
        rng = np.random.default_rng(128)
        for _ in range(6):
            assert_coalesce_matches_full_scan(random_multiset(rng, 128))
        big = rand_kraus(rng, Signature((2, 2)), size=16)
        small = rand_kraus(rng, Signature((2, 2)), size=8)
        elements = case_elements([big, small], 1)
        assert len(elements) == 128
        assert len(assert_coalesce_matches_full_scan(elements + elements[::3])) == 128

    def test_equal_means_different_entries_stay_apart(self):
        rng = np.random.default_rng(5)
        for d in (2, 4, 8):
            twins = mean_twins(rng, d)
            got = assert_coalesce_matches_full_scan(twins + twins)
            assert len(got) == len({m.tobytes() for m in twins})

    def test_operators_tol_apart_in_every_entry_merge(self):
        # |mean(A) - mean(B)| is COALESCE_TOL up to rounding here, so a
        # margin of one COALESCE_TOL would skip some of these pairs
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.choice([2, 4, 8]))
            a = rng.uniform(-1, 1, size=(d, d)) + 1j * rng.uniform(-1, 1, size=(d, d))
            a /= np.abs(a).max()
            direction = rng.choice([1, 1j]) * rng.choice([1, -1])
            b = tol_apart(a, direction)
            assert np.abs(b - a).max() <= COALESCE_TOL
            assert np.abs(b - a).min() > 0.999 * COALESCE_TOL
            (merged,) = assert_coalesce_matches_full_scan([a, b])
            assert np.array_equal(merged, a * math.sqrt(2))

    def test_cascades_match_full_scan(self):
        rng = np.random.default_rng(3)
        k = rng.normal(size=(4, 4)) / 8 + 0j
        for ops in ([k, k, math.sqrt(2) * k], [math.sqrt(2) * k, k, k],
                    [k] * 4 + [2 * k], [k / 2] * 16, [k, -k, k, -k]):
            assert_coalesce_matches_full_scan(ops)
        (folded,) = assert_coalesce_matches_full_scan([k, k, math.sqrt(2) * k])
        assert np.abs(folded - 2 * k).max() < 1e-15


class TestCoalesces:
    """`coalesces(ops)` is False exactly when canonicalising ``ops`` would
    drop and merge nothing: when the pairwise scan returns every operator,
    for sets that the mean-entry prefilter alone cannot tell apart too."""

    @staticmethod
    def agrees(ops) -> bool:
        want = len(pairwise_coalesce(list(ops), COALESCE_TOL)) < len(ops)
        assert coalesces(list(ops)) == want
        return want

    def test_random_multisets(self):
        rng = np.random.default_rng(20)
        outcomes = []
        for _ in range(300):
            ops = random_multiset(rng, int(rng.integers(1, 12)))
            outcomes.append(self.agrees(ops))
            outcomes.append(self.agrees(list({m.tobytes(): m for m in ops}.values())))
        assert 150 < sum(outcomes) < 450, sum(outcomes)

    def test_equal_means_pairs_just_within_and_just_apart(self):
        rng = np.random.default_rng(21)
        for d in (2, 4, 8):
            for scale in (1, 300):
                twins = [m * scale for m in {m.tobytes(): m for m in mean_twins(rng, d)}.values()]
                assert not self.agrees(twins)
                assert self.agrees(twins + [tol_apart(twins[-1], 1j)])
                assert not self.agrees(twins + [twins[-1] + 2 * COALESCE_TOL])

    def test_keys_n_tol_apart_are_still_compared(self):
        # b - a is 0.999 COALESCE_TOL e^(-ij) in entry j: every entry just
        # within COALESCE_TOL, in directions that spread over the unit circle
        rng = np.random.default_rng(22)
        for d in (2, 4, 8):
            a = rng.uniform(-0.5, 0.5, (d, d)) + 1j * rng.uniform(-0.5, 0.5, (d, d))
            step = 0.999 * COALESCE_TOL * np.exp(1j * np.arange(d * d)).conj().reshape(d, d)
            assert self.agrees([a, a + step]) and self.agrees([a + step, -a, a])
            assert not self.agrees([a, a + 2 * step])

    def test_alternation_elements(self):
        # 128 elements with many equal entry sums, then a third repeated
        rng = np.random.default_rng(128)
        branches = [rand_kraus(rng, Signature((2, 2)), size=n) for n in (16, 8)]
        elements = case_elements(branches, 1)
        assert not self.agrees(elements)
        assert self.agrees(elements + elements[::3])

    def test_drop_threshold_is_inclusive(self):
        k = np.zeros((2, 2), dtype=complex)
        k[0, 1] = COALESCE_TOL
        assert self.agrees([k]) and self.agrees([np.eye(2), k])
        k[0, 1] = np.nextafter(COALESCE_TOL, 1)
        assert not self.agrees([k]) and not self.agrees([np.eye(2), k])
        assert not coalesces([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_entry_answers_true(self, bad):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        assert coalesces([m]) and coalesces([np.eye(2) / 2, m])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_random_multisets_with_a_non_finite_member(self, bad):
        # the fold drops the non-finite operator as it drops a zero one and
        # folds the others as the pairwise scan does without it
        rng = np.random.default_rng(23)
        for _ in range(100):
            ops = random_multiset(rng, int(rng.integers(1, 12)))
            m = ops[int(rng.integers(len(ops)))].copy()
            part = m.real if rng.random() < 0.5 else m.imag
            part.flat[rng.integers(m.size)] = bad
            mixed = list(ops)
            mixed.insert(int(rng.integers(len(ops) + 1)), m)
            assert coalesces(mixed) and coalesces(np.array(mixed))
            got = _coalesce(np.array(mixed))
            want = pairwise_coalesce(list(ops), COALESCE_TOL)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


class TestNonFiniteFold:
    """The fold drops a NaN or inf operator, and ``make_kraus`` rejects
    non-finite input before it folds, so its results and errors stay."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_make_kraus_rejects_before_the_fold(self, bad):
        # ``broken`` is 0 but for its fault: folded first, it would drop
        broken = np.zeros((2, 2), dtype=complex)
        broken[1, 0] = bad
        for raw in ([broken], [ID2 / 2, broken], [broken, ID2 / 2],
                    np.stack([ID2 / 2, X / 2, broken])):
            with pytest.raises(ValueError) as err:
                make_kraus(Q, Q, raw)
            assert type(err.value) is ValueError
            assert str(err.value) == "matrix entries must be finite"

    def test_finite_stacks_fold_as_the_pairwise_scan(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            ops = random_multiset(rng, int(rng.integers(1, 16)))
            assert_coalesce_matches_full_scan(np.array(ops))


def make_outcome(fn, sig_in, sig_out, raw, tol=1e-9):
    """The set ``fn`` builds, as signatures and operator bytes, or the type
    and message of what it raises."""
    try:
        s = fn(sig_in, sig_out, raw, tol)
    except Exception as e:  # compared, type and message, with the reference's
        return type(e), str(e)
    assert all(not m.flags.writeable and m.flags.c_contiguous for m in s.ops)
    return s.input_sig, s.output_sig, [(m.dtype, m.shape, m.tobytes()) for m in s.ops]


def within_trace(ops):
    """``ops`` scaled so that sum E'E <= I: canonicalising them then returns
    a set, not TraceConditionViolated."""
    if not ops:
        return ops
    norm = np.linalg.norm(sum(m.conj().T @ m for m in ops), 2)
    return [m / math.sqrt(1.01 * norm) for m in ops] if norm > 1 else ops


class TestStackedMakeKraus:
    """`make_kraus` canonicalises one stack; it builds what the per-operator
    reference in `helpers` builds, byte for byte and -0.0 for -0.0, and
    raises what it raises, type and message."""

    @staticmethod
    def agree(sig_in, sig_out, raw, tol=1e-9):
        got = make_outcome(make_kraus, sig_in, sig_out, raw, tol)
        assert got == make_outcome(reference_make_kraus, sig_in, sig_out, raw, tol)
        return got

    def test_random_multisets_of_0_to_300_operators(self):
        rng = np.random.default_rng(24)
        sizes = [0, 1] + [int(rng.integers(2, 301)) for _ in range(40)]
        built = 0
        for size in sizes:
            ops = random_multiset(rng, size) if size else []
            d = ops[0].shape[0] if ops else 2
            sig = Signature((d,))
            for raw in (within_trace(ops), ops):
                got = self.agree(sig, sig, raw)
                built += not isinstance(got[0], type)
            if ops:  # the same operators as one array, and in Fortran order
                self.agree(sig, sig, np.asarray(within_trace(ops)))
                self.agree(sig, sig, [np.asfortranarray(m) for m in ops[:40]])
        assert built > len(sizes)

    def test_awkward_sets_keep_order_and_signed_zeros(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            ops = within_trace(awkward_set(rng))
            m, n = ops[0].shape
            got = self.agree(Signature((n,)), Signature((m,)), ops)
            assert not isinstance(got[0], type)
        e = np.array([[complex(-0.0, 0.0), -0.0], [0.5, complex(0.0, -0.0)]])
        (_, _, ops) = self.agree(Q, Q, [e])
        assert np.signbit(np.frombuffer(ops[0][2], dtype=np.float64)[[0, 2, 7]]).all()

    def test_below_tolerance_and_cascades(self):
        k = np.diag([0.5, 0.25]).astype(complex)
        tiny = np.full((2, 2), COALESCE_TOL)
        for raw in ([tiny], [tiny, k], [k, k, math.sqrt(2) * k],
                    [k / 2] * 4 + [k], [k + 1e-13, k, k - 1e-13, tiny / 2]):
            self.agree(Q, Q, raw)

    def test_one_dimensional_operators(self):
        sig_in, sig_out = Signature((1,)), Signature((3,))
        v = np.array([0.6, 0.0, -0.8j])
        for raw in ([v], [v / 2, v / 2], [v, v.reshape(3, 1)], [list(v)],
                    np.stack([v, 0.5 * v]), [v[:2]], [v, v[:2]]):
            self.agree(sig_in, sig_out, raw)
        assert isinstance(self.agree(sig_in, sig_out, [v[:2]])[0], type)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_faults_raise_as_before_in_operator_order(self, bad):
        good = ID2 / 2
        broken = good.copy()
        broken[0, 1] = bad
        wide = np.zeros((2, 3))
        for raw in ([broken], [good, broken], [good, wide], [broken, wide],
                    [wide, broken], [good, np.zeros((2, 2, 2))], [good, 1.0],
                    [good, "x"], [good, [[1, 2], [3]]], [good] * 3 + [broken]):
            got = self.agree(Q, Q, raw)
            assert got[0] in (ValueError, DimensionMismatch), raw
        assert self.agree(Q, Q, [broken, wide])[0] is ValueError
        assert self.agree(Q, Q, [wide, broken])[0] is DimensionMismatch

    def test_a_generator_is_read_once(self):
        ops = [ID2 / 2, X / 2]
        assert make_kraus(Q, Q, (m for m in ops)) == make_kraus(Q, Q, ops)
        with pytest.raises(DimensionMismatch):
            make_kraus(Q, Q, (m for m in [ID2 / 2, np.zeros((2, 3))]))

    def test_stacked_keys_are_each_operators_key(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            ops = awkward_set(rng)
            stack = np.array(ops)
            keys = _canonical_keys(stack)
            want = [reference_canonical_key(m) for m in ops]
            assert [keys[i:i + 1].tobytes() for i in range(len(ops))] == want
            assert [canonical_key(m) for m in ops] == want
            # a stable sort of the keys as bytes is the order of the keys
            assert list(np.argsort(keys, kind="stable")) == \
                sorted(range(len(ops)), key=want.__getitem__)


#: Programs whose denotations coalesce sets of 16 to 256 raw operators:
#: measurements and discarded ancillas nested inside `if` and `case`.
MANY_OPERATORS_CTX = Context.of(("q", "qbit"), ("r", "qbit"), ("s", "qbit"))
MANY_OPERATORS_IF = (
    "if q then { measure r then { s *= H } else { s *= X } "
    "measure s then { r *= S } else { skip } } "
    "else { measure s then { r *= H } else { skip } "
    "measure r then { s *= S } else { s *= H } }")
MANY_OPERATORS_CASE = (
    "case (q, r) of |00> -> { measure s then { s *= H } else { skip } } "
    "|01> -> { new qbit t t *= H if t then { skip } else { s *= S } discard t } "
    "|10> -> { measure s then { s *= X } else { s *= T } "
    "measure s then { skip } else { s *= H } } "
    "|_> -> { s *= H new qbit t t *= H if t then { skip } else { s *= X } discard t }")
MANY_OPERATORS = [MANY_OPERATORS_IF, MANY_OPERATORS_CASE,
                  f"{MANY_OPERATORS_IF} {MANY_OPERATORS_CASE}",
                  f"{MANY_OPERATORS_CASE} {MANY_OPERATORS_IF}"]


def canonical_order(ops):
    return sorted(range(len(ops)), key=lambda i: canonical_key(ops[i]))


class TestNearBoundaryDeterminism:
    """Coalescing and the canonical order under perturbations of 1e-13,
    ten times below COALESCE_TOL."""

    @staticmethod
    def denoted_raw_sets(monkeypatch):
        """The raw operator multisets of 16 or more operators that the
        denotations of MANY_OPERATORS coalesce."""
        recorded = []
        fold = kraus._coalesce

        def record(ops):
            recorded.append([m.copy() for m in ops])
            return fold(ops)
        monkeypatch.setattr(kraus, "_coalesce", record)
        for program in MANY_OPERATORS:
            denote(program, MANY_OPERATORS_CTX)
        monkeypatch.undo()
        return [ops for ops in recorded if len(ops) >= 16]

    def test_perturbed_sets_keep_groups_and_order(self, monkeypatch):
        raw_sets = self.denoted_raw_sets(monkeypatch)
        assert max(len(ops) for ops in raw_sets) == 256
        rng = np.random.default_rng(13)
        stable = crossed = 0
        for _ in range(5):
            for raw in raw_sets:
                base = _coalesce(list(raw))
                moved = [m + 1e-13 * rng.choice([-1.0, 1.0], size=m.shape) for m in raw]
                got = assert_coalesce_matches_full_scan(moved)
                # the same groups, found in the same first-match order
                assert len(got) == len(base)
                assert all(np.abs(a - b).max() < 1e-12 for a, b in zip(got, base))
                if any((np.round(a, 12) != np.round(b, 12)).any()
                       for a, b in zip(got, base)):
                    # an entry crossed a 12-digit rounding boundary; the
                    # order may change (see the pinned case below)
                    crossed += 1
                    continue
                assert canonical_order(got) == canonical_order(base)
                stable += 1
        assert stable > crossed > 0

    def test_order_flips_at_a_rounding_boundary(self):
        # Pinned: the canonical order rounds entries to 12 digits first, so
        # it cannot be stable where an entry lies within a perturbation of a
        # rounding boundary.  sqrt(2) / 8 = 0.17677669529663687 is 1.4e-13
        # above 0.1767766952965; four copies of E / 2, each moved down by
        # 1e-13 in that entry, fold into one operator moved by 2e-13, which
        # rounds down and now sorts before an operator it used to follow.
        e = math.sqrt(2) / 8
        first = np.array([[e, 0.1], [0.0, 0.0]], dtype=complex)
        second = np.array([[e, 0.2], [0.0, 0.0]], dtype=complex)
        assert canonical_order([first, second]) == [0, 1]
        nudge = np.array([[1e-13, 0.0], [0.0, 0.0]])
        raw = [first] + [second / 2 - nudge] * 4
        got = assert_coalesce_matches_full_scan(raw)
        assert len(got) == 2
        assert np.abs(got[1] - second).max() < 1e-12
        assert canonical_order(got) == [1, 0]


class TestEquality:
    """`==` on Kraus sets is the same denotation: equal signatures and
    byte-equal operator tuples, order included."""

    def test_equal(self):
        ops = [X / math.sqrt(2), Z / math.sqrt(2)]
        assert make_kraus(Q, Q, ops) == make_kraus(Q, Q, ops[::-1])
        assert zero_kraus(Q, Q) == zero_kraus(Q, Q)
        assert not make_kraus(Q, Q, ops) != make_kraus(Q, Q, ops)

    def test_different_order(self):
        a, b = freeze(X / math.sqrt(2)), freeze(Z / math.sqrt(2))
        assert KrausSet(Q, Q, (a, b)) != KrausSet(Q, Q, (b, a))
        assert ext_equal(KrausSet(Q, Q, (a, b)), KrausSet(Q, Q, (b, a)))

    def test_different_count(self):
        assert kraus_of(ID2) != kraus_of(ID2 / math.sqrt(2), X / math.sqrt(2))
        assert kraus_of(ID2) != zero_kraus(Q, Q)
        # the same channel from a different decomposition is a different set
        assert kraus_of(PI0, PI1) != kraus_of(ID2 / math.sqrt(2), Z / math.sqrt(2))

    def test_different_signature(self):
        two = Signature((1, 1))
        assert make_kraus(two, two, [ID2]) != kraus_of(ID2)
        assert zero_kraus(Q, ONE) != zero_kraus(ONE, Q)

    def test_exact_bytes(self):
        assert kraus_of(ID2) != kraus_of(ID2 * (1 + 1e-15))
        zero = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert kraus_of(zero) != kraus_of(np.array([[-0.0, 1.0], [1.0, 0.0]]))
        assert kraus_of(ID2) != "not a set"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(kraus_of(ID2))


class TestCompose:
    def test_x_squared(self):
        s = compose(kraus_of(X), kraus_of(X))
        assert len(s.ops) == 1
        assert np.abs(s.ops[0] - np.eye(2)).max() < 1e-12

    def test_projections_idempotent(self):
        meas = kraus_of(PI0, PI1)
        twice = compose(meas, meas)
        assert ext_equal(twice, meas)
        assert len(twice.ops) == 2  # cross terms vanished

    def test_hadamard_after_measure(self):
        s = compose(kraus_of(H), kraus_of(PI0, PI1))
        expected = {  # H Pi0 and H Pi1, written out
            (0, 0): np.array([[1, 0], [1, 0]]) / math.sqrt(2),
            (0, 1): np.array([[0, 1], [0, -1]]) / math.sqrt(2),
        }
        assert len(s.ops) == 2
        got = sorted((np.asarray(o) for o in s.ops), key=lambda m: abs(m[0, 0]))
        assert np.abs(got[1] - expected[(0, 0)]).max() < 1e-12
        assert np.abs(got[0] - expected[(0, 1)]).max() < 1e-12

    def test_identity_law_exact(self):
        rng = np.random.default_rng(3)
        s = rand_kraus(rng, Q, size=3)
        for composed in (compose(s, identity_kraus(Q)),
                         compose(identity_kraus(Q), s)):
            assert len(composed.ops) == len(s.ops)
            assert all(np.abs(a - b).max() < 1e-12
                       for a, b in zip(composed.ops, s.ops))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        s = rand_kraus(rng, Q, size=2, scale=0.9)
        t = rand_kraus(rng, Q, size=2, scale=0.9)
        u = rand_kraus(rng, Q, size=2, scale=0.9)
        left = compose(compose(s, t), u)
        right = compose(s, compose(t, u))
        assert ext_equal(left, right, 1e-10)
        assert len(left.ops) == len(right.ops)
        assert all(np.abs(a - b).max() < 1e-10
                   for a, b in zip(left.ops, right.ops))

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatch):
            compose(kraus_of(X), make_kraus(ONE, ONE, [np.eye(1)]))


class TestAlternate:
    def test_cnot(self):
        got = alternate(kraus_of(ID2), kraus_of(X))
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        assert len(got.ops) == 1
        assert np.abs(got.ops[0] - cnot).max() < 1e-12

    def test_controlled_global_phase_is_z(self):
        phase = np.exp(1j * math.pi) * np.eye(2)
        got = alternate(kraus_of(ID2), kraus_of(phase))
        z_tensor_i = tensor(np.diag([1, -1]).astype(complex), ID2)
        assert np.abs(got.ops[0] - z_tensor_i).max() < 1e-12

    def test_one_branch_measuring(self):
        got = alternate(kraus_of(ID2), kraus_of(PI0, PI1))
        r2 = math.sqrt(2)
        expected = {(round(1 / r2, 12), round(1 / r2, 12), 1.0, 0.0),
                    (round(1 / r2, 12), round(1 / r2, 12), 0.0, 1.0)}
        got_diags = set()
        for op in got.ops:
            assert np.abs(op - np.diag(np.diag(op))).max() < 1e-12
            got_diags.add(tuple(round(float(x), 12) for x in np.diag(op).real))
        assert len(got.ops) == 2
        assert got_diags == expected

    def test_empty_branch_conventions(self):
        s = kraus_of(ID2)
        left = alternate(s, zero_kraus(Q, Q))
        assert len(left.ops) == 1
        assert np.abs(left.ops[0] - tensor(PI0, ID2)).max() < 1e-12
        right = alternate(zero_kraus(Q, Q), s)
        assert np.abs(right.ops[0] - tensor(PI1, ID2)).max() < 1e-12
        both = alternate(zero_kraus(Q, Q), zero_kraus(Q, Q))
        assert len(both.ops) == 0

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            alternate(kraus_of(ID2), make_kraus(ONE, ONE, [np.eye(1)]))

    def test_cardinality(self):
        rng = np.random.default_rng(29)
        s = rand_kraus(rng, Q, size=2)
        t = rand_kraus(rng, Q, size=3)
        assert len(alternate(s, t).ops) == 6

    def test_eq3_closure_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            s = rand_kraus(rng, Q, size=int(rng.integers(1, 4)), scale=0.9)
            t = rand_kraus(rng, Q, size=int(rng.integers(1, 4)), scale=0.9)
            alt = alternate(s, t)
            total = alt.completeness_sum()
            assert np.linalg.eigvalsh(total).max() <= 1 + 1e-9

    def test_trace_preservation_closure(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            s = rand_kraus(rng, Q, size=int(rng.integers(1, 4)))
            t = rand_kraus(rng, Q, size=int(rng.integers(1, 4)))
            alt = alternate(s, t)
            assert np.abs(alt.completeness_sum() - np.eye(4)).max() < 1e-9

    def test_classical_state_reduction(self):
        # control in a classical state: alternation acts locally
        rng = np.random.default_rng(41)
        sig = Signature((2, 1))
        for i in (0, 1):
            s = rand_kraus(rng, sig, size=2, scale=0.95)
            t = rand_kraus(rng, sig, size=3)
            rho = rand_density(rng, sig)
            branch = (s, t)[i]
            proj = (PI0, PI1)[i]
            lifted = DensityState(qbit_tensor(sig),
                                  tuple(tensor(proj, b) for b in rho.blocks))
            got = apply(alternate(s, t), lifted)
            local = apply(branch, rho)
            expected = tuple(tensor(proj, b) for b in local.blocks)
            for g, e in zip(got.blocks, expected):
                assert np.abs(g - e).max() < 1e-9

    def test_reversibility_condition(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            u0 = kraus_of(rand_unitary(rng, 2))
            u1 = kraus_of(rand_unitary(rng, 2))
            alt = alternate(u0, u1)
            assert len(alt.ops) == 1
            assert is_reversible(alt, 1e-10)

    def test_operational_reading(self):
        rng = np.random.default_rng(47)
        s = rand_kraus(rng, Q, size=2, scale=0.9)
        t = rand_kraus(rng, Q, size=2)
        rho = rand_density(rng, qbit_tensor(Q))
        alt = alternate(s, t)
        total_prob = sum(np.trace(k @ rho.full() @ k.conj().T).real
                         for k in alt.ops)
        assert total_prob == pytest.approx(apply(alt, rho).trace(), abs=1e-10)


class TestAlternateCase:
    def test_binary_degeneration(self):
        binary = alternate(kraus_of(ID2), kraus_of(X))
        case = alternate_case([kraus_of(ID2), kraus_of(X)], 1)
        assert ext_equal(binary, case)
        assert all(np.array_equal(a, b) for a, b in zip(binary.ops, case.ops))

    def test_binary_degeneration_multi_op(self):
        rng = np.random.default_rng(127)
        s = rand_kraus(rng, Q, size=2, scale=0.9)
        t = rand_kraus(rng, Q, size=3)
        binary = alternate(s, t)
        case = alternate_case([s, t], 1)
        assert len(binary.ops) == len(case.ops) == 6
        assert all(np.abs(a - b).max() < 1e-12
                   for a, b in zip(binary.ops, case.ops))

    def test_four_singleton_unitaries(self):
        rng = np.random.default_rng(53)
        us = [kraus_of(rand_unitary(rng, 2)) for _ in range(4)]
        got = alternate_case(us, 2)
        assert len(got.ops) == 1
        op = got.ops[0]
        assert op.shape == (8, 8)
        assert np.abs(op @ op.conj().T - np.eye(8)).max() < 1e-10
        expected = sum(
            tensor(np.diag([1.0 if j == k else 0.0 for j in range(4)]), us[k].ops[0])
            for k in range(4))
        assert np.abs(op - expected).max() < 1e-12

    def test_and_oracle_is_toffoli(self):
        branches = [kraus_of(ID2), kraus_of(ID2), kraus_of(ID2), kraus_of(X)]
        got = alternate_case(branches, 2)
        toffoli = np.eye(8, dtype=complex)
        toffoli[[6, 7]] = toffoli[[7, 6]]
        assert np.abs(got.ops[0] - toffoli).max() < 1e-12

    def test_branch_count(self):
        with pytest.raises(BranchCountMismatch):
            alternate_case([kraus_of(ID2)] * 3, 1)

    def test_empty_branch_drops(self):
        got = alternate_case([kraus_of(ID2), zero_kraus(Q, Q)], 1)
        ref = alternate(kraus_of(ID2), zero_kraus(Q, Q))
        assert ext_equal(got, ref)


class TestCaseElements:
    """The element builder against the Kronecker-and-gather construction."""

    @staticmethod
    def kron_and_gather(branches, n):
        """Control-major Kronecker elements, gathered into the block layout."""
        def kron_order(sig):
            # order[b] = Kronecker-layout index of block-layout basis vector b
            d, count = dim(sig), 2 ** n
            order = np.zeros(count * d, dtype=np.intp)
            off = 0
            for size in sig.blocks:
                for x in range(count):
                    for j in range(size):
                        order[count * off + x * size + j] = x * d + off + j
                off += size
            return order

        sig_in, sig_out = branches[0].input_sig, branches[0].output_sig
        din, dout = dim(sig_in), dim(sig_out)
        populated = [(k, b.ops) for k, b in enumerate(branches) if b.ops]
        if not populated:
            return []
        sizes = [len(ops) for _, ops in populated]
        scales = [math.sqrt(math.prod(sizes[:i] + sizes[i + 1:]))
                  for i in range(len(sizes))]
        at = np.ix_(kron_order(sig_out), kron_order(sig_in))
        elements = []
        for combo in itertools.product(*[ops for _, ops in populated]):
            kron = np.zeros((2 ** n * dout, 2 ** n * din), dtype=complex)
            for (k, _), e, scale in zip(populated, combo, scales):
                kron[k * dout:(k + 1) * dout, k * din:(k + 1) * din] = e / scale
            elements.append(kron[at])
        return elements

    @staticmethod
    def raw_set(rng, sig_in, sig_out, size):
        """Operators with some signed zeros, unvalidated."""
        ops = []
        for _ in range(size):
            e = (rng.normal(size=(dim(sig_out), dim(sig_in)))
                 + 1j * rng.normal(size=(dim(sig_out), dim(sig_in))))
            e[rng.random(e.shape) < 0.3] = complex(-0.0, 0.0)
            e[rng.random(e.shape) < 0.2] = complex(0.0, -0.0)
            ops.append(e)
        return KrausSet(sig_in, sig_out, tuple(ops))

    def test_single_block_is_kronecker(self):
        rng = np.random.default_rng(59)
        s, t = rand_kraus(rng, Q, size=1), rand_kraus(rng, Q, size=1)
        (element,) = case_elements([s, t], 1)
        expected = tensor(PI0, s.ops[0]) + tensor(PI1, t.ops[0])
        assert np.array_equal(element, expected)

    def test_two_blocks(self):
        # qbit (x) (1, 1): block layout (b0 q=0, b0 q=1, b1 q=0, b1 q=1)
        s = KrausSet(Signature((1, 1)), Signature((1, 1)), (np.diag([1, 2]),))
        t = KrausSet(Signature((1, 1)), Signature((1, 1)), (np.diag([3, 4]),))
        (element,) = case_elements([s, t], 1)
        assert np.array_equal(element, np.diag([1, 3, 2, 4]))

    def test_matches_kron_and_gather_bytes(self):
        rng = np.random.default_rng(61)
        shapes = [(1,), (2,), (3,), (2, 1), (1, 3), (2, 2, 1), (1, 4, 2)]
        for _ in range(400):
            n = int(rng.integers(1, 4))
            sig_in = Signature(shapes[int(rng.integers(len(shapes)))])
            sig_out = Signature(shapes[int(rng.integers(len(shapes)))])
            top = 3 if n < 3 else 2
            branches = [self.raw_set(rng, sig_in, sig_out, int(rng.integers(top)))
                        for _ in range(2 ** n)]
            got = case_elements(branches, n)
            want = self.kron_and_gather(branches, n)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestBranchSum:
    def test_identity(self):
        s = branch_sum(kraus_of(ID2), kraus_of(ID2))
        assert ext_equal(s, identity_kraus(dsum(Q, Q)))

    def test_zero_branch(self):
        s = branch_sum(kraus_of(X), zero_kraus(Q, Q))
        rho = DensityState(dsum(Q, Q), (PI0 * 0.5, PI0 * 0.5))
        out = apply(s, rho)
        assert np.abs(out.blocks[0] - 0.5 * (X @ PI0 @ X)).max() < 1e-12
        assert np.abs(out.blocks[1]).max() < 1e-12

    def test_hadamard_and_x(self):
        s = branch_sum(kraus_of(H), kraus_of(X))
        rho = DensityState(dsum(Q, Q), (PI0 * 0.5, PI0 * 0.5))
        out = apply(s, rho)
        plus = np.full((2, 2), 0.5)
        assert np.abs(out.blocks[0] - 0.5 * plus).max() < 1e-12
        assert np.abs(out.blocks[1] - 0.5 * PI1).max() < 1e-12

    def test_operators_placed_in_diagonal_blocks(self):
        rng = np.random.default_rng(107)
        sig_in, sig_out = Signature((2, 1)), Signature((1, 2))
        s = rand_kraus(rng, sig_in, sig_out, size=2)
        t = rand_kraus(rng, sig_in, sig_out, size=3)
        got = branch_sum(s, t)
        assert got.input_sig == dsum(sig_in, sig_in)
        assert got.output_sig == dsum(sig_out, sig_out)
        want = [block_diag([e, np.zeros((3, 3))]) for e in s.ops]
        want += [block_diag([np.zeros((3, 3)), f]) for f in t.ops]
        assert [x.tobytes() for x in got.ops] == \
            [x.tobytes() for x in make_kraus(got.input_sig, got.output_sig, want).ops]

    def test_random_closure(self):
        # compose and branch_sum of valid sets revalidate under make_kraus
        rng = np.random.default_rng(109)
        for _ in range(20):
            s = rand_kraus(rng, Q, size=int(rng.integers(1, 4)),
                           scale=float(rng.uniform(0.4, 1.0)))
            t = rand_kraus(rng, Q, size=int(rng.integers(1, 4)),
                           scale=float(rng.uniform(0.4, 1.0)))
            for derived in (compose(s, t), branch_sum(s, t)):
                make_kraus(derived.input_sig, derived.output_sig, derived.ops)


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(59)
        rho = rand_density(rng, Signature((2, 2)))
        out = apply(identity_kraus(Signature((2, 2))), rho)
        for a, b in zip(out.blocks, rho.blocks):
            assert np.abs(a - b).max() < 1e-12

    def test_bell_state(self):
        # state-vector oracle: CNOT |+0> = (|00> + |11>)/sqrt(2)
        plus = np.array([1, 1]) / math.sqrt(2)
        psi = np.kron(plus, [1, 0])
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        expected = np.outer(cnot @ psi, (cnot @ psi).conj())
        rho = DensityState(Signature((4,)), (np.outer(psi, psi.conj()),))
        got = apply(alternate(kraus_of(ID2), kraus_of(X)), rho)
        assert np.abs(got.blocks[0] - expected).max() < 1e-12
        corners = {(0, 0), (0, 3), (3, 0), (3, 3)}
        for i, j in corners:
            assert got.blocks[0][i, j] == pytest.approx(0.5, abs=1e-12)

    def test_zero_map(self):
        rng = np.random.default_rng(61)
        rho = rand_density(rng, Q)
        out = apply(zero_kraus(Q, Q), rho)
        assert np.abs(out.blocks[0]).max() == 0.0

    def test_signature_mismatch(self):
        rho = DensityState(Q, (PI0,))
        with pytest.raises(SignatureMismatch):
            apply(identity_kraus(Signature((2, 2))), rho)

    def test_non_block_diagonal_detected(self):
        sig = Signature((1, 1))
        leak = make_kraus(sig, sig, [np.array([[1, 0], [1, 0]]) / math.sqrt(2)])
        rho = DensityState(sig, ([[1.0]], [[0.0]]))
        with pytest.raises(NonBlockDiagonalResult):
            apply(leak, rho)


class TestChoi:
    def test_identity_choi(self):
        fam = to_choi(identity_kraus(Q))
        vec_i = np.eye(2, dtype=complex).reshape(-1, 1)
        expected = vec_i @ vec_i.conj().T
        assert len(fam.members) == 1
        assert np.array_equal(fam.members[0], expected)
        assert np.trace(fam.members[0]).real == pytest.approx(2.0)

    def test_zero_choi(self):
        fam = to_choi(zero_kraus(Q, Q))
        assert np.abs(fam.members[0]).max() == 0.0

    def test_measurement_choi(self):
        fam = to_choi(make_kraus(Q, Q, [PI0, PI1]))
        assert np.abs(fam.members[0] - np.diag([1, 0, 0, 1])).max() < 1e-12

    def test_matches_rank_one_updates(self):
        # reference: one outer product of vec(E J_i) per operator
        rng = np.random.default_rng(73)
        sig_in, sig_out = Signature((2, 1, 4)), Signature((3, 2))
        for s in (rand_kraus(rng, sig_in, sig_out, size=4, scale=0.8),
                  zero_kraus(sig_in, sig_out)):
            off = 0
            for n, member in zip(sig_in.blocks, to_choi(s).members):
                want = np.zeros((5 * n, 5 * n), dtype=complex)
                for e in s.ops:
                    v = e[:, off:off + n].reshape(-1, 1)
                    want += v @ v.conj().T
                assert np.abs(member - want).max() < 1e-12
                off += n

    def test_members_psd(self):
        rng = np.random.default_rng(67)
        s = rand_kraus(rng, Signature((2, 1)), size=3, scale=0.9)
        from qalt import is_psd
        assert all(is_psd(m, 1e-9) for m in to_choi(s).members)

    def test_equality_is_exact(self):
        s = make_kraus(Q, Q, [X / math.sqrt(2), Z / math.sqrt(2)])
        assert to_choi(s) == to_choi(s)
        assert not to_choi(s) != to_choi(s)
        assert to_choi(s) != to_choi(make_kraus(Q, Q, [PI0, PI1]))
        assert to_choi(identity_kraus(Q)) != to_choi(kraus_of(ID2 * (1 + 1e-15)))
        assert to_choi(zero_kraus(Q, ONE)) != to_choi(zero_kraus(Q, Q))
        assert to_choi(s) != "not a family"
        with pytest.raises(TypeError):
            hash(to_choi(s))

    def test_choi_determines_action(self):
        rng = np.random.default_rng(71)
        sig = Signature((2, 1))
        s = rand_kraus(rng, sig, size=2, scale=0.9)
        t = rand_kraus(rng, sig, size=3)
        same = ext_equal(s, t)
        agree = all(
            np.abs(apply_full(s, block_diag(e))
                   - apply_full(t, block_diag(e))).max() < 1e-9
            for e in basis_elements(sig))
        assert same == agree


class TestExtEqual:
    def test_global_phase_invisible(self):
        phased = kraus_of(np.exp(1j * math.pi / 4) * np.eye(2))
        assert ext_equal(identity_kraus(Q), phased)

    def test_alternation_sees_phase(self):
        a = alternate(identity_kraus(Q), identity_kraus(Q))
        b = alternate(identity_kraus(Q),
                      kraus_of(np.exp(1j * math.pi / 4) * np.eye(2)))
        assert not ext_equal(a, b)

    def test_is_choi_distance_within_tol(self):
        rng = np.random.default_rng(83)
        for trial in range(40):
            sig = (Q, Signature((2, 1)))[trial % 2]
            s = rand_kraus(rng, sig, size=int(rng.integers(1, 4)), scale=0.9)
            # t near s half the time, so distances straddle the tolerances
            t = (rand_kraus(rng, sig, size=int(rng.integers(1, 4)), scale=0.9)
                 if trial % 4 < 2 else
                 make_kraus(sig, sig, [e * (1 + 1e-9 * rng.normal()) for e in s.ops]))
            dist = choi_distance(s, t)
            members = zip(to_choi(s).members, to_choi(t).members)
            assert dist == max(np.abs(a - b).max() for a, b in members)
            assert choi_distance(s, s) == 0.0
            for tol in (1e-12, 1e-9, 1e-6, dist, np.nextafter(dist, 0)):
                assert ext_equal(s, t, tol) == (dist <= tol)

    def test_reflexive(self):
        meas = kraus_of(PI0, PI1)
        assert ext_equal(meas, meas)

    def test_equivalence_relation(self):
        rng = np.random.default_rng(73)
        sets = [rand_kraus(rng, Q, size=2), rand_kraus(rng, Q, size=2)]
        # symmetric in both outcomes
        for a, b in itertools.product(sets, sets):
            assert ext_equal(a, b) == ext_equal(b, a)
        # transitivity through a rewritten representative
        s = sets[0]
        half = make_kraus(Q, Q, [op / math.sqrt(2) for op in s.ops for _ in range(2)])
        assert ext_equal(s, half)
        also = make_kraus(Q, Q, list(s.ops) + [np.zeros((2, 2))])
        assert ext_equal(half, also) and ext_equal(s, also)

    def test_single_element_phase_invariance(self):
        rng = np.random.default_rng(79)
        s = rand_kraus(rng, Q, size=3)
        ops = list(s.ops)
        ops[1] = np.exp(0.7j) * ops[1]
        assert ext_equal(s, make_kraus(Q, Q, ops))

    def test_agrees_with_superoperator_matrix(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            s = rand_kraus(rng, Q, size=2, scale=0.9)
            t = rand_kraus(rng, Q, size=3)
            direct = np.abs(superop_matrix(s) - superop_matrix(t)).max() < 1e-9
            assert ext_equal(s, t) == direct

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            ext_equal(identity_kraus(Q), identity_kraus(ONE))


class TestPositivityByBound:
    """Verdicts that the Gershgorin bound must leave to an eigenvalue."""

    def test_scaled_identity_still_violates(self, monkeypatch):
        eig = count_calls(monkeypatch, "eigvalsh", np.linalg)
        with pytest.raises(TraceConditionViolated):
            kraus_of(1.01 * ID2)
        assert len(eig) == 1  # the rejection comes from eigvalsh

    def test_alternated_phase_twin_not_below(self, monkeypatch):
        a = alternate(identity_kraus(Q), identity_kraus(Q))
        b = alternate(identity_kraus(Q),
                      kraus_of(np.exp(1j * math.pi / 4) * np.eye(2)))
        eig = count_calls(monkeypatch, "eigvalsh", np.linalg)
        assert not lowner_leq(a, b) and not lowner_leq(b, a)
        assert len(eig) == 2

    def test_global_phase_twin_by_bound(self, monkeypatch):
        phased = kraus_of(np.exp(1j * math.pi / 4) * np.eye(2))
        eig = count_calls(monkeypatch, "eigvalsh", np.linalg)
        # the Choi difference of equal maps is zero up to rounding
        assert lowner_leq(identity_kraus(Q), phased)
        assert lowner_leq(phased, identity_kraus(Q))
        assert not eig


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return f"[[{c!r}, {-s!r}], [{s!r}, {c!r}]]"


class TestPositivityByCholesky:
    """Dense-path Loewner verdicts at D = 256 that Cholesky settles."""

    #: three work qubits and an idle probe p; measurements and discarded
    #: ancillas inside alternations give 128 operators
    SOURCE = "\n".join([
        "w0 *= H", "w1 *= T", "w2 *= H",
        f"case (w0, w1) of |00> -> {{ measure w2 then {{ w2 *= {_rotation(0.4)} }} "
        f"else {{ w2 *= {_rotation(1.1)} }} }} |01> -> {{ w2 *= {_rotation(0.7)} }} "
        f"|10> -> {{ new qbit a0 a0 *= H if a0 then {{ skip }} else "
        f"{{ w2 *= {_rotation(2.0)} }} discard a0 }} |_> -> {{ w2 *= {_rotation(1.7)} "
        f"measure w2 then {{ w2 *= {_rotation(0.9)} }} else {{ w2 *= {_rotation(2.4)} }} }}",
        f"if w2 then {{ measure w0 then {{ w0 *= {_rotation(1.3)} }} else "
        f"{{ w0 *= {_rotation(0.5)} }} }} else {{ w1 *= {_rotation(2.2)} new qbit a1 "
        f"a1 *= H if a1 then {{ skip }} else {{ w0 *= {_rotation(2.6)} }} discard a1 }}",
        f"if w0 then {{ measure w1 then {{ w1 *= {_rotation(0.3)} }} else "
        f"{{ w1 *= {_rotation(1.9)} }} }} else {{ w2 *= {_rotation(1.4)} new qbit a2 "
        f"a2 *= H if a2 then {{ skip }} else {{ w1 *= {_rotation(2.8)} }} discard a2 }}",
    ])

    @staticmethod
    def dense_reference(s, t, tol):
        """``lowner_leq`` from the Choi families and eigvalsh alone."""
        verdict = True
        for a, b in zip(to_choi(s).members, to_choi(t).members):
            diff = np.asarray(b) - np.asarray(a)
            if np.abs(diff - diff.conj().T).max() > tol:
                return False
            low = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2).min())
            verdict = verdict and low >= -tol
        return verdict

    def test_phase_twins_decide_as_eigvalsh(self, monkeypatch):
        ctx = Context.of(("w0", "qbit"), ("w1", "qbit"), ("w2", "qbit"), ("p", "qbit"))
        base = denote(self.SOURCE, ctx).kraus
        alternated = denote(self.SOURCE + "\nif p then { skip } else { w0 *= Phase(1.234) }",
                            ctx).kraus
        global_phase = denote(self.SOURCE + "\nw0 *= Phase(1.234)", ctx).kraus
        # 16 x 16 operators: each Choi difference is 256 wide, and 4 (k + l)
        # exceeds it, so the pencil leaves every verdict to the dense form
        assert len(base.ops) == len(alternated.ops) == 128
        pairs = [(base, alternated), (alternated, base), (base, global_phase)]
        for tol in (1e-12, 1e-9, 1e-6, 1e-300):
            reference_eig = count_calls(monkeypatch, "eigvalsh", np.linalg)
            want = [self.dense_reference(s, t, tol) for s, t in pairs]
            monkeypatch.undo()
            eig = count_calls(monkeypatch, "eigvalsh", np.linalg)
            assert [lowner_leq(s, t, tol) for s, t in pairs] == want
            monkeypatch.undo()
            assert want[:2] == [False, False]
            assert want[2] == (tol > 1e-300)
            # the twins' Choi differences are False by one failed factorisation
            # and the global phase True by the bound.  At 1e-300 each
            # difference that passes the Hermitian test takes eigvalsh, as in
            # the reference; which ones pass depends on the BLAS kernels
            assert len(eig) == (len(reference_eig) if tol == 1e-300 else 0)


class TestPencil:
    """Verdicts on sets wide enough for the pencil: D >= max(128, 4 (k + l))
    in every block, so the Choi families are built only on a fallback."""

    TOLS = (1e-12, 1e-9, 1e-6)

    @staticmethod
    def dense_leq(s, t, tol):
        cs, ct = to_choi(s), to_choi(t)
        return all(is_psd(b - a, tol) for a, b in zip(cs.members, ct.members))

    def assert_dense_verdicts(self, s, t, tols=TOLS):
        dist = choi_distance(s, t)
        # a verdict takes only a tol above 0, so dist = 0 adds no tol
        for tol in [x for x in (*tols, dist, np.nextafter(dist, 0)) if x > 0]:
            assert ext_equal(s, t, tol) == (dist <= tol)
            assert lowner_leq(s, t, tol) == self.dense_leq(s, t, tol)
            assert lowner_leq(t, s, tol) == self.dense_leq(t, s, tol)

    @staticmethod
    def pairs(rng, sig, size):
        s = rand_kraus(rng, sig, size=size, scale=0.9)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        yield s, rand_kraus(rng, sig, size=size, scale=0.9)
        yield s, make_kraus(sig, sig, [phase * e for e in s.ops])
        yield s, make_kraus(sig, sig, [e * (1 + 1e-9 * rng.normal()) for e in s.ops])
        yield s, make_kraus(sig, sig, [0.8 * e for e in s.ops])
        # a refinement of s: each operator split in two, the same map
        yield s, make_kraus(sig, sig, [e * c for e in s.ops for c in (0.6, 0.8)])

    @pytest.mark.parametrize("sig", [Signature((12,)), Signature((16,)),
                                     Signature((8, 16))], ids=str)
    def test_verdicts_equal_the_dense_ones(self, sig):
        rng = np.random.default_rng(131)
        for size in (1, 3):
            for s, t in self.pairs(rng, sig, size):
                self.assert_dense_verdicts(s, t)

    def test_pencil_verdicts_build_no_choi_member(self, monkeypatch):
        rng = np.random.default_rng(137)
        sig = Signature((16,))
        s = rand_kraus(rng, sig, size=3, scale=0.9)
        twin = make_kraus(sig, sig, [np.exp(0.4j) * e for e in s.ops])
        other = rand_kraus(rng, sig, size=3, scale=0.9)
        choi = count_calls(monkeypatch, "to_choi", kraus)
        eig = count_calls(monkeypatch, "eigvalsh", np.linalg)
        assert ext_equal(s, twin) and not ext_equal(s, other)
        assert not eig
        assert lowner_leq(s, twin) and not lowner_leq(s, other)
        assert lowner_leq(zero_kraus(sig, sig), s) and not lowner_leq(s, zero_kraus(sig, sig))
        assert not choi
        # one eigendecomposition per verdict, of the 6 x 6 (or 3 x 3) pencil
        assert [a[0].shape for a in eig] == [(6, 6), (6, 6), (3, 3), (3, 3)]

    def test_fallbacks_build_the_choi_families(self, monkeypatch):
        rng = np.random.default_rng(139)
        wide = Signature((16,))
        s = rand_kraus(rng, wide, size=2, scale=0.9)
        twin = make_kraus(wide, wide, [np.exp(0.4j) * e for e in s.ops])
        narrow = rand_kraus(rng, Signature((4,)), size=1)  # D = 16 < 128
        choi = count_calls(monkeypatch, "to_choi", kraus)
        assert ext_equal(s, twin, 1e-300) == (choi_distance(s, twin) <= 1e-300)
        assert lowner_leq(s, twin, 1e-300) == self.dense_leq(s, twin, 1e-300)
        assert ext_equal(narrow, narrow) and lowner_leq(narrow, narrow)
        dist = choi_distance(s, twin)
        assert ext_equal(s, twin, dist)  # inside the band
        assert len(choi) == 2 * 7  # two families per verdict and reference

    @pytest.mark.parametrize("k, l, pencil", [(18, 18, True), (18, 19, False),
                                              (19, 18, False), (36, 0, True),
                                              (0, 37, False)])
    def test_operator_count_around_a_quarter_of_d(self, monkeypatch, k, l, pencil):
        rng = np.random.default_rng(149)
        sig = Signature((12,))  # D = 144
        s = rand_kraus(rng, sig, size=l, scale=0.9) if l else zero_kraus(sig, sig)
        t = rand_kraus(rng, sig, size=k, scale=0.9) if k else zero_kraus(sig, sig)
        assert (len(s), len(t)) == (l, k)
        choi = count_calls(monkeypatch, "to_choi", kraus)
        verdicts = [ext_equal(s, t), lowner_leq(s, t), lowner_leq(t, s)]
        assert len(choi) == (0 if pencil else 6)
        monkeypatch.undo()
        assert verdicts == [choi_distance(s, t) <= 1e-9, self.dense_leq(s, t, 1e-9),
                            self.dense_leq(t, s, 1e-9)]

    @pytest.mark.parametrize("blocks, pencil", [((8,), False), ((11,), False),
                                                ((12,), True), ((8, 8), True),
                                                ((4, 12), False)], ids=str)
    def test_block_width_around_128(self, monkeypatch, blocks, pencil):
        # D = sum(blocks) n per block n: 64, 121, 144, 128 twice, 64 and 192
        rng = np.random.default_rng(167)
        sig = Signature(blocks)
        s = rand_kraus(rng, sig, size=1, scale=0.9)
        for t in (make_kraus(sig, sig, [np.exp(0.5j) * s.ops[0]]),
                  rand_kraus(rng, sig, size=1, scale=0.9)):
            choi = count_calls(monkeypatch, "to_choi", kraus)
            verdicts = [ext_equal(s, t), lowner_leq(s, t)]
            assert len(choi) == (0 if pencil else 4)
            monkeypatch.undo()
            assert verdicts == [choi_distance(s, t) <= 1e-9, self.dense_leq(s, t, 1e-9)]

    def test_empty_sets(self):
        rng = np.random.default_rng(151)
        sig = Signature((16,))
        s = rand_kraus(rng, sig, size=2, scale=0.9)
        zero = zero_kraus(sig, sig)
        self.assert_dense_verdicts(zero, s)
        self.assert_dense_verdicts(zero, zero)
        assert ext_equal(zero, zero, 1e-300) and lowner_leq(zero, zero, 1e-300)

    def test_near_dependent_operators(self):
        # F = e^{i theta} E (1 + 1e-13) beside E: M has two columns parallel
        # to 13 digits, so R is ill-conditioned
        rng = np.random.default_rng(157)
        sig = Signature((16,))
        for _ in range(5):
            base = rand_kraus(rng, sig, size=3, scale=0.5)
            e = base.ops[0]
            near = np.exp(1j * rng.uniform(0, 2 * math.pi)) * e * (1 + 1e-13)
            s = make_kraus(sig, sig, list(base.ops) + [near])
            self.assert_dense_verdicts(base, s)
            twin = make_kraus(sig, sig, [near] + list(base.ops[1:]))
            self.assert_dense_verdicts(base, twin)
            assert ext_equal(base, twin)

    def test_tol_at_rounding_level_takes_the_dense_form(self, monkeypatch):
        rng = np.random.default_rng(163)
        sig = Signature((8, 16))
        s = rand_kraus(rng, sig, size=2, scale=0.9)
        for t in (make_kraus(sig, sig, [np.exp(0.3j) * e for e in s.ops]), s):
            choi = count_calls(monkeypatch, "to_choi", kraus)
            got = [ext_equal(s, t, 1e-300), lowner_leq(s, t, 1e-300)]
            assert len(choi) == 4
            monkeypatch.undo()
            assert got == [choi_distance(s, t) <= 1e-300,
                           self.dense_leq(s, t, 1e-300)]


class TestLownerOrder:
    def test_zero_is_bottom(self):
        rng = np.random.default_rng(89)
        s = rand_kraus(rng, Q, size=2, scale=0.8)
        assert lowner_leq(zero_kraus(Q, Q), s)

    def test_reflexive(self):
        rng = np.random.default_rng(97)
        s = rand_kraus(rng, Q, size=2)
        assert lowner_leq(s, s)

    def test_scaling_chain(self):
        rng = np.random.default_rng(101)
        t = rand_kraus(rng, Q, size=2)
        s = make_kraus(Q, Q, [0.6 * op for op in t.ops])
        u = make_kraus(Q, Q, [0.3 * op for op in t.ops])
        assert lowner_leq(u, s) and lowner_leq(s, t)
        assert lowner_leq(u, t)  # transitivity
        assert not lowner_leq(t, s)

    def test_antisymmetry(self):
        rng = np.random.default_rng(103)
        s = rand_kraus(rng, Q, size=2)
        half = make_kraus(Q, Q, [op / math.sqrt(2) for op in s.ops for _ in range(2)])
        assert lowner_leq(s, half) and lowner_leq(half, s)
        assert ext_equal(s, half)

    def test_nonmonotone_counterexample(self):
        s = make_kraus(ONE, ONE, [np.eye(1)])
        t = make_kraus(ONE, ONE, [np.eye(1)])
        assert lowner_leq(zero_kraus(ONE, ONE), t)
        assert lowner_leq(s, s)
        assert not lowner_leq(alternate(s, zero_kraus(ONE, ONE)), alternate(s, t))

    def test_alternation_difference_block_structure(self):
        # for singleton unitaries the alternation acts as
        # [[A,B],[C,D]] -> [[UAU', UBV'],[VCU', VDV']], while the empty-else
        # alternation keeps only the upper-left block
        rng = np.random.default_rng(113)
        d = 3
        sig = Signature((d,))
        u, v = rand_unitary(rng, d), rand_unitary(rng, d)
        su, sv = make_kraus(sig, sig, [u]), make_kraus(sig, sig, [v])
        rho = rand_density(rng, qbit_tensor(sig))
        full = np.asarray(rho.full())
        a, b = full[:d, :d], full[:d, d:]
        c, dd = full[d:, :d], full[d:, d:]
        got_both = apply(alternate(su, sv), rho).blocks[0]
        expected = np.block([[u @ a @ u.conj().T, u @ b @ v.conj().T],
                             [v @ c @ u.conj().T, v @ dd @ v.conj().T]])
        assert np.abs(got_both - expected).max() < 1e-10
        got_half = apply(alternate(su, zero_kraus(sig, sig)), rho).blocks[0]
        top_only = np.zeros_like(expected)
        top_only[:d, :d] = u @ a @ u.conj().T
        assert np.abs(got_half - top_only).max() < 1e-10


class TestSingletonPhaseTheorem:
    def test_both_directions(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            u1, v1 = rand_unitary(rng, 2), rand_unitary(rng, 2)
            theta = rng.uniform(0, 2 * math.pi)
            u0 = np.exp(1j * theta) * u1
            v0 = np.exp(1j * theta) * v1
            assert ext_equal(alternate(kraus_of(u0), kraus_of(v0)),
                             alternate(kraus_of(u1), kraus_of(v1)))
            # perturb one side's phase: no single theta works any more
            v0_bad = np.exp(1j * (theta + 0.4)) * v1
            assert not ext_equal(alternate(kraus_of(u0), kraus_of(v0_bad)),
                                 alternate(kraus_of(u1), kraus_of(v1)))


class TestIsReversible:
    def test_hadamard(self):
        assert is_reversible(kraus_of(H))

    def test_measurement(self):
        assert not is_reversible(kraus_of(PI0, PI1))

    def test_subunitary(self):
        assert not is_reversible(kraus_of(0.5 * ID2))

    def test_signature_precondition(self):
        with pytest.raises(SignatureMismatch):
            is_reversible(make_kraus(ONE, Q, [np.array([[1.0], [0.0]])]))


class TestTolRule:
    """Every public entry that decides at a ``tol`` takes only a finite one
    above 0, with the wording of ``--tol``; ``is_psd`` still answers at 0."""

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_entries_raise_value_error(self, tol):
        s = identity_kraus(Q)
        half = np.eye(2) / 2
        for call in (lambda: make_kraus(Q, Q, [ID2], tol),
                     lambda: ext_equal(s, s, tol),
                     lambda: lowner_leq(s, s, tol),
                     lambda: is_reversible(s, tol),
                     lambda: kraus.diagonal_blocks(half, Q, tol),
                     lambda: apply(s, DensityState(Q, (half,)), tol),
                     lambda: DensityState(Q, (half,), tol)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"tol must be finite and greater than 0, got {tol}"
        assert is_psd(np.zeros((2, 2)), 0.0)
