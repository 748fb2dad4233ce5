import itertools
import math

import numpy as np
import pytest

from helpers import (count_calls, pairwise_coalesce, rand_density, rand_kraus,
                     state_deviation)
from test_corpus import generated_programs
from test_fuzz import _fresh_block, _neutral_stmt, looped_program, random_program
from qalt import (
    Context,
    DensityState,
    Signature,
    TruthTable,
    alternate,
    alternate_case,
    compose,
    denote,
    dsum,
    elaborate,
    embed_gate,
    eval_direct,
    ext_equal,
    gen_deutsch,
    gen_grover_oracle,
    gen_qft,
    make_kraus,
    measure_stats,
    oracle_context,
    outcome_probability,
    parse,
    qft_context,
    run,
    tensor,
    typecheck,
    zero_kraus,
)
from qalt import kraus, semantics
from qalt import syntax as ast
from qalt.core import H, ID2, KET0, KET1, NAMED_GATES, PI0, PI1, X, dim, freeze
from qalt.check import control_contexts
from qalt.errors import (KindError, SemanticError, SignatureMismatch,
                         TraceConditionViolated, UnknownName)
from qalt.semantics import leading_permutation, signature_of

CTX_Q = Context.of(("q", "qbit"))
CTX_2 = Context.of(("q0", "qbit"), ("q1", "qbit"))
CTX_3 = Context.of(("q0", "qbit"), ("q1", "qbit"), ("q2", "qbit"))
CTX_4 = Context.of(*((f"q{i}", "qbit") for i in range(4)))
CTX_QR = Context.of(("q", "qbit"), ("r", "qbit"))

#: The seeds of the fuzz tests.
FUZZ_SEEDS = [20240607, 20240608, 20240609, 20240610]

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                 [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def insert_bit(x: int, width: int, pos: int, v: int) -> int:
    """Insert bit ``v`` at ``pos`` (0 = most significant) of a width-bit value."""
    high = x >> (width - 1 - pos)
    low = x & ((1 << (width - 1 - pos)) - 1)
    return (high << (width - pos)) | (v << (width - 1 - pos)) | low


def get_bit(x: int, width: int, pos: int) -> int:
    return (x >> (width - 1 - pos)) & 1


def mixed_contexts(max_vars: int = 5):
    """Every context over the names a, b, c, ... with every mix of kinds."""
    for n in range(max_vars + 1):
        for kinds in itertools.product(("qbit", "bit"), repeat=n):
            yield Context.of(*zip("abcdefgh", kinds))


def kraus_equal(got, sig_in, sig_out, raw_ops) -> bool:
    """Same operators in the same canonical order, entry for entry."""
    want = make_kraus(sig_in, sig_out, raw_ops)
    return (len(got.ops) == len(want.ops)
            and all(np.array_equal(x, y) for x, y in zip(got.ops, want.ops)))


class TestTableEntries:
    def test_skip(self):
        d = denote("skip", CTX_Q)
        assert len(d.kraus.ops) == 1
        assert np.array_equal(d.kraus.ops[0], np.eye(2))

    def test_new_qbit_from_empty(self):
        d = denote("new qbit q")
        assert d.kraus.output_sig == Signature((2,))
        assert np.array_equal(d.kraus.ops[0], [[1], [0]])

    def test_new_bit_is_injection(self):
        d = denote("new bit b")
        assert d.kraus.output_sig == Signature((1, 1))
        assert np.array_equal(d.kraus.ops[0], [[1], [0]])

    def test_apply_gate(self):
        d = denote("q *= H", CTX_Q)
        assert np.abs(d.kraus.ops[0] - H).max() < 1e-12

    def test_discard_qubit(self):
        d = denote("discard q", CTX_Q)
        assert len(d.kraus.ops) == 2
        got = {tuple(np.asarray(op).real.flatten()) for op in d.kraus.ops}
        assert got == {(1.0, 0.0), (0.0, 1.0)}  # <0| and <1|

    def test_measure_morphism(self):
        # {E Pi0 : E in then} u {F Pi1 : F in else}
        d = denote("measure q then { q *= X } else { skip }", CTX_Q)
        assert d.kraus.input_sig == d.kraus.output_sig == Signature((2,))
        assert kraus_equal(d.kraus, Signature((2,)), Signature((2,)), [X @ PI0, PI1])
        # arms that allocate: the output signature is wider than the input
        d = denote("measure q then { new qbit r r *= X } else { new qbit r }", CTX_Q)
        assert d.output_ctx == Context.of(("q", "qbit"), ("r", "qbit"))
        assert kraus_equal(d.kraus, Signature((2,)), Signature((4,)),
                           [tensor(PI0, KET1), tensor(PI1, KET0)])

    def test_merge_morphism(self):
        # the branch tag is forgotten: both arms' outputs add up in one state
        plus = DensityState(Signature((2,)), (np.full((2, 2), 0.5),))
        out = run("measure q then { skip } else { q *= X }", plus, CTX_Q)
        assert out.signature == Signature((2,))
        assert np.abs(out.blocks[0] - PI0).max() < 1e-12

    def test_quantum_if_is_alternation(self):
        d = denote("if q0 then { skip } else { q1 *= X }", CTX_2)
        assert len(d.kraus.ops) == 1
        assert np.abs(d.kraus.ops[0] - CNOT).max() < 1e-12

    def test_denote_accepts_statement_nodes(self):
        from qalt import syntax as ast
        stmt = ast.QIf(ast.NameRef("q0"), [ast.Skip()],
                       [ast.ApplyGate([ast.NameRef("q1")], ast.NamedGate("X"))])
        d = denote(stmt, CTX_2)
        assert np.abs(d.kraus.ops[0] - CNOT).max() < 1e-12


class TestLayoutMaps:
    """Allocation, discard and measurement against bit arithmetic.

    Context layout: basis index blk * 2^m + x, where blk holds the k bits and
    x the m qubits, each most significant first in allocation order.
    """

    def test_allocation_appends_zero(self):
        for ctx in mixed_contexts():
            m, k = len(ctx.qubits()), len(ctx.bits())
            d = 2 ** (k + m)
            for kind in ("qbit", "bit"):
                out = ctx.add("z", kind)
                op = np.zeros((2 * d, d), dtype=complex)
                for g in range(d):
                    blk, x = divmod(g, 2 ** m)
                    if kind == "qbit":
                        row = blk * 2 ** (m + 1) + insert_bit(x, m + 1, m, 0)
                    else:
                        row = insert_bit(blk, k + 1, k, 0) * 2 ** m + x
                    op[row, g] = 1.0
                d_new = denote(f"new {kind} z", ctx)
                assert d_new.output_ctx == out
                assert kraus_equal(d_new.kraus, signature_of(ctx),
                                   signature_of(out), [op]), (ctx, kind)

    def test_discard_selects_each_value(self):
        for ctx in mixed_contexts():
            m, k = len(ctx.qubits()), len(ctx.bits())
            d_out = 2 ** (k + m - 1)
            for name in ctx.names():
                ops = []
                for v in (0, 1):
                    op = np.zeros((d_out, 2 * d_out), dtype=complex)
                    for g in range(d_out):
                        if ctx.kind_of(name) == "qbit":
                            blk, y = divmod(g, 2 ** (m - 1))
                            p = ctx.qubits().index(name)
                            col = blk * 2 ** m + insert_bit(y, m, p, v)
                        else:
                            blk, x = divmod(g, 2 ** m)
                            j = ctx.bits().index(name)
                            col = insert_bit(blk, k, j, v) * 2 ** m + x
                        op[g, col] = 1.0
                    ops.append(op)
                d = denote(f"discard {name}", ctx)
                assert kraus_equal(d.kraus, signature_of(ctx),
                                   signature_of(ctx.remove(name)), ops), (ctx, name)

    def test_measure_projects_into_branch_tag(self):
        for ctx in mixed_contexts():
            m = len(ctx.qubits())
            sig = signature_of(ctx)
            d = sum(sig.blocks)
            for p, name in enumerate(ctx.qubits()):
                pi0, pi1 = (np.diag([complex(get_bit(g % 2 ** m, m, p) == v)
                                     for g in range(d)]) for v in (0, 1))
                d_skip = denote(f"measure {name} then {{ skip }} else {{ skip }}", ctx)
                assert kraus_equal(d_skip.kraus, sig, sig, [pi0, pi1]), (ctx, name)
                # Z in the else arm tells the value-1 branch from the value-0 one
                d_z = denote(f"measure {name} then {{ skip }} else {{ {name} *= Z }}", ctx)
                assert kraus_equal(d_z.kraus, sig, sig, [pi0, -pi1]), (ctx, name)


class TestGateStep:
    """A gate step is one ``embed_gate`` over the axes of the context layout,
    bits included, firing once per step.  Its operator is byte for byte the
    bits' identity tensored with the gate embedded on the qubits alone."""

    CTX = Context.of(("b0", "bit"), ("q0", "qbit"), ("b1", "bit"), ("q1", "qbit"))
    SWAP_PHASES = ("q1, q0 *= [[0, 0, -1, 0], [0, 0, 0, 0.6 + 0.8i], "
                   "[1, 0, 0, 0], [0, -0.8 + 0.6i, 0, 0]]")

    def step(self, monkeypatch, src):
        """The gate's matrix, its operator in CTX, and the qubit-only reference."""
        embeds = count_calls(monkeypatch, "embed_gate", semantics)
        stmt = elaborate(parse(src)).body[0]
        u = semantics._gate_matrix(stmt.gate)
        got = denote(src, self.CTX).kraus.ops[0]
        assert len(embeds) == 1
        qubits = self.CTX.qubits()
        want = np.kron(np.eye(2 ** len(self.CTX.bits()), dtype=complex),
                       embed_gate(u, [qubits.index(t.base) for t in stmt.targets],
                                  len(qubits)))
        return u, got, want

    @pytest.mark.parametrize("src", ["q1 *= H", "q0 *= Rk(3)",
                                     "q1 *= [[-0, -1], [1, -0]]", SWAP_PHASES])
    def test_bytes_equal_bits_identity_tensor_qubit_embedding(self, monkeypatch, src):
        _, got, want = self.step(monkeypatch, src)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("src", ["q1 *= Y", "q0 *= Phase(4)"])
    def test_both_parts_negative_changes_only_signs_of_zero(self, monkeypatch, src):
        # an entry whose real and imaginary parts are both negative-signed
        # (Y's -i is -0 - 1i) leaves -0.0 where the qubit-only embedding,
        # multiplied by the bits' identity, left 0.0
        u, got, want = self.step(monkeypatch, src)
        assert (np.signbit(u.real) & np.signbit(u.imag)).any()
        got, want = got.view(np.float64), want.view(np.float64)
        moved = got.view(np.uint64) != want.view(np.uint64)
        assert moved.any()
        assert not got[moved].any() and not want[moved].any()


class TestDenotePrograms:
    def test_toffoli(self):
        src = "if q0 then { skip } else { if q1 then { skip } else { q2 *= X } }"
        d = denote(src, CTX_3)
        toffoli = np.eye(8, dtype=complex)
        toffoli[[6, 7]] = toffoli[[7, 6]]
        assert np.abs(d.kraus.ops[0] - toffoli).max() < 1e-12

    def test_measure_skip_skip_is_dephasing(self):
        d = denote("measure q then { skip } else { skip }", CTX_Q)
        ref = make_kraus(Signature((2,)), Signature((2,)), [PI0, PI1])
        assert ext_equal(d.kraus, ref)

    def test_measure_composite_elements(self):
        # merge . (P (+) Q) . measure collapses to {E Pi0} u {F Pi1}
        d = denote("measure q then { q *= H } else { q *= X }", CTX_Q)
        ref = make_kraus(Signature((2,)), Signature((2,)),
                         [H @ PI0, X @ PI1])
        assert ext_equal(d.kraus, ref)
        assert len(d.kraus.ops) == 2

    def test_sequencing_is_composition(self):
        d_whole = denote("q *= H\nq *= X", CTX_Q)
        d_h = denote("q *= H", CTX_Q)
        d_x = denote("q *= X", CTX_Q)
        composed = compose(d_x.kraus, d_h.kraus)
        assert ext_equal(d_whole.kraus, composed)
        assert all(np.array_equal(a, b)
                   for a, b in zip(d_whole.kraus.ops, composed.ops))

    def test_control_not_leading(self):
        # control q1 sits behind q0: conjugation by the layout permutation
        d = denote("if q1 then { skip } else { q0 *= X }", CTX_2)
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert np.abs(d.kraus.ops[0] - swap @ CNOT @ swap).max() < 1e-12

    def test_alternation_with_bit_in_context(self):
        # a classical bit rides along unchanged through the alternation
        ctx = Context.of(("b", "bit"), ("q0", "qbit"), ("q1", "qbit"))
        d = denote("if q0 then { skip } else { q1 *= X }", ctx)
        assert d.kraus.input_sig == Signature((4, 4))
        (op,) = d.kraus.ops
        assert np.abs(op - tensor(np.eye(2), CNOT)).max() < 1e-12

    def test_new_variable_appends(self):
        st = run("new qbit a\nnew qbit b\nb *= X")
        # a leading, b trailing: |01><01|
        assert np.abs(st.blocks[0] - np.diag([0, 1, 0, 0])).max() < 1e-12

    def test_empty_program(self):
        d = denote("")
        assert d.kraus.input_sig == Signature((1,))
        assert np.array_equal(d.kraus.ops[0], [[1.0]])


class TestRun:
    def test_new_qbit(self):
        st = run("new qbit q")
        assert st.signature == Signature((2,))
        assert np.array_equal(st.blocks[0], PI0)

    def test_discard_preserves_trace(self):
        st = run("new qbit q\nq *= H\ndiscard q")
        assert st.signature == Signature((1,))
        assert st.blocks[0][0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_deutsch_constant(self):
        program = gen_deutsch(TruthTable.from_bits("11"))
        d = denote(program)
        st = run(program)
        p0, p1 = measure_stats(st, "q0", d.output_ctx)
        assert p0 == pytest.approx(1.0, abs=1e-9)
        assert p1 == pytest.approx(0.0, abs=1e-9)

    def test_initial_state_required(self):
        with pytest.raises(ValueError):
            run("q *= H", ctx=CTX_Q)


class TestMeasureStats:
    def test_leading_projection(self):
        rng = np.random.default_rng(5)
        rho_small = rand_density(rng, Signature((2,)), trace=0.7)
        lifted = DensityState(Signature((4,)), (tensor(PI0, rho_small.blocks[0]),))
        p0, p1 = measure_stats(lifted, "q0", CTX_2)
        assert p0 == pytest.approx(0.7, abs=1e-10)
        assert p1 == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_trace(self):
        rng = np.random.default_rng(9)
        ctx = Context.of(("b", "bit"), ("q", "qbit"), ("r", "qbit"))
        rho = rand_density(rng, signature_of(ctx), trace=0.9)
        p0, p1 = measure_stats(rho, "r", ctx)
        assert p0 + p1 == pytest.approx(rho.trace(), abs=1e-10)
        assert p0 >= -1e-12 and p1 >= -1e-12

    def test_unknown_and_kind_errors(self):
        st = run("new qbit q")
        with pytest.raises(UnknownName):
            measure_stats(st, "nope", CTX_Q)
        bit_ctx = Context.of(("b", "bit"))
        st2 = run("new bit b")
        with pytest.raises(KindError):
            measure_stats(st2, "b", bit_ctx)


class TestUfLaw:
    @staticmethod
    def u_f_reference(table: TruthTable) -> np.ndarray:
        """|x, y> -> |x, y xor f(x)> as an explicit permutation matrix."""
        n = table.n
        size = 2 ** (n + 1)
        out = np.zeros((size, size), dtype=complex)
        for x in range(2 ** n):
            for y in (0, 1):
                out[(x << 1) | (y ^ table(x)), (x << 1) | y] = 1.0
        return out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_functions(self, n):
        tables = [TruthTable(n, bits)
                  for bits in itertools.product((0, 1), repeat=2 ** n)]
        controls = [f"q0_{i}" for i in range(n)]
        ctx = Context.of(*[(c, "qbit") for c in controls], ("q1", "qbit"))
        arm = "|{label}> -> {{ q1 *= OracleU({bits}, {x}) }}"
        for table in tables:
            bits = "".join(str(v) for v in table.values)
            arms = " ".join(
                arm.format(label=format(x, f"0{n}b"), bits=bits, x=x)
                for x in range(2 ** n))
            src = f"case ({', '.join(controls)}) of {arms}"
            d = denote(src, ctx)
            assert len(d.kraus.ops) == 1
            assert np.abs(d.kraus.ops[0] - self.u_f_reference(table)).max() == 0.0


class TestGroverOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_indicator_permutation(self, n):
        for x0 in range(2 ** n):
            table = TruthTable(n, tuple(1 if x == x0 else 0
                                        for x in range(2 ** n)))
            d = denote(gen_grover_oracle(x0, n), oracle_context(n))
            assert np.abs(d.kraus.ops[0]
                          - TestUfLaw.u_f_reference(table)).max() == 0.0

    def test_single_qubit_is_cnot(self):
        d = denote(gen_grover_oracle(1, 1), oracle_context(1))
        assert np.array_equal(d.kraus.ops[0].real, CNOT.real)

    def test_and_is_toffoli(self):
        d = denote(gen_grover_oracle(3, 2), oracle_context(2))
        toffoli = np.eye(8)
        toffoli[[6, 7]] = toffoli[[7, 6]]
        assert np.array_equal(d.kraus.ops[0].real, toffoli)

    def test_marked_zero_is_conjugated_toffoli(self):
        d = denote(gen_grover_oracle(0, 2), oracle_context(2))
        expected = np.eye(8)
        expected[[0, 1]] = expected[[1, 0]]
        assert np.array_equal(d.kraus.ops[0].real, expected)


class TestMeasureVersusQuantumIf:
    MEASURE_SRC = "measure q0 then { skip } else { q1 *= X }"
    QIF_SRC = "if q0 then { skip } else { q1 *= X }"

    def test_agree_on_control_diagonal_states(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            inner = rand_density(rng, Signature((2,)), trace=0.5)
            blocks = (tensor(PI0, inner.blocks[0]) + tensor(PI1, inner.blocks[0]),)
            rho = DensityState(Signature((4,)), blocks)
            a = run(self.MEASURE_SRC, rho, CTX_2)
            b = run(self.QIF_SRC, rho, CTX_2)
            assert state_deviation(a, b) < 1e-9

    def test_differ_on_coherent_control(self):
        plus = np.full((2, 2), 0.5)
        rho = DensityState(Signature((4,)), (tensor(plus, PI0),))
        a = run(self.MEASURE_SRC, rho, CTX_2)
        b = run(self.QIF_SRC, rho, CTX_2)
        frob = math.sqrt(float(np.abs(a.blocks[0] - b.blocks[0]).__pow__(2).sum()))
        assert frob > 0.1


def _dense_measurement(stmt, ctx, tol):
    """measure ; (then (+) else) ; merge, the structural maps as dense Kraus sets."""
    then_k, out_ctx = semantics._denote_block(stmt.then_block, ctx, tol)
    else_k, _ = semantics._denote_block(stmt.else_block, ctx, tol)
    sig, tau = signature_of(ctx), then_k.output_sig
    d = dim(sig)
    measure = []
    for v in (0, 1):
        kept = semantics._where(ctx, [stmt.control.base], v)
        op = np.zeros((2 * d, d), dtype=complex)
        op[v * d + kept, kept] = 1.0
        measure.append(op)
    d_out = dim(tau)
    merge = [np.eye(d_out, 2 * d_out, k * d_out, dtype=complex) for k in (0, 1)]
    measured = compose(kraus.branch_sum(then_k, else_k),
                       make_kraus(sig, dsum(sig, sig), measure))
    return compose(make_kraus(dsum(tau, tau), tau, merge), measured), out_ctx


#: Programs that measure one qubit again inside the arms of its measurement.
NESTED_MEASUREMENTS = [
    ("measure q then { measure q then { r *= X } else { skip } } "
     "else { measure q then { skip } else { r *= H } }", CTX_QR),
    ("measure r then { if q then { measure r then { skip } else { r *= S } } "
     "else { r *= H } } else { measure r then { q *= H } else { skip } }", CTX_QR),
    ("measure q then { new qbit t t *= H measure q then { t *= X } else { skip } "
     "measure t then { skip } else { q *= H } } else { new qbit t }",
     Context.of(("b", "bit"), ("q", "qbit"), ("r", "qbit"))),
    # drawn by `random_program` (seeds 24 and 31): of 1000 fuzz programs, the
    # two whose last bits move if a measurement's operators stay Fortran-ordered
    ("new qbit q0 new qbit q1 new qbit q2 "
     "measure q2 then { if q0 then { q1 *= Phase(pi / 3) } else { q2 *= Rk(2) "
     "q2 *= Phase(1.25) } if q0 then { q2 *= S q1 *= Rk(2) } else { q1 *= H } } "
     "else { measure q0 then { q1 *= H q0 *= Phase(1.25) } else { q1 *= X "
     "q2 *= Rk(2) } } new bit b3 discard q1 new qbit q4 "
     "measure q0 then { measure q0 then { q4 *= S q4 *= H } else { q4 *= X } } "
     "else { if q4 then { q0 *= Phase(pi / 3) q2 *= H } else { q0 *= X "
     "q0 *= Phase(1.25) } } measure q2 then { q4 *= H } else { q4 *= Rk(2) q4 *= H }",
     Context.empty()),
    ("new qbit q0 new qbit q1 q0 *= S if q1 then { q0 *= H if q0 then { skip skip } "
     "else { skip } } else { q0 *= Rk(2) q0 *= H } if q0 then { if q1 then { skip } "
     "else { skip skip } measure q1 then { q1 *= S q1 *= Rk(2) } else { q1 *= S "
     "q1 *= S } } else { if q1 then { skip skip } else { skip } } q1 *= H "
     "measure q0 then { q1 *= H measure q0 then { q1 *= S q1 *= Phase(1.25) } "
     "else { q0 *= S q0 *= Phase(pi / 3) } } else { if q1 then { q0 *= H } "
     "else { q0 *= Rk(2) } q0 *= Phase(pi / 3) } q0 *= H", Context.empty()),
]


def _measurement_programs():
    """The corpus, the fuzz seeds' programs and the nested measurements."""
    programs = list(generated_programs()) + NESTED_MEASUREMENTS
    for seed in FUZZ_SEEDS:
        rng = np.random.default_rng(seed)
        programs += [(random_program(rng), Context.empty()) for _ in range(40)]
    return programs


class TestMeasurementIndexMap:
    """A measurement reads the direct sum of its arms through one index map."""

    def test_bytes_equal_dense_structural_maps(self, monkeypatch):
        programs = _measurement_programs()
        new = [denote(p, ctx) for p, ctx in programs]
        direct = semantics._denote_stmt

        def dense(stmt, ctx, tol):
            if isinstance(stmt, ast.MeasureThenElse):
                return _dense_measurement(stmt, ctx, tol)
            return direct(stmt, ctx, tol)
        monkeypatch.setattr(semantics, "_denote_stmt", dense)
        for (p, ctx), got in zip(programs, new):
            want = denote(p, ctx)
            assert got.output_ctx == want.output_ctx
            assert [x.tobytes() for x in got.kraus.ops] == \
                [x.tobytes() for x in want.kraus.ops], p

    def test_stored_operators_are_c_contiguous(self):
        raw = np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=complex).T
        assert not raw.flags.c_contiguous
        s = make_kraus(Signature((2,)), Signature((4,)), [raw])
        assert s.ops[0].flags.c_contiguous
        assert freeze(raw).flags.c_contiguous
        for p, ctx in generated_programs() + NESTED_MEASUREMENTS:
            assert all(x.flags.c_contiguous for x in denote(p, ctx).kraus.ops), p


class TestCoalescePrefilter:
    """`kraus._coalesce` skips groups by their mean entry; every denotation
    must be the one the full pairwise scan gives."""

    def test_bytes_equal_full_pairwise_scan(self, monkeypatch):
        programs = _measurement_programs()
        new = [denote(p, ctx) for p, ctx in programs]
        monkeypatch.setattr(kraus, "_coalesce",
                            lambda ops: pairwise_coalesce(ops, kraus.COALESCE_TOL))
        for (p, ctx), got in zip(programs, new):
            want = denote(p, ctx)
            assert got.output_ctx == want.output_ctx
            assert got.kraus == want.kraus, p


def _two_set_alternation(names, branches, ctx, out_ctx, tol):
    """The alternation checked in the controls-leading layout, then re-indexed
    into the context layout and checked again."""
    alt = alternate_case(branches, len(names), tol)
    at = np.ix_(leading_permutation(out_ctx, names), leading_permutation(ctx, names))
    return make_kraus(signature_of(ctx), signature_of(out_ctx),
                      [e[at] for e in alt.ops], tol)


class TestAlternationPlacement:
    """An alternation is one make_kraus over its case elements moved into the
    context layout: the set the two-set construction gives, byte for byte."""

    CTX = Context.of(("q0", "qbit"), ("b0", "bit"), ("q1", "qbit"),
                     ("q2", "qbit"), ("q3", "qbit"))

    def test_bytes_equal_two_set_construction(self, monkeypatch):
        rng = np.random.default_rng(20240614)
        tol = 1e-9
        for trial in range(90):
            n = 1 + trial % 3
            names = [str(q) for q in rng.permutation(self.CTX.qubits())[:n]]
            inner, restore = control_contexts(self.CTX, names)
            # half of the cases allocate a bit in every arm
            inner_out = inner.add("c", "bit") if trial % 2 else inner
            out_ctx = restore(inner_out)
            sig_in, sig_out = signature_of(inner), signature_of(inner_out)
            sizes = rng.integers(0, 5, size=2 ** n)
            while math.prod(int(k) for k in sizes if k) > 64:
                sizes = rng.integers(0, 5, size=2 ** n)
            branches = [rand_kraus(rng, sig_in, sig_out, size=int(k), scale=0.9)
                        if k else zero_kraus(sig_in, sig_out) for k in sizes]
            monkeypatch.setattr(semantics, "_alternation",
                                lambda stmt, ctx, tol: (names, branches, out_ctx))
            got, got_ctx = semantics._denote_stmt(ast.QCase([], []), self.CTX, tol)
            assert got_ctx == out_ctx
            assert got == _two_set_alternation(names, branches, self.CTX,
                                               out_ctx, tol), (names, sizes)


def _run_breaking_block(rng) -> str:
    """Runs of one-operator statements (gates and ifs of gates), broken by a
    measurement or a discard, with bits allocated inside the runs."""
    qubits = ["q0", "q1", "q2"]
    lines = []
    bit = None
    for _ in range(int(rng.integers(2, 5))):
        for _ in range(int(rng.integers(1, 5))):
            q, r = (str(x) for x in rng.permutation(qubits)[:2])
            if rng.random() < 0.3:
                lines.append(f"if {q} then {{ {r} *= H }} else {{ {r} *= S }}")
            else:
                lines.append(_neutral_stmt(rng, qubits, set(), 2))
            if bit is None and rng.random() < 0.2:
                bit = f"c{len(lines)}"
                lines.append(f"new bit {bit}")
        q = qubits[int(rng.integers(3))]
        if bit is not None and rng.random() < 0.4:
            lines.append(f"discard {bit}")
            bit = None
        elif rng.random() < 0.5:
            lines.append(f"measure {q} then {{ {q} *= X }} else {{ skip }}")
        else:
            lines.append("new qbit t\nt *= H\ndiscard t")
    return "\n".join(lines)


def _set_then_run_block(rng) -> str:
    """Sets of 2-16 operators (measurements, discarded ancillas, cases with
    a measuring arm, a discarded bit), each followed by a run of
    one-operator statements; some ancillas are rotated by pi/4 + 0.6e-12 to
    1.2e-12, so their two operators merge under a later Hadamard."""
    qubits = ["q0", "q1", "q2"]
    lines = []
    for _ in range(int(rng.integers(1, 3))):
        for _ in range(int(rng.integers(1, 3))):
            q, r, s = (str(x) for x in rng.permutation(qubits))
            roll = rng.random()
            if roll < 0.3:
                lines.append(f"measure {q} then {{ {r} *= H }} else {{ {r} *= S }}")
            elif roll < 0.5:
                lines.append(f"new qbit t\nt *= H\nif t then {{ skip }} "
                             f"else {{ {q} *= X }}\ndiscard t")
            elif roll < 0.7:
                theta = math.pi / 4 + float(rng.uniform(0.6e-12, 1.2e-12))
                c, sn = math.cos(theta), math.sin(theta)
                lines.append(f"new qbit t\nt *= [[{c!r}, {-sn!r}], [{sn!r}, {c!r}]]\n"
                             f"discard t\n{q} *= H")
            elif roll < 0.85:
                lines.append(f"case ({q}, {r}) of |00> -> {{ measure {s} then {{ skip }} "
                             f"else {{ {s} *= X }} }} |_> -> {{ {s} *= H }}")
            else:
                lines.append("discard b0\nnew bit b0")
        for _ in range(int(rng.integers(1, 7))):
            q, r = (str(x) for x in rng.permutation(qubits)[:2])
            if rng.random() < 0.3:
                lines.append(f"if {q} then {{ {r} *= H }} else {{ {r} *= Rk(3) }}")
            else:
                lines.append(_neutral_stmt(rng, qubits, set(), 2))
    return "\n".join(lines)


class TestFusedRuns:
    """A block keeps one raw product per operator of the set a run of
    one-operator steps starts from; its sets are those of composing every
    step in turn."""

    CTX = Context.of(("q0", "qbit"), ("b0", "bit"), ("q1", "qbit"), ("q2", "qbit"))

    def test_bytes_equal_left_fold(self, monkeypatch):
        rng = np.random.default_rng(20240615)
        blocks = [_run_breaking_block(rng) for _ in range(100)]
        fused = [denote(src, self.CTX) for src in blocks]
        monkeypatch.setattr(semantics, "_denote_block", _fresh_block)
        for src, got in zip(blocks, fused):
            want = denote(src, self.CTX)
            assert got.output_ctx == want.output_ctx
            assert got.kraus == want.kraus, src

    def test_run_is_checked_once(self, monkeypatch):
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        composes = count_calls(monkeypatch, "compose", semantics)
        denote("q0 *= H\nnew bit c\nq1 *= X\n"
               "measure q0 then { skip } else { skip }\nq2 *= H\nq2 *= S", self.CTX)
        # three steps before the measurement ({H}, {|0>}, {X}); its arms'
        # identities, one {[1]} check for both, their sum and the
        # measurement; after it only S, since H was checked in this
        # denotation; the product of the first three steps; the one
        # composition, of the measurement; then the run after it, one
        # product per operator of its two, once
        assert len(composes) == 1
        assert len(makes) == 3 + 3 + 1 + 1 + 1 + 1 == 10

    @pytest.mark.parametrize("gate", [
        # the discard leaves {1.2e-12 I, I}; the first H takes 1.2e-12 I to
        # entries of 8.5e-13, which canonicalising drops
        "[[1, -1.2e-12], [1.2e-12, 1]]",
        # a rotation by pi/4 + 0.85e-12: the discard leaves cos I and sin I,
        # 1.2e-12 apart; after the first H they are 8.5e-13 apart and merge
        "[[0.7071067811859465, -0.7071067811871485], "
        "[0.7071067811871485, 0.7071067811859465]]",
    ])
    def test_a_run_closes_where_its_products_would_coalesce(self, monkeypatch, gate):
        ctx = Context.of(("q", "qbit"))
        prefix = f"new qbit t\nt *= {gate}\ndiscard t"
        src = prefix + "\nq *= H\nq *= H"
        before = denote(prefix, ctx).kraus
        assert len(before) == 2
        # a run kept open across the first H would be apart again after
        # the second and keep two operators
        hh = H @ H
        assert len(make_kraus(before.input_sig, before.output_sig,
                              [hh @ e for e in before.ops])) == 2
        got = denote(src, ctx)
        monkeypatch.setattr(semantics, "_denote_block", _fresh_block)
        want = denote(src, ctx)
        assert len(got.kraus) == 1
        assert got.kraus == want.kraus

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-3])
    def test_runs_after_sets_of_several_operators_equal_left_fold(self, monkeypatch, tol):
        rng = np.random.default_rng(20240620)
        blocks = [_set_then_run_block(rng) for _ in range(100)]
        answers = []

        def coalesces(ops):
            answers.append((len(ops), kraus.coalesces(ops)))
            return answers[-1][1]

        monkeypatch.setattr(semantics, "coalesces", coalesces)
        fused = []
        for src in blocks:
            try:
                fused.append(denote(src, self.CTX, tol))
            except TraceConditionViolated:
                fused.append(None)
        monkeypatch.setattr(semantics, "_denote_block", _fresh_block)
        checked = 0
        for src, got in zip(blocks, fused):
            try:
                want = denote(src, self.CTX, tol)
            except TraceConditionViolated:
                continue  # a run does not check its prefixes on their own
            checked += 1
            assert got is not None, src
            assert got.output_ctx == want.output_ctx
            assert got.kraus == want.kraus, src
        # at tol 1e-12 some merges fail the check in both: cos I and sin I
        # merge into sqrt(2) sin I when sin I comes first, 1 + 1.7e-12 on I
        assert checked >= 80
        # runs were kept open over sets of 2 to 16 operators, and closed
        # where something would drop or merge
        sizes = {n for n, answer in answers if not answer}
        assert min(sizes) == 2 and max(sizes) == 16
        assert any(answer for _, answer in answers)


def _layout_map(a: Context, b: Context) -> np.ndarray:
    """Entry g: the index in ``b`` of basis vector g of ``a``, two orders of
    one set of variables; each layout is the bits, then the qubits, each in
    allocation order, the first axis most significant."""
    axes_a, axes_b = a.bits() + a.qubits(), b.bits() + b.qubits()
    out = np.zeros(2 ** len(axes_a), dtype=int)
    for g in range(out.size):
        values = {name: get_bit(g, len(axes_a), i) for i, name in enumerate(axes_a)}
        out[g] = sum(values[name] << (len(axes_b) - 1 - i)
                     for i, name in enumerate(axes_b))
    return out


class TestLayoutCovariance:
    """A body denoted in two allocation orders of one context gives the same
    set once one result is moved into the other's layout and re-canonicalised."""

    A = Context.of(("q0", "qbit"), ("b0", "bit"), ("q1", "qbit"), ("q2", "qbit"))
    B = Context.of(("q2", "qbit"), ("q0", "qbit"), ("b0", "bit"), ("q1", "qbit"))

    def test_bytes_equal_after_the_move(self):
        rng = np.random.default_rng(20240616)
        qubits = ["q0", "q1", "q2"]
        for _ in range(300):
            lines = [_neutral_stmt(rng, qubits, set(), 0) for _ in range(4)]
            if rng.random() < 0.3:  # an allocation, discarded again or kept
                k = int(rng.integers(4))
                lines[k:k] = ["new qbit t\nt *= H", "discard t"][:int(rng.integers(1, 3))]
            if rng.random() < 0.3:
                lines.insert(int(rng.integers(5)), "new bit c")
            body = "\n".join(lines)
            a, b = denote(body, self.A), denote(body, self.B)
            rows = _layout_map(a.output_ctx, b.output_ctx)
            cols = _layout_map(self.A, self.B)
            moved = make_kraus(a.kraus.input_sig, a.kraus.output_sig,
                               [e[np.ix_(rows, cols)] for e in b.kraus.ops])
            assert moved == a.kraus, body


class TestPhaseVisibility:
    def test_branches_equal_but_alternations_differ(self):
        branch_ctx = Context.of(("q1", "qbit"))
        skip_k = denote("skip", branch_ctx).kraus
        phase_k = denote("q1 *= Phase(pi)", branch_ctx).kraus
        assert ext_equal(skip_k, phase_k)
        d = denote("if q0 then { skip } else { q1 *= Phase(pi) }", CTX_2)
        z_tensor_i = tensor(np.diag([1, -1]).astype(complex), ID2)
        assert np.abs(d.kraus.ops[0] - z_tensor_i).max() < 1e-12
        plain = denote("if q0 then { skip } else { skip }", CTX_2)
        assert not ext_equal(d.kraus, plain.kraus)

    @pytest.mark.parametrize("arm", ["skip", "q1 *= Phase(pi / 4)"])
    def test_alternation_is_the_denoted_if(self, arm):
        # the phase demo alternates the denoted branches directly
        branch_ctx = Context.of(("q1", "qbit"))
        skip_k = denote("skip", branch_ctx).kraus
        alt = alternate(skip_k, denote(arm, branch_ctx).kraus)
        d = denote(f"if q0 then {{ skip }} else {{ {arm} }}", CTX_2)
        assert (alt.input_sig, alt.output_sig) == (d.kraus.input_sig,
                                                   d.kraus.output_sig)
        assert [e.tobytes() for e in alt.ops] == [e.tobytes() for e in d.kraus.ops]


class TestEvalDirect:
    def test_empty_program_returns_initial(self):
        st = eval_direct("")
        assert st.blocks[0][0, 0] == 1.0

    def test_qft_uniform(self):
        ctx = qft_context(2)
        rho = DensityState(Signature((4,)), (np.diag([1.0, 0, 0, 0]),))
        st = eval_direct(gen_qft(2), rho, ctx)
        assert np.abs(st.blocks[0] - np.full((4, 4), 0.25)).max() < 1e-12

    def test_matches_run_on_deutsch(self):
        for bits in ("00", "01", "10", "11"):
            program = gen_deutsch(TruthTable.from_bits(bits))
            assert state_deviation(run(program), eval_direct(program)) < 1e-9

    def test_matches_run_with_bits_and_measure(self):
        src = ("new bit c\n"
               "new qbit q\n"
               "new qbit r\n"
               "q *= H\n"
               "measure q then { r *= X } else { skip }\n"
               "discard q")
        assert state_deviation(run(src), eval_direct(src)) < 1e-9

    def test_matches_run_measure_inside_quantum_if(self):
        src = ("if q0 then { measure q1 then { skip } else { skip } } "
               "else { q1 *= H }")
        rng = np.random.default_rng(41)
        for _ in range(5):
            rho = rand_density(rng, Signature((4,)))
            a = run(src, rho, CTX_2)
            b = eval_direct(src, rho, CTX_2)
            assert state_deviation(a, b) < 1e-9

    def test_matches_run_discard_inside_quantum_if(self):
        src = ("if q0 then { new qbit s\ns *= H\ndiscard s } "
               "else { q1 *= Phase(pi / 3) }")
        rng = np.random.default_rng(43)
        rho = rand_density(rng, Signature((4,)))
        a = run(src, rho, CTX_2)
        b = eval_direct(src, rho, CTX_2)
        assert state_deviation(a, b) < 1e-9

    def test_matches_run_nested_case(self):
        src = ("case (q0, q1) of |00> -> {{ q2 *= H }} |01> -> {{ q2 *= X }} "
               "|10> -> {{ q2 *= Phase(pi / 5) }} |11> -> {{ skip }}")
        rng = np.random.default_rng(47)
        rho = rand_density(rng, Signature((8,)))
        a = run(src.format(), rho, CTX_3)
        b = eval_direct(src.format(), rho, CTX_3)
        assert state_deviation(a, b) < 1e-9

    def test_matches_run_bit_allocating_branches(self):
        # the alternation output has more blocks than its input
        src = "if q0 then { new bit c } else { new bit c }"
        rng = np.random.default_rng(53)
        rho = rand_density(rng, Signature((4,)))
        a = run(src, rho, CTX_2)
        b = eval_direct(src, rho, CTX_2)
        assert a.signature == Signature((4, 4))
        assert state_deviation(a, b) < 1e-9

    def test_matches_run_out_of_order_controls(self):
        src = ("case (q2, q0) of |00> -> { q1 *= H } |01> -> { skip } "
               "|10> -> { q1 *= X } |11> -> { q1 *= Phase(pi / 7) }")
        rng = np.random.default_rng(59)
        rho = rand_density(rng, Signature((8,)))
        a = run(src, rho, CTX_3)
        b = eval_direct(src, rho, CTX_3)
        assert state_deviation(a, b) < 1e-9

    def test_matches_run_case_with_arms_of_1_2_and_4_operators(self):
        arms = ["q2 *= H",
                "measure q3 then { skip } else { q2 *= X }",
                "if q2 then { measure q3 then { skip } else { skip } } "
                "else { measure q3 then { q3 *= H } else { skip } }",
                "skip"]
        inner = Context.of(("q2", "qbit"), ("q3", "qbit"))
        assert [len(denote(arm, inner).kraus) for arm in arms] == [1, 2, 4, 1]
        src = "case (q0, q1) of " + " ".join(
            f"|{k:02b}> -> {{ {arm} }}" for k, arm in enumerate(arms))
        rng = np.random.default_rng(67)
        for _ in range(5):
            rho = rand_density(rng, signature_of(CTX_4))
            a = run(src, rho, CTX_4)
            b = eval_direct(src, rho, CTX_4)
            assert state_deviation(a, b) < 1e-9

    # no nested alternation: an arm's own denotation goes through case_elements
    INDEPENDENCE = [
        ("if q0 then { measure q1 then { skip } else { skip } } "
         "else { measure q2 then { q1 *= H } else { skip } }", CTX_3),
        ("case (q0, q1) of |00> -> { measure q2 then { skip } else { q3 *= X } } "
         "|01> -> { q2 *= H } "
         "|10> -> { measure q3 then { q2 *= Phase(pi / 3) } else { skip } } "
         "|11> -> { skip }", CTX_4),
    ]

    @pytest.mark.parametrize("mutation", ["scale_by_all_sizes", "swap_values_0_1"])
    @pytest.mark.parametrize("src, ctx", INDEPENDENCE, ids=["if", "case4"])
    def test_independent_of_case_elements(self, monkeypatch, mutation, src, ctx):
        original = kraus.case_elements

        def scale_by_all_sizes(branches, n):
            scale = math.sqrt(math.prod(len(b) for b in branches if b.ops))
            return [e / scale for e in original(branches, n)]

        def swap_values_0_1(branches, n):
            swapped = list(branches)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            return original(swapped, n)

        rho = rand_density(np.random.default_rng(71), signature_of(ctx))
        via_kraus, direct = run(src, rho, ctx), eval_direct(src, rho, ctx)
        assert state_deviation(via_kraus, direct) < 1e-9
        mutants = {"scale_by_all_sizes": scale_by_all_sizes,
                   "swap_values_0_1": swap_values_0_1}
        for owner in (kraus, semantics):
            monkeypatch.setattr(owner, "case_elements", mutants[mutation])
        mutated_direct = eval_direct(src, rho, ctx)
        assert state_deviation(mutated_direct, direct) == 0.0
        assert state_deviation(run(src, rho, ctx), mutated_direct) > 1e-9

    # at 1e-300 the final check decides on rounding: the streamed rho is off
    # Hermitian (H;H) or off positive (H (x) H) by rounding, and eval_direct
    # must end in a typed error, never a bare ValueError
    @pytest.mark.parametrize("src", ["new qbit q0\nq0 *= H\nq0 *= H",
                                     "new qbit q0\nq0 *= H\nnew qbit q1\nq1 *= H"])
    def test_rounding_level_final_check_is_typed(self, src):
        with pytest.raises(SemanticError, match="final state") as info:
            eval_direct(src, None, None, 1e-300)
        assert isinstance(info.value.__cause__, ValueError)
        assert state_deviation(run(src), eval_direct(src)) < 1e-15

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 5: at 1e-300 denote checks a composed arm whose sum E'E "
        "rounds above I, a set eval_direct never forms"))
    def test_denote_agrees_with_eval_direct_at_rounding_level(self):
        # which arm rounds above I depends on the BLAS kernels: the first on
        # AVX-512, the second on the AVX2 (Haswell) ones
        for arm in ("q0 *= H q0 *= Rk(2)", "q0 *= H q0 *= Phase(pi / 3)"):
            src = f"new qbit q0\nmeasure q0 then {{ {arm} }} else {{ skip }}"
            states = []
            for evaluate in (run, eval_direct):
                try:
                    states.append(evaluate(src, None, None, 1e-300))
                except TraceConditionViolated:
                    states.append(None)
            via_kraus, direct = states
            assert (via_kraus is None) == (direct is None), arm
            if direct is not None:
                assert state_deviation(via_kraus, direct) < 1e-15


class TestTypecheckOnce:
    SRC = ("new bit c\nif q0 then { new qbit s\ns *= H\ndiscard s } "
           "else { measure q1 then { skip } else { q1 *= X } }")

    @pytest.mark.parametrize("evaluate", [
        lambda src, rho: denote(src, CTX_2),
        lambda src, rho: run(src, rho, CTX_2),
        lambda src, rho: eval_direct(src, rho, CTX_2),
    ], ids=["denote", "run", "eval_direct"])
    def test_one_typecheck_per_call(self, monkeypatch, evaluate):
        calls = []

        def counting_elaborate(program):
            core = elaborate(program)
            calls.append(("elaborate", program, core))
            return core

        def counting_typecheck(program, initial=None):
            calls.append(("typecheck", program))
            return typecheck(program, initial)
        monkeypatch.setattr(semantics, "elaborate", counting_elaborate)
        monkeypatch.setattr(semantics, "typecheck", counting_typecheck)
        rho = rand_density(np.random.default_rng(61), Signature((4,)))
        evaluate(self.SRC, rho)
        # elaborate runs once, then typecheck once, on elaborate's result
        assert [call[0] for call in calls] == ["elaborate", "typecheck"]
        assert calls[1][1] is calls[0][2]


class TestPositivityCounts:
    """The Gershgorin bound keeps every positivity check and drops the
    eigendecompositions of trace-preserving residuals."""

    def test_chain8_denote_makes_no_eigendecomposition(self, monkeypatch):
        lines = [f"q{i} *= H" for i in range(8)]
        lines += [f"if q{i} then {{ skip }} else {{ q{i + 1} *= {p} }}"
                  for i, p in enumerate("XZYXZYX")]
        ctx = Context.of(*((f"q{i}", "qbit") for i in range(8)))
        psd = count_calls(monkeypatch, "is_psd", kraus)
        eig = count_calls(monkeypatch, "eigvalsh", np.linalg)
        denote("\n".join(lines), ctx)
        # each distinct one-operator primitive once per denotation: the
        # gates H, X, Z and Y as {U} and the skip arms' {[1]}; the
        # alternations' one elements are not checked again, and the block,
        # a single run of one-operator steps, once at full width
        assert len(psd) == 4 + 1 + 1 == 6
        assert sorted(len(m) for m, _ in psd) == [1] + [2] * 4 + [256]
        assert not eig


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except TraceConditionViolated:
        return True
    return False


def _chain(m: int, paulis: str) -> str:
    lines = [f"q{i} *= H" for i in range(m)]
    lines += [f"if q{i} then {{ skip }} else {{ q{i + 1} *= {p} }}"
              for i, p in enumerate(paulis)]
    return "\n".join(lines)


class TestSmallChecks:
    """A one-operator step (gate, skip, allocation, alternation of
    one-operator arms) is checked on the smallest space that fixes its
    operator, and is the set make_kraus builds from that operator."""

    TOLS = [1e-300, 1e-12, 1e-9, 1e-3]
    CTX = Context.of(("c", "bit"), ("a", "qbit"), ("b", "qbit"))
    # U'U = I + 2e-10 on the second diagonal entry: over 1e-12, within 1e-9
    NEAR = "[[1, 0], [0, 1.0000000001]]"

    @staticmethod
    def programs():
        rng = np.random.default_rng(20241019)
        jobs = [(random_program(rng), Context.empty()) for _ in range(60)]
        jobs += [(looped_program(rng), Context.empty()) for _ in range(15)]
        jobs += generated_programs()
        ctx = Context.of(("b", "bit"), *((f"q{i}", "qbit") for i in range(4)))
        jobs += [(_chain(4, paulis), ctx) for paulis in ("XYZ", "ZZX")]
        return jobs

    def test_one_operator_steps_are_what_make_kraus_builds(self, monkeypatch):
        original = semantics._denote_stmt
        steps = []

        def recording(stmt, ctx, tol):
            step, out = original(stmt, ctx, tol)
            if len(step.ops) == 1:
                steps.append((type(stmt).__name__, step, tol))
            return step, out
        monkeypatch.setattr(semantics, "_denote_stmt", recording)
        for program, ctx in self.programs():
            denote(program, ctx)
        assert {kind for kind, _, _ in steps} >= {
            "Skip", "NewQbit", "NewBit", "ApplyGate", "QCase"}
        for _, step, tol in steps:
            assert step == make_kraus(step.input_sig, step.output_sig, step.ops, tol)

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("src", [
        "skip", "new qbit t", "new bit t", "a *= H", f"a *= {NEAR}",
        "if a then { skip } else { b *= X }",
        f"if a then {{ b *= H }} else {{ b *= {NEAR} }}",
    ])
    def test_denote_raises_exactly_when_the_full_width_check_does(self, src, tol):
        full = denote(src, self.CTX).kraus  # passes at the default tol
        assert _raises(denote, src, self.CTX, tol) == _raises(
            make_kraus, full.input_sig, full.output_sig, full.ops, tol)

    @pytest.mark.parametrize("tol", TOLS)
    def test_a_gate_is_decided_on_its_own_matrix(self, tol):
        # T'T is I up to rounding that depends on the product's kernel: a
        # 2x2 product can leave a 1e-17 imaginary part on its diagonal where
        # a wider one leaves none.  At tol = 1e-300 that rounding decides the
        # check, and the decision is {T}'s whatever the context's width.
        t = NAMED_GATES["T"]
        want = _raises(make_kraus, Signature((2,)), Signature((2,)), [t], tol)
        for ctx in (Context.of(("a", "qbit")), self.CTX):
            assert _raises(denote, "a *= T", ctx, tol) == want
        if tol >= 1e-12:
            assert not want


def _gate_checks(calls) -> list:
    """The checks of a primitive's small set among recorded ``make_kraus``
    calls, as the shape and bytes of its one operator."""
    return [(np.shape(ops[0]), np.asarray(ops[0]).tobytes()) for _, _, ops, *_ in calls
            if len(ops) == 1 and np.shape(ops[0]) in ((1, 1), (2, 1), (2, 2))]


class TestOneCheckPerPrimitive:
    """Each `denote`, `run` or `eval_direct` call checks each distinct
    one-operator primitive (a gate node, {[1]}, {|0>}) once, before any set
    is built; no call depends on an earlier one."""

    CTX = TestSmallChecks.CTX
    NEAR = TestSmallChecks.NEAR
    PHASE = Signature((2,)), Signature((2,)), [NAMED_GATES["T"]]

    def test_each_distinct_primitive_once_per_call(self, monkeypatch):
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        src = ("a *= H\nb *= H\nskip\nif a then { b *= H } else { skip }\n"
               "new qbit t\nnew bit u\nt *= X\ndiscard t\ndiscard u\nb *= X")
        denote(src, self.CTX)
        first = _gate_checks(makes)
        # H, {[1]}, {|0>} and X, once each
        assert sorted(shape for shape, _ in first) == [(1, 1), (2, 1), (2, 2), (2, 2)]
        del makes[:]
        denote(src, self.CTX)
        assert _gate_checks(makes) == first  # a second call checks again

    def test_a_second_call_at_a_smaller_tol_checks_again(self):
        near = f"a *= {self.NEAR}"
        denote(near, self.CTX, 1e-9)
        with pytest.raises(TraceConditionViolated):
            denote(near, self.CTX, 1e-12)
        # whether T'T rounds away from I at 1e-300 depends on the BLAS
        # kernel; the second call decides as the check of {T} alone does
        want = _raises(make_kraus, *self.PHASE, 1e-300)
        assert not _raises(denote, "a *= Phase(pi / 4)", self.CTX, 1e-9)
        assert _raises(denote, "a *= Phase(pi / 4)", self.CTX, 1e-300) == want

    def test_a_denotation_that_raises_leaves_no_state(self, monkeypatch):
        rho = rand_density(np.random.default_rng(3), Signature((4, 4)))
        src = f"a *= H\nif a then {{ b *= {self.NEAR} }} else {{ skip }}"
        for call in (lambda: denote(src, self.CTX, 1e-12),
                     lambda: eval_direct(src, rho, self.CTX, 1e-12)):
            with pytest.raises(TraceConditionViolated):
                call()
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        denote("a *= H", self.CTX, 1e-12)
        assert len(_gate_checks(makes)) == 1

    def test_every_call_checks_each_gate_once(self, monkeypatch):
        rho = rand_density(np.random.default_rng(6), Signature((4, 4)))
        calls = (lambda src, tol: denote(src, self.CTX, tol),
                 lambda src, tol: run(src, rho, self.CTX, tol),
                 lambda src, tol: eval_direct(src, rho, self.CTX, tol))
        src = "a *= H\nb *= H\nfor i = 1 to 3 { a *= H\nb *= X }"
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        for call in calls:
            for _ in range(2):
                del makes[:]
                call(src, 1e-9)
                assert len(_gate_checks(makes)) == 2  # H and X
        near = f"a *= H\nb *= {self.NEAR}"
        for call in calls:
            call(near, 1e-9)
            with pytest.raises(TraceConditionViolated):
                call(near, 1e-12)

    @pytest.mark.parametrize("trace", [1.0, 0.5])
    def test_a_top_level_gate_is_checked_by_both_evaluators(self, trace):
        ctx = Context.of(("a", "qbit"))
        rho = rand_density(np.random.default_rng(7), Signature((2,)), trace=trace)
        src = f"a *= {self.NEAR}"
        for call in (run, eval_direct):
            with pytest.raises(TraceConditionViolated):
                call(src, rho, ctx, 1e-12)
            call(src, rho, ctx, 1e-9)

    def test_eval_direct_checks_a_top_level_skip(self, monkeypatch):
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        eval_direct("skip\nskip")
        assert [shape for shape, _ in _gate_checks(makes)] == [(1, 1)]

    def test_eval_direct_checks_each_gate_of_its_arms(self, monkeypatch):
        rho = rand_density(np.random.default_rng(4), Signature((4, 4)))
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        eval_direct("if a then { b *= H } else { b *= X }\n"
                    "if a then { b *= X } else { b *= H }", rho, self.CTX)
        assert len(_gate_checks(makes)) == 2  # H and X, once each

    @pytest.mark.parametrize("src", [
        "b *= {near}",
        "b *= {near}\nif a then {{ b *= {near} }} else {{ skip }}",
        "if a then {{ b *= {near} }} else {{ skip }}",
        "if a then {{ b *= {near} }} else {{ skip }}\nb *= {near}",
        "a *= H\nif a then {{ skip }} else {{ b *= {near} }}\nb *= H",
    ])
    def test_a_failing_gate_raises_wherever_it_first_occurs(self, src):
        src = src.format(near=self.NEAR)
        rho = rand_density(np.random.default_rng(5), Signature((4, 4)))
        for tol in (1e-12, 1e-300):
            with pytest.raises(TraceConditionViolated):
                denote(src, self.CTX, tol)
            with pytest.raises(TraceConditionViolated):
                run(src, rho, self.CTX, tol)
            with pytest.raises(TraceConditionViolated):
                eval_direct(src, rho, self.CTX, tol)
        denote(src, self.CTX, 1e-9)


class TestStepMemo:
    """A block denotes each repeated (statement, context) pair once."""

    CTX_A = Context.of(("a", "qbit"))

    @staticmethod
    def op_bytes(d):
        return [x.tobytes() for x in d.kraus.ops]

    def test_loop_embeds_its_gate_once(self, monkeypatch):
        embeds = count_calls(monkeypatch, "embed_gate", semantics)
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        denote("for i = 1 to 50 { a *= H }", self.CTX_A)
        assert len(embeds) == 1
        # the one step, then one check of the run's product
        assert len(makes) == 2

    def test_context_is_part_of_the_key(self, monkeypatch):
        steps = count_calls(monkeypatch, "_denote_stmt", semantics)
        denote("a *= H\nnew qbit b\na *= H", self.CTX_A)
        assert len([s for s, _, _ in steps if isinstance(s, ast.ApplyGate)]) == 2

    @pytest.mark.parametrize("x, y", [
        ("Phase(0.1)", "Phase(0.1000000000000001)"),
        ("[[1, 0], [0, 1]]", "[[1, -0.0], [0, 1]]"),
        ("Phase(0.0)", "Phase(-0.0)"),
    ])
    def test_literals_differing_in_the_last_bit_are_separate(self, monkeypatch,
                                                             x, y):
        src = "\n".join(f"a *= {g}" for g in (x, y, x, y))
        steps = count_calls(monkeypatch, "_denote_stmt", semantics)
        got = denote(src, self.CTX_A)
        assert len(steps) == 2
        monkeypatch.setattr(semantics, "MEMO_BYTES", 0)
        assert self.op_bytes(got) == self.op_bytes(denote(src, self.CTX_A))

    def test_without_budget_every_statement_is_denoted(self, monkeypatch):
        src = ("for i = 1 to 5 { a *= H\n"
               "if a then { b *= X\nb *= X } else { skip } }")
        ctx = Context.of(("a", "qbit"), ("b", "qbit"))
        steps = count_calls(monkeypatch, "_denote_stmt", semantics)
        memoised = denote(src, ctx)
        # the gate and the if once, and in the if's arms the repeated X once
        # and the skip
        assert len(steps) == 2 + 2
        monkeypatch.setattr(semantics, "MEMO_BYTES", 0)
        del steps[:]
        fresh = denote(src, ctx)
        # ten statements, and three in the arms of each of the five ifs
        assert len(steps) == 10 + 5 * 3
        assert self.op_bytes(memoised) == self.op_bytes(fresh)

    def test_budget_bounds_the_kept_steps(self, monkeypatch):
        # room for one 2x2 local step: a's is kept, b's is built twice
        monkeypatch.setattr(semantics, "MEMO_BYTES", 2 * 2 * 16)
        steps = count_calls(monkeypatch, "_denote_stmt", semantics)
        denote("a *= H\nb *= H\na *= H\nb *= H",
               Context.of(("a", "qbit"), ("b", "qbit")))
        assert [args[0].targets[0].base for args in steps] == ["a", "b", "b"]


def _dense_block(block, ctx):
    """A one-statement (or empty) block's operator at full width, built from
    ``embed_gate`` and ``case_elements`` alone, with no local form."""
    if not block or isinstance(block[0], ast.Skip):
        return np.eye(dim(signature_of(ctx)), dtype=complex)
    (stmt,) = block
    names = ctx.bits() + ctx.qubits()
    if isinstance(stmt, ast.ApplyGate):
        u = semantics._gate_matrix(stmt.gate)
        return embed_gate(u, [names.index(t.base) for t in stmt.targets], len(names))
    controls = [c.base for c in stmt.controls]
    inner, _ = control_contexts(ctx, controls)
    sig = signature_of(inner)
    arms = [make_kraus(sig, sig, [_dense_block(arm.block, inner)]) for arm in stmt.arms]
    at = np.ix_(leading_permutation(ctx, controls), leading_permutation(ctx, controls))
    return kraus.case_elements(arms, len(controls))[0][at]


PHASED_SWAP = ("[[0, 0, -1, 0], [0, 0, 0, 0.6 + 0.8i], "
               "[1, 0, 0, 0], [0, -0.8 + 0.6i, 0, 0]]")


def _dj_case(rng) -> str:
    arms = rng.choice(["", "skip", "q4 *= X", "q4 *= H", "q4 *= Rk(2)"], size=16)
    return "case (q0, q1, q2, q3) of " + " ".join(
        f"|{k:04b}> -> {{ {arm} }}" for k, arm in enumerate(arms))


class TestLocalProducts:
    """A gate or an alternation of one-operator arms is applied on its own
    axes; its products, sets and states agree with the dense full-width
    operator built from ``embed_gate`` and ``case_elements``."""

    # bits between the qubits in allocation order; axes b0 b1 q0 .. q4
    CTX = Context.of(("q0", "qbit"), ("b0", "bit"), ("q1", "qbit"), ("q2", "qbit"),
                     ("b1", "bit"), ("q3", "qbit"), ("q4", "qbit"))
    PREFIX = "measure q3 then { q1 *= H } else { q2 *= S }"  # two operators
    STEPS = ([f"q{i} *= {g}" for i in range(5) for g in ("H", "Y", "Rk(3)")]
             + [f"q{i}, q{j} *= {PHASED_SWAP}"
                for i, j in itertools.permutations(range(5), 2)]
             + ["if q1 then { skip } else { q2 *= X }",      # a CNOT link
                "if q3 then { skip } else { q0 *= Rk(3) }",  # the QFT's Rk
                "if q4 then { skip } else { if q0 then { skip } else { q2 *= X } }",
                _dj_case(np.random.default_rng(20241020))])

    @pytest.mark.parametrize("src", STEPS)
    def test_products_match_the_dense_operator(self, src):
        stmt = elaborate(parse(src)).body[0]
        step, _ = semantics._denote_stmt(stmt, self.CTX, 1e-9)
        assert isinstance(step, kraus.LocalKraus)
        dense = _dense_block([stmt], self.CTX)
        rng = np.random.default_rng(len(src))
        d = dim(signature_of(self.CTX))
        ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        got = step.times(ops)
        assert np.abs(got - [dense @ p for p in ops]).max() <= 1e-14
        assert np.abs(step.ops[0] - dense).max() == 0

    @pytest.mark.parametrize("src", STEPS)
    def test_sets_and_states_match(self, src):
        stmt = elaborate(parse(src)).body[0]
        before = denote(self.PREFIX, self.CTX).kraus
        want = make_kraus(before.input_sig, before.output_sig,
                          [_dense_block([stmt], self.CTX) @ e for e in before.ops])
        got = denote(f"{self.PREFIX}\n{src}", self.CTX).kraus
        # the same count, and the same canonical order, entry by entry
        assert len(got) == len(want) == 2
        for x, y in zip(got.ops, want.ops):
            assert np.abs(x - y).max() <= 1e-14
        rho = rand_density(np.random.default_rng(len(src)), signature_of(self.CTX))
        program = f"{self.PREFIX}\n{src}"
        assert state_deviation(run(program, rho, self.CTX),
                               eval_direct(program, rho, self.CTX)) < 1e-9

    def test_steps_after_allocating_from_the_empty_context(self):
        # operands of one column: d_in = 1
        alloc = "new qbit a\nnew qbit b\nnew qbit c"
        steps = ["b *= H", f"c, a *= {PHASED_SWAP}", "a *= Y",
                 "if c then { skip } else { a *= H }"]
        ctx = Context.of(("a", "qbit"), ("b", "qbit"), ("c", "qbit"))
        want = denote(alloc).kraus.ops
        for src in steps:
            dense = _dense_block(elaborate(parse(src)).body, ctx)
            want = [dense @ e for e in want]
        program = "\n".join([alloc] + steps)
        got = denote(program).kraus
        assert len(got) == len(want) == 1
        assert got.ops[0].shape == (8, 1)
        assert np.abs(got.ops[0] - want[0]).max() <= 1e-14
        assert state_deviation(run(program), eval_direct(program)) < 1e-9


class TestLocalCounts:
    """A local step builds its full-width operator only when it is read."""

    def test_chain10_embeds_its_first_gate_only(self, monkeypatch):
        embeds = count_calls(monkeypatch, "embed_gate", semantics)
        leads = count_calls(monkeypatch, "leading_permutation", semantics)
        ctx = Context.of(*((f"q{i}", "qbit") for i in range(10)))
        denote(_chain(10, "XZYXZYXZY"), ctx)
        assert [args[1] for args in embeds] == [[0]]
        assert not leads

    def test_loop_in_a_wide_context_builds_one_full_width_gate(self, monkeypatch):
        embeds = count_calls(monkeypatch, "embed_gate", semantics)
        makes = count_calls(monkeypatch, "make_kraus", semantics, kraus)
        ctx = Context.of(*((f"q{i}", "qbit") for i in range(5)), ("a", "qbit"))
        denote("for i = 1 to 50 { a *= H }", ctx)
        assert len(embeds) == 1
        # the gate's {H}, then the run's one full-width check
        assert [m[2][0].shape for m in makes] == [(2, 2), (64, 64)]


class TestCaseControlOrder:
    def test_first_label_bit_is_first_listed_control(self):
        from qalt.core import NAMED_GATES, embed_gate, phase_gate
        src = ("case (q2, q0) of |00> -> { q1 *= H } |01> -> { skip } "
               "|10> -> { q1 *= X } |11> -> { q1 *= Phase(pi / 7) }")
        d = denote(src, CTX_3)

        def proj(pos, v):
            p = np.diag([1.0, 0.0]) if v == 0 else np.diag([0.0, 1.0])
            return embed_gate(p, [pos], 3)

        arm_gates = {(0, 0): NAMED_GATES["H"], (0, 1): np.eye(2),
                     (1, 0): NAMED_GATES["X"], (1, 1): phase_gate(math.pi / 7)}
        expected = np.zeros((8, 8), dtype=complex)
        for (v2, v0), gate in arm_gates.items():
            expected += proj(2, v2) @ proj(0, v0) @ embed_gate(gate, [1], 3)
        assert np.abs(d.kraus.ops[0] - expected).max() == 0.0


class TestOutcomeProbability:
    def test_joint_versus_marginal(self):
        rng = np.random.default_rng(53)
        rho = rand_density(rng, Signature((4,)))
        p_joint = (outcome_probability(rho, CTX_2, {"q0": 0, "q1": 0})
                   + outcome_probability(rho, CTX_2, {"q0": 0, "q1": 1}))
        p0, _ = measure_stats(rho, "q0", CTX_2)
        assert p_joint == pytest.approx(p0, abs=1e-10)

    def test_sums_over_every_block(self):
        # two bits: four blocks, each contributing its matching diagonal
        rng = np.random.default_rng(61)
        ctx = Context.of(("q", "qbit"), ("b", "bit"), ("r", "qbit"), ("c", "bit"))
        rho = rand_density(rng, signature_of(ctx), trace=0.8)
        diag = np.concatenate([np.diag(block).real for block in rho.blocks])

        def expected(**values):
            return sum(float(diag[g]) for g in range(16)
                       if all(get_bit(g % 4, 2, ["q", "r"].index(n)) == v
                              for n, v in values.items()))

        for vq, vr in itertools.product((0, 1), repeat=2):
            got = outcome_probability(rho, ctx, {"q": vq, "r": vr})
            assert got == pytest.approx(expected(q=vq, r=vr), abs=1e-14)
        assert measure_stats(rho, "r", ctx) == pytest.approx(
            (expected(r=0), expected(r=1)), abs=1e-14)
        assert outcome_probability(rho, ctx, {}) == pytest.approx(0.8, abs=1e-12)
        assert outcome_probability(rho, ctx, {"q": 2}) == 0.0

    def test_unknown_and_kind_errors(self):
        rho = rand_density(np.random.default_rng(67), Signature((2, 2)))
        ctx = Context.of(("b", "bit"), ("q", "qbit"))
        with pytest.raises(UnknownName):
            outcome_probability(rho, ctx, {"q": 0, "nope": 1})
        with pytest.raises(KindError):
            outcome_probability(rho, ctx, {"b": 0})

    def test_state_of_another_signature(self):
        # (2, 2) is the layout of one bit and one qubit, not of two qubits
        rho = rand_density(np.random.default_rng(68), Signature((2, 2)))
        with pytest.raises(SignatureMismatch, match="state does not match"):
            outcome_probability(rho, CTX_2, {"q0": 0})
        with pytest.raises(SignatureMismatch, match="initial state does not match"):
            eval_direct("skip", rho, CTX_2)


class TestLeadingPermutation:
    def test_identity_when_control_leads(self):
        assert np.array_equal(leading_permutation(CTX_2, ["q0"]), np.arange(4))

    def test_swap_when_control_trails(self):
        perm = leading_permutation(CTX_2, ["q1"])
        assert np.array_equal(perm, [0, 2, 1, 3])

    def test_order_matches_bit_arithmetic(self):
        for ctx in mixed_contexts():
            qubits = ctx.qubits()
            m, k = len(qubits), len(ctx.bits())
            for r in range(m + 1):
                for controls in itertools.permutations(qubits, r):
                    lead = ([qubits.index(c) for c in controls]
                            + [i for i, q in enumerate(qubits) if q not in controls])
                    want = []
                    for g in range(2 ** (k + m)):
                        blk, x = divmod(g, 2 ** m)
                        y = 0
                        for i in lead:
                            y = (y << 1) | get_bit(x, m, i)
                        want.append(blk * 2 ** m + y)
                    got = leading_permutation(ctx, list(controls))
                    assert got.tolist() == want, (ctx, controls)

    def test_permutation(self):
        ctx = Context.of(("b", "bit"), ("x", "qbit"), ("y", "qbit"), ("z", "qbit"))
        perm = leading_permutation(ctx, ["z", "x"])
        assert np.array_equal(np.sort(perm), np.arange(16))
