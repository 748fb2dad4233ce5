import pickle

import numpy as np
import pytest

from helpers import state_deviation
from qalt import (
    Context,
    TruthTable,
    balanced_tables,
    bit_reversal_permutation,
    cnot_matrix,
    constant_tables,
    denote,
    dft_matrix,
    elaborate,
    eval_direct,
    gen_deutsch,
    gen_deutsch_jozsa,
    gen_grover_oracle,
    gen_qft,
    measure_stats,
    oracle_context,
    outcome_probability,
    parse,
    qft_context,
    run,
    toffoli_matrix,
    typecheck,
)
from qalt.cli import TOFFOLI_SOURCE
from qalt.errors import UnsupportedArity


class TestTruthTable:
    def test_from_bits(self):
        t = TruthTable.from_bits("0110")
        assert t.n == 2
        assert t(0) == 0 and t(1) == 1 and t(2) == 1 and t(3) == 0

    def test_classification(self):
        assert TruthTable.from_bits("11").is_constant
        assert TruthTable.from_bits("01").is_balanced
        assert not TruthTable.from_bits("0111").is_balanced

    def test_enumerators(self):
        assert len(constant_tables(2)) == 2
        assert len(balanced_tables(2)) == 6
        assert len(balanced_tables(3)) == 70
        assert all(t.is_balanced for t in balanced_tables(3))

    def test_bad_table(self):
        with pytest.raises(ValueError):
            TruthTable(2, (0, 1, 1))


def generated_programs():
    """Every corpus generator's programs, each with its initial context."""
    jobs = [(gen_deutsch(f), Context.empty())
            for f in constant_tables(1) + balanced_tables(1)]
    jobs += [(gen_deutsch_jozsa(f), Context.empty())
             for n in (1, 2, 3, 4)
             for f in constant_tables(n) + balanced_tables(n)[:2]]
    jobs += [(gen_qft(n), qft_context(n)) for n in range(1, 7)]
    jobs += [(gen_grover_oracle(x0, n), oracle_context(n))
             for n in (1, 2, 3) for x0 in range(2 ** n)]
    jobs += [(parse(TOFFOLI_SOURCE),
              Context.of(("q0", "qbit"), ("q1", "qbit"), ("q2", "qbit")))]
    return jobs


class TestGenerators:
    def test_all_generated_programs_typecheck_and_elaborate(self):
        # the typechecker's rule for the core agrees with the contexts
        # the semantics works out as it goes
        for program, ctx in generated_programs():
            assert typecheck(elaborate(program), ctx) == denote(program, ctx).output_ctx

    def test_typecheck_leaves_programs_unchanged(self):
        for program, ctx in generated_programs():
            before = pickle.dumps(program)
            core = elaborate(program)
            assert pickle.dumps(program) == before
            before = pickle.dumps(core)
            typecheck(core, ctx)
            assert pickle.dumps(core) == before

    def test_deutsch_statement_shape(self):
        program = gen_deutsch(TruthTable.from_bits("01"))
        kinds = [type(s).__name__ for s in program.body]
        assert kinds == ["NewQbit", "NewQbit", "ApplyGate", "ApplyGate",
                         "ApplyGate", "QIf", "ApplyGate"]

    def test_arity_caps(self):
        with pytest.raises(UnsupportedArity):
            gen_deutsch(TruthTable.from_bits("0110"))
        with pytest.raises(UnsupportedArity):
            gen_deutsch_jozsa(TruthTable(5, (0,) * 32))
        with pytest.raises(UnsupportedArity):
            gen_qft(7)
        with pytest.raises(UnsupportedArity):
            gen_grover_oracle(0, 4)

    @pytest.mark.parametrize("generate, message", [
        (lambda: gen_deutsch_jozsa(TruthTable.from_bits("0")),
         "deutsch-jozsa supports 1 <= n <= 4, got n=0"),
        (lambda: gen_qft(0), "qft supports 1 <= n <= 6, got n=0"),
        (lambda: gen_grover_oracle(0, 0), "search oracle supports 1 <= n <= 3, got n=0"),
    ], ids=["dj", "qft", "grover"])
    def test_arity_message_states_both_bounds(self, generate, message):
        with pytest.raises(UnsupportedArity) as info:
            generate()
        assert str(info.value) == message

    def test_qft_operation_count(self):
        for n in (1, 2, 3, 4):
            core = elaborate(gen_qft(n))
            typecheck(core, qft_context(n))
            kinds = [type(s).__name__ for s in core.body]
            assert kinds.count("ApplyGate") == n
            cases = [s for s in core.body if type(s).__name__ == "QCase"]
            assert [len(s.controls) for s in cases] == [1] * (n * (n - 1) // 2)
            assert "QIf" not in kinds


class TestDeutschDecision:
    @pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
    def test_decision_probability(self, bits):
        f = TruthTable.from_bits(bits)
        program = gen_deutsch(f)
        d = denote(program)
        # independent oracle: interference amplitude sum_x (-1)^f(x) / 2
        amp = sum((-1) ** f(x) for x in (0, 1)) / 2
        expected = abs(amp) ** 2
        p0, _ = measure_stats(run(program), "q0", d.output_ctx)
        assert p0 == pytest.approx(expected, abs=1e-9)


class TestDeutschJozsaDecision:
    @pytest.mark.parametrize("n", [2, 3])
    def test_decision_probability(self, n):
        tables = constant_tables(n) + balanced_tables(n)[::7][:8]
        for f in tables:
            program = gen_deutsch_jozsa(f)
            d = denote(program)
            state = run(program)
            amp = sum((-1) ** f(x) for x in range(2 ** n)) / 2 ** n
            expected = abs(amp) ** 2
            assignment = {f"q0_{i}": 0 for i in range(n)}
            p = outcome_probability(state, d.output_ctx, assignment)
            assert p == pytest.approx(expected, abs=1e-9)
            assert expected == (1.0 if f.is_constant else 0.0)


class TestQftDenotation:
    def test_single_qubit_is_hadamard(self):
        d = denote(gen_qft(1), qft_context(1))
        assert np.abs(d.kraus.ops[0] - dft_matrix(1)).max() < 1e-12

    def test_n2_brute_force_pin(self):
        # frozen by hand: H(q1), controlled-R2(q2 -> q1), H(q2) on |q1 q2>
        expected = 0.5 * np.array(
            [[1, 1, 1, 1],
             [1, -1, 1, -1],
             [1, 1j, -1, -1j],
             [1, -1j, -1, 1j]])
        d = denote(gen_qft(2), qft_context(2))
        assert np.abs(d.kraus.ops[0] - expected).max() < 1e-12
        # which equals the bit-reversed DFT: row r is DFT row bitrev(r)
        assert np.abs(bit_reversal_permutation(2) @ dft_matrix(2)
                      - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_reversed_dft(self, n):
        d = denote(gen_qft(n), qft_context(n))
        ref = bit_reversal_permutation(n) @ dft_matrix(n)
        assert np.abs(d.kraus.ops[0] - ref).max() < 1e-10


class TestReferenceMatrices:
    def test_cnot(self):
        c = cnot_matrix()
        assert np.array_equal(c @ c, np.eye(4))
        assert np.array_equal(c[2:, 2:], [[0, 1], [1, 0]])

    def test_toffoli(self):
        t = toffoli_matrix()
        assert np.array_equal(t @ t, np.eye(8))
        assert t[6, 7] == 1 and t[7, 6] == 1

    def test_dft_unitary(self):
        for n in (1, 2, 3):
            m = dft_matrix(n)
            assert np.abs(m @ m.conj().T - np.eye(2 ** n)).max() < 1e-12

    def test_bit_reversal_involution(self):
        for n in (1, 2, 3):
            p = bit_reversal_permutation(n)
            assert np.array_equal(p @ p, np.eye(2 ** n))


class TestCrossEvaluatorOnCorpus:
    def test_deutsch_scaled_initial(self):
        rng = np.random.default_rng(71)
        from qalt import DensityState, Signature
        program = gen_deutsch(TruthTable.from_bits("10"))
        for _ in range(3):
            c = float(rng.uniform(0.2, 1.0))
            initial = DensityState(Signature((1,)), ([[c]],))
            a = run(program, initial)
            b = eval_direct(program, initial)
            assert state_deviation(a, b) < 1e-9

    def test_oracle_random_states(self):
        from helpers import rand_density
        rng = np.random.default_rng(73)
        program = gen_grover_oracle(1, 2)
        ctx = oracle_context(2)
        from qalt.semantics import signature_of
        for _ in range(3):
            rho = rand_density(rng, signature_of(ctx))
            a = run(program, rho, ctx)
            b = eval_direct(program, rho, ctx)
            assert state_deviation(a, b) < 1e-9
