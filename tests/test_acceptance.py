"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math

import numpy as np

from helpers import rand_density, rand_kraus, rand_unitary, state_deviation
from qalt import (
    Context,
    DensityState,
    Signature,
    TruthTable,
    alternate,
    alternation_stinespring,
    apply,
    apply_full,
    balanced_tables,
    bit_reversal_permutation,
    cnot_matrix,
    constant_tables,
    denote,
    dft_matrix,
    elaborate,
    eval_direct,
    ext_equal,
    from_stinespring,
    gen_deutsch,
    gen_deutsch_jozsa,
    gen_grover_oracle,
    gen_qft,
    is_reversible,
    lowner_leq,
    make_kraus,
    measure_stats,
    oracle_context,
    outcome_probability,
    qbit_tensor,
    qft_context,
    run,
    tensor,
    to_stinespring,
    toffoli_matrix,
    typecheck,
    verify_stinespring,
    zero_kraus,
)
from qalt.core import PI0, PI1
from qalt.errors import BranchContextMismatch, ControlCapture
from qalt.semantics import signature_of
from qalt.syntax import parse

Q = Signature((2,))


def report(number: int, name: str, ok: bool):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_01_controlled_u():
    ctx = Context.of(("q0", "qbit"), ("q1", "qbit"))
    d = denote("if q0 then { skip } else { q1 *= X }", ctx)
    ok = (len(d.kraus.ops) == 1
          and np.abs(d.kraus.ops[0] - cnot_matrix()).max() <= 1e-12)
    report(1, "controlled-U program denotes the standard CNOT", ok)


def test_02_toffoli():
    ctx = Context.of(("q0", "qbit"), ("q1", "qbit"), ("q2", "qbit"))
    src = "if q0 then { skip } else { if q1 then { skip } else { q2 *= X } }"
    d = denote(src, ctx)
    ok = (len(d.kraus.ops) == 1
          and np.abs(d.kraus.ops[0] - toffoli_matrix()).max() <= 1e-12)
    report(2, "nested-if program denotes the Toffoli permutation", ok)


def test_03_qft():
    # bit-reversal convention pinned by a brute-force n=2 state-vector build:
    # H on q1, controlled-R2 (control q2, target q1), H on q2.
    h, r2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.diag([1.0, 1j])
    cr2 = np.diag([1, 1, 1, 1]).astype(complex)
    cr2[3, 3] = 1j  # R2 on q1 when q2 = 1, basis |q1 q2>
    brute = np.kron(np.eye(2), h) @ cr2 @ np.kron(h, np.eye(2))
    pinned = bit_reversal_permutation(2) @ dft_matrix(2)
    ok = np.abs(brute - pinned).max() <= 1e-12
    for n in (1, 2, 3, 4):
        d = denote(gen_qft(n), qft_context(n))
        ref = bit_reversal_permutation(n) @ dft_matrix(n)
        ok = ok and len(d.kraus.ops) == 1
        ok = ok and np.abs(d.kraus.ops[0] - ref).max() <= 1e-10
    report(3, "QFT program equals the bit-reversed DFT for n=1..4", ok)


def test_04_deutsch():
    ok = True
    for bits in ("00", "01", "10", "11"):
        f = TruthTable.from_bits(bits)
        program = gen_deutsch(f)
        d = denote(program)
        p0, _ = measure_stats(run(program), "q0", d.output_ctx)
        expected = 1.0 if f.is_constant else 0.0
        ok = ok and abs(p0 - expected) <= 1e-9
    report(4, "Deutsch decides all four 1-bit functions", ok)


def test_05_deutsch_jozsa():
    ok = True
    for n in (2, 3):
        balanced = balanced_tables(n)
        sample = balanced if len(balanced) <= 8 else balanced[::11]
        tables = constant_tables(n) + sample
        assert sum(t.is_balanced for t in tables) >= 6
        for f in tables:
            program = gen_deutsch_jozsa(f)
            d = denote(program)
            state = run(program)
            p = outcome_probability(state, d.output_ctx,
                                    {f"q0_{i}": 0 for i in range(n)})
            expected = 1.0 if f.is_constant else 0.0
            ok = ok and abs(p - expected) <= 1e-9
    report(5, "Deutsch-Jozsa decides constant vs balanced for n=2,3", ok)


def test_06_condition_ii_classical_reduction():
    rng = np.random.default_rng(20240601)
    sigs = [Signature((2,)), Signature((4,)), Signature((2, 2)), Signature((3,))]
    ok = True
    for trial in range(100):
        sig = sigs[trial % len(sigs)]
        s = rand_kraus(rng, sig, size=int(rng.integers(1, 4)), scale=0.95)
        t = rand_kraus(rng, sig, size=int(rng.integers(1, 4)))
        rho = rand_density(rng, sig)
        i = trial % 2
        branch, proj = ((s, PI0), (t, PI1))[i]
        lifted = DensityState(qbit_tensor(sig),
                              tuple(tensor(proj, b) for b in rho.blocks))
        got = apply(alternate(s, t), lifted)
        local = apply(branch, rho)
        expected = tuple(tensor(proj, b) for b in local.blocks)
        dev = max(np.abs(g - e).max() for g, e in zip(got.blocks, expected))
        ok = ok and dev <= 1e-9
    report(6, "alternation reduces to a local map on classical controls "
              "(100 trials)", ok)


def test_07_condition_iii_reversibility():
    rng = np.random.default_rng(20240602)
    ok = True
    for trial in range(100):
        d = int(rng.choice([1, 2, 4]))
        sig = Signature((d,))
        u0 = make_kraus(sig, sig, [rand_unitary(rng, d)])
        u1 = make_kraus(sig, sig, [rand_unitary(rng, d)])
        alt = alternate(u0, u1)
        ok = ok and len(alt.ops) == 1 and is_reversible(alt, 1e-10)
    report(7, "alternation of singleton unitaries is singleton unitary "
              "(100 trials)", ok)


def test_08_kraus_condition_closure():
    rng = np.random.default_rng(20240603)
    ok = True
    for _ in range(100):
        s = rand_kraus(rng, Q, size=int(rng.integers(1, 4)),
                       scale=float(rng.uniform(0.3, 1.0)))
        t = rand_kraus(rng, Q, size=int(rng.integers(1, 4)),
                       scale=float(rng.uniform(0.3, 1.0)))
        alt = alternate(s, t)  # make_kraus validation runs inside
        top = float(np.linalg.eigvalsh(alt.completeness_sum()).max())
        ok = ok and top <= 1 + 1e-9
    for _ in range(100):
        s = rand_kraus(rng, Q, size=int(rng.integers(1, 4)))
        t = rand_kraus(rng, Q, size=int(rng.integers(1, 4)))
        alt = alternate(s, t)
        dev = float(np.abs(alt.completeness_sum() - np.eye(4)).max())
        ok = ok and dev <= 1e-9
    report(8, "alternation keeps the Kraus side condition and preserves "
              "trace preservation (100 trials each)", ok)


def test_09_phase_sensitivity():
    eye = make_kraus(Q, Q, [np.eye(2)])
    phased = make_kraus(Q, Q, [np.exp(1j * math.pi / 4) * np.eye(2)])
    ok = ext_equal(eye, phased)
    ok = ok and not ext_equal(alternate(eye, eye), alternate(eye, phased))
    rng = np.random.default_rng(20240604)
    for _ in range(50):
        u1, v1 = rand_unitary(rng, 2), rand_unitary(rng, 2)
        theta = float(rng.uniform(0, 2 * math.pi))
        u0 = np.exp(1j * theta) * u1
        v0 = np.exp(1j * theta) * v1
        same = ext_equal(
            alternate(make_kraus(Q, Q, [u0]), make_kraus(Q, Q, [v0])),
            alternate(make_kraus(Q, Q, [u1]), make_kraus(Q, Q, [v1])), 1e-9)
        delta = float(rng.uniform(0.3, math.pi))
        v_bad = np.exp(1j * (theta + delta)) * v1
        differ = not ext_equal(
            alternate(make_kraus(Q, Q, [u0]), make_kraus(Q, Q, [v_bad])),
            alternate(make_kraus(Q, Q, [u1]), make_kraus(Q, Q, [v1])), 1e-9)
        ok = ok and same and differ
    report(9, "alternation is extensionally equal iff branch phases match "
              "(50 trials, both directions)", ok)


def test_10_nonmonotonicity():
    one = Signature((1,))
    s = make_kraus(one, one, [np.eye(1)])
    t = make_kraus(one, one, [np.eye(1)])
    empty = zero_kraus(one, one)
    ok = lowner_leq(empty, t) and lowner_leq(s, s)
    ok = ok and not lowner_leq(alternate(s, empty), alternate(s, t))
    plus = DensityState(Signature((2,)), (np.full((2, 2), 0.5),))
    diff = (apply_full(alternate(s, t), plus.full())
            - apply_full(alternate(s, empty), plus.full()))
    witness = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2).min())
    ok = ok and abs(witness - (1 - math.sqrt(5)) / 4) <= 1e-9
    # the demo must report the same facts
    from qalt.cli import _demo_nonmonotone
    facts = _demo_nonmonotone(1e-9)[0]["nonmonotone"]
    ok = ok and facts["zero_below_t"] and facts["s_below_s"]
    ok = ok and not facts["alternation_monotone"]
    ok = ok and abs(facts["witness_eigenvalue"] - (1 - math.sqrt(5)) / 4) <= 1e-9
    report(10, "alternation is not monotone; witness eigenvalue (1-sqrt 5)/4",
           ok)


def test_11_stinespring():
    rng = np.random.default_rng(20240605)
    ok = True
    sigs = [Q, Signature((3,)), Signature((2, 2))]
    for trial in range(100):
        sig = sigs[trial % len(sigs)]
        s = rand_kraus(rng, sig, size=int(rng.integers(1, 4)),
                       scale=float(rng.uniform(0.5, 1.0)))
        rep = to_stinespring(s)
        ok = ok and verify_stinespring(s, rep, 1e-10)
        ok = ok and ext_equal(from_stinespring(rep), s, 1e-10)
    for _ in range(50):
        s = rand_kraus(rng, Q, size=int(rng.integers(1, 3)), scale=0.9)
        t = rand_kraus(rng, Q, size=int(rng.integers(1, 3)))
        rep = alternation_stinespring(s, t)
        ok = ok and verify_stinespring(alternate(s, t), rep, 1e-10)
        ok = ok and rep.ancilla_dim == (to_stinespring(t).ancilla_dim
                                        * to_stinespring(s).ancilla_dim)
    report(11, "Stinespring round trips, verifications, and the environment "
               "product law", ok)


def test_12_cross_evaluator():
    rng = np.random.default_rng(20240606)
    jobs = []
    for bits in ("00", "01", "10", "11"):
        jobs.append((gen_deutsch(TruthTable.from_bits(bits)), Context.empty()))
    for n in (2, 3):
        for f in constant_tables(n)[:1] + balanced_tables(n)[:2]:
            jobs.append((gen_deutsch_jozsa(f), Context.empty()))
    for n in (1, 2, 3, 4):
        jobs.append((gen_qft(n), qft_context(n)))
    for n in (1, 2, 3):
        for x0 in (0, 2 ** n - 1):
            jobs.append((gen_grover_oracle(x0, n), oracle_context(n)))
    ok = True
    for program, ctx in jobs:
        d = denote(program, ctx)
        for trial in range(20):
            if ctx.entries:
                rho = rand_density(rng, signature_of(ctx),
                                   trace=float(rng.uniform(0.3, 1.0)))
            else:
                rho = DensityState(Signature((1,)),
                                   ([[float(rng.uniform(0.1, 1.0))]],))
            if trial == 0:
                via_kraus = run(program, rho, ctx)
            else:
                via_kraus = apply(d.kraus, rho)
            direct = eval_direct(program, rho, ctx)
            ok = ok and state_deviation(via_kraus, direct) <= 1e-9
    report(12, "composed-Kraus and direct evaluators agree on the corpus "
               "(20 random states each)", ok)


def test_13_typing_rule():
    ok = False
    try:
        typecheck(elaborate(parse("if q then { q *= X } else { skip }")),
                  Context.of(("q", "qbit")))
    except ControlCapture as exc:
        ok = str(exc) == "branch mentions control qubit 'q'"
    mismatch_ok = False
    try:
        typecheck(elaborate(parse("if q0 then { discard q1 } else { skip }")),
                  Context.of(("q0", "qbit"), ("q1", "qbit")))
    except BranchContextMismatch as exc:
        mismatch_ok = str(exc) == ("branches produce different contexts: "
                                   "() vs (q1:qbit)")
    report(13, "typing rule rejects control capture and divergent branch "
               "contexts with golden messages", ok and mismatch_ok)
