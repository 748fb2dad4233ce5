"""The benchmark's workloads: job lists made from a seed, each job with checks.

Four job lists -- ``corpus``, ``wide_chain``, ``branchy`` and
``long_program`` -- are combined into the two workloads of :data:`WORKLOADS`.

A job is one user-level call into qalt -- ``denote``, ``run``, an
``ext_equal``/``lowner_leq`` verdict on two denoted programs, or an
in-process ``qalt`` command -- plus the checks its output must pass.
Everything a job needs (program text, initial states, the denotations a
verdict compares, source files for the command line) is made when the list
is built, outside the timed region.  The same seed always gives the same
list.

Closed forms are built here with plain numpy, never with qalt.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import reduce

import numpy as np

import qalt
import qalt.cli
from qalt import Context, DensityState, Signature
from qalt.corpus import (TruthTable, balanced_tables, bit_reversal_permutation,
                         constant_tables, dft_matrix, gen_deutsch, gen_deutsch_jozsa,
                         gen_grover_oracle, gen_qft, oracle_context, qft_context,
                         toffoli_matrix)

import checks

SQ2 = math.sqrt(2)
I2 = np.eye(2, dtype=complex)
PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
         "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2
WITNESS = (1 - math.sqrt(5)) / 4
#: The phase of the twins behind dense_ops' verdicts.  It is fixed, not
#: drawn from the seed: those verdicts are few and short, and the time of
#: an eigendecomposition of a near-zero Choi difference depends on its
#: rounding noise, so a seeded phase moved compare_ms by up to 30% from
#: seed to seed.
VERDICT_PHASE = 1.0


@dataclass
class Job:
    """One user-level call and the checks on its output."""

    kind: str          # "denote" | "run" | "compare" | "cli"
    label: str         # unique within a workload
    call: object       # () -> output
    check: object      # output -> list of problems
    fingerprint: object  # output -> JSON-able value compared with the reference
    input_digest: str = ""  # cli only: digest of argv and input files


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats, np.eye(1, dtype=complex))


def block_diag(mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for m in mats:
        k = m.shape[0]
        out[off:off + k, off:off + k] = m
        off += k
    return out


def qubits(names) -> Context:
    return Context(tuple((n, "qbit") for n in names))


def rand_state(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def density(rho: np.ndarray) -> DensityState:
    return DensityState(Signature((rho.shape[0],)), (rho,))


def measured(rho: np.ndarray, pos: int, m: int) -> np.ndarray:
    """rho after a non-selective measurement of qubit ``pos`` of ``m``."""
    out = np.zeros_like(rho)
    for v in (0, 1):
        p = kron_all([I2] * pos + [np.diag([1 - v, v]).astype(complex)]
                     + [I2] * (m - pos - 1))
        out += p @ rho @ p
    return out


def denotation_check(closed_form=None):
    """Checks for a Denotation: canonical form, then the closed form if any."""
    def check(d):
        ops = d.kraus.ops
        problems = checks.canonical_problems(ops, qalt.dim(d.kraus.input_sig))
        if closed_form is not None:
            problems += checks.same_ops(ops, closed_form, "denote")
        return problems
    return check


def state_check(expected=None):
    """Checks for a run: trace preserved, then the closed form if any."""
    def check(state):
        if expected is None:
            return checks.close(state.trace(), 1.0, "run: trace")
        return checks.state_problems(state, expected, 1.0, "run")
    return check


def denote_job(label, src, ctx, closed_form=None) -> Job:
    return Job("denote", label, lambda: qalt.denote(src, ctx),
               denotation_check(closed_form),
               lambda d: {"ops": checks.sketch(d.kraus.ops)})


def run_job(label, src, ctx, rho=None, expected=None) -> Job:
    initial = density(rho) if rho is not None else None
    return Job("run", label, lambda: qalt.run(src, initial, ctx),
               state_check(expected),
               lambda s: {"blocks": checks.sketch(s.blocks)})


def compare_jobs(label, src, twins, ctx,
                 verdicts=("ext_equal", "lowner_leq")) -> list[Job]:
    """Verdicts between a program and twins whose verdict is known.

    ``twins`` maps a twin's name to (source, expected verdict); the same
    verdict holds for both ext_equal and lowner_leq for every twin used here.
    The denotations are made now, so a job times the verdict alone.
    """
    base = qalt.denote(src, ctx).kraus
    jobs = []
    for name, (twin_src, expected) in twins.items():
        twin = qalt.denote(twin_src, ctx).kraus
        for verdict in verdicts:
            def call(verdict=verdict, twin=twin):
                return getattr(qalt, verdict)(base, twin)

            def check(got, expected=expected, what=f"{verdict} vs {name}"):
                return [] if got is expected else [f"{what}: got {got}"]
            jobs.append(Job("compare", f"{label}.{verdict}.{name}", call, check,
                            lambda got: {"verdict": bool(got)}))
    return jobs


def phase_twins(src: str, probe: str, target: str, theta: float) -> dict:
    """A global-phase twin (same map) and an alternated-phase twin (not).

    A phase on the whole program is invisible.  The same phase alternated
    under ``probe`` is the rotation R = diag(1, e^(i theta)) on ``probe``.
    When theta is not a multiple of 2 pi, R after the program changes the
    map, and no difference of the two maps is completely positive, if the
    program is unitary or if it leaves ``probe`` alone and is not zero.
    """
    return {
        "global_phase": (f"{src}\n{target} *= Phase({theta!r})", True),
        "alternated_phase": (f"{src}\nif {probe} then {{ skip }} else "
                             f"{{ {target} *= Phase({theta!r}) }}", False),
    }


# ---------------------------------------------------------------------------
# In-process command line
# ---------------------------------------------------------------------------

def invoke_cli(argv) -> tuple[int, str]:
    """Run ``qalt <argv>`` in this process; return (exit code, stdout).

    The command ends by raising SystemExit in every case (click's standalone
    mode), so the exit code is an outcome to compare, not an error.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            qalt.cli.main.main(args=list(argv), prog_name="qalt",
                               standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 1)
    return code, out.getvalue()


def decode_ops(result: dict) -> list[np.ndarray]:
    return [np.array([[complex(re, im) for re, im in row] for row in op])
            for op in result["operators"]]


def cli_job(label, argv, files: dict, workdir: str, expected_code: int,
            check_doc) -> Job:
    """A ``qalt`` command over input files written into ``workdir``.

    ``files`` maps a key to (file name, contents); ``{key}`` in ``argv``
    becomes the file's path relative to the checkout root, so the command
    line, and with it the output, is the same in every checkout.
    """
    paths = {}
    for key, (name, text) in files.items():
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        paths[key] = path
    argv = [a.format(**paths) for a in argv] + ["--format", "structured"]
    digest = checks.digest(json.dumps([argv, sorted(files.items())]))

    def check(output):
        code, text = output
        if code != expected_code:
            return [f"exit code {code}, expected {expected_code}"]
        doc = json.loads(text)
        if doc.get("schema") != "qalt-output/1":
            return ["structured output without the qalt-output/1 schema"]
        return check_doc(doc["result"])

    def fingerprint(output):
        code, text = output
        fp = {"exit": code, "sha256": checks.digest(text)}
        if argv[0] == "denote" and code == 0:
            fp["ops"] = checks.sketch(decode_ops(json.loads(text)["result"]))
        return fp

    return Job("cli", label, lambda: invoke_cli(argv), check, fingerprint, digest)


def cli_denote_check(closed_form=None):
    def check(result):
        ops = decode_ops(result)
        d_in = sum(result["input_signature"])
        problems = checks.canonical_problems(ops, d_in)
        if closed_form is not None:
            problems += checks.same_ops(ops, closed_form, "qalt denote")
        return problems
    return check


def verdict_check(expected: bool):
    def check(result):
        got = result["verdict"]
        return [] if got is expected else [f"verdict {got}, expected {expected}"]
    return check


# ---------------------------------------------------------------------------
# corpus: the paper's own programs
# ---------------------------------------------------------------------------

def oracle_gate(bit: int) -> np.ndarray:
    return PAULI["X"] if bit else I2


def dj_vector(values) -> np.ndarray:
    """Closed-form output of the Deutsch(-Jozsa) program for a truth table."""
    n = (len(values) - 1).bit_length()
    hn = kron_all([HAD] * n)
    prep = np.kron(hn, HAD @ PAULI["X"])
    oracle = block_diag([oracle_gate(v) for v in values])
    start = np.zeros(2 ** (n + 1), dtype=complex)
    start[0] = 1.0
    return (np.kron(hn, I2) @ oracle @ prep @ start).reshape(-1, 1)


def _demo_checks():
    def rows(key, field):
        def check(result):
            problems = []
            for row in result[key]:
                want = 1.0 if row["constant"] else 0.0
                problems += checks.close(row[field], want, f"{key} f={row['f']}")
            return problems
        return check

    def qft(result):
        bad = [r["n"] for r in result["qft"] if not r["max_deviation"] <= checks.TOL]
        return [f"qft demo deviates for n={bad}"] if bad else []

    def toffoli(result):
        return [] if result["toffoli"]["exact"] is True else ["toffoli not exact"]

    def nonmonotone(result):
        r = result["nonmonotone"]
        problems = checks.close(r["witness_eigenvalue"], WITNESS, "witness")
        if (r["zero_below_t"], r["s_below_s"], r["alternation_monotone"]) != (
                True, True, False):
            problems.append(f"nonmonotone verdicts {r}")
        return problems

    def phase(result):
        r = result["phase"]
        if (r["branches_equal"], r["alternations_equal"]) != (True, False):
            return [f"phase verdicts {r}"]
        return [] if r["witness_distance"] > checks.TOL else ["phase witness is 0"]

    return {"deutsch": rows("deutsch", "p0"), "dj": rows("deutsch_jozsa", "p_zeros"),
            "qft": qft, "toffoli": toffoli, "nonmonotone": nonmonotone,
            "phase": phase}


def build_corpus(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    empty = Context.empty()
    jobs = []
    deutsch_src = {}
    for bits in ("00", "01", "10", "11"):
        table = TruthTable.from_bits(bits)
        src = qalt.pretty(gen_deutsch(table))
        deutsch_src[bits] = src
        psi = dj_vector(table.values)
        jobs.append(denote_job(f"deutsch.{bits}.denote", src, empty, [psi]))
        jobs.append(run_job(f"deutsch.{bits}.run", src, empty,
                            expected=psi @ psi.conj().T))
        msrc = src + "\nmeasure q0 then { skip } else { skip }"
        proj = [np.kron(np.diag([1 - v, v]), I2) @ psi for v in (0, 1)]
        jobs.append(denote_job(f"deutsch.{bits}.measured.denote", msrc, empty, proj))
        jobs.append(run_job(f"deutsch.{bits}.measured.run", msrc, empty,
                            expected=sum(p @ p.conj().T for p in proj)))
    for n in range(1, 5):
        balanced = balanced_tables(n)
        picks = rng.choice(len(balanced), size=min(2, len(balanced)), replace=False)
        for table in constant_tables(n) + [balanced[i] for i in sorted(picks)]:
            bits = "".join(map(str, table.values))
            src = qalt.pretty(gen_deutsch_jozsa(table))
            psi = dj_vector(table.values)
            jobs.append(denote_job(f"dj{n}.{bits}.denote", src, empty, [psi]))
            jobs.append(run_job(f"dj{n}.{bits}.run", src, empty,
                                expected=psi @ psi.conj().T))
    for n in range(1, 7):
        src, ctx = qalt.pretty(gen_qft(n)), qft_context(n)
        u = bit_reversal_permutation(n) @ dft_matrix(n)
        rho = rand_state(rng, 2 ** n)
        jobs.append(denote_job(f"qft{n}.denote", src, ctx, [u]))
        jobs.append(run_job(f"qft{n}.run", src, ctx, rho, u @ rho @ u.conj().T))
    # a measured QFT gives the workload a two-operator set, so the canonical
    # order is checked here too
    u = bit_reversal_permutation(3) @ dft_matrix(3)
    msrc = qalt.pretty(gen_qft(3)) + "\nmeasure q1 then { skip } else { skip }"
    proj = [kron_all([np.diag([1 - v, v]), I2, I2]) @ u for v in (0, 1)]
    jobs.append(denote_job("qft3.measured.denote", msrc, qft_context(3), proj))
    toffoli_ctx = qubits(["q0", "q1", "q2"])
    u = toffoli_matrix()
    rho = rand_state(rng, 8)
    jobs.append(denote_job("toffoli.denote", qalt.cli.TOFFOLI_SOURCE, toffoli_ctx, [u]))
    jobs.append(run_job("toffoli.run", qalt.cli.TOFFOLI_SOURCE, toffoli_ctx, rho,
                        u @ rho @ u.conj().T))
    for n in range(1, 4):
        x0 = int(rng.integers(2 ** n))
        src, ctx = qalt.pretty(gen_grover_oracle(x0, n)), oracle_context(n)
        u = block_diag([oracle_gate(x == x0) for x in range(2 ** n)])
        rho = rand_state(rng, 2 ** (n + 1))
        jobs.append(denote_job(f"oracle{n}.denote", src, ctx, [u]))
        jobs.append(run_job(f"oracle{n}.run", src, ctx, rho, u @ rho @ u.conj().T))
    # Deutsch outputs for f and not-f differ by the phase -1: same map.
    for a, b, same in (("00", "11", True), ("01", "10", True), ("00", "01", False)):
        jobs += compare_jobs(f"deutsch.{a}", deutsch_src[a],
                             {f"deutsch.{b}": (deutsch_src[b], same)}, empty)
    qft4 = qalt.pretty(gen_qft(4))
    jobs += compare_jobs("qft4", qft4, phase_twins(qft4, "q1", "q2", VERDICT_PHASE),
                         qft_context(4))
    demo_checks = _demo_checks()
    for name in sorted(demo_checks):
        jobs.append(cli_job(f"demo.{name}", ["demo", name], {}, workdir, 0,
                            demo_checks[name]))
    table = ["01", "10"][int(rng.integers(2))]
    jobs.append(cli_job(f"demo.deutsch.{table}", ["demo", "deutsch", "--f", table],
                        {}, workdir, 0, demo_checks["deutsch"]))
    return jobs


# ---------------------------------------------------------------------------
# wide_chain: CNOT-like chains on m = 6..8 qubits
# ---------------------------------------------------------------------------

def chain_source(paulis) -> str:
    m = len(paulis) + 1
    lines = [f"q{i} *= H" for i in range(m)]
    lines += [f"if q{i} then {{ skip }} else {{ q{i + 1} *= {p} }}"
              for i, p in enumerate(paulis)]
    return "\n".join(lines)


def chain_unitary(paulis) -> np.ndarray:
    m = len(paulis) + 1
    u = kron_all([HAD] * m)
    for i, p in enumerate(paulis):
        link = block_diag([I2, PAULI[p]])
        u = kron_all([np.eye(2 ** i), link, np.eye(2 ** (m - i - 2))]) @ u
    return u


def chain_ctx(m: int) -> Context:
    return qubits([f"q{i}" for i in range(m)])


def build_wide_chain(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 2])

    def paulis(m):
        return [str(p) for p in rng.choice(list(PAULI), size=m - 1)]

    jobs = []
    for m in (6, 7, 8):
        links = paulis(m)
        jobs.append(denote_job(f"chain{m}.denote", chain_source(links), chain_ctx(m),
                               [chain_unitary(links)]))
    for m in (6, 7):
        links = paulis(m)
        src = chain_source(links) + f"\nmeasure q{m - 1} then {{ skip }} else {{ skip }}"
        u = chain_unitary(links)
        rho = rand_state(rng, 2 ** m)
        jobs.append(run_job(f"chain{m}.measured.run", src, chain_ctx(m), rho,
                            measured(u @ rho @ u.conj().T, m - 1, m)))
    # A Choi member is 4^m wide; verdicts stay at m <= 4 to keep a pass short.
    # They run on the CNOT chain, whose time does not depend on the seed.
    for m in (3, 4):
        src = chain_source(["X"] * (m - 1))
        jobs += compare_jobs(f"chain{m}", src,
                             phase_twins(src, "q0", "q1", VERDICT_PHASE), chain_ctx(m))
    for m, links, name in ((7, ["X"] * 6, "canonical"), (6, paulis(6), "seeded")):
        jobs.append(cli_job(
            f"chain{m}.{name}.cli_denote",
            ["denote", "{prog}", "--ctx", chain_ctx(m).describe()],
            {"prog": (f"chain{m}_{name}.q", chain_source(links))}, workdir, 0,
            cli_denote_check([chain_unitary(links)])))
    return jobs


def warmup_wide_chain() -> Job:
    return denote_job("warmup", chain_source(["X"] * 6), chain_ctx(7))


# ---------------------------------------------------------------------------
# branchy: measurement and discard nested inside alternations
# ---------------------------------------------------------------------------

NAMED = ["H", "X", "Y", "Z", "S", "T"]

#: (work qubits, segment kinds) of each program, by program index.  The
#: structure is fixed, so every seed gives programs of the same shape.
TEMPLATES = [
    (2, ["layer", "if", "if", "measure", "if"]),
    (3, ["layer", "if", "case", "measure", "if"]),
    (4, ["layer", "case", "if", "measure"]),
    (3, ["layer", "case", "if", "if"]),
]


class _Branchy:
    """Random program text.

    The seed draws gates and angles only.  Which qubit plays which role
    follows a fixed rotation through the register, and gates inside
    alternation branches are rotations by a random angle, so no two
    operators coincide by accident: a program's Kraus count, and with it its
    cost, depends on its template alone.
    """

    def __init__(self, rng, n_work: int):
        self.rng = rng
        self.work = [f"w{i}" for i in range(n_work)]
        self.ancillas = itertools.count()
        self.noisy_kinds = itertools.cycle(["measure", "ancilla"])
        self.turn = itertools.count()

    def gate(self) -> str:
        r = self.rng.random()
        if r < 0.6:
            return NAMED[int(self.rng.integers(len(NAMED)))]
        if r < 0.8:
            return f"Rk({int(self.rng.integers(2, 6))})"
        return f"Phase({float(self.rng.uniform(0.1, 3.0)):.6f})"

    def rotation(self) -> str:
        theta = float(self.rng.uniform(0.2, 3.0))
        c, s = math.cos(theta), math.sin(theta)
        return f"[[{c!r}, {-s!r}], [{s!r}, {c!r}]]"

    def pick(self, pool, k=1):
        first = next(self.turn)
        return [pool[(first + j) % len(pool)] for j in range(k)]

    def noisy(self, pool) -> str:
        """A statement with two Kraus operators: a measurement or an ancilla."""
        q = self.pick(pool)[0]
        if next(self.noisy_kinds) == "measure":
            return (f"measure {q} then {{ {q} *= {self.rotation()} }} "
                    f"else {{ {q} *= {self.rotation()} }}")
        t = f"a{next(self.ancillas)}"
        return (f"new qbit {t} {t} *= H if {t} then {{ skip }} else "
                f"{{ {q} *= {self.rotation()} }} discard {t}")

    def unitary(self, pool) -> str:
        return f"{self.pick(pool)[0]} *= {self.rotation()}"

    def segment(self, kind: str) -> str:
        if kind == "layer":
            return "\n".join(f"{q} *= {self.gate()}" for q in self.work)
        if kind == "if":
            c = self.pick(self.work)[0]
            rest = [q for q in self.work if q != c]
            return (f"if {c} then {{ {self.noisy(rest)} }} else "
                    f"{{ {self.unitary(rest)} {self.noisy(rest)} }}")
        if kind == "case":
            c1, c2 = self.pick(self.work, 2)
            rest = [q for q in self.work if q not in (c1, c2)]
            arms = [self.noisy(rest), self.unitary(rest), self.noisy(rest),
                    f"{self.unitary(rest)} {self.noisy(rest)}"]
            labels = ["|00>", "|01>", "|10>", "|_>"]
            body = " ".join(f"{lab} -> {{ {arm} }}" for lab, arm in zip(labels, arms))
            return f"case ({c1}, {c2}) of {body}"
        if kind == "measure":
            m, c, t = self.pick(self.work, 3) if len(self.work) > 2 else (
                self.work[0], self.work[0], self.work[1])
            if c == m:
                return (f"measure {m} then {{ {t} *= {self.rotation()} }} "
                        f"else {{ {t} *= {self.rotation()} }}")
            return (f"measure {m} then {{ if {c} then {{ skip }} else "
                    f"{{ {t} *= {self.rotation()} }} }} else "
                    f"{{ {t} *= {self.rotation()} }}")
        raise ValueError(kind)


def branchy_program(rng, index: int) -> tuple[str, Context]:
    """Program ``index`` and its context: work qubits plus an idle probe ``p``."""
    n_work, kinds = TEMPLATES[index % len(TEMPLATES)]
    gen = _Branchy(rng, n_work)
    src = "\n".join(gen.segment(k) for k in kinds)
    return src, qubits(gen.work + ["p"])


def build_branchy(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for i in range(len(TEMPLATES)):
        src, ctx = branchy_program(rng, i)
        d = 2 ** len(ctx.entries)
        theta = float(rng.uniform(0.3, 2.8))
        twins = phase_twins(src, "p", "w0", theta)
        jobs.append(denote_job(f"prog{i}.denote", src, ctx))
        jobs.append(run_job(f"prog{i}.run", src, ctx, rand_state(rng, d)))
        # On five qubits a Loewner check is an eigendecomposition of a
        # 1024-wide Choi member; ext_equal alone keeps the pass short there.
        wide = len(ctx.entries) > 4
        jobs += compare_jobs(f"prog{i}", src, twins, ctx,
                             ("ext_equal",) if wide else ("ext_equal", "lowner_leq"))
        commands = [("equiv", "alternated_phase")]
        if not wide:
            commands.append(("order", "global_phase"))
        for command, name in commands:
            twin_src, same = twins[name]
            files = {"a": (f"prog{i}.q", src), "b": (f"prog{i}_{name}.q", twin_src)}
            jobs.append(cli_job(
                f"prog{i}.cli_{command}.{name}",
                [command, "{a}", "{b}", "--ctx", ctx.describe()],
                files, workdir, 0 if same else 2, verdict_check(same)))
    demo = _demo_checks()["phase"]
    jobs.append(cli_job("demo.phase", ["demo", "phase"], {}, workdir, 0, demo))
    return jobs


def warmup_branchy() -> Job:
    src, ctx = branchy_program(np.random.default_rng(0), 1)
    return denote_job("warmup", src, ctx)


# ---------------------------------------------------------------------------
# long_program: thousands of statements on 1-3 qubits
# ---------------------------------------------------------------------------

def long_literal(rng, names, n: int, measures: int) -> str:
    """``n`` statements: gates, controlled gates, and ``measures`` measurements."""
    gen = _Branchy(rng, 0)
    at = set(int(x) for x in np.linspace(n // 2, n - 1, measures)) if measures else set()
    lines = []
    for i in range(n):
        c, t = (str(q) for q in rng.choice(names, size=2, replace=len(names) < 2))
        if i in at:
            lines.append(f"measure {t} then {{ skip }} else {{ {t} *= X }}")
        elif len(names) > 1 and rng.random() < 0.2:
            lines.append(f"if {c} then {{ skip }} else {{ {t} *= {gen.gate()} }}")
        else:
            lines.append(f"{t} *= {gen.gate()}")
    return "\n".join(lines)


def build_long_program(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, 4])
    gen = _Branchy(rng, 0)
    ab, abc = qubits(["a", "b"]), qubits(["a", "b", "c"])
    jobs = []
    literal = long_literal(rng, ["a", "b"], 2000, 2)
    jobs.append(denote_job("literal2000.denote", literal, ab))
    loop = (f"for i = 1 to 500 {{ a *= {gen.gate()} b *= {gen.gate()} "
            f"if a then {{ skip }} else {{ b *= {gen.gate()} }} }}")
    jobs.append(denote_job("loop1500.denote", loop, ab))
    literal3 = long_literal(rng, ["a", "b", "c"], 600, 1)
    jobs.append(run_job("literal600.run", literal3, abc, rand_state(rng, 8)))
    probe_src = (f"for i = 1 to 150 {{ a *= {gen.gate()} "
                 f"if a then {{ skip }} else {{ b *= {gen.gate()} }} }}")
    jobs += compare_jobs("loop300", probe_src,
                         phase_twins(probe_src, "c", "a", float(rng.uniform(0.3, 2.8))),
                         abc)
    rho = rand_state(rng, 8)
    init = json.dumps({"signature": [8], "blocks": [
        [[[float(z.real), float(z.imag)] for z in row] for row in rho]]})
    jobs.append(cli_job("literal600.cli_run",
                        ["run", "{prog}", "--ctx", "a:qbit,b:qbit,c:qbit",
                         "--init", "{init}"],
                        {"prog": ("literal600.q", literal3), "init": ("init.json", init)},
                        workdir, 0,
                        lambda r: checks.close(r["state"]["trace"], 1.0, "trace")))
    jobs.append(cli_job("loop1000.canonical.cli_denote",
                        ["denote", "{prog}", "--ctx", "a:qbit"],
                        {"prog": ("loop1000.q", "for i = 1 to 1000 { a *= H }")},
                        workdir, 0,
                        cli_denote_check([I2])))
    return jobs


def _parts(**job_lists):
    """A workload made of several job lists, labels prefixed by part name."""
    def build(seed: int, workdir: str) -> list[Job]:
        jobs = []
        for part, make in job_lists.items():
            for job in make(seed, workdir):
                job.label = f"{part}.{job.label}"
                jobs.append(job)
        return jobs
    return build


#: Two workloads of two parts each.  On the 2-core VM this was tuned on, a
#: many_ops pass takes 5-9 s, so a run needs about 50 s for steady per-job
#: medians, and only two workloads that long fit 22 repeated runs each into
#: an hour.  Each pairing keeps a contrast: ``dense_ops`` has few,
#: wide operators (dimension up to 256, no coalescing, JSON-heavy commands),
#: ``many_ops`` many small operators and many statements (coalescing,
#: sorting, Choi verdicts, the front end and per-call overhead).
WORKLOADS = {
    "dense_ops": (_parts(corpus=build_corpus, wide_chain=build_wide_chain),
                  warmup_wide_chain),
    "many_ops": (_parts(branchy=build_branchy, long_program=build_long_program),
                 warmup_branchy),
}
