import gc
import io
import json
import math
import re
import sys
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import count_calls
from qalt import (TruthTable, gen_deutsch, gen_deutsch_jozsa, gen_grover_oracle,
                  gen_qft, pretty)
from qalt import cli
from qalt.cli import SCHEMA, TOFFOLI_SOURCE, main
from qalt.core import DEFAULT_TOL
from qalt.syntax import KEYWORDS


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


class TestRun:
    def test_new_qbit(self, runner, tmp_path):
        src = write(tmp_path, "p.q", "new qbit q\n")
        result = runner.invoke(main, ["run", src, "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema"] == "qalt-output/1"
        assert doc["result"]["state"]["signature"] == [2]
        assert doc["result"]["state"]["blocks"][0] == [[[1.0, 0.0], [0.0, 0.0]],
                                                       [[0.0, 0.0], [0.0, 0.0]]]
        assert doc["result"]["state"]["trace"] == pytest.approx(1.0)

    def test_text_output_has_trace(self, runner, tmp_path):
        src = write(tmp_path, "p.q", "new qbit q\nq *= H\n")
        result = runner.invoke(main, ["run", src])
        assert result.exit_code == 0
        assert "trace: 1" in result.output

    def test_control_capture_exit_1(self, runner, tmp_path):
        src = write(tmp_path, "bad.q",
                    "new qbit q\nif q then { q *= X } else { skip }\n")
        result = runner.invoke(main, ["run", src])
        assert result.exit_code == 1
        assert "control qubit 'q'" in result.output

    def test_stats_elaborates_once(self, runner, tmp_path, monkeypatch):
        import qalt.check
        calls = count_calls(monkeypatch, "elaborate", *[
            module for name, module in sorted(sys.modules.items())
            if (name == "qalt" or name.startswith("qalt."))
            and getattr(module, "elaborate", None) is qalt.check.elaborate])
        src = write(tmp_path, "p.q", "new qbit q\nq *= H\n")
        result = runner.invoke(main, ["run", src, "--stats", "q"])
        assert result.exit_code == 0, result.output
        assert "Pr[q=0] = 0.5" in result.output
        # the output context comes from the one denotation `run` makes
        assert len(calls) == 1

    def test_deutsch_stats(self, runner, tmp_path):
        from qalt import TruthTable, gen_deutsch, pretty
        src = write(tmp_path, "deutsch.q",
                    pretty(gen_deutsch(TruthTable.from_bits("00"))))
        result = runner.invoke(main, ["run", src, "--stats", "q0",
                                      "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["result"]["stats"]["p0"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["nosuch", "b"])
    def test_stats_of_no_qubit_is_a_usage_error(self, runner, tmp_path, name):
        src = write(tmp_path, "p.q", "new qbit q\nnew bit b\nq *= H\n")
        result = runner.invoke(main, ["run", src, "--stats", name])
        assert result.exit_code == 2
        assert result.output == (f"error: --stats {name!r} names no qubit of "
                                 "the output context (q:qbit, b:bit)\n")

    def test_init_state_and_ctx(self, runner, tmp_path):
        src = write(tmp_path, "x.q", "q *= X\n")
        init = tmp_path / "init.json"
        init.write_text(json.dumps({
            "signature": [2],
            "blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        }), encoding="ascii")
        result = runner.invoke(main, ["run", src, "--ctx", "q:qbit",
                                      "--init", str(init),
                                      "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["result"]["state"]["blocks"][0][1][1] == [1.0, 0.0]

    def test_missing_file_exit_3(self, runner):
        result = runner.invoke(main, ["run", "/nonexistent/prog.q"])
        assert result.exit_code == 3

    def test_structured_output_deterministic(self, runner, tmp_path):
        from qalt import TruthTable, gen_deutsch_jozsa, pretty
        src = write(tmp_path, "dj.q",
                    pretty(gen_deutsch_jozsa(TruthTable.from_bits("0110"))))
        outs = set()
        for _ in range(2):
            result = runner.invoke(main, ["run", src, "--format", "structured"])
            assert result.exit_code == 0
            outs.add(result.output)
        assert len(outs) == 1


    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_in_process_output_is_not_retained(self, tmp_path, fmt):
        src = write(tmp_path, "p.q", "new qbit q\nq *= H\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            main.main(args=["run", src, "--format", fmt], standalone_mode=False)
            with pytest.raises(SystemExit):
                main.main(args=["run", src + "x"], standalone_mode=False)
        assert "trace" in out.getvalue()
        assert err.getvalue().startswith("error: ")
        refs = [weakref.ref(out), weakref.ref(err)]
        del out, err
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestDenote:
    def test_controlled_u(self, runner, tmp_path):
        src = write(tmp_path, "cx.q",
                    "if q0 then { skip } else { q1 *= X }\n")
        result = runner.invoke(main, ["denote", src,
                                      "--ctx", "q0:qbit,q1:qbit",
                                      "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        ops = doc["result"]["operators"]
        assert len(ops) == 1
        reals = [[entry[0] for entry in row] for row in ops[0]]
        assert reals == [[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]]

    def test_dephasing_two_operators(self, runner, tmp_path):
        src = write(tmp_path, "m.q", "measure q then { skip } else { skip }\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "q:qbit",
                                      "--format", "structured"])
        doc = json.loads(result.output)
        assert len(doc["result"]["operators"]) == 2

    def test_empty_program(self, runner, tmp_path):
        src = write(tmp_path, "empty.q", "// nothing here\n")
        result = runner.invoke(main, ["denote", src, "--format", "structured"])
        doc = json.loads(result.output)
        assert doc["result"]["input_signature"] == [1]
        assert doc["result"]["operators"] == [[[[1.0, 0.0]]]]

    def test_choi_flag(self, runner, tmp_path):
        src = write(tmp_path, "id.q", "skip\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "q:qbit",
                                      "--choi", "--format", "structured"])
        doc = json.loads(result.output)
        choi = doc["result"]["choi"][0]
        assert choi[0][0] == [1.0, 0.0]
        assert choi[0][3] == [1.0, 0.0]


class TestEquivAndOrder:
    def test_global_phase_equivalent(self, runner, tmp_path):
        a = write(tmp_path, "a.q", "q1 *= Phase(pi / 4)\n")
        b = write(tmp_path, "b.q", "skip\n")
        result = runner.invoke(main, ["equiv", a, b, "--ctx", "q1:qbit"])
        assert result.exit_code == 0
        assert "True" in result.output

    def test_alternations_not_equivalent(self, runner, tmp_path):
        a = write(tmp_path, "a.q",
                  "if q0 then { skip } else { q1 *= Phase(pi / 4) }\n")
        b = write(tmp_path, "b.q",
                  "if q0 then { skip } else { skip }\n")
        result = runner.invoke(main, ["equiv", a, b,
                                      "--ctx", "q0:qbit,q1:qbit"])
        assert result.exit_code == 2
        assert "False" in result.output

    def test_identical_files(self, runner, tmp_path):
        a = write(tmp_path, "a.q", "new qbit q\nq *= H\n")
        result = runner.invoke(main, ["equiv", a, a])
        assert result.exit_code == 0

    def test_order_reflexive(self, runner, tmp_path):
        a = write(tmp_path, "a.q", "measure q then { skip } else { skip }\n")
        result = runner.invoke(main, ["order", a, a, "--ctx", "q:qbit"])
        assert result.exit_code == 0

    def test_order_false(self, runner, tmp_path):
        a = write(tmp_path, "a.q", "skip\n")
        b = write(tmp_path, "b.q", "measure q then { skip } else { skip }\n")
        result = runner.invoke(main, ["order", a, b, "--ctx", "q:qbit"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec, name", [(":qbit", ""), ("x y:qbit", "x y")])
    def test_unmentionable_context_name_is_one_error_line(self, runner, tmp_path,
                                                          spec, name):
        src = write(tmp_path, "s.q", "skip\n")
        result = runner.invoke(main, ["denote", src, "--ctx", spec])
        assert (result.exit_code, result.output) == (
            2, f"error: context name {name!r} is empty or holds whitespace\n")

    def test_signature_mismatch_exit_2(self, runner, tmp_path):
        a = write(tmp_path, "a.q", "skip\n")
        b = write(tmp_path, "b.q", "discard q\n")
        result = runner.invoke(main, ["equiv", a, b, "--ctx", "q:qbit"])
        assert result.exit_code == 2


class TestTolerance:
    def test_rounding_level_final_state_exits_2(self, runner, tmp_path):
        # H (x) H is off positive by rounding at 1e-300: a typed error
        src = write(tmp_path, "p.q", "new qbit q0\nq0 *= H\nnew qbit q1\nq1 *= H\n")
        result = runner.invoke(main, ["run", src, "--tol", "1e-300"])
        assert (result.exit_code, result.output) == (
            2, "error: final state fails its check at tol 1.0e-300: "
               "density block is not positive semidefinite\n")

    def _equiv_without_denoting(self, runner, tmp_path, monkeypatch, args, env=None):
        def no_denote(*_args, **_kwargs):
            raise AssertionError("denote reached with an invalid tolerance")
        monkeypatch.setattr("qalt.cli.denote", no_denote)
        src = write(tmp_path, "p.q", "skip\n")
        return runner.invoke(main, ["equiv", src, src, "--ctx", "a:qbit", *args],
                             env=env)

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"),
                                              ("0", "0.0"), ("-1", "-1.0")])
    def test_rejected_before_denotation(self, runner, tmp_path, monkeypatch,
                                        value, shown):
        result = self._equiv_without_denoting(runner, tmp_path, monkeypatch,
                                              ["--tol", value])
        assert result.exit_code == 2
        assert "Invalid value for '--tol'" in result.output
        assert f"got {shown}" in result.output
        assert "extensionally equal" not in result.output

    def test_environment_variable_rejected(self, runner, tmp_path, monkeypatch):
        result = self._equiv_without_denoting(runner, tmp_path, monkeypatch,
                                              [], env={"QALT_TOL": "nan"})
        assert result.exit_code == 2
        assert "got nan" in result.output
        assert "extensionally equal" not in result.output

    def test_default_is_the_library_default(self, runner, tmp_path):
        src = write(tmp_path, "p.q", "skip\n")
        result = runner.invoke(main, ["denote", src, "--format", "structured"])
        assert json.loads(result.output)["tolerance"] == DEFAULT_TOL

    def test_valid_tolerance_accepted(self, runner, tmp_path):
        src = write(tmp_path, "p.q", "skip\n")
        result = runner.invoke(main, ["equiv", src, src, "--ctx", "a:qbit",
                                      "--tol", "1e-6"])
        assert result.exit_code == 0
        assert "extensionally equal: True" in result.output


    #: Each gate passes the typechecker's fixed unitarity check, but the two
    #: together have sum E'E = I + 1.6e-9 on |0><0|.
    NEAR_UNITARY = "q *= [[1.0000000004, 0], [0, 1]]\n" * 2

    @pytest.mark.parametrize("command", ["denote", "equiv", "order", "run"])
    def test_tolerance_reaches_every_kraus_set(self, runner, tmp_path, command):
        src = write(tmp_path, "f.q", self.NEAR_UNITARY)
        args = [command, src, "--ctx", "q:qbit"]
        if command in ("equiv", "order"):
            args.insert(2, src)
        if command == "run":
            # |1><1|, which the excess misses, so the output state has trace 1
            one = {"signature": [2], "blocks": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}
            args += ["--init", write(tmp_path, "one.json", json.dumps(one))]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "sum of E'E exceeds the identity" in result.output
        assert runner.invoke(main, args + ["--tol", "1e-3"]).exit_code == 0


    def test_a_run_of_gates_is_checked_once(self, runner, tmp_path):
        # the first two gates alone exceed the default tolerance by rounding;
        # a block checks its run of one-operator steps as one product, and
        # with the third gate that product has sum E'E = I + 8e-10
        args = ["denote", write(tmp_path, "f.q", self.NEAR_UNITARY), "--ctx", "q:qbit"]
        assert runner.invoke(main, args).exit_code == 2
        args[1] = write(tmp_path, "g.q",
                        self.NEAR_UNITARY + "q *= [[0.9999999996, 0], [0, 1]]\n")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output

    def test_a_run_after_a_measurement_is_checked_once(self, runner, tmp_path):
        # after the measurement the set holds two operators; the run keeps
        # one product per operator and checks them once, when it ends, so
        # here too the first two gates are not checked on their own
        measure = "measure q then { skip } else { skip }\n"
        args = ["denote", write(tmp_path, "f.q", measure + self.NEAR_UNITARY),
                "--ctx", "q:qbit"]
        assert runner.invoke(main, args).exit_code == 2
        args[1] = write(tmp_path, "g.q", measure + self.NEAR_UNITARY
                        + "q *= [[0.9999999996, 0], [0, 1]]\n")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output

    def test_tolerance_reaches_the_state_check(self, runner, tmp_path):
        # the output trace is 1 + 1.6e-9, over the default tolerance
        src = write(tmp_path, "f.q", "new qbit q\n" + self.NEAR_UNITARY)
        assert runner.invoke(main, ["run", src]).exit_code == 2
        result = runner.invoke(main, ["run", src, "--tol", "1e-3"])
        assert result.exit_code == 0, result.output
        init = {"signature": [2], "blocks": [[[[1.000001, 0], [0, 0]], [[0, 0], [0, 0]]]]}
        args = ["run", write(tmp_path, "skip.q", "skip\n"), "--ctx", "q:qbit",
                "--init", write(tmp_path, "over.json", json.dumps(init))]
        assert "total trace" in runner.invoke(main, args).output
        assert runner.invoke(main, args + ["--tol", "1e-3"]).exit_code == 0


class TestMetaArithmetic:
    def test_division_by_zero_is_one_error_line(self, runner, tmp_path):
        src = write(tmp_path, "z.q", "a *= Rk(1/0)\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit"])
        assert result.exit_code == 1
        assert result.output == (
            "error: meta expression '1 / 0' fails: division by zero\n")
        assert isinstance(result.exception, SystemExit)  # no uncaught error

    def test_meta_fault_reported_before_typing_fault(self, runner, tmp_path):
        src = write(tmp_path, "z.q", "x *= H\nfor i = 1 to 1/0 { skip }\n")
        result = runner.invoke(main, ["denote", src])
        assert result.exit_code == 1
        assert result.output == (
            "error: meta expression '1 / 0' fails: division by zero\n")

    @pytest.mark.parametrize("k", [1100, 10 ** 6])
    def test_large_rk_index_is_the_identity(self, runner, tmp_path, k):
        src = write(tmp_path, "rk.q", f"a *= Rk({k})\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit",
                                      "--format", "structured"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["result"]["operators"] == [[[[1.0, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [1.0, 0.0]]]]


    def test_phase_of_huge_integer_is_one_error_line(self, runner, tmp_path):
        product = " * ".join(["1000000000"] * 40)
        src = write(tmp_path, "p.q", f"a *= Phase({product})\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit"])
        assert result.exit_code == 1
        assert result.output == (
            f"error: meta expression '{product}' is too large for a float\n")
        assert isinstance(result.exception, SystemExit)  # no uncaught error

    def test_non_finite_matrix_literal_is_rejected_by_typecheck(self, runner, tmp_path):
        src = write(tmp_path, "m.q", "a *= [[1e999, 0], [0, 1]]\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit"])
        assert result.exit_code == 1
        assert result.output == "error: matrix literal entries must be finite\n"
        assert caught == []  # no RuntimeWarning from an infinite product

    @pytest.mark.parametrize("literal", ["[[1e200, 1e200], [1e200, 1e200 i]]",
                                         "[[1e308, 0], [0, 1]]"])
    def test_huge_matrix_literal_is_not_unitary(self, runner, tmp_path, literal):
        # m'm would overflow to inf or NaN; an entry above modulus 1 + tol
        # already rules out unitarity
        src = write(tmp_path, "m.q", f"q0 *= {literal}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["denote", src, "--ctx", "q0:qbit"])
        assert (result.exit_code, result.output) == (
            1, "error: matrix literal is not unitary\n")
        assert caught == []

    @pytest.mark.parametrize("source, message", [
        ("a *= Rk(" + "1" * 5000 + ")", "1:9: integer literal of 5000 digits is too long"),
        (f"a[{'9' * 4000} * {'9' * 4000}] *= H", "index of 'a' has too many digits"),
    ], ids=["literal", "index"])
    def test_integer_past_the_digit_limit_is_one_error_line(self, runner, tmp_path,
                                                             source, message):
        src = write(tmp_path, "big.q", source + "\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit"])
        assert (result.exit_code, result.output) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("source, reference", [
        ("q *= Rk({n} * {n})", "q *= I"),
        ("for i = {n} * {n} to {n} * {n} {{ q *= Rk(i) }}\nq *= H", "q *= I\nq *= H"),
    ], ids=["literal", "loop"])
    def test_rk_index_past_the_digit_limit_is_the_identity(self, runner, tmp_path,
                                                           source, reference):
        nines = "9" * 4000
        big = write(tmp_path, "big.q", "new qbit q\n" + source.format(n=nines) + "\n")
        ref = write(tmp_path, "ref.q", "new qbit q\n" + reference + "\n")
        for command in ("run", "denote"):
            result = runner.invoke(main, [command, big])
            assert result.exit_code == 0, result.output
            assert result.output == runner.invoke(main, [command, ref]).output

    def test_oracle_point_past_the_digit_limit_is_one_error_line(self, runner, tmp_path):
        nines = "9" * 4000
        src = write(tmp_path, "big.q", f"a *= OracleU(01, {nines} * {nines})\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit"])
        assert (result.exit_code, result.output) == (
            1, f"error: oracle point {nines} * {nines} outside table of size 2\n")

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_long_integer_matrix_entry_is_not_finite(self, runner, tmp_path, digits):
        # read as a float, as 1e999 is: no OverflowError, no digit limit
        src = write(tmp_path, "m.q", f"a *= [[{'1' * digits}, 0], [0, 1]]\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit"])
        assert result.exit_code == 1
        assert result.output == "error: matrix literal entries must be finite\n"


class TestNesting:
    def test_deep_program_is_one_error_line(self, runner, tmp_path):
        depth = 1500
        src = write(tmp_path, "deep.q", "if q then { " * depth + "skip"
                    + " } else { skip }" * depth)
        result = runner.invoke(main, ["denote", src, "--ctx", "q:qbit"])
        assert result.exit_code == 1
        assert result.output.startswith("error: 1:")
        assert "nesting deeper than 200 levels" in result.output
        assert result.output.count("\n") == 1
        assert isinstance(result.exception, SystemExit)  # no uncaught error

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_long_operator_chain_is_one_error_line(self, runner, tmp_path, op):
        src = write(tmp_path, "chain.q",
                    "a *= Phase(" + f" {op} ".join(["1"] * 1500) + ")\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a:qbit"])
        assert result.exit_code == 1
        assert result.output.startswith("error: 1:")
        assert "nesting deeper than 200 levels" in result.output
        assert result.output.count("\n") == 1
        assert isinstance(result.exception, SystemExit)  # no uncaught error


#: Corpus programs to mutate, each with the --ctx it is denoted from.
FUZZ_SOURCES = [
    (pretty(gen_deutsch(TruthTable.from_bits(bits))), "")
    for bits in ("00", "01", "10")
] + [
    (pretty(gen_deutsch_jozsa(TruthTable.from_bits("0110"))), ""),
    (pretty(gen_qft(3)), "q1:qbit,q2:qbit,q3:qbit"),
    (pretty(gen_grover_oracle(1, 2)), "q0:qbit,q1:qbit,t:qbit"),
    (TOFFOLI_SOURCE, "q0:qbit,q1:qbit,q2:qbit"),
    ("new qbit a\nnew bit b\nnew qbit c\na *= H\n"
     "case (a, c) of |00> -> { skip } |_> -> { discard b\nnew bit b }\n"
     "measure c then { a *= X } else { skip }\ndiscard b\n", ""),
]

_TOKEN = re.compile(r"->|\*=|[A-Za-z_][A-Za-z0-9_]*|[0-9.]+|\S")


def mutate(rng, source: str) -> str:
    """``source`` with one or two tokens deleted, duplicated or swapped.

    A swap exchanges two names or two numbers, which keeps the program
    parseable more often, so mutations reach the typechecker and the
    semantics too.
    """
    tokens = _TOKEN.findall(source)
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(len(tokens)))
        edit = int(rng.integers(3))
        if edit == 0:
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, tokens[i])
        else:
            numbers = [j for j, tok in enumerate(tokens) if tok[0].isdigit()]
            names = [j for j, tok in enumerate(tokens)
                     if tok[0].isalpha() and tok not in KEYWORDS]
            kin = numbers if numbers and rng.random() < 0.3 else names
            i, j = (kin[int(k)] for k in rng.integers(len(kin), size=2))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


class TestMutatedCorpus:
    def test_every_mutation_ends_in_an_exit_code(self, runner, tmp_path):
        rng = np.random.default_rng(20241018)
        commands = ["denote", "run", "equiv"]
        for case in range(300):
            source, ctx = FUZZ_SOURCES[case % len(FUZZ_SOURCES)]
            text = mutate(rng, source)
            path = write(tmp_path, f"m{case}.q", text)
            command = commands[case % len(commands)]
            args = [command, path] + ([write(tmp_path, "o.q", source)]
                                      if command == "equiv" else [])
            args += ["--ctx", ctx] if ctx else []
            result = runner.invoke(main, args + ["--format", "structured"])
            where = f"{command} {ctx!r}:\n{text}"
            assert result.exit_code in (0, 1, 2, 3), where
            assert result.exception is None or isinstance(
                result.exception, SystemExit), where


VALID_INIT = {
    "signature": [2],
    "blocks": [[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]],
}

#: Values a mutation puts in place of a node of the init document.
JSON_POOL = [None, True, -1, 0, 2, 0.5, 1e999, "x", [], {}, [1, 0], [[1, 0]]]


def mutate_json(rng, value):
    """``value`` with one node replaced, wrapped in a list, or cut short."""
    if isinstance(value, (list, dict)) and value and rng.random() < 0.7:
        out = list(value) if isinstance(value, list) else dict(value)
        keys = range(len(out)) if isinstance(out, list) else list(out)
        key = keys[int(rng.integers(len(keys)))]
        out[key] = mutate_json(rng, out[key])
        return out
    edit = int(rng.integers(3))
    if edit == 0:
        return JSON_POOL[int(rng.integers(len(JSON_POOL)))]
    if edit == 1:
        return [value]
    if isinstance(value, list):
        return value[:-1]
    return dict(list(value.items())[:-1]) if isinstance(value, dict) else value


class TestInitFile:
    @pytest.mark.parametrize("doc", [
        "{}", "[]", '{"signature": [2], "blocks": [[[1, 0]]]}',
        '{"signature": [2], "blocks": [[[["a", 0], [0, 0]], [[0, 0], [0, 0]]]]}',
        '{"signature": [1e999], "blocks": []}',
        pytest.param("[" * 100000 + "]" * 100000, id="deep"),
    ])
    def test_malformed_init_is_one_error_line(self, runner, tmp_path, doc):
        src = write(tmp_path, "p.q", "q *= H\n")
        init = write(tmp_path, "init.json", doc)
        result = runner.invoke(main, ["run", src, "--ctx", "q:qbit",
                                      "--init", init])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1
        assert isinstance(result.exception, SystemExit)  # no uncaught error

    def test_every_mutation_ends_in_an_exit_code(self, runner, tmp_path):
        rng = np.random.default_rng(20261018)
        src = write(tmp_path, "p.q", "q *= H\n")
        for case in range(200):
            doc = VALID_INIT
            for _ in range(int(rng.integers(1, 3))):
                doc = mutate_json(rng, doc)
            text = json.dumps(doc)
            init = write(tmp_path, f"i{case}.json", text)
            result = runner.invoke(main, ["run", src, "--ctx", "q:qbit",
                                          "--init", init])
            assert result.exit_code in (0, 1, 2, 3), text
            assert result.exception is None or isinstance(
                result.exception, SystemExit), text


class TestDemo:
    @pytest.mark.parametrize("name", ["deutsch", "dj", "qft", "toffoli",
                                      "nonmonotone", "phase"])
    def test_demos_run(self, runner, name):
        result = runner.invoke(main, ["demo", name])
        assert result.exit_code == 0, result.output

    def test_nonmonotone_values(self, runner):
        result = runner.invoke(main, ["demo", "nonmonotone",
                                      "--format", "structured"])
        doc = json.loads(result.output)
        facts = doc["result"]["nonmonotone"]
        assert facts["zero_below_t"] is True
        assert facts["s_below_s"] is True
        assert facts["alternation_monotone"] is False
        assert facts["witness_eigenvalue"] == pytest.approx(
            (1 - math.sqrt(5)) / 4, abs=1e-9)

    def test_toffoli_exact(self, runner):
        result = runner.invoke(main, ["demo", "toffoli", "--format", "structured"])
        doc = json.loads(result.output)
        assert doc["result"]["toffoli"]["exact"] is True

    def test_phase_witness(self, runner):
        result = runner.invoke(main, ["demo", "phase", "--format", "structured"])
        doc = json.loads(result.output)
        facts = doc["result"]["phase"]
        assert facts["branches_equal"] is True
        assert facts["alternations_equal"] is False
        assert facts["witness_distance"] > 0.1

    def test_phase_at_tol(self, runner, tmp_path):
        # the demo denotes its branches at --tol, as `denote` would
        src = write(tmp_path, "p.q", "q1 *= Phase(pi / 4)\n")
        denoted = runner.invoke(main, ["denote", src, "--ctx", "q1:qbit",
                                       "--tol", "1e-300"])
        demo = runner.invoke(main, ["demo", "phase", "--tol", "1e-300"])
        assert (demo.exit_code, demo.output) == (2, denoted.output)
        assert demo.output == ("error: sum of E'E exceeds the identity; "
                               "not trace-nonincreasing\n")

    def test_truth_table_argument(self, runner):
        result = runner.invoke(main, ["demo", "dj", "--f", "0110",
                                      "--format", "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        (row,) = doc["result"]["deutsch_jozsa"]
        assert row["f"] == "0110"
        assert row["p_zeros"] == pytest.approx(0.0, abs=1e-9)

    def test_bad_truth_table(self, runner):
        result = runner.invoke(main, ["demo", "dj", "--f", "01abc"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name, bits, reason", [
        ("deutsch", "0110", "deutsch needs a 1-bit function, got n=2"),
        ("dj", "0", "deutsch-jozsa supports 1 <= n <= 4, got n=0"),
        ("dj", "011", "table of length 3 for arity 2"),
    ], ids=["deutsch-0110", "dj-0", "dj-011"])
    def test_table_the_demo_cannot_take_is_a_usage_error(self, runner, name, bits,
                                                          reason):
        result = runner.invoke(main, ["demo", name, "--f", bits])
        assert result.exit_code == 2
        assert result.output == (f"error: --f {bits!r} is not a table the {name} "
                                 f"demo takes: {reason}\n")

    @pytest.mark.parametrize("name", ["deutsch", "dj"])
    def test_empty_truth_table(self, runner, name):
        # an empty table is not read as "no table"
        result = runner.invoke(main, ["demo", name, "--f", ""])
        assert result.exit_code == 2
        assert result.output == "error: not a bitstring: ''\n"


# One invocation per command, demo and matrix-bearing option.  The programs
# put entries such as 1/sqrt(2) and e^(i pi/4) into states, operators and
# Choi members, whose 9- and 10-digit renderings differ.
FORMAT_FILES = {
    "h": "new qbit q\nq *= H\nq *= Rk(3)\n",
    "g": "q *= Rk(3)\n",
    "m": "q *= H\nmeasure q then { skip } else { q *= X }\n",
    "x": "q *= X\n",
    "init": json.dumps(VALID_INIT),
    # a 3-qubit CNOT chain: few distinct entries, each repeated many times
    "c": "q0 *= H\nq1 *= H\nq2 *= H\nif q0 then { skip } else { q1 *= X }\n"
         "if q1 then { skip } else { q2 *= X }\n",
    "init3": json.dumps({"signature": [8], "blocks": [
        [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(8)] for i in range(8)]]}),
}
CHAIN_CTX = ["--ctx", "q0:qbit,q1:qbit,q2:qbit"]
FORMAT_INVOCATIONS = [
    ["run", "{h}"],
    ["run", "{g}", "--ctx", "q:qbit", "--init", "{init}", "--stats", "q"],
    ["denote", "{h}"],
    ["denote", "{m}", "--ctx", "q:qbit", "--choi"],
    ["equiv", "{g}", "{g}", "--ctx", "q:qbit"],
    ["order", "{g}", "{x}", "--ctx", "q:qbit"],
    ["demo", "dj", "--f", "0110"],
    ["denote", "{c}", *CHAIN_CTX, "--choi"],
    ["run", "{c}", *CHAIN_CTX, "--init", "{init3}"],
] + [["demo", name] for name in ("deutsch", "dj", "nonmonotone", "phase", "qft",
                                 "toffoli")]
MATRIX_ROW = re.compile(r"  \S+i(  \S+i)*")


def structured_matrices(doc) -> list:
    """The matrices of a document, in the order the text output prints them."""
    result = doc["result"]
    if doc["command"][0] == "run":
        return result["state"]["blocks"]
    if doc["command"][0] == "denote":
        return result["operators"] + result.get("choi", [])
    return []


class TestOutputFormat:
    """Both formats of each command, checked against each other and against
    the standard library's JSON writer; no output bytes are pinned."""

    @pytest.mark.parametrize("argv", FORMAT_INVOCATIONS,
                             ids=lambda argv: "-".join(a.strip("{}-") for a in argv))
    def test_formats_agree(self, runner, tmp_path, monkeypatch, argv):
        paths = {key: write(tmp_path, f"{key}.in", text)
                 for key, text in FORMAT_FILES.items()}
        argv = [a.format(**paths) for a in argv]
        arrays, respond = [], cli._respond

        def collect(value):
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (dict, list, tuple)):
                for item in (value.values() if isinstance(value, dict) else value):
                    collect(item)

        def spy(command, tol, fmt, result, lines):
            collect([result, lines])
            respond(command, tol, fmt, result, lines)

        monkeypatch.setattr(cli, "_respond", spy)
        text = runner.invoke(main, argv)
        structured = runner.invoke(main, argv + ["--format", "structured"])
        # the writer takes exactly these arrays; any other one is a TypeError
        assert all(a.ndim == 2 and a.dtype == np.complex128 for a in arrays)
        assert text.exit_code == structured.exit_code in (0, 2), text.output
        out = structured.stdout
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        rows = [line for line in text.stdout.splitlines() if MATRIX_ROW.fullmatch(line)]
        assert rows == ["  " + "  ".join(f"{re:.10g}{im:+.10g}i" for re, im in row)
                        for m in structured_matrices(json.loads(out)) for row in m]
        assert bool(rows) == (argv[0] in ("run", "denote"))


#: Floats whose JSON or ``.10g`` form is easy to get wrong.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
               math.nan, 1.0, -1.0, 0.5, 2 ** -0.5, 1 / 3, 1e-17, 123456789.0123]


def random_matrix(rng) -> np.ndarray:
    """A complex matrix, often 1xN or Nx1, whose entries repeat a few values."""
    rows, cols = (int(n) for n in rng.integers(1, 7, size=2))
    if rng.random() < 0.25:
        rows = 1
    elif rng.random() < 0.25:
        cols = 1
    pool = np.array(EDGE_FLOATS)[rng.permutation(len(EDGE_FLOATS))[:rng.integers(1, 6)]]
    parts = [rng.choice(pool, size=(rows, cols)) for _ in range(2)]
    if rng.random() < 0.25:
        parts[int(rng.integers(2))] = rng.normal(size=(rows, cols))
    m = np.empty((rows, cols), dtype=complex)
    m.real, m.imag = parts
    return m


def random_value(rng, depth=0):
    """A document node: a scalar, a matrix, or a possibly empty container."""
    roll = int(rng.integers(9 if depth < 4 else 5))
    size = int(rng.integers(4))
    if roll == 0:
        return [None, True, False, "s\u00e9\"q"][int(rng.integers(4))]
    if roll == 1:
        return int(rng.integers(-3, 300))
    if roll == 2:
        return float(rng.choice(EDGE_FLOATS))
    if roll in (3, 4):
        return random_matrix(rng)
    if roll in (5, 6):
        items = [random_value(rng, depth + 1) for _ in range(size)]
        return items if roll == 5 else tuple(items)
    return {f"k{int(rng.integers(20))}": random_value(rng, depth + 1)
            for _ in range(size)}


def responded(*args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._respond(*args)
    return out.getvalue()


class TestWriter:
    """``_respond`` against the standard library's writer and the text rows'
    f-string, on random documents and matrices."""

    @staticmethod
    def stdlib(doc) -> str:
        return json.dumps(doc, indent=2, sort_keys=True,
                          default=lambda m: np.stack([m.real, m.imag], -1).tolist())

    def test_structured_is_the_stdlib_document(self):
        rng = np.random.default_rng(19)
        for _ in range(400):
            result = {f"r{i}": random_value(rng) for i in range(int(rng.integers(4)))}
            command, tol = ["denote", "p.q"], float(rng.choice([1e-9, 1e-3, 0.5]))
            doc = {"schema": SCHEMA, "command": command, "tolerance": tol,
                   "result": result}
            assert responded(command, tol, "structured", result, []) \
                == self.stdlib(doc) + "\n"

    @staticmethod
    def fstring_rows(m) -> list[str]:
        return ["  " + "  ".join(f"{z.real:.10g}{z.imag:+.10g}i" for z in row)
                for row in m]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrices(self, shape):
        m = np.zeros(shape, dtype=complex)
        doc = {"schema": SCHEMA, "command": [], "tolerance": 1.0, "result": {"m": m}}
        assert responded([], 1.0, "structured", {"m": m}, []) \
            == self.stdlib(doc) + "\n"
        assert responded([], 1.0, "text", {}, ["x", m]) \
            == "\n".join(["x"] + self.fstring_rows(m)) + "\n"

    def test_text_rows_are_the_fstring_rows(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            lines = ["a header", random_matrix(rng), random_matrix(rng), "a footer"]
            expected = [row for line in lines for row in (
                self.fstring_rows(line) if isinstance(line, np.ndarray) else [line])]
            assert responded([], 1.0, "text", {}, lines) == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("value", [np.zeros(3, dtype=complex), np.eye(2),
                                       np.zeros((2, 2, 2), dtype=complex),
                                       np.eye(2, dtype=np.complex64), object()],
                             ids=["1-D", "real", "3-D", "complex64", "object"])
    def test_other_values_are_not_serializable(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            responded([], 1.0, "structured", {"v": value}, [])


IDENTITY4 = "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"


class TestTypedErrors:
    """One error line and its exit code for each typed error of the checker
    and of the command line's own inputs."""

    @pytest.mark.parametrize("source, message", [
        ("a, b *= H", "single-qubit gate applied to a register"),
        (f"a *= {IDENTITY4}", "matrix literal of shape (4, 4) applied to 1 qubit(s)"),
        (f"a, a *= {IDENTITY4}", "duplicate gate target in ['a', 'a']"),
        ("case (a, a) of |00> -> { skip } |_> -> { skip }",
         "duplicate control in ['a', 'a']"),
        ("for i = 1 to 2.5 { a *= H }", "expected an integer, got 2.5"),
    ])
    def test_program_errors_exit_1(self, runner, tmp_path, source, message):
        src = write(tmp_path, "p.q", source + "\n")
        result = runner.invoke(main, ["denote", src, "--ctx", "a,b"])
        assert (result.exit_code, result.output) == (1, f"error: {message}\n")

    def test_integral_float_bound_is_an_integer(self, runner, tmp_path):
        src = write(tmp_path, "p.q", "for i = 1 to 2.0 { a *= H }\n")
        assert runner.invoke(main, ["denote", src, "--ctx", "a,b"]).exit_code == 0

    @pytest.mark.parametrize("argv, message", [
        (["denote", "{skip}", "--ctx", "a,a"], "duplicate name 'a' in context"),
        (["denote", "{skip}", "--ctx", "a:qubit"], "unknown kind 'qubit'"),
        (["demo", "qft", "--f", "01"], "--f applies only to the deutsch and dj demos"),
        (["run", "{gate}", "--ctx", "q:qbit", "--init", "{nan}"],
         "matrix entries must be finite"),
    ])
    def test_input_errors_exit_2(self, runner, tmp_path, argv, message):
        nan = json.dumps(VALID_INIT).replace("0.5", "NaN", 1)
        paths = {"skip": write(tmp_path, "s.q", "skip\n"),
                 "gate": write(tmp_path, "g.q", "q *= H\n"),
                 "nan": write(tmp_path, "nan.json", nan)}
        result = runner.invoke(main, [a.format(**paths) for a in argv])
        assert (result.exit_code, result.output) == (2, f"error: {message}\n")
