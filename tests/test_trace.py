"""The benchmark's trace self-check, run as a test.

``perfbench/spans.py`` wraps a fixed list of library functions and the
benchmark's ``--trace`` run fails when one of them never fires.  This test
installs the same tracer over a handful of small programs, so a change that
stops calling a traced function fails here too.
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import qalt
import qalt.cli
from qalt import Context, DensityState
from qalt.semantics import signature_of

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CTX = Context.of(("q0", "qbit"), ("q1", "qbit"), ("q2", "qbit"))

#: A gate, a measurement, a one-control ``if``, a two-control ``case``, a
#: repeated gate (one product, checked once), a gate after a measurement
#: (one product per operator, checked once) and a measurement after a gate
#: (a block composes only at a step of several operators).
PROGRAMS = [
    "q0 *= H",
    "measure q0 then { q1 *= X } else { skip }",
    "if q0 then { skip } else { q1 *= X }",
    "case (q0, q1) of |00> -> { q2 *= H } |01> -> { skip } "
    "|10> -> { q2 *= X } |11> -> { q2 *= S }",
    "q1 *= H\nq1 *= H",
    "measure q0 then { skip } else { q1 *= X }\nq2 *= H",
    "q2 *= H\nmeasure q0 then { skip } else { q1 *= X }",
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_fires(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    tracer.job = "tests"  # spans are taken only while a job is open
    try:
        uniform = DensityState(signature_of(CTX), (np.eye(8) / 8,))
        for src in PROGRAMS:
            # through the package's bindings, which the tracer replaced
            d = qalt.denote(src, CTX)
            qalt.run(src, uniform, CTX)
            assert qalt.ext_equal(d.kraus, d.kraus)
            assert qalt.lowner_leq(d.kraus, d.kraus)
        prog = tmp_path / "p.q"
        prog.write_text(PROGRAMS[1], encoding="ascii")
        # `demo phase` calls `alternate`, as `demo nonmonotone` does; it is the
        # one such demo that both benchmark workloads run
        for args in (["equiv", str(prog), str(prog), "--ctx", CTX.describe()],
                     ["demo", "phase"]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = qalt.cli.main.main(args=args, standalone_mode=False)
            assert code in (None, 0)
    finally:
        tracer.job = None
        tracer.uninstall()
    missing = {fname for _, fname in spans.TRACED} - set(tracer.fired)
    assert not missing, f"traced functions never fired: {sorted(missing)}"
    assert not hasattr(qalt.denote, "__wrapped__")  # the tracer is gone
