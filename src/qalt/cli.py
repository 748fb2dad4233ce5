"""Command-line front door: run programs, inspect denotations, compare maps.

Exit codes: 0 success (and true verdicts), 1 language error, 2 semantic,
numeric or false-verdict outcome and command-line usage errors (such as a
``--tol`` that is not a finite number above 0), 3 I/O error.  Structured
output is a single JSON document per invocation with complex numbers encoded
as [re, im] pairs; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from .core import DEFAULT_TOL, DensityState, Signature, check_tol
from .corpus import (
    TruthTable,
    balanced_tables,
    bit_reversal_permutation,
    constant_tables,
    dft_matrix,
    gen_deutsch,
    gen_deutsch_jozsa,
    gen_qft,
    qft_context,
    toffoli_matrix,
)
from .errors import LanguageError, QaltError, UnsupportedArity
from .kraus import (
    alternate,
    apply_full,
    choi_distance,
    ext_equal,
    identity_kraus,
    lowner_leq,
    to_choi,
    zero_kraus,
)
from .semantics import denote, measure_stats, outcome_probability, run_with_context
from .syntax import Context, parse

SCHEMA = "qalt-output/1"


# ---------------------------------------------------------------------------
# Encoding helpers
# ---------------------------------------------------------------------------

def _decode_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _decode_state(data, tol: float) -> DensityState:
    """The state in ``data``, validated at ``tol``; a ValueError names what is
    malformed."""
    expected = ("an object with a 'signature' list of block dimensions and "
                "'blocks', one matrix of [re, im] entries per block")
    if not isinstance(data, dict) or not {"signature", "blocks"} <= data.keys():
        raise ValueError(f"initial state must be {expected}")
    try:
        sig = Signature(tuple(data["signature"]))
        blocks = tuple(_decode_matrix(b) for b in data["blocks"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"malformed initial state ({exc}); expected {expected}") from None
    return DensityState(sig, blocks, tol)


def _formatted(x: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each float64 of ``x``, as an object array of ``x``'s shape.

    ``fmt`` runs once per distinct bit pattern, so -0.0 and 0.0 (and nans
    of different payloads) are formatted apart.
    """
    bits, where = np.unique(x.view(np.uint64), return_inverse=True)
    strings = np.array([fmt(v) for v in bits.view(np.float64).tolist()],
                       dtype=object)
    return strings[where].reshape(x.shape)


def _json_float(x: float) -> str:
    """``json.dumps(x)``: ``repr`` when finite, as the standard writer has it."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _matrix_lines(m) -> list[str]:
    """The text rows of a matrix, each entry as ``{re:.10g}{im:+.10g}i``."""
    cells = (_formatted(m.real, "{:.10g}".format)
             + _formatted(m.imag, "{:+.10g}i".format))
    return ["  " + "  ".join(row) for row in cells.tolist()]


def _json_matrix(m: np.ndarray, depth: int) -> str:
    """A 2-D complex matrix as rows of [re, im] pairs, laid out as
    ``json.dumps(m_as_lists, indent=2)`` lays out a value ``depth`` levels deep."""
    if not (m.ndim == 2 and m.dtype == np.complex128):
        raise TypeError(f"Object of type ndarray ({m.dtype}, {m.ndim}-D) is "
                        "not JSON serializable")
    if not m.size:
        return _json(m.tolist(), depth)
    i0, i1, i2, i3 = ("\n" + "  " * (depth + k) for k in range(4))
    pairs = np.stack([m.real, m.imag], axis=-1)
    # each float followed by the text up to the next one
    parts = np.empty(pairs.shape + (2,), dtype=object)
    parts[..., 0] = _formatted(pairs, _json_float)
    parts[:, :, 0, 1] = "," + i3
    parts[:, :, 1, 1] = i2 + "]," + i2 + "[" + i3
    parts[:, -1, 1, 1] = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    parts[-1, -1, 1, 1] = i2 + "]" + i1 + "]" + i0 + "]"
    return "[" + i1 + "[" + i2 + "[" + i3 + "".join(parts.ravel().tolist())


def _json(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for a value ``depth``
    levels deep, with 2-D complex arrays as rows of [re, im] pairs; dict keys
    are strings."""
    if isinstance(obj, np.ndarray):
        return _json_matrix(obj, depth)
    if isinstance(obj, dict):
        items = [f"{json.dumps(key)}: {_json(obj[key], depth + 1)}"
                 for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json(item, depth + 1) for item in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth
            + brackets[1])


# Every echo names its stream: click caches a wrapper per default stream,
# and that cache keeps every redirected stream of an in-process call alive.

def _respond(command: list, tol: float, fmt: str, result: dict, lines: list):
    """Print ``result`` as the structured document of ``command``, or ``lines``;
    matrices stay ndarrays until this writes each once, in the format asked for,
    formatting each distinct entry once."""
    if fmt == "structured":
        text = _json({"schema": SCHEMA, "command": command, "tolerance": tol,
                      "result": result})
    else:
        text = "\n".join(row for line in lines for row in (
            _matrix_lines(line) if isinstance(line, np.ndarray) else [line]))
    click.echo(text, file=sys.stdout)


def _load_source(path: str) -> str:
    # 8-bit text; the tokenizer rejects non-ASCII outside comments
    with open(path, "r", encoding="latin-1") as fh:
        return fh.read()


def _fail(code: int, message: str):
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _guarded(fn):
    try:
        fn()
    except LanguageError as exc:
        _fail(1, str(exc))
    except (QaltError, ValueError) as exc:
        _fail(2, str(exc))
    except OSError as exc:
        _fail(3, str(exc))


_FMT = click.option("--format", "fmt", type=click.Choice(["text", "structured"]),
                    default="text", show_default=True, help="Output format.")


def _check_tol(ctx, param, value):
    try:
        check_tol(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    return value


_TOL = click.option("--tol", type=float, default=DEFAULT_TOL, envvar="QALT_TOL",
                    callback=_check_tol,
                    help="Numeric tolerance (default 1e-9, env QALT_TOL).  Values "
                         "below about 1e-15 are kept, but a run's full-width check "
                         "then decides on BLAS rounding, which depends on the "
                         "width of the context.")
_CTX = click.option("--ctx", "ctx_spec", default="",
                    help="Initial context, e.g. 'q0:qbit,q1:qbit'.")


@click.group()
def main():
    """Quantum alternation semantics toolkit."""


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@main.command("run")
@click.argument("source", type=click.Path())
@click.option("--init", "init_path", type=click.Path(), default=None,
              help="Initial density state (JSON).")
@click.option("--stats", "stats_name", default=None,
              help="Also report outcome probabilities for this qubit.")
@_CTX
@_TOL
@_FMT
def cmd_run(source, init_path, stats_name, ctx_spec, tol, fmt):
    """Evaluate a program and print its final density state."""
    def go():
        ctx = Context.from_spec(ctx_spec)
        program = parse(_load_source(source))
        initial = None
        if init_path is not None:
            with open(init_path, "r", encoding="ascii") as fh:
                try:
                    data = json.load(fh)
                except RecursionError:
                    raise ValueError("initial state is nested too deeply") from None
            initial = _decode_state(data, tol)
        state, out_ctx = run_with_context(program, initial, ctx, tol)
        result = {"state": {"signature": state.signature.blocks,
                            "blocks": state.blocks, "trace": state.trace()}}
        lines = [f"final state on signature {state.signature.blocks}:"]
        for i, block in enumerate(state.blocks):
            lines += [f"block {i}:", block]
        lines.append(f"trace: {state.trace():.10g}")
        if stats_name is not None:
            if stats_name not in out_ctx.qubits():
                raise ValueError(f"--stats {stats_name!r} names no qubit of the "
                                 f"output context ({out_ctx.describe()})")
            p0, p1 = measure_stats(state, stats_name, out_ctx)
            result["stats"] = {"qubit": stats_name, "p0": p0, "p1": p1}
            lines.append(f"Pr[{stats_name}=0] = {p0:.10g}")
            lines.append(f"Pr[{stats_name}=1] = {p1:.10g}")
        _respond(["run", source], tol, fmt, result, lines)
    _guarded(go)


# ---------------------------------------------------------------------------
# denote
# ---------------------------------------------------------------------------

@main.command("denote")
@click.argument("source", type=click.Path())
@click.option("--choi", is_flag=True, help="Also print the Choi family.")
@_CTX
@_TOL
@_FMT
def cmd_denote(source, choi, ctx_spec, tol, fmt):
    """Print the canonical Kraus operator list of a program."""
    def go():
        d = denote(parse(_load_source(source)), Context.from_spec(ctx_spec), tol)
        result = {
            "input_signature": d.kraus.input_sig.blocks,
            "output_signature": d.kraus.output_sig.blocks,
            "operators": d.kraus.ops,
        }
        lines = [
            f"kraus set: {d.kraus.input_sig.blocks} -> "
            f"{d.kraus.output_sig.blocks}, {len(d.kraus)} operator(s)"
        ]
        for i, op in enumerate(d.kraus.ops):
            lines += [f"operator {i}:", op]
        if choi:
            result["choi"] = to_choi(d.kraus).members
            for i, member in enumerate(result["choi"]):
                lines += [f"choi member {i}:", member]
        _respond(["denote", source], tol, fmt, result, lines)
    _guarded(go)


# ---------------------------------------------------------------------------
# equiv / order
# ---------------------------------------------------------------------------

def _comparison(kind, source_a, source_b, ctx_spec, tol, fmt):
    ctx = Context.from_spec(ctx_spec)
    da = denote(parse(_load_source(source_a)), ctx, tol)
    db = denote(parse(_load_source(source_b)), ctx, tol)
    decide, label = {"equiv": (ext_equal, "extensionally equal"),
                     "order": (lowner_leq, "below in the Loewner order")}[kind]
    verdict = decide(da.kraus, db.kraus, tol)
    _respond([kind, source_a, source_b], tol, fmt, {"verdict": verdict},
             [f"{label}: {verdict}"])
    if not verdict:
        sys.exit(2)


@main.command("equiv")
@click.argument("source_a", type=click.Path())
@click.argument("source_b", type=click.Path())
@_CTX
@_TOL
@_FMT
def cmd_equiv(source_a, source_b, ctx_spec, tol, fmt):
    """Test whether two programs denote the same superoperator."""
    _guarded(lambda: _comparison("equiv", source_a, source_b, ctx_spec, tol, fmt))


@main.command("order")
@click.argument("source_a", type=click.Path())
@click.argument("source_b", type=click.Path())
@_CTX
@_TOL
@_FMT
def cmd_order(source_a, source_b, ctx_spec, tol, fmt):
    """Test whether the first program is below the second (Loewner order)."""
    _guarded(lambda: _comparison("order", source_a, source_b, ctx_spec, tol, fmt))


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

TOFFOLI_SOURCE = """\
if q0 then { skip } else {
  if q1 then { skip } else { q2 *= X }
}
"""


def _oracle_demo(key, header, field, label, tables, generate, tol):
    """Pr[every control reads 0] after running each table's program."""
    rows, lines = [], [header]
    for table in tables:
        state, ctx = run_with_context(generate(table), tol=tol)
        # the generators allocate the oracle's target, q1, last
        p = outcome_probability(state, ctx, {q: 0 for q in ctx.qubits()[:-1]})
        bits = "".join(str(v) for v in table.values)
        rows.append({"f": bits, "constant": table.is_constant, field: p})
        lines.append(f"  f={bits} constant={table.is_constant} {label}={p:.10g}")
    return {key: rows}, lines


def _demo_deutsch(tol, tables=None):
    tables = tables or [TruthTable.from_bits(b) for b in ("00", "01", "10", "11")]
    return _oracle_demo("deutsch", "deutsch: Pr[q0=0] per truth table", "p0", "p0",
                        tables, gen_deutsch, tol)


def _demo_dj(tol, tables=None):
    tables = tables or constant_tables(3) + balanced_tables(3)[::11]
    return _oracle_demo(
        "deutsch_jozsa",
        f"deutsch-jozsa (n={tables[0].n}): Pr[all controls 0] per truth table",
        "p_zeros", "p", tables, gen_deutsch_jozsa, tol)


def _demo_qft(tol):
    rows = []
    lines = ["qft: max deviation from the bit-reversed DFT matrix"]
    for n in range(1, 5):
        u = denote(gen_qft(n), qft_context(n), tol).kraus.ops[0]
        ref = bit_reversal_permutation(n) @ dft_matrix(n)
        dev = float(np.abs(u - ref).max())
        rows.append({"n": n, "max_deviation": dev})
        lines.append(f"  n={n} deviation={dev:.3e}")
    return {"qft": rows}, lines


def _demo_toffoli(tol):
    d = denote(parse(TOFFOLI_SOURCE),
               Context.of(("q0", "qbit"), ("q1", "qbit"), ("q2", "qbit")), tol)
    dev = float(np.abs(d.kraus.ops[0] - toffoli_matrix()).max())
    exact = dev <= 1e-12
    lines = [f"toffoli: exact match = {exact} (max deviation {dev:.3e})"]
    return {"toffoli": {"exact": exact, "max_deviation": dev}}, lines


def _demo_nonmonotone(tol):
    s = identity_kraus(Signature((1,)))
    empty = zero_kraus(s.input_sig, s.output_sig)
    below_zero = lowner_leq(empty, s, tol)
    below_self = lowner_leq(s, s, tol)
    left = alternate(s, empty, tol)
    right = alternate(s, s, tol)
    monotone = lowner_leq(left, right, tol)
    plus = np.full((2, 2), 0.5)
    diff = apply_full(right, plus) - apply_full(left, plus)
    witness = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2).min())
    lines = [
        "nonmonotone: alternation versus the Loewner order",
        f"  0 below T: {below_zero}",
        f"  S below S: {below_self}",
        f"  (S alt 0) below (S alt T): {monotone}",
        f"  witness eigenvalue on |+><+|: {witness:.10f}"
        f"  (reference (1-sqrt(5))/4 = {(1 - math.sqrt(5)) / 4:.10f})",
    ]
    return {"nonmonotone": {
        "zero_below_t": below_zero,
        "s_below_s": below_self,
        "alternation_monotone": monotone,
        "witness_eigenvalue": witness,
    }}, lines


def _demo_phase(tol):
    q1 = Context.of(("q1", "qbit"))
    skip = denote("skip", q1, tol).kraus
    phase = denote("q1 *= Phase(pi / 4)", q1, tol).kraus
    # ``if q0 then { skip } else { .. }`` in the context (q0, q1)
    alt_skip, alt_phase = alternate(skip, skip, tol), alternate(skip, phase, tol)
    branches_equal = ext_equal(skip, phase, tol)
    alternations_equal = ext_equal(alt_skip, alt_phase, tol)
    distance = choi_distance(alt_skip, alt_phase)
    lines = [
        "phase: global phase is invisible until it is alternated",
        f"  branches extensionally equal: {branches_equal}",
        f"  alternations extensionally equal: {alternations_equal}",
        f"  witness Choi distance: {distance:.10f}",
    ]
    return {"phase": {
        "branches_equal": branches_equal,
        "alternations_equal": alternations_equal,
        "witness_distance": distance,
    }}, lines


_DEMOS = {
    "deutsch": _demo_deutsch,
    "dj": _demo_dj,
    "qft": _demo_qft,
    "toffoli": _demo_toffoli,
    "nonmonotone": _demo_nonmonotone,
    "phase": _demo_phase,
}


@main.command("demo")
@click.argument("name", type=click.Choice(sorted(_DEMOS)))
@click.option("--f", "table_bits", default=None,
              help="Truth table as a bitstring (deutsch/dj only), "
                   "e.g. 0110 for n=2.")
@_TOL
@_FMT
def cmd_demo(name, table_bits, tol, fmt):
    """Reproduce one of the built-in demonstrations."""
    def go():
        if table_bits is None:
            result, lines = _DEMOS[name](tol)
        else:
            generate = {"deutsch": gen_deutsch, "dj": gen_deutsch_jozsa}.get(name)
            if generate is None:
                raise ValueError("--f applies only to the deutsch and dj demos")
            if not table_bits or any(c not in "01" for c in table_bits):
                raise ValueError(f"not a bitstring: {table_bits!r}")
            try:
                table = TruthTable.from_bits(table_bits)
                generate(table)
            except (UnsupportedArity, ValueError) as exc:
                raise ValueError(f"--f {table_bits!r} is not a table the {name} "
                                 f"demo takes: {exc}") from None
            result, lines = _DEMOS[name](tol, [table])
        _respond(["demo", name], tol, fmt, result, lines)
    _guarded(go)


if __name__ == "__main__":
    main()
