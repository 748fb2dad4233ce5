"""Layer spans for qalt, recorded from outside the library.

:class:`Tracer` replaces each traced public function with a timing wrapper in
the namespace of *every* qalt module that bound it (``from .kraus import
make_kraus`` leaves a separate binding in ``qalt.semantics``, ``qalt.cli``,
``qalt.stinespring`` and ``qalt`` itself), so a call is seen whichever name
the caller used.  A span records its name, start, end, parent span and job;
spans stay in memory until the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

#: (defining module, function) -> span name.  Names are the per-layer metric
#: prefixes; several functions may share one span name.
TRACED = {
    ("qalt.syntax", "parse"): "syntax.parse",
    ("qalt.check", "typecheck"): "check.typecheck",
    ("qalt.check", "elaborate"): "check.elaborate",
    ("qalt.semantics", "denote"): "semantics.denote",
    ("qalt.semantics", "run"): "semantics.run",
    ("qalt.semantics", "leading_permutation"): "semantics.leading_permutation",
    ("qalt.kraus", "make_kraus"): "kraus.make_kraus",
    ("qalt.kraus", "compose"): "kraus.compose",
    ("qalt.kraus", "alternate"): "kraus.alternate",
    ("qalt.kraus", "alternate_case"): "kraus.alternate",
    ("qalt.kraus", "branch_sum"): "kraus.branch_sum",
    ("qalt.kraus", "apply"): "kraus.apply",
    ("qalt.kraus", "to_choi"): "kraus.to_choi",
    ("qalt.kraus", "ext_equal"): "kraus.verdict",
    ("qalt.kraus", "lowner_leq"): "kraus.verdict",
    ("qalt.core", "is_psd"): "core.is_psd",
    ("qalt.core", "embed_gate"): "core.embed_gate",
}

SPAN_NAMES = sorted(set(TRACED.values())) + ["cli"]

COUNTERS = ["check.stmts_out", "core.is_psd.max_dim", "kraus.compose.products",
            "kraus.make_kraus.entries", "kraus.make_kraus.max_dim",
            "kraus.make_kraus.ops_in", "kraus.make_kraus.ops_out",
            "kraus.to_choi.max_dim"]


def _count_statements(block) -> int:
    total = 0
    for stmt in block:
        total += 1
        for attr in ("then_block", "else_block", "body"):
            inner = getattr(stmt, attr, None)
            if isinstance(inner, list):
                total += _count_statements(inner)
        for arm in getattr(stmt, "arms", None) or ():
            total += _count_statements(arm.block)
    return total


def _count_make_kraus(c, args, kwargs, out):
    raw = args[2] if len(args) >= 3 else kwargs["raw_ops"]
    d_out, d_in = out.op_shape()
    c["kraus.make_kraus.ops_in"] += len(raw)
    c["kraus.make_kraus.ops_out"] += len(out.ops)
    c["kraus.make_kraus.entries"] += len(raw) * d_out * d_in
    c["kraus.make_kraus.max_dim"] = max(c["kraus.make_kraus.max_dim"], d_out, d_in)


def _count_compose(c, args, kwargs, out):
    c["kraus.compose.products"] += len(args[0].ops) * len(args[1].ops)


def _count_to_choi(c, args, kwargs, out):
    for m in out.members:
        c["kraus.to_choi.max_dim"] = max(c["kraus.to_choi.max_dim"], m.shape[0])


def _count_is_psd(c, args, kwargs, out):
    n = len(args[0])
    c["core.is_psd.max_dim"] = max(c["core.is_psd.max_dim"], n)


def _count_elaborate(c, args, kwargs, out):
    c["check.stmts_out"] += _count_statements(out.body)


COUNT = {
    "kraus.make_kraus": _count_make_kraus,
    "kraus.compose": _count_compose,
    "kraus.to_choi": _count_to_choi,
    "core.is_psd": _count_is_psd,
    "check.elaborate": _count_elaborate,
}


class Tracer:
    """Span recorder.  Spans are taken only while a job is open."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, job)
        self.stack: list[int] = []
        self.job = None
        self.fired: Counter = Counter()    # function name -> calls
        self.counters: defaultdict = defaultdict(int)
        self._patches: list = []       # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every binding of every traced function; return the bindings."""
        importlib.import_module("qalt.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qalt" or name.startswith("qalt.")]
        bindings = []
        for (home, fname), name in TRACED.items():
            original = getattr(importlib.import_module(home), fname)
            for mod in modules:
                # match by identity, so an aliased import is wrapped too
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, self._wrap(name, fname, original))
                        self._patches.append((mod, attr, original))
                        bindings.append(f"{mod.__name__}.{attr}")
        return bindings

    def uninstall(self):
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches.clear()

    def _wrap(self, name, fname, fn):
        count = COUNT.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.fired[fname] += 1
            if count is not None:
                count(tracer.counters, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def pass_summary(self, first: int) -> dict:
        """Calls, self time and total time per span name over spans[first:]."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent] += end - start
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
        return {"calls": calls, "self_s": self_s, "total_s": total_s}

    def write(self, path: str):
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")

