#!/usr/bin/env python3
"""Benchmark runner for qalt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  One process, one client, a closed loop: each job (a
``denote``, ``run``, verdict or in-process ``qalt`` command) starts only
after the previous one returned.  The workload's job list is run as a pass
again and again until ``--seconds`` have gone by; outputs are checked after
each job, outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from :mod:`spans`, alternating untraced and traced passes so the
tracing overhead can be given.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record`` rewrites the
default seed's reference in ``perfbench/reference/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join("perfbench", ".work")

#: BLAS threads of this process and of its set-up probes.  One thread: on a
#: small shared machine a second BLAS thread competes with the interpreter
#: and other tenants, which made timings both slower and less steady.
BLAS_THREADS = 1
DEFAULT_SEED = 1
SETUP_PROBES = 5
KINDS = ("denote", "run", "compare", "cli")

#: Seconds a :class:`HostProbe` typically takes between jobs on the 2-core VM
#: the benchmark was tuned on.  Job times are scaled to this host speed (see
#: :func:`host_slowness`); the constant only sets the scale of the figures.
PROBE_REF_S = 6.0e-4
#: A job's host slowness is the median of the probes this many places either
#: side of it (probes run between jobs).
PROBE_WINDOW = 2
#: Host probes taken before and after each set-up probe.
SETUP_HOST_PROBES = 25


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_qalt():
    """Import qalt from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qalt
    if not os.path.abspath(qalt.__file__).startswith(src + os.sep):
        raise ImportError(f"qalt was imported from {qalt.__file__}, not {src}")


class HostProbe:
    """A fixed piece of work, independent of qalt, that measures host speed.

    The speed of a small shared VM drifts by up to 2x, in spells from a
    fraction of a second to minutes, and a job slows down with it.  A short
    probe made of the same kinds of work as qalt's -- an interpreter loop,
    small complex matmuls and one Hermitian eigendecomposition -- slows down
    in step.  Its time over :data:`PROBE_REF_S` is the host's slowness at
    that moment.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        g = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        self.np = np
        self.hermitian = g @ g.conj().T
        self.small = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                      for _ in range(24)]
        for _ in range(200):  # warm caches and the BLAS thread pool
            self()

    def __call__(self) -> float:
        """Seconds the probe took now."""
        np = self.np
        start = time.perf_counter()
        x = 0.0
        for i in range(3000):
            x += i * 0.5
        acc = np.zeros((4, 4), dtype=complex)
        for m in self.small:
            acc = acc + m.conj().T @ m
        np.linalg.eigvalsh(self.hermitian)
        return time.perf_counter() - start

    def slowness(self, count: int) -> float:
        """The median of ``count`` probes over :data:`PROBE_REF_S`."""
        return statistics.median(self() for _ in range(count)) / PROBE_REF_S


def host_slowness(probes: list, k: int) -> float:
    """Slowness around job ``k`` of a pass; ``probes[k]`` ran just before it."""
    near = probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 2]
    return statistics.median(near) / PROBE_REF_S


def probe_setup(workload: str, probe: HostProbe) -> float:
    """Seconds from starting a fresh interpreter to a finished warm-up job.

    The time is scaled by the host's slowness, probed right before and
    right after the interpreter runs.
    """
    before = probe.slowness(SETUP_HOST_PROBES)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--setup-probe"], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    _, err = proc.communicate(timeout=170)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
    after = probe.slowness(SETUP_HOST_PROBES)
    return ready / ((before + after) / 2)


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": name, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(jobs, probe, tracer=None) -> tuple[list, list]:
    """Run every job once, with a host probe before each job and after the last.

    Returns (job, seconds, output, error) per job, and the probe times.  A
    full collection first makes each pass start from the same garbage
    collector state, so collections fall at the same points in every pass.
    """
    gc.collect()
    results, probes = [], [probe()]
    for job in jobs:
        span = None
        if tracer is not None:
            tracer.job = job.label
            if job.kind == "cli":
                span = tracer.open("cli")
        start = time.perf_counter()
        try:
            out, error = job.call(), None
        except Exception as exc:  # a raising job is a failed job, not a crash
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            if span is not None:
                tracer.close(span)
            tracer.job = None
        results.append((job, elapsed, out, error))
        probes.append(probe())
    return results, probes


def timings(results, probes) -> list:
    """(job, seconds, host slowness) per job: what is kept of a checked pass.

    Dropping the outputs keeps memory flat, so ``peak_rss_mb`` does not grow
    with the number of passes.
    """
    return [(job, elapsed, host_slowness(probes, k))
            for k, (job, elapsed, _, _) in enumerate(results)]


def check_pass(results, reference) -> list[str]:
    """Problems of one pass, one line per failed job."""
    failures = []
    for job, _, out, error in results:
        if error is not None:
            problems = [error]
        else:
            try:
                problems = job.check(out)
                if reference is not None:
                    problems += reference_problems(job, out, reference)
            except Exception as exc:  # malformed output: the job failed
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{job.label}: {'; '.join(problems)}")
    return failures


def reference_problems(job, out, reference) -> list[str]:
    import checks
    want = reference.get(job.label)
    if want is None:
        return ["no recorded reference for this job"]
    got = job.fingerprint(out)
    problems = []
    for key in ("ops", "blocks"):
        if key in want:
            problems += checks.sketch_problems(got.get(key, []), want[key], job.label)
    if "verdict" in want and got["verdict"] != want["verdict"]:
        problems.append("verdict differs from the recorded reference")
    return problems


def byte_identical(results, reference) -> tuple[int, int]:
    """(matching, compared) structured outputs with a recorded reference.

    An output is compared when the reference holds the same command over the
    same input files, so seed-independent commands are compared on any seed.
    """
    import checks
    same = compared = 0
    for job, _, out, error in results:
        want = reference.get(job.label)
        if job.kind != "cli" or error is not None or not want \
                or want.get("input") != job.input_digest:
            continue
        compared += 1
        same += checks.digest(out[1]) == want["sha256"]
    return same, compared


def load_reference(workload: str) -> dict:
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path, encoding="ascii") as fh:
        return json.load(fh)["jobs"]


def record_reference(workload: str, results):
    doc = {"workload": workload, "seed": DEFAULT_SEED, "jobs": {}}
    for job, _, out, error in results:
        if error is not None:
            raise RuntimeError(f"{job.label} failed while recording: {error}")
        fp = job.fingerprint(out)
        if job.kind == "cli":
            fp["input"] = job.input_digest
        doc["jobs"][job.label] = fp
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    with open(os.path.join(HERE, "reference", f"{workload}.json"), "w",
              encoding="ascii") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def end_to_end(passes, setup_times) -> dict:
    """End-to-end metrics as (value, unit, sample count).

    Each job time is divided by the host's slowness around it (see
    :class:`HostProbe`), and a job's latency is the median of these scaled
    times over the run's passes.  p50/p90 are taken over the workload's jobs
    of one kind, and ``wall_s`` is the sum of the latencies over the job list.
    """
    scaled = {}
    for results in passes:
        for job, elapsed, slowness in results:
            scaled.setdefault((job.kind, job.label), []).append(elapsed / slowness)
    latency = {key: statistics.median(v) for key, v in scaled.items()}
    metrics = {"setup_s": (statistics.median(setup_times), "s", len(setup_times)),
               "wall_s": (sum(latency.values()), "s", len(latency) * len(passes))}
    for kind in KINDS:
        values = [v * 1000 for (k, _), v in latency.items() if k == kind]
        n = len(values) * len(passes)
        metrics[f"{kind}_ms.p50"] = (statistics.median(values), "ms", n)
        metrics[f"{kind}_ms.p90"] = (quantile(values, 0.9), "ms", n)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB", 1)
    return metrics


def per_layer(args, build, workdir, reference, probe) -> tuple[dict, list[str], list]:
    """Per-layer metrics, the failures of all passes, and the passes.

    Untraced and traced passes alternate; the job list is rebuilt from the
    seed before each pass, so equal counters across traced passes show that
    two runs of one seed repeat them exactly.
    """
    import spans
    tracer = spans.Tracer()
    untraced, traced, summaries, snapshots, identical = [], [], [], [], []
    failures, passes = [], []
    start = time.perf_counter()
    while True:
        results, probes = run_pass(build(args.seed, workdir), probe)
        untraced.append(sum(r[1] for r in results))
        failures += check_pass(results, None)
        passes.append(timings(results, probes))
        jobs = build(args.seed, workdir)
        bindings = tracer.install()
        first = len(tracer.spans)
        tracer.counters.clear()
        tracer.fired.clear()
        try:
            results, probes = run_pass(jobs, probe, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(r[1] for r in results))
        failures += check_pass(results, None)
        passes.append(timings(results, probes))
        summary = tracer.pass_summary(first)
        summaries.append(summary)
        out_bytes = sum(len(r[2][1].encode()) for r in results
                        if r[0].kind == "cli" and r[2] is not None)
        snapshots.append({"calls": dict(summary["calls"]),
                          "counters": dict(tracer.counters),
                          "cli.output_bytes": out_bytes})
        identical.append(byte_identical(results, reference))
        fired = dict(tracer.fired)
        if len(traced) >= 2 and time.perf_counter() - start >= args.seconds:
            break
    if any(s != snapshots[0] for s in snapshots[1:]):
        failures.append("self-check: deterministic counters differ between "
                        "two traced passes of the same seed")
    missing = sorted({f for _, f in spans.TRACED} - set(fired))
    if missing:
        failures.append(f"self-check: traced functions never fired: {missing}")
    print(f"traced {len(bindings)} bindings: {' '.join(bindings)}")
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.tsv.gz"))

    snap = snapshots[0]
    calls, counters = snap["calls"], snap["counters"]
    metrics = {}

    def self_ms(name):
        return min(s["self_s"].get(name, 0.0) for s in summaries) * 1000

    for name in spans.SPAN_NAMES:
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms", len(summaries))
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count", 1)
    # denote spans never nest, so their total is the time spent in denote
    metrics["semantics.denote.total_ms"] = (
        min(s["total_s"].get("semantics.denote", 0.0) for s in summaries) * 1000,
        "ms", len(summaries))
    for name in spans.COUNTERS:
        metrics[name] = (counters.get(name, 0), "count", 1)
    ops_in = counters.get("kraus.make_kraus.ops_in", 0)
    metrics["kraus.make_kraus.coalesce_ratio"] = (
        counters.get("kraus.make_kraus.ops_out", 0) / ops_in if ops_in else 1.0,
        "ratio", 1)
    metrics["cli.output_bytes"] = (snap["cli.output_bytes"], "bytes", 1)
    same, compared = identical[0]
    metrics["cli.byte_identical"] = (same / compared if compared else 0.0,
                                     "ratio", compared)
    metrics["trace.overhead_s"] = (min(traced) - min(untraced), "s", len(traced))
    return metrics, failures, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the default seed's reference and exit")
    args = parser.parse_args(argv)

    pin_blas_threads()
    os.chdir(ROOT)
    try:
        load_qalt()
        import workloads
    except ImportError as exc:
        print(f"error: cannot load qalt from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, warmup = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        job = warmup()
        job.check(job.call())
        print("ready", flush=True)
        return 0

    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)
    probe = HostProbe()
    if args.record:
        if args.seed != DEFAULT_SEED:
            print("error: references are recorded on the default seed only",
                  file=sys.stderr)
            return 2
        record_reference(args.workload, run_pass(build(args.seed, workdir), probe)[0])
        print(f"recorded perfbench/reference/{args.workload}.json")
        return 0

    setup_times = [] if args.trace else [probe_setup(args.workload, probe)
                                         for _ in range(SETUP_PROBES)]
    job = warmup()
    failures = [f"warmup: {p}" for p in job.check(job.call())]
    reference = load_reference(args.workload)
    if args.trace:
        metrics, trace_failures, passes = per_layer(args, build, workdir,
                                                    reference, probe)
        failures += trace_failures
    else:
        jobs = build(args.seed, workdir)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            results, probes = run_pass(jobs, probe)
            failures += check_pass(
                results, reference if args.seed == DEFAULT_SEED and not passes else None)
            passes.append(timings(results, probes))
        metrics = end_to_end(passes, setup_times)
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(results) for results in passes)
    failed_jobs = len(failures)
    info = blas_info()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(passes[0])} jobs")
    print("environment " + json.dumps(info, sort_keys=True))
    print("pass seconds " + " ".join(f"{sum(r[1] for r in results):.3f}"
                                     for results in passes))
    print("host slowness " + " ".join(
        f"{statistics.median(r[2] for r in results):.3f}" for results in passes))
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={count}")
    print(f"  {'failed_ratio':40s} {failed_jobs / attempted:14.6g} ratio  "
          f"n={attempted}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed_jobs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
