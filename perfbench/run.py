"""freecalc benchmark: one closed-loop client calling freecalc's public API.

    python3 perfbench/run.py --workload calc-isometric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run measures one workload in rounds, each round in a fresh process of
this script (``--role round``) that imports freecalc from ``src/`` of the
checkout this file sits in, makes its own inputs from ``--seed``, warms up,
then issues one operation after another for its share of ``--seconds``,
checking each output outside the timed call.  The metrics pool the ops of
all rounds (see ``measure``).  BLAS runs on one thread.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median of
the rounds' set-ups.  ``--trace 1`` measures the workload untraced for half
the time, then traced for the other half, in fresh processes both, and
prints the per-layer metrics with the tracing overhead.  The last line of
standard output is the result as JSON; the lines before it name each
metric with its unit and record the machine.  See README.md for the
metrics and seeds.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import os

# One BLAS thread: set before numpy loads, and inherited by child processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ROUNDS = 4
ROUND_STRIDE = 1_000_000  # round r makes inputs r*ROUND_STRIDE, r*ROUND_STRIDE + 1, ...
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("calc-isometric", "sample-gap", "compiled-poly")

# Span names and the freecalc objects they wrap.
FUNCTION_SPANS = (
    ("freecalc.realization", "eval_colligation"),
    ("freecalc.realization", "poly_to_colligation"),
    ("freecalc.funcalc", "sharp"),
    ("freecalc.funcalc", "compile_polynomial"),
    ("freecalc.spectral", "sup_norm_estimate"),
    ("freecalc.matrix_core", "op_norm"),
    ("freecalc.serialize", "decode_job"),
    ("freecalc.serialize", "encode"),
    ("freecalc.serialize", "dumps_canonical"),
    ("freecalc.cli", "main"),
)
# Methods are wrapped on their class; MatrixTuple.__init__ counts constructions,
# because rebinding the class name would break isinstance checks.
METHOD_SPANS = (
    ("freecalc.freepoly", "PolyMatrix", "eval"),
    ("freecalc.freepoly", "FreePoly", "eval"),
    ("freecalc.matrix_core", "MatrixTuple", "__init__"),
)


def _label(*parts: str) -> str:
    return ".".join(p for p in parts if p != "__init__").removeprefix("freecalc.")


SPAN_LABELS = (
    tuple(_label(*target) for target in FUNCTION_SPANS + METHOD_SPANS)
    + ("realization.homog_series",
       "spectral.proposal")  # wrapped by sample-gap around the proposal it passes in
)


def import_freecalc():
    """Import freecalc from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "freecalc" / "__init__.py").is_file():
        sys.exit(f"error: no freecalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import freecalc

    if SRC.resolve() not in Path(freecalc.__file__).resolve().parents:
        sys.exit(f"error: imported freecalc from {freecalc.__file__}, not from {SRC}")
    return freecalc


# --- machine record -------------------------------------------------------------


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    """HEAD of the repository holding this checkout, read from ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(freecalc) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "freecalc": freecalc.__version__,
        "commit": _git_commit(),
    }


# --- running a workload ------------------------------------------------------------


def _guarded(wl, inp, tracer=None):
    """Run one op; return (latency, output, failure name or None)."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out, failure = wl.run(inp), None
    except Exception as exc:  # one failing op must not end the run
        traceback.print_exc()
        out, failure = None, type(exc).__name__
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return latency, out, failure


def set_up(name: str, seed: int, workdir: str, tracer=None):
    """Import, make the workload and run its warm-up ops.

    Returns the freecalc package, the workload and the seconds since start.
    """
    freecalc = import_freecalc()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if tracer is not None:
        install_spans(tracer)
    wl = workloads.WORKLOADS[name](seed, workdir, tracer)
    for i in range(wl.warm_ops):
        _guarded(wl, wl.make(i, workloads.WARM))
    return freecalc, wl, time.perf_counter() - T_START


def one_round(wl, first: int, seconds: float, tracer=None) -> dict:
    """Run new inputs from index ``first`` on, until they have taken ``seconds``
    and end on a whole rotation of ``wl.period`` op kinds.

    Outputs are checked outside the timed call; a failed op has latency None.
    """
    failures: Counter = Counter()
    counters: Counter = Counter()
    latencies: list[float | None] = []
    busy = 0.0
    while busy < seconds or len(latencies) % wl.period:
        inp = wl.make(first + len(latencies))
        latency, out, failure = _guarded(wl, inp, tracer)
        busy += latency
        if failure is None:
            try:
                counters.update(wl.check(inp, out))
            except Exception as exc:  # a malformed output is a failed op
                traceback.print_exc()
                failure = type(exc).__name__
        if failure is not None:
            failures[failure] += 1
        latencies.append(None if failure else latency)
    return {"latencies": latencies, "busy": busy, "failures": failures, "counters": counters}


def install_spans(tracer) -> None:
    def loop_dim(args):
        F, y = args[0], args[1]
        N = np.shape(y)[1] * F.m  # K = I - G is N x N with N = n*J*m
        tracer.peak("loop_dim_max", N)
        tracer.count("computed_mib", 16.0 * N * N / 2**20)

    for module, attr in FUNCTION_SPANS:
        label = _label(module, attr)
        before = after = None
        if attr == "eval_colligation":
            before = loop_dim
        elif attr == "poly_to_colligation":
            after = lambda F: tracer.count("state_dim_sum", F.m)
        elif attr == "sharp":
            after = lambda rep: tracer.count("terms_used_sum", rep.terms_used)
        tracer.install(module, attr, lambda fn, label=label, before=before, after=after:
                       tracer.wrap(label, fn, before, after))
    tracer.install("freecalc.realization", "homog_series",
                   lambda fn: tracer.wrap_generator("realization.homog_series", fn))
    for module, cls, attr in METHOD_SPANS:
        tracer.install_method(getattr(sys.modules[module], cls), attr,
                              lambda fn, label=_label(module, cls, attr): tracer.wrap(label, fn))


# --- rounds in fresh processes --------------------------------------------------------


def run_round(args) -> None:
    """``--role round``: set up in this fresh process, run one round, print it as JSON."""
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        freecalc, wl, setup_s = set_up(args.workload, args.seed, str(workdir), tracer)
        out = one_round(wl, args.round * ROUND_STRIDE, args.round_seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    out["setup_s"] = setup_s
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine(freecalc)
    if tracer is not None:
        tracer.uninstall()
        out["leftover"] = tracer.leftover_wrappers()
        out["spans"] = tracer.summary()
        out["span_counters"] = tracer.counters
        out["span_maxima"] = tracer.maxima
    print(json.dumps(out))


def _run_self(workload: str, seed: int, seconds: float, trace: int, *extra: str):
    """Run this script in a fresh process and wait for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def _round(args, trace: int, *extra: str) -> dict:
    proc = _run_self(args.workload, args.seed, args.seconds, trace, "--role", "round", *extra)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"error: a round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, seconds: float, trace: int) -> dict:
    """Run the workload for ``seconds`` in ``ROUNDS`` rounds, each in a fresh process.

    Each round runs its own inputs for ``seconds / ROUNDS``, and the metrics
    pool the ops of all rounds.  Speed on a shared host differs from process
    to process and from one spell of seconds to the next, so ops pooled over
    several processes spread less from run to run than ops from one.
    """
    done = [_round(args, trace, "--round", str(r), "--round-seconds", repr(seconds / ROUNDS))
            for r in range(ROUNDS)]
    merged = {
        "latencies": [math.inf if x is None else x for r in done for x in r["latencies"]],
        "busy": sum(r["busy"] for r in done),
        "setups": [r["setup_s"] for r in done],
        "peak_rss_mib": max(r["peak_rss_mib"] for r in done),
        "machine": done[0]["machine"],
    }
    for key in ("failures", "counters", "span_counters"):
        merged[key] = sum((Counter(r.get(key, {})) for r in done), Counter())
    if trace:
        merged["leftover"] = sorted({w for r in done for w in r["leftover"]})
        merged["span_maxima"] = {k: max(r["span_maxima"].get(k, 0.0) for r in done)
                                 for r in done for k in r["span_maxima"]}
        merged["spans"] = {label: {k: sum(r["spans"].get(label, {}).get(k, 0.0) for r in done)
                                   for k in ("calls", "self_s")}
                           for r in done for label in r["spans"]}
    return merged


# --- metrics ------------------------------------------------------------------------


def throughput(loop: dict) -> float:
    """Ops completed per second of time spent in ops."""
    return (len(loop["latencies"]) - sum(loop["failures"].values())) / loop["busy"]


def end_to_end(loop: dict) -> dict:
    lat_ms = np.array(loop["latencies"]) * 1e3
    return {
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "throughput_ops_s": (throughput(loop), "ops/s"),
        "peak_rss_mib": (loop["peak_rss_mib"], "MiB"),
        "setup_s": (statistics.median(loop["setups"]), "s"),
    }


def per_layer(loop: dict, untraced_throughput: float) -> dict:
    """Per-layer figures, each count and time divided by the ops of the traced run."""
    ops = len(loop["latencies"])
    spans = loop["spans"]
    out = {}
    for label in SPAN_LABELS:
        stats = spans.get(label, {"calls": 0.0, "self_s": 0.0})
        key = "terms" if label == "realization.homog_series" else "calls"
        out[f"{label}.{key}"] = (stats["calls"] / ops, "calls/op")
        out[f"{label}.self_s"] = (stats["self_s"] / ops, "s/op")
    c, loop_c = loop["span_counters"], loop["counters"]
    out["realization.eval_colligation.loop_dim_max"] = (
        float(loop["span_maxima"].get("loop_dim_max", 0)), "count")
    out["realization.eval_colligation.computed_mib"] = (c.get("computed_mib", 0.0) / ops, "MiB/op")
    out["realization.poly_to_colligation.state_dim_sum"] = (c.get("state_dim_sum", 0.0) / ops, "states/op")
    out["funcalc.sharp.terms_used_sum"] = (c.get("terms_used_sum", 0.0) / ops, "terms/op")
    out["spectral.trials"] = (loop_c["trials"] / ops, "trials/op")
    out["spectral.admissible_ratio"] = (
        loop_c["admissible"] / loop_c["trials"] if loop_c["trials"] else 0.0, "ratio")
    out["serialize.report_bytes"] = (loop_c["report_bytes"] / ops, "B/op")
    traced_throughput = throughput(loop)
    out["trace.ops"] = (float(ops), "count")
    out["trace.untraced_throughput_ops_s"] = (untraced_throughput, "ops/s")
    out["trace.traced_throughput_ops_s"] = (traced_throughput, "ops/s")
    out["trace.overhead_pct"] = (100.0 * (1.0 - traced_throughput / untraced_throughput), "%")
    return out


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(loop: dict, metrics: dict, trace: bool, correct: bool) -> None:
    attempted = len(loop["latencies"])
    failed = sum(loop["failures"].values())
    declared = _declared(trace)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} (failed {failed} of {attempted} ops: "
          f"{dict(loop['failures']) or 'none'})")
    print(f"rounds = {ROUNDS}, time in ops = {loop['busy']:.3f} s")
    print("machine: " + json.dumps(loop["machine"], sort_keys=True))
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    print(json.dumps(result), flush=True)


def run_untraced(args) -> None:
    loop = measure(args, args.seconds, 0)
    emit(loop, end_to_end(loop), False, True)


def run_traced(args) -> None:
    half = args.seconds / 2.0
    untraced = throughput(measure(args, half, 0))
    loop = measure(args, half, 1)
    correct = True
    if loop["leftover"]:
        print(f"wrappers left bound after the traced run: {loop['leftover']}")
        correct = False
    if loop["spans"]["<all>"]["self_s"] > loop["busy"]:
        print(f"span self times sum to {loop['spans']['<all>']['self_s']} s, "
              f"more than the {loop['busy']} s the ops took")
        correct = False
    emit(loop, per_layer(loop, untraced), True, correct)


# --- smoke mode ------------------------------------------------------------------------


def smoke() -> int:
    """A few ops per workload, traced and untraced; checks names, units and results."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _run_self(name, DEFAULT_SEED, 1.0, trace)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"result {result['correct']=} {result['failed']=} "
                                    f"{result['attempted']=}")
                for metric, unit in _declared(bool(trace)).items():
                    got = result["metrics"].get(metric, {}).get("unit")
                    if got != unit:
                        problems.append(f"{metric}: unit {got!r}, declared {unit!r}")
                    if not any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                               for line in lines):
                        problems.append(f"{metric} not printed with its unit")
            ok = ok and not problems
            print(f"{'PASS' if not problems else 'FAIL'} {name} --trace {trace}"
                  + "".join(f"\n  {p}" for p in problems), flush=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the printed metrics")
    parser.add_argument("--role", choices=("round",), help=argparse.SUPPRESS)
    parser.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--round-seconds", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.role == "round":
        run_round(args)
        return 0
    # On SIGTERM, unwind through subprocess.run, which kills and waits for a running round.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_freecalc()
    (run_traced if args.trace else run_untraced)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
