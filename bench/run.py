#!/usr/bin/env python3
"""Benchmark of the uew package: one closed-loop workload per invocation.

    python3 bench/run.py --workload alpha0 --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is a fuller report (environment, failure share, tail latency, raw wall
times, absent traced names). Workloads and metrics are described in
bench/README.md.
"""

import os

PINNED_THREADS = 1
# BLAS/OpenMP pools are sized when numpy loads, so pin them before any import of it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("alpha0", "noise-scan")
SETUP_CHILDREN = 6      # extra set-ups in fresh processes; setup_s is the median
TAIL_BEYOND = 10        # op_tail_s is the highest percentile with this many samples above it
CHILD_TIMEOUT_S = 60
# Timings are scaled to a reference speed of the machine: one calibration
# chunk takes CAL_NOMINAL_S there. A chunk runs every CAL_INTERVAL_S inside
# every timed op; after a set-up, chunks run for as long as the set-up took.
CAL_NOMINAL_S = 0.008
CAL_INTERVAL_S = 0.1


@dataclass
class Op:
    index: int
    latency: float
    output: object
    error: str | None
    speed: float = 1.0  # machine speed while the op ran, relative to the reference


def calibration_chunk() -> float:
    """Fixed work of the program's kind; returns its seconds.

    Python loops over complex numbers, and numpy calls on small complex matrices
    (products, Kronecker products, Hermitian eigensolves), as in the
    package. Nothing here calls the package, so the chunk costs the same
    on every commit.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.exp(2j * np.pi * np.arange(4) / 7).reshape(2, 2)
    m = np.kron(a, a.conj())
    m = m + m.conj().T
    acc = 0.0
    for k in range(48):
        w, v = np.linalg.eigh(m)
        acc += float(np.vdot(v[:, -1], m @ v[:, -1]).real) - w[-1]
        m = m + 1e-3 * np.kron(a, a) * (k % 3 - 1)
        m = (m + m.conj().T) / 2
    z = 0j
    for i in range(10000):
        z = (z * 0.5 + complex(i % 7, 1.0)) / (1.0 + abs(z))
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc + abs(z)):
        raise RuntimeError("calibration chunk lost its result")
    return seconds


def calibrate(seconds: float) -> list:
    """Chunk times of at least one chunk and at least ``seconds`` of chunks."""
    chunks = [calibration_chunk()]
    while sum(chunks) < seconds:
        chunks.append(calibration_chunk())
    return chunks


def speed(chunks) -> float:
    """Machine speed relative to the reference: CAL_NOMINAL_S / mean chunk time."""
    return CAL_NOMINAL_S * len(chunks) / sum(chunks)


class SpeedSampler:
    """Runs a calibration chunk every CAL_INTERVAL_S of wall time while it is entered.

    A SIGALRM handler runs the chunk between two bytecodes of the code
    being timed, so the chunks sample the machine's speed while that code
    runs rather than beside it; chunks taken after each op tracked the
    speed during it too loosely to help. The caller takes the chunks' time
    out of the latency it measures.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        if self._busy:  # a slow chunk outlasted the interval
            return
        self._busy = True
        try:
            self.chunks.append(calibration_chunk())
        finally:
            self._busy = False

    def __enter__(self):
        self.chunks = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs.

    Returns (workload, seconds, calibration chunk times taken right after).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import uew
    import workloads

    if Path(uew.__file__).resolve().parent != SRC / "uew":
        raise SystemExit(f"uew was imported from {uew.__file__}, not from {SRC}")
    wl = workloads.BUILDERS[workload](seed, workdir)
    seconds = time.perf_counter() - t0
    return wl, seconds, calibrate(seconds)


def child_setups(workload: str, seed: int) -> list:
    """(seconds, calibration chunks) of set-ups in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((row["setup_s"], row["calibration_s"]))
    return out


def run_op(wl, i: int) -> tuple:
    try:
        return wl.run(i), None
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(wl, first: int, tracer=None) -> list:
    """One op on every pool entry, starting at op index ``first``."""
    ops = []
    for i in range(first, first + len(wl.pool)):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        out, err = run_op(wl, i)
        ops.append(Op(i, time.perf_counter() - t0, out, err))
    return ops


def sampled_pass(wl, first: int, sampler: SpeedSampler) -> list:
    """One op on every pool entry, each timed net of the sampler's chunks.

    An op too short to be sampled gets one chunk right after it.
    """
    ops = []
    for i in range(first, first + len(wl.pool)):
        t0 = time.perf_counter()
        with sampler:
            out, err = run_op(wl, i)
        latency = time.perf_counter() - t0 - sum(sampler.chunks)
        chunks = sampler.chunks or [calibration_chunk()]
        ops.append(Op(i, latency, out, err, speed(chunks)))
    return ops


def traced_pass(wl, first: int, tracer) -> list:
    tracer.install()
    try:
        return run_pass(wl, first, tracer)
    finally:
        tracer.uninstall()


def timed_loop(wl, seconds: float):
    """Run sampled passes until ``seconds`` have passed."""
    ops = []
    sampler = SpeedSampler()
    start = time.perf_counter()
    for n in itertools.count():
        ops += sampled_pass(wl, n * len(wl.pool), sampler)
        if time.perf_counter() - start >= seconds:
            return ops


def traced_loop(wl, seconds: float, tracer):
    """Run passes until ``seconds`` have passed, every pass twice on the same inputs.

    One copy runs plain and one with the wrappers installed, so the two
    sets of latencies give the tracing overhead. Which copy runs first
    alternates from pass to pass, because a second run of the same input
    is faster. Returns (plain ops, traced ops).
    """
    plain, traced = [], []
    start = time.perf_counter()
    for n in itertools.count():
        first = n * len(wl.pool)
        if n % 2 == 0:
            plain += run_pass(wl, first)
        traced += traced_pass(wl, first, tracer)
        if n % 2 == 1:
            plain += run_pass(wl, first)
        if time.perf_counter() - start >= seconds:
            return plain, traced


def run_checks(wl, ops) -> list:
    """Checks every op after the timed region; returns the failure notes."""
    from workloads import Check

    failures = []
    for op in ops:
        if op.error is not None:
            failures.append(f"op {op.index}: raised {op.error}")
            continue
        try:
            chk = wl.check(op.index, op.output)
        except Exception as exc:  # a check that cannot run counts against the op
            chk = Check(False, note=f"check raised {type(exc).__name__}: {exc}")
        if not chk.ok:
            failures.append(f"op {op.index}: {chk.note}")
    return failures


def tail_latency(latencies):
    """(value, percentile, samples) at the highest percentile with TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def git_sha() -> str:
    """HEAD of the checkout's git directory, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops, setups, peak_rss_mb) -> dict:
    """The gated metrics, with every time scaled to the reference speed.

    ``setups`` holds (seconds, calibration chunks) per set-up. A time t
    measured while the machine ran at ``speed`` would have taken
    t * speed at the reference speed.
    """
    completed = sum(op.error is None for op in ops)
    at_ref = [op.latency * op.speed for op in ops]
    return {
        "setup_s": metric(statistics.median(t * speed(c) for t, c in setups), "s"),
        "ops_per_s": metric(completed / sum(at_ref), "1/s"),
        "op_p50_s": metric(statistics.median(at_ref), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced_ops, untraced_ops, results) -> dict:
    import spans

    n = len(traced_ops)
    summary = tracer.summary()
    out = {}
    for t in spans.TARGETS:
        row = summary[t.name]
        out[f"{t.name}.calls"] = metric(row["calls"] / n, "1/op")
        out[f"{t.name}.self_s"] = metric(row["self_s"] / n, "s/op")
        if not t.leaf:
            out[f"{t.name}.total_s"] = metric(row["total_s"] / n, "s/op")
    unc = summary["optimize.sup_product_unconstrained"]["calls"]
    a0 = summary["optimize.compute_alpha0"]["calls"]
    scans = summary["analysis.threshold_scan"]["calls"]
    members = summary["states.NoisyStateFamily.member"]["calls"]
    inside_a0 = tracer.ancestor_counts("optimize.sup_product_constrained", "optimize.compute_alpha0")
    out["optimize.seesaw_per_op"] = metric(unc / n, "1/op")
    out["optimize.constrained_per_alpha0"] = metric(inside_a0 / a0 if a0 else 0.0, "count")
    out["optimize.short_circuit_share"] = metric(
        results["short_circuit"] / results["constrained"] if results["constrained"] else 0.0, "ratio")
    out["optimize.seesaw_iterations_mean"] = metric(
        results["iterations"] / results["unconstrained"] if results["unconstrained"] else 0.0, "count")
    out["analysis.members_per_scan"] = metric(members / scans if scans else 0.0, "count")
    # tracing overhead: every traced op has a plain twin on the same input
    rate_plain = n / sum(op.latency for op in untraced_ops)
    rate_traced = n / sum(op.latency for op in traced_ops)
    out["trace.ops_per_s_untraced"] = metric(rate_plain, "1/s")
    out["trace.ops_per_s_traced"] = metric(rate_traced, "1/s")
    out["trace.overhead_ops_per_s"] = metric(rate_plain - rate_traced, "1/s")
    return out


def result_observers(tracer) -> dict:
    results = {"constrained": 0, "short_circuit": 0, "unconstrained": 0, "iterations": 0}

    def constrained(res):
        results["constrained"] += 1
        results["short_circuit"] += res.method == "seesaw"

    def unconstrained(res):
        results["unconstrained"] += 1
        results["iterations"] += res.iterations

    tracer.observers["optimize.sup_product_constrained"] = [constrained]
    tracer.observers["optimize.sup_product_unconstrained"] = [unconstrained]
    return results


def measure(args, workdir: Path) -> int:
    wl, first_setup, first_chunks = setup(args.workload, args.seed, workdir)
    run_op(wl, 0)  # warm-up, untimed: the first op of a process runs slower
    report = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed),
              "setup_peak_rss_mb": peak_rss_mb()}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        results = result_observers(tracer)
        plain_ops, traced_ops = traced_loop(wl, args.seconds, tracer)
        ops = plain_ops + traced_ops
        failures = run_checks(wl, ops)
        metrics = per_layer(tracer, traced_ops, plain_ops, results)
        tracer.save(WORK / f"spans-{args.workload}.npz")
        report["absent"] = tracer.absent
        report["spans"] = len(tracer.start)
    else:
        ops = timed_loop(wl, args.seconds)
        peak_mb = peak_rss_mb()
        setups = [(first_setup, first_chunks)] + child_setups(args.workload, args.seed)
        failures = run_checks(wl, ops)
        metrics = end_to_end(ops, setups, peak_mb)
        latencies = [op.latency for op in ops]
        report["speed_p50"] = statistics.median(op.speed for op in ops)
        report["wall"] = {
            "setup_s": [t for t, _ in setups],
            "op_p50_s": statistics.median(latencies),
            "ops_per_s": sum(op.error is None for op in ops) / sum(latencies),
        }
        tail = tail_latency(latencies)
        report["op_tail_s"] = None if tail is None else {
            "value": tail[0], "unit": "s", "percentile": tail[1], "samples": tail[2]}
    report["fail_share"] = metric(len(failures) / len(ops), "ratio")
    report["failures"] = failures[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs in this process and print the set-up time")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            _, seconds, chunks = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds, "calibration_s": chunks}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
