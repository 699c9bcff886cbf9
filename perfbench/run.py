"""Benchmark for hypersum: one closed-loop workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sum-grid --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout. Output is two JSON
lines on stdout: a report (run metadata, every end-to-end metric by name
with its unit, failure counts by kind) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is traced and
the metrics are the per-layer ones, and the spans are written to
``.perfbench_out/`` in the checkout. See README.md for the definitions.
"""

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import beyond, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 120
REFERENCE_KERNEL_S = 2e-3
PROBE_EVERY_S = 0.1
PROBE_REACH_S = 0.1
# A window never runs past this multiple of --seconds in wall time, which
# bounds a run on a slow host.
WALL_CAP = 1.25


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_interpreter_s(code, repeats):
    """Median seconds from spawning ``python3 -c code`` to the point where
    the child prints ``time.monotonic()`` (system-wide on Linux)."""
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code + "\nimport time\nprint(repr(time.monotonic()))"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed: %s" % proc.stderr.strip()[-500:])
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def git_commit():
    """HEAD of the checkout if it is a git work tree, read from ``.git`` only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata():
    import numpy
    import scipy
    return {"host": socket.gethostname(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit()}


def run_op(op, acc):
    """Failure kind of one op, or None. Never raises for program errors."""
    from hypersum import HypersumError, NonConvergent, SlowConvergence
    from checks import NON_CONVERGENT, SLOW_CONVERGENCE, TRACEBACK, TYPED_ERROR
    try:
        return op.run(acc)
    except SlowConvergence:
        return SLOW_CONVERGENCE
    except NonConvergent:
        return NON_CONVERGENT
    except HypersumError:
        return TYPED_ERROR
    except Exception:
        return TRACEBACK


class Tally:
    """Outcome counts: passes, known-defect failures and other failures.

    ``ceilings`` maps ``(op kind, failure kind)`` to ``(share, slack)``: at
    most ``floor(share * attempts) + slack`` of that op kind's attempts count
    as that known defect. The rest count as other failures, so a known
    defect that gets more frequent shows in ``failed``.
    """

    def __init__(self, ceilings):
        self.ceilings = ceilings
        self.attempted = 0
        self.passed = 0
        self.failed = 0
        self.by_op_kind = {}
        self.known_by_kind = {}     # (op kind, failure kind) -> count
        self.failed_by_kind = {}    # "<op kind>:<failure kind>[ over ...]" -> count

    @property
    def known(self):
        return sum(self.known_by_kind.values())

    def add(self, op_kind, fail, known):
        self.attempted += 1
        self.by_op_kind[op_kind] = self.by_op_kind.get(op_kind, 0) + 1
        if fail is None:
            self.passed += 1
        elif fail in known:
            self.known_by_kind[op_kind, fail] = self.known_by_kind.get((op_kind, fail), 0) + 1
        else:
            self._fail("%s:%s" % (op_kind, fail), 1)

    def _fail(self, key, count):
        self.failed += count
        self.failed_by_kind[key] = self.failed_by_kind.get(key, 0) + count

    def settle(self):
        """Move known-defect failures beyond their ceiling to ``failed``."""
        for (op_kind, fail), count in self.known_by_kind.items():
            share, slack = self.ceilings.get((op_kind, fail), (0.0, 0))
            allowed = math.floor(share * self.by_op_kind[op_kind]) + slack
            if count > allowed:
                self.known_by_kind[op_kind, fail] = allowed
                self._fail("%s:%s over its known-defect ceiling" % (op_kind, fail), count - allowed)

    def kinds(self):
        """Failure counts by kind, for the report."""
        out = {"%s:%s (known defect)" % k: n for k, n in self.known_by_kind.items() if n}
        out.update(self.failed_by_kind)
        return out


def _speed_kernel():
    """Fixed pure-Python work, about 1.5 ms here: an arithmetic loop, then
    math calls with list growth. The two halves track the host's speed
    best for mc-progeny and sum-grid respectively."""
    s = 0.0
    for i in range(12000):
        s += i * 0.5
    xs = []
    for i in range(1, 2000):
        s += math.log(i) * 0.5 + math.exp(-i * 1e-3)
        xs.append(s)
    return s


class SpeedProbe:
    """Tracks the speed of the machine during a window.

    The host is shared, and its speed drifts by up to a factor of two over
    tens of seconds. The probe times a fixed kernel between ops, at most
    every ``PROBE_EVERY_S``. Each op's latency is then scaled by
    ``REFERENCE_KERNEL_S`` over the median kernel time of the probes that
    bracket it: two on each side at least, and all within
    ``PROBE_REACH_S`` of the op. The result is in seconds on a machine
    where the kernel takes exactly ``REFERENCE_KERNEL_S``.
    """

    def __init__(self):
        self.at = []
        self.kernel_s = []
        self.spent = 0.0

    def sample(self, force=False):
        t0 = time.perf_counter()
        if not force and self.at and t0 - self.at[-1] < PROBE_EVERY_S:
            return
        _speed_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.kernel_s.append(t1 - t0)
        self.spent += t1 - t0

    def scales(self, starts, latencies):
        out = []
        for t0, dt in zip(starts, latencies):
            j = bisect.bisect_left(self.at, t0)
            lo = min(bisect.bisect_left(self.at, t0 - PROBE_REACH_S), max(j - 2, 0))
            hi = max(bisect.bisect_right(self.at, t0 + dt + PROBE_REACH_S), j + 2)
            out.append(REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi]))
        return out


def closed_loop(ops, seconds, acc, tally, probe=None):
    """Run ops one after another, starting the next when one ends, until
    ``seconds`` pass.

    With a probe, the window is ``seconds`` of reference-speed time, as the
    recent probes estimate it, so a run reaches the same point of its cycle
    however fast the host is at the time; it ends early only at
    ``WALL_CAP * seconds`` of wall time. Returns per-op latencies in s,
    per-op speed scales (all 1.0 without a probe), the window in wall
    seconds, probe time excluded, and per-op pass flags.
    """
    lat = []
    starts = []
    ok = []
    start = time.perf_counter()
    used = 0.0
    i = 0
    while True:
        if probe is not None:
            probe.sample()
        op = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        fail = run_op(op, acc)
        end = time.perf_counter()
        starts.append(t0)
        lat.append(end - t0)
        ok.append(fail is None)
        tally.add(op.kind, fail, op.known)
        if probe is not None:
            used += (end - t0) * REFERENCE_KERNEL_S / statistics.median(probe.kernel_s[-3:])
        else:
            used = end - start
        if used >= seconds or end - start >= WALL_CAP * seconds:
            break
    if probe is None:
        return lat, [1.0] * len(lat), end - start, ok
    window = end - start - probe.spent
    probe.sample(force=True)
    return lat, probe.scales(starts, lat), window, ok


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


END_TO_END_UNITS = {"throughput_ops_per_s": "ops/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def untraced_run(args, wl, setup_s):
    """The timed window with tracing off: end-to-end metrics and the report."""
    acc = {}
    tally = Tally(wl.known_ceiling)
    probe = SpeedProbe() if wl.in_process else None
    lat, scales, elapsed, ok = closed_loop(wl.ops, args.seconds, acc, tally, probe=probe)
    for op in wl.after:
        tally.add(op.kind, run_op(op, acc), op.known)
    tally.settle()
    # Throughput counts the whole cycles of ops in the window, if it holds
    # one or more, over their share of the window. A cycle's ops differ in
    # cost by up to 1e4 times, so the count done in a partial last cycle
    # swings with where the window happens to end.
    n = len(lat) - len(lat) % len(wl.ops) or len(lat)

    def figures(latencies, window):
        s = sorted(latencies)
        return {
            "throughput_ops_per_s": sum(ok[:n]) / (window * sum(latencies[:n]) / sum(latencies)),
            "latency_p50_ms": percentile(s, 50.0) * 1e3,
            "latency_tail_ms": percentile(s, wl.tail_pct) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(args.workload),
        }

    scaled = [t * k for t, k in zip(lat, scales)]
    metrics = figures(scaled, elapsed * sum(scaled) / sum(lat))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    report = dict(metrics)
    report["error_rate"] = {"value": (tally.failed + tally.known) / tally.attempted, "unit": "ratio"}
    report["replicates_per_s"] = {
        "value": acc["replicates"] / acc["simulate_s"] if acc.get("simulate_s") else None,
        "unit": "replicates/s"}
    time_by_kind = {}
    for i, t in enumerate(lat):
        kind = wl.ops[i % len(wl.ops)].kind
        time_by_kind[kind] = time_by_kind.get(kind, 0.0) + t
    detail = {"samples": len(lat), "throughput_samples": n, "window_s": elapsed,
              "tail_percentile": wl.tail_pct,
              "tail_samples_beyond": beyond(len(lat), wl.tail_pct), "seconds_by_op_kind": time_by_kind,
              "wall_clock": figures(lat, elapsed)}
    if probe is not None:
        detail["speed_probe"] = {"samples": len(probe.kernel_s),
                                 "kernel_ms_median": statistics.median(probe.kernel_s) * 1e3,
                                 "kernel_ms_min": min(probe.kernel_s) * 1e3,
                                 "kernel_ms_max": max(probe.kernel_s) * 1e3,
                                 "reference_kernel_ms": REFERENCE_KERNEL_S * 1e3}
    return tally, metrics, report, detail


def traced_run(args, wl):
    """Each op runs twice, once traced and once not, in alternating order,
    for ``seconds`` in all. The traced runs give the per-layer figures; the
    pairs give the tracing overhead, free of drift in the host's speed."""
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import Op
    tracer = Tracer()
    lat_t, lat_u = [], []

    def paired(op, traced_first):
        def run(acc):
            fail = None
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.install()
                    try:
                        t0 = time.perf_counter()
                        with tracer.span("op", op.kind):
                            fail = run_op(op, acc)
                        lat_t.append(time.perf_counter() - t0)
                    finally:
                        tracer.uninstall()
                else:
                    t0 = time.perf_counter()
                    run_op(op, {})
                    lat_u.append(time.perf_counter() - t0)
            return fail
        return Op(op.kind, run, op.known)

    # Two passes over the ops, so each op runs traced first in one of them.
    ops = [paired(op, i % 2 == 0) for i, op in enumerate(wl.trace_ops * 2)]
    acc = {}
    tally = Tally(wl.known_ceiling)
    closed_loop(ops, args.seconds, acc, tally)
    tally.settle()
    values, tails = layer_metrics(tracer.spans)
    values["trace.overhead_ratio"] = sum(lat_t) / sum(lat_u) - 1.0
    values["cli.interpreter_s"] = fresh_interpreter_s("pass", SETUP_REPEATS)
    values["cli.import_s"] = fresh_interpreter_s("import hypersum.cli", SETUP_REPEATS)
    records = acc.get("cli_records", 0)
    values["cli.bytes_per_record"] = acc["cli_bytes"] / records if records else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    tracer.write(spans_path)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    detail = {"samples": len(lat_t), "layer_tails": tails, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return tally, metrics, detail


def load_program():
    """Import hypersum from this checkout's src/, and nowhere else."""
    if not (SRC / "hypersum" / "__init__.py").is_file():
        sys.exit("error: %s not found; run from a hypersum source checkout" % (SRC / "hypersum"))
    sys.path.insert(0, str(SRC))
    import hypersum
    if Path(hypersum.__file__).resolve().parent != (SRC / "hypersum").resolve():
        sys.exit("error: imported hypersum from %s, not from this checkout" % hypersum.__file__)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # The benchmark measures the default term cap, in this process and in
    # every child it starts.
    os.environ.pop("HYPERSUM_MAX_TERMS", None)
    load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit("error: unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)))
    env = {"root": str(ROOT), "child_env": child_env()}
    wl = WORKLOADS[args.workload](random.Random(args.seed), env)
    head = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "run": metadata(), "ops_in_cycle": len(wl.ops)}
    if args.trace:
        tally, metrics, detail = traced_run(args, wl)
        head["per_layer"] = metrics
    else:
        setup_s = fresh_interpreter_s("import hypersum\n" + wl.warmup, SETUP_REPEATS)
        tally, metrics, report, detail = untraced_run(args, wl, setup_s)
        head["end_to_end"] = report
    head.update(detail)
    head.update({"attempted": tally.attempted, "passed": tally.passed,
                 "known_defect_failures": tally.known, "other_failures": tally.failed,
                 "failures_by_kind": tally.kinds(), "attempts_by_op_kind": tally.by_op_kind})
    print(json.dumps({"report": head}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
