"""chiralgate benchmark.

    python3 bench/run.py --workload scenario --seed 1 --seconds 20 --trace 0

Runs one seeded workload (scenario, trotter-sweep or qasm-export, see
workloads.py) against the package in this checkout's src/, checks every
output, prints each metric with its unit and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Times are in reference milliseconds.  This host's speed drifts by up to 1.7x
over tens of seconds (other tenants share its cores), which moves a run's
median wall time by as much.  So a fixed calibration kernel runs between
timed intervals, and each interval's wall time is scaled by CAL_REF_MS over
the median of the kernel times around it and around the CAL_WINDOW intervals
on each side.  The kernel runs in a helper process that never imports
chiralgate, so nothing done to the measured interpreter (a profiler hook, a
busy thread, a GC setting) slows the kernel and cancels out of the ratio.
A reference ms is a wall ms on a host where the kernel takes CAL_REF_MS;
parent and change are compared in the same unit.  The wall-clock median and
the range of the scale factor are printed beside the metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run that
alternates untraced and traced executions of each operation and reports the
per-layer metrics (spans recorded by spans.py) plus the tracing overhead.
The spans are written to .bench_out/trace-<workload>-seed<seed>.json.

Exits non-zero without a result line when the checkout has no src/chiralgate,
and with code 1 after the result line when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# The machine has 2 cores and the loop has one client: pin BLAS to 1 thread
# before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import ENTRY, OP, Recorder, instrument  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 9       # timed fresh interpreters, after one untimed warm-up
MIN_OPS = 4             # operations measured even when --seconds runs out first
COUNT_OPS = 4           # counts are per-op means over the first COUNT_OPS traced ops
TAIL_BEYOND = 10
CAL_REF_MS = 24.0       # calibration kernel time that defines the reference speed
CAL_WINDOW = 2          # neighbouring intervals whose calibrations set one's speed

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, what to report)
PER_LAYER = {
    "config.validate_ms": ("config.validate", "ms"),
    "pulses.build_schedule_ms": ("pulses.build_schedule", "ms"),
    "pulses.discretize_ms": ("pulses.discretize", "ms"),
    "pulses.discretize_calls": ("pulses.discretize", "calls"),
    "pulses.slices": ("pulses.slices", "count"),
    "hamiltonians.generator_calls": ("hamiltonians.generator", "calls"),
    "hamiltonians.generator_ms": ("hamiltonians.generator", "ms"),
    "hamiltonians.predict_r_ms": ("hamiltonians.predict_r", "ms"),
    "propagate.oracle_ms": ("propagate.oracle", "ms"),
    "propagate.oracle_steps": ("propagate.oracle_steps", "count"),
    "propagate.oracle_self_ms": ("propagate.oracle", "self_ms"),
    "propagate.trace_at_calls": ("propagate.trace_at", "calls"),
    "propagate.trace_at_ms": ("propagate.trace_at", "ms"),
    "propagate.to_csv_ms": ("propagate.to_csv", "ms"),
    "propagate.csv_bytes": ("propagate.csv_bytes", "count"),
    "circuits.compile_ms": ("circuits.compile", "ms"),
    "circuits.macro_gates": ("circuits.macro_gates", "count"),
    "circuits.statevector_ms": ("circuits.statevector", "ms"),
    "circuits.gates_applied": ("circuits.gates_applied", "count"),
    "circuits.expand_ms": ("circuits.expand", "ms"),
    "circuits.native_gates": ("circuits.native_gates", "count"),
    "circuits.sample_ms": ("circuits.sample", "ms"),
    "scenarios.qasm_ms": ("scenarios.qasm", "ms"),
    "scenarios.qasm_bytes": ("scenarios.qasm_bytes", "count"),
    "scenarios.report_ms": ("scenarios.report", "ms"),
    "scenarios.self_ms": (ENTRY, "self_ms"),
    "scenarios.bytes_written": ("scenarios.bytes_written", "count"),
    "trace.op_ms": (OP, "ms"),
    "trace.overhead_ratio": (None, "ratio"),
}
UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "count": "count", "ratio": "ratio"}

# what every `chiralgate` command pays before its work: the package and the
# CLI imported, the config validated
SETUP_CODE = ("import json, sys\n"
              "import chiralgate.cli\n"
              "for raw in json.loads(sys.argv[1]):\n"
              "    chiralgate.config.validate_config(raw)\n")


def use_checkout_source() -> None:
    """Import chiralgate from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chiralgate" / "__init__.py").is_file():
        sys.exit(f"bench: no chiralgate source at {src}")
    sys.path.insert(0, str(src))
    import chiralgate
    if Path(chiralgate.__file__).resolve().parent != src / "chiralgate":
        sys.exit(f"bench: chiralgate imported from {chiralgate.__file__}, not {src}")


def tail_latency(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, samples above it) at the highest percentile that
    leaves at least `beyond` samples above it; the maximum, reported as the
    100th percentile with 0 above, when there are too few samples."""
    s = sorted(samples)
    if len(s) <= beyond:
        return s[-1], 100.0, 0
    idx = len(s) - beyond - 1
    return s[idx], 100.0 * (idx + 1) / len(s), beyond


# The calibration helper: a fixed kernel that shares no code with the
# program (small Hermitian eigendecompositions and products in a Python
# loop, which slow down with the host the way the workloads do), timed in
# its own process once per line read from stdin.
CAL_CODE = """\
import sys
from time import perf_counter
import numpy as np
h = np.array([[0, 1, 0], [1, 0, 0.5], [0, 0.5, 0]], dtype=complex)
u = np.eye(4, dtype=complex)
while sys.stdin.readline():
    t0 = perf_counter()
    for _ in range(1200):
        vals, vecs = np.linalg.eigh(h)
        u[np.ix_([0, 2, 3], [0, 2, 3])] = (vecs * np.exp(-0.01j * vals)) @ vecs.conj().T
    print((perf_counter() - t0) * 1e3, flush=True)
"""


class Speed:
    """Calibrations taken between timed intervals.  The host's speed changes
    over seconds, so the median of the calibrations around an interval
    sets its speed; one calibration alone adds its own jitter."""

    def __init__(self):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.helper = subprocess.Popen([sys.executable, "-c", CAL_CODE], cwd=ROOT,
                                       env=dict(env, **BLAS_ENV), text=True,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.calibrate()    # warm-up: first calls into numpy's linalg
        self.cals = [self.calibrate()]

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait()

    def calibrate(self) -> float:
        """Wall ms of one run of the kernel in the helper process."""
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("bench: the calibration helper exited")
        return float(line)

    def mark(self) -> int:
        """Close the interval since the previous mark; return its index."""
        self.cals.append(self.calibrate())
        return len(self.cals) - 2

    def factor(self, k: int) -> float:
        """Reference ms per wall ms during interval k."""
        return CAL_REF_MS / statistics.median(
            self.cals[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 2])


def time_setup(raws: list[dict], speed: Speed) -> float:
    """Median time, in reference s, of a fresh interpreter running
    SETUP_CODE on the workload's configs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(raws)]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills bytecode and file caches
    speed.mark()
    timed = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        timed.append((perf_counter() - t0, speed.mark()))
    return statistics.median(wall * speed.factor(k) for wall, k in timed)


class Runner:
    """Executes and checks operations, counting attempts and failures."""

    def __init__(self, workloads, workload: str, pool: list[dict], work_dir: Path):
        self.workloads, self.workload, self.pool = workloads, workload, pool
        self.state = workloads.prepare(workload, pool)
        self.work_dir = work_dir
        self.attempted = self.failed = 0

    def op(self, index: int, rec: Recorder | None = None, traced_op: int = -1) -> float | None:
        """Wall seconds of operation `index`, None if it raised."""
        wl = self.workloads
        inp = self.pool[index % len(self.pool)]
        out_dir = str(self.work_dir / f"op{index}")
        self.attempted += 1
        latency = None
        try:
            if rec is None:
                t0 = perf_counter()
                results = wl.run_op(self.workload, inp, out_dir)
                latency = perf_counter() - t0
            else:
                with instrument(rec):
                    t0 = perf_counter()
                    with rec.op_span(traced_op):
                        results = wl.run_op(self.workload, inp, out_dir)
                    latency = perf_counter() - t0
                rec.counts[(traced_op, "scenarios.bytes_written")] += \
                    wl.output_bytes(out_dir) if os.path.isdir(out_dir) else 0
            wl.check_op(self.workload, self.state, index, inp, results, out_dir)
        except checks.CheckFailed as exc:
            self.failed += 1
            print(f"op {index}: check failed: {exc}", file=sys.stderr)
        except Exception:  # an op that raises is a failed op; keep measuring
            self.failed += 1
            print(f"op {index} raised:", file=sys.stderr)
            traceback.print_exc()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return latency


def end_to_end(runner: Runner, speed: Speed, seconds: float,
               setup_s: float) -> tuple[dict, list[str]]:
    runner.op(0)   # warm-up, untimed: first calls into numpy/scipy paths
    speed.mark()
    timed = []     # (wall s, calibration interval)
    deadline = perf_counter() + seconds
    i = 1
    while i <= MIN_OPS or perf_counter() < deadline:
        lat = runner.op(i)
        k = speed.mark()
        if lat is not None:
            timed.append((lat, k))
        i += 1
    ref_ms = [lat * 1e3 * speed.factor(k) for lat, k in timed] or [float("nan")]
    wall_ms = [lat * 1e3 for lat, _ in timed] or [float("nan")]
    tail, pct, beyond = tail_latency(ref_ms)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": 1e3 * len(ref_ms) / sum(ref_ms),
        "latency_p50_ms": statistics.median(ref_ms),
        "latency_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    factors = [speed.factor(k) for k in range(len(speed.cals) - 1)]
    notes = [f"latency_tail_ms is p{pct:.1f} of {len(ref_ms)} samples, {beyond} beyond it",
             f"failure_ratio {runner.failed / runner.attempted:.4g} "
             f"({runner.failed} of {runner.attempted} ops failed)",
             f"wall-clock latency p50 {statistics.median(wall_ms):.6g} ms; reference ms per "
             f"wall ms: median {statistics.median(factors):.4g}, "
             f"range {min(factors):.4g}-{max(factors):.4g}"]
    return metrics, notes


def per_layer(runner: Runner, speed: Speed, seconds: float,
              trace_path: Path) -> tuple[dict, list[str]]:
    rec = Recorder()
    runner.op(0)   # warm-up, untimed
    speed.mark()
    pairs = []     # (traced op, (wall s, interval) untraced, (wall s, interval) traced)
    deadline = perf_counter() + seconds
    i = 1
    while i <= MIN_OPS or perf_counter() < deadline:
        traced_op = i - 1
        timed = {}
        # alternate which execution goes first so neither gets a warmer cache
        for traced in (i % 2 == 0, i % 2 == 1):
            lat = runner.op(i, rec, traced_op) if traced else runner.op(i)
            timed[traced] = (lat, speed.mark())
        pairs.append((traced_op, timed[False], timed[True]))
        i += 1
    factors = {op: speed.factor(k) for op, _, (_, k) in pairs}
    ratios = [(lt * speed.factor(kt)) / (lp * speed.factor(kp))
              for _, (lp, kp), (lt, kt) in pairs if lp and lt]
    own = rec.self_times()
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, s_own in zip(rec.spans, own):
        name, scale = span[0], 1e3 * factors[span[4]]
        total_ms[name] = total_ms.get(name, 0.0) + (span[2] - span[1]) * scale
        self_ms[name] = self_ms.get(name, 0.0) + s_own * scale
        if span[4] < COUNT_OPS:
            calls[name] = calls.get(name, 0) + 1
    counts: dict[str, int] = {}
    for (op, key), n in rec.counts.items():
        if op < COUNT_OPS:
            counts[key] = counts.get(key, 0) + n
    n_ops = len(pairs)
    metrics = {}
    for metric, (source, kind) in PER_LAYER.items():
        if kind == "ms":
            metrics[metric] = total_ms.get(source, 0.0) / n_ops
        elif kind == "self_ms":
            metrics[metric] = self_ms.get(source, 0.0) / n_ops
        elif kind == "calls":
            metrics[metric] = calls.get(source, 0) / COUNT_OPS
        elif kind == "count":
            metrics[metric] = counts.get(source, 0) / COUNT_OPS
        else:
            metrics[metric] = statistics.median(ratios) if ratios else float("nan")
    errors = rec.nesting_errors()
    if runner.workload == "qasm-export" and (metrics["propagate.oracle_ms"]
                                             or metrics["propagate.oracle_steps"]):
        errors.append("qasm-export called the oracle")
    for error in errors:
        print(f"trace: {error}", file=sys.stderr)
    runner.failed += bool(errors)
    rec.dump(str(trace_path))
    notes = [f"{n_ops} traced ops; counts are per-op means over the first {COUNT_OPS}",
             f"spans written to {trace_path.relative_to(ROOT)}"]
    if rec.missing:
        notes.append(f"not traced, absent from the program: {', '.join(sorted(rec.missing))}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scenario", "trotter-sweep", "qasm-export"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads

    pool = workloads.make_pool(args.workload, args.seed)
    work_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        with Speed() as speed:
            setup_s = None if args.trace else time_setup(pool[0]["configs"], speed)
            runner = Runner(workloads, args.workload, pool, work_dir)
            if args.trace:
                trace_path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
                metrics, notes = per_layer(runner, speed, args.seconds, trace_path)
                units = {m: UNITS[kind] for m, (_, kind) in PER_LAYER.items()}
            else:
                metrics, notes = end_to_end(runner, speed, args.seconds, setup_s)
                units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload} ({workloads.WORKLOADS[args.workload]}), seed {args.seed}, "
          "closed loop, 1 client")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
