"""Record one point of the BENCH_* trajectory.

    python3 bench/record.py --label 000_baseline --seed 1

Runs every workload of BENCHMARK.json once untraced and once traced through
run.py, and writes bench/history/BENCH_<label>.json with the environment,
the settings and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import run


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(run.BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines or proc.returncode:
                sys.exit(f"record: {' '.join(cmd)} exited {proc.returncode}")
            print(proc.stdout, end="")
            results.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = \
                json.loads(lines[-1])
    out = Path(__file__).resolve().parent / "history" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"label": args.label, "seed": args.seed, "seconds": seconds,
                               "environment": environment(), "results": results},
                              indent=2) + "\n")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
