"""Tests of the benchmark itself.

    python3 -m pytest bench -q

The last tests run the benchmark as a subprocess for about a second of
measurement per workload, so the file takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import OP, Recorder  # noqa: E402
from chiralgate.config import validate_config  # noqa: E402
from chiralgate.scenarios import export_qasm, run_scenario, sweep_trotter  # noqa: E402


def test_pool_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_pool(workload, 7) == workloads.make_pool(workload, 7)
        assert workloads.make_pool(workload, 7) != workloads.make_pool(workload, 8)


def test_oracle_grid_covers_the_ranges():
    ref = workloads.oracle_ref()
    for protocol, ranges in (("stap", workloads.STAP_PULSES),
                             ("stirap", workloads.STIRAP_PULSES)):
        points = [point["pulses"] for point in ref[protocol]]
        assert len(points) == len({tuple(sorted(p.items())) for p in points}) >= workloads.POOL_SIZE
        for key, (lo, hi) in ranges.items():
            assert min(p[key] for p in points) == lo and max(p[key] for p in points) == hi
    for inp in workloads.make_pool("scenario", 3):
        for raw, g in zip(inp["configs"], inp["grid"]):
            assert raw["pulses"] == ref[raw["protocol"]][g]["pulses"]
            assert raw["oracle_steps"] == ref["oracle_steps"]


def test_pool_draws_stay_in_range():
    for workload in workloads.WORKLOADS:
        for inp in workloads.make_pool(workload, 3):
            for raw in inp["configs"]:
                validate_config(raw)
                stirap = (workloads.SWEEP_STIRAP_PULSES if workload == "trotter-sweep"
                          else workloads.STIRAP_PULSES)
                ranges = workloads.STAP_PULSES if raw["protocol"] == "stap" else stirap
                for key, (lo, hi) in ranges.items():
                    assert lo <= raw["pulses"][key] <= hi
    for inp in workloads.make_pool("qasm-export", 3):
        stap, stirap = (raw["n_steps"] for raw in inp["configs"])
        assert stap + stirap == workloads.QASM_SIZES[0] + workloads.QASM_SIZES[-1]
    assert sorted(inp["configs"][0]["n_steps"] for inp in workloads.make_pool("qasm-export", 3)) \
        == workloads.QASM_SIZES


def test_tail_latency_rule():
    samples = [float(v) for v in range(100, 0, -1)]
    value, pct, beyond = run.tail_latency(samples)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(s > value for s in samples) == 10
    value, pct, beyond = run.tail_latency([float(v) for v in range(11)])
    assert (value, beyond) == (0.0, 10) and pct == pytest.approx(100 / 11)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _flip_largest_rz(text: str) -> str:
    angles = [(abs(float(m.group(1))), m.start(1), m.end(1))
              for m in re.finditer(r"^rz\(([^)]*)\)", text, re.M)]
    _, start, end = max(angles)
    return text[:start] + repr(-float(text[start:end])) + text[end:]


def test_qasm_check_rejects_flipped_angle_and_foreign_gate(tmp_path):
    raw = {"protocol": "stirap", "n_steps": 21, "enantiomer": "both"}
    refs = workloads.statevector_reference(raw)
    for path in export_qasm(validate_config(raw), str(tmp_path)):
        ref = refs[os.path.basename(path)]
        checks.check_qasm(path, ref)
        text = Path(path).read_text()
        Path(path).write_text(_flip_largest_rz(text))
        with pytest.raises(checks.CheckFailed, match="differ from run_statevector"):
            checks.check_qasm(path, ref)
        Path(path).write_text(text.replace("measure q[0]", "h q[0];\nmeasure q[0]"))
        with pytest.raises(checks.CheckFailed, match="native gate set"):
            checks.check_qasm(path, ref)


def test_scenario_check_rejects_nonzero_p01(tmp_path):
    inp = workloads.make_pool("scenario", 1)[0]
    cfg = validate_config(inp["configs"][0])
    report = run_scenario(cfg, str(tmp_path))
    refs = workloads.prepare("scenario", [inp]).refs[0][0]
    checks.check_scenario(str(tmp_path), report, refs, cfg.shots)
    for name in ("oracle_L.csv", "circuit_R.csv"):
        path = tmp_path / name
        text = path.read_text()
        lines = text.splitlines()
        cols = lines[5].split(",")
        cols[checks.P01_COLUMN] = "1e-20"
        lines[5] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(checks.CheckFailed, match="leakage"):
            checks.check_scenario(str(tmp_path), report, refs, cfg.shots)
        path.write_text(text)
    wrong = {**refs, "R": refs["L"]}
    with pytest.raises(checks.CheckFailed, match="expm reference"):
        checks.check_scenario(str(tmp_path), report, wrong, cfg.shots)


def test_sweep_check_rejects_wrong_slope():
    steps = [10, 20, 40, 80]
    table = sweep_trotter(validate_config({"protocol": "stirap"}), steps)
    checks.check_sweep(table, steps)
    for slope in (-2.0, -0.3):
        with pytest.raises(checks.CheckFailed, match="slope"):
            checks.check_sweep({**table, "slope": slope}, steps)
    rows = [{**r, "final_dev": 0.06, "max_dev": 0.06} if r["n"] == 20 else r
            for r in table["rows"]]
    with pytest.raises(checks.CheckFailed, match="N=20"):
        checks.check_sweep({**table, "rows": rows}, steps)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {m: run.UNITS[kind] for m, (_, kind) in run.PER_LAYER.items()})
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    design = json.loads((BENCH / "design.json").read_text())
    assert set(design["per_layer_predictions"]) == set(run.PER_LAYER)
    assert set(design["workloads"]) == set(workloads.WORKLOADS)


def test_nesting_check_rejects_escaping_and_overlapping_spans():
    rec = Recorder()
    rec.spans = [[OP, 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0], ["b", 5.0, 9.0, 0, 0],
                 ["c", 6.0, 8.0, 2, 0]]
    assert rec.nesting_errors() == []
    rec.spans[3] = ["c", 6.0, 9.5, 2, 0]
    assert len(rec.nesting_errors()) == 1
    rec.spans[3] = ["c", 6.0, 8.0, 2, 0]
    rec.spans[2] = ["b", 3.0, 9.0, 0, 0]
    assert len(rec.nesting_errors()) == 1


def _bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_end_to_end(workload):
    res = _result(_bench(ROOT, workload, 5, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= run.MIN_OPS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_and_qasm_bypasses_oracle():
    first = _result(_bench(ROOT, "qasm-export", 11, 1))["metrics"]
    second = _result(_bench(ROOT, "qasm-export", 11, 1))["metrics"]
    assert set(first) == set(run.PER_LAYER)
    counts = [m for m, (_, kind) in run.PER_LAYER.items() if kind in ("calls", "count")]
    assert {m: first[m]["value"] for m in counts} == {m: second[m]["value"] for m in counts}
    assert first["propagate.oracle_ms"]["value"] == 0
    assert first["circuits.native_gates"]["value"] > 0


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "history"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "scenario", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
