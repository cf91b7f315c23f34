"""The benchmark's traced run (bench/spans.py) patches chiralgate's layer
boundaries by name, and bench/ lies outside the tier-1 suite.  A boundary
renamed or inlined would read 0 in the per-layer metrics without failing
anything; these tests fail instead."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from chiralgate import scenarios
from chiralgate.config import validate_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_traced_boundaries_exist_and_count_gates(spans, protocol, tmp_path):
    rec = spans.Recorder()
    cfg = validate_config({"protocol": protocol, "n_steps": 12, "oracle_steps": 50})
    with spans.instrument(rec), rec.op_span(0):
        qasm_files = scenarios.export_qasm(cfg, str(tmp_path / "qasm"))
        scenarios.run_scenario(cfg, str(tmp_path / "run"))
    assert rec.missing == set()
    assert rec.nesting_errors() == []
    counts = {key: n for (_, key), n in rec.counts.items()}
    assert counts["circuits.native_gates"] > 0
    assert counts["circuits.macro_gates"] > 0
    assert counts["circuits.gates_applied"] > 0
    traced = [span[0] for span in rec.spans]
    assert {"circuits.compile", "circuits.expand", "scenarios.qasm",
            "circuits.statevector", "propagate.oracle"} <= set(traced)
    # the oracle's one P/S batch for both hands goes through the patched
    # names: one generator call, and only the steps after the Q stage
    assert traced.count("hamiltonians.generator") == 1
    schedule = cfg.build_schedule()
    t_mid = (np.arange(50) + 0.5) * (schedule.duration / 50)
    assert counts["propagate.oracle_steps"] == np.count_nonzero(t_mid >= schedule.t_split)
    # the text writers: one QASM span per file, one CSV span per oracle and
    # circuit trace of each hand, and the traced text is what was written
    assert len(qasm_files) == 2 and traced.count("scenarios.qasm") == 2
    assert counts["scenarios.qasm_bytes"] == sum(Path(f).stat().st_size for f in qasm_files)
    csv_files = list((tmp_path / "run").glob("*.csv"))
    assert len(csv_files) == 4 and traced.count("propagate.to_csv") == 4
    assert counts["propagate.csv_bytes"] == sum(f.stat().st_size for f in csv_files)
