"""The benchmark's traced run (bench/spans.py) patches chiralgate's layer
boundaries by name, and bench/ lies outside the tier-1 suite.  A boundary
renamed or inlined would read 0 in the per-layer metrics without failing
anything; these tests fail instead."""

import importlib
from pathlib import Path

import numpy as np
import pytest

import chiralgate
from chiralgate import config, scenarios
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
    # expand_circuit's natives are the gate lines circuit_to_qasm writes
    lines = [line for f in qasm_files for line in Path(f).read_text().splitlines()]
    gate_lines = [line for line in lines if line.startswith(("rx(", "ry(", "rz(", "x ", "cx "))]
    assert counts["circuits.native_gates"] == len(gate_lines) > 0
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


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_traced_sweep_keeps_its_boundaries(spans, protocol):
    # the sweep runs its N list in one batch: discretize and run_statevector
    # are no longer called by name, but these spans must stay
    rec = spans.Recorder()
    cfg = validate_config({"protocol": protocol, "oracle_steps": 200})
    steps = [10, 20, 40, 20]
    with spans.instrument(rec), rec.op_span(0):
        scenarios.sweep_trotter(cfg, steps)
    assert rec.missing == set()
    assert rec.nesting_errors() == []
    traced = [span[0] for span in rec.spans]
    assert traced.count("propagate.oracle") == 1
    assert traced.count("hamiltonians.generator") == 1
    assert traced.count("circuits.compile") == len(steps)
    assert traced.count("propagate.trace_at") == 1
    assert traced.count(spans.ENTRY) == 1


# every name chiralgate/__init__.py exports; bench/ imports some of them
PUBLIC_NAMES = """
    Circuit Gate MeasurementRecord compile_p_step compile_protocol compile_q_step
    compile_s_step circuit_unitary run_statevector sample_measurements
    ChiralGateError ConfigError DomainError FrameTrackingError IntegrityError
    SingularScheduleError bright_states build_h_ps build_h_q build_h_stap
    dark_state dressed_states lambda_pm predict_r_final stap_generator
    stirap_generator DipoleComponents RotorConstants TransitionTable
    builtin_propanediol consistency_check j1_energies rabi_frequency
    PopulationTrace evolve_piecewise_exact evolve_rk4 GaussianPulse Handedness
    LEFT RIGHT StapSchedule StirapSchedule default_stap_schedule
    default_stirap_schedule discretize DiscriminationReport export_qasm
    ingest_counts report_discrimination run_scenario sweep_trotter
""".split()


@pytest.mark.parametrize("owner, name", [
    *((chiralgate, name) for name in PUBLIC_NAMES),
    (scenarios, "PSI0"), (scenarios, "run_scenario"), (scenarios, "sweep_trotter"),
    (scenarios, "export_qasm"), (config, "validate_config"), (config, "ScenarioConfig"),
], ids=lambda x: getattr(x, "__name__", x))
def test_names_bench_imports_resolve(owner, name):
    assert getattr(owner, name, None) is not None


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_both_generator_names_build_one_h(protocol):
    # bench/oracle_ref.py picks a name by protocol; either must give the same H(t)
    schedule = validate_config({"protocol": protocol}).build_schedule()
    t = np.linspace(0.0, schedule.duration, 41)
    for hand in (chiralgate.LEFT, chiralgate.RIGHT):
        np.testing.assert_array_equal(chiralgate.stirap_generator(schedule, hand)(t),
                                      chiralgate.stap_generator(schedule, hand)(t))
