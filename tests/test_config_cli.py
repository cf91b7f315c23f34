import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from chiralgate.cli import main
from chiralgate.config import MAX_STEPS, load_config, validate_config
from chiralgate.errors import ConfigError
from chiralgate.scenarios import (circuit_to_qasm, dump_pulses, export_qasm,
                                  ingest_counts, run_scenario, sweep_trotter)


def test_default_config_valid():
    cfg = validate_config({})
    assert cfg.protocol == "stap"
    assert cfg.n_steps == 20
    validate_config({"n_steps": MAX_STEPS, "oracle_steps": MAX_STEPS})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="tpyo"):
        validate_config({"tpyo": 1})


def test_unknown_pulse_key_rejected():
    with pytest.raises(ConfigError, match="amplitdue"):
        validate_config({"protocol": "stirap", "pulses": {"amplitdue": 2.0}})


def test_wrong_protocol_pulse_keys_rejected():
    # alpha_m belongs to stap, not stirap
    with pytest.raises(ConfigError):
        validate_config({"protocol": "stirap", "pulses": {"alpha_m": 0.3}})


def test_bad_values_rejected():
    for raw in ({"protocol": "adiabatic"},
                {"enantiomer": "both-ish"},
                {"n_steps": 1},
                {"shots": 0},
                {"seed": "abc"},
                {"erratum_s_gate": "yes"},
                {"molecule": "unobtainium"},
                {"checkpoints_us": "0.61"},
                {"pulses": {"alpha_m": 2.0}},
                {"pulses": {"t_f": float("nan")}},
                {"checkpoints_us": [0.6, float("inf")]},
                {"fields": {"eps_q": float("-inf")}},
                {"n_steps": MAX_STEPS + 1},
                {"oracle_steps": MAX_STEPS + 1},
                # YAML booleans are ints to isinstance; only erratum_s_gate takes one
                {"oracle_steps": True},
                {"shots": True},
                {"seed": False},
                {"checkpoints_us": [True]},
                {"pulses": {"alpha_m": True}},
                {"fields": {"eps_p": True}}):
        with pytest.raises(ConfigError):
            validate_config(raw)


def test_inline_molecule_spec(tmp_path):
    cfg = validate_config({"molecule": {
        "constants": {"a": 8572.05, "b": 3640.10, "c": 2790.96},
        "dipoles": {"mu_a": 1.201, "mu_b": 1.916, "mu_c": 0.365},
        "table": {"omega_00_11": 11363.0, "omega_00_10": 12212.0,
                  "omega_11_10": 849.0}}})
    constants, dipoles, table = cfg.molecule_params()
    assert constants.a == 8572.05


def test_load_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({"protocol": "stirap", "n_steps": 10,
                                    "pulses": {"ps_amplitude": 2.5}}))
    cfg = load_config(str(path))
    assert cfg.protocol == "stirap"
    assert cfg.pulses["ps_amplitude"] == 2.5
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.yaml"))


def test_run_scenario_outputs_deterministic(tmp_path):
    cfg = validate_config({"protocol": "stap", "n_steps": 10,
                           "oracle_steps": 300, "seed": 7})
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(a))
    run_scenario(cfg, str(b))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_report_contents(tmp_path):
    cfg = validate_config({"protocol": "stap", "n_steps": 10, "oracle_steps": 400})
    report = run_scenario(cfg, str(tmp_path))
    assert 0.0 <= report.final_d() <= 1.0
    assert report.d_of_t[0] == 0.0  # both enantiomers start in |00>
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["discrimination_definition"].startswith("D(t)")
    # every emitted oracle row sums to 1
    rows = (tmp_path / "oracle_L.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        vals = [float(x) for x in row.split(",")[1:5]]
        assert abs(sum(vals) - 1.0) < 1e-9


def test_sweep_trotter_table_shape():
    cfg = validate_config({"protocol": "stap", "oracle_steps": 500})
    table = sweep_trotter(cfg, [10, 20])
    assert [r["n"] for r in table["rows"]] == [10, 20]
    assert table["rows"][0]["max_dev"] > table["rows"][1]["max_dev"]
    for steps in ([], [20], [20, 20]):  # the slope needs two distinct N
        with pytest.raises(ConfigError):
            sweep_trotter(cfg, steps)


def test_qasm_export_and_l_r_angle_signs(tmp_path):
    cfg = validate_config({"protocol": "stirap", "n_steps": 10})
    paths = export_qasm(cfg, str(tmp_path))
    assert sorted(os.path.basename(p) for p in paths) == [
        "stirap_L.qasm", "stirap_R.qasm"]
    left = (tmp_path / "stirap_L.qasm").read_text()
    right = (tmp_path / "stirap_R.qasm").read_text()
    assert left.startswith("OPENQASM 2.0;")
    assert left.strip().endswith("measure q[1] -> c[1];")
    # same structure, differing only where Q-stage angles change sign
    ll, rl = left.split("\n"), right.split("\n")
    assert len(ll) == len(rl)
    diffs = [(a, b) for a, b in zip(ll, rl) if a != b]
    assert diffs, "L and R circuits should differ in Q-stage angles"
    for a, b in diffs:
        assert a.split("(")[0] == b.split("(")[0]


def test_qasm_roundtrip_parse(tmp_path):
    # minimal parser: every gate line must match the declared native set
    from chiralgate.circuits import compile_protocol
    from chiralgate.pulses import LEFT, default_stap_schedule, discretize
    c = compile_protocol(discretize(default_stap_schedule(), 10), LEFT, "stap")
    text = circuit_to_qasm(c)
    body = [l for l in text.strip().split("\n")
            if l and not l.startswith(("OPENQASM", "include", "//", "qreg",
                                       "creg", "measure"))]
    for line in body:
        name = line.split("(")[0].split(" ")[0]
        assert name in ("rx", "ry", "rz", "x", "cx")


def test_ingest_counts_checkpoints():
    out = ingest_counts({"00": 4100, "10": 900, "shots": 5000})
    assert out["populations"]["00"]["population"] == pytest.approx(0.82)
    assert out["populations"]["10"]["population"] == pytest.approx(0.18)
    out = ingest_counts({"00": 2600, "10": 2400, "shots": 5000})
    assert out["populations"]["00"]["population"] == pytest.approx(0.52)
    assert out["populations"]["10"]["population"] == pytest.approx(0.48)
    sigma = out["populations"]["00"]["sigma"]
    np.testing.assert_allclose(sigma, np.sqrt(0.52 * 0.48 / 5000), rtol=1e-12)


def test_ingest_counts_validation():
    with pytest.raises(ConfigError):
        ingest_counts({"00": 10})  # no shots
    with pytest.raises(ConfigError):
        ingest_counts({"02": 10, "shots": 10})  # bad key
    with pytest.raises(ConfigError):
        ingest_counts({"00": 4, "shots": 10})  # sum mismatch
    with pytest.raises(ConfigError):
        ingest_counts({"00": -1, "01": 11, "shots": 10})
    for booleans in ({"shots": True, "10": 1}, {"shots": 1, "10": True}):
        with pytest.raises(ConfigError):
            ingest_counts(booleans)
    flagged = ingest_counts({"10": 100, "shots": 100})
    assert flagged["populations"]["10"].get("zero_width_interval")


def test_dump_pulses_csv():
    cfg = validate_config({"protocol": "stap"})
    text = dump_pulses(cfg, n_samples=50)
    lines = text.strip().split("\n")
    assert lines[0] == "t_us,omega_q,omega_p,omega_s"
    assert len(lines) == 51


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("protocol: warp\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["molecule-check"]) == 0
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"00": 4100, "10": 900, "shots": 5000}))
    assert main(["ingest-counts", str(counts)]) == 0
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["ingest-counts", str(garbage)]) == 2
    assert main(["ingest-counts", str(tmp_path / "nope.json")]) == 4


def test_cli_run_and_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--protocol", "stap", "--steps", "10",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "final D" in captured
    assert (out / "report.json").exists()
    assert main(["sweep-trotter", "--protocol", "stap", "--steps-list",
                 "10,20"]) == 0
    assert "slope" in capsys.readouterr().out


@pytest.mark.parametrize("fields", [{"eps_p": -1}, {"eps_p": 50}])
def test_cli_rejects_out_of_range_fields(tmp_path, fields):
    path = tmp_path / "fields.yaml"
    path.write_text(yaml.safe_dump({"fields": fields}))
    assert main(["molecule-check", "--config", str(path)]) == 2


def test_cli_rejects_negative_seed(tmp_path):
    assert main(["run", "--seed", "-3", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args", [["run", "--steps", str(10**15)],
                                  ["export-qasm", "--steps", str(10**15)],
                                  ["sweep-trotter", "--steps-list", "10,1000000000000"],
                                  ["sweep-trotter", "--steps-list", "20"],
                                  ["sweep-trotter", "--steps-list", "20,20"]])
def test_cli_rejects_step_counts_above_max(tmp_path, capsys, args):
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert str(MAX_STEPS) in capsys.readouterr().err


def test_cli_overrides_are_validated(tmp_path):
    path = tmp_path / "stirap.yaml"
    path.write_text(yaml.safe_dump({"protocol": "stirap",
                                    "pulses": {"ps_amplitude": 2.5}}))
    assert main(["run", "--steps", "1", "--out", str(tmp_path)]) == 2
    # switching protocol drops the other protocol's pulse keys
    assert main(["export-qasm", "--config", str(path), "--protocol", "stap",
                 "--steps", "4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "stap_L.qasm").exists()


def test_cli_maps_package_errors_to_exit_3(tmp_path, monkeypatch):
    from chiralgate import cli
    from chiralgate.errors import DomainError, FrameTrackingError, IntegrityError
    for error in (DomainError, IntegrityError, FrameTrackingError):
        def fail(*args, error=error):
            raise error("boom")
        monkeypatch.setattr(cli, "run_scenario", fail)
        assert main(["run", "--out", str(tmp_path)]) == 3


def test_src_runs_without_scipy(tmp_path):
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import chiralgate.cli\n"
            "from chiralgate.config import validate_config\n"
            "from chiralgate.scenarios import run_scenario\n"
            "cfg = validate_config({'n_steps': 4, 'oracle_steps': 50})\n"
            "assert run_scenario(cfg, sys.argv[1]) is not None\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_run_scenario_single_enantiomer_returns_none(tmp_path):
    cfg = validate_config({"enantiomer": "R", "n_steps": 4, "oracle_steps": 50})
    assert run_scenario(cfg, str(tmp_path)) is None
    assert sorted(os.listdir(tmp_path)) == ["circuit_R.csv", "counts_R.json",
                                            "oracle_R.csv"]
