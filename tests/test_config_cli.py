import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from chiralgate import cli
from chiralgate.cli import _build_parser, main
from chiralgate.config import MAX_STEPS, ScenarioConfig, load_config, validate_config
from chiralgate.errors import ConfigError
from chiralgate.pulses import LEFT, RIGHT
from chiralgate.scenarios import (_oracle, circuit_to_qasm, dump_pulses, export_qasm,
                                  ingest_counts, run_scenario, sweep_trotter)


def test_default_config_valid():
    cfg = validate_config({})
    assert cfg.protocol == "stap"
    assert cfg.n_steps == 20
    validate_config({"n_steps": MAX_STEPS, "oracle_steps": MAX_STEPS})


def test_stap_ps_stage_shorter_than_one_oracle_step_rejected(tmp_path):
    # t_f / oracle_steps = 2.5 / 10 = 0.25 = t_f - 2.25, all exact in binary
    validate_config({"protocol": "stap", "oracle_steps": 10, "pulses": {"t_split": 2.25}})
    short = {"protocol": "stap", "oracle_steps": 10,
             "pulses": {"t_split": float(np.nextafter(2.25, 3.0))}}
    with pytest.raises(ConfigError, match=r"t_split.*oracle_steps"):
        validate_config(short)
    with pytest.raises(ConfigError, match="oracle_steps"):
        validate_config({**short, "oracle_steps": 9, "pulses": {"t_split": 2.25}})
    validate_config({**short, "oracle_steps": 11})
    # one rule for both protocols: a short STIRAP P/S stage is rejected too
    with pytest.raises(ConfigError, match=r"P/S stage.*t_split.*oracle_steps"):
        validate_config({"protocol": "stirap", "oracle_steps": 10, "pulses": {"t1": 9.9}})
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(short))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("raw, stage", [
    # Q stage 1e-9 us: the oracle ran no Q step, the circuit one
    ({"protocol": "stap", "pulses": {"t_split": 1.0e-9}}, "Q stage"),
    # one step of t_f = 10 us, its midpoint in the P/S stage: the oracle ran no Q step
    ({"protocol": "stirap", "oracle_steps": 1}, "Q stage"),
    # P/S stage 1e-4 us under a 5e-3 us step: the oracle's final p10 was
    # 0.500000003527, the circuit's 0.499955943
    ({"protocol": "stirap", "pulses": {"t1": 9.9999}}, "P/S stage"),
])
def test_run_rejects_a_stage_shorter_than_one_oracle_step(tmp_path, raw, stage):
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=f"the {stage} .*oracle_steps"):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_q_stage_of_exactly_one_oracle_step_is_the_boundary():
    # t_f / oracle_steps = 10 / 4 = 2.5, exact in binary
    validate_config({"protocol": "stirap", "oracle_steps": 4, "pulses": {"t1": 2.5}})
    with pytest.raises(ConfigError, match="Q stage t_split = 2.5 us .* = 2.5 us"):
        validate_config({"protocol": "stirap", "oracle_steps": 4,
                         "pulses": {"t1": float(np.nextafter(2.5, 0.0))}})


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


@pytest.mark.parametrize("protocol, key", [("stirap", "q"), ("stirap", "p_second"),
                                           ("stap", "q"), ("stap", "path")])
def test_derived_schedule_fields_are_not_pulse_keys(protocol, key):
    # the pulse keys are a schedule's init fields, not the Gaussians it builds
    with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
        validate_config({"protocol": protocol, "pulses": {key: 1.0}})


@pytest.mark.parametrize("protocol, pulses, key", [
    ("stirap", {"t1": 0, "q_width": 0.5}, "t1"),
    ("stirap", {"t1": 3, "t_f": 2}, "t1"),
    ("stap", {"t_split": 0}, "t_split"),
    ("stap", {"t_split": 3, "t_f": 2}, "t_split"),
])
def test_q_stage_interval_checked_before_any_pulse(protocol, pulses, key):
    # a zero-length or reversed Q stage is named by its key, not reported
    # as a pulse width or an infinite amplitude (warnings are errors here)
    with pytest.raises(ConfigError, match=f"need 0 < {key} < t_f"):
        validate_config({"protocol": protocol, "pulses": pulses})


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
    for section in ("a", ["a"], None):
        with pytest.raises(ConfigError, match="invalid inline molecule spec"):
            validate_config({"molecule": dict(cfg.molecule, dipoles=section)})


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


def test_dump_pulses_t_split_row_has_only_the_ps_drive(tmp_path):
    # sample 1101 of the 2000 lands exactly on t_split
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"protocol": "stap",
                                    "pulses": {"t_f": 2.9985, "t_split": 1.6515}}))
    assert main(["dump-pulses", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "pulses_stap.csv").read_text().split()]
    assert rows[1 + 1101][0] == "1.651500000" and np.linspace(0, 2.9985, 2000)[1101] == 1.6515
    assert rows[1 + 1100][1] != "0" and rows[1 + 1100][2:] == ["0", "0"]
    assert rows[1 + 1101][1] == "0" and "0" not in rows[1 + 1101][2:]


@pytest.mark.parametrize("hand, row", [
    ("L", "10,0.382947,0.128625"), ("both", "10,0.382947,0.128625"),
    ("R", "10,0.262944,0.262944")])
def test_sweep_trotter_follows_enantiomer(capsys, hand, row):
    assert main(["sweep-trotter", "--protocol", "stap", "--steps-list", "10,20",
                 "--enantiomer", hand]) == 0
    assert capsys.readouterr().out.split("\n")[1] == row


@pytest.mark.parametrize("checkpoints", [[1.0, 1.0000001], [2, 2.0], [0.5, 1.0, 0.5]])
def test_checkpoints_with_one_label_rejected(tmp_path, capsys, checkpoints):
    with pytest.raises(ConfigError, match="checkpoints_us has two entries with one %g label"):
        validate_config({"checkpoints_us": checkpoints})
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"checkpoints_us": checkpoints}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


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


@pytest.mark.parametrize("command, data", [
    ("ingest-counts", b'\xff\xfe{"shots": 1}'),
    ("ingest-counts", b"[" * 100_000 + b"]" * 100_000),
    ("molecule-check", b'seed: 1\nout_dir: "a\xffb"\n'),
    ("molecule-check", b"checkpoints_us: " + b"[" * 500 + b"]" * 500 + b"\n"),
    ("molecule-check", b"checkpoints_us: &a [*a]\n"),
    ("molecule-check", b"pulses: &a {t_f: *a}\n"),
], ids=["counts-utf16-bom", "counts-deep", "config-xff", "config-deep",
        "config-self-list", "config-self-mapping"])
def test_cli_undecodable_deep_or_cyclic_files_exit_2(tmp_path, capsys, command, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = ([command, str(path)] if command == "ingest-counts"
            else [command, "--config", str(path)])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


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


# an inline molecule with its A constant, mu_a and omega_11_10 to fill in
MOLECULE = ("molecule: {constants: {a: %s, b: 3640.10, c: 2790.96}, "
            "dipoles: {mu_a: %s, mu_b: 1.916, mu_c: 0.365}, "
            "table: {omega_00_11: 11363.0, omega_00_10: 12212.0, omega_11_10: %s}}")


@pytest.mark.parametrize("text, message", [
    # YAML 1.1 reads an exponent without a '.' as a string
    ("protocol: stirap\npulses: {ps_width: 1e-9}", "pulses.ps_width must be a number, got '1e-9'"),
    ('pulses: {alpha_m: "0.3"}', "pulses.alpha_m must be a number, got '0.3'"),
    ("pulses: {t_split: [1.0]}", "pulses.t_split must be a number, got [1.0]"),
    ("protocol: stirap\npulses: {t1: null}", "pulses.t1 must be a number, got None"),
    ("fields: {max_field: 1e4}", "fields.max_field must be a number, got '1e4'"),
    (MOLECULE % ("1e4", 1.201, 849.0), "molecule.constants.a must be a number, got '1e4'"),
    (MOLECULE % (8572.05, '"1.2"', 849.0), "molecule.dipoles.mu_a must be a number, got '1.2'"),
    (MOLECULE % (8572.05, 1.201, "null"),
     "molecule.table.omega_11_10 must be a number, got None"),
])
def test_cli_names_a_pulse_or_field_value_that_is_not_a_number(tmp_path, capsys, text,
                                                                message):
    path = tmp_path / "config.yaml"
    path.write_text(text + "\n")
    assert main(["molecule-check", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_null_is_a_pulse_value_only_where_the_default_is_none():
    validate_config({"protocol": "stirap", "pulses": {"tau": None, "ps_width": None,
                                                      "q_width": None}})
    validate_config({"protocol": "stap", "pulses": {"t_alpha2": None, "q_width": None}})
    with pytest.raises(ConfigError, match="pulses.t_f must be a number, got None"):
        validate_config({"protocol": "stap", "pulses": {"t_f": None}})
    # alpha1_profile, a choice, keeps its own check
    with pytest.raises(ConfigError, match="unknown alpha1 profile None"):
        validate_config({"protocol": "stap", "pulses": {"alpha1_profile": None}})


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
    assert main(args if args[0] == "sweep-trotter" else args + ["--out", str(tmp_path)]) == 2
    assert str(MAX_STEPS) in capsys.readouterr().err


def test_cli_names_the_steps_list_parser_in_its_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-trotter", "--steps-list", "10,abc"])
    assert exc.value.code == 2
    assert ("argument --steps-list: invalid steps_list value: '10,abc'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("bad", [10.0, "10", np.float64(10), True, np.bool_(True), None])
def test_sweep_rejects_non_integer_steps(bad):
    with pytest.raises(ConfigError, match="integer N"):
        sweep_trotter(validate_config({}), [bad, 20])


def test_sweep_takes_numpy_integer_steps():
    plain = sweep_trotter(validate_config({}), [10, 20])
    table = sweep_trotter(validate_config({}), [np.int64(10), np.int32(20)])
    assert table == plain
    json.dumps(table)   # the rows hold plain ints


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_cli_sweep_where_n_dt_rounds_past_t_f(protocol, capsys):
    # 147 * (t_f / 147) is one ulp above t_f for both default durations
    assert main(["sweep-trotter", "--protocol", protocol, "--steps-list", "2,147"]) == 0
    assert "147," in capsys.readouterr().out


# the options each subcommand reads
READS = {
    "run": {"--config", "--out", "--seed", "--steps", "--protocol", "--enantiomer",
            "--erratum-s-gate"},
    "sweep-trotter": {"--config", "--protocol", "--enantiomer", "--erratum-s-gate",
                      "--steps-list"},
    "export-qasm": {"--config", "--out", "--steps", "--protocol", "--enantiomer",
                    "--erratum-s-gate"},
    "ingest-counts": set(),
    "dump-pulses": {"--config", "--out", "--protocol"},
    "molecule-check": {"--config"},
}
VALUES = {"--config": "c.yaml", "--out": "out", "--seed": "1", "--steps": "4",
          "--protocol": "stap", "--enantiomer": "L", "--erratum-s-gate": None,
          "--steps-list": "10,20"}


def test_each_command_takes_only_the_options_it_reads(tmp_path, capsys, monkeypatch):
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    declared = {}
    for command, parser in commands.items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        declared[command] = {flag for a in options for flag in a.option_strings}
        # every scenario option overrides the config key it is stored under
        assert {a.dest for a in options} - {"config", "steps_list"} <= fields
    assert declared == READS
    assert sum(len(flags - {"--steps-list"}) for flags in declared.values()) == 21
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"00": 1, "shots": 1}))
    for command, flags in READS.items():
        for flag in set(VALUES) - flags:
            argv = [command, flag] + ([] if VALUES[flag] is None else [VALUES[flag]])
            with pytest.raises(SystemExit) as exc:
                main(argv + ([str(counts)] if command == "ingest-counts" else []))
            assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    # no abbreviations either: sweep-trotter would take --steps for --steps-list
    with pytest.raises(SystemExit) as exc:
        main(["run", "--prot", "stap", "--out", str(tmp_path)])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    def no_config(args):
        raise AssertionError("ingest-counts read a config")
    monkeypatch.setattr(cli, "_load", no_config)
    assert main(["ingest-counts", str(counts)]) == 0


def test_cli_options_override_their_config_keys(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"protocol": "stirap", "erratum_s_gate": True, "seed": 9,
                                    "pulses": {"ps_amplitude": 2.5}}))
    parser = _build_parser()
    cfg = cli._load(parser.parse_args(["run", "--config", str(path)]))
    assert (cfg.erratum_s_gate, cfg.seed, cfg.pulses) == (True, 9, {"ps_amplitude": 2.5})
    cfg = cli._load(parser.parse_args(
        ["run", "--config", str(path), "--out", "o", "--seed", "5", "--steps", "7",
         "--protocol", "stirap", "--enantiomer", "R", "--erratum-s-gate"]))
    assert ((cfg.out_dir, cfg.seed, cfg.n_steps, cfg.protocol, cfg.enantiomer,
             cfg.erratum_s_gate, cfg.pulses)
            == ("o", 5, 7, "stirap", "R", True, {"ps_amplitude": 2.5}))


def test_cli_overrides_are_validated(tmp_path):
    path = tmp_path / "stirap.yaml"
    path.write_text(yaml.safe_dump({"protocol": "stirap",
                                    "pulses": {"ps_amplitude": 2.5}}))
    assert main(["run", "--steps", "1", "--out", str(tmp_path)]) == 2
    # switching protocol drops the other protocol's pulse keys
    assert main(["export-qasm", "--config", str(path), "--protocol", "stap",
                 "--steps", "4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "stap_L.qasm").exists()


def test_cli_names_a_nan_drive_not_finite(tmp_path, capsys):
    # alpha2 = alpha_m exp(-u^2) underflows to 0 at the window's edge, where
    # alpha1_dot does too: the corrected drive there is 0 * cot(0) = NaN
    path = tmp_path / "narrow.yaml"
    path.write_text("protocol: stap\npulses: {t_alpha2: 1.0e-3}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(
        "physics error: corrected pulse amplitude is not finite at t=")


def test_cli_maps_package_errors_to_exit_3(tmp_path, monkeypatch):
    from chiralgate import cli
    from chiralgate.errors import DomainError, FrameTrackingError, IntegrityError
    for error in (DomainError, IntegrityError, FrameTrackingError):
        def fail(*args, error=error):
            raise error("boom")
        monkeypatch.setattr(cli, "run_scenario", fail)
        assert main(["run", "--out", str(tmp_path)]) == 3


def _python_on_src(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports chiralgate from src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_src_runs_without_scipy(tmp_path):
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import chiralgate.cli\n"
            "from chiralgate.config import validate_config\n"
            "from chiralgate.scenarios import run_scenario\n"
            "cfg = validate_config({'n_steps': 4, 'oracle_steps': 50})\n"
            "assert run_scenario(cfg, sys.argv[1]) is not None\n")
    proc = _python_on_src(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_import_loads_only_the_declared_dependencies():
    # pyproject.toml declares numpy and PyYAML; scipy, hypothesis and pytest
    # are test-only
    proc = _python_on_src("import sys, chiralgate, chiralgate.cli\n"
                          "print(' '.join({m.split('.')[0] for m in sys.modules}))\n")
    assert proc.returncode == 0, proc.stderr
    assert not {"scipy", "hypothesis", "pytest"} & set(proc.stdout.split())


def test_startup_and_validation_skip_yaml_and_numpy_polynomial(tmp_path):
    # PyYAML loads only to read a --config file and numpy.polynomial only to
    # build the quadrature rule; a command pays for neither before it needs it
    good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
    good.write_text("protocol: stirap\nn_steps: 10\n")
    bad.write_text("protocol: [stap\n")
    code = ("import sys, chiralgate, chiralgate.cli\n"
            "from chiralgate.config import read_config, validate_config\n"
            "for protocol in ('stap', 'stirap'):\n"
            "    validate_config({'protocol': protocol})\n"
            "print(sorted(m for m in ('yaml', 'numpy.polynomial') if m in sys.modules))\n"
            "print(read_config(sys.argv[1]))\n"
            "print(chiralgate.cli.main(['run', '--config', sys.argv[2]]))\n")
    proc = _python_on_src(code, str(good), str(bad))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "{'protocol': 'stirap', 'n_steps': 10}", "2"]
    assert proc.stderr.startswith(f"config error: config {bad} is not valid YAML")


def test_run_scenario_single_enantiomer_returns_none(tmp_path):
    cfg = validate_config({"enantiomer": "R", "n_steps": 4, "oracle_steps": 50})
    assert run_scenario(cfg, str(tmp_path)) is None
    assert sorted(os.listdir(tmp_path)) == ["circuit_R.csv", "counts_R.json",
                                            "oracle_R.csv"]


# rows of the Q stage, the hands' shared head, on the default 2,000-step oracle grid
Q_ROWS = {"stap": 993, "stirap": 507}


@pytest.mark.parametrize("hand", [LEFT, RIGHT], ids=["L", "R"])
@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_one_hand_run_writes_that_hands_files_of_a_both_hands_run(protocol, hand, tmp_path):
    # the circuit and counts files are the same bytes; the oracle files only
    # to round-off past the Q stage, where a one-hand run carries a stack of
    # one state instead of two through the P/S stage
    cfg = validate_config({"protocol": protocol})
    run_scenario(cfg, str(tmp_path / "both"))
    run_scenario(dataclasses.replace(cfg, enantiomer=hand.label), str(tmp_path / "one"))
    assert sorted(os.listdir(tmp_path / "one")) == [
        f"{name}_{hand.label}.{ext}" for name, ext in
        (("circuit", "csv"), ("counts", "json"), ("oracle", "csv"))]
    for name in (f"circuit_{hand.label}.csv", f"counts_{hand.label}.json"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    both, one = ((tmp_path / run / f"oracle_{hand.label}.csv").read_text().splitlines()
                 for run in ("both", "one"))
    assert len(both) == len(one) == 2002
    assert both[:1 + Q_ROWS[protocol]] == one[:1 + Q_ROWS[protocol]]
    schedule = cfg.build_schedule()
    pair = _oracle(cfg, schedule, [LEFT, RIGHT])[hand.label].probs
    alone = _oracle(cfg, schedule, [hand])[hand.label].probs
    np.testing.assert_allclose(alone, pair, rtol=0, atol=1e-14)


def test_cli_run_reports_skipped_checkpoints(tmp_path, capsys):
    # the default STAP run ends at t_f = 2.5 us, before the 2.53 us checkpoint
    assert validate_config({"protocol": "stap"}).checkpoints_us == [0.61, 1.24, 2.53]
    assert main(["run", "--protocol", "stap", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: checkpoint t=2.53 us lies outside [0, 2.5] us and was skipped"]
    assert "checkpoint t=2.53" not in captured.out
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report["checkpoints"]) == ["0.61", "1.24"]
    assert "skipped_checkpoints" not in report


@pytest.mark.parametrize("checkpoints", [[], [2.53, -0.1], [0.0, 2.53, 1.24, 2.5, 0.61, 3]])
def test_report_checkpoints_match_per_checkpoint_at(checkpoints):
    # no checkpoint in the window, and both ends of the inclusive window [0, 2.5]
    # between skipped ones, as one at() call per checkpoint and hand reads them
    cfg = validate_config({"protocol": "stap", "n_steps": 6, "oracle_steps": 200,
                           "checkpoints_us": checkpoints})
    report = run_scenario(cfg)
    oracle = _oracle(cfg, cfg.build_schedule(), [LEFT, RIGHT])
    want, skipped = {}, []
    for t in checkpoints:
        if t < 0.0 or t > 2.5:
            skipped.append(t)
            continue
        pl, pr = oracle["L"].at(t), oracle["R"].at(t)
        want[t] = {"L": pl.tolist(), "R": pr.tolist(), "D": float(abs(pl[2] - pr[2]))}
    assert list(report.checkpoints.items()) == list(want.items())
    assert report.skipped_checkpoints == skipped
