"""Fuzz of the CLI exit-code contract: whatever the YAML config and the
command-line arguments hold, `chiralgate` exits with 0, 2, 3 or 4 and never
prints a traceback."""

import contextlib
import io

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chiralgate.cli import main

JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                 st.lists(st.integers(-3, 3), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
BIG_INT = st.one_of(st.integers(-10, 10**4), st.integers(2**62, 2**66))
NUMBER = st.one_of(st.floats(-1.0, 12.0), st.floats(), st.integers(-10**6, 10**6))


def mostly(valid, junk=JUNK):
    """valid in about seven draws of eight, junk otherwise."""
    return st.sampled_from([valid] * 7 + [junk]).flatmap(lambda s: s)


STAP_KEYS = ["t_split", "t_f", "alpha_m", "t_alpha2", "alpha1_profile", "q_width"]
STIRAP_KEYS = ["t1", "t_f", "ps_amplitude", "tau", "ps_width", "q_width"]
PULSE_VALUE = mostly(st.one_of(NUMBER, st.sampled_from(["gauss_match", "sin2"])))
MOLECULE = st.fixed_dictionaries({
    "constants": st.fixed_dictionaries({k: NUMBER for k in "abc"}),
    "dipoles": st.fixed_dictionaries({k: NUMBER for k in ("mu_a", "mu_b", "mu_c")}),
    "table": st.fixed_dictionaries(
        {k: NUMBER for k in ("omega_00_11", "omega_00_10", "omega_11_10")})})
FIELD_KEYS = ["eps_p", "eps_s", "eps_q", "max_field"]

OPTIONAL = {
    "enantiomer": mostly(st.sampled_from(["L", "R", "both"])),
    "n_steps": mostly(st.integers(2, 12), st.integers(-2, 1) | st.floats()),  # cheap
    "oracle_steps": mostly(st.integers(1, 200), st.integers(-2, 0) | st.floats()),
    "shots": mostly(BIG_INT),
    "seed": mostly(BIG_INT),
    "out_dir": mostly(st.sampled_from(["out", "a/b", ""])),
    "checkpoints_us": mostly(st.lists(NUMBER, max_size=3)),
    "ps_order": mostly(st.sampled_from(["ps", "sp"])),
    "erratum_s_gate": mostly(st.booleans()),
    "molecule": mostly(st.sampled_from(["propanediol-printed",
                                        "propanediol-corrected"]) | MOLECULE),
    "fields": mostly(st.dictionaries(st.sampled_from(FIELD_KEYS * 3 + ["eps_x"]),
                                     NUMBER, max_size=4)),
}


@st.composite
def config_texts(draw):
    protocol = draw(mostly(st.sampled_from(["stap", "stirap"])))
    keys = STIRAP_KEYS if protocol == "stirap" else STAP_KEYS
    pulses = draw(mostly(st.dictionaries(st.sampled_from(keys * 4 + ["typo"]),
                                         PULSE_VALUE, max_size=4)))
    raw = {"protocol": protocol, "pulses": pulses,
           **draw(st.fixed_dictionaries({}, optional=OPTIONAL))}
    if draw(st.sampled_from([False] * 9 + [True])):
        raw["typo"] = 1
    return yaml.safe_dump(raw)


CONFIG = st.one_of(st.none(), mostly(config_texts(),
                                     st.sampled_from(["", "- 1\n", "42\n", "{: [\n"])))
COMMAND = st.sampled_from(["run", "export-qasm", "dump-pulses", "molecule-check"])
OPTIONS = st.fixed_dictionaries({}, optional={
    "--seed": mostly(BIG_INT.map(str), st.text(max_size=3)),
    "--steps": mostly(st.integers(-3, 12).map(str), st.text(max_size=3)),
    "--protocol": mostly(st.sampled_from(["stap", "stirap"]), st.just("warp")),
    "--enantiomer": mostly(st.sampled_from(["L", "R", "both"]), st.just("X")),
    "--erratum-s-gate": st.none(),
    "--out": st.just("cli_out"),
})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=COMMAND, options=OPTIONS, config=CONFIG)
def test_cli_exit_code_contract(tmp_path, monkeypatch, command, options, config):
    monkeypatch.chdir(tmp_path)     # relative out_dir values land here
    argv = [command]
    for flag, value in options.items():
        argv += [flag] if value is None else [flag, value]
    if config is not None:
        (tmp_path / "fuzz.yaml").write_text(config)
        argv += ["--config", "fuzz.yaml"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
