"""Fuzz of the CLI exit-code contract: whatever the YAML config, the counts
file and the command-line arguments hold, `chiralgate` exits with 0, 2, 3 or
4 and never prints a traceback."""

import contextlib
import dataclasses
import io
import json
from time import perf_counter

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chiralgate.cli import _build_parser, main
from chiralgate.config import ScenarioConfig, validate_config
from chiralgate.errors import ConfigError
from chiralgate.pulses import PROTOCOLS

JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                 st.lists(st.integers(-3, 3), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
BIG_INT = st.one_of(st.integers(-10, 10**4), st.integers(2**62, 2**66))
NUMBER = st.one_of(st.floats(-1.0, 12.0), st.floats(), st.integers(-10**6, 10**6))


def mostly(valid, junk=JUNK):
    """valid in about seven draws of eight, junk otherwise."""
    return st.sampled_from([valid] * 7 + [junk]).flatmap(lambda s: s)


TOP_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)]
STAP_KEYS, STIRAP_KEYS = ([f.name for f in dataclasses.fields(PROTOCOLS[p]) if f.init]
                          for p in ("stap", "stirap"))
# 0.0 reaches a zero-length Q stage (t1 or t_split = 0)
PULSE_VALUE = mostly(st.one_of(NUMBER, st.just(0.0), st.sampled_from(["gauss_match", "sin2"])))
MOLECULE = st.fixed_dictionaries({
    "constants": st.fixed_dictionaries({k: NUMBER for k in "abc"}),
    "dipoles": st.fixed_dictionaries({k: NUMBER for k in ("mu_a", "mu_b", "mu_c")}),
    "table": st.fixed_dictionaries(
        {k: NUMBER for k in ("omega_00_11", "omega_00_10", "omega_11_10")})})
FIELD_KEYS = ["eps_p", "eps_s", "eps_q", "max_field"]

OPTIONAL = {
    "enantiomer": mostly(st.sampled_from(["L", "R", "both"])),
    "n_steps": mostly(st.integers(2, 12),  # cheap
                      st.integers(-2, 1) | st.floats() | st.booleans()),
    "oracle_steps": mostly(st.integers(1, 200),
                           st.integers(-2, 0) | st.floats() | st.booleans()),
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
    protocol = draw(mostly(st.sampled_from(list(PROTOCOLS))))
    keys = STIRAP_KEYS if protocol == "stirap" else STAP_KEYS
    pulses = draw(mostly(st.dictionaries(st.sampled_from(keys * 4 + ["typo"]),
                                         PULSE_VALUE, max_size=4)))
    raw = {"protocol": protocol, "pulses": pulses,
           **draw(st.fixed_dictionaries({}, optional=OPTIONAL))}
    if draw(st.sampled_from([False] * 9 + [True])):
        raw["typo"] = 1
    return yaml.safe_dump(raw)


def nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


def alias_bomb(levels: int, key: str) -> bytes:
    """A config whose `key` lists YAML aliases ten-fold deep: about
    10**levels values from a file of a few hundred bytes."""
    rows = [f"  - &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, levels + 1)]
    return "\n".join([f"{key}:", "  - &a0 [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]", *rows, ""]).encode()


# files a parser chokes on: invalid UTF-8 (no UTF-8 text holds the byte 0xff),
# lists nested past the recursion limit or short of it, a YAML alias inside
# itself, an alias tree of up to a billion values under any top-level key
RAW_BYTES = st.one_of(
    st.binary(max_size=12).map(lambda b: b"seed: 1\n# " + b + b"\xff\n"),
    st.integers(1, 1500).map(lambda d: b"checkpoints_us: " + nested(d) + b"\n"),
    st.just(b"checkpoints_us: &a [1, *a]\n"),
    st.builds(alias_bomb, st.integers(1, 9), st.sampled_from(sorted(TOP_KEYS))))
CONFIG = st.one_of(st.none(), mostly(config_texts(),
                                     st.sampled_from(["", "- 1\n", "42\n", "{: [\n"])
                                     | RAW_BYTES))
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                    lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)
COUNTS = st.one_of(
    st.dictionaries(st.sampled_from(["00", "01", "10", "11", "shots", "x"]),
                    mostly(st.integers(0, 9)), max_size=5).map(json.dumps),
    JSON.map(json.dumps), st.binary(max_size=12),
    st.integers(1, 200_000).map(nested))
OPTION_VALUES = {
    "--seed": mostly(BIG_INT.map(str), st.text(max_size=3)),
    "--steps": mostly(st.integers(-3, 12).map(str), st.text(max_size=3)),
    "--protocol": mostly(st.sampled_from(["stap", "stirap"]), st.just("warp")),
    "--enantiomer": mostly(st.sampled_from(["L", "R", "both"]), st.just("X")),
    "--erratum-s-gate": st.none(),
    "--out": st.just("cli_out"),
}
# each command's own options, read off the CLI's parser, so that a draw
# reaches validation and the command instead of stopping at a usage error
FLAGS = {command: {flag for a in parser._actions for flag in a.option_strings}
         - {"-h", "--help"}
         for command, parser in next(a for a in _build_parser()._actions
                                     if a.dest == "command").choices.items()}
COMMAND = st.sampled_from(["run", "export-qasm", "dump-pulses", "molecule-check",
                           "ingest-counts"])
INVOCATION = COMMAND.flatmap(lambda command: st.tuples(st.just(command), st.fixed_dictionaries(
    {}, optional={flag: OPTION_VALUES[flag] for flag in FLAGS[command] - {"--config"}})))


def write(path, data: str | bytes) -> None:
    path.write_bytes(data if isinstance(data, bytes) else data.encode())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=INVOCATION, config=CONFIG, counts=COUNTS)
def test_cli_exit_code_contract(tmp_path, monkeypatch, invocation, config, counts):
    monkeypatch.chdir(tmp_path)     # relative out_dir values land here
    command, options = invocation
    argv = [command]
    for flag, value in options.items():
        argv += [flag] if value is None else [flag, value]
    if config is not None and "--config" in FLAGS[command]:
        write(tmp_path / "fuzz.yaml", config)
        argv += ["--config", "fuzz.yaml"]
    if command == "ingest-counts":
        write(tmp_path / "counts.json", counts)
        argv += ["counts.json"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, config, counts, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("key", ["checkpoints_us", "seed", "pulses", "molecule"])
def test_alias_bomb_rejected_in_linear_time(tmp_path, key):
    raw = yaml.safe_load(alias_bomb(9, key))
    start = perf_counter()
    with pytest.raises(ConfigError, match=f"{key} holds more than"):
        validate_config(raw)
    assert perf_counter() - start < 0.1
    path = tmp_path / "bomb.yaml"
    path.write_bytes(alias_bomb(9, key))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
