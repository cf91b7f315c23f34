"""The exported OpenQASM text, replayed gate by gate by the benchmark's own
checker (bench/checks.py), must give run_statevector's final populations
of the macro circuit it was lowered from.  bench/ lies outside the tier-1
suite, so without this test a wrong lowering row would only fail there."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from chiralgate.circuits import compile_protocol, run_statevector
from chiralgate.config import validate_config
from chiralgate.pulses import LEFT, RIGHT, discretize
from chiralgate.scenarios import PSI0, export_qasm

BENCH = Path(__file__).resolve().parent.parent / "bench"
VARIANTS = {"default": {}, "erratum": {"erratum_s_gate": True}, "sp": {"ps_order": "sp"}}


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("checks")


def _flip_largest_rz(text: str) -> str:
    """The text with the sign of its largest |rz| angle (the last such line)
    flipped, as bench/test_bench.py mutates it."""
    angles = [(abs(float(m.group(1))), m.start(1), m.end(1))
              for m in re.finditer(r"^rz\(([^)]*)\)", text, re.M)]
    _, start, end = max(angles)
    return text[:start] + repr(-float(text[start:end])) + text[end:]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_exported_qasm_replays_to_statevector(checks, protocol, variant, tmp_path):
    cfg = validate_config({"protocol": protocol, "n_steps": 21, **VARIANTS[variant]})
    disc = discretize(cfg.build_schedule(), cfg.n_steps)
    paths = export_qasm(cfg, str(tmp_path))
    assert [Path(p).name for p in paths] == [f"{protocol}_L.qasm", f"{protocol}_R.qasm"]
    replayed = {}
    for path, hand in zip(paths, (LEFT, RIGHT)):
        circuit = compile_protocol(disc, hand, protocol, ps_order=cfg.ps_order,
                                   erratum_s_gate=cfg.erratum_s_gate)
        _, psi = run_statevector(circuit, PSI0)
        ref = np.abs(psi) ** 2
        checks.check_qasm(path, ref)
        text = Path(path).read_text()
        replayed[hand.label] = checks.replay_qasm(text)
        flipped = _flip_largest_rz(text)
        if variant == "erratum":
            # the largest |rz| is the azimuth of the last Q step; flipping it
            # flips the sign of |10>, and the erratum Stokes step keeps the
            # blocks {00, 11} and {01, 10} apart, so populations cannot see it
            np.testing.assert_allclose(checks.replay_qasm(flipped), ref, rtol=0, atol=1e-10)
            continue
        Path(path).write_text(flipped)
        with pytest.raises(checks.CheckFailed, match="differ from run_statevector"):
            checks.check_qasm(path, ref)
    # the erratum run is chirality-blind: both hands end with one population
    if variant == "erratum":
        np.testing.assert_allclose(replayed["L"], replayed["R"], rtol=0, atol=1e-10)
    else:
        assert abs(replayed["L"][2] - replayed["R"][2]) > 0.5
