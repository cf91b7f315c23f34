"""The exported OpenQASM text, replayed gate by gate by the benchmark's own
checker (bench/checks.py), must give run_statevector's final populations
of the macro circuit it was lowered from.  bench/ lies outside the tier-1
suite, so without this test a wrong lowering row would only fail there.

Populations cannot see every wrong sign, so the text is also read back
into a Circuit and its unitary compared with the macro circuit's, up to
global phase."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralgate.circuits import (CODE, Circuit, Gate, circuit_unitary, compile_protocol,
                                 expand_circuit, merge_runs, phase_aligned_distance,
                                 run_statevector)
from chiralgate.config import validate_config
from chiralgate.pulses import LEFT, RIGHT, discretize
from chiralgate.scenarios import _QASM_FOOTER, _QASM_HEADER, PSI0, circuit_to_qasm, export_qasm

BENCH = Path(__file__).resolve().parent.parent / "bench"
VARIANTS = {"default": {}, "erratum": {"erratum_s_gate": True}, "sp": {"ps_order": "sp"}}
# the five native line forms circuit_to_qasm writes
NATIVE_LINE = re.compile(r"(?P<rot>r[xyz])\((?P<angle>[^)]+)\) q\[(?P<t>[01])\];"
                         r"|x q\[(?P<x>[01])\];|cx q\[(?P<c>[01])\],q\[(?P<ct>[01])\];")
# The text writes each angle as its round-trip repr, so a read-back circuit
# is as exact as the native arrays: up to 3.6e-14 from its macro circuit
# (measured over EXPORTS), the round-off of merging and lowering
TEXT_DIGITS_TOL = 1e-13
# (natives, CX) of the L file of the default variant
NATIVE_COUNTS = {("stap", 531): (3226, 1074), ("stirap", 972): (8722, 2906)}


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
            # the largest |rz| is the azimuth of the one Q CROT; flipping it
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


def read_qasm(text: str) -> Circuit:
    """The natives of an exported text, one per gate line; any other line
    between the header and the footer fails."""
    assert text.startswith(_QASM_HEADER) and text.endswith(_QASM_FOOTER)
    rows = []                           # (kind, target, angle)
    for line in text[len(_QASM_HEADER):-len(_QASM_FOOTER)].splitlines():
        m = NATIVE_LINE.fullmatch(line)
        assert m is not None, line
        if m["rot"]:
            rows.append((CODE[m["rot"].upper()], int(m["t"]), float(m["angle"])))
        elif m["x"]:
            rows.append((CODE["X"], int(m["x"]), 0.0))
        else:
            assert int(m["c"]) == 1 - int(m["ct"]), line
            rows.append((CODE["CX"], int(m["ct"]), 0.0))
    kind, target, angle = zip(*rows) if rows else ((), (), ())
    return Circuit(kind=kind, target=target, angle=angle,
                   axis_phi=np.zeros(len(rows)), control_value=np.ones(len(rows)))


def cx_count(circuit: Circuit) -> int:
    return int(np.count_nonzero(circuit.kind == CODE["CX"]))


def _distance(text: str, macro: Circuit) -> float:
    """Phase-aligned distance of the text's unitary from the macro circuit's."""
    return phase_aligned_distance(circuit_unitary(read_qasm(text)), circuit_unitary(macro))


EXPORTS = [(p, v, n) for p in ("stap", "stirap") for v in VARIANTS for n in (531, 972)]


@pytest.mark.parametrize("protocol, variant, n", EXPORTS)
def test_exported_qasm_reads_back_with_phase(protocol, variant, n, tmp_path):
    cfg = validate_config({"protocol": protocol, "n_steps": n, **VARIANTS[variant]})
    disc = discretize(cfg.build_schedule(), cfg.n_steps)
    for path, hand in zip(export_qasm(cfg, str(tmp_path)), (LEFT, RIGHT)):
        macro = compile_protocol(disc, hand, protocol, ps_order=cfg.ps_order,
                                 erratum_s_gate=cfg.erratum_s_gate)
        text = Path(path).read_text()
        read, merged = read_qasm(text), expand_circuit(merge_runs(macro))
        assert len(read) == len(merged) < len(expand_circuit(macro))
        assert cx_count(read) == cx_count(merged) < cx_count(expand_circuit(macro))
        if variant == "default" and hand is LEFT and (protocol, n) in NATIVE_COUNTS:
            assert (len(read), cx_count(read)) == NATIVE_COUNTS[protocol, n]
        assert _distance(text, macro) <= TEXT_DIGITS_TOL
        if variant == "erratum":
            # the flip the population replay cannot see (test above)
            assert _distance(_flip_largest_rz(text), macro) > 0.5


# runs of equal CROTs (both control values, azimuths +-0 and +-pi/2) among
# the other kinds: merge_runs makes each run one gate, and drops the runs
# that sum to 0
PHIS = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2]), st.floats(-4.0, 4.0))
TURNS = st.one_of(st.sampled_from([0.0, -0.0, 1e-3]), st.floats(-7.0, 7.0))


@st.composite
def gate_runs(draw):
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["CROT", "CROT", "CROT", "XX-YY", "XX+YY", "RZ", "X", "CX"]))
        q = draw(st.sampled_from([0, 1]))
        qubits = (q, 1 - q) if kind in ("CROT", "XX-YY", "XX+YY", "CX") else (q,)
        phi, value = draw(PHIS), draw(st.sampled_from([0, 1]))
        gates += [Gate(kind, qubits, draw(TURNS), axis_phi=phi, control_value=value)
                  for _ in range(draw(st.integers(1, 4)))]
    return gates


@given(gates=gate_runs())
@settings(max_examples=200, deadline=None)
def test_merge_pass_shortens_and_keeps_unitary(gates):
    macro = Circuit(gates)
    text = circuit_to_qasm(macro)
    merged = merge_runs(macro)
    read, native = read_qasm(text), expand_circuit(merged)
    assert len(read) == len(native) <= len(expand_circuit(macro))
    assert cx_count(read) == cx_count(native) <= cx_count(expand_circuit(macro))
    # no run is left to merge, and no rotation is by 0
    for a, b in zip(merged.gates, merged.gates[1:]):
        assert a.kind in ("X", "CX") or ((a.kind, a.qubits, a.control_value, a.axis_phi)
                                         != (b.kind, b.qubits, b.control_value, b.axis_phi))
    assert all(g.kind in ("X", "CX") or g.angle != 0.0 for g in merged.gates)
    assert not np.any((read.kind < CODE["X"]) & (read.angle == 0.0))
    assert _distance(text, macro) <= TEXT_DIGITS_TOL
