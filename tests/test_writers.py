"""The text writers against per-row and per-line reference formatters.

circuit_to_qasm formats each distinct |angle| of a block once and takes the
sign from a per-sign line template, and the CSV writers fill one row
template per block; both must give the bytes of the
plain loops below, for every block size.
"""

import io
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralgate import propagate, scenarios
from chiralgate.circuits import CODE, KINDS, MACRO_KINDS, Circuit, Gate, expand_circuit
from chiralgate.config import validate_config
from chiralgate.propagate import PopulationTrace

CSV_VALUES = [0.0, -0.0, 5e-324, 1e-20, 1 - 2**-53, 1e300]


def csv_reference(trace: PopulationTrace) -> str:
    buf = io.StringIO()
    buf.write("t_us,p00,p01,p10,p11,handedness\n")
    for t, row in zip(trace.times, trace.probs):
        buf.write("%.9f,%.12g,%.12g,%.12g,%.12g,%s\n"
                  % (t, row[0], row[1], row[2], row[3], trace.handedness))
    return buf.getvalue()


def pulses_reference(config, n_samples: int) -> str:
    schedule = config.build_schedule()
    t = np.linspace(0.0, schedule.duration, n_samples)
    lines = ["t_us,omega_q,omega_p,omega_s"]
    lines += ["%.9f,%.12g,%.12g,%.12g" % row for row in zip(t, *schedule.drives(t))]
    return "\n".join(lines) + "\n"


def qasm_reference(circuit: Circuit) -> str:
    text = [scenarios._QASM_HEADER]
    for g in expand_circuit(circuit).gates:
        if g.kind == "X":
            text.append("x q[%d];\n" % g.qubits)
        elif g.kind == "CX":
            text.append("cx q[%d],q[%d];\n" % g.qubits)
        else:
            text.append("%s(%.12g) q[%d];\n" % (g.kind.lower(), g.angle, g.qubits[0]))
    return "".join(text + [scenarios._QASM_FOOTER])


csv_value = st.one_of(st.sampled_from(CSV_VALUES + [-v for v in CSV_VALUES]), st.floats())


@given(rows=st.lists(st.lists(csv_value, min_size=5, max_size=5), max_size=12),
       handedness=st.one_of(st.sampled_from(["", "L", "a%sb"]), st.text(max_size=4)),
       block=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
@example(rows=[CSV_VALUES[:5], CSV_VALUES[1:]], handedness="a%sb", block=1)
def test_to_csv_matches_row_loop(rows, handedness, block):
    table = np.array(rows, dtype=float).reshape(-1, 5)
    trace = PopulationTrace(table[:, 0], table[:, 1:], handedness)
    with mock.patch.object(propagate, "_CSV_BLOCK", block):
        assert trace.to_csv() == csv_reference(trace)


def test_dump_pulses_matches_row_loop():
    for protocol in ("stap", "stirap"):
        cfg = validate_config({"protocol": protocol})
        for n_samples, block in ((0, 3), (1, 3), (7, 3), (50, 7), (2000, 65536)):
            with mock.patch.object(propagate, "_CSV_BLOCK", block):
                assert scenarios.dump_pulses(cfg, n_samples) == pulses_reference(cfg, n_samples)


# repeated, negative and signed-zero angles; expand_circuit drops the zeros
ANGLES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, math.pi, -math.pi / 2, 5e-324]),
                   st.floats(-1e6, 1e6))


@st.composite
def any_gate(draw):
    kind = draw(st.sampled_from(KINDS))
    q = draw(st.sampled_from([0, 1]))
    two = kind == "CX" or kind in MACRO_KINDS
    return Gate(kind, (q, 1 - q) if two else (q,), draw(ANGLES), axis_phi=draw(ANGLES),
                control_value=draw(st.sampled_from([0, 1])))


@given(gates=st.lists(any_gate(), max_size=10), block=st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_qasm_matches_line_loop(gates, block):
    c = Circuit(gates)
    with mock.patch.object(scenarios, "_QASM_BLOCK", block):
        assert scenarios.circuit_to_qasm(c) == qasm_reference(c)


def test_qasm_blocks_mid_macro_and_without_rotations():
    gates = [Gate("CX", (0, 1)), Gate("CX", (1, 0)), Gate("X", (1,)), Gate("X", (0,)),
             Gate("XX-YY", (1, 0), 0.25),
             Gate("CROT", (0, 1), -0.0, axis_phi=0.0, control_value=0),
             Gate("RZ", (0,), 0.0), Gate("RZ", (1,), -0.0)]
    c = Circuit(gates)
    native = expand_circuit(c)
    # lines 0-3 are CX, CX, X and X, so block sizes 1 to 4 give a block
    # without rotations; lines 4-9 are the XX-YY macro, so every block size
    # below 10 puts an edge inside it.  The CROT by -0 about azimuth 0 keeps
    # its X flips, RYs and CXs, and none of the rotations by +-0 is emitted
    assert np.all(native.kind[:4] >= CODE["X"]) and native.kind[4] < CODE["X"]
    assert len(expand_circuit(Circuit(gates[:5]))) == 10 and len(native) == 16
    assert "(0)" not in qasm_reference(c) and "(-0)" not in qasm_reference(c)
    for block in range(1, len(native) + 2):
        with mock.patch.object(scenarios, "_QASM_BLOCK", block):
            assert scenarios.circuit_to_qasm(c) == qasm_reference(c)
    assert scenarios.circuit_to_qasm(Circuit()) == qasm_reference(Circuit())
    assert scenarios.circuit_to_qasm(Circuit()) == (scenarios._QASM_HEADER
                                                   + scenarios._QASM_FOOTER)
