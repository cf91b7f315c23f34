"""The text writers against per-row and per-line reference formatters.

circuit_to_qasm fills one line template per native gate in one
%-format, and the CSV writers fill one row template for the whole table;
both must give the bytes of the plain loops below.
"""

import io
import math
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralgate import propagate, scenarios
from chiralgate.circuits import (KINDS, MACRO_KINDS, Circuit, Gate, expand_circuit,
                                 fuse_ps_runs, merge_runs)
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


def merge_reference(gates: list[Gate]) -> list[Gate]:
    """Each run of consecutive gates of one kind, qubits, control value and
    axis_phi, other than X and CX, as its first gate by the run's summed
    angle (summed as np.add.reduceat sums it); the runs that sum to 0
    dropped, and all of it again until nothing is dropped."""
    while True:
        runs = []
        for g in gates:
            key = None if g.kind in ("X", "CX") else (g.kind, g.qubits, g.control_value,
                                                      g.axis_phi)
            if key is not None and runs and runs[-1][0] == key:
                runs[-1][1].append(g.angle)
            else:
                runs.append((key, [g.angle], g))
        merged = [replace(g, angle=float(np.add.reduceat(angles, [0])[0]))
                  for _, angles, g in runs]
        kept = [g for g, (key, _, _) in zip(merged, runs) if key is None or g.angle != 0.0]
        if len(kept) == len(merged):
            return kept
        gates = kept


def qasm_reference(circuit: Circuit) -> str:
    """merge_reference's gates, fused by fuse_ps_runs, lowered one by one
    by expand_circuit, each native on its own line with its angle as repr."""
    text = [scenarios._QASM_HEADER]
    for g in fuse_ps_runs(Circuit(merge_reference(list(circuit.gates)))).gates:
        for n in expand_circuit(Circuit([g])).gates:
            if n.kind == "X":
                text.append("x q[%d];\n" % n.qubits)
            elif n.kind == "CX":
                text.append("cx q[%d],q[%d];\n" % n.qubits)
            else:
                text.append("%s(%r) q[%d];\n" % (n.kind.lower(), n.angle, n.qubits[0]))
    return "".join(text + [scenarios._QASM_FOOTER])


csv_value = st.one_of(st.sampled_from(CSV_VALUES + [-v for v in CSV_VALUES]), st.floats())


@given(rows=st.lists(st.lists(csv_value, min_size=5, max_size=5), max_size=12),
       handedness=st.one_of(st.sampled_from(["", "L", "a%sb"]), st.text(max_size=4)))
@settings(max_examples=150, deadline=None)
@example(rows=[CSV_VALUES[:5], CSV_VALUES[1:]], handedness="a%sb")
# all-+0.0 columns (written into the row template), an all-(-0.0) column,
# and columns of +0.0 with one -0.0 or one nonzero entry
@example(rows=[[0.5, 0.0, 0.0, -0.0, 0.0], [0.0, 0.25, 0.0, -0.0, 0.0]], handedness="%%d")
@example(rows=[[0.0] * 5] * 3, handedness="%")
@example(rows=[[0.0, 0.0, -0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 5e-324]], handedness="L")
def test_to_csv_matches_row_loop(rows, handedness):
    table = np.array(rows, dtype=float).reshape(-1, 5)
    trace = PopulationTrace(table[:, 0], table[:, 1:], handedness)
    assert trace.to_csv() == csv_reference(trace)


# labels the row template's "\n" -> ",label\n" pass must place exactly
LABELS = ["", "%", "a%sb", "L\n%.9f"]


@st.composite
def shared_grid_traces(draw):
    """Traces, in a random order, on one or two grids that several share,
    with labels from LABELS and p01 columns of +0.0, -0.0 or drawn values."""
    grids = [np.array(g, dtype=float)
             for g in draw(st.lists(st.lists(csv_value, max_size=6), min_size=1, max_size=2))]
    traces = []
    for _ in range(draw(st.integers(1, 6))):
        times = grids[draw(st.integers(0, len(grids) - 1))]
        probs = np.array(draw(st.lists(st.lists(csv_value, min_size=4, max_size=4),
                                       min_size=len(times), max_size=len(times))),
                         dtype=float).reshape(-1, 4)
        p01 = draw(st.sampled_from(["+0", "-0", "drawn"]))
        if p01 != "drawn":
            probs[:, 1] = 0.0
        if p01 == "-0" and len(times):
            probs[draw(st.integers(0, len(times) - 1)), 1] = -0.0
        traces.append(PopulationTrace(times, probs, draw(st.sampled_from(LABELS))))
    return traces, len(grids)


@given(case=shared_grid_traces())
@settings(max_examples=150, deadline=None)
def test_to_csv_on_shared_grids_matches_row_loop(case):
    traces, n_grids = case
    propagate._rows.cache_clear()
    for trace in traces:
        assert trace.to_csv() == csv_reference(trace)
    # one cached template per grid and p01 form, whatever the label
    info = propagate._rows.cache_info()
    assert info.misses <= 2 * n_grids and info.currsize <= 4


# a p01 or p11 value: +0.0 (listed twice, so drawn more often) keeps a row
# in the head, -0.0 and the rest end it
P01_P11 = st.one_of(st.sampled_from([0.0, -0.0, 0.0, 5e-324, 0.5]), csv_value)


@st.composite
def head_sharing_traces(draw):
    """Two traces on one grid whose first q rows, none, some or all, hold
    the same p00 and p10 and p01 = p11 = +0.0, as the Q stage of a run's L
    and R traces does.  Each trace may put a p01 or p11 value of P01_P11
    into one of those rows; the rows past them draw theirs from P01_P11."""
    n = draw(st.integers(0, 8))
    times = np.array(draw(st.lists(csv_value, min_size=n, max_size=n)), dtype=float)
    q = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    shared = draw(st.lists(csv_value, min_size=2 * q, max_size=2 * q))
    traces = []
    for label in draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=2)):
        probs = np.array(draw(st.lists(csv_value, min_size=4 * n, max_size=4 * n)),
                         dtype=float).reshape(n, 4)
        probs[:, [1, 3]] = np.array(draw(st.lists(P01_P11, min_size=2 * n, max_size=2 * n)),
                                    dtype=float).reshape(n, 2)
        probs[:q, [0, 2]] = np.array(shared, dtype=float).reshape(q, 2)
        probs[:q, [1, 3]] = 0.0
        if q and draw(st.booleans()):
            probs[draw(st.integers(0, q - 1)), draw(st.sampled_from([1, 3]))] = draw(P01_P11)
        traces.append(PopulationTrace(times, probs, label))
    return traces


@given(traces=head_sharing_traces())
@settings(max_examples=200, deadline=None)
# a head of no rows, of some rows and of all rows, with a -0.0 past it
@example(traces=[PopulationTrace(np.arange(3.0), np.array([[0.5, -0.0, 0.5, 0.0]] * 3), "L"),
                 PopulationTrace(np.arange(3.0), np.array([[0.5, 0.0, 0.5, 0.0]] * 3), "%")])
@example(traces=[PopulationTrace(np.arange(3.0), np.array([[0.5, 0.0, 0.5, 0.0],
                                                           [0.25, 0.0, 0.75, 0.0],
                                                           [0.5, 0.0, 0.25, -0.0]]), "L"),
                 PopulationTrace(np.arange(3.0), np.array([[0.5, 0.0, 0.5, 0.0],
                                                           [0.25, 0.0, 0.75, 0.0],
                                                           [0.5, 0.0, 0.25, 0.25]]), "a%sb")])
def test_to_csv_on_traces_sharing_a_head_matches_row_loop(traces):
    for trace in traces:
        assert trace.to_csv() == csv_reference(trace)


def test_to_csv_formats_a_shared_head_once(monkeypatch):
    times = np.linspace(0.0, 1.0, 6)
    probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.75, 0.0, 0.25, 0.0], [0.5, 0.0, 0.5, 0.0],
                      [0.5, 0.0, 0.25, 0.25], [0.25, 0.0, 0.5, 0.25], [0.0, 0.0, 1.0, 0.0]])
    right = probs.copy()
    right[3:, [0, 2, 3]] = right[3:, [3, 2, 0]]
    left, right = PopulationTrace(times, probs, "L"), PopulationTrace(times, right, "R")
    monkeypatch.setattr(propagate, "_HEADS", {})
    assert left.to_csv() == csv_reference(left)
    (text, _), = propagate._HEADS.values()
    assert text == "0.000000000,1,0,0,0\n0.200000000,0.75,0,0.25,0\n0.400000000,0.5,0,0.5,0\n"
    # the trace that shares the head takes it
    assert right.to_csv() == csv_reference(right) and propagate._HEADS == {}
    # a head one ulp off a memoised one gets its own text (at 0, %.12g
    # shows the ulp); the last two heads are held, keyed on the row
    # template (rows per grid), q and the head's p00 and p10
    off = probs.copy()
    off[0, 2] = np.nextafter(0.0, 1.0)
    for trace in (left, PopulationTrace(times, off, "L"), PopulationTrace(times[:4], probs[:4])):
        assert trace.to_csv() == csv_reference(trace)
    assert [(rows.count("\n"), q, values) for rows, q, values in propagate._HEADS] == [
        (6, 3, off[:3, [0, 2]].tobytes()), (4, 3, probs[:3, [0, 2]].tobytes())]


class _CountingDict(dict):
    """A dict that counts its inserts."""

    inserts = 0

    def __setitem__(self, key, value):
        self.inserts += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_a_both_hands_run_formats_each_shared_head_once(protocol, tmp_path, monkeypatch):
    heads = _CountingDict()
    monkeypatch.setattr(propagate, "_HEADS", heads)
    config = validate_config({"protocol": protocol, "n_steps": 8, "oracle_steps": 100})
    scenarios.run_scenario(config, str(tmp_path))
    # the L files format the oracle head and the circuit head; the R files take them
    assert heads.inserts == 2 and heads == {}


def test_to_csv_sees_a_grid_changed_in_place():
    times = np.linspace(0.0, 1.0, 5)
    trace = PopulationTrace(times, np.full((5, 4), 0.25), "L")
    assert trace.to_csv() == csv_reference(trace)
    times[2] = 0.3
    assert trace.to_csv() == csv_reference(trace)
    times[0] = -0.0         # a new key: it is written -0.000000000
    assert trace.to_csv() == csv_reference(trace)
    assert "\n-0.000000000," in trace.to_csv()


@pytest.mark.parametrize("times", [np.arange(5), np.linspace(0.0, 1.0, 5, dtype=np.float32),
                                   np.linspace(0.0, 2.0, 10)[::2]],
                         ids=["int64", "float32", "strided"])
def test_to_csv_keys_times_on_their_float64_values(times):
    probs = np.full((5, 4), 0.25)
    propagate._rows.cache_clear()
    trace = PopulationTrace(times, probs, "R")
    text = trace.to_csv()
    assert text == csv_reference(trace)
    # the float64 copy of the grid finds its template
    assert PopulationTrace(np.array(times, dtype=float), probs, "R").to_csv() == text
    assert propagate._rows.cache_info().hits == 1


def test_dump_pulses_after_to_csv_on_one_grid():
    cfg = validate_config({"protocol": "stap"})
    times = np.linspace(0.0, cfg.build_schedule().duration, 50)
    probs = np.full((50, 4), 0.25)
    probs[:, 1] = 0.0
    trace = PopulationTrace(times, probs, "L")
    assert trace.to_csv() == csv_reference(trace)
    # the one-shot pulse CSV neither reads nor fills the row-template cache
    info = propagate._rows.cache_info()
    assert scenarios.dump_pulses(cfg, 50) == pulses_reference(cfg, 50)
    assert propagate._rows.cache_info() == info
    assert trace.to_csv() == csv_reference(trace)


@pytest.mark.parametrize("times, probs", [
    (np.zeros(3), np.zeros((3, 2, 4))),      # a stack of states, as for a psi0 stack
    (np.zeros((3, 2)), np.zeros((3, 4))),
    (np.zeros(()), np.zeros(4)),
    (np.zeros(3), np.zeros((2, 4))),
    (np.zeros(3), np.zeros((3, 5))),
])
def test_to_csv_rejects_mismatched_shapes(times, probs):
    with pytest.raises(ValueError, match=re.escape(f"got {times.shape} and {probs.shape}")):
        PopulationTrace(times, probs).to_csv()


def test_dump_pulses_matches_row_loop():
    for protocol in ("stap", "stirap"):
        cfg = validate_config({"protocol": protocol})
        for n_samples in (0, 1, 7, 50, 2000):
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


def _crot(q, value, phi, angle=0.25):
    return Gate("CROT", (q, 1 - q), angle, axis_phi=phi, control_value=value)


@given(gates=st.lists(any_gate(), max_size=10))
@settings(max_examples=150, deadline=None)
# runs of equal CROTs: both control values, azimuths +-pi/2 and +-0, and
# neighbours that differ only in axis_phi or control value
@example(gates=[_crot(0, 0, math.pi / 2)] * 3 + [_crot(0, 1, -math.pi / 2)] * 2
         + [_crot(0, 1, 0.0), _crot(0, 1, -0.0, 0.0), _crot(1, 1, 0.0), _crot(1, 0, 0.0)])
# a run that sums to 0 between two runs of one CROT, which then merge
@example(gates=[_crot(1, 1, 0.5, 0.3), Gate("RZ", (0,), 0.5), Gate("RZ", (0,), -0.5),
                _crot(1, 1, 0.5, 0.1), _crot(1, 1, 0.5, 0.7), Gate("X", (0,)), Gate("X", (0,))])
# a P/S run (XX-YY and the CROT on |11>, |10>) between two X gates, fused
@example(gates=[Gate("X", (0,))] + [Gate("XX-YY", (0, 1), 0.5), _crot(0, 1, 0.0, -0.3)] * 3
         + [Gate("X", (0,))])
def test_qasm_matches_line_loop(gates):
    c = Circuit(gates)
    assert scenarios.circuit_to_qasm(fuse_ps_runs(merge_runs(c))) == qasm_reference(c)


def test_qasm_drops_zero_runs_and_writes_empty_circuit():
    gates = [Gate("CX", (0, 1)), Gate("CX", (1, 0)), Gate("X", (1,)), Gate("X", (0,)),
             Gate("XX-YY", (1, 0), 0.25),
             Gate("CROT", (0, 1), -0.0, axis_phi=0.0, control_value=0),
             Gate("RZ", (0,), 0.0), Gate("RZ", (1,), -0.0)]
    c = Circuit(gates)
    # the CROT by -0 and the RZs by +-0 are runs that sum to 0, so none of
    # their lines is written
    assert len(expand_circuit(merge_runs(c))) == len(expand_circuit(Circuit(gates[:5])))
    text = scenarios.circuit_to_qasm(fuse_ps_runs(merge_runs(c)))
    assert text == qasm_reference(c)
    assert "(0.0)" not in text and "(-0.0)" not in text
    assert scenarios.circuit_to_qasm(Circuit()) == qasm_reference(Circuit())
    assert scenarios.circuit_to_qasm(Circuit()) == (scenarios._QASM_HEADER
                                                   + scenarios._QASM_FOOTER)


def _export_texts(config: dict, out_dir: Path) -> dict[str, bytes]:
    paths = scenarios.export_qasm(validate_config(config), str(out_dir))
    return {Path(path).name: Path(path).read_bytes() for path in paths}


QASM_CONFIGS = [{"protocol": "stap", "n_steps": 60}, {"protocol": "stirap", "n_steps": 45}]


def test_threaded_exports_match_sequential_bytes(tmp_path):
    # threads exporting different configs write the bytes of a sequential run
    want = [_export_texts(QASM_CONFIGS[i % 2], tmp_path / f"seq{i}") for i in range(2)]
    got, errors = {}, []

    def export(i):
        try:
            for rep in range(6):
                got[i, rep] = _export_texts(QASM_CONFIGS[i % 2], tmp_path / f"t{i}_{rep}")
        except Exception as exc:       # re-raised below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=export, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert got == {(i, rep): want[i % 2] for i in range(4) for rep in range(6)}


SCENARIO_CONFIGS = [{"protocol": "stap", "n_steps": 12, "oracle_steps": 90},
                    {"protocol": "stirap", "n_steps": 9, "oracle_steps": 70}]


def _run_texts(config: dict, out_dir: Path) -> dict[str, bytes]:
    scenarios.run_scenario(validate_config(config), str(out_dir))
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_threaded_runs_match_sequential_bytes(tmp_path):
    # threads running different configs share the CSV row templates and the
    # memoised heads (propagate._rows, propagate._HEADS) and must write the
    # bytes of a sequential run
    want = [_run_texts(SCENARIO_CONFIGS[i % 2], tmp_path / f"seq{i}") for i in range(2)]
    got, errors = {}, []

    def run(i):
        try:
            for rep in range(6):
                got[i, rep] = _run_texts(SCENARIO_CONFIGS[i % 2], tmp_path / f"t{i}_{rep}")
        except Exception as exc:       # re-raised below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert got == {(i, rep): want[i % 2] for i in range(4) for rep in range(6)}
