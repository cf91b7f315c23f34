"""The exported OpenQASM text, replayed gate by gate by the benchmark's own
checker (bench/checks.py), must give run_statevector's final populations
of the macro circuit it was lowered from.  bench/ lies outside the tier-1
suite, so without this test a wrong lowering row would only fail there.

Populations cannot see every wrong sign, so the text is also read back
into a Circuit and its unitary compared with the macro circuit's, up to
global phase.  The text fuses each P/S stage into three gates
(fuse_ps_runs), so its gate counts do not grow with N."""

import importlib
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralgate import circuits
from chiralgate.circuits import (CODE, KINDS, Circuit, Gate, circuit_unitary, compile_protocol,
                                 expand_circuit, fuse_ps_runs, merge_runs,
                                 phase_aligned_distance, run_statevector)
from chiralgate.config import MAX_STEPS, validate_config
from chiralgate.pulses import LEFT, RIGHT, DiscretizedSchedule, discretize
from chiralgate.scenarios import _QASM_FOOTER, _QASM_HEADER, PSI0, circuit_to_qasm, export_qasm

BENCH = Path(__file__).resolve().parent.parent / "bench"
VARIANTS = {"default": {}, "erratum": {"erratum_s_gate": True}, "sp": {"ps_order": "sp"}}
# the five native line forms circuit_to_qasm writes
NATIVE_LINE = re.compile(r"(?P<rot>r[xyz])\((?P<angle>[^)]+)\) q\[(?P<t>[01])\];"
                         r"|x q\[(?P<x>[01])\];|cx q\[(?P<c>[01])\],q\[(?P<ct>[01])\];")
# The text writes each angle as its round-trip repr, so a read-back circuit
# is as exact as the native arrays: up to 4.9e-15 from its macro circuit
# (measured over EXPORTS), the round-off of merging, fusing and lowering
TEXT_DIGITS_TOL = 1e-13
# (natives, CX) of every exported file from N = 3 to MAX_STEPS: the Q stage
# is one CROT (10 natives) and the P/S stage P(c) S(b) P(a) (6 each), or
# one XX-YY and one XX+YY for the erratum Stokes gate.  At N = 2 the P/S
# stage is one step of two gates, which no fused form shortens.
FUSED_COUNTS = {"default": (28, 8), "erratum": (22, 6), "sp": (28, 8)}
ONE_STEP_COUNTS = (22, 6)


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


EXPORTS = [(p, v, n) for p in ("stap", "stirap") for v in VARIANTS for n in (2, 3, 531, 972)]


@pytest.mark.parametrize("protocol, variant, n", EXPORTS)
def test_exported_qasm_reads_back_with_phase(protocol, variant, n, tmp_path):
    cfg = validate_config({"protocol": protocol, "n_steps": n, **VARIANTS[variant]})
    disc = discretize(cfg.build_schedule(), cfg.n_steps)
    for path, hand in zip(export_qasm(cfg, str(tmp_path)), (LEFT, RIGHT)):
        macro = compile_protocol(disc, hand, protocol, ps_order=cfg.ps_order,
                                 erratum_s_gate=cfg.erratum_s_gate)
        text = Path(path).read_text()
        read = read_qasm(text)
        assert read.gates == expand_circuit(fuse_ps_runs(merge_runs(macro))).gates
        assert (len(read), cx_count(read)) == (ONE_STEP_COUNTS if n == 2
                                               else FUSED_COUNTS[variant])
        assert _distance(text, macro) <= TEXT_DIGITS_TOL
        if variant == "erratum":
            # the flip the population replay cannot see (test above)
            assert _distance(_flip_largest_rz(text), macro) > 0.5


@pytest.mark.parametrize("n", [2, 3, 531, 972, MAX_STEPS])
@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_exported_gate_counts_do_not_grow_with_n(protocol, n, tmp_path):
    for variant, options in VARIANTS.items():
        cfg = validate_config({"protocol": protocol, "n_steps": n, **options})
        for path in export_qasm(cfg, str(tmp_path / variant)):
            read = read_qasm(Path(path).read_text())
            want = ONE_STEP_COUNTS if n == 2 else FUSED_COUNTS[variant]
            assert (len(read), cx_count(read)) == want, (variant, path)


def _long_double_rotation(is_s: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """The frame rotation of a P/S run (circuits._frame_rotation), its gates
    multiplied one by one in np.longdouble."""
    half, j, rows = angle.astype(np.longdouble) / 2, np.where(is_s, 2, 0), np.arange(len(angle))
    gates = np.zeros((len(angle), 3, 3), np.longdouble)
    gates[:] = np.eye(3)
    gates[rows, 1, 1] = gates[rows, j, j] = np.cos(half)
    gates[rows, j, 1] = np.sin(half)
    gates[rows, 1, j] = -np.sin(half)
    r = np.eye(3, dtype=np.longdouble)
    for g in gates:
        r = g @ r
    return r


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_fused_stage_is_exact_at_max_steps(protocol):
    cfg = validate_config({"protocol": protocol, "n_steps": MAX_STEPS})
    macro = compile_protocol(discretize(cfg.build_schedule(), MAX_STEPS), LEFT, protocol)
    merged = merge_runs(macro)          # the Q stage's one CROT, then the P/S run
    kind, angle = merged.kind[1:], merged.angle[1:]
    is_s = kind == CODE["CROT"]
    assert np.all(is_s | (kind == CODE["XX-YY"])) and len(angle) > MAX_STEPS
    r = circuits._frame_rotation(is_s, angle)
    assert np.max(np.abs(r - _long_double_rotation(is_s, angle))) <= 1e-13
    # circuit_unitary's real frame product over the macro gates is itself
    # up to 1.1e-13 off a long-double product of their gate matrices
    assert _distance(circuit_to_qasm(fuse_ps_runs(merged)), macro) <= 2e-13


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
    merged = merge_runs(macro)
    fused = fuse_ps_runs(merged)
    text = circuit_to_qasm(fused)
    read, native = read_qasm(text), expand_circuit(fused)
    assert len(read) == len(native) <= len(expand_circuit(macro))
    assert cx_count(read) == cx_count(native) <= cx_count(expand_circuit(macro))
    # no run is left to merge, and no rotation is by 0
    for a, b in zip(merged.gates, merged.gates[1:]):
        assert a.kind in ("X", "CX") or ((a.kind, a.qubits, a.control_value, a.axis_phi)
                                         != (b.kind, b.qubits, b.control_value, b.axis_phi))
    assert all(g.kind in ("X", "CX") or g.angle != 0.0 for g in merged.gates)
    assert not np.any((read.kind < CODE["X"]) & (read.angle == 0.0))
    assert _distance(text, macro) <= TEXT_DIGITS_TOL


# the P, S and erratum S gates compile_protocol emits, by angle 0
P_GATE, S_GATE, E_GATE = (Gate("XX-YY", (0, 1)), Gate("CROT", (0, 1)), Gate("XX+YY", (0, 1)))
FUSABLE = (P_GATE, S_GATE, E_GATE)
# signed zeros, whole turns and a tiny angle among the rest
RUN_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, 2 * math.pi, -2 * math.pi, 4 * math.pi,
                                        1e-9, -1e-9]), st.floats(-7.0, 7.0))
# gates the pass leaves alone: a Q-stage CROT, an XX-YY on the other
# target, an S-like CROT about another axis, and natives
OTHER_GATES = st.sampled_from([Gate("CROT", (1, 0), 0.3, axis_phi=-math.pi / 2, control_value=0),
                               Gate("XX-YY", (1, 0), 0.7), Gate("CROT", (0, 1), 0.4, axis_phi=0.5),
                               Gate("RZ", (1,), 0.2), Gate("X", (0,)), Gate("CX", (1, 0))])


@st.composite
def fusable_runs(draw):
    """P/S runs in either split order and P/erratum-S runs, each step's
    two gates by RUN_ANGLES, between other gates."""
    gates = []
    for _ in range(draw(st.integers(0, 4))):
        gates += draw(st.lists(OTHER_GATES, max_size=2))
        pair = draw(st.sampled_from([(P_GATE, S_GATE), (S_GATE, P_GATE),
                                     (P_GATE, E_GATE), (E_GATE, P_GATE)]))
        for _ in range(draw(st.integers(1, 6))):
            gates += [replace(g, angle=draw(RUN_ANGLES)) for g in pair]
    return gates + draw(st.lists(OTHER_GATES, max_size=2))


def _cut(circuit: Circuit) -> tuple[list[Gate], list[list[Gate]]]:
    """(the gates the pass leaves alone, the runs of P, S and erratum S
    gates before, between and after them)."""
    others, runs = [], [[]]
    for g in circuit.gates:
        if replace(g, angle=0.0) in FUSABLE:
            runs[-1].append(g)
        else:
            others.append(g)
            runs.append([])
    return others, runs


def _frame(u: np.ndarray) -> np.ndarray:
    """D^dag u D on (|00>, |11>, |10>), D = diag(1, i, 1)."""
    d = np.array([1, 1j, 1])
    return d.conj()[:, None] * u[np.ix_([0, 3, 2], [0, 3, 2])] * d


@given(gates=fusable_runs())
@settings(max_examples=200, deadline=None)
# next to the gimbal point cos(b/2) = -1, where the 2x2 block alone reads
# the angles 3.5e-10 off
@example(gates=[replace(g, angle=a) for g, a in zip(
    [P_GATE, S_GATE, P_GATE, S_GATE], [2 * math.pi, 2 * math.pi, 2 * math.pi, 1e-9])])
def test_fuse_pass_keeps_other_gates_and_unitary(gates):
    macro = Circuit(gates)
    others, runs = _cut(macro)
    fused_others, fused_runs = _cut(fuse_ps_runs(macro))
    assert repr(fused_others) == repr(others)       # to the bit, signed zeros too
    for run, fused in zip(runs, fused_runs, strict=True):
        assert fused == run or (len(fused) < len(run) and len(fused) <= 3
                                and all(g.angle != 0.0 for g in fused))
        if run and E_GATE not in [replace(g, angle=0.0) for g in run]:
            # the frame rotation is the run's unitary, made real by D
            is_s = np.array([g.kind == "CROT" for g in run])
            r = circuits._frame_rotation(is_s, np.array([g.angle for g in run]))
            np.testing.assert_allclose(_frame(circuit_unitary(Circuit(run))), r,
                                       rtol=0, atol=1e-14)
    assert _distance(circuit_to_qasm(fuse_ps_runs(merge_runs(macro))), macro) <= TEXT_DIGITS_TOL


def _is_fusable(g: Gate) -> bool:
    """g equals a P, S or erratum S macro in kind, target, axis_phi (by ==,
    so -0.0 is 0.0) and control_value."""
    rows = [circuits._P, circuits._S, circuits._SE]
    macros = zip(*(col[rows].tolist() for col in circuits._MACROS.values()))
    return any(CODE[g.kind] == kind and g.qubits[-1] == target and g.axis_phi == phi
               and g.control_value == value for kind, target, phi, value in macros)


@given(kind=st.sampled_from(KINDS), target=st.sampled_from([0, 1]),
       value=st.sampled_from([0, 1]), angles=st.tuples(*[st.floats(0.1, 3.0)] * 2),
       phi=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, math.pi / 2, -math.pi / 2]),
                     st.floats(-7.0, 7.0)))
@settings(max_examples=300, deadline=None)
def test_fuse_pass_fuses_exactly_the_p_s_macros(kind, target, value, angles, phi):
    # two equal P, S or erratum S gates fuse into at most one; no other pair changes
    qubits = (target,) if kind in ("RX", "RY", "RZ", "X") else (1 - target, target)
    run = [Gate(kind, qubits, a, axis_phi=phi, control_value=value) for a in angles]
    fused = fuse_ps_runs(Circuit(run))
    if _is_fusable(run[0]):
        assert len(fused) < 2
    else:
        assert repr(fused.gates[:]) == repr(run)      # to the bit, signed zeros too


def _stage(omega_p, omega_s, hand) -> Circuit:
    """One Q step, then P/S steps (pump first) of these drive areas."""
    n = len(omega_p) + 1
    disc = DiscretizedSchedule(1.0, np.r_[0.8, np.zeros(n - 1)], np.r_[0.0, omega_p],
                               np.r_[0.0, omega_s], k=1)
    return compile_protocol(disc, hand, "stap")


@pytest.mark.parametrize("hand", [LEFT, RIGHT])
def test_fuse_pass_at_the_gimbal_points(hand):
    # no S angle, so b = 0 exactly: the P gates fuse into one
    no_s = _stage([0.9, 2.5, 1.7], [0.0, 0.0, 0.0], hand)
    fused = fuse_ps_runs(no_s)
    assert [g.kind for g in fused.gates] == ["CROT", "XX-YY"]
    assert math.cos(fused.angle[1] / 2) == pytest.approx(math.cos(5.1 / 2), abs=1e-15)
    # S angles that sum to 2 pi between two P angles: cos(b/2) = -1
    full_turn = _stage([0.9, 0.0, 0.0, 0.0, 1.7], [math.pi / 2] * 4 + [0.0], hand)
    fused = fuse_ps_runs(full_turn)
    assert [g.kind for g in fused.gates] == ["CROT", "XX-YY", "CROT", "XX-YY"]
    assert math.cos(fused.angle[2] / 2) == pytest.approx(-1.0, abs=1e-15)
    for macro in (no_s, full_turn):
        assert phase_aligned_distance(circuit_unitary(fuse_ps_runs(macro)),
                                      circuit_unitary(macro)) <= 1e-14
        assert _distance(circuit_to_qasm(fuse_ps_runs(merge_runs(macro))),
                         macro) <= TEXT_DIGITS_TOL


# -- both hands from one fused circuit ---------------------------------------

@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_both_hands_export_runs_one_frame_rotation(protocol, tmp_path, monkeypatch):
    calls = []
    frame_rotation = circuits._frame_rotation
    monkeypatch.setattr(circuits, "_frame_rotation",
                        lambda *args: calls.append(args) or frame_rotation(*args))
    export_qasm(validate_config({"protocol": protocol, "n_steps": 531}), str(tmp_path))
    assert len(calls) == 1


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_memoised_r_file_is_a_fresh_r_export(protocol, variant, tmp_path):
    # both files of a both-hands export come from the first hand's fused
    # circuit; each is the file a one-hand export of its hand writes.  N = 2
    # is the one-step stage that fusion leaves unfused
    for n in (2, 531, 972):
        config = {"protocol": protocol, "n_steps": n, **VARIANTS[variant]}
        both = export_qasm(validate_config(config), str(tmp_path / f"{n}"))
        for path, hand in zip(both, "LR", strict=True):
            alone = export_qasm(validate_config({**config, "enantiomer": hand}),
                                str(tmp_path / f"{n}{hand}"))
            assert [Path(p).name for p in (path, *alone)] == [f"{protocol}_{hand}.qasm"] * 2
            assert Path(path).read_bytes() == Path(alone[0]).read_bytes(), (n, hand)
