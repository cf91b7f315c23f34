"""The exported OpenQASM text, replayed gate by gate by the benchmark's own
checker (bench/checks.py), must give run_statevector's final populations
of the macro circuit it was lowered from.  bench/ lies outside the tier-1
suite, so without this test a wrong lowering row would only fail there.

Populations cannot see every wrong sign, so the text is also read back
into a Circuit and its unitary compared with the macro circuit's, up to
global phase.  The text fuses the Q stage into one gate and the P/S stage
into three (fuse_stages), so its gate counts do not grow with N."""

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
from chiralgate.circuits import (CODE, Circuit, circuit_unitary, compile_protocol,
                                 expand_circuit, fuse_stages, phase_aligned_distance,
                                 run_statevector)
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
        assert read.gates == expand_circuit(fuse_stages(macro)).gates
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
    disc = discretize(cfg.build_schedule(), MAX_STEPS)
    macro = compile_protocol(disc, LEFT, protocol)
    q = macro.metadata["step_bounds"][disc.k - 1]       # the Q stage, then the P/S stage
    kind, angle = macro.kind[q:], macro.angle[q:]
    is_s = kind == CODE["CROT"]
    assert np.all(is_s | (kind == CODE["XX-YY"])) and len(angle) > MAX_STEPS
    r = circuits._frame_rotation(is_s, angle)
    assert np.max(np.abs(r - _long_double_rotation(is_s, angle))) <= 1e-13
    # circuit_unitary's real frame product over the macro gates is itself
    # up to 1.1e-13 off a long-double product of their gate matrices
    assert _distance(circuit_to_qasm(fuse_stages(macro)), macro) <= 2e-13


# signed zeros, whole turns and a tiny angle among the rest
RUN_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, 2 * math.pi, -2 * math.pi, 4 * math.pi,
                                        1e-9, -1e-9]), st.floats(-7.0, 7.0))


def _stage(omega_p, omega_s, hand, omega_q=(0.8,), ps_order="ps", erratum=False) -> Circuit:
    """compile_protocol's circuit of Q steps of these drive areas, then P/S
    steps of these; a drive area of 0 compiles to no gate."""
    k, zeros = len(omega_q), np.zeros(len(omega_p))
    disc = DiscretizedSchedule(1.0, np.r_[omega_q, zeros], np.r_[np.zeros(k), omega_p],
                               np.r_[np.zeros(k), omega_s], k=k)
    return compile_protocol(disc, hand, "stap", ps_order=ps_order, erratum_s_gate=erratum)


def _frame(u: np.ndarray) -> np.ndarray:
    """D^dag u D on (|00>, |11>, |10>), D = diag(1, i, 1)."""
    d = np.array([1, 1j, 1])
    return d.conj()[:, None] * u[np.ix_([0, 3, 2], [0, 3, 2])] * d


@st.composite
def protocol_circuits(draw):
    """compile_protocol circuits of 1-4 Q steps and 1-6 P/S steps, each
    drive area by RUN_ANGLES, for either hand, split order and Stokes gate."""
    omega_q = draw(st.lists(RUN_ANGLES, min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    omega_p = draw(st.lists(RUN_ANGLES, min_size=n, max_size=n))
    omega_s = draw(st.lists(RUN_ANGLES, min_size=n, max_size=n))
    return _stage(omega_p, omega_s, draw(st.sampled_from([LEFT, RIGHT])), omega_q,
                  draw(st.sampled_from(["ps", "sp"])), draw(st.booleans()))


def _fused_q(macro: Circuit) -> tuple[int, list]:
    """(the number of the macro's Q gates, the gates fuse_stages must make
    of them): one gate by their summed angle (summed as the export has
    always summed it), none if that is 0; a lone Q gate stays as it is."""
    q = macro.metadata["step_bounds"][macro.metadata["k"] - 1]
    total = np.add.reduceat(macro.angle[:q], [0])[0].item() if q else 0.0
    assert total == pytest.approx(math.fsum(macro.angle[:q]), rel=0, abs=1e-13)
    return q, (macro.gates[:q] if q < 2 else [replace(macro.gates[0], angle=total)]
               if total else [])


@given(macro=protocol_circuits())
@settings(max_examples=200, deadline=None)
def test_merge_pass_shortens_and_keeps_unitary(macro):
    fused = fuse_stages(macro)
    _, want_q = _fused_q(macro)
    assert repr(fused.gates[:len(want_q)]) == repr(want_q)      # to the bit
    text = circuit_to_qasm(fused)
    read, native = read_qasm(text), expand_circuit(fused)
    assert len(read) == len(native) <= len(expand_circuit(macro))
    assert cx_count(read) == cx_count(native) <= cx_count(expand_circuit(macro))
    # no rotation is by 0, and step_bounds, which index the unfused gates, go
    assert not np.any(fused.angle == 0.0)
    assert not np.any((read.kind < CODE["X"]) & (read.angle == 0.0))
    assert "step_bounds" not in fused.metadata
    assert _distance(text, macro) <= TEXT_DIGITS_TOL


@given(macro=protocol_circuits())
@settings(max_examples=300, deadline=None)
# next to the gimbal point cos(b/2) = -1, where the 2x2 block alone reads
# the angles 3.5e-10 off
@example(macro=_stage([2 * math.pi, 2 * math.pi], [2 * math.pi, 1e-9], LEFT))
def test_fuse_pass_keeps_other_gates_and_unitary(macro):
    q, want_q = _fused_q(macro)
    ps_stage, fused = macro.gates[q:], fuse_stages(macro)
    # the P/S fusion leaves the Q stage's gates alone; the P/S stage is at
    # most three gates, or stays as it is
    assert repr(fused.gates[:len(want_q)]) == repr(want_q)
    fused_ps = fused.gates[len(want_q):]
    assert repr(fused_ps) == repr(ps_stage) or len(fused_ps) < len(ps_stage) and len(fused_ps) <= 3
    kind, angle = [g.kind for g in ps_stage], np.array([g.angle for g in ps_stage])
    if "XX+YY" in kind:
        # P and the erratum S commute: one of each by their summed angles
        sums = {k: math.fsum(a for k_a, a in zip(kind, angle) if k_a == k)
                for k in ("XX-YY", "XX+YY")}
        if fused_ps != ps_stage:
            assert [(g.kind, g.angle) for g in fused_ps] == [(k, a) for k, a in sums.items() if a]
    else:
        if set(kind) == {"XX-YY"}:      # no S angle, so b = 0: at most one P gate
            assert len(fused_ps) <= 1
        # the frame rotation is the P/S stage's unitary, made real by D
        r = circuits._frame_rotation(np.array(kind) == "CROT", angle)
        np.testing.assert_allclose(_frame(circuit_unitary(Circuit(ps_stage))), r,
                                   rtol=0, atol=1e-14)
    assert _distance(circuit_to_qasm(fused), macro) <= TEXT_DIGITS_TOL


ANGLES = st.floats(0.1, 3.0)


@given(omega_q=st.tuples(ANGLES, ANGLES), omega_p=st.tuples(ANGLES, ANGLES),
       omega_s=st.tuples(ANGLES, ANGLES), hand=st.sampled_from([LEFT, RIGHT]),
       ps_order=st.sampled_from(["ps", "sp"]), erratum=st.booleans())
@settings(max_examples=300, deadline=None)
def test_fuse_pass_fuses_exactly_the_p_s_macros(omega_q, omega_p, omega_s, hand, ps_order,
                                                 erratum):
    # the Q stage's CROTs and the S CROTs share a kind: the stage boundary,
    # not the gates' content, tells which two fuse into the Q gate and
    # which four into the P/S stage's at most three
    macro = _stage(omega_p, omega_s, hand, omega_q, ps_order, erratum)
    q, _ = _fused_q(macro)
    assert q == 2 and len(macro) == 6
    fused = fuse_stages(macro)
    assert 1 < len(fused) <= 4
    assert replace(fused.gates[0], angle=0.0) == replace(macro.gates[0], angle=0.0)
    macro_ps = {replace(g, angle=0.0) for g in macro.gates[q:]}
    assert {replace(g, angle=0.0) for g in fused.gates[1:]} <= macro_ps
    assert phase_aligned_distance(circuit_unitary(fused), circuit_unitary(macro)) <= 1e-13


@pytest.mark.parametrize("hand", [LEFT, RIGHT])
def test_fuse_pass_at_the_gimbal_points(hand):
    # no S angle, so b = 0 exactly: the P gates fuse into one
    no_s = _stage([0.9, 2.5, 1.7], [0.0, 0.0, 0.0], hand)
    fused = fuse_stages(no_s)
    assert [g.kind for g in fused.gates] == ["CROT", "XX-YY"]
    assert math.cos(fused.angle[1] / 2) == pytest.approx(math.cos(5.1 / 2), abs=1e-15)
    # S angles that sum to 2 pi between two P angles: cos(b/2) = -1
    full_turn = _stage([0.9, 0.0, 0.0, 0.0, 1.7], [math.pi / 2] * 4 + [0.0], hand)
    fused = fuse_stages(full_turn)
    assert [g.kind for g in fused.gates] == ["CROT", "XX-YY", "CROT", "XX-YY"]
    assert math.cos(fused.angle[2] / 2) == pytest.approx(-1.0, abs=1e-15)
    for macro in (no_s, full_turn):
        assert phase_aligned_distance(circuit_unitary(fuse_stages(macro)),
                                      circuit_unitary(macro)) <= 1e-14
        assert _distance(circuit_to_qasm(fuse_stages(macro)), macro) <= TEXT_DIGITS_TOL


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
