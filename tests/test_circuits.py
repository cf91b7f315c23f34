import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chiralgate import circuits
from chiralgate.circuits import (CODE, KINDS, MACRO_KINDS, Circuit, Gate,
                                 MeasurementRecord, circuit_unitary,
                                 compile_p_step, compile_protocol,
                                 compile_q_step, compile_s_step,
                                 expand_circuit, fuse_stages, gate_matrices, gate_matrix,
                                 phase_aligned_distance, run_statevector,
                                 sample_measurements)
from chiralgate.errors import IntegrityError
from chiralgate.hamiltonians import (DRIVES, IDX_01, IDX_10, build_h_ps,
                                     build_h_q, coupling)
from chiralgate.propagate import evolve_piecewise_exact
from chiralgate.pulses import (LEFT, RIGHT, DiscretizedSchedule,
                               default_stap_schedule, default_stirap_schedule,
                               discretize)
from chiralgate.hamiltonians import stirap_generator

PSI0 = np.array([1, 0, 0, 0], dtype=complex)
PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.diag([1.0 + 0j, -1.0])}


def _on(op_by_qubit: dict) -> np.ndarray:
    """Two-qubit operator from one-qubit factors (identity where absent)."""
    return np.kron(op_by_qubit.get(0, np.eye(2)), op_by_qubit.get(1, np.eye(2)))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("BAD", (0,))
    with pytest.raises(ValueError):
        Gate("CX", (0, 0))
    with pytest.raises(ValueError):
        Gate("CX", (1,))
    with pytest.raises(ValueError):
        Gate("RX", (0, 1))
    with pytest.raises(ValueError):
        Gate("RX", (0,), angle=math.nan)
    with pytest.raises(ValueError):
        Gate("CROT", (0, 1), 1.0, control_value=2)
    # a NaN axis would otherwise surface as an error on an RZ the caller
    # never wrote, or as rz(nan) in the QASM
    for phi in (math.nan, math.inf):
        with pytest.raises(ValueError, match="axis_phi"):
            Gate("CROT", (0, 1), 1.0, axis_phi=phi)
        with pytest.raises(ValueError, match="axis_phi"):
            Circuit(kind=[CODE["CROT"]], target=[1], angle=[1.0], axis_phi=[phi],
                    control_value=[1])


COLUMNS = ("kind", "target", "angle", "axis_phi", "control_value")
# the columns of one invalid gate, and the Gate arguments that break the same
# rule; a two-qubit kind's control is 1 - target
RX, CX, CROT = CODE["RX"], CODE["CX"], CODE["CROT"]
BAD_COLUMNS = [
    ((RX, 2, 0.0, 0.0, 1), ("RX", (2,))),
    ((CX, 2, 0.0, 0.0, 1), ("CX", (-1, 2))),
    ((CX, -1, 0.0, 0.0, 1), ("CX", (2, -1))),
    ((RX, -1, 0.0, 0.0, 1), ("RX", (-1,))),
    ((RX, 0, math.inf, 0.0, 1), ("RX", (0,), math.inf)),
    ((CROT, 1, 1.0, math.nan, 1), ("CROT", (0, 1), 1.0, math.nan)),
    ((CROT, 1, 1.0, 0.0, 2), ("CROT", (0, 1), 1.0, 0.0, 2)),
]


@pytest.mark.parametrize("columns, gate_args", BAD_COLUMNS)
def test_circuit_arrays_validate_like_gate(columns, gate_args):
    with pytest.raises(ValueError) as from_gate:
        Gate(*gate_args)
    # the bad gate second, after a valid one
    arrays = {name: [good, bad] for name, good, bad
              in zip(COLUMNS, (RX, 1, 0.5, 0.0, 1), columns)}
    with pytest.raises(ValueError) as from_arrays:
        Circuit(**arrays)
    assert str(from_arrays.value) == str(from_gate.value)


def test_circuit_arrays_reject_unknown_kind_and_ragged_columns():
    arrays = dict(zip(COLUMNS, ([v] for v in (len(KINDS), 0, 0.0, 0.0, 1))))
    with pytest.raises(ValueError, match=f"unknown gate kind {len(KINDS)}"):
        Circuit(**arrays)
    with pytest.raises(ValueError, match="one length"):
        Circuit(**{**arrays, "kind": [0], "angle": [0.0, 1.0]})


def test_circuit_refuses_gates_and_columns_together():
    columns = dict(kind=[0, 0], target=[0, 0], angle=[1.0, 2.0], axis_phi=[0.0, 0.0],
                   control_value=[1, 1])
    for name, values in columns.items():
        with pytest.raises(ValueError, match="not both"):
            Circuit([Gate("RX", (0,), 0.5)], **{name: values})
    with pytest.raises(ValueError, match="not both"):
        Circuit([Gate("RX", (0,), 0.5)], **columns)
    assert len(Circuit([], **columns)) == 2


# one out-of-range or fractional entry in an integer column, and the Gate
# arguments that break the same rule: an int8 cast would wrap or truncate it
UNCASTABLE = [
    ("kind", np.array([RX, 259]), (259, (0,))),             # would wrap to X
    ("kind", [RX, 259], (259, (0,))),                       # would overflow the cast
    ("kind", np.array([RX, 1.5]), (1.5, (0,))),             # would truncate to RY
    ("kind", np.array([RX, math.nan]), (math.nan, (0,))),
    ("target", np.array([1, 257]), ("RX", (257,))),         # would wrap to 1
    ("control_value", np.array([1, -255]), ("RX", (1,), 0.5, 0.0, -255)),  # would wrap to 1
]


@pytest.mark.parametrize("name, column, gate_args", UNCASTABLE)
def test_circuit_integer_columns_are_checked_before_the_cast(name, column, gate_args):
    with pytest.raises(ValueError) as from_gate:
        Gate(*gate_args)
    arrays = {**dict(zip(COLUMNS, ([RX, RX], [1, 1], [0.5, 0.5], [0.0, 0.0], [1, 1]))),
              name: column}
    with pytest.raises(ValueError) as from_arrays:
        Circuit(**arrays)
    assert str(from_arrays.value) == str(from_gate.value)


@given(angle=st.floats(-6.0, 6.0), kind=st.sampled_from(["RX", "RY", "RZ"]),
       qubit=st.sampled_from([0, 1]))
@settings(max_examples=60, deadline=None)
def test_single_qubit_gates_unitary(angle, kind, qubit):
    u = gate_matrix(Gate(kind, (qubit,), angle))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    ref = expm(-0.5j * angle * _on({qubit: PAULI[kind[1]]}))
    np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)


def test_cx_is_expected_permutation():
    u = gate_matrix(Gate("CX", (0, 1)))  # control q0: swaps |10> and |11>
    want = np.eye(4)[:, [0, 1, 3, 2]]
    np.testing.assert_allclose(u, want, atol=1e-15)


def test_q_step_matches_slice_exponential():
    rng = np.random.default_rng(3)
    for _ in range(25):
        theta = rng.uniform(-3, 3)
        hand = LEFT if rng.random() < 0.5 else RIGHT
        u = circuit_unitary(Circuit(compile_q_step(theta, hand)))
        ref = expm(-1j * build_h_q(1.0, hand) * theta)  # omega*dt = theta
        assert phase_aligned_distance(u, ref) < 1e-10


def test_q_step_prepares_chiral_superpositions():
    # total area pi/2 from |00>: L -> (|00> - |10>)/sqrt2, R -> (|00> + |10>)/sqrt2
    for hand, sign in ((LEFT, -1.0), (RIGHT, +1.0)):
        u = circuit_unitary(Circuit(compile_q_step(math.pi / 2, hand)))
        psi = u @ PSI0
        np.testing.assert_allclose(psi[0], 1 / math.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(psi[2], sign / math.sqrt(2), atol=1e-12)


def test_p_step_matches_slice_exponential():
    for theta in (0.3, -1.7, math.pi):
        u = circuit_unitary(Circuit(compile_p_step(theta)))
        ref = expm(-1j * build_h_ps(1.0, 0.0) * theta)
        assert phase_aligned_distance(u, ref) < 1e-10


def test_p_step_trivial_angles():
    assert compile_p_step(0.0) == []
    u = circuit_unitary(Circuit(compile_p_step(math.pi)))
    psi = u @ PSI0
    np.testing.assert_allclose(abs(psi[3]) ** 2, 1.0, atol=1e-12)
    u = circuit_unitary(Circuit(compile_p_step(math.pi / 2)))
    psi = u @ PSI0
    np.testing.assert_allclose(abs(psi[0]) ** 2, 0.5, atol=1e-12)
    np.testing.assert_allclose(abs(psi[3]) ** 2, 0.5, atol=1e-12)


def test_s_step_faithful_matches_slice_exponential():
    for theta in (0.4, -2.2, math.pi):
        u = circuit_unitary(Circuit(compile_s_step(theta)))
        ref = expm(-1j * build_h_ps(0.0, 1.0) * theta)
        assert phase_aligned_distance(u, ref) < 1e-10
    # full flip moves |11> to |10>
    u = circuit_unitary(Circuit(compile_s_step(math.pi)))
    psi = u @ np.array([0, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(abs(psi[2]) ** 2, 1.0, atol=1e-12)


def test_s_step_erratum_mode_misses_the_coupling():
    # the XX+YY construction hops |01><10| and leaves |11> alone, so it is
    # NOT the Stokes drive; kept to document the discrepancy
    u = circuit_unitary(Circuit(compile_s_step(1.3, erratum=True)))
    psi = u @ np.array([0, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(abs(psi[3]) ** 2, 1.0, atol=1e-12)
    assert abs(u[1, 2]) > 0.1


@given(theta=st.floats(-4.0, 4.0), axis_phi=st.floats(-math.pi, math.pi),
       cv=st.sampled_from([0, 1]), ctrl=st.sampled_from([0, 1]),
       kind=st.sampled_from(["CROT", "XX-YY", "XX+YY"]))
@settings(max_examples=90, deadline=None)
def test_macro_expansion_equivalence(theta, axis_phi, cv, ctrl, kind):
    g = Gate(kind, (ctrl, 1 - ctrl), theta, axis_phi=axis_phi, control_value=cv)
    u_macro = gate_matrix(g)
    u_native = circuit_unitary(expand_circuit(Circuit([g])))
    assert phase_aligned_distance(u_native, u_macro) < 1e-13
    if kind == "CROT":
        axis = math.cos(axis_phi) * PAULI["X"] + math.sin(axis_phi) * PAULI["Y"]
        gen = _on({ctrl: np.diag([1.0 - cv, cv]), 1 - ctrl: axis})
    else:   # (XX -+ YY)/2
        sign = -1.0 if kind == "XX-YY" else 1.0
        gen = 0.5 * (_on({0: PAULI["X"], 1: PAULI["X"]})
                     + sign * _on({0: PAULI["Y"], 1: PAULI["Y"]}))
    np.testing.assert_allclose(u_macro, expm(-0.5j * theta * gen), rtol=0, atol=1e-12)


@pytest.mark.parametrize("ctrl", [0, 1])
def test_macro_lowering_native_and_cx_counts(ctrl):
    def counts(gate):     # (natives, CX, X)
        kind = expand_circuit(Circuit([gate])).kind
        return len(kind), int(np.sum(kind == CODE["CX"])), int(np.sum(kind == CODE["X"]))
    for kind in ("XX-YY", "XX+YY"):     # W^dag Rx_c Ry_t W
        assert counts(Gate(kind, (ctrl, 1 - ctrl), 0.7)) == (6, 2, 0)
        assert counts(Gate(kind, (ctrl, 1 - ctrl), -0.0)) == (4, 2, 0)
    for cv in (0, 1):
        # (angle, axis_phi, rotations by exactly +-0 among the 4 Rz)
        for angle, phi, zeros in ((0.7, 0.3, 0), (0.7, 0.0, 2), (-0.7, -0.0, 2),
                                  (0.0, 0.4, 2), (-0.0, 0.0, 4)):
            gate = Gate("CROT", (ctrl, 1 - ctrl), angle, axis_phi=phi, control_value=cv)
            assert counts(gate) == (8 + 2 * (1 - cv) - zeros, 2, 2 * (1 - cv))


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
@pytest.mark.parametrize("n_steps", [531, 972])     # the sizes qasm-export draws from
def test_exported_circuit_matches_macro_circuit(protocol, n_steps):
    d = discretize(default_stap_schedule() if protocol == "stap"
                   else default_stirap_schedule(), n_steps)
    for hand in (LEFT, RIGHT):
        for erratum, ps_order in ((False, "ps"), (True, "ps"), (False, "sp")):
            c = compile_protocol(d, hand, protocol, ps_order=ps_order, erratum_s_gate=erratum)
            native = expand_circuit(c)
            # the per-gate reference, to the bit (repr tells -0.0 from 0.0)
            want = [reference_expand(g) for g in c.gates]
            assert repr(list(native.gates)) == repr([n for natives in want for n in natives])
            ends = np.cumsum([0] + [len(natives) for natives in want])
            assert native.metadata["step_bounds"] == ends[c.metadata["step_bounds"]].tolist()
            u, v = circuit_unitary(native), circuit_unitary(c)
            assert phase_aligned_distance(u, v) < 1e-13
            assert not np.any((native.angle == 0.0) & (native.kind < CODE["X"]))


# The per-gate code that the array kernels replaced, kept as their reference:
# one 4x4 and one list of native Gates per gate, with the same arithmetic.
_I4 = np.eye(4, dtype=complex)
_ONE_QUBIT = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]],
              "P0": [[1, 0], [0, 0]], "P1": [[0, 0], [0, 1]]}
_REF_ON = {(name, q): np.kron(m, np.eye(2, dtype=complex)) if q == 0
           else np.kron(np.eye(2, dtype=complex), m)
           for name, m in _ONE_QUBIT.items() for q in (0, 1)}
_REF_CX = {(c, 1 - c): _I4 - _REF_ON["P1", c] + _REF_ON["P1", c] @ _REF_ON["X", 1 - c]
           for c in (0, 1)}
_REF_HOP = {"XX-YY": coupling(DRIVES["P"]), "XX+YY": coupling((IDX_01, IDX_10))}


def reference_matrix(gate):
    k, q = gate.kind, gate.qubits
    if k == "X":
        return _REF_ON["X", q[0]]
    if k == "CX":
        return _REF_CX[q]
    p = _I4
    if k == "CROT":
        p = _REF_ON[f"P{gate.control_value}", q[0]]
        g = p @ (math.cos(gate.axis_phi) * _REF_ON["X", q[1]]
                 + math.sin(gate.axis_phi) * _REF_ON["Y", q[1]])
    elif k in _REF_HOP:
        g = _REF_HOP[k]
        p = g @ g
    else:
        g = _REF_ON[k[1], q[0]]
    half = gate.angle / 2
    return _I4 - p + math.cos(half) * p - 1j * math.sin(half) * g


def reference_expand(gate):
    k, a = gate.kind, gate.angle
    if k not in MACRO_KINDS:
        out = [gate]
    elif k == "CROT":
        c, t = gate.qubits
        flip = [Gate("X", (c,))] if gate.control_value == 0 else []
        out = [*flip, Gate("RZ", (t,), -gate.axis_phi), Gate("RY", (t,), -math.pi / 2),
               Gate("RZ", (t,), a / 2), Gate("CX", (c, t)), Gate("RZ", (t,), -a / 2),
               Gate("CX", (c, t)), Gate("RY", (t,), math.pi / 2),
               Gate("RZ", (t,), gate.axis_phi), *flip]
    else:
        c, t = gate.qubits
        out = [Gate("RX", (c,), math.pi / 2), Gate("CX", (c, t)), Gate("RX", (c,), a / 2),
               Gate("RY", (t,), -a / 2 if k == "XX-YY" else a / 2), Gate("CX", (c, t)),
               Gate("RX", (c,), -math.pi / 2)]
    # a rotation by exactly +-0 is an identity and is not emitted
    return [g for g in out if g.kind not in ("RX", "RY", "RZ") or g.angle != 0.0]


ANGLES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-6.0, 6.0))


@st.composite
def any_gate(draw):
    kind = draw(st.sampled_from(KINDS))
    q = draw(st.sampled_from([0, 1]))
    two = kind == "CX" or kind in MACRO_KINDS
    return Gate(kind, (q, 1 - q) if two else (q,), draw(ANGLES), axis_phi=draw(ANGLES),
                control_value=draw(st.sampled_from([0, 1])))


@given(gates=st.lists(any_gate(), max_size=8), data=st.data())
@settings(max_examples=80, deadline=None)
def test_array_lowering_composes(gates, data):
    c = Circuit(gates)
    assert c.gates == gates
    bounds = sorted(data.draw(st.lists(st.integers(0, len(gates)), max_size=6)))
    c.metadata["step_bounds"] = bounds      # repeats included
    native = expand_circuit(c)
    pieces = [expand_circuit(Circuit([g])) for g in gates]
    assert native.gates == [n for piece in pieces for n in piece.gates]
    for name in ("angle", "axis_phi"):      # to the bit: signed zeros too
        want = np.concatenate([getattr(piece, name) for piece in pieces] + [np.zeros(0)])
        assert getattr(native, name).tobytes() == want.tobytes()
    # repr tells -0.0 from 0.0 and prints every digit
    assert repr(list(native.gates)) == repr([n for g in gates for n in reference_expand(g)])
    ends = np.cumsum([0] + [len(piece) for piece in pieces])
    assert native.metadata["step_bounds"] == [ends[b] for b in bounds]
    assert phase_aligned_distance(circuit_unitary(native), circuit_unitary(c)) < 1e-10
    batched = gate_matrices(c)
    assert batched.shape == (len(gates), 4, 4)
    for u, g in zip(batched, gates):
        assert u.tobytes() == gate_matrix(g).tobytes() == reference_matrix(g).tobytes()


def test_expanded_circuit_keeps_step_populations():
    # steps 0, 1 and 4 are gate-free, so several step bounds repeat
    disc = DiscretizedSchedule(0.1, np.array([0.0, 0.0, 3.0, 0, 0, 0, 0]),
                               np.array([0, 0, 0, 0.0, 0.0, 9.0, 4.0]),
                               np.array([0, 0, 0, 0.0, 0.0, 2.0, 6.0]), k=3)
    for hand in (LEFT, RIGHT):
        c = compile_protocol(disc, hand, "stap")
        assert c.metadata["step_bounds"][:2] == [0, 0]
        native = expand_circuit(c)
        assert native.metadata["step_bounds"][-1] == len(native.gates)
        macro_trace, _ = run_statevector(c, PSI0)
        native_trace, _ = run_statevector(native, PSI0)
        np.testing.assert_allclose(native_trace.probs, macro_trace.probs,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_merged_protocol_lowers_without_step_bounds(protocol):
    d = discretize(default_stap_schedule() if protocol == "stap"
                   else default_stirap_schedule(), 40)
    for hand in (LEFT, RIGHT):
        c = compile_protocol(d, hand, protocol)
        fused = fuse_stages(c)
        # the Q steps share one CROT, so the Q stage is one gate by its area;
        # the fused gates no longer have Trotter-step bounds
        q_stage = c.gates[:c.metadata["step_bounds"][d.k - 1]]
        first = fused.gates[0]
        assert {replace(g, angle=first.angle) for g in q_stage} == {first}
        assert first.angle == pytest.approx(math.fsum(g.angle for g in q_stage), abs=1e-14)
        assert fused.gates[1].kind != "CROT"
        assert "step_bounds" not in fused.metadata
        assert fused.metadata == {k: v for k, v in c.metadata.items() if k != "step_bounds"}
        native = expand_circuit(fused)
        assert "step_bounds" not in native.metadata
        assert phase_aligned_distance(circuit_unitary(native), circuit_unitary(c)) < 1e-13


def test_compile_protocol_structure():
    s = default_stirap_schedule()
    d = discretize(s, 20)
    c = compile_protocol(d, LEFT, "stirap")
    assert c.metadata["n_steps"] == 20
    assert c.metadata["k"] == d.k
    assert len(c.metadata["step_bounds"]) == 20
    assert c.metadata["step_bounds"][-1] == len(c.gates)
    # the message offers the orders config and the CLI read
    with pytest.raises(ValueError, match=re.escape(f"one of {circuits._PS_ORDERS}, got 'nope'")):
        compile_protocol(d, LEFT, "stirap", ps_order="nope")


def test_macro_table_holds_the_five_macros():
    erratum = (IDX_01, IDX_10)
    want = {circuits._Q[LEFT.sign]: (DRIVES["Q"], LEFT.phi_q),
            circuits._Q[RIGHT.sign]: (DRIVES["Q"], RIGHT.phi_q),
            circuits._P: (DRIVES["P"], 0.0), circuits._S: (DRIVES["S"], 0.0),
            circuits._SE: (erratum, 0.0)}
    table = circuits._MACROS
    assert list(table) == ["kind", "target", "axis_phi", "control_value"]
    assert sorted(want) == list(range(5))
    for row, (pair, phase) in want.items():
        assert tuple(col[row].item() for col in table.values()) == circuits._macro(pair, phase)
    # the frame admits exactly the macros' gate-matrix rows, at their |axis_phi|
    configs = [circuits._CONFIGS.index((KINDS[k], t, v))
               for k, t, v in zip(table["kind"], table["target"], table["control_value"])]
    admitted = np.flatnonzero(~np.isnan(circuits._FRAME_PHI))
    assert sorted(set(configs)) == admitted.tolist()
    assert (circuits._FRAME_PHI[configs] == np.abs(table["axis_phi"])).all()


def test_compile_protocol_keeps_each_stage_to_its_drives():
    # every slice here holds all three drives: the k Q steps must compile
    # to Q alone and the rest to P then S alone (without the rule, 12 gates)
    d = DiscretizedSchedule(0.1, np.array([1.0, 2, 3, 4]), np.array([5.0, 6, 7, 8]),
                            np.array([9.0, 1, 2, 3]), k=2)
    c = compile_protocol(d, LEFT, "stap")
    assert len(c) == 6
    assert c.metadata["step_bounds"] == [1, 2, 4, 6]
    assert c.angle.tolist() == [0.1, 0.2, 0.7000000000000001, 0.2, 0.8, 0.30000000000000004]
    assert [g.kind for g in c.gates] == ["CROT", "CROT", "XX-YY", "CROT", "XX-YY", "CROT"]


def compile_reference(d, hand, protocol, ps_order, erratum):
    """compile_protocol step by step from the one-step compilers."""
    gates, bounds = [], []
    for i in range(d.m):
        if i < d.k:
            gates += compile_q_step(d.omega_q[i] * d.delta_t, hand)
        for x in (ps_order if i >= d.k else ""):
            gates += (compile_p_step(d.omega_p[i] * d.delta_t) if x == "p"
                      else compile_s_step(d.omega_s[i] * d.delta_t, erratum))
        bounds.append(len(gates))
    return gates, dict(protocol=protocol, handedness=hand.label, n_steps=d.m,
                       delta_t=d.delta_t, k=d.k, ps_order=ps_order,
                       erratum_s_gate=erratum, step_bounds=bounds)


@pytest.mark.parametrize("k", [0, 2, 5])
def test_compile_protocol_matches_step_compilers(k):
    # zero and signed-zero drives emit no gate, in either stage
    d = DiscretizedSchedule(0.1, np.array([1.0, 0.0, 3, -0.0, 4]),
                            np.array([5.0, -6, 0.0, 8, -0.0]),
                            np.array([0.0, 1, 2, -3, 7]), k=k)
    for hand in (LEFT, RIGHT):
        for ps_order in ("ps", "sp"):
            for erratum in (False, True):
                c = compile_protocol(d, hand, "stap", ps_order=ps_order, erratum_s_gate=erratum)
                gates, meta = compile_reference(d, hand, "stap", ps_order, erratum)
                assert repr(list(c.gates)) == repr(gates)      # to the bit
                assert c.metadata == meta


def test_circuits_are_held_to_norm_tol(monkeypatch):
    c = compile_protocol(discretize(default_stap_schedule(), 20), LEFT, "stap")
    trace, final = run_statevector(c, PSI0)
    assert trace.final_state.tobytes() == final.tobytes()
    # one gate block off unitary by 1e-11 in norm, ten times NORM_TOL
    gate_blocks = circuits._gate_blocks

    def scaled(cs):
        u = gate_blocks(cs)
        u[3] *= 1 + 1e-11
        return u

    monkeypatch.setattr(circuits, "_gate_blocks", scaled)
    with pytest.raises(IntegrityError, match="norm drifted"):
        run_statevector(c, PSI0)
    with pytest.raises(IntegrityError, match="norm drifted"):
        circuit_unitary(c)


def test_a_long_run_of_one_angle_keeps_within_its_norm_bound():
    # every RY(1.0) block rounds the same way, so 50,000 of them drift the
    # norm by about 2e-12 (measured): past NORM_TOL, within its share per
    # 10,000 blocks
    n = 50_000
    c = Circuit(kind=np.full(n, CODE["RY"]), target=np.zeros(n), angle=np.ones(n),
                axis_phi=np.zeros(n), control_value=np.ones(n))
    _, psi = run_statevector(c, PSI0)
    np.testing.assert_allclose(psi, [math.cos(n / 2), 0, math.sin(n / 2), 0], rtol=0, atol=1e-9)
    u = circuit_unitary(c)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), rtol=0, atol=1e-10)


@given(protocol=st.sampled_from(["stap", "stirap"]), hand=st.sampled_from([LEFT, RIGHT]),
       ps_order=st.sampled_from(["ps", "sp"]), n=st.integers(2, 400))
@settings(max_examples=40, deadline=None)
def test_circuit_leakage_stays_empty(protocol, hand, ps_order, n):
    # every sub-step is one rotation on its drive's level pair, so |01> is
    # never touched and its population is exactly 0, not merely small
    s = default_stap_schedule() if protocol == "stap" else default_stirap_schedule()
    c = compile_protocol(discretize(s, n), hand, protocol, ps_order=ps_order)
    trace, _ = run_statevector(c, PSI0)
    assert np.all(trace.probs[:, 1] == 0.0)


def test_q_stage_left_right_symmetry():
    s = default_stirap_schedule()
    d = discretize(s, 20)
    finals = {}
    for hand in (LEFT, RIGHT):
        c = compile_protocol(d, hand, "stirap")
        qgates = c.gates[:c.metadata["step_bounds"][d.k - 1]]
        finals[hand.label] = circuit_unitary(Circuit(qgates)) @ PSI0
    np.testing.assert_allclose(np.abs(finals["L"]) ** 2, np.abs(finals["R"]) ** 2,
                               atol=1e-12)
    # relative phase pi on the |10> amplitude
    np.testing.assert_allclose(finals["L"][2], -finals["R"][2], atol=1e-12)


def test_n20_stirap_tracks_oracle():
    s = default_stirap_schedule()
    c = compile_protocol(discretize(s, 20), LEFT, "stirap")
    _, fin = run_statevector(c, PSI0)
    oracle = evolve_piecewise_exact(stirap_generator(s, LEFT), PSI0, 0,
                                    s.duration, 2000)
    assert abs(abs(fin[2]) ** 2 - oracle.final()[2]) <= 0.05


def test_n20_stap_transfer():
    s = default_stap_schedule()
    c = compile_protocol(discretize(s, 20), LEFT, "stap")
    _, fin = run_statevector(c, PSI0)
    assert abs(fin[2]) ** 2 >= 0.95


def test_trotter_halving_ratio_first_order():
    s = default_stap_schedule()
    from chiralgate.hamiltonians import stap_generator
    oracle = evolve_piecewise_exact(stap_generator(s, LEFT), PSI0, 0,
                                    s.duration, 2000)
    errs = {}
    for n in (10, 20, 40, 80):
        c = compile_protocol(discretize(s, n), LEFT, "stap")
        trace, _ = run_statevector(c, PSI0)
        errs[n] = max(np.max(np.abs(trace.probs[i + 1] - oracle.at((i + 1) * s.duration / n)))
                      for i in range(n))
    for n in (10, 20, 40):
        assert 1.6 <= errs[n] / errs[2 * n] <= 2.4


def test_sampling_determinism_and_concentration():
    state = np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2)
    a = sample_measurements(state, 5000, seed=11)
    b = sample_measurements(state, 5000, seed=11)
    assert a == b
    assert sum(a.counts.values()) == 5000
    sigma = math.sqrt(5000 * 0.25)
    assert abs(a.counts["00"] - 2500) < 3 * sigma
    # deterministic state puts every shot on one string
    c = sample_measurements(np.array([0, 0, 1, 0], dtype=complex), 100, seed=0)
    assert c.counts == {"10": 100}
    assert sample_measurements(state, np.int64(5000), seed=11) == a


@pytest.mark.parametrize("shots", [0, 2.5, True, "10", None])
def test_sampling_rejects_a_non_integer_shot_count(shots):
    with pytest.raises(ValueError, match=f"shots must be an integer >= 1, got {shots!r}"):
        sample_measurements(PSI0, shots, seed=0)


@pytest.mark.parametrize("state", [np.zeros(4), [math.nan, 0, 0, 0], [math.inf, 0, 0, 0],
                                   [1e200, 0, 0, 0]])
def test_sampling_rejects_a_state_without_a_finite_norm(state):
    # and leaks no RuntimeWarning on the way (warnings are errors here)
    with pytest.raises(ValueError, match="state must have a finite norm > 0"):
        sample_measurements(np.asarray(state, dtype=complex), 10, seed=0)


@pytest.mark.parametrize("state", [np.ones(3), np.ones(8) / math.sqrt(8),
                                   np.tile(PSI0, (2, 1)), np.complex128(1)])
def test_sampling_rejects_a_state_that_is_not_4_amplitudes(state):
    with pytest.raises(ValueError,
                       match=re.escape(f"state must have shape (4,), got {np.shape(state)}")):
        sample_measurements(state, 10, seed=0)


# a last axis other than 4, and a NaN amplitude, whose norm error compares false
@pytest.mark.parametrize("psi0, message", [
    (np.ones(6) / math.sqrt(6), "4 amplitudes on its last axis, got shape (6,)"),
    (np.ones((2, 2)) / math.sqrt(2), "4 amplitudes on its last axis, got shape (2, 2)"),
    (np.array([math.nan, 0, 0, 0]), "not normalized: norm off by nan"),
    (np.array([PSI0, [math.nan, 0, 0, 0]]), "not normalized: norm off by nan")])
def test_run_statevector_rejects_a_bad_initial_state(psi0, message):
    circuit = compile_protocol(discretize(default_stap_schedule(), 4), LEFT, "stap")
    with pytest.raises(ValueError, match=re.escape(message)):
        run_statevector(circuit, psi0)


def test_measurement_record_validates_total():
    with pytest.raises(ValueError):
        MeasurementRecord(10, {"00": 5}, seed=0)


def test_empty_circuit_is_identity():
    trace, fin = run_statevector(Circuit([]), PSI0)
    np.testing.assert_allclose(fin, PSI0)
    np.testing.assert_allclose(circuit_unitary(Circuit([])), np.eye(4))
