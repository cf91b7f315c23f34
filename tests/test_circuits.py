import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chiralgate.circuits import (Circuit, Gate, MeasurementRecord,
                                 circuit_unitary, compile_p_step,
                                 compile_protocol, compile_q_step,
                                 compile_s_step, expand_circuit, gate_matrix,
                                 phase_aligned_distance, run_statevector,
                                 sample_measurements)
from chiralgate.hamiltonians import build_h_ps, build_h_q
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
        Gate("RX", (0, 1))
    with pytest.raises(ValueError):
        Gate("RX", (0,), angle=math.nan)
    with pytest.raises(ValueError):
        Gate("CROT", (0, 1), 1.0, control_value=2)


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
    assert phase_aligned_distance(u_native, u_macro) < 1e-10
    if kind == "CROT":
        axis = math.cos(axis_phi) * PAULI["X"] + math.sin(axis_phi) * PAULI["Y"]
        gen = _on({ctrl: np.diag([1.0 - cv, cv]), 1 - ctrl: axis})
    else:   # (XX -+ YY)/2
        sign = -1.0 if kind == "XX-YY" else 1.0
        gen = 0.5 * (_on({0: PAULI["X"], 1: PAULI["X"]})
                     + sign * _on({0: PAULI["Y"], 1: PAULI["Y"]}))
    np.testing.assert_allclose(u_macro, expm(-0.5j * theta * gen), rtol=0, atol=1e-12)


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


def test_compile_protocol_structure():
    s = default_stirap_schedule()
    d = discretize(s, 20)
    c = compile_protocol(d, LEFT, "stirap")
    assert c.metadata["n_steps"] == 20
    assert c.metadata["k"] == d.k
    assert len(c.metadata["step_bounds"]) == 20
    assert c.metadata["step_bounds"][-1] == len(c.gates)
    with pytest.raises(ValueError):
        compile_protocol(d, LEFT, "stirap", ps_order="nope")


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


def test_measurement_record_validates_total():
    with pytest.raises(ValueError):
        MeasurementRecord(10, {"00": 5}, seed=0)


def test_empty_circuit_is_identity():
    trace, fin = run_statevector(Circuit([]), PSI0)
    np.testing.assert_allclose(fin, PSI0)
    np.testing.assert_allclose(circuit_unitary(Circuit([])), np.eye(4))
