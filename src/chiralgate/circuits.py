"""Gate-level compilation of discretized pulse schedules into two-qubit
circuits, plus statevector execution and sampled measurement.

Qubit 0 is the left bit of every bitstring; statevector index = 2*b0 + b1.
Native gate set is {RX, RY, RZ, X, CX}; the macro kinds CROT, RXX, RYY are
expanded into natives with algebraically exact identities (verified in the
test suite to 1e-10), so export and simulation agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrityError
from .propagate import PopulationTrace, populations
from .pulses import DiscretizedSchedule, Handedness

NATIVE_KINDS = ("RX", "RY", "RZ", "X", "CX")
MACRO_KINDS = ("CROT", "RXX", "RYY")

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_ONE_QUBIT = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]],
              "P0": [[1, 0], [0, 0]], "P1": [[0, 0], [0, 1]]}
# _ON[name, q]: the one-qubit operator `name` acting on qubit q of the pair
_ON = {(name, q): np.kron(m, _I2) if q == 0 else np.kron(_I2, m)
       for name, m in _ONE_QUBIT.items() for q in (0, 1)}
_CX = {(c, 1 - c): _I4 - _ON["P1", c] + _ON["P1", c] @ _ON["X", 1 - c] for c in (0, 1)}
for _m in (_I4, *_ON.values(), *_CX.values()):
    _m.flags.writeable = False   # gate_matrix hands these out as they are


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    `qubits` is (target,) for single-qubit kinds and (control, target) for
    CX and CROT.  `axis_phi` is the azimuth of the rotation axis in the xy
    plane (CROT only); `control_value` selects conditioning on |0> or |1>.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0
    axis_phi: float = 0.0
    control_value: int = 1

    def __post_init__(self):
        if self.kind not in NATIVE_KINDS + MACRO_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not all(q in (0, 1) for q in self.qubits):
            raise ValueError(f"qubit indices must be 0 or 1, got {self.qubits}")
        want = 2 if self.kind == "CX" or self.kind in MACRO_KINDS else 1
        if len(self.qubits) != want or len(set(self.qubits)) != want:
            raise ValueError(f"{self.kind} needs {want} distinct qubits, got {self.qubits}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")
        if self.control_value not in (0, 1):
            raise ValueError(f"control_value must be 0 or 1, got {self.control_value}")


@dataclass
class Circuit:
    gates: list[Gate] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.gates)


@dataclass(frozen=True)
class MeasurementRecord:
    shots: int
    counts: dict[str, int]
    seed: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")


def gate_matrix(gate: Gate) -> np.ndarray:
    """4x4 unitary of a single gate in the 2*b0 + b1 basis ordering.

    X and CX are fixed matrices.  Every other kind is exp(-i angle/2 G) with
    G^2 = p for a projector p, which is

        exp(-i angle/2 G) = (1 - p) + cos(angle/2) p - i sin(angle/2) G:

    a Pauli or Pauli pair with p = I for RX, RY, RZ, RXX and RYY, and for
    CROT p = |v><v| on the control and G = p (cos phi X + sin phi Y) on the
    target.
    """
    k, q = gate.kind, gate.qubits
    if k == "X":
        return _ON["X", q[0]]
    if k == "CX":
        return _CX[q]
    p = _I4
    if k == "CROT":
        p = _ON[f"P{gate.control_value}", q[0]]
        g = p @ (math.cos(gate.axis_phi) * _ON["X", q[1]]
                 + math.sin(gate.axis_phi) * _ON["Y", q[1]])
    elif k in MACRO_KINDS:   # RXX, RYY
        g = _ON[k[1], 0] @ _ON[k[1], 1]
    else:
        g = _ON[k[1], q[0]]
    half = gate.angle / 2
    return _I4 - p + math.cos(half) * p - 1j * math.sin(half) * g


# -- macro expansion ---------------------------------------------------------

def expand_gate(gate: Gate) -> list[Gate]:
    """Rewrite a macro gate as natives; native gates pass through unchanged.

    CROT: optional X sandwich on the control for conditioning on |0>; the
    rotation about the xy-plane axis at azimuth a is conjugated onto the z
    axis (R_n(t) = Rz(a) Ry(pi/2) Rz(t) Ry(-pi/2) Rz(-a)) and the inner
    controlled-Rz is the exact CX - Rz - CX echo, which works because X
    anticommutes with Z (it would cancel for an Rx echo).  RXX/RYY:
    basis-change conjugation of the same echo realization of
    exp(-i angle ZZ/2).
    """
    k = gate.kind
    if k in NATIVE_KINDS:
        return [gate]
    out: list[Gate] = []
    if k == "CROT":
        control, target = gate.qubits
        half = math.pi / 2
        if gate.control_value == 0:
            out.append(Gate("X", (control,)))
        out.append(Gate("RZ", (target,), -gate.axis_phi))
        out.append(Gate("RY", (target,), -half))
        out.append(Gate("RZ", (target,), gate.angle / 2))
        out.append(Gate("CX", (control, target)))
        out.append(Gate("RZ", (target,), -gate.angle / 2))
        out.append(Gate("CX", (control, target)))
        out.append(Gate("RY", (target,), half))
        out.append(Gate("RZ", (target,), gate.axis_phi))
        if gate.control_value == 0:
            out.append(Gate("X", (control,)))
        return out
    q0, q1 = gate.qubits
    if k == "RXX":
        pre, post = ("RY", -math.pi / 2), ("RY", math.pi / 2)
    else:  # RYY
        pre, post = ("RX", math.pi / 2), ("RX", -math.pi / 2)
    out.append(Gate(pre[0], (q0,), pre[1]))
    out.append(Gate(pre[0], (q1,), pre[1]))
    out.append(Gate("CX", (q0, q1)))
    out.append(Gate("RZ", (q1,), gate.angle))
    out.append(Gate("CX", (q0, q1)))
    out.append(Gate(post[0], (q0,), post[1]))
    out.append(Gate(post[0], (q1,), post[1]))
    return out


def expand_circuit(circuit: Circuit) -> Circuit:
    gates: list[Gate] = []
    ends = [0]  # ends[j]: native gate count after the first j macro gates
    for gate in circuit.gates:
        gates.extend(expand_gate(gate))
        ends.append(len(gates))
    meta = dict(circuit.metadata)
    if "step_bounds" in meta:
        meta["step_bounds"] = [ends[b] for b in meta["step_bounds"]]
    return Circuit(gates, meta)


# -- Trotter-step compilation ------------------------------------------------

def compile_q_step(theta: float, handedness: Handedness) -> list[Gate]:
    """Zero-controlled rotation on qubit 0 realizing exp(-i H_Q dt).

    The coupling (Omega/2)(e^{i phi} |00><10| + h.c.) generates, on the
    qubit-0 block with qubit 1 at |0>, a rotation by theta = Omega*dt about
    the xy-plane axis at azimuth -phi; for phi = +-pi/2 this is R_y(-+theta).
    """
    if theta == 0.0:
        return []
    return [Gate("CROT", (1, 0), theta, axis_phi=-handedness.phi_q,
                 control_value=0)]


def compile_p_step(theta: float) -> list[Gate]:
    """exp(-i theta/2 (|00><11| + |11><00|)) as commuting RXX/RYY halves."""
    if theta == 0.0:
        return []
    return [Gate("RXX", (0, 1), theta / 2), Gate("RYY", (0, 1), -theta / 2)]


def compile_s_step(theta: float, erratum: bool = False) -> list[Gate]:
    """exp(-i theta/2 (|11><10| + |10><11|)): Rx on qubit 1 conditioned on
    qubit 0 being |1>.

    With erratum=True, emits the RXX.RYY construction that acts on the
    {|01>, |10>} block instead: exp(-i theta/4 (XX + YY)) is a hopping term
    between the odd-parity states and leaves |11> invariant, so it does not
    realize the Stokes coupling.  Kept for demonstrating that discrepancy.
    """
    if theta == 0.0:
        return []
    if erratum:
        return [Gate("RXX", (0, 1), theta / 2), Gate("RYY", (0, 1), theta / 2)]
    return [Gate("CROT", (0, 1), theta, axis_phi=0.0, control_value=1)]


def compile_protocol(
    discretized: DiscretizedSchedule,
    handedness: Handedness,
    protocol: str,
    ps_order: str = "ps",
    erratum_s_gate: bool = False,
) -> Circuit:
    """k Q-steps then m-k P/S steps, each P/S step a first-order Lie split.

    `ps_order` selects the intra-step split order ("ps": pump sub-term first,
    "sp": Stokes first) for measuring splitting-order sensitivity.
    metadata["step_bounds"][i] is the gate count after Trotter step i.
    """
    if ps_order not in ("ps", "sp"):
        raise ValueError(f"ps_order must be 'ps' or 'sp', got {ps_order!r}")
    gates: list[Gate] = []
    bounds: list[int] = []
    dt = discretized.delta_t
    for i in range(discretized.m):
        if i < discretized.k:
            gates.extend(compile_q_step(discretized.omega_q[i] * dt, handedness))
        else:
            p = compile_p_step(discretized.omega_p[i] * dt)
            s = compile_s_step(discretized.omega_s[i] * dt, erratum_s_gate)
            gates.extend(p + s if ps_order == "ps" else s + p)
        bounds.append(len(gates))
    meta = dict(protocol=protocol, handedness=handedness.label,
                n_steps=discretized.m, delta_t=dt, k=discretized.k,
                ps_order=ps_order, erratum_s_gate=erratum_s_gate,
                step_bounds=bounds, gate_count=len(gates))
    return Circuit(gates, meta)


# -- execution ---------------------------------------------------------------

def run_statevector(circuit: Circuit, psi0: np.ndarray):
    """Apply the circuit to psi0; returns (per-step population trace, final
    statevector).  Populations are recorded at Trotter-step boundaries when
    the circuit has them in metadata, else after every gate.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state is not normalized")
    states = [psi]
    for gate in circuit.gates:
        psi = gate_matrix(gate) @ psi
        states.append(psi)
    bounds = circuit.metadata.get("step_bounds")
    probs = populations(np.array(states if bounds is None
                                 else [states[b] for b in [0, *bounds]]))
    norm_err = abs(np.linalg.norm(psi) - 1.0)
    if not norm_err <= 1e-10:
        raise IntegrityError(f"circuit execution norm drift {norm_err:.3g}")
    times = circuit.metadata.get("delta_t", 1.0) * np.arange(len(probs))
    return PopulationTrace(times, probs,
                           circuit.metadata.get("handedness", "")), psi


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    for gate in circuit.gates:
        u = gate_matrix(gate) @ u
    defect = np.max(np.abs(u @ u.conj().T - np.eye(4)))
    if defect > 1e-10:
        raise IntegrityError(f"compiled unitary defect {defect:.3g}")
    return u


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Spectral-norm distance between u and v after removing global phase,
    aligned on v's largest-magnitude entry."""
    i, j = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = (u[i, j] / v[i, j]) if v[i, j] != 0 else 1.0
    phase = phase / abs(phase) if phase != 0 else 1.0
    return float(np.linalg.norm(u - phase * v, ord=2))


def sample_measurements(state: np.ndarray, shots: int, seed: int) -> MeasurementRecord:
    """Multinomial draw from |amplitude|^2; deterministic for a given seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.abs(np.asarray(state)) ** 2
    p = p / p.sum()
    draws = np.random.default_rng(seed).multinomial(shots, p)
    labels = ("00", "01", "10", "11")
    counts = {labels[i]: int(draws[i]) for i in range(4) if draws[i] > 0}
    return MeasurementRecord(shots, counts, seed)
