"""Gate-level compilation of discretized pulse schedules into two-qubit
circuits, plus statevector execution and sampled measurement.

Qubit 0 is the left bit of every bitstring; statevector index = 2*b0 + b1.
Native gate set is {RX, RY, RZ, X, CX}; the macro kinds CROT, XX-YY, XX+YY
are expanded into natives with algebraically exact identities (verified in
the test suite to 1e-10), so export and simulation agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrityError
from .hamiltonians import DRIVES, IDX_01, IDX_10, coupling
from .propagate import BASIS_LABELS, PopulationTrace, populations, propagate
from .pulses import DiscretizedSchedule, Handedness

NATIVE_KINDS = ("RX", "RY", "RZ", "X", "CX")
MACRO_KINDS = ("CROT", "XX-YY", "XX+YY")

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_ONE_QUBIT = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]],
              "P0": [[1, 0], [0, 0]], "P1": [[0, 0], [0, 1]]}
# _ON[name, q]: the one-qubit operator `name` acting on qubit q of the pair
_ON = {(name, q): np.kron(m, _I2) if q == 0 else np.kron(_I2, m)
       for name, m in _ONE_QUBIT.items() for q in (0, 1)}
_CX = {(c, 1 - c): _I4 - _ON["P1", c] + _ON["P1", c] @ _ON["X", 1 - c] for c in (0, 1)}
# (p, G) of the two-qubit hopping kinds: G = (XX -+ YY)/2 = coupling(pair)
_HOP = {kind: (g @ g, g) for kind, g in (("XX-YY", coupling(DRIVES["P"])),
                                         ("XX+YY", coupling((IDX_01, IDX_10))))}
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

    a Pauli with p = I for RX, RY and RZ; for CROT p = |v><v| on the
    control and G = p (cos phi X + sin phi Y) on the target; for XX-YY and
    XX+YY p projects onto the level pair that G = (XX -+ YY)/2 hops.
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
    elif k in _HOP:
        p, g = _HOP[k]
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
    anticommutes with Z (it would cancel for an Rx echo).  XX-+YY: the
    commuting factors exp(-i angle/4 XX) exp(+-i angle/4 YY), each a basis
    change of the same echo realization of exp(-i a ZZ/2).
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
    yy = -gate.angle / 2 if k == "XX-YY" else gate.angle / 2
    for basis, turn, a in (("RY", -math.pi / 2, gate.angle / 2), ("RX", math.pi / 2, yy)):
        out.append(Gate(basis, (q0,), turn))
        out.append(Gate(basis, (q1,), turn))
        out.append(Gate("CX", (q0, q1)))
        out.append(Gate("RZ", (q1,), a))
        out.append(Gate("CX", (q0, q1)))
        out.append(Gate(basis, (q0,), -turn))
        out.append(Gate(basis, (q1,), -turn))
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

def _rotation(pair: tuple[int, int], theta: float, phase: float = 0.0) -> list[Gate]:
    """exp(-i theta/2 coupling(pair, phase)) as one macro ([] for theta = 0): CROT
    on the one qubit the levels differ in, else XX-YY or XX+YY (phase 0 only)."""
    if theta == 0.0:
        return []
    a, b = (divmod(level, 2) for level in pair)     # (b0, b1) of each level
    if a[0] != b[0] and a[1] != b[1]:
        return [Gate("XX-YY" if a[0] == a[1] else "XX+YY", (0, 1), theta)]
    t = int(a[0] == b[0])                           # the qubit that flips
    return [Gate("CROT", (1 - t, t), theta, axis_phi=phase if a[t] else -phase,
                 control_value=a[1 - t])]


def compile_q_step(theta: float, handedness: Handedness) -> list[Gate]:
    """exp(-i H_Q dt), theta = Omega_Q dt: R_y(-+theta) on qubit 0 for
    phi_Q = +-pi/2, conditioned on qubit 1 being |0>."""
    return _rotation(DRIVES["Q"], theta, handedness.phi_q)


def compile_p_step(theta: float) -> list[Gate]:
    """exp(-i theta/2 (|00><11| + |11><00|)): one XX-YY gate."""
    return _rotation(DRIVES["P"], theta)


def compile_s_step(theta: float, erratum: bool = False) -> list[Gate]:
    """exp(-i theta/2 (|11><10| + |10><11|)): Rx on qubit 1 conditioned on
    qubit 0 being |1>.  erratum=True puts the same rotation on the wrong
    pair, {|01>, |10>}, which leaves |11> alone; kept to demonstrate that."""
    return _rotation((IDX_01, IDX_10) if erratum else DRIVES["S"], theta)


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
                step_bounds=bounds)
    return Circuit(gates, meta)


# -- execution ---------------------------------------------------------------

def run_statevector(circuit: Circuit, psi0: np.ndarray):
    """Apply the circuit to psi0; returns (per-step population trace, final
    statevector).  Populations are recorded at Trotter-step boundaries when
    the circuit has them in metadata, else after every gate.
    """
    states = propagate((gate_matrix(g) for g in circuit.gates), psi0, tol=1e-10)
    bounds = circuit.metadata.get("step_bounds")
    probs = populations(states if bounds is None else states[[0, *bounds]])
    times = circuit.metadata.get("delta_t", 1.0) * np.arange(len(probs))
    return PopulationTrace(times, probs,
                           circuit.metadata.get("handedness", "")), states[-1]


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
    counts = {BASIS_LABELS[i]: int(draws[i]) for i in range(4) if draws[i] > 0}
    return MeasurementRecord(shots, counts, seed)
