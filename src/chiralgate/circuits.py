"""Gate-level compilation of discretized pulse schedules into two-qubit
circuits, plus statevector execution and sampled measurement.

Qubit 0 is the left bit of every bitstring; statevector index = 2*b0 + b1.
Native gate set is {RX, RY, RZ, X, CX}; the macro kinds CROT, XX-YY, XX+YY
are expanded into natives with algebraically exact identities (verified in
the test suite to 1e-13), so export and simulation agree: a CROT is 8
natives with 2 CX (plus an X pair for control value 0), and XX-+YY =
W^dag Rx_c(angle/2) Ry_t(-+angle/2) W with W = CX Rx_c(pi/2) is 6 natives
with 2 CX.  No rotation by exactly +-0 is emitted.  fuse_stages makes the
Q stage of a compile_protocol circuit one gate by the stage's summed
angle, and its P/S stage the three gates P(c) S(b) P(a) of its exact
SO(3) rotation; the QASM export lowers only that fused circuit, at most
four macros at any N.
A Circuit holds its gates as parallel arrays; Gate is the one-gate view.
Compilation and gate matrices work on whole arrays, lowering gate by gate.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .hamiltonians import DRIVES, IDX_01, IDX_10, coupling
from .propagate import BASIS_LABELS, PopulationTrace, _D, _layout, _propagate_blocks, populations
from .pulses import LEFT, RIGHT, DiscretizedSchedule, Handedness, _is_integer

NATIVE_KINDS = ("RX", "RY", "RZ", "X", "CX")
MACRO_KINDS = ("CROT", "XX-YY", "XX+YY")
KINDS = NATIVE_KINDS + MACRO_KINDS      # Circuit.kind indexes this; from CX on, two qubits
CODE = {kind: code for code, kind in enumerate(KINDS)}
_PS_ORDERS = ("ps", "sp")     # compile_protocol's split orders: pump or Stokes first
_COLUMNS = {"kind": np.int8, "target": np.int8, "angle": float, "axis_phi": float,
            "control_value": np.int8}

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_ONE_QUBIT = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]],
              "P0": [[1, 0], [0, 0]], "P1": [[0, 0], [0, 1]]}
# _ON[name, q]: the one-qubit operator `name` acting on qubit q of the pair
_ON = {(name, q): np.kron(m, _I2) if q == 0 else np.kron(_I2, m)
       for name, m in _ONE_QUBIT.items() for q in (0, 1)}
_CX = {(c, 1 - c): _I4 - _ON["P1", c] + _ON["P1", c] @ _ON["X", 1 - c] for c in (0, 1)}
_ERRATUM_PAIR = (IDX_01, IDX_10)          # {|01>, |10>}: XX+YY's and the erratum S's
# (p, G) of the two-qubit hopping kinds: G = (XX -+ YY)/2 = coupling(pair)
_HOP = {kind: (g @ g, g) for kind, g in (("XX-YY", coupling(DRIVES["P"])),
                                         ("XX+YY", coupling(_ERRATUM_PAIR)))}


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not all(q in (0, 1) for q in self.qubits):
            raise ValueError(f"qubit indices must be 0 or 1, got {self.qubits}")
        want = 2 if self.kind == "CX" or self.kind in MACRO_KINDS else 1
        if len(self.qubits) != want or len(set(self.qubits)) != want:
            raise ValueError(f"{self.kind} needs {want} distinct qubits, got {self.qubits}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")
        if not math.isfinite(self.axis_phi):
            raise ValueError(f"axis_phi must be finite, got {self.axis_phi}")
        if self.control_value not in (0, 1):
            raise ValueError(f"control_value must be 0 or 1, got {self.control_value}")


class Circuit:
    """Gates as parallel arrays, entry j for gate j: `kind` (an index into
    KINDS), `target`, `angle`, `axis_phi` and `control_value`; plus
    free-form `metadata`.  A two-qubit gate's control is 1 - target.

    Circuit(gates) reads the arrays off Gates, the keywords (never both)
    give them all directly; either way Gate's rules check them, with its
    messages, each time a Circuit is built, and they are read-only.
    `gates` views them as Gates.
    """

    def __init__(self, gates: Iterable[Gate] = (), metadata: dict | None = None, *,
                 kind=(), target=(), angle=(), axis_phi=(), control_value=()):
        rows = [(CODE[g.kind], g.qubits[-1], g.angle, g.axis_phi, g.control_value)
                for g in gates]
        if rows and any(np.size(c) for c in (kind, target, angle, axis_phi, control_value)):
            raise ValueError("give a circuit gates or keyword columns, not both")
        # checked as given: the int8 cast would wrap an integer and cut a fraction
        columns = [np.asarray(c) for c in (tuple(zip(*rows)) or
                                           (kind, target, angle, axis_phi, control_value))]
        if {c.shape for c in columns} != {(columns[0].size,)}:
            raise ValueError("circuit arrays must be 1-D and of one length")
        k, t, a, phi, v = columns
        bad = ~((k >= 0) & (k < len(KINDS)) & ((t == 0) | (t == 1))
                & np.isfinite(a) & np.isfinite(phi) & ((v == 0) | (v == 1)))
        if k.dtype.kind == "f":
            bad |= np.trunc(k) != k                     # a code must be whole
        if bad.any():
            _gate(*(c[np.argmax(bad)].item() for c in columns))   # Gate's check raises
        for (name, dtype), values in zip(_COLUMNS.items(), columns):
            setattr(self, name, np.array(values, dtype))
            getattr(self, name).flags.writeable = False
        self.metadata = {} if metadata is None else metadata

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _COLUMNS]

    def __len__(self):
        return len(self.kind)

    @property
    def gates(self) -> Sequence[Gate]:
        return _GateView(self)


def _gate(k, target, angle, axis_phi, control_value) -> Gate:
    """The Gate of one row of circuit columns; a kind code off KINDS stays as given."""
    return Gate(KINDS[int(k)] if k in range(len(KINDS)) else k,
                (1 - target, target) if k >= CODE["CX"] else (target,), angle, axis_phi,
                control_value)


class _GateView(Sequence):
    """A circuit's gates, each Gate built when it is read: len() builds none."""

    def __init__(self, circuit: Circuit):
        self._c = circuit

    def __len__(self):
        return len(self._c)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return _gate(*(a[range(len(self))[i]].item() for a in self._c._columns()))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass(frozen=True)
class MeasurementRecord:
    shots: int
    counts: dict[str, int]
    seed: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")


# Rows of the gate-matrix table: every (kind, target, control_value), the
# control being 1 - target for two-qubit kinds.
_CONFIGS = list(itertools.product(KINDS, (0, 1), (0, 1)))


def _row(circuit: Circuit) -> np.ndarray:
    return (circuit.kind * 2 + circuit.target) * 2 + circuit.control_value


# -- gate matrices -----------------------------------------------------------

# B = 1 - p, p, -i G_X and -i G_Y per row: X and CX have B = the gate, CROT
# G_X = p X and G_Y = p Y on its target, the rest G_X = G
_OPS = np.zeros((len(_CONFIGS), 4, 4, 4), complex)
for _j, (_k, _t, _v) in enumerate(_CONFIGS):
    if _k in ("X", "CX"):
        _OPS[_j, 0] = _ON["X", _t] if _k == "X" else _CX[1 - _t, _t]
    elif _k == "CROT":
        _p = _ON[f"P{_v}", 1 - _t]
        _OPS[_j] = _I4 - _p, _p, -1j * _p @ _ON["X", _t], -1j * _p @ _ON["Y", _t]
    else:
        _p, _g = _HOP[_k] if _k in _HOP else (_I4, _ON[_k[1], _t])
        _OPS[_j, :3] = _I4 - _p, _p, -1j * _g
# Their frame blocks D^dag B D, in the frame D = diag(1, i, 1, i), S on qubit 1
_FRAME_TABLE = (_D.conj()[:, None] * _OPS * _D).reshape(len(_CONFIGS), 4, 16)
# Their real parts.  For the macros _FRAME_PHI admits, the rest is 0 or has
# weight 0 (for Q's cos(phi_Q) = cos(+-pi/2) = 6e-17, which the frame takes as exact)
_REAL_TABLE = _FRAME_TABLE.real.copy()


def _gate_blocks(circuits: Sequence[Circuit], real: bool = True) -> np.ndarray:
    """gate_matrices as 4x4 frame blocks D^dag U D, for circuits laid end to
    end as propagate._layout places them, padded with P(0) gates, whose
    block is exactly the identity: a gate's row of _FRAME_TABLE weighted by
    [1, cos(angle/2), sin(angle/2) cos(phi), sin(angle/2) sin(phi)], phi its
    axis_phi if a CROT, else 0.  With real, when _FRAME_PHI admits every
    gate, these are real, rows of _REAL_TABLE; otherwise complex."""
    _, starts = _layout([len(c) for c in circuits])
    half, phi = np.zeros(starts[-1]), np.zeros(starts[-1])
    row = np.full(starts[-1], _MACRO_ROW[_P], int)
    for c, start in zip(circuits, starts):
        a = slice(start, start + len(c))
        half[a], row[a] = c.angle / 2, _row(c)
        phi[a] = np.where(c.kind == CODE["CROT"], c.axis_phi, 0.0)
    real = real and bool((_FRAME_PHI[row] == np.abs(phi)).all())
    table = _REAL_TABLE if real else _FRAME_TABLE
    coef = np.stack([np.ones_like(half), np.cos(half), np.sin(half) * np.cos(phi),
                     np.sin(half) * np.sin(phi)], axis=1)[:, None]
    out = np.empty((len(row), 1, 16), table.dtype)
    step = 2**13 // table.itemsize          # bounds the gather to 512 KB
    for b in (slice(lo, lo + step) for lo in range(0, len(row), step)):
        np.matmul(coef[b], table[row[b]], out=out[b])
    return out.reshape(-1, 4, 4)


def gate_matrices(circuit: Circuit) -> np.ndarray:
    """The (n, 4, 4) unitaries of a circuit's gates in the 2*b0 + b1 basis
    ordering, in one batch.

    X and CX are fixed matrices.  Every other kind is exp(-i angle/2 G) with
    G^2 = p for a projector p, which is

        exp(-i angle/2 G) = (1 - p) + cos(angle/2) p - i sin(angle/2) G:

    a Pauli with p = I for RX, RY and RZ; for CROT p = |v><v| on the
    control and G = p (cos phi X + sin phi Y) on the target; for XX-YY and
    XX+YY p projects onto the level pair that G = (XX -+ YY)/2 hops.
    """
    # + 0.0 turns the -0.0 parts that the frame's factors +-i leave into +0.0
    return _D[:, None] * _gate_blocks([circuit], real=False) * _D.conj() + 0.0


def gate_matrix(gate: Gate) -> np.ndarray:
    """4x4 unitary of one gate (see gate_matrices)."""
    return gate_matrices(Circuit([gate]))[0]


# -- macro expansion ---------------------------------------------------------

def _lower(kind: int, t: int, v: int, angle: float, phi: float) -> list[tuple]:
    """The natives, as (kind code, target, angle), that a macro gate of
    `kind` on target t (control 1 - t) with control_value v, angle and
    axis_phi phi lowers to.

    CROT: optional X sandwich on the control for conditioning on |0>; the
    rotation about the xy-plane axis at azimuth a is conjugated onto the z
    axis (R_n(t) = Rz(a) Ry(pi/2) Rz(t) Ry(-pi/2) Rz(-a)) and the inner
    controlled-Rz is the exact CX - Rz - CX echo, which works because X
    anticommutes with Z (it would cancel for an Rx echo).  XX-+YY: the
    basis change W = CX Rx_c(pi/2) takes XX to X_c and YY to Y_t, so the
    commuting factors exp(-i angle/4 XX) exp(+-i angle/4 YY) are
    W^dag Rx_c(angle/2) Ry_t(-+angle/2) W, with two CX.
    """
    c, half = 1 - t, math.pi / 2
    rx, ry, rz, cx = CODE["RX"], CODE["RY"], CODE["RZ"], (CODE["CX"], t, 0.0)
    if kind == CODE["CROT"]:
        flip = [(CODE["X"], c, 0.0)] * (1 - v)
        return [*flip, (rz, t, -phi), (ry, t, -half), (rz, t, 0.5 * angle), cx,
                (rz, t, -0.5 * angle), cx, (ry, t, half), (rz, t, phi), *flip]
    yy = -0.5 if kind == CODE["XX-YY"] else 0.5
    return [(rx, c, half), cx, (rx, c, 0.5 * angle), (ry, t, yy * angle), cx, (rx, c, -half)]


def expand_circuit(circuit: Circuit) -> Circuit:
    """Every macro gate replaced by its natives (_lower), natives passed
    through, less the rotations by exactly +-0, which are identities;
    step_bounds recounted in the natives kept."""
    rows, ends = [], [0]                # ends[j]: natives kept before gate j
    for k, t, a, phi, v in zip(*(col.tolist() for col in circuit._columns())):
        lowered = ([(k, t, a, phi, v)] if k < len(NATIVE_KINDS)
                   else [(*native, 0.0, 1) for native in _lower(k, t, v, a, phi)])
        rows += [row for row in lowered if row[2] != 0.0 or row[0] >= CODE["X"]]
        ends.append(len(rows))
    meta = dict(circuit.metadata)
    if "step_bounds" in meta:
        meta["step_bounds"] = [ends[b] for b in meta["step_bounds"]]
    return Circuit(metadata=meta, **dict(zip(_COLUMNS, zip(*rows))))


# -- Trotter-step compilation ------------------------------------------------

def _macro(pair: tuple[int, int], phase: float = 0.0) -> tuple:
    """(kind, target, axis_phi, control_value) of the one macro
    exp(-i theta/2 coupling(pair, phase)): CROT on the one qubit the levels
    differ in, else XX-YY or XX+YY (phase 0 only)."""
    a, b = (divmod(level, 2) for level in pair)     # (b0, b1) of each level
    if a[0] != b[0] and a[1] != b[1]:
        return CODE["XX-YY" if a[0] == a[1] else "XX+YY"], 1, 0.0, 1
    t = int(a[0] == b[0])                           # the qubit that flips
    return CODE["CROT"], t, phase if a[t] else -phase, a[1 - t]


# The five macros compile_protocol emits, one row each: Q of hand L and of
# hand R (row _Q[sign]), P, S and the erratum S (rows _P, _S, _SE); their
# kind, target, axis_phi and control_value as columns, and their _CONFIGS rows
_Q, (_P, _S, _SE) = {LEFT.sign: 0, RIGHT.sign: 1}, (2, 3, 4)
_MACROS = {name: np.array(col, _COLUMNS[name]) for name, col in zip(
    ("kind", "target", "axis_phi", "control_value"),
    zip(_macro(DRIVES["Q"], LEFT.phi_q), _macro(DRIVES["Q"], RIGHT.phi_q),
        _macro(DRIVES["P"]), _macro(DRIVES["S"]), _macro(_ERRATUM_PAIR)))}
_MACRO_ROW = (_MACROS["kind"] * 2 + _MACROS["target"]) * 2 + _MACROS["control_value"]   # _row's
# compile_protocol's rows of a Trotter step (Q, first, second) by (hand sign, ps_order, erratum)
_STEP = {(sign, order, erratum): np.array([q] + [{"p": _P, "s": _SE if erratum else _S}[x]
                                                 for x in order])
         for sign, q in _Q.items() for order in _PS_ORDERS for erratum in (False, True)}


def _rotations(rows, theta) -> dict[str, np.ndarray]:
    """The Circuit columns, as keywords, of gate j = the macro of _MACROS
    row rows[j] by theta[j]; a theta of 0 emits no gate."""
    theta = np.asarray(theta, dtype=float)
    keep = theta != 0.0
    rows = np.asarray(rows)[keep]
    return {name: theta[keep] if name == "angle" else _MACROS[name][rows] for name in _COLUMNS}


def compile_q_step(theta: float, handedness: Handedness) -> list[Gate]:
    """exp(-i H_Q dt), theta = Omega_Q dt: R_y(-+theta) on qubit 0 for
    phi_Q = +-pi/2, conditioned on qubit 1 being |0>."""
    return list(Circuit(**_rotations([_Q[handedness.sign]], [theta])).gates)


def compile_p_step(theta: float) -> list[Gate]:
    """exp(-i theta/2 (|00><11| + |11><00|)): one XX-YY gate."""
    return list(Circuit(**_rotations([_P], [theta])).gates)


def compile_s_step(theta: float, erratum: bool = False) -> list[Gate]:
    """exp(-i theta/2 (|11><10| + |10><11|)): Rx on qubit 1 conditioned on
    qubit 0 being |1>.  erratum=True puts the same rotation on the wrong
    pair, {|01>, |10>}, which leaves |11> alone; kept to demonstrate that."""
    return list(Circuit(**_rotations([_SE if erratum else _S], [theta])).gates)


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
    if ps_order not in _PS_ORDERS:
        raise ValueError(f"ps_order must be one of {_PS_ORDERS}, got {ps_order!r}")
    d = discretized
    omega = {"p": d.omega_p, "s": d.omega_s}
    # one row per Trotter step, (Q, first, second): a Q step drives only Q
    # and a P/S step only the split pair, whatever the schedule holds
    theta = np.zeros((d.m, 3))
    np.multiply(d.omega_q[:d.k], d.delta_t, out=theta[:d.k, 0])
    for j, x in enumerate(ps_order, 1):
        np.multiply(omega[x][d.k:], d.delta_t, out=theta[d.k:, j])
    keep = np.flatnonzero(theta)        # a theta of 0 emits no gate
    meta = dict(protocol=protocol, handedness=handedness.label,
                n_steps=d.m, delta_t=d.delta_t, k=d.k,
                ps_order=ps_order, erratum_s_gate=erratum_s_gate,
                step_bounds=np.searchsorted(keep, np.arange(3, 3 * d.m + 1, 3)).tolist())
    rows = _STEP[handedness.sign, ps_order, bool(erratum_s_gate)][keep % 3]
    return Circuit(metadata=meta, angle=theta.ravel()[keep],
                   **{name: col[rows] for name, col in _MACROS.items()})


def with_handedness(circuit: Circuit, handedness: Handedness) -> Circuit:
    """The circuit with its Q gates (the CROTs on Q's _CONFIGS row) at the
    azimuth of handedness's Q in _MACROS, all that compile_protocol takes
    of the hand; fuse_stages treats Q gates alike at either azimuth, so it
    commutes with it."""
    q_row = _Q[handedness.sign]
    q = _row(circuit) == _MACRO_ROW[q_row]
    columns = dict(zip(_COLUMNS, circuit._columns()),
                   axis_phi=np.where(q, _MACROS["axis_phi"][q_row], circuit.axis_phi))
    return Circuit(metadata={**circuit.metadata, "handedness": handedness.label}, **columns)


# -- stage fusion ------------------------------------------------------------

# at the _CONFIGS row of each of the _MACROS: its |phi| (see _gate_blocks), a real
# rotation in the frame D, else NaN
_FRAME_PHI = np.full(len(_CONFIGS), np.nan)
_FRAME_PHI[_MACRO_ROW] = np.abs(_MACROS["axis_phi"])


def _frame_rotation(is_s: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """The 3x3 real rotation of a run of P and S gates, in circuit order.

    In the frame D = diag(1, i, 1) on (|00>, |11>, |10>) both gates are
    real: P(theta) turns |11> toward |00> by theta/2 and S(theta) turns |11>
    toward |10> by theta/2.  The product runs in blocks of b = isqrt(n)
    gates, each block's product for all blocks at once, then the blocks in
    order: about 2 sqrt(n) steps, whose round-off stays within 1e-13 of a
    long-double product at n = 200,000 gates."""
    n = len(angle)
    b = max(1, math.isqrt(n))
    m = np.zeros((-(-n // b) * b, 3, 3))
    m[:] = np.eye(3)                                # padding: identities
    j, rows = np.where(is_s, 2, 0), np.arange(n)
    m[rows, 1, 1] = m[rows, j, j] = np.cos(angle / 2)
    m[rows, j, 1] = np.sin(angle / 2)
    m[rows, 1, j] = -m[rows, j, 1]
    for k in range(1, b):
        np.matmul(m[k::b], m[k - 1::b], out=m[k::b])
    r = np.eye(3)
    for block in m[b - 1::b]:
        r = block @ r
    return r


def _ps_angles(r: np.ndarray) -> tuple[float, float, float]:
    """(a, b, c) with r = P(a) S(b) P(c) in _frame_rotation's frame.

    With half angles A, B, C, the 2x2 block gives A + C with the weight
    1 + cos B and A - C with the weight 1 - cos B:
        r00 + r11 = (1 + cos B) cos(A + C), r01 - r10 = (1 + cos B) sin(A + C),
        r00 - r11 = (1 - cos B) cos(A - C), r01 + r10 = -(1 - cos B) sin(A - C);
    the last row and column, (r02, r12) = -sin B (sin A, cos A) and
    (r20, r21) = sin B (-sin C, cos C), give both with the weight sin^2 B.
    Each is read where its round-off, relative to how much r depends on
    it, is smallest, which keeps r exact up to round-off even next to a
    gimbal point (sin B -> 0), where one of A +- C is free; reading both
    from the block loses up to 1e-8 there.  Then r22 = cos B and A give B."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    if r22 >= 0.0:
        sigma = math.atan2(r01 - r10, r00 + r11)                          # A + C
        delta = math.atan2(-(r02 * r21 + r12 * r20), r02 * r20 - r12 * r21)   # A - C
    else:
        sigma = math.atan2(r12 * r20 - r02 * r21, -(r12 * r21 + r02 * r20))
        delta = math.atan2(-(r01 + r10), r00 - r11)
    half_a = (sigma + delta) / 2
    half_b = math.atan2(-(math.sin(half_a) * r02 + math.cos(half_a) * r12), r22)
    return sigma + delta, 2 * half_b, sigma - delta


def fuse_stages(circuit: Circuit) -> Circuit:
    """A compile_protocol circuit with each stage fused.  Its Q gates come
    first and share one generator (either hand's Q row of _CONFIGS), so
    they are one Q gate by their summed angle.  The P/S gates after them
    are the gates P(c), S(b), P(a) of the stage's frame rotation
    r = P(a) S(b) P(c) (_ps_angles), which any r in SO(3) has; with the
    erratum S gate, which acts on a pair disjoint from P's, so that the
    two commute, they are one P and one erratum S by their summed angles.
    A fused angle of exactly 0 emits no gate (for b, P(c) P(a) is one P),
    and a stage is replaced only when that leaves fewer gates, so a lone
    Q gate and the one P/S step of N = 2 keep their angles.  The metadata
    drops step_bounds, which index the unfused gates."""
    columns, row = dict(zip(_COLUMNS, circuit._columns())), _row(circuit)
    q = int(np.count_nonzero(row == _MACRO_ROW[_Q[LEFT.sign]]))
    q_sum = np.add.reduceat(columns["angle"][:q], [0] if q else [])
    keep = q_sum != 0.0                 # the first Q gate, by the sum if not 0
    fused_q = {name: col[:len(q_sum)][keep] for name, col in columns.items()}
    fused_q["angle"] = q_sum[keep]
    ps_row, ps_angle = row[q:], columns["angle"][q:]
    if (ps_row == _MACRO_ROW[_SE]).any():
        rows = [_P, _SE]
        theta = [math.fsum(ps_angle[ps_row == _MACRO_ROW[r]]) for r in rows]
    else:
        a, b, c = _ps_angles(_frame_rotation(ps_row == _MACRO_ROW[_S], ps_angle))
        rows, theta = ([_P], [a + c]) if b == 0.0 else ([_P, _S, _P], [c, b, a])
    stages = [fused if len(fused["angle"]) < hi - lo
              else {name: col[lo:hi] for name, col in columns.items()}
              for fused, lo, hi in ((fused_q, 0, q), (_rotations(rows, theta), q, len(row)))]
    meta = {key: value for key, value in circuit.metadata.items() if key != "step_bounds"}
    return Circuit(metadata=meta, **{name: np.concatenate([stage[name] for stage in stages])
                                     for name in _COLUMNS})


# -- execution ---------------------------------------------------------------

def run_statevector(circuit: Circuit, psi0: np.ndarray):
    """Apply the circuit to psi0; returns (per-step population trace, final
    statevector).  Populations are recorded at Trotter-step boundaries when
    the circuit has them in metadata, else after every gate.
    """
    trace = run_statevectors([circuit], psi0)[0]
    return trace, trace.final_state


def run_statevectors(circuits: Sequence[Circuit], psi0: np.ndarray) -> list[PopulationTrace]:
    """The population trace of each circuit, with its final statevector as
    final_state (see run_statevector), all in one product pass."""
    lengths = [len(c) for c in circuits]
    out = []
    for c, x in zip(circuits, _propagate_blocks(_gate_blocks(circuits), lengths, psi0)):
        bounds = c.metadata.get("step_bounds")
        at = x if bounds is None else x[[0, *bounds]]
        times = c.metadata.get("delta_t", 1.0) * np.arange(len(at))
        out.append(PopulationTrace(times, populations(at), c.metadata.get("handedness", ""),
                                   x[-1] * _D))
    return out


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's 4x4 unitary: propagating the states D e_j, whose frame
    amplitudes are the real e_j, as a stack, final state j is d_j U e_j."""
    u = run_statevectors([circuit], np.diag(_D))[0].final_state.T * _D.conj()
    defect = np.max(np.abs(u @ u.conj().T - np.eye(4)))
    if not defect <= 1e-10:
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
    if not (_is_integer(shots) and shots >= 1):
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    state = np.asarray(state)
    if state.shape != (4,):
        raise ValueError(f"state must have shape (4,), got {state.shape}")
    with np.errstate(over="ignore"):                # a huge amplitude: norm inf
        p = np.abs(state) ** 2
        norm = p.sum()
    if not 0.0 < norm < math.inf:
        raise ValueError(f"state must have a finite norm > 0, got squared norm {norm}")
    draws = np.random.default_rng(seed).multinomial(shots, p / norm)
    counts = {BASIS_LABELS[i]: int(draws[i]) for i in range(4) if draws[i] > 0}
    return MeasurementRecord(shots, counts, seed)
