"""4x4 interaction-picture generators, adiabatic/dressed frames, and the
analytic final-state prediction for the R enantiomer.

Basis ordering everywhere: index 0..3 = |00>, |01>, |10>, |11>, with the
left bit belonging to qubit 0.  The three driven levels are |00> (ground),
|11> (intermediate), |10> (target); |01> is the leakage state and all
generators built here annihilate it.  Couplings carry the global Omega/2
convention, so the bright-state eigenvalues sit at +-Omega/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameTrackingError
from .pulses import (
    Handedness,
    StapSchedule,
    StirapSchedule,
    eval_ps,
    eval_q,
    gauss_legendre,
    ps_values,
    stap_angles,
    stap_corrected_pulses,
    stap_dressed_splitting,
    total_rabi,
)

IDX_00, IDX_01, IDX_10, IDX_11 = 0, 1, 2, 3
# 3-level subspace in basis order (ground, intermediate, target)
SUBSPACE = (IDX_00, IDX_11, IDX_10)
# The level pair each drive couples, for the oracle and the circuit alike
DRIVES = {"Q": (IDX_00, IDX_10), "P": (IDX_00, IDX_11), "S": (IDX_11, IDX_10)}


def coupling(pair: tuple[int, int], phase: float = 0.0) -> np.ndarray:
    """e^{i phase} |a><b| + h.c. for pair = (a, b): it squares to the pair's projector."""
    a, b = pair
    g = np.zeros((4, 4), dtype=complex)
    g[a, b] = np.exp(1j * phase)
    g[b, a] = np.conj(g[a, b])
    return g


# The builders below take amplitude arrays of one shape and return a stack of
# shape amplitude.shape + (4, 4); a plain float gives one 4x4 matrix.

def _drive_sum(omegas, couplings) -> np.ndarray:
    """sum_k (omegas[k]/2) couplings[k] as one product: no stack per drive."""
    return np.tensordot(0.5 * np.stack(np.broadcast_arrays(*omegas), axis=-1),
                        np.stack(couplings), 1)


def build_h_q(omega_q, handedness: Handedness) -> np.ndarray:
    """Chirality-signed Q drive: (Omega_Q/2) coupling(DRIVES["Q"], phi_Q)."""
    if np.any(np.asarray(omega_q) < 0):
        raise ValueError(f"omega_q must be >= 0, got {np.min(omega_q)}")
    return _drive_sum([omega_q], [coupling(DRIVES["Q"], handedness.phi_q)])


def build_h_ps(omega_p, omega_s) -> np.ndarray:
    """Real pump and Stokes drives, the chirality lives in the Q phase alone;
    amplitudes may be negative (phase-flipped effective STAP drives)."""
    return _drive_sum([omega_p, omega_s], [coupling(DRIVES["P"]), coupling(DRIVES["S"])])


def build_h_stap(p_eff, s_eff) -> np.ndarray:
    """Generator for the corrected drives; same sparsity as build_h_ps."""
    if not (np.all(np.isfinite(p_eff)) and np.all(np.isfinite(s_eff))):
        raise ValueError("effective amplitudes must be finite")
    return build_h_ps(p_eff, s_eff)


def dark_state(alpha1: float) -> np.ndarray:
    """cos(alpha1)|00> - sin(alpha1)|10>: the zero-eigenvalue null vector."""
    v = np.zeros(4, dtype=complex)
    v[IDX_00] = math.cos(alpha1)
    v[IDX_10] = -math.sin(alpha1)
    return v


def bright_states(alpha1: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized +-Omega/2 eigenvectors of build_h_ps at mixing angle alpha1."""
    plus = np.zeros(4, dtype=complex)
    minus = np.zeros(4, dtype=complex)
    inv = 1.0 / math.sqrt(2.0)
    g = inv * math.sin(alpha1)
    t = inv * math.cos(alpha1)
    plus[IDX_00], plus[IDX_11], plus[IDX_10] = g, inv, t
    minus[IDX_00], minus[IDX_11], minus[IDX_10] = g, -inv, t
    return plus, minus


@dataclass(frozen=True)
class DressedFrame:
    """Orthonormal triple (phi0, phi_plus, phi_minus) on the 3-level subspace."""

    phi0: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray

    def completeness(self) -> np.ndarray:
        total = np.zeros((4, 4), dtype=complex)
        for v in (self.phi0, self.phi_plus, self.phi_minus):
            total += np.outer(v, v.conj())
        return total


def dressed_states(alpha1: float, alpha2: float) -> DressedFrame:
    """Counteradiabatic basis: phi0 = cos(a2) * dark + i sin(a2) |11>,
    with phi_pm completing the frame so phi+ <-> phi- stay uncoupled.

    At alpha2 = 0 this reduces to the adiabatic dark/bright frame."""
    c1, s1 = math.cos(alpha1), math.sin(alpha1)
    c2, s2 = math.cos(alpha2), math.sin(alpha2)

    d = np.zeros(4, dtype=complex)   # dark direction
    b = np.zeros(4, dtype=complex)   # bright direction
    e = np.zeros(4, dtype=complex)   # intermediate level
    d[IDX_00], d[IDX_10] = c1, -s1
    b[IDX_00], b[IDX_10] = s1, c1
    e[IDX_11] = 1.0

    phi0 = c2 * d + 1j * s2 * e
    chi = 1j * s2 * d + c2 * e
    inv = 1.0 / math.sqrt(2.0)
    frame = DressedFrame(phi0, inv * (b + chi), inv * (b - chi))
    gram = np.array([
        [np.vdot(u, v) for v in (frame.phi0, frame.phi_plus, frame.phi_minus)]
        for u in (frame.phi0, frame.phi_plus, frame.phi_minus)
    ])
    assert np.allclose(gram, np.eye(3), atol=1e-12), "dressed frame lost orthonormality"
    return frame


# -- adiabatic-frame transformation ------------------------------------------

def _eigenframe(h4: np.ndarray) -> np.ndarray:
    """Columns = (gamma_-, gamma_0, gamma_+) of the 3-level block, eigenvalue
    ascending, each column's largest component made real positive."""
    sub = h4[np.ix_(SUBSPACE, SUBSPACE)]
    vals, vecs = np.linalg.eigh(sub)
    for j in range(3):
        pivot = np.argmax(np.abs(vecs[:, j]))
        phase = vecs[pivot, j] / abs(vecs[pivot, j])
        vecs[:, j] = vecs[:, j] / phase
    return vecs


def _match_frame(ref: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Align eigenvector phases of `other` to `ref` by maximal overlap."""
    out = other.copy()
    for j in range(3):
        ov = np.vdot(ref[:, j], out[:, j])
        if abs(ov) < 0.5:
            raise FrameTrackingError(
                f"eigenframe overlap collapsed to {abs(ov):.3g}; level crossing?"
            )
        out[:, j] = out[:, j] * (ov.conjugate() / abs(ov))
    return out


def adiabatic_frame_couplings(schedule: StirapSchedule, t: float,
                              h_step: float | None = None) -> tuple[float, float]:
    """(gap, dark<->bright coupling magnitude) of the adiabatic-frame
    generator H_I = U0 H U0^dag - i U0 dU0^dag/dt at time t.

    U0 is assembled from the instantaneous eigenvectors of the P/S
    Hamiltonian; the frame derivative is a central finite difference with
    phase continuity enforced by maximal-overlap matching.  The coupling
    magnitude equals |alpha1_dot| / sqrt(2)."""
    omega_p, omega_s = eval_ps(schedule, t)
    omega = total_rabi(omega_p, omega_s)
    if omega <= 0.0:
        raise ValueError(f"total Rabi frequency vanishes at t={t}")
    if h_step is None:
        h_step = 1e-5 * schedule.duration

    w0 = _eigenframe(build_h_ps(omega_p, omega_s))
    wm = _match_frame(w0, _eigenframe(build_h_ps(*eval_ps(schedule, t - h_step))))
    wp = _match_frame(w0, _eigenframe(build_h_ps(*eval_ps(schedule, t + h_step))))
    dw = (wp - wm) / (2.0 * h_step)

    sub = build_h_ps(omega_p, omega_s)[np.ix_(SUBSPACE, SUBSPACE)]
    u0 = w0.conj().T
    h_frame = u0 @ sub @ w0 - 1j * (u0 @ dw)
    # columns ordered by ascending eigenvalue: (-, 0, +); dark is column 1
    gap = float(h_frame[2, 2].real - h_frame[1, 1].real)
    coupling = float(abs(h_frame[2, 1]))
    return gap, coupling


# -- STAP dressed-frame couplings --------------------------------------------

def lambda_pm(schedule: StapSchedule, t: float,
              effective: tuple[float, float] | None = None) -> tuple[complex, complex]:
    """Dressed-frame couplings lambda_pm between phi0 and phi_pm.

    `effective` overrides the drive amplitudes (Omega_P_eff, Omega_S_eff);
    by default the schedule's designed corrected pulses are used, for which
    both couplings vanish identically.  Normalized so that with zero drive
    and alpha2 = 0 the magnitude is |alpha1_dot| (the bare STIRAP
    nonadiabatic coupling)."""
    path = schedule.path
    a1, da1, a2, da2 = stap_angles(path, t)
    if effective is None:
        effective = stap_corrected_pulses(path, t)
    a_p, b_s = effective
    c1, s1 = math.cos(a1), math.sin(a1)
    c2, s2 = math.cos(a2), math.sin(a2)

    x_g = 0.5 * a_p * s2 + da2 * s2 * c1 + da1 * c2 * s1
    x_e = 0.5 * (a_p * c1 - b_s * s1) * c2 + da2 * c2
    x_t = 0.5 * b_s * s2 + da1 * c2 * c1 - da2 * s2 * s1

    imag = s1 * x_g + c1 * x_t
    real = s2 * c1 * x_g + c2 * x_e - s2 * s1 * x_t
    return complex(real, imag), complex(-real, imag)


# -- final-state predictions -------------------------------------------------

PREDICT_PANELS = 32  # Gauss-Legendre panels over the P/S stage


def predict_r_final(schedule: StirapSchedule | StapSchedule) -> np.ndarray:
    """Analytic final state of the R enantiomer, cos(rho)|00> + sin(rho)|11>.

    The R superposition is orthogonal to the transfer path and splits over
    the two split-off frame states, accumulating opposite dynamic phases:
    rho = (1/2) int Omega dt for STIRAP, rho = (1/2) int Upsilon dt for STAP
    (composite Gauss-Legendre quadrature over the P/S stage)."""
    if isinstance(schedule, StirapSchedule):
        splitting = lambda t: total_rabi(*eval_ps(schedule, t))
    else:
        splitting = lambda t: stap_dressed_splitting(schedule.path, t)
    area = gauss_legendre(splitting, schedule.t_split, schedule.duration,
                          PREDICT_PANELS)
    rho = 0.5 * float(area)
    v = np.zeros(4, dtype=complex)
    v[IDX_00] = math.cos(rho)
    v[IDX_11] = math.sin(rho)
    return v


# -- time-dependent generators for the propagator ---------------------------
#
# A generator maps an array of times to a stack of 4x4 Hermitian matrices of
# shape t.shape + (4, 4) (one 4x4 matrix for a plain float), each with the
# spectrum {0, +-w} that evolve_piecewise_exact relies on.

def _two_stage_generator(schedule: StirapSchedule | StapSchedule,
                         handedness: Handedness):
    def gen(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        q_stage = t < schedule.t_split
        h = np.empty(t.shape + (4, 4), dtype=complex)
        # an empty stage is skipped: RK4 calls with one time per stage
        if q_stage.any():
            h[q_stage] = build_h_q(eval_q(schedule, t[q_stage]), handedness)
        if not q_stage.all():
            h[~q_stage] = build_h_stap(*ps_values(schedule, t[~q_stage]))
        return h
    return gen


def stirap_generator(schedule: StirapSchedule, handedness: Handedness):
    """t -> H(t) for the full STIRAP protocol on [0, t_f]."""
    return _two_stage_generator(schedule, handedness)


def stap_generator(schedule: StapSchedule, handedness: Handedness):
    """t -> H(t) for the full STAP protocol on [0, path.t_f]."""
    return _two_stage_generator(schedule, handedness)
