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

from .errors import DomainError
from .pulses import (
    Handedness,
    StapSchedule,
    StirapSchedule,
    gauss_legendre,
    mixing_angle,
    stap_angles,
)

IDX_00, IDX_01, IDX_10, IDX_11 = 0, 1, 2, 3
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
    """sum_k (omegas[k]/2) couplings[k], added on each coupling's nonzero entries: as
    one OpenBLAS product (n x 3)(3 x 16) it goes multithreaded from n = 1366, and slower."""
    h = np.zeros(np.broadcast(*omegas).shape + (4, 4), dtype=complex)
    for w, c in zip(omegas, couplings):
        for i, j in zip(*np.nonzero(c)):
            h[..., i, j] += 0.5 * w * c[i, j]
    return h


def build_h_q(omega_q, handedness: Handedness) -> np.ndarray:
    """Chirality-signed Q drive: (Omega_Q/2) coupling(DRIVES["Q"], phi_Q)."""
    if np.any(np.asarray(omega_q) < 0):
        raise ValueError(f"omega_q must be >= 0, got {np.min(omega_q)}")
    return _drive_sum([omega_q], [coupling(DRIVES["Q"], handedness.phi_q)])


def build_h_ps(omega_p, omega_s) -> np.ndarray:
    """Real pump and Stokes drives, the chirality lives in the Q phase alone;
    amplitudes may be negative (phase-flipped effective STAP drives) but
    must be finite."""
    if not (np.all(np.isfinite(omega_p)) and np.all(np.isfinite(omega_s))):
        raise ValueError("P/S amplitudes must be finite")
    return _drive_sum([omega_p, omega_s], [coupling(DRIVES["P"]), coupling(DRIVES["S"])])


build_h_stap = build_h_ps


def dark_state(alpha1: float) -> np.ndarray:
    """cos(alpha1)|00> - sin(alpha1)|10>: the zero-eigenvalue null vector."""
    return dressed_states(alpha1, 0.0).phi0


def bright_states(alpha1: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized +-Omega/2 eigenvectors of build_h_ps at mixing angle alpha1."""
    frame = dressed_states(alpha1, 0.0)
    return frame.phi_plus, frame.phi_minus


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
    return DressedFrame(phi0, inv * (b + chi), inv * (b - chi))


# -- adiabatic-frame transformation ------------------------------------------

def adiabatic_frame_couplings(schedule: StirapSchedule, t: float) -> tuple[float, float]:
    """(gap, dark<->bright coupling magnitude) of the adiabatic-frame
    generator H_I = W^dag H W - i W^dag dW/dt at time t.

    W's columns are the closed-form eigenvectors (phi0, phi_plus, phi_minus)
    of build_h_ps at the mixing angle, eigenvalues 0 and +-Omega/2.  They are
    smooth in t, so dW/dt is a central difference at step 1e-5 * duration;
    DomainError unless that stencil lies in the P/S stage [t_split, t_f].
    The coupling magnitude equals |alpha1_dot| / sqrt(2)."""
    step = 1e-5 * schedule.duration
    if not (schedule.t_split <= t - step and t + step <= schedule.t_f):
        raise DomainError(f"t={t} is within {step:.3g} us of the P/S stage "
                          f"[{schedule.t_split}, {schedule.t_f}] edges or outside it")

    def frame(t):
        f = dressed_states(mixing_angle(*schedule.ps(t)), 0.0)
        return np.stack([f.phi0, f.phi_plus, f.phi_minus], axis=1)

    w, dw = frame(t), (frame(t + step) - frame(t - step)) / (2.0 * step)
    h_frame = w.conj().T @ (build_h_ps(*schedule.ps(t)) @ w - 1j * dw)
    gap = float(h_frame[1, 1].real - h_frame[0, 0].real)
    return gap, float(abs(h_frame[1, 0]))


# -- STAP dressed-frame couplings --------------------------------------------

def lambda_pm(schedule: StapSchedule, t, effective=None):
    """Dressed-frame couplings lambda_pm between phi0 and phi_pm at times t
    (an array gives arrays of its shape).

    `effective` overrides the drive amplitudes (Omega_P_eff, Omega_S_eff);
    by default the schedule's designed corrected pulses are used, for which
    both couplings vanish identically.  Normalized so that with zero drive
    and alpha2 = 0 the magnitude is |alpha1_dot| (the bare STIRAP
    nonadiabatic coupling)."""
    a1, da1, a2, da2 = stap_angles(schedule, t)
    if effective is None:
        effective = schedule.ps(t)
    a_p, b_s = effective
    c1, s1 = np.cos(a1), np.sin(a1)
    c2, s2 = np.cos(a2), np.sin(a2)

    x_g = 0.5 * a_p * s2 + da2 * s2 * c1 + da1 * c2 * s1
    x_e = 0.5 * (a_p * c1 - b_s * s1) * c2 + da2 * c2
    x_t = 0.5 * b_s * s2 + da1 * c2 * c1 - da2 * s2 * s1

    imag = s1 * x_g + c1 * x_t
    real = s2 * c1 * x_g + c2 * x_e - s2 * s1 * x_t
    return real + 1j * imag, -real + 1j * imag


# -- final-state predictions -------------------------------------------------

PREDICT_PANELS = 32  # Gauss-Legendre panels over the P/S stage


def predict_r_final(schedule: StirapSchedule | StapSchedule) -> np.ndarray:
    """Analytic final state of the R enantiomer, cos(rho)|00> + sin(rho)|11>.

    The R superposition is orthogonal to the transfer path and splits over
    the two split-off frame states, accumulating opposite dynamic phases:
    rho = (1/2) int Omega dt for STIRAP, rho = (1/2) int Upsilon dt for STAP
    (composite Gauss-Legendre quadrature of the schedule's splitting
    formula over the P/S stage)."""
    area = gauss_legendre(schedule._splitting, schedule.t_split, schedule.duration,
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

def stirap_generator(schedule: StirapSchedule | StapSchedule, handedness: Handedness):
    """t -> H(t) for the full protocol on [0, duration]: schedule.drives(t) on
    the three DRIVES couplings.  One function serves both protocols;
    `stap_generator` is the same function."""
    couplings = [coupling(DRIVES["Q"], handedness.phi_q), coupling(DRIVES["P"]),
                 coupling(DRIVES["S"])]
    return lambda t: _drive_sum(schedule.drives(t), couplings)


stap_generator = stirap_generator
