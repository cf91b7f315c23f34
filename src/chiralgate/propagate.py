"""Exact-reference time evolution for the 4-dimensional two-qubit system.

Two independent integrators are provided: a piecewise-exact propagator that
freezes the generator at each sub-interval midpoint and applies the
closed-form exponential of a {0, +-w}-spectrum generator, batched over the
grid, and a classical RK4 integrator with no renormalization whose norm
drift doubles as an integration-quality diagnostic.

A generator maps an array of times to an array broadcastable to
t.shape + (4, 4) of Hermitian matrices.  The piecewise-exact propagator
calls it once with every step midpoint and needs each matrix to have the
spectrum {0, +-w}, as every coupling built in hamiltonians does; RK4 calls
it with one float time per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
RK4_NORM_DRIFT_LIMIT = 1e-4

BASIS_LABELS = ("00", "01", "10", "11")


def populations(state: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(state)) ** 2


@dataclass
class PopulationTrace:
    """Populations of the four basis states sampled on a time grid."""

    times: np.ndarray        # shape (n,)
    probs: np.ndarray        # shape (n, 4)
    handedness: str = ""
    final_state: np.ndarray | None = None   # amplitudes at times[-1]

    def final(self) -> np.ndarray:
        return self.probs[-1]

    def at(self, t) -> np.ndarray:
        """Populations at time(s) t, linearly interpolated on the grid;
        shape t.shape + (4,)."""
        t = np.asarray(t, dtype=float)
        outside = (t < self.times[0]) | (t > self.times[-1])
        if np.any(outside):
            raise ValueError(f"t={t[outside][0]} outside trace window "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return np.stack([np.interp(t, self.times, self.probs[:, j])
                         for j in range(4)], axis=-1)

    def to_csv(self) -> str:
        return _csv("t_us,p00,p01,p10,p11,handedness\n",
                    "%.9f,%.12g,%.12g,%.12g,%.12g," + self.handedness.replace("%", "%%") + "\n",
                    [self.times, self.probs])


def _csv(header: str, row: str, columns) -> str:
    """header, then the %-template `row` filled from each row of the column
    arrays side by side, in one %-format."""
    table = np.column_stack(columns)
    return header + row * len(table) % tuple(table.ravel().tolist())


def _block(re, im) -> np.ndarray:
    """The real 8x8 blocks [[re, -im], [im, re]] of the 4x4 matrices re + i im."""
    out = np.empty(np.shape(re)[:-2] + (8, 8))
    out[..., :4, :4] = out[..., 4:, 4:] = re
    out[..., 4:, :4], out[..., :4, 4:] = im, -im
    return out


def _closed_form_blocks(h: np.ndarray, dt: float) -> np.ndarray:
    """closed_form_unitaries as real blocks; h^2 = aa - bb + i(ab + ba), h = a + ib."""
    h = np.asarray(h)
    defect = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()))
    if not defect <= HERMITICITY_TOL:   # NaN fails too
        raise IntegrityError(
            f"generator is non-Hermitian (defect {defect:.3g})")
    a, b = h.real, h.imag
    h2_re, h2_im = (a @ a - b @ b, a @ b + b @ a) if b.any() else (a @ a, 0.0)
    wdt = dt * np.sqrt(0.5 * np.einsum("...ii->...", h2_re))
    sin_over_w = (dt * np.sinc(wdt / np.pi))[..., None, None]
    cos_minus_1_over_w2 = (-0.5 * dt * dt * np.sinc(wdt / (2.0 * np.pi)) ** 2)[..., None, None]
    return _block(np.eye(4) + sin_over_w * b + cos_minus_1_over_w2 * h2_re,
                  cos_minus_1_over_w2 * h2_im - sin_over_w * a)


def closed_form_unitaries(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for a stack of Hermitian generators with spectrum {0, +-w}.

    Such an h obeys h^3 = w^2 h with w^2 = (1/2) ||h||_F^2, so

        exp(-i h dt) = I - i sin(w dt)/w h + (cos(w dt) - 1)/w^2 h^2,

    written with sinc so that w -> 0 needs no special case.  A basis state
    whose row and column of h vanish (|01> for every drive here) is left
    exactly invariant, because h and h^2 vanish there too.
    """
    u = _closed_form_blocks(h, dt)
    return u[..., :4, :4] + 1j * u[..., 4:, :4]


def propagate(steps, psi0: np.ndarray, tol: float = NORM_TOL) -> np.ndarray:
    """psi0, U_1 psi0, U_2 U_1 psi0, ... for the n unitaries of `steps`, as
    an array of shape (n + 1,) + psi0.shape; psi0 is one state (4,) or a
    stack of states (m, 4).  An unnormalized psi0 raises ValueError, a final
    norm off by more than tol (or NaN) raises IntegrityError.

    Blocked prefix products of the real blocks (_block) of `steps`, which is
    never modified: cut into runs of about sqrt(n), in place each becomes the
    product of its run up to it, one batched matmul per run position; one
    pass over the runs then carries the state, as [Re psi, Im psi], one
    matmul per run.  That is about 2 sqrt(n) Python steps instead of n.
    """
    u = np.asarray(steps, dtype=complex)
    x = _propagate_blocks(_block(u.real, u.imag), psi0, tol)
    return x[..., :4] + 1j * x[..., 4:]


def _propagate_blocks(u: np.ndarray, psi0: np.ndarray, tol: float = NORM_TOL) -> np.ndarray:
    """propagate on real blocks u, which it overwrites; the states are real."""
    psi = np.asarray(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) > 1e-10):
        raise ValueError("initial state is not normalized")
    n = len(u)
    b = max(1, math.isqrt(n))
    for j in range(1, b):
        cur = u[j::b]
        np.matmul(cur, u[j - 1::b][:len(cur)], out=cur)
    states = np.empty((n + 1, 8) + psi.shape[:-1])     # each state as a column
    states[0] = np.concatenate((psi.real, psi.imag), axis=-1).T
    for lo in range(0, n, b):
        np.matmul(u[lo:lo + b].reshape(-1, 8), states[lo],
                  out=states[lo + 1:lo + b + 1].reshape((-1,) + psi.shape[:-1]))
    norm_err = np.max(np.abs(np.linalg.norm(states[-1], axis=0) - 1.0))
    if not norm_err <= tol:
        raise IntegrityError(f"norm drifted by {norm_err:.3g} despite unitary steps")
    return np.moveaxis(states, 1, -1)


def evolve_piecewise_exact(
    generator,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    n_steps: int = 2000,
    handedness: str = "",
) -> PopulationTrace:
    """Propagate psi0 from t0 to t1, freezing H at each step midpoint.

    Each step applies the exact unitary exp(-i H(t_mid) dt), built for all
    steps at once by closed_form_unitaries from one generator call; the
    error is O(dt^2) in the commutator of H with its time derivative.  The
    returned trace holds the state populations at every grid point and the
    final state; for a stack of states psi0 (m, 4), both carry its axis:
    probs is (n_steps + 1, m, 4) and final_state (m, 4).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    dt = (t1 - t0) / n_steps
    times = np.linspace(t0, t1, n_steps + 1)
    t_mid = t0 + (np.arange(n_steps) + 0.5) * dt
    h = np.broadcast_to(generator(t_mid), (n_steps, 4, 4))  # one matrix if it ignores t
    x = _propagate_blocks(_closed_form_blocks(h, dt), psi0)
    return PopulationTrace(times, x[..., :4] ** 2 + x[..., 4:] ** 2, handedness,
                           x[-1, ..., :4] + 1j * x[-1, ..., 4:])


def evolve_rk4(
    generator,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    n_steps: int = 2000,
    handedness: str = "",
) -> PopulationTrace:
    """Classical fixed-step RK4 on d psi/dt = -i H(t) psi, no renormalization.

    Used as an independent cross-check of the piecewise-exact propagator; a
    norm drift beyond 1e-4 raises rather than silently returning junk.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    psi = np.asarray(psi0, dtype=complex).copy()
    dt = (t1 - t0) / n_steps
    times = np.linspace(t0, t1, n_steps + 1)
    probs = np.empty((n_steps + 1, 4))
    probs[0] = populations(psi)

    def f(t, y):
        return -1j * (generator(t) @ y)

    # stage times come from the grid, so the last stage lands exactly on t1
    for i in range(n_steps):
        ta, tb = times[i], times[i + 1]
        tm = 0.5 * (ta + tb)
        k1 = f(ta, psi)
        k2 = f(tm, psi + 0.5 * dt * k1)
        k3 = f(tm, psi + 0.5 * dt * k2)
        k4 = f(tb, psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        probs[i + 1] = populations(psi)
    drift = abs(np.linalg.norm(psi) - 1.0)
    if not drift <= RK4_NORM_DRIFT_LIMIT:
        raise IntegrityError(
            f"RK4 norm drift {drift:.3g} exceeds {RK4_NORM_DRIFT_LIMIT}; "
            "increase n_steps")
    return PopulationTrace(times, probs, handedness, psi)
