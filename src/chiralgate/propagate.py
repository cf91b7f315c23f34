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
_CSV_BLOCK = 65536      # rows per %-format: bounds its format string and tuple


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
    arrays side by side, one %-format per _CSV_BLOCK rows."""
    table = np.column_stack(columns)
    text = [header]
    for lo in range(0, len(table), _CSV_BLOCK):
        block = table[lo:lo + _CSV_BLOCK]
        text.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(text)


def closed_form_unitaries(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for a stack of Hermitian generators with spectrum {0, +-w}.

    Such an h obeys h^3 = w^2 h with w^2 = (1/2) ||h||_F^2, so

        exp(-i h dt) = I - i sin(w dt)/w h + (cos(w dt) - 1)/w^2 h^2,

    written with sinc so that w -> 0 needs no special case.  A basis state
    whose row and column of h vanish (|01> for every drive here) is left
    exactly invariant, because h and h^2 vanish there too.
    """
    h = np.asarray(h)
    defect = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()))
    if not defect <= HERMITICITY_TOL:   # NaN fails too
        raise IntegrityError(
            f"generator is non-Hermitian (defect {defect:.3g})")
    h2 = h @ h
    wdt = dt * np.sqrt(0.5 * np.einsum("...ii->...", h2).real)
    sin_over_w = dt * np.sinc(wdt / np.pi)
    cos_minus_1_over_w2 = -0.5 * dt * dt * np.sinc(wdt / (2.0 * np.pi)) ** 2
    return (np.eye(h.shape[-1])
            - 1j * sin_over_w[..., None, None] * h
            + cos_minus_1_over_w2[..., None, None] * h2)


def propagate(steps, psi0: np.ndarray, tol: float = NORM_TOL) -> np.ndarray:
    """psi0, U_1 psi0, U_2 U_1 psi0, ... for the n unitaries of `steps`, as
    an array of shape (n + 1,) + psi0.shape; psi0 is one state (4,) or a
    stack of states (m, 4).  An unnormalized psi0 raises ValueError, a final
    norm off by more than tol (or NaN) raises IntegrityError.

    Blocked prefix products: `steps` is cut into blocks of about sqrt(n)
    and, in place, each entry becomes the product of its block up to it,
    one batched matmul per block position for all blocks at once; one pass
    over the blocks then carries the state from block start to block start.
    That is about 2 sqrt(n) Python steps instead of n.  A writeable complex
    ndarray given as `steps` is overwritten.
    """
    psi = np.asarray(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) > 1e-10):
        raise ValueError("initial state is not normalized")
    u = np.asarray(steps, dtype=complex)
    if not u.flags.writeable:
        u = u.copy()
    n = len(u)
    b = max(1, math.isqrt(n))
    for j in range(1, b):
        cur = u[j::b]
        np.matmul(cur, u[j - 1::b][:len(cur)], out=cur)
    states = np.empty((n + 1,) + psi.shape, dtype=complex)
    states[0] = psi
    for lo in range(0, n, b):   # x U^T is (U x)^T, for a stack of rows x too
        np.matmul(states[lo], u[lo:lo + b].swapaxes(1, 2), out=states[lo + 1:lo + b + 1])
    norm_err = np.max(np.abs(np.linalg.norm(states[-1], axis=-1) - 1.0))
    if not norm_err <= tol:
        raise IntegrityError(f"norm drifted by {norm_err:.3g} despite unitary steps")
    return states


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
    steps = closed_form_unitaries(generator(t_mid), dt)
    if steps.shape != (n_steps, 4, 4):  # a generator that ignores t gives one matrix
        steps = np.broadcast_to(steps, (n_steps, 4, 4))
    states = propagate(steps, psi0)
    return PopulationTrace(times, populations(states), handedness, states[-1])


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
