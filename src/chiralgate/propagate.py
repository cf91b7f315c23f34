"""Exact-reference time evolution for the 4-dimensional two-qubit system.

Two independent integrators are provided: a piecewise-exact propagator that
freezes the generator at each sub-interval midpoint and applies the
closed-form exponential of a {0, +-w}-spectrum generator, batched over the
grid, and a classical RK4 integrator with no renormalization whose norm
drift doubles as an integration-quality diagnostic.  The closed form reads
the stack over the real Hermitian basis matrices of the entries it uses
anywhere and builds every step's block in one product of per-step
coefficients with a table of basis-term blocks.  Every block the product
kernel multiplies is the 4x4 matrix D^dag U D in the frame
D = diag(1, i, 1, i), the S gate on qubit 1, acting on the frame amplitudes
D^dag psi: a real rotation where every term is real in the frame, as the
P/S generator is, else a complex block.

A generator maps an array of times to an array broadcastable to
t.shape + (4, 4) of Hermitian matrices.  The piecewise-exact propagator
calls it once with every step midpoint and needs each matrix to have the
spectrum {0, +-w}, as every coupling built in hamiltonians does; RK4 calls
it with one float time per stage.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .pulses import _is_integer

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
RK4_NORM_DRIFT_LIMIT = 1e-4

BASIS_LABELS = ("00", "01", "10", "11")
_D = np.array([1, 1j, 1, 1j])       # the frame D = diag(1, i, 1, i)


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
        outside = ~((t >= self.times[0]) & (t <= self.times[-1]))     # NaN too
        if np.any(outside):
            raise ValueError(f"t={t[outside][0]} outside trace window "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return np.stack([np.interp(t, self.times, self.probs[:, j])
                         for j in range(4)], axis=-1)

    def to_csv(self) -> str:
        """The trace as CSV, from the row template whose time column is
        filled in once per grid and cached (see _rows).  A p01 column that
        is +0.0 in every row, as |01> leakage is except with the erratum
        gate, is written into the template as its text, 0.  The rows before
        the first one whose p01 or p11 is not +0.0 (the chirality-blind Q
        stage of a protocol) are the head: its p11 is written as 0 too (a
        -0.0 ends the head, as %.12g writes it -0), and its text without
        labels is memoised until a trace with the same head takes it (see
        _head), so the L and R traces of a run format their shared head
        once.  The other rows are filled in by one %-format.  Times
        that are not 1-D, or probs not of shape (len(times), 4), raise
        ValueError."""
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or np.shape(self.probs) != (len(times), 4):
            raise ValueError(f"a trace needs times of shape (n,) and probs of shape (n, 4), "
                             f"got {times.shape} and {np.shape(self.probs)}")
        probs = np.asarray(self.probs, dtype=float)
        zero = (probs[:, [1, 3]] == 0.0) & ~np.signbit(probs[:, [1, 3]])     # +0.0 only
        live = ~zero.all(axis=1)
        q = int(live.argmax()) if live.any() else len(times)
        zero01 = bool(zero[:, 0].all())
        cols = [0, 2, 3] if zero01 else [0, 1, 2, 3]
        rows = _rows(times.tobytes(), ",%%.12g," + ("0," if zero01 else "%%.12g,")
                     + "%%.12g,%%.12g\n")
        head, cut = _head(rows, q, probs[:q, cols[:-1]].tobytes())
        # time text holds no "\n" and no "%", so this places the label exactly
        label = "," + self.handedness + "\n"
        tail = rows[cut:].replace("\n", label.replace("%", "%%"))
        return ("t_us,p00,p01,p10,p11,handedness\n" + head.replace("\n", label)
                + tail % tuple(probs[q:, cols].ravel().tolist()))


@functools.lru_cache(maxsize=4)
def _rows(times: bytes, rest: str) -> str:
    """The row template of a CSV table: per row, its time of the float64
    `times` as %.9f, then `rest`, which ends with "\\n" and holds the row's
    value placeholders with each % doubled, as this %-format halves them.

    Keyed on the bytes of the grid, so -0.0 and 0.0, or a grid changed in
    place, are new entries; four hold the oracle and circuit grids of both
    protocols, about 32 B per row each."""
    t = np.frombuffer(times).tolist()
    return ("%.9f" + rest) * len(t) % tuple(t)


# label-free head texts a trace has formatted for the one that shares its head
_HEADS: dict[tuple, tuple[str, int]] = {}
_HEADS_LOCK = threading.Lock()


def _head(rows: str, q: int, values: bytes) -> tuple[str, int]:
    """(text, cut): the first q rows, without labels, of the CSV table of
    row template `rows` (see _rows) with p11 = 0, the text %.12g gives
    +0.0, and the other placeholders filled, row by row, from the float64
    `values`; and the offset of row q in `rows`.

    A head is memoised until the next trace with the same template, q and
    values takes it: the L and R traces of a run share their oracle head
    and their circuit head, so the second hand formats neither, and no
    head outlives its run.  At most two are held, the last two formatted."""
    key = (rows, q, values)
    with _HEADS_LOCK:
        head = _HEADS.pop(key, None)
    if head is None:
        # a row's only ",%.12g\n" is its p11 placeholder and line end
        *time_text, tail = rows.split(",%.12g\n", q)
        head = (",0\n".join(time_text + [""]) % tuple(np.frombuffer(values).tolist()),
                len(rows) - len(tail))
        with _HEADS_LOCK:
            _HEADS[key] = head
            if len(_HEADS) > 2:
                del _HEADS[next(iter(_HEADS))]
    return head


# The real Hermitian basis a generator is read in: one E_k for each part of
# h_ij, i <= j, that a Hermitian h can have, |i><j| + |j><i| for a real part
# and i|i><j| - i|j><i| for the imaginary part of an off-diagonal entry.
_HAS_TERM = np.stack([np.triu(np.ones((4, 4), bool)), np.triu(np.ones((4, 4), bool), 1)], -1)
_I, _J, _PART = np.nonzero(_HAS_TERM)      # E_k is for part _PART[k] of h[_I[k], _J[k]]
_BASIS = np.zeros((16, 4, 4), complex)
_BASIS[range(16), _I, _J] = np.where(_PART, 1j, 1)
_BASIS[range(16), _J, _I] = np.where(_PART, -1j, 1)
_NORM2 = np.where(_I == _J, 1.0, 2.0)                   # ||E_k||_F^2


@functools.lru_cache(maxsize=64)
def _table(terms: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, l, table): the frame blocks D^dag M D, as (R, 16) rows, of I, of
    -i E_k for each term and of E_k E_l + E_l E_k (E_k^2 for k = l) for
    each pair k <= l of terms, which (k, l) index: real if all are (as for
    the real P/S couplings), else complex."""
    e = _BASIS[list(terms)]
    k, l = np.triu_indices(len(e))
    rows = np.concatenate([np.eye(4)[None], -1j * e,
                           e[k] @ e[l] + (k != l)[:, None, None] * (e[l] @ e[k])])
    frame = (_D.conj()[:, None] * rows * _D).reshape(-1, 16)
    return k, l, frame if frame.imag.any() else frame.real.copy()


def _closed_form_blocks(h: np.ndarray, dt: float) -> np.ndarray:
    """closed_form_unitaries as frame blocks D^dag U D, from the basis terms
    h uses: real if every term is real in the frame (the real P/S
    generators), else complex.

    h = sum_k x_k E_k over the E_k of the parts of the h_ij, i <= j, that
    are nonzero in some row, so I - i s h + c h^2 is one (n, R) @ (R, 16)
    product of the coefficients [1, s x_k, c x_k x_l] with _table, and
    w^2 = (1/2) sum_k ||E_k||^2 x_k^2.  R = 1 + K + K (K + 1)/2 for K terms:
    6 for the real P/S generators, at most 153 for a dense stack.  The
    product runs in row blocks of at most 2^19 multiply-adds: OpenBLAS runs
    a larger one multithreaded, which took 8 ms instead of 0.2 ms for a
    (3000, 6) @ (6, 64) product on a busy 2-core host.

    The Hermiticity defect is max |h_ij - conj(h_ji)| over the entries that
    are nonzero in some row, in either order: for every other entry both
    h_ij and h_ji are 0, so this is the dense maximum, and a NaN or an inf
    makes it NaN or inf.
    """
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    h = np.ascontiguousarray(h, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-2:] != (4, 4):
        raise ValueError(f"generators must have shape (n, 4, 4) or (4, 4), got shape {h.shape}")
    lead, h = h.shape[:-2], h.reshape(-1, 4, 4)
    parts = h.view(float).reshape(-1, 4, 4, 2)      # [.., i, j, (real, imaginary)]
    nonzero = np.any(parts, axis=0)
    used = nonzero.any(-1)
    i, j = np.nonzero((used | used.T) & _HAS_TERM[..., 0])
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, and fails below
        defect = np.max(np.abs(h[:, i, j] - h[:, j, i].conj()), initial=0.0)
    if not defect <= HERMITICITY_TOL:   # NaN fails too
        raise IntegrityError(
            f"generator is non-Hermitian (defect {defect:.3g})")
    terms = np.flatnonzero(nonzero[_HAS_TERM])
    x = parts[:, _I[terms], _J[terms], _PART[terms]]
    k, l, table = _table(tuple(terms.tolist()))
    wdt = dt * np.sqrt(0.5 * (x * x) @ _NORM2[terms])
    sin_over_w = dt * np.sinc(wdt / np.pi)
    cos_minus_1_over_w2 = -0.5 * dt * dt * np.sinc(wdt / (2.0 * np.pi)) ** 2
    cx = cos_minus_1_over_w2[:, None] * x
    coef = np.concatenate([np.ones((len(x), 1)), sin_over_w[:, None] * x, cx[:, k] * x[:, l]],
                          axis=1)
    out = np.empty((len(x), 16), table.dtype)
    rows = max(1, 2**19 // table.size)
    for lo in range(0, len(x), rows):
        np.matmul(coef[lo:lo + rows], table, out=out[lo:lo + rows])
    return out.reshape(lead + (4, 4))


def closed_form_unitaries(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for a stack of Hermitian generators with spectrum {0, +-w}.

    Such an h obeys h^3 = w^2 h with w^2 = (1/2) ||h||_F^2, so

        exp(-i h dt) = I - i sin(w dt)/w h + (cos(w dt) - 1)/w^2 h^2,

    written with sinc so that w -> 0 needs no special case, for the whole
    stack at once (_closed_form_blocks).  A basis state whose row and column
    of h vanish in every step (|01> for every drive here) is left exactly
    invariant.  A non-finite dt, or an h not of shape (n, 4, 4) or (4, 4),
    raises ValueError.
    """
    return _D[:, None] * _closed_form_blocks(h, dt) * _D.conj()


def propagate(steps, psi0: np.ndarray) -> np.ndarray:
    """psi0, U_1 psi0, U_2 U_1 psi0, ... for the n unitaries of `steps`, as
    an array of shape (n + 1,) + psi0.shape; psi0 is one state (4,) or a
    stack of states (m, 4).  Steps not of shape (n, 4, 4), or a psi0 whose
    last axis is not 4 or whose norm is not 1, raise ValueError, a final
    norm off by more than NORM_TOL (per 10,000 steps, if n is larger), or
    NaN, raises IntegrityError.

    Blocked prefix products of the complex frame blocks D^dag U D of
    `steps`, which is never modified: see _propagate_blocks, here with one
    product.
    """
    u = np.asarray(steps, dtype=complex)
    if u.ndim != 3 or u.shape[1:] != (4, 4):
        raise ValueError(f"steps must have shape (n, 4, 4), got shape {u.shape}")
    return _propagate_blocks(_D.conj()[:, None] * u * _D, [len(u)], psi0)[0] * _D


def _layout(lengths) -> tuple[int, np.ndarray]:
    """(b, starts) for products of these lengths laid end to end in one
    buffer: every product shares the run length b = floor(sqrt(total)), and
    each but the last is padded (with identity blocks, by the callers) to a
    whole number of runs, so no run spans two products.  Product i starts at
    block starts[i]; starts[-1] is the buffer's length.  One product has no
    padding."""
    b = max(1, math.isqrt(sum(lengths)))
    padded = [-(-n // b) * b for n in lengths[:-1]] + list(lengths[-1:])
    return b, np.concatenate([[0], np.cumsum(padded, dtype=int)])


def _propagate_blocks(u: np.ndarray, lengths, psi0: np.ndarray) -> list[np.ndarray]:
    """propagate for several products at once, each from psi0: u holds
    their 4x4 frame blocks D^dag U D, real or complex, as _layout(lengths)
    places them, and is overwritten.  Returns each product's frame
    amplitudes D^dag psi, (lengths[i] + 1,) + psi0.shape, real when those
    of psi0 and the blocks are (complex otherwise); a final norm of any
    product off by more than NORM_TOL (per 10,000 blocks, if it is longer)
    raises.

    Cut into runs of b blocks, in place each run becomes the product of its
    run up to it, one batched matmul per run position for all products;
    then one pass over the runs carries the states, as columns, one matmul
    per run, restarting from psi0 where a product starts.  Padding follows
    a product's last block, so only states past its end, which are
    dropped, see it.  That is about 2 sqrt(n) Python steps for n blocks in
    all, instead of n.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape[-1:] != (4,):
        raise ValueError(f"initial state must have 4 amplitudes on its last axis, "
                         f"got shape {psi.shape}")
    norm_off = np.abs(np.linalg.norm(psi, axis=-1) - 1.0)
    if not np.all(norm_off <= 1e-10):        # NaN fails too
        raise ValueError(f"initial state is not normalized: norm off by {np.max(norm_off):.3g}")
    x0 = psi * _D.conj()
    x0 = x0 if x0.imag.any() else x0.real
    b, starts = _layout(lengths)
    for j in range(1, b):
        cur = u[j::b]
        np.matmul(cur, u[j - 1::b][:len(cur)], out=cur)
    # each product has one state more than blocks: the state before block j
    # of product i is row j + i of `states`
    first = starts[:-1] + np.arange(len(lengths))
    states = np.empty((starts[-1] + len(lengths), 4) + psi.shape[:-1],
                      np.result_type(x0, u))                    # as columns
    states[first] = x0.T
    for i in range(len(lengths)):
        for lo in range(starts[i], starts[i + 1], b):
            np.matmul(u[lo:lo + b].reshape(-1, 4), states[lo + i],
                      out=states[lo + i + 1:lo + i + b + 1].reshape((-1,) + psi.shape[:-1]))
    last = first + lengths
    # round-off drifts a norm in proportion to the product's length (up to
    # 4e-17 per block where one angle repeats, as the pi/2 basis changes of
    # native circuits do), so a product may drift NORM_TOL per 10,000 blocks
    norm_err = np.abs(np.linalg.norm(states[last], axis=1).T - 1.0)    # products on the last axis
    if not np.all(norm_err <= NORM_TOL * np.maximum(1.0, np.divide(lengths, 10_000))):
        raise IntegrityError(f"norm drifted by {np.max(norm_err):.3g} despite unitary steps")
    return [np.moveaxis(states[lo:hi + 1], 1, -1) for lo, hi in zip(first, last)]


def _grid(t0: float, t1: float, n_steps: int) -> tuple[float, np.ndarray]:
    """(dt, times) of n_steps equal steps from t0 to t1; a step count that is
    not an integer >= 1 or a non-finite t0 or t1 raises ValueError."""
    if not (_is_integer(n_steps) and n_steps >= 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    for name, t in (("t0", t0), ("t1", t1)):
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t!r}")
    return (t1 - t0) / n_steps, np.linspace(t0, t1, n_steps + 1)


def evolve_piecewise_exact(
    generator,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    n_steps: int,
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
    dt, times = _grid(t0, t1, n_steps)
    t_mid = t0 + (np.arange(n_steps) + 0.5) * dt
    h = generator(t_mid)
    if np.shape(h)[-2:] != (4, 4) or np.shape(h)[:-2] not in ((), (1,), (n_steps,)):
        raise ValueError(f"generator output must broadcast to ({n_steps}, 4, 4), "
                         f"got shape {np.shape(h)}")
    h = np.broadcast_to(h, (n_steps, 4, 4))     # one matrix if it ignores t
    x = _propagate_blocks(_closed_form_blocks(h, dt), [n_steps], psi0)[0]
    return PopulationTrace(times, populations(x), handedness, x[-1] * _D)


def evolve_rk4(
    generator,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    n_steps: int,
    handedness: str = "",
) -> PopulationTrace:
    """Classical fixed-step RK4 on d psi/dt = -i H(t) psi, no renormalization.

    Used as an independent cross-check of the piecewise-exact propagator; a
    norm drift beyond 1e-4 raises rather than silently returning junk.
    """
    dt, times = _grid(t0, t1, n_steps)
    psi = np.asarray(psi0, dtype=complex).copy()
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
