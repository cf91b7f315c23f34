"""Pulse envelopes and control angles for the STIRAP and STAP drive schedules.

All amplitudes are angular frequencies in rad/us, all times in us.  The
protocol timeline has two disjoint stages: a Q stage [0, t_split) that
prepares the chirality-signed superposition, and a P/S stage [t_split, t_f]
that performs the Raman transfer.  Each drive is evaluated on its own
stage's times only, zero on the other stage; other times are a DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularScheduleError

ALPHA1_PROFILES = ("gauss_match", "sin2")


def _erf(x) -> np.ndarray:
    """math.erf elementwise (numpy has no erf ufunc)."""
    x = np.asarray(x, dtype=float)
    # Python floats, not the numpy scalars of x.flat: math.erf reads both as
    # the same double, the floats faster
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class GaussianPulse:
    """amplitude * exp(-((t - center) / width)^2)."""

    amplitude: float  # rad/us, >= 0
    center: float     # us
    width: float      # us, > 0

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0 < self.width < math.inf:
            raise ValueError(f"width must be finite and > 0, got {self.width}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")

    def __call__(self, t):
        u = (np.asarray(t, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-u * u)

    def area(self, a, b):
        """Exact integral over [a, b] via the error function."""
        ua = (np.asarray(a, dtype=float) - self.center) / self.width
        ub = (np.asarray(b, dtype=float) - self.center) / self.width
        return 0.5 * math.sqrt(math.pi) * self.amplitude * self.width * (
            _erf(ub) - _erf(ua)
        )


@dataclass(frozen=True)
class Handedness:
    """Enantiomer tag: sign +1 (L) or -1 (R); the Q-drive phase is sign*pi/2."""

    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def phi_q(self) -> float:
        return self.sign * math.pi / 2.0

    @property
    def label(self) -> str:
        return "L" if self.sign > 0 else "R"

    @classmethod
    def from_label(cls, label: str) -> "Handedness":
        sign = {"L": +1, "R": -1}.get(label.upper()) if isinstance(label, str) else None
        if sign is None:
            raise ValueError(f"handedness must be 'L' or 'R', got {label!r}")
        return cls(sign)


LEFT = Handedness(+1)
RIGHT = Handedness(-1)


class _Timeline:
    """The one stage-and-domain rule of both schedules, around their Q pulse
    `q` and their P/S formulas `_ps(t)` and `_splitting(t)`."""

    @property
    def duration(self) -> float:
        return self.t_f

    def _on_stage(self, t, formula, ps: bool = True):
        """formula (an array or a tuple of arrays) on the times of t in the
        P/S stage (or the Q stage), 0 on the other; DomainError outside [0, t_f]."""
        t = np.asarray(t, dtype=float)
        bad = ~((t >= 0.0) & (t <= self.t_f))
        if np.any(bad):
            raise DomainError(f"t={_first(t, bad)} outside schedule domain [0, {self.t_f}]")
        on = (t >= self.t_split) == ps
        vals = formula(t[on])

        def place(v):
            out = np.zeros(t.shape)
            out[on] = v
            return out

        return tuple(map(place, vals)) if isinstance(vals, tuple) else place(vals)

    def drives(self, t):
        """(Omega_Q, Omega_P, Omega_S) at times t: Q on [0, t_split), P/S on [t_split, t_f]."""
        return (self._on_stage(t, self.q, ps=False), *self.ps(t))

    def ps(self, t):
        """(Omega_P, Omega_S) at times t, (0, 0) on the Q stage."""
        return self._on_stage(t, self._ps)

    def splitting(self, t):
        """The rate the R enantiomer's dynamic phase accrues at, 0 on the Q stage."""
        return self._on_stage(t, self._splitting)


@dataclass(frozen=True)
class StirapSchedule(_Timeline):
    """STIRAP from its `pulses` keys: a Q stage [0, t1) of area pi/2, then a
    double-Gaussian pump and single-Gaussian Stokes on [t1, t_f].

    The pump is the sum of p_first and p_second (p_second delayed by tau);
    p_first coincides with the Stokes Gaussian so the mixing angle starts at
    pi/4, matching the superposition the Q stage prepares, and ends near
    pi/2 when the delayed pump component dominates.
    """

    t1: float = 2.53
    t_f: float = 10.0
    ps_amplitude: float = 2.0
    tau: float | None = None
    ps_width: float | None = None
    q_width: float | None = None
    q: GaussianPulse = field(init=False)
    p_first: GaussianPulse = field(init=False)
    p_second: GaussianPulse = field(init=False)
    s: GaussianPulse = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.t1 < self.t_f:
            raise ValueError(f"need 0 < t1 < t_f, got t1={self.t1}, t_f={self.t_f}")
        span = self.t_f - self.t1
        width = span / 3.0 if self.ps_width is None else self.ps_width
        tau = width if self.tau is None else self.tau
        q = q_stage_pulse(self.t1, self.q_width)
        shared = GaussianPulse(self.ps_amplitude, self.t1 + 0.5 * (span - tau), width)
        second = GaussianPulse(self.ps_amplitude, self.t1 + 0.5 * (span + tau), width)
        # frozen: the derived fields are set once, past __setattr__
        vars(self).update(q=q, p_first=shared, p_second=second, s=shared)
        if tau < 0:
            raise ValueError(f"tau must be >= 0, got {tau}")

    @property
    def t_split(self) -> float:
        return self.t1

    def _ps(self, t):
        s = self.s(t)                   # p_first is s
        return s + self.p_second(t), s

    def _splitting(self, t):
        return total_rabi(*self._ps(t))


@dataclass(frozen=True)
class StapSchedule(_Timeline):
    """STAP from its `pulses` keys: a Q stage [0, t_split) of area pi/2, then
    the counteradiabatically corrected P/S drive on [t_split, t_f].

    The drive follows two control angles (stap_angles): alpha1 ramps
    pi/4 -> pi/2 (monotone, flat at both ends); alpha2 is a Gaussian bump of
    height alpha_m and width t_alpha2, by default (t_f - t_split)/6, zero at
    both ends to within alpha_m * e^-9.
    """

    t_split: float = 1.24
    t_f: float = 2.5
    alpha_m: float = 0.35
    t_alpha2: float | None = None
    alpha1_profile: str = "gauss_match"
    q_width: float | None = None
    q: GaussianPulse = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.t_split < self.t_f:
            raise ValueError(
                f"need 0 < t_split < t_f, got t_split={self.t_split}, t_f={self.t_f}")
        if not 0.0 < self.alpha_m < math.pi / 2:
            raise ValueError(f"alpha_m must be in (0, pi/2), got {self.alpha_m}")
        if self.alpha1_profile not in ALPHA1_PROFILES:
            raise ValueError(
                f"unknown alpha1 profile {self.alpha1_profile!r}; "
                f"choices: {ALPHA1_PROFILES}"
            )
        t_alpha2 = (self.t_f - self.t_split) / 6.0 if self.t_alpha2 is None else self.t_alpha2
        if t_alpha2 <= 0:
            raise ValueError(f"t_alpha2 must be > 0, got {t_alpha2}")
        q = q_stage_pulse(self.t_split, self.q_width)
        vars(self).update(t_alpha2=t_alpha2, q=q)  # frozen, as in StirapSchedule

    @property
    def center(self) -> float:
        return 0.5 * (self.t_split + self.t_f)

    def _ps(self, t):
        """Effective drive amplitudes (Omega_P + Omega_P', Omega_S + Omega_S').

        Solving for a vanishing dressed-frame coupling (lambda_pm = 0) under
        the global Omega/2 matrix convention gives, for the control angles
        alpha1 and alpha2,

            P_eff = -2 [ alpha1_dot sin(alpha1) cot(alpha2) + alpha2_dot cos(alpha1) ]
            S_eff = -2 [ alpha1_dot cos(alpha1) cot(alpha2) - alpha2_dot sin(alpha1) ]

        independent of how the total is split into a bare pulse plus
        correction.  Amplitudes may be negative: a sign flip is a pi phase
        flip of the drive.
        """
        return _corrected(t, *stap_angles(self, t))

    def _splitting(self, t):
        """Energy splitting Upsilon(t) between the two excited dressed states.

        The dressed-frame generator is diag(+Upsilon/2, 0, -Upsilon/2) once
        the corrected pulses cancel the off-diagonal couplings; the splitting
        includes the geometric (frame-derivative) contribution and reduces to
        -2 alpha1_dot / sin(alpha2) for the designed pulses.
        """
        a1, da1, a2, da2 = stap_angles(self, t)
        p_eff, s_eff = _corrected(t, a1, da1, a2, da2)
        return (p_eff * np.sin(a1) + s_eff * np.cos(a1)) * np.cos(a2) - 2.0 * np.sin(a2) * da1


@dataclass(frozen=True)
class DiscretizedSchedule:
    """Per-slice frozen amplitudes: k Q slices followed by m - k P/S slices."""

    delta_t: float
    omega_q: np.ndarray   # shape (m,), zero beyond slice k-1
    omega_p: np.ndarray   # shape (m,), zero before slice k
    omega_s: np.ndarray
    k: int

    def __post_init__(self):
        columns = {name: np.asarray(getattr(self, name), float)
                   for name in ("omega_q", "omega_p", "omega_s")}
        vars(self).update(columns)
        if {c.shape for c in columns.values()} != {(self.omega_q.size,)}:
            raise ValueError("amplitude columns must be 1-D and of one length")
        if not (_is_integer(self.k) and 0 <= self.k <= self.m):
            raise ValueError(f"k must be an integer in [0, m={self.m}], got {self.k!r}")
        if not 0.0 < self.delta_t < math.inf:
            raise ValueError(f"delta_t must be finite and > 0, got {self.delta_t}")

    @property
    def m(self) -> int:
        return self.omega_q.shape[0]


# Every pulse function below maps an array of times to arrays of the same
# shape (a plain float gives 0-d results).

def _first(t: np.ndarray, bad: np.ndarray) -> float:
    return float(t[bad].flat[0])


def _is_integer(n) -> bool:
    """n is an int or a numpy integer, and not a bool (which is an int)."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def eval_ps_rates(schedule: StirapSchedule, t):
    """Analytic time derivatives (dOmega_P/dt, dOmega_S/dt), (0, 0) on the Q stage."""
    def rates(t):
        s, p2 = (g(t) * (-2.0 * (t - g.center) / g.width**2)
                 for g in (schedule.s, schedule.p_second))
        return s + p2, s                # p_first is s

    return schedule._on_stage(t, rates)


def total_rabi(omega_p, omega_s):
    return np.hypot(omega_p, omega_s)


def mixing_angle(omega_p, omega_s):
    """alpha1 = atan(Omega_P / Omega_S), in [0, pi/2], for amplitude arrays of
    one shape; ValueError where both amplitudes vanish."""
    omega_p, omega_s = np.asarray(omega_p, dtype=float), np.asarray(omega_s, dtype=float)
    if np.any((omega_p == 0.0) & (omega_s == 0.0)):
        raise ValueError("mixing angle undefined when both amplitudes vanish")
    return np.arctan2(omega_p, omega_s)[()]


def mixing_angle_rate(schedule: StirapSchedule, t):
    """Analytic d(alpha1)/dt of the STIRAP schedule; 0 where Omega(t) = 0."""
    omega_p, omega_s = schedule.ps(t)
    dp, ds = eval_ps_rates(schedule, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = (dp * omega_s - omega_p * ds) / (omega_p**2 + omega_s**2)
    return np.where((omega_p == 0.0) & (omega_s == 0.0), 0.0, rate)[()]


def adiabaticity_ratio(schedule: StirapSchedule, t):
    """|d(alpha1)/dt| / Omega(t); infinity where Omega(t) = 0."""
    omega = total_rabi(*schedule.ps(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(mixing_angle_rate(schedule, t)) / omega
    return np.where(omega == 0.0, math.inf, ratio)[()]


# -- STAP control angles -----------------------------------------------------

def stap_angles(schedule: StapSchedule, t):
    """(alpha1, alpha1_dot, alpha2, alpha2_dot) at times t.

    alpha1 ramps pi/4 -> pi/2 over [t_split, t_f]; alpha2 is the Gaussian
    counteradiabatic angle, alpha_m * e^-9 at both endpoints when t_alpha2
    keeps its default (t_f - t_split)/6.
    """
    t = np.asarray(t, dtype=float)
    u = (t - schedule.center) / schedule.t_alpha2
    bump = np.exp(-u * u)
    a2 = schedule.alpha_m * bump
    da2 = a2 * (-2.0 * u / schedule.t_alpha2)
    if schedule.alpha1_profile == "sin2":
        span = schedule.t_f - schedule.t_split
        s = (t - schedule.t_split) / span
        a1 = math.pi / 4 + (math.pi / 4) * np.sin(math.pi * s / 2) ** 2
        da1 = (math.pi**2 / (8.0 * span)) * np.sin(math.pi * s)
        return a1, da1, a2, da2
    # "gauss_match": alpha1_dot proportional to the alpha2 Gaussian, so the
    # ratio alpha1_dot / alpha2 stays bounded by its endpoint value and the
    # corrected drives remain modest everywhere (see StapSchedule._ps).
    ue = 0.5 * (schedule.t_f - schedule.t_split) / schedule.t_alpha2
    erf_ue = math.erf(ue)
    clipped = np.clip(u, -ue, ue)
    a1 = math.pi / 4 + (math.pi / 8) * (_erf(clipped) + erf_ue) / erf_ue
    peak = (math.pi / 4) / (math.sqrt(math.pi) * schedule.t_alpha2 * erf_ue)
    # the window test is on t: at t = t_split, u rounds to just below -ue
    inside = (t >= schedule.t_split) & (t <= schedule.t_f)
    da1 = np.where(inside, peak * bump, 0.0)
    return a1, da1, a2, da2


_COT_OVERFLOW = 1e9


def _corrected(t, a1, da1, a2, da2):
    """StapSchedule._ps from the angles stap_angles gives at t."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        core = da1 * (np.cos(a2) / np.sin(a2))  # alpha2 > 0 on the closed window
    bad = ~(np.abs(core) <= _COT_OVERFLOW)      # also an alpha2 that underflowed
    if np.any(bad):
        raise SingularScheduleError(_first(t, bad), float(np.abs(core[bad]).flat[0]))
    sin_a1, cos_a1 = np.sin(a1), np.cos(a1)
    p_eff = -2.0 * (core * sin_a1 + da2 * cos_a1)
    s_eff = -2.0 * (core * cos_a1 - da2 * sin_a1)
    return p_eff, s_eff


# -- quadrature and discretization -------------------------------------------

@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 16-node Gauss-Legendre nodes and weights on [-1, 1], built on
    first use so that an import (and config validation) skips numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(16)


def gauss_legendre(f, lo, hi, panels: int = 1):
    """Integrals of f over the windows [lo, hi] (arrays of one shape), each
    split into `panels` equal panels of the 16-node Gauss-Legendre rule.

    f maps an array of times to an array, or a tuple of arrays, of the same
    shape; the result has the same structure with the shape of lo.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    edges = lo + (hi - lo) * (np.arange(panels + 1) / panels)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    nodes, weights = _gauss_legendre_rule()
    vals = f(mid[..., None] + half[..., None] * nodes)

    def integral(v):
        return np.sum(half * (v @ weights), axis=-1)

    return tuple(map(integral, vals)) if isinstance(vals, tuple) else integral(vals)


def q_stage_pulse(t_end: float, width: float | None = None) -> GaussianPulse:
    """Gaussian centered on [0, t_end] whose windowed area is pi/2."""
    if width is None:
        width = t_end / 6.0
    probe = GaussianPulse(1.0, t_end / 2.0, width)
    return GaussianPulse(math.pi / 2.0 / probe.area(0.0, t_end), t_end / 2.0, width)


def discretize(
    schedule: StirapSchedule | StapSchedule,
    n_steps: int,
) -> DiscretizedSchedule:
    """Split [0, duration] into n_steps equal slices of frozen amplitudes.

    Slices before the stage boundary carry only the Q amplitude, the rest
    only P/S.  Each slice amplitude is the pulse integral over the slice
    divided by delta_t (exact for Q, Gauss-Legendre for P/S), so the
    discrete areas match the continuous ones except between k*delta_t and
    t_split, which no slice covers when the boundary falls inside a slice.
    """
    return discretize_all(schedule, [n_steps])[0]


def discretize_all(schedule: StirapSchedule | StapSchedule, steps_list) -> list[DiscretizedSchedule]:
    """discretize(schedule, n) for each n of steps_list, with the slices of
    every n end to end: the Q windows in one area call and the P/S windows
    in one Gauss-Legendre pass."""
    bad = [n for n in steps_list if not _is_integer(n)]
    if bad:
        raise ValueError(f"n_steps must be an integer, got {bad[0]!r}")
    if any(n < 2 for n in steps_list):
        raise ValueError(f"n_steps must be >= 2, got {min(steps_list)}")

    t_split = schedule.t_split
    dts = [schedule.duration / n for n in steps_list]
    # k is within half a slice of n * t_split / duration, so every Q window
    # starts before t_split and every P/S window ends after it: cutting both
    # edges at t_split toward a slice's own stage moves only the inner one
    ks = [max(1, min(n - 1, round(n * t_split / schedule.duration))) for n in steps_list]
    i = np.concatenate([np.arange(n) for n in steps_list])     # slice i of its n
    dt = np.repeat(dts, steps_list)
    q = i < np.repeat(ks, steps_list)                          # the Q slices
    edges = (i + [[0], [1]]) * dt                              # [i dt, (i + 1) dt]
    lo, hi = np.where(q, np.minimum(edges, t_split), np.maximum(edges, t_split))
    amp = np.zeros((3, len(i)))     # (Omega_Q, Omega_P, Omega_S) of every slice
    amp[0, q] = schedule.q.area(lo[q], hi[q])
    amp[1:, ~q] = gauss_legendre(schedule._ps, lo[~q], hi[~q])
    amp /= dt
    ends = np.cumsum(steps_list)
    return [DiscretizedSchedule(d, *amp[:, e - n:e], k)
            for d, n, e, k in zip(dts, steps_list, ends, ks)]


# -- protocols ----------------------------------------------------------------

# config's `protocol` names; each class's init fields are its `pulses` keys
PROTOCOLS = {"stirap": StirapSchedule, "stap": StapSchedule}
default_stirap_schedule = StirapSchedule
default_stap_schedule = StapSchedule
