"""Pulse envelopes and control angles for the STIRAP and STAP drive schedules.

All amplitudes are angular frequencies in rad/us, all times in us.  The
protocol timeline has two disjoint stages: a Q stage [0, t_split] that
prepares the chirality-signed superposition, and a P/S stage [t_split, t_f]
that performs the Raman transfer.  Gaussians are evaluated exactly on their
stage window and are identically zero outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularScheduleError

ALPHA1_PROFILES = ("gauss_match", "sin2")


def _erf(x) -> np.ndarray:
    """math.erf elementwise (numpy has no erf ufunc)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.flat), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class GaussianPulse:
    """amplitude * exp(-((t - center) / width)^2)."""

    amplitude: float  # rad/us, >= 0
    center: float     # us
    width: float      # us, > 0

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.width <= 0:
            raise ValueError(f"width must be > 0, got {self.width}")

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
        try:
            return cls({"L": +1, "R": -1}[label.upper()])
        except KeyError:
            raise ValueError(f"handedness must be 'L' or 'R', got {label!r}") from None


LEFT = Handedness(+1)
RIGHT = Handedness(-1)


@dataclass(frozen=True)
class StirapSchedule:
    """Q-stage Gaussian plus double-Gaussian pump / single-Gaussian Stokes.

    The pump is the sum of p_first and p_second (p_second delayed by tau);
    p_first coincides with the Stokes Gaussian so the mixing angle starts at
    pi/4, matching the superposition the Q stage prepares, and ends near
    pi/2 when the delayed pump component dominates.
    """

    q: GaussianPulse
    p_first: GaussianPulse
    p_second: GaussianPulse
    s: GaussianPulse
    tau: float
    t1: float
    t_f: float

    def __post_init__(self):
        if not 0.0 <= self.t1 < self.t_f:
            raise ValueError(f"need 0 <= t1 < t_f, got t1={self.t1}, t_f={self.t_f}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")

    @property
    def duration(self) -> float:
        return self.t_f

    @property
    def t_split(self) -> float:
        return self.t1


@dataclass(frozen=True)
class StapAnglePath:
    """Control angles for the counteradiabatic stage on [t_i, t_f].

    alpha1 ramps pi/4 -> pi/2 (monotone, flat at both ends); alpha2 is a
    Gaussian bump of height alpha_m and width t_alpha2, zero at both ends to
    within alpha_m * e^-9.
    """

    alpha_m: float
    t_i: float
    t_f: float
    t_alpha2: float | None = None
    alpha1_profile: str = "gauss_match"

    def __post_init__(self):
        if self.t_f <= self.t_i:
            raise ValueError(f"need t_f > t_i, got t_i={self.t_i}, t_f={self.t_f}")
        if not 0.0 < self.alpha_m < math.pi / 2:
            raise ValueError(f"alpha_m must be in (0, pi/2), got {self.alpha_m}")
        if self.alpha1_profile not in ALPHA1_PROFILES:
            raise ValueError(
                f"unknown alpha1 profile {self.alpha1_profile!r}; "
                f"choices: {ALPHA1_PROFILES}"
            )
        if self.t_alpha2 is None:
            object.__setattr__(self, "t_alpha2", (self.t_f - self.t_i) / 6.0)
        elif self.t_alpha2 <= 0:
            raise ValueError(f"t_alpha2 must be > 0, got {self.t_alpha2}")

    @property
    def center(self) -> float:
        return 0.5 * (self.t_i + self.t_f)


@dataclass(frozen=True)
class StapSchedule:
    """Full STAP protocol: Q-stage Gaussian on [0, path.t_i], then the
    counteradiabatically corrected P/S drive on [path.t_i, path.t_f]."""

    q: GaussianPulse
    path: StapAnglePath

    @property
    def duration(self) -> float:
        return self.path.t_f

    @property
    def t_split(self) -> float:
        return self.path.t_i


@dataclass(frozen=True)
class DiscretizedSchedule:
    """Per-slice frozen amplitudes: k Q slices followed by m - k P/S slices."""

    delta_t: float
    omega_q: np.ndarray   # shape (m,), zero beyond slice k-1
    omega_p: np.ndarray   # shape (m,), zero before slice k
    omega_s: np.ndarray
    k: int

    @property
    def m(self) -> int:
        return self.omega_q.shape[0]


# Every pulse function below maps an array of times to arrays of the same
# shape (a plain float gives 0-d results).

def _first(t: np.ndarray, bad: np.ndarray) -> float:
    return float(t[bad].flat[0])


def eval_q(schedule: StirapSchedule | StapSchedule, t):
    """Q-pulse amplitude at times t; zero once the P/S stage has begun."""
    t = np.asarray(t, dtype=float)
    bad = (t < 0.0) | (t > schedule.duration)
    if np.any(bad):
        raise DomainError(
            f"t={_first(t, bad)} outside schedule domain [0, {schedule.duration}]"
        )
    return np.where(t > schedule.t_split, 0.0, schedule.q(t))


def eval_ps(schedule: StirapSchedule, t):
    """(Omega_P, Omega_S) of the STIRAP schedule at times t.

    Times before t1 give (0, 0); times beyond t_f are a domain error.
    """
    t = np.asarray(t, dtype=float)
    bad = t > schedule.t_f
    if np.any(bad):
        raise DomainError(f"t={_first(t, bad)} beyond schedule end t_f={schedule.t_f}")
    on = t >= schedule.t1
    omega_p = np.where(on, schedule.p_first(t) + schedule.p_second(t), 0.0)
    omega_s = np.where(on, schedule.s(t), 0.0)
    return omega_p, omega_s


def eval_ps_rates(schedule: StirapSchedule, t):
    """Analytic time derivatives (dOmega_P/dt, dOmega_S/dt) on the P/S stage."""
    t = np.asarray(t, dtype=float)
    on = (t >= schedule.t1) & (t <= schedule.t_f)

    def _dg(g: GaussianPulse) -> np.ndarray:
        return np.where(on, g(t) * (-2.0 * (t - g.center) / g.width**2), 0.0)

    return _dg(schedule.p_first) + _dg(schedule.p_second), _dg(schedule.s)


def total_rabi(omega_p, omega_s):
    return np.hypot(omega_p, omega_s)


def mixing_angle(omega_p: float, omega_s: float) -> float:
    """alpha1 = atan(Omega_P / Omega_S), in [0, pi/2]."""
    if omega_p == 0.0 and omega_s == 0.0:
        raise ValueError("mixing angle undefined when both amplitudes vanish")
    return math.atan2(omega_p, omega_s)


def mixing_angle_rate(schedule: StirapSchedule, t: float) -> float:
    """Analytic d(alpha1)/dt of the STIRAP schedule."""
    omega_p, omega_s = eval_ps(schedule, t)
    if omega_p == 0.0 and omega_s == 0.0:
        return 0.0
    dp, ds = eval_ps_rates(schedule, t)
    return (dp * omega_s - omega_p * ds) / (omega_p**2 + omega_s**2)


def adiabaticity_ratio(schedule: StirapSchedule, t: float) -> float:
    """|d(alpha1)/dt| / Omega(t); infinity when Omega(t) = 0."""
    omega = total_rabi(*eval_ps(schedule, t))
    if omega == 0.0:
        return math.inf
    return float(abs(mixing_angle_rate(schedule, t)) / omega)


# -- STAP control angles -----------------------------------------------------

def stap_angles(path: StapAnglePath, t):
    """(alpha1, alpha1_dot, alpha2, alpha2_dot) at times t.

    alpha1 ramps pi/4 -> pi/2 over [t_i, t_f]; alpha2 is the Gaussian
    counteradiabatic angle, alpha_m * e^-9 at both endpoints when t_alpha2
    keeps its default (t_f - t_i)/6.
    """
    t = np.asarray(t, dtype=float)
    u = (t - path.center) / path.t_alpha2
    bump = np.exp(-u * u)
    a2 = path.alpha_m * bump
    da2 = a2 * (-2.0 * u / path.t_alpha2)
    if path.alpha1_profile == "sin2":
        span = path.t_f - path.t_i
        s = (t - path.t_i) / span
        a1 = math.pi / 4 + (math.pi / 4) * np.sin(math.pi * s / 2) ** 2
        da1 = (math.pi**2 / (8.0 * span)) * np.sin(math.pi * s)
        return a1, da1, a2, da2
    # "gauss_match": alpha1_dot proportional to the alpha2 Gaussian, so the
    # ratio alpha1_dot / alpha2 stays bounded by its endpoint value and the
    # corrected drives remain modest everywhere (see stap_corrected_pulses).
    ue = 0.5 * (path.t_f - path.t_i) / path.t_alpha2
    clipped = np.clip(u, -ue, ue)
    a1 = math.pi / 4 + (math.pi / 8) * (_erf(clipped) + math.erf(ue)) / math.erf(ue)
    peak = (math.pi / 4) / (math.sqrt(math.pi) * path.t_alpha2 * math.erf(ue))
    # the window test is on t: at t = t_i, u rounds to just below -ue
    inside = (t >= path.t_i) & (t <= path.t_f)
    da1 = np.where(inside, peak * bump, 0.0)
    return a1, da1, a2, da2


_COT_OVERFLOW = 1e9


def stap_corrected_pulses(path: StapAnglePath, t):
    """Effective drive amplitudes (Omega_P + Omega_P', Omega_S + Omega_S').

    Solving for a vanishing dressed-frame coupling (lambda_pm = 0) under the
    global Omega/2 matrix convention gives, for the path angles alpha1 and
    alpha2,

        P_eff = -2 [ alpha1_dot sin(alpha1) cot(alpha2) + alpha2_dot cos(alpha1) ]
        S_eff = -2 [ alpha1_dot cos(alpha1) cot(alpha2) - alpha2_dot sin(alpha1) ]

    independent of how the total is split into a bare pulse plus correction.
    Amplitudes may be negative: a sign flip is a pi phase flip of the drive.
    """
    t = np.asarray(t, dtype=float)
    return _corrected(t, *stap_angles(path, t))


def _corrected(t, a1, da1, a2, da2):
    """stap_corrected_pulses from the angles stap_angles gives at t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        core = da1 * (np.cos(a2) / np.sin(a2))  # alpha2 > 0 on the closed window
    bad = ~(np.abs(core) <= _COT_OVERFLOW)      # also an alpha2 that underflowed
    if np.any(bad):
        raise SingularScheduleError(_first(t, bad), float(np.abs(core[bad]).flat[0]))
    p_eff = -2.0 * (core * np.sin(a1) + da2 * np.cos(a1))
    s_eff = -2.0 * (core * np.cos(a1) - da2 * np.sin(a1))
    return p_eff, s_eff


def stap_dressed_splitting(path: StapAnglePath, t):
    """Energy splitting Upsilon(t) between the two excited dressed states.

    The dressed-frame generator is diag(+Upsilon/2, 0, -Upsilon/2) once the
    corrected pulses cancel the off-diagonal couplings; the splitting
    includes the geometric (frame-derivative) contribution and reduces to
    -2 alpha1_dot / sin(alpha2) for the designed pulses.
    """
    t = np.asarray(t, dtype=float)
    a1, da1, a2, da2 = stap_angles(path, t)
    p_eff, s_eff = _corrected(t, a1, da1, a2, da2)
    return (p_eff * np.sin(a1) + s_eff * np.cos(a1)) * np.cos(a2) - 2.0 * np.sin(a2) * da1


# -- quadrature and discretization -------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
    vals = f(mid[..., None] + half[..., None] * _GL_NODES)

    def integral(v):
        return np.sum(half * (v @ _GL_WEIGHTS), axis=-1)

    return tuple(map(integral, vals)) if isinstance(vals, tuple) else integral(vals)


def q_stage_pulse(amplitude_area: float, t_end: float, width: float | None = None) -> GaussianPulse:
    """Gaussian centered on [0, t_end] whose windowed area equals amplitude_area."""
    if width is None:
        width = t_end / 6.0
    probe = GaussianPulse(1.0, t_end / 2.0, width)
    return GaussianPulse(amplitude_area / probe.area(0.0, t_end), t_end / 2.0, width)


def ps_values(schedule: StirapSchedule | StapSchedule, t):
    """(Omega_P, Omega_S) on the P/S stage: the STIRAP pulses or the
    corrected STAP drives."""
    if isinstance(schedule, StirapSchedule):
        return eval_ps(schedule, t)
    return stap_corrected_pulses(schedule.path, t)


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
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")

    duration = schedule.duration
    t_split = schedule.t_split
    dt = duration / n_steps
    k = max(1, min(n_steps - 1, round(n_steps * t_split / duration)))

    # k is within half a slice of n_steps * t_split / duration, so every Q
    # window starts before t_split and every P/S window ends after it
    edges = np.arange(n_steps + 1) * dt
    q_lo, q_hi = edges[:k], np.minimum(edges[1:k + 1], t_split)
    ps_lo, ps_hi = np.maximum(edges[k:-1], t_split), edges[k + 1:]

    omega_q = np.zeros(n_steps)
    omega_p = np.zeros(n_steps)
    omega_s = np.zeros(n_steps)
    omega_q[:k] = schedule.q.area(q_lo, q_hi) / dt
    areas = gauss_legendre(lambda t: ps_values(schedule, t), ps_lo, ps_hi)
    omega_p[k:], omega_s[k:] = (a / dt for a in areas)
    return DiscretizedSchedule(dt, omega_q, omega_p, omega_s, k)


# -- shipped default schedules ----------------------------------------------

def default_stirap_schedule(
    t1: float = 2.53,
    t_f: float = 10.0,
    ps_amplitude: float = 2.0,
    tau: float | None = None,
    ps_width: float | None = None,
    q_width: float | None = None,
) -> StirapSchedule:
    """STIRAP defaults: Q stage [0, t1] with area pi/2, Stokes-before-pump
    P/S stage on [t1, t_f]."""
    span = t_f - t1
    if ps_width is None:
        ps_width = span / 3.0
    if tau is None:
        tau = ps_width
    c_first = t1 + 0.5 * (span - tau)
    c_second = t1 + 0.5 * (span + tau)
    q = q_stage_pulse(math.pi / 2.0, t1, q_width)
    shared = GaussianPulse(ps_amplitude, c_first, ps_width)
    return StirapSchedule(
        q=q,
        p_first=shared,
        p_second=GaussianPulse(ps_amplitude, c_second, ps_width),
        s=shared,
        tau=tau,
        t1=t1,
        t_f=t_f,
    )


def default_stap_schedule(
    t_split: float = 1.24,
    t_f: float = 2.5,
    alpha_m: float = 0.35,
    t_alpha2: float | None = None,
    alpha1_profile: str = "gauss_match",
    q_width: float | None = None,
) -> StapSchedule:
    """STAP defaults: Q stage [0, t_split] with area pi/2, counteradiabatic
    P/S stage on [t_split, t_f]."""
    path = StapAnglePath(alpha_m=alpha_m, t_i=t_split, t_f=t_f,
                         t_alpha2=t_alpha2, alpha1_profile=alpha1_profile)
    return StapSchedule(q_stage_pulse(math.pi / 2.0, t_split, q_width), path)
