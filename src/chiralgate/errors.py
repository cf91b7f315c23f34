"""Exception types shared across the package."""

import math


class ChiralGateError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ChiralGateError):
    """Invalid or inconsistent scenario configuration (CLI exit code 2)."""


class DomainError(ChiralGateError):
    """A time argument falls outside the window a pulse is defined on."""


class SingularScheduleError(ChiralGateError):
    """A counteradiabatic schedule produced an unbounded or NaN drive amplitude."""

    def __init__(self, t, value):
        self.t = t
        self.value = value
        # NaN is alpha1_dot * cot(alpha2) with both underflowed to 0
        problem = "is not finite" if math.isnan(value) else "overflows"
        super().__init__(
            f"corrected pulse amplitude {problem} at t={t:.6g} us (|value|={value:.3g})")


class FrameTrackingError(ChiralGateError):
    """Deprecated: instantaneous eigenframe could not be continued smoothly
    in time.

    Nothing raises it any more: the adiabatic frame is the closed-form
    dark/bright frame, smooth in t.  It stays exported for compatibility,
    and as a ChiralGateError the CLI still maps it to exit 3."""


class IntegrityError(ChiralGateError):
    """An internal consistency check failed (non-Hermitian generator, norm loss)."""
