"""Rigid-rotor parameters for 1,2-propanediol: J=1 energies, the microwave
transition table for the three drives, and field-to-Rabi conversion.

Module-boundary frequencies are ordinary frequencies in MHz; the rest of
the package works in angular rad/us, so use `mhz_to_rad_per_us` at the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 1 Debye * (V/cm) / h  =  0.50348 MHz.
# mu*E/h with 1 D = 3.33564e-30 C m, 1 V/cm = 100 V/m, h = 6.62607e-34 J s.
DEBYE_V_PER_CM_OVER_H_MHZ = 0.50348

RWA_RATIO_LIMIT = 1e-2


def mhz_to_rad_per_us(f_mhz: float) -> float:
    return 2.0 * math.pi * f_mhz


@dataclass(frozen=True)
class RotorConstants:
    """Rotational constants in MHz, A >= B >= C > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a >= self.b >= self.c > 0):
            raise ValueError(
                f"need A >= B >= C > 0, got ({self.a}, {self.b}, {self.c})")


@dataclass(frozen=True)
class DipoleComponents:
    """Body-frame dipole projections in Debye."""

    mu_a: float
    mu_b: float
    mu_c: float

    def __post_init__(self):
        if min(self.mu_a, self.mu_b, self.mu_c) < 0:
            raise ValueError("dipole components must be >= 0")


@dataclass(frozen=True)
class TransitionTable:
    """Drive frequencies in MHz: pump |00>-|11> (b-type), Q |00>-|10>
    (c-type), Stokes |11>-|10> (a-type)."""

    omega_00_11: float
    omega_00_10: float
    omega_11_10: float

    LOOP_TOL_MHZ = 0.5

    def loop_closure_defect(self) -> float:
        return abs(self.omega_00_10 - self.omega_00_11 - self.omega_11_10)

    def __post_init__(self):
        if self.loop_closure_defect() > self.LOOP_TOL_MHZ:
            raise ValueError(
                f"transition loop fails to close: "
                f"{self.omega_00_10} - {self.omega_00_11} != {self.omega_11_10} "
                f"(defect {self.loop_closure_defect():.3f} MHz)")


@dataclass(frozen=True)
class FieldConfig:
    """Drive field amplitudes (V/cm); the default profile caps at 2 V/cm."""

    eps_p: float = 0.0
    eps_s: float = 0.0
    eps_q: float = 0.0
    max_field: float = 2.0

    def __post_init__(self):
        for name in ("eps_p", "eps_s", "eps_q"):
            v = getattr(self, name)
            if not 0.0 <= v <= self.max_field:
                raise ValueError(
                    f"{name}={v} outside [0, {self.max_field}] V/cm")


def j1_energies(constants: RotorConstants) -> tuple[float, float, float]:
    """J=1 asymmetric-rotor energies (E_101, E_111, E_110) in MHz above the
    0_00 ground state: B+C, A+C, A+B."""
    return (constants.b + constants.c,
            constants.a + constants.c,
            constants.a + constants.b)


def consistency_check(constants: RotorConstants,
                      table: TransitionTable,
                      tol_mhz: float = 1.0) -> list[str]:
    """Flags (as human-readable strings) every transition whose rotor-implied
    frequency differs from the table by more than tol_mhz.  An empty list
    means the parameter set is self-consistent.  Loop closure needs no flag:
    TransitionTable refuses a table whose loop fails to close.

    Mapping: |00> = 0_00, |11> = 1_11, |10> = 1_10 (b-type pump, c-type Q,
    a-type Stokes selection rules)."""
    e101, e111, e110 = j1_energies(constants)
    implied = {
        "omega_00_11 (b-type)": (e111, table.omega_00_11),
        "omega_00_10 (c-type)": (e110, table.omega_00_10),
        "omega_11_10 (a-type)": (e110 - e111, table.omega_11_10),
    }
    flags = []
    for name, (want, got) in implied.items():
        if abs(want - got) > tol_mhz:
            flags.append(f"{name}: rotor constants imply {want:.2f} MHz, "
                         f"table has {got:.2f} MHz (delta {want - got:+.2f})")
    return flags


def rabi_frequency(mu_debye: float, field_v_per_cm: float) -> float:
    """Rabi frequency Omega/2pi in MHz for a dipole (Debye) in a field (V/cm)."""
    if mu_debye < 0 or field_v_per_cm < 0:
        raise ValueError("dipole and field must be >= 0")
    return DEBYE_V_PER_CM_OVER_H_MHZ * mu_debye * field_v_per_cm


def rwa_warnings(table: TransitionTable, rabi_mhz: dict[str, float]) -> list[str]:
    """Rotating-wave sanity: warn when Omega/omega >= 1e-2 for any drive."""
    carriers = {"P": table.omega_00_11, "Q": table.omega_00_10,
                "S": table.omega_11_10}
    out = []
    for name, omega in rabi_mhz.items():
        carrier = carriers[name]
        if carrier > 0 and omega / carrier >= RWA_RATIO_LIMIT:
            out.append(f"{name} drive: Omega/omega = {omega / carrier:.2e} "
                       f">= {RWA_RATIO_LIMIT:g}; RWA questionable")
    return out


# -- built-in parameter sets -------------------------------------------------

# As printed in the source microwave-spectroscopy literature for this
# conformer, the A constant consistent with the transition table is 8572.05
# MHz; the 5872.06 value circulating alongside it fails consistency_check by
# ~2.7 GHz on both A-dependent lines.  Both sets ship so the discrepancy is
# reproducible.
_PRINTED = RotorConstants(5872.06, 3640.11, 2790.97)
_CORRECTED = RotorConstants(8572.05, 3640.10, 2790.96)
_DIPOLES = DipoleComponents(mu_a=1.201, mu_b=1.916, mu_c=0.365)
_TABLE = TransitionTable(omega_00_11=11363.0, omega_00_10=12212.0,
                         omega_11_10=849.0)

BUILTINS = {
    "propanediol-printed": (_PRINTED, _DIPOLES, _TABLE),
    "propanediol-corrected": (_CORRECTED, _DIPOLES, _TABLE),
}


def builtin_propanediol(variant: str = "printed"):
    """(RotorConstants, DipoleComponents, TransitionTable) for 1,2-propanediol.

    variant "printed" carries the widely-quoted A=5872.06 MHz (flagged by
    consistency_check); "corrected" carries A=8572.05 MHz, which reproduces
    the transition table exactly."""
    key = f"propanediol-{variant}"
    if key not in BUILTINS:
        raise ValueError(f"unknown variant {variant!r}; "
                         f"choices: printed, corrected")
    return BUILTINS[key]
