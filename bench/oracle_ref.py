"""Write bench/oracle_ref.json, the scenario workload's oracle reference.

    python3 bench/oracle_ref.py

The scenario workload draws its pulses from a fixed grid near the defaults.
For every grid point this computes the final populations of both
enantiomers by midpoint stepping with scipy's expm, an exponential
independent of the propagator under test, and writes them with the grid.

The file is computed once and committed.  The benchmark only reads it, so a
later change to the pulse or Hamiltonian code cannot move the reference
along with the answer it is compared with.  Rerun this only when the
physics of the scenario is meant to change.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import chiralgate  # noqa: E402
from chiralgate import config  # noqa: E402
from chiralgate.scenarios import PSI0  # noqa: E402

import workloads  # noqa: E402

PATH = BENCH / "oracle_ref.json"
GRID_POINTS = 4             # values per pulse parameter, ends included
ORACLE_STEPS = 2000


def grid(ranges: dict) -> list[dict]:
    axes = {k: [round(float(v), 6) for v in np.linspace(lo, hi, GRID_POINTS)]
            for k, (lo, hi) in ranges.items()}
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


def oracle_reference(raw: dict) -> dict[str, list[float]]:
    """Final populations of both enantiomers by midpoint stepping with expm."""
    cfg = config.validate_config(raw)
    schedule = cfg.build_schedule()
    n = cfg.oracle_steps
    dt = schedule.duration / n
    out = {}
    for hand in (chiralgate.LEFT, chiralgate.RIGHT):
        gen = (chiralgate.stirap_generator(schedule, hand) if cfg.protocol == "stirap"
               else chiralgate.stap_generator(schedule, hand))
        steps = expm(-1j * dt * np.array([gen((i + 0.5) * dt) for i in range(n)]))
        psi = PSI0.copy()
        for u in steps:
            psi = u @ psi
        out[hand.label] = (np.abs(psi) ** 2).tolist()
    return out


def main() -> int:
    ref = {"method": f"midpoint stepping with scipy.linalg.expm, {ORACLE_STEPS} steps",
           "oracle_steps": ORACLE_STEPS}
    for protocol, ranges in (("stap", workloads.STAP_PULSES),
                             ("stirap", workloads.STIRAP_PULSES)):
        ref[protocol] = [
            {"pulses": pulses,
             "final": oracle_reference({"protocol": protocol, "pulses": pulses,
                                        "oracle_steps": ORACLE_STEPS})}
            for pulses in grid(ranges)]
    PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {PATH.name}: {len(ref['stap'])} STAP and {len(ref['stirap'])} STIRAP points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
