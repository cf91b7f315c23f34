"""Output checks for the benchmark workloads.

Each check reads what the program hands back or writes to disk and compares
it with physics that must hold for any correct implementation, or with a
reference: the committed oracle_ref.json, or run_statevector's populations
computed untimed at set-up.  The tolerances admit round-off-level
changes (a re-ordered sum, a closed-form exponential) and a changed Trotter
error, and reject a wrong answer.  Every check raises CheckFailed.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import re

import numpy as np

P01_COLUMN = 2              # CSV columns: t_us,p00,p01,p10,p11,handedness
NORM_TOL = 1e-10
# |01> leakage: the oracle keeps it exactly 0.  The circuit's RXX.RYY pump
# step cancels on the {|01>, |10>} block only in exact arithmetic and leaves
# ~1e-33, so the circuit is held to the bound of tests/test_circuits.py.
ORACLE_MAX_P01 = 0.0
CIRCUIT_MAX_P01 = 1e-30
ORACLE_REF_TOL = 1e-9       # CSV rows carry 12 significant digits
MIN_FINAL_D = 0.96
SLOPE_RANGE = (-1.4, -0.6)
MAX_FINAL_DEV_N20 = 0.05
QASM_REPLAY_TOL = 1e-10


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_trace_csv(path: str) -> np.ndarray:
    """Rows of (t, p00, p01, p10, p11) from a population-trace CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0].startswith("t_us,p00,p01,p10,p11"),
            f"{path}: unexpected CSV header")
    return np.array([[float(v) for v in line.split(",")[:5]]
                     for line in lines[1:]])


def check_trace(path: str, max_p01: float, ref_final: np.ndarray | None = None) -> None:
    rows = read_trace_csv(path)
    require(len(rows) >= 2, f"{path}: trace has {len(rows)} rows")
    leak = float(np.max(np.abs(rows[:, P01_COLUMN])))
    require(leak <= max_p01, f"{path}: |01> leakage {leak:.3g} > {max_p01:g}")
    norm_err = float(np.max(np.abs(rows[:, 1:5].sum(axis=1) - 1.0)))
    require(norm_err <= NORM_TOL, f"{path}: norm error {norm_err:.3g}")
    if ref_final is not None:
        err = float(np.max(np.abs(rows[-1, 1:5] - ref_final)))
        require(err <= ORACLE_REF_TOL,
                f"{path}: final populations differ from the expm reference by {err:.3g}")


def check_scenario(out_dir: str, report, ref_finals: dict[str, np.ndarray],
                   shots: int) -> None:
    """`chiralgate run` outputs for both enantiomers of one config."""
    for label in ("L", "R"):
        check_trace(os.path.join(out_dir, f"oracle_{label}.csv"), ORACLE_MAX_P01,
                    ref_finals[label])
        check_trace(os.path.join(out_dir, f"circuit_{label}.csv"), CIRCUIT_MAX_P01)
        with open(os.path.join(out_dir, f"counts_{label}.json")) as fh:
            counts = json.load(fh)
        require(counts.get("shots") == shots
                and sum(v for k, v in counts.items() if k != "shots") == shots,
                f"counts_{label}.json does not sum to {shots} shots")
    require(report.final_d() >= MIN_FINAL_D,
            f"final D {report.final_d():.4f} < {MIN_FINAL_D}")
    with open(os.path.join(out_dir, "report.json")) as fh:
        written = json.load(fh)
    require(written["final_D"] == report.final_d(),
            "report.json final_D differs from the returned report")


def check_sweep(table: dict, steps: list[int]) -> None:
    """`chiralgate sweep-trotter`: first-order convergence, criterion 5."""
    rows = table["rows"]
    require([r["n"] for r in rows] == list(steps), "sweep rows do not match the steps list")
    require(all(math.isfinite(r["max_dev"]) and math.isfinite(r["final_dev"])
                and r["max_dev"] >= r["final_dev"] >= 0 for r in rows),
            "sweep deviations are not finite and ordered")
    lo, hi = SLOPE_RANGE
    require(lo <= table["slope"] <= hi, f"slope {table['slope']:.3f} outside [{lo}, {hi}]")
    n20 = next(r for r in rows if r["n"] == 20)
    require(n20["final_dev"] <= MAX_FINAL_DEV_N20,
            f"N=20 final deviation {n20['final_dev']:.4f} > {MAX_FINAL_DEV_N20}")


# -- QASM replay -------------------------------------------------------------

_GATE_RE = re.compile(r"^(rx|ry|rz)\(([^)]*)\) q\[([01])\];$"
                      r"|^(x) q\[([01])\];$"
                      r"|^(cx) q\[([01])\],q\[([01])\];$")
_PREAMBLE_RE = re.compile(r'^(OPENQASM 2\.0;|include "qelib1\.inc";|//.*'
                          r'|qreg q\[2\];|creg c\[2\];|measure q\[[01]\] -> c\[[01]\];)$')


def _pairs(qubit: int) -> tuple[tuple[int, int], tuple[int, int]]:
    # statevector index = 2*b0 + b1 (qubit 0 is the left bit)
    return ((0, 2), (1, 3)) if qubit == 0 else ((0, 1), (2, 3))


def replay_qasm(text: str) -> np.ndarray:
    """Final populations of |00> after the gates of an OpenQASM 2.0 text.

    Accepts only the native set {rx, ry, rz, x, cx}; any other statement
    fails the check.
    """
    psi = [1 + 0j, 0j, 0j, 0j]
    for line in text.splitlines():
        m = _GATE_RE.match(line)
        if m is None:
            require(_PREAMBLE_RE.match(line) is not None,
                    f"statement outside the native gate set: {line!r}")
            continue
        if m.group(1):
            theta = float(m.group(2))
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            u = {"rx": (c, -1j * s, -1j * s, c),
                 "ry": (c, -s, s, c),
                 "rz": (cmath.exp(-0.5j * theta), 0, 0, cmath.exp(0.5j * theta))}[m.group(1)]
            for a, b in _pairs(int(m.group(3))):
                psi[a], psi[b] = (u[0] * psi[a] + u[1] * psi[b],
                                  u[2] * psi[a] + u[3] * psi[b])
        elif m.group(4):
            for a, b in _pairs(int(m.group(5))):
                psi[a], psi[b] = psi[b], psi[a]
        else:
            control, target = int(m.group(7)), int(m.group(8))
            require(control != target, f"cx with control == target: {line!r}")
            a = 2 if target == 1 else 1      # control bit 1, target bit 0
            psi[a], psi[3] = psi[3], psi[a]
    return np.abs(np.array(psi)) ** 2


def check_qasm(path: str, ref_pops: np.ndarray) -> None:
    """Replay a QASM file and compare with run_statevector's populations."""
    with open(path) as fh:
        pops = replay_qasm(fh.read())
    err = float(np.max(np.abs(pops - ref_pops)))
    require(err <= QASM_REPLAY_TOL, f"{os.path.basename(path)}: replayed populations "
                                    f"differ from run_statevector by {err:.3g}")


def dir_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
