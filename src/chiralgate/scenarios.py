"""Scenario orchestration: oracle + circuit runs for both enantiomers,
discrimination reporting, Trotter sweeps, QASM export, counts ingestion.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .circuits import (Circuit, compile_protocol, expand_circuit,
                       run_statevector, sample_measurements)
from .config import MAX_STEPS, ScenarioConfig
from .errors import ConfigError
from .hamiltonians import predict_r_final, stap_generator, stirap_generator
from .molecule import consistency_check, rabi_frequency, rwa_warnings
from .propagate import PopulationTrace, evolve_piecewise_exact
from .pulses import LEFT, RIGHT, Handedness, discretize, eval_q, ps_values

PSI0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


@dataclass
class EnantiomerResult:
    handedness: str
    oracle: PopulationTrace
    circuit_trace: PopulationTrace
    circuit: Circuit
    final_state_circuit: np.ndarray


@dataclass
class DiscriminationReport:
    times: np.ndarray
    d_of_t: np.ndarray                      # |P_L,10 - P_R,10| on the oracle grid
    checkpoints: dict[float, dict]
    fidelities: dict[str, float]
    trotter_table: list[dict] = field(default_factory=list)

    def final_d(self) -> float:
        return float(self.d_of_t[-1])


def _hands(config: ScenarioConfig) -> list[Handedness]:
    if config.enantiomer == "both":
        return [LEFT, RIGHT]
    return [Handedness.from_label(config.enantiomer)]


def _oracle(config: ScenarioConfig, schedule, hand: Handedness) -> PopulationTrace:
    gen = (stirap_generator(schedule, hand) if config.protocol == "stirap"
           else stap_generator(schedule, hand))
    return evolve_piecewise_exact(gen, PSI0, 0.0, schedule.duration,
                                  config.oracle_steps, hand.label)


def _compile(config: ScenarioConfig, disc, hand: Handedness) -> Circuit:
    return compile_protocol(disc, hand, config.protocol,
                            ps_order=config.ps_order,
                            erratum_s_gate=config.erratum_s_gate)


def report_discrimination(left: EnantiomerResult, right: EnantiomerResult,
                          config: ScenarioConfig, schedule) -> DiscriminationReport:
    """D(t) := |P_L,10(t) - P_R,10(t)| on the shared oracle grid, plus
    checkpoint populations and final-state fidelities against the ideal
    targets (-|10> for L, the dynamic-phase prediction for R)."""
    tl, tr = left.oracle, right.oracle
    if tl.times.shape != tr.times.shape or not np.allclose(tl.times, tr.times):
        raise ValueError("L and R traces are on different time grids")
    d = np.abs(tl.probs[:, 2] - tr.probs[:, 2])

    checkpoints = {}
    for t in config.checkpoints_us:
        if t < tl.times[0] or t > tl.times[-1]:
            continue
        pl, pr = tl.at(t), tr.at(t)
        checkpoints[t] = {"L": pl.tolist(), "R": pr.tolist(),
                          "D": float(abs(pl[2] - pr[2]))}

    target_l = np.array([0, 0, -1, 0], dtype=complex)
    pred_r = predict_r_final(schedule)
    fidelities = {
        "L_oracle": float(abs(np.vdot(target_l, tl.final_state)) ** 2),
        "L_circuit": float(abs(np.vdot(target_l, left.final_state_circuit)) ** 2),
        "R_oracle": float(abs(np.vdot(pred_r, tr.final_state)) ** 2),
        "R_circuit": float(abs(np.vdot(pred_r, right.final_state_circuit)) ** 2),
    }
    return DiscriminationReport(tl.times, d, checkpoints, fidelities)


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> DiscriminationReport | None:
    """Execute oracle and circuit paths for the configured enantiomer(s);
    write population CSVs and a JSON report when out_dir is given.

    Returns the discrimination report, or None when only one enantiomer ran
    (D needs both).
    """
    schedule = config.build_schedule()
    disc = discretize(schedule, config.n_steps)
    results = {}
    for hand in _hands(config):
        circuit = _compile(config, disc, hand)
        trace, final = run_statevector(circuit, PSI0)
        results[hand.label] = EnantiomerResult(
            hand.label, _oracle(config, schedule, hand), trace, circuit, final)

    report = (report_discrimination(results["L"], results["R"], config, schedule)
              if len(results) == 2 else None)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for label, res in results.items():
            _write(os.path.join(out_dir, f"oracle_{label}.csv"), res.oracle.to_csv())
            _write(os.path.join(out_dir, f"circuit_{label}.csv"),
                   res.circuit_trace.to_csv())
            rec = sample_measurements(res.final_state_circuit, config.shots,
                                      config.seed)
            _write(os.path.join(out_dir, f"counts_{label}.json"),
                   json.dumps({**rec.counts, "shots": rec.shots}, sort_keys=True,
                              indent=2) + "\n")
        if report is not None:
            _write(os.path.join(out_dir, "report.json"),
                   json.dumps(_report_dict(report, config), indent=2,
                              sort_keys=True) + "\n")
    return report


def _report_dict(report: DiscriminationReport, config: ScenarioConfig) -> dict:
    return {
        "protocol": config.protocol,
        "bit_order": "q0 is the left bit",
        "discrimination_definition": "D(t) = |P_L,10(t) - P_R,10(t)|",
        "final_D": report.final_d(),
        "checkpoints": {f"{t:g}": v for t, v in report.checkpoints.items()},
        "fidelities": report.fidelities,
        "trotter_table": report.trotter_table,
    }


def sweep_trotter(config: ScenarioConfig, steps_list: list[int],
                  hand: Handedness = LEFT) -> dict:
    """Per-N circuit-vs-oracle deviation table plus a log-log slope fit.

    For each N the table records the deviation maximized over Trotter-step
    boundaries and over basis states ("max_dev"), and the same maximum taken
    at the final time only ("final_dev").  The slope is fitted to max_dev,
    where the first-order splitting error dominates at every N.
    """
    if len(set(steps_list)) < 2 or any(not 2 <= n <= MAX_STEPS for n in steps_list):
        raise ConfigError("steps_list needs at least two distinct N (for the slope), "
                          f"every N in [2, {MAX_STEPS}]")
    schedule = config.build_schedule()
    oracle = _oracle(config, schedule, hand)
    rows = []
    for n in steps_list:
        disc = discretize(schedule, n)
        trace, _ = run_statevector(_compile(config, disc, hand), PSI0)
        devs = np.max(np.abs(trace.probs[1:] - oracle.at(trace.times[1:])), axis=1)
        rows.append({"n": n, "max_dev": float(devs.max()),
                     "final_dev": float(devs[-1])})
    slope = float(np.polyfit(np.log([r["n"] for r in rows]),
                             np.log([r["max_dev"] for r in rows]), 1)[0])
    return {"rows": rows, "slope": slope}


# -- QASM export -------------------------------------------------------------

_QASM_HEADER = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                '// bit order: q[0] is the left bit of measured bitstrings\n'
                'qreg q[2];\ncreg c[2];\n')


def circuit_to_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text with macros lowered to {rx, ry, rz, x, cx} and
    fixed 12-significant-digit angles for golden-file stability."""
    lines = [_QASM_HEADER.rstrip("\n")]
    for gate in expand_circuit(circuit).gates:
        k = gate.kind
        if k == "X":
            lines.append(f"x q[{gate.qubits[0]}];")
        elif k == "CX":
            lines.append(f"cx q[{gate.qubits[0]}],q[{gate.qubits[1]}];")
        else:
            lines.append(f"{k.lower()}(%.12g) q[{gate.qubits[0]}];" % gate.angle)
    lines.append("measure q[0] -> c[0];")
    lines.append("measure q[1] -> c[1];")
    return "\n".join(lines) + "\n"


def export_qasm(config: ScenarioConfig, out_dir: str) -> list[str]:
    disc = discretize(config.build_schedule(), config.n_steps)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for hand in _hands(config):
        path = os.path.join(out_dir, f"{config.protocol}_{hand.label}.qasm")
        _write(path, circuit_to_qasm(_compile(config, disc, hand)))
        paths.append(path)
    return paths


# -- counts ingestion --------------------------------------------------------

def ingest_counts(raw: dict, reference: dict[str, float] | None = None) -> dict:
    """Validate a counts object and convert to populations with binomial
    1-sigma errors; optionally pair each row with a reference value.

    Expected shape: {"00": n, ..., "shots": total}; keys restricted to the
    four bitstrings, counts nonnegative and summing to shots.
    """
    if not isinstance(raw, dict) or "shots" not in raw:
        raise ConfigError('counts object must be a mapping with a "shots" key')
    shots = raw["shots"]
    if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
        raise ConfigError(f"shots must be a positive integer, got {shots!r}")
    counts = {k: v for k, v in raw.items() if k != "shots"}
    bad = set(counts) - {"00", "01", "10", "11"}
    if bad:
        raise ConfigError(f"invalid bitstring key(s): {', '.join(sorted(bad))}")
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0
           for v in counts.values()):
        raise ConfigError("counts must be nonnegative integers")
    if sum(counts.values()) != shots:
        raise ConfigError(
            f"counts sum to {sum(counts.values())}, expected shots={shots}")

    rows = {}
    for key in ("00", "01", "10", "11"):
        n = counts.get(key, 0)
        p = n / shots
        sigma = math.sqrt(p * (1.0 - p) / shots)
        row = {"population": p, "sigma": sigma}
        if sigma == 0.0 and n in (0, shots):
            row["zero_width_interval"] = True
        if reference is not None and key in reference:
            row["reference"] = reference[key]
            row["pull"] = ((p - reference[key]) / sigma if sigma > 0
                           else (0.0 if p == reference[key] else math.inf))
        rows[key] = row
    return {"shots": shots, "populations": rows}


def molecule_report(config: ScenarioConfig) -> dict:
    """Consistency flags plus (optionally) field-derived Rabi frequencies and
    RWA warnings for the configured molecule."""
    constants, dipoles, table = config.molecule_params()
    out = {"flags": consistency_check(constants, table), "rwa_warnings": []}
    fc = config.field_config()
    if fc is not None:
        rabi = {"P": rabi_frequency(dipoles.mu_b, fc.eps_p),
                "S": rabi_frequency(dipoles.mu_a, fc.eps_s),
                "Q": rabi_frequency(dipoles.mu_c, fc.eps_q)}
        out["rabi_mhz"] = rabi
        out["rwa_warnings"] = rwa_warnings(table, rabi)
    return out


def dump_pulses(config: ScenarioConfig, n_samples: int = 2000) -> str:
    """CSV of the continuous drive amplitudes on a uniform grid."""
    schedule = config.build_schedule()
    t = np.linspace(0.0, schedule.duration, n_samples)
    p, s = np.zeros(n_samples), np.zeros(n_samples)
    ps_stage = t >= schedule.t_split
    p[ps_stage], s[ps_stage] = ps_values(schedule, t[ps_stage])
    lines = ["t_us,omega_q,omega_p,omega_s"]
    lines += ["%.9f,%.12g,%.12g,%.12g" % row
              for row in zip(t, eval_q(schedule, t), p, s)]
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
