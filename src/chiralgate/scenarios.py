"""Scenario orchestration: oracle + circuit runs for both enantiomers,
discrimination reporting, Trotter sweeps, QASM export, counts ingestion.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .circuits import (CODE, NATIVE_KINDS, Circuit, compile_protocol, expand_circuit,
                       fuse_ps_runs, merge_runs, run_statevector, run_statevectors,
                       sample_measurements, with_handedness)
from .config import MAX_STEPS, ScenarioConfig
from .errors import ConfigError
# stap_generator is stirap_generator; bench/spans.py traces both names here
from .hamiltonians import predict_r_final, stap_generator, stirap_generator
from .molecule import consistency_check, rabi_frequency, rwa_warnings
from .propagate import PopulationTrace, evolve_piecewise_exact
from .pulses import LEFT, RIGHT, Handedness, _is_integer, discretize, discretize_all

PSI0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


@dataclass
class EnantiomerResult:
    handedness: str
    oracle: PopulationTrace
    circuit_trace: PopulationTrace


@dataclass
class DiscriminationReport:
    times: np.ndarray
    d_of_t: np.ndarray                      # |P_L,10 - P_R,10| on the oracle grid
    checkpoints: dict[float, dict]
    fidelities: dict[str, float]
    skipped_checkpoints: list[float] = field(default_factory=list)  # outside the oracle grid

    def final_d(self) -> float:
        return float(self.d_of_t[-1])


def _hands(config: ScenarioConfig) -> list[Handedness]:
    if config.enantiomer == "both":
        return [LEFT, RIGHT]
    return [Handedness.from_label(config.enantiomer)]


def _oracle(config: ScenarioConfig, schedule,
            hands: list[Handedness]) -> dict[str, PopulationTrace]:
    """The oracle trace of each hand, equal to round-off to
    evolve_piecewise_exact of that hand's generator on the full
    oracle_steps grid, built from the protocol's two stages.

    Q steps, those whose midpoint lies before t_split, are Omega_Q(t)/2
    times one fixed coupling, so they commute: after them the state is
    cos(A/2)|00> - i e^{-i phi_Q} sin(A/2)|10>, A the cumulative midpoint
    area, one cumsum for every hand; for phi_Q = +-pi/2 that is the real
    cos(A/2)|00> -+ sin(A/2)|10>.  The P/S steps do not depend on the hand:
    one generator call and one batch of real frame rotations carry every
    hand's stage-boundary state as one stack.
    """
    n, t_f = config.oracle_steps, schedule.duration
    dt = t_f / n
    times = np.linspace(0.0, t_f, n + 1)
    # the full-grid midpoints, as evolve_piecewise_exact makes them, decide
    # the stages and are all the P/S generator sees: the P/S grid's own
    # midpoints differ from them by round-off, and one below t_split would
    # switch that step to the Q stage
    t_mid = (np.arange(n) + 0.5) * dt
    k = int(np.searchsorted(t_mid, schedule.t_split))
    half_area = 0.5 * np.concatenate([[0.0], np.cumsum(schedule.q(t_mid[:k]) * dt)])
    cos, sin = np.cos(half_area), np.sin(half_area)
    q_probs = np.stack([cos**2, np.zeros(k + 1), sin**2, np.zeros(k + 1)], axis=1)
    psi = np.zeros((len(hands), 4), dtype=complex)
    psi[:, 0] = cos[-1]
    psi[:, 2] = [-hand.sign * sin[-1] for hand in hands]
    ps_probs, finals = np.empty((0, len(hands), 4)), psi
    if k < n:
        gen = stirap_generator(schedule, hands[0])
        ps = evolve_piecewise_exact(lambda _: gen(t_mid[k:]), psi, times[k], t_f, n - k)
        ps_probs, finals = ps.probs[1:], ps.final_state
    return {hand.label: PopulationTrace(times, np.concatenate([q_probs, ps_probs[:, i]]),
                                        hand.label, finals[i])
            for i, hand in enumerate(hands)}


def _compile(config: ScenarioConfig, disc, hand: Handedness) -> Circuit:
    return compile_protocol(disc, hand, config.protocol,
                            ps_order=config.ps_order,
                            erratum_s_gate=config.erratum_s_gate)


def report_discrimination(left: EnantiomerResult, right: EnantiomerResult,
                          config: ScenarioConfig, schedule) -> DiscriminationReport:
    """D(t) := |P_L,10(t) - P_R,10(t)| on the shared oracle grid, plus
    checkpoint populations and final-state fidelities against the ideal
    targets (-|10> for L, the dynamic-phase prediction for R).  A checkpoint
    outside the grid is listed in skipped_checkpoints instead."""
    tl, tr = left.oracle, right.oracle
    if tl.times.shape != tr.times.shape or not np.allclose(tl.times, tr.times):
        raise ValueError("L and R traces are on different time grids")
    d = np.abs(tl.probs[:, 2] - tr.probs[:, 2])

    skipped = [t for t in config.checkpoints_us if t < tl.times[0] or t > tl.times[-1]]
    inside = [t for t in config.checkpoints_us if t not in skipped]
    # one call per hand: np.interp gives each time the value it gives it alone
    checkpoints = {t: {"L": p.tolist(), "R": q.tolist(), "D": float(abs(p[2] - q[2]))}
                   for t, p, q in zip(inside, tl.at(inside), tr.at(inside))}

    target_l = np.array([0, 0, -1, 0], dtype=complex)
    pred_r = predict_r_final(schedule)
    fidelities = {
        "L_oracle": float(abs(np.vdot(target_l, tl.final_state)) ** 2),
        "L_circuit": float(abs(np.vdot(target_l, left.circuit_trace.final_state)) ** 2),
        "R_oracle": float(abs(np.vdot(pred_r, tr.final_state)) ** 2),
        "R_circuit": float(abs(np.vdot(pred_r, right.circuit_trace.final_state)) ** 2),
    }
    return DiscriminationReport(tl.times, d, checkpoints, fidelities,
                                skipped_checkpoints=skipped)


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> DiscriminationReport | None:
    """Execute oracle and circuit paths for the configured enantiomer(s);
    write population CSVs and a JSON report when out_dir is given.

    Returns the discrimination report, or None when only one enantiomer ran
    (D needs both).
    """
    schedule = config.build_schedule()
    disc = discretize(schedule, config.n_steps)
    hands = _hands(config)
    oracles = _oracle(config, schedule, hands)
    results = {}
    for hand in hands:
        trace, _ = run_statevector(_compile(config, disc, hand), PSI0)
        results[hand.label] = EnantiomerResult(hand.label, oracles[hand.label], trace)

    report = (report_discrimination(results["L"], results["R"], config, schedule)
              if len(results) == 2 else None)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for label, res in results.items():
            _write(os.path.join(out_dir, f"oracle_{label}.csv"), res.oracle.to_csv())
            _write(os.path.join(out_dir, f"circuit_{label}.csv"),
                   res.circuit_trace.to_csv())
            rec = sample_measurements(res.circuit_trace.final_state, config.shots,
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
    }


# Gate blocks (128 B each, 4x4 in the frame) in one sweep batch: at most 8 MB of them
SWEEP_BATCH_BLOCKS = 2**16


def _sweep_batches(steps_list: list[int]) -> list[list[int]]:
    """steps_list cut into consecutive batches whose circuits have at most
    SWEEP_BATCH_BLOCKS gates together, 2 N bounding the gates of N steps;
    an N above that forms a batch alone."""
    batches, gates = [], SWEEP_BATCH_BLOCKS
    for n in steps_list:
        if gates + 2 * n > SWEEP_BATCH_BLOCKS:
            batches.append([])
            gates = 0
        batches[-1].append(n)
        gates += 2 * n
    return batches


def sweep_trotter(config: ScenarioConfig, steps_list: list[int]) -> dict:
    """Per-N circuit-vs-oracle deviation table plus a log-log slope fit.

    For each N the table records the deviation maximized over Trotter-step
    boundaries and over basis states ("max_dev"), and the same maximum taken
    at the final time only ("final_dev").  The slope is fitted to max_dev,
    where the first-order splitting error dominates at every N.

    The N run in batches (_sweep_batches): each batch has one
    discretization pass, one product pass over all its circuits and one
    oracle interpolation at all their step boundaries.
    """
    bad = [n for n in steps_list if not _is_integer(n)]
    if bad:
        raise ConfigError(f"steps_list needs integer N, got {bad[0]!r}")
    if len(set(steps_list)) < 2 or any(not 2 <= n <= MAX_STEPS for n in steps_list):
        raise ConfigError("steps_list needs at least two distinct N (for the slope), "
                          f"every N in [2, {MAX_STEPS}]")
    schedule = config.build_schedule()
    hand = _hands(config)[0]     # the configured enantiomer, L for "both"
    oracle = _oracle(config, schedule, [hand])[hand.label]
    rows = []
    for batch in _sweep_batches(steps_list):
        circuits = [_compile(config, disc, hand) for disc in discretize_all(schedule, batch)]
        traces = run_statevectors(circuits, PSI0)
        # the last step boundary, N dt, can round one ulp past t_f
        times = np.minimum(np.concatenate([trace.times[1:] for trace in traces]),
                           oracle.times[-1])
        probs = np.concatenate([trace.probs[1:] for trace in traces])
        devs = np.max(np.abs(probs - oracle.at(times)), axis=1)
        # the circuit of N has N step boundaries after t = 0
        for n, dev in zip(batch, np.split(devs, np.cumsum(batch)[:-1])):
            rows.append({"n": int(n), "max_dev": float(dev.max()), "final_dev": float(dev[-1])})
    slope = float(np.polyfit(np.log([r["n"] for r in rows]),
                             np.log([r["max_dev"] for r in rows]), 1)[0])
    return {"rows": rows, "slope": slope}


# -- QASM export -------------------------------------------------------------

_QASM_HEADER = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                '// bit order: q[0] is the left bit of measured bitstrings\n'
                'qreg q[2];\ncreg c[2];\n')
_QASM_FOOTER = "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
# one line per (native kind, target), at 2 * code + target, with the qubits
# baked in; a rotation line keeps one %r for its angle
_QASM_LINES = [{"X": f"x q[{t}];\n", "CX": f"cx q[{1 - t}],q[{t}];\n"}.get(
                   k, f"{k.lower()}(%r) q[{t}];\n") for k in NATIVE_KINDS for t in (0, 1)]


def circuit_to_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text of the circuit with macros lowered to {rx, ry, rz,
    x, cx} (expand_circuit) and each angle written as its shortest
    round-trip repr, so the text is as exact as the native arrays."""
    native = expand_circuit(circuit)
    lines = "".join(_QASM_LINES[2 * k + t] for k, t in zip(native.kind.tolist(),
                                                            native.target.tolist()))
    angles = native.angle[native.kind < CODE["X"]]      # RX, RY, RZ come first in NATIVE_KINDS
    return _QASM_HEADER + lines % tuple(angles.tolist()) + _QASM_FOOTER


def export_qasm(config: ScenarioConfig, out_dir: str) -> list[str]:
    """Write <protocol>_<hand>.qasm for each configured hand; their paths.
    Each file lowers fuse_ps_runs(merge_runs(circuit)), whose P/S stage is
    three gates at any N with the N-step unitary.  The hands differ only in
    their Q gates' azimuth: one circuit is fused, then turned to each hand."""
    disc = discretize(config.build_schedule(), config.n_steps)
    hands = _hands(config)
    fused = fuse_ps_runs(merge_runs(_compile(config, disc, hands[0])))
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for hand in hands:
        path = os.path.join(out_dir, f"{config.protocol}_{hand.label}.qasm")
        _write(path, circuit_to_qasm(with_handedness(fused, hand)))
        paths.append(path)
    return paths


# -- counts ingestion --------------------------------------------------------

def ingest_counts(raw: dict) -> dict:
    """Validate a counts object and convert to populations with binomial
    1-sigma errors.

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
    """CSV of the continuous drive amplitudes on a uniform grid, in one
    %-format for the whole file; a one-shot file, so it takes no slot of
    the row-template cache that the population CSVs share (propagate._rows)."""
    schedule = config.build_schedule()
    t = np.linspace(0.0, schedule.duration, n_samples)
    values = np.column_stack([t, *schedule.drives(t)])
    return ("t_us,omega_q,omega_p,omega_s\n"
            + "%.9f,%.12g,%.12g,%.12g\n" * len(t) % tuple(values.ravel().tolist()))


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
