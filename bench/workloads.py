"""The three benchmark workloads: seeded inputs, the timed operation, the
untimed references and the output checks.

Every workload is a closed loop with one client: a single thread issues the
next operation only when the previous one has returned, the way a
researcher's script drives the library.  One operation covers both
protocols: it runs one STAP config and then one STIRAP config, each for both
enantiomers, so every operation does the same kind of work and the latency
distribution has one mode.  Inputs come from a pool of POOL_SIZE operations
drawn from the seed; the loop cycles through the pool, so repeated configs
also check that outputs are byte-identical within a run.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chiralgate
from chiralgate import config, scenarios
from chiralgate.scenarios import PSI0

import checks

POOL_SIZE = 8
PROTOCOLS = ("stap", "stirap")
SWEEP_STEPS = [10, 20, 40, 80, 160, 320]
# sizes across [500, 1000), odd and even alike
QASM_SIZES = [531 + 63 * j for j in range(POOL_SIZE)]

ORACLE_REF = Path(__file__).resolve().parent / "oracle_ref.json"

# Pulse draws near the defaults.  Every value validates and keeps final D
# >= 0.96.  The scenario workload takes its pulses from the grid over these
# ranges in ORACLE_REF (see oracle_ref.py); the other workloads draw them.
# The STIRAP amplitude of the sweep is narrower: at amplitude 1.5 the N=20
# Trotter error is 0.055-0.067, above criterion 5's 0.05.  That is genuine
# first-order splitting error, not a defect.  The boundary-slice area loss of
# `discretize` stays in every draw, because t_split and t1 vary; no point of
# the scenario grid puts t_split or t1 on a slice edge at N=20.
STAP_PULSES = {"alpha_m": (0.3, 0.4), "t_split": (1.1, 1.4)}
STIRAP_PULSES = {"ps_amplitude": (1.5, 2.5), "t1": (2.3, 2.8)}
SWEEP_STIRAP_PULSES = {"ps_amplitude": (1.9, 2.3), "t1": (2.3, 2.8)}


def _draw(rng, ranges: dict) -> dict:
    return {k: round(float(rng.uniform(lo, hi)), 6) for k, (lo, hi) in ranges.items()}


def _raw(rng, protocol: str, stirap_ranges: dict, **extra) -> dict:
    pulses = _draw(rng, STAP_PULSES if protocol == "stap" else stirap_ranges)
    return {"protocol": protocol, "pulses": pulses, "enantiomer": "both",
            "seed": int(rng.integers(0, 2**31 - 1)), **extra}


@functools.cache
def oracle_ref() -> dict:
    """The committed grid of scenario pulses and their final oracle populations."""
    with open(ORACLE_REF) as fh:
        return json.load(fh)


def make_pool(workload: str, seed: int) -> list[dict]:
    """POOL_SIZE operation inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    order = rng.permutation(POOL_SIZE)
    if workload == "scenario":
        # the seed picks POOL_SIZE grid points per protocol and their order
        ref = oracle_ref()
        picks = {p: rng.choice(len(ref[p]), POOL_SIZE, replace=False) for p in PROTOCOLS}
    pool = []
    for j in order:
        if workload == "scenario":
            grid = [int(picks[p][j]) for p in PROTOCOLS]
            raws = [{"protocol": p, "pulses": dict(ref[p][g]["pulses"]), "enantiomer": "both",
                     "seed": int(rng.integers(0, 2**31 - 1)), "n_steps": 20,
                     "oracle_steps": ref["oracle_steps"]}
                    for p, g in zip(PROTOCOLS, grid)]
            pool.append({"configs": raws, "grid": grid})
        elif workload == "trotter-sweep":
            raws = [_raw(rng, p, SWEEP_STIRAP_PULSES) for p in PROTOCOLS]
            pool.append({"configs": raws, "steps": list(SWEEP_STEPS)})
        else:
            # STAP takes one end of the size grid and STIRAP the other, so
            # every operation does about the same work
            sizes = {"stap": QASM_SIZES[j], "stirap": QASM_SIZES[-1 - j]}
            raws = [_raw(rng, p, STIRAP_PULSES, n_steps=sizes[p]) for p in PROTOCOLS]
            pool.append({"configs": raws})
    return pool


# -- untimed references --------------------------------------------------------

def statevector_reference(raw: dict) -> dict[str, np.ndarray]:
    """Final populations of run_statevector on the compiled circuits."""
    cfg = config.validate_config(raw)
    disc = chiralgate.discretize(cfg.build_schedule(), cfg.n_steps)
    out = {}
    for hand in (chiralgate.LEFT, chiralgate.RIGHT):
        circuit = chiralgate.compile_protocol(disc, hand, cfg.protocol, ps_order=cfg.ps_order,
                                              erratum_s_gate=cfg.erratum_s_gate)
        _, psi = chiralgate.run_statevector(circuit, PSI0)
        out[f"{cfg.protocol}_{hand.label}.qasm"] = np.abs(psi) ** 2
    return out


@dataclass
class State:
    """What the checks remember across the operations of one run."""
    refs: list = field(default_factory=list)       # per pool entry
    seen: dict = field(default_factory=dict)       # (pool index, protocol) -> first outputs


def prepare(workload: str, pool: list[dict]) -> State:
    if workload == "scenario":
        ref = oracle_ref()
        refs = [[{hand: np.array(pops) for hand, pops in ref[p][g]["final"].items()}
                 for p, g in zip(PROTOCOLS, inp["grid"])] for inp in pool]
    elif workload == "qasm-export":
        refs = [[statevector_reference(raw) for raw in inp["configs"]] for inp in pool]
    else:
        refs = [None] * len(pool)
    return State(refs)


# -- the timed operation -------------------------------------------------------

def run_op(workload: str, inp: dict, out_dir: str) -> list:
    """One operation; entry points are looked up at call time so the traced
    run sees its wrappers."""
    results = []
    for raw in inp["configs"]:
        cfg = config.validate_config(raw)
        target = os.path.join(out_dir, cfg.protocol)
        if workload == "scenario":
            results.append(scenarios.run_scenario(cfg, target))
        elif workload == "trotter-sweep":
            results.append(scenarios.sweep_trotter(cfg, inp["steps"]))
        else:
            results.append(scenarios.export_qasm(cfg, target))
    return results


def check_op(workload: str, state: State, index: int, inp: dict, results: list,
             out_dir: str) -> None:
    """Raise checks.CheckFailed unless every output of the operation is right."""
    j = index % len(state.refs)
    for k, (raw, result) in enumerate(zip(inp["configs"], results)):
        target = os.path.join(out_dir, raw["protocol"])
        key = (j, raw["protocol"])
        if workload == "trotter-sweep":
            checks.check_sweep(result, inp["steps"])
            outputs = result
        else:
            outputs = checks.dir_digests(target)
        if workload == "scenario":
            checks.check_scenario(target, result, state.refs[j][k], config.ScenarioConfig.shots)
        elif workload == "qasm-export":
            names = sorted(os.path.basename(p) for p in result)
            checks.require(names == sorted(state.refs[j][k]),
                           f"exported files {names} != {sorted(state.refs[j][k])}")
            if key not in state.seen:   # a byte-identical repeat needs no second replay
                for path in result:
                    checks.check_qasm(path, state.refs[j][k][os.path.basename(path)])
        first = state.seen.setdefault(key, outputs)
        checks.require(first == outputs,
                       f"{raw['protocol']} config {j}: outputs differ from an earlier run")


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir) for f in files)


WORKLOADS = {
    "scenario": "run_scenario (`chiralgate run`), n_steps=20, oracle_steps=2000, "
                "CSV/counts/report files written",
    "trotter-sweep": f"sweep_trotter over N={SWEEP_STEPS}",
    "qasm-export": f"export_qasm, STAP and STIRAP at paired N from {QASM_SIZES}",
}
