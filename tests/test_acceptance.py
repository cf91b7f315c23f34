"""End-to-end acceptance gate.

Each test exercises one numbered criterion and prints a single PASS/FAIL
line (run with -s to see them all even when everything is green).
"""

import json
import math
import os

import numpy as np
import pytest

from chiralgate.circuits import (Circuit, circuit_unitary, compile_p_step,
                                 compile_protocol, compile_q_step,
                                 compile_s_step, phase_aligned_distance,
                                 run_statevector)
from chiralgate.config import validate_config
from chiralgate.hamiltonians import (build_h_ps, build_h_q, dark_state,
                                     adiabatic_frame_couplings, lambda_pm,
                                     predict_r_final, stap_generator,
                                     stirap_generator)
from chiralgate.propagate import evolve_piecewise_exact
from chiralgate.pulses import (LEFT, RIGHT, default_stap_schedule,
                               default_stirap_schedule, discretize,
                               mixing_angle, mixing_angle_rate)
from chiralgate.scenarios import ingest_counts, run_scenario, sweep_trotter
from scipy.linalg import expm

PSI0 = np.array([1, 0, 0, 0], dtype=complex)


def _verdict(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def stap_oracles():
    s = default_stap_schedule()
    out = {}
    for hand in (LEFT, RIGHT):
        out[hand.label] = evolve_piecewise_exact(
            stap_generator(s, hand), PSI0, 0.0, s.duration, 2000, hand.label)
    out["schedule"] = s
    return out


@pytest.fixture(scope="module")
def stirap_oracles():
    s = default_stirap_schedule()
    out = {}
    for hand in (LEFT, RIGHT):
        out[hand.label] = evolve_piecewise_exact(
            stirap_generator(s, hand), PSI0, 0.0, s.duration, 2000, hand.label)
    out["schedule"] = s
    return out


def test_criterion_01_q_stage_superposition():
    s = default_stap_schedule()
    finals = {}
    for hand in (LEFT, RIGHT):
        gen = stap_generator(s, hand)
        tr = evolve_piecewise_exact(gen, PSI0, 0.0, s.t_split, 2000)
        finals[hand.label] = tr.final_state
    pops_ok = all(
        abs(abs(f[0]) ** 2 - 0.5) <= 1e-6 and abs(abs(f[2]) ** 2 - 0.5) <= 1e-6
        for f in finals.values())
    # relative phase pi on the |10> amplitude between L and R
    rel = (finals["L"][2] / finals["L"][0]) / (finals["R"][2] / finals["R"][0])
    phase_ok = abs(rel + 1.0) < 1e-6
    _verdict(1, pops_ok and phase_ok,
             f"Q-stage pops 0.5/0.5 within 1e-6 and L/R relative phase pi "
             f"(pops_ok={pops_ok}, rel={rel:.2e})")


def test_criterion_02_stap_transfer(stap_oracles):
    left, right = stap_oracles["L"].final(), stap_oracles["R"].final()
    pred = np.abs(predict_r_final(stap_oracles["schedule"])) ** 2
    ok = (left[2] >= 0.98 and right[2] <= 0.02
          and abs(right[0] - pred[0]) <= 1e-2 and abs(right[3] - pred[3]) <= 1e-2)
    _verdict(2, ok, f"L P10={left[2]:.6f} (>=0.98), R P10={right[2]:.2e} "
                    f"(<=0.02), R vs prediction dev="
                    f"{max(abs(right[0]-pred[0]), abs(right[3]-pred[3])):.2e}")


def test_criterion_03_counteradiabatic_cancellation():
    s = default_stap_schedule()
    ts = np.linspace(s.t_split, s.t_f, 2000)
    max_amp = max(max(abs(x) for x in s.ps(t)) for t in ts)
    worst = max(max(abs(l) for l in lambda_pm(s, t)) for t in ts)
    ok = worst < 1e-9 * max_amp
    _verdict(3, ok, f"max|lambda|={worst:.2e} vs bound {1e-9 * max_amp:.2e}")


def test_criterion_04_adiabatic_frame_coupling():
    s = default_stirap_schedule()
    worst = 0.0
    for t in np.linspace(s.t1 + 0.2, s.t_f - 0.2, 100):
        _, coupling = adiabatic_frame_couplings(s, t)
        want = abs(mixing_angle_rate(s, t)) / math.sqrt(2)
        worst = max(worst, abs(coupling - want) / want)
    ok = worst < 1e-6
    _verdict(4, ok, f"dark-bright coupling rel err (100 times) max={worst:.2e}")


def test_criterion_05_trotter_scaling():
    cfg = validate_config({"protocol": "stirap"})
    table = sweep_trotter(cfg, [10, 20, 40, 80])
    slope = table["slope"]
    n20 = next(r for r in table["rows"] if r["n"] == 20)
    ok = (-1.4 <= slope <= -0.6) and n20["final_dev"] <= 0.05
    _verdict(5, ok, f"slope={slope:.3f} in [-1.4,-0.6], N=20 final-state "
                    f"deviation={n20['final_dev']:.4f} <= 0.05")


def test_criterion_06_gate_step_exactness():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(-3, 3)
        which = rng.integers(3)
        if which == 0:
            hand = LEFT if rng.random() < 0.5 else RIGHT
            u = circuit_unitary(Circuit(compile_q_step(theta, hand)))
            ref = expm(-1j * build_h_q(1.0, hand) * theta)
        elif which == 1:
            u = circuit_unitary(Circuit(compile_p_step(theta)))
            ref = expm(-1j * build_h_ps(1.0, 0.0) * theta)
        else:
            u = circuit_unitary(Circuit(compile_s_step(theta)))
            ref = expm(-1j * build_h_ps(0.0, 1.0) * theta)
        worst = max(worst, phase_aligned_distance(u, ref))
    ok = worst < 1e-10
    _verdict(6, ok, f"worst step-vs-exponential distance={worst:.2e} (100 random steps)")


def test_criterion_07_dark_nullity_and_leakage(stirap_oracles, stap_oracles):
    s = stirap_oracles["schedule"]
    worst = 0.0
    for t in np.linspace(s.t1 + 1e-6, s.t_f, 500):
        op, os_ = s.ps(t)
        h = build_h_ps(op, os_)
        worst = max(worst, np.linalg.norm(h @ dark_state(mixing_angle(op, os_))))
    leak = max(np.max(tr.probs[:, 1]) for tr in
               (stirap_oracles["L"], stirap_oracles["R"],
                stap_oracles["L"], stap_oracles["R"]))
    ok = worst < 1e-12 and leak == 0.0
    _verdict(7, ok, f"max ||H_PS dark||={worst:.2e} < 1e-12, max P01={leak:.1e}")


def test_criterion_08_molecule_table():
    from chiralgate.molecule import builtin_propanediol, consistency_check, j1_energies
    constants, _, table = builtin_propanediol("corrected")
    _, e111, e110 = j1_energies(constants)
    vals_ok = (abs(e111 - 11363.01) < 0.5 and abs(e110 - 12212.15) < 0.5
               and abs((e110 - e111) - 849.14) < 0.5)
    printed, _, _ = builtin_propanediol("printed")
    flags = consistency_check(printed, table)
    ok = vals_ok and len(flags) == 2
    _verdict(8, ok, f"corrected constants give ({e111:.2f}, {e110:.2f}, "
                    f"{e110 - e111:.2f}) MHz; printed-A flags={len(flags)}")


def test_criterion_09_counts_ingestion():
    stirap = ingest_counts({"00": 4100, "10": 900, "shots": 5000})
    stap = ingest_counts({"00": 2600, "10": 2400, "shots": 5000})
    ok = (stirap["populations"]["00"]["population"] == 0.82
          and stirap["populations"]["10"]["population"] == 0.18
          and stap["populations"]["00"]["population"] == 0.52
          and stap["populations"]["10"]["population"] == 0.48)
    _verdict(9, ok, "hardware checkpoints reproduce 0.82/0.18 and 0.52/0.48")


def test_criterion_10_determinism_and_unitarity(tmp_path):
    cfg = validate_config({"protocol": "stap", "n_steps": 10,
                           "oracle_steps": 400, "seed": 5})
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(a))
    run_scenario(cfg, str(b))
    identical = all((a / n).read_bytes() == (b / n).read_bytes()
                    for n in sorted(os.listdir(a)))
    s = default_stap_schedule()
    tr = evolve_piecewise_exact(stap_generator(s, LEFT), PSI0, 0, s.duration, 500)
    norm_ok = abs(np.linalg.norm(tr.final_state) - 1.0) < 1e-10
    c = compile_protocol(discretize(s, 20), LEFT, "stap")
    _, fin = run_statevector(c, PSI0)
    norm_ok = norm_ok and abs(np.linalg.norm(fin) - 1.0) < 1e-10
    ok = identical and norm_ok
    _verdict(10, ok, f"byte-identical outputs={identical}, norms within 1e-10={norm_ok}")


def test_criterion_11_speedup_bookkeeping(stap_oracles):
    stap = default_stap_schedule()
    stirap = default_stirap_schedule()
    durations_ok = (stap.duration == 2.5 and stirap.duration == 10.0)
    d_stap = abs(stap_oracles["L"].final()[2] - stap_oracles["R"].final()[2])
    # STIRAP truncated at the STAP duration
    finals = {}
    for hand in (LEFT, RIGHT):
        tr = evolve_piecewise_exact(stirap_generator(stirap, hand), PSI0,
                                    0.0, stap.duration, 1000)
        finals[hand.label] = tr.final()
    d_stirap_25 = abs(finals["L"][2] - finals["R"][2])
    ok = durations_ok and d_stap >= 0.96 and d_stirap_25 < d_stap
    _verdict(11, ok, f"durations 2.5/10 us, STAP D(t_f)={d_stap:.4f} >= 0.96, "
                     f"STIRAP D(2.5 us)={d_stirap_25:.4f} strictly lower")
