"""The staged oracle (a closed-form Q stage, then one P/S batch for every
hand) against the per-hand full-grid evolve_piecewise_exact it stands in
for: the same grid, the same populations and final states to round-off."""

import json
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralgate.config import ScenarioConfig, validate_config
from chiralgate.hamiltonians import stap_generator, stirap_generator
from chiralgate.propagate import evolve_piecewise_exact
from chiralgate.pulses import LEFT, RIGHT
from chiralgate.scenarios import PSI0, _oracle

# final populations by midpoint stepping with scipy's expm on the benchmark's
# scenario grid, written by bench/oracle_ref.py and only read here
ORACLE_REF = Path(__file__).resolve().parent.parent / "bench" / "oracle_ref.json"
T_F = {"stap": 2.5, "stirap": 10.0}            # the default schedules' durations
SPLIT_KEY = {"stap": "t_split", "stirap": "t1"}
HANDS = {"L": [LEFT], "R": [RIGHT], "LR": [LEFT, RIGHT], "RL": [RIGHT, LEFT]}


def t_split_at(where: str, frac: float, n: int, t_f: float) -> float:
    """A stage boundary inside the run, exactly on a grid midpoint, or
    within half a step of 0 or of t_f; frac in [0, 1] picks it."""
    dt = t_f / n
    if where == "midpoint":
        return (min(n - 1, int(frac * n)) + 0.5) * dt
    if where == "near_start":
        return dt * (0.01 + 0.49 * frac)
    if where == "near_end":
        return t_f - 0.5 * dt * (1.0 - 0.99 * frac)
    return t_f * (0.1 + 0.8 * frac)


@given(protocol=st.sampled_from(sorted(T_F)), hands=st.sampled_from(sorted(HANDS)),
       n=st.integers(1, 3000),
       where=st.sampled_from(["inside", "midpoint", "near_start", "near_end"]),
       frac=st.floats(0.0, 1.0))
@example(protocol="stap", hands="LR", n=1, where="inside", frac=0.0)     # k = 0
@example(protocol="stirap", hands="LR", n=1, where="inside", frac=1.0)   # k = n
@example(protocol="stap", hands="RL", n=2000, where="midpoint", frac=0.5)
@example(protocol="stirap", hands="LR", n=3000, where="midpoint", frac=0.25)
@example(protocol="stap", hands="L", n=3000, where="near_end", frac=0.0)
@example(protocol="stirap", hands="R", n=2999, where="near_start", frac=1.0)
@settings(max_examples=60, deadline=None)
def test_staged_oracle_matches_full_grid_per_hand(protocol, hands, n, where, frac):
    t_f = T_F[protocol]
    # built directly: validate_config rejects the STAP P/S stages shorter than
    # one step that "near_end" draws, and the staged oracle must hold there too
    cfg = ScenarioConfig(protocol=protocol, oracle_steps=n,
                         pulses={SPLIT_KEY[protocol]: t_split_at(where, frac, n, t_f)})
    schedule = cfg.build_schedule()
    got = _oracle(cfg, schedule, HANDS[hands])
    make = stirap_generator if protocol == "stirap" else stap_generator
    # The P/S stage steps by (t_f - t_k)/(n - k), which differs from t_f/n by
    # round-off in t_f, so a phase w dt moves by about w eps t_f.  Below 1e-13
    # for every drive here but the STAP drives of a P/S stage a fraction of a
    # step long, which grow as 1/(t_f - t_split).
    drive = np.abs(make(schedule, LEFT)((np.arange(n) + 0.5) * (t_f / n))).max()
    tol = 1e-13 + 4 * np.finfo(float).eps * t_f * drive
    assert list(got) == [hand.label for hand in HANDS[hands]]
    for hand in HANDS[hands]:
        want = evolve_piecewise_exact(make(schedule, hand), PSI0, 0.0, t_f, n)
        trace = got[hand.label]
        assert trace.handedness == hand.label
        np.testing.assert_array_equal(trace.times, want.times)
        np.testing.assert_allclose(trace.probs, want.probs, rtol=0, atol=tol)
        np.testing.assert_allclose(trace.final_state, want.final_state, rtol=0, atol=tol)
        assert np.all(trace.probs[:, 1] == 0.0) and trace.final_state[1] == 0.0


def test_oracle_matches_committed_expm_reference():
    ref = json.loads(ORACLE_REF.read_text())
    worst = 0.0
    for protocol in ("stap", "stirap"):
        assert len(ref[protocol]) == 16
        for point in ref[protocol]:
            cfg = validate_config({"protocol": protocol, "pulses": point["pulses"],
                                   "oracle_steps": ref["oracle_steps"]})
            got = _oracle(cfg, cfg.build_schedule(), [LEFT, RIGHT])
            for label, want in point["final"].items():
                worst = max(worst, np.max(np.abs(got[label].probs[-1] - want)))
    assert worst <= 1e-9
