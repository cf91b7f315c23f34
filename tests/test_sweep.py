"""sweep_trotter runs its N list in batches (one discretization pass, one
product pass and one oracle interpolation per batch); its table must be the
per-N loop's, row for row."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralgate import scenarios
from chiralgate.circuits import compile_protocol, run_statevector
from chiralgate.config import validate_config
from chiralgate.pulses import LEFT, discretize
from chiralgate.scenarios import PSI0, _oracle, _sweep_batches, sweep_trotter


def per_n_sweep(cfg, steps_list):
    """The sweep table, one N at a time, from the public building blocks."""
    schedule = cfg.build_schedule()
    oracle = _oracle(cfg, schedule, [LEFT])["L"]
    rows = []
    for n in steps_list:
        circuit = compile_protocol(discretize(schedule, n), LEFT, cfg.protocol,
                                   ps_order=cfg.ps_order, erratum_s_gate=cfg.erratum_s_gate)
        trace, _ = run_statevector(circuit, PSI0)
        times = np.minimum(trace.times[1:], schedule.duration)    # N dt can round past it
        devs = np.max(np.abs(trace.probs[1:] - oracle.at(times)), axis=1)
        rows.append({"n": n, "max_dev": float(devs.max()), "final_dev": float(devs[-1])})
    slope = np.polyfit(np.log([r["n"] for r in rows]), np.log([r["max_dev"] for r in rows]), 1)[0]
    return {"rows": rows, "slope": float(slope)}


def assert_tables_match(got, want):
    assert [r["n"] for r in got["rows"]] == [r["n"] for r in want["rows"]]
    for a, b in zip(got["rows"], want["rows"]):
        assert abs(a["max_dev"] - b["max_dev"]) <= 1e-13
        assert abs(a["final_dev"] - b["final_dev"]) <= 1e-13
    # every max_dev here is above 1e-4, so rows within 1e-13 move each log
    # by under 1e-9 and the fitted slope by less
    assert abs(got["slope"] - want["slope"]) <= 1e-8


steps_lists = st.lists(st.one_of(st.integers(2, 12), st.integers(100, 1500)),
                       min_size=2, max_size=7).filter(lambda s: len(set(s)) >= 2)


@given(protocol=st.sampled_from(["stap", "stirap"]), ps_order=st.sampled_from(["ps", "sp"]),
       erratum=st.booleans(), steps=steps_lists)
@example(protocol="stap", ps_order="ps", erratum=False, steps=[320, 2, 40, 40, 1000, 7])
@example(protocol="stirap", ps_order="sp", erratum=True, steps=[2, 1500, 2, 3, 11, 640])
@example(protocol="stap", ps_order="ps", erratum=False, steps=[2, 549])   # 549 dt > t_f
@settings(max_examples=30, deadline=None)
def test_sweep_matches_per_n_loop(protocol, ps_order, erratum, steps):
    cfg = validate_config({"protocol": protocol, "ps_order": ps_order,
                           "erratum_s_gate": erratum, "oracle_steps": 500})
    table = sweep_trotter(cfg, steps)
    assert [r["n"] for r in table["rows"]] == steps     # order and duplicates kept
    assert_tables_match(table, per_n_sweep(cfg, steps))


def test_batches_respect_the_cap(monkeypatch):
    monkeypatch.setattr(scenarios, "SWEEP_BATCH_BLOCKS", 100)
    # 2 N gates each; 60 is over the cap and runs alone
    assert _sweep_batches([10, 20, 30, 2, 60, 5, 45, 50, 3]) == [
        [10, 20], [30, 2], [60], [5, 45], [50], [3]]
    assert _sweep_batches([2, 2]) == [[2, 2]]


def test_a_sweep_in_several_batches_matches_one_batch(monkeypatch):
    cfg = validate_config({"protocol": "stirap"})
    steps = [40, 10, 300, 20, 20, 80, 7]
    one_batch = sweep_trotter(cfg, steps)
    monkeypatch.setattr(scenarios, "SWEEP_BATCH_BLOCKS", 120)
    sizes = []
    batched = scenarios.run_statevectors
    monkeypatch.setattr(scenarios, "run_statevectors",
                        lambda circuits, psi0: sizes.append(len(circuits)) or batched(circuits, psi0))
    split = sweep_trotter(cfg, steps)
    assert sizes == [2, 1, 2, 1, 1]     # [40, 10], [300], [20, 20], [80], [7]
    assert_tables_match(split, one_batch)


@pytest.mark.parametrize("protocol", ["stap", "stirap"])
def test_one_n_batch_is_the_per_n_loop_exactly(monkeypatch, protocol):
    # a batch of one N has no padding and the run length of the one-item
    # kernel, so every row is the per-N loop's to the last bit
    monkeypatch.setattr(scenarios, "SWEEP_BATCH_BLOCKS", 1)
    cfg = validate_config({"protocol": protocol})
    steps = [10, 17, 20, 40, 333]
    assert sweep_trotter(cfg, steps)["rows"] == per_n_sweep(cfg, steps)["rows"]
