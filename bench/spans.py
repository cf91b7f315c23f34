"""Span recorder for the traced benchmark run.

The program has no tracing of its own, so spans are recorded from outside:
`instrument` replaces the public functions where `chiralgate.scenarios` and
`chiralgate.config` look them up (and two `PopulationTrace` methods) with
wrappers that record a span per call, and restores them on exit.  Spans and
counts stay in memory; `dump` writes them out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

OP = "op"                   # root span of one operation
ENTRY = "scenarios.entry"   # span of run_scenario / sweep_trotter / export_qasm


class Recorder:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = -1
        self.missing: set[str] = set()       # boundaries the program no longer has
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count=None):
        """fn, recording a span per call; count(args, kwargs, result) yields
        (counter, amount) pairs charged to the current op."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, out):
                    self.counts[(self.op, key)] += amount
            return out
        return traced

    @contextlib.contextmanager
    def op_span(self, op: int):
        self.op = op
        span = [OP, perf_counter(), 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent's [start, end] or overlap an earlier
        sibling.  With none, the children of a span cover at most its
        duration, so the self times of an op sum to no more than its wall
        time."""
        errors = []
        last_end: dict[int, float] = {}     # parent -> end of its latest child
        for s in self.spans:
            name, start, end, parent = s[:4]
            if end < start:
                errors.append(f"{name} ends before it starts")
            if parent < 0:
                continue
            p = self.spans[parent]
            if start < p[1] or end > p[2]:
                errors.append(f"{name} leaves its parent {p[0]}")
            if start < last_end.get(parent, start):
                errors.append(f"{name} overlaps an earlier child of {p[0]}")
            last_end[parent] = end
        return errors

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": [[s[0], round((s[1] - t0) * 1e9), round((s[2] - t0) * 1e9),
                                  s[3], s[4]] for s in self.spans],
                       "counts": [[op, key, n] for (op, key), n in sorted(self.counts.items())]},
                      fh)


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Patch the layer boundaries of chiralgate for the duration of the block."""
    from chiralgate import config, propagate, scenarios

    saved = []

    def patch(owner, attr, name, count=None, factory=False):
        original = getattr(owner, attr, None)
        if original is None:    # its metrics read 0; run.py prints the gap
            rec.missing.add(f"{owner.__name__}.{attr}")
            return
        saved.append((owner, attr, original))
        if factory:     # a generator factory: trace the closure it returns
            wrapped = functools.wraps(original)(
                lambda *a, **k: rec.wrap(original(*a, **k), name))
        else:
            wrapped = rec.wrap(original, name, count)
        setattr(owner, attr, wrapped)

    patch(config, "validate_config", "config.validate")
    patch(config.ScenarioConfig, "build_schedule", "pulses.build_schedule")
    patch(scenarios, "discretize", "pulses.discretize",
          lambda a, k, out: [("pulses.slices", out.m)])
    patch(scenarios, "stap_generator", "hamiltonians.generator", factory=True)
    patch(scenarios, "stirap_generator", "hamiltonians.generator", factory=True)
    patch(scenarios, "predict_r_final", "hamiltonians.predict_r")
    patch(scenarios, "evolve_piecewise_exact", "propagate.oracle",
          lambda a, k, out: [("propagate.oracle_steps", len(out.times) - 1)])
    patch(propagate.PopulationTrace, "at", "propagate.trace_at")
    patch(propagate.PopulationTrace, "to_csv", "propagate.to_csv",
          lambda a, k, out: [("propagate.csv_bytes", len(out))])
    patch(scenarios, "compile_protocol", "circuits.compile",
          lambda a, k, out: [("circuits.macro_gates", len(out.gates))])
    patch(scenarios, "run_statevector", "circuits.statevector",
          lambda a, k, out: [("circuits.gates_applied", len(a[0].gates))])
    patch(scenarios, "expand_circuit", "circuits.expand",
          lambda a, k, out: [("circuits.native_gates", len(out.gates))])
    patch(scenarios, "sample_measurements", "circuits.sample")
    patch(scenarios, "circuit_to_qasm", "scenarios.qasm",
          lambda a, k, out: [("scenarios.qasm_bytes", len(out))])
    patch(scenarios, "report_discrimination", "scenarios.report")
    for entry in ("run_scenario", "sweep_trotter", "export_qasm"):
        patch(scenarios, entry, ENTRY)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
