"""Fast checks of the benchmark itself: every workload at a tiny step count.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import harness

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    w = harness.WORKLOADS[name]
    widths = w.gen.max_len - w.gen.min_len + 1
    return replace(w, batches_per_width=1, loss_steps=widths, loss_window=widths)


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def runs(request):
    w = tiny(request.param)
    return {trace: harness.run(w, seed=7, seconds=0.0, trace=trace, warmup_s=0.0) for trace in (False, True)}


def test_declared_metrics_emitted_with_units(runs):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = runs[trace].result()
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_step_matches_single_tape_step(runs):
    report = runs[True]
    assert report.checks["traced_vs_single_tape_rel"] <= harness.TRACE_REL_TOL
    assert report.checks["traced_records_gap"] == 0
    assert report.correct


def test_no_step_fails(runs):
    for report in runs.values():
        assert report.attempted >= 1
        assert report.failed == 0
        assert report.notes["fail_frac"] == 0.0
        assert report.correct, report.checks


def test_layer_spans_cover_the_traced_step(runs):
    assert 0.9 <= runs[True].metrics["trace.covered_frac"]["value"] <= 1.0


def test_equivalence_gate_catches_a_composition_that_drifts(monkeypatch):
    w = tiny("train_longline")
    st = harness.setup(w, seed=7)
    params = st.model.parameters()
    exact = harness.trace_equivalence(st.model, params, st.batches[0])
    assert exact["max_rel_err"] <= harness.TRACE_REL_TOL

    original = harness._context_out
    monkeypatch.setattr(harness, "_context_out", lambda branch, h: original(branch, harness.scale(h, 1.0 + 1e-6)))
    drifted = harness.trace_equivalence(st.model, params, st.batches[0])
    assert drifted["max_rel_err"] > harness.TRACE_REL_TOL
    assert drifted["records_traced"] != drifted["records_single_tape"]


def test_tail_percentile_keeps_ten_steps_beyond():
    steps = [float(i) for i in range(1, 41)]
    pct, value_ms = harness.tail(steps)
    assert pct == 75.0
    assert sum(s > value_ms / 1000 for s in steps) >= 10
    assert harness.tail(steps[:12]) == (100.0, 12000.0)
