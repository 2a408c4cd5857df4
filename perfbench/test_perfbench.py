"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import sys

import pytest

import run  # pins the BLAS threads before numpy loads
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_plan(tmp_path):
    """One small segment scenario at budget 1: every stage, in about 1 s."""
    doc = workloads.sweep_small(3)[0]
    doc["grid"] = {}
    doc["template"]["budget"] = 1
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    run.OUT.mkdir(parents=True, exist_ok=True)
    return run.Call(str(path), "selftest")


def test_metric_names(spec):
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.plan_bytes(name, 7) == workloads.plan_bytes(name, 7)
        assert workloads.plan_bytes(name, 7) != workloads.plan_bytes(name, 8)


def test_traced_counts_repeat_and_wrappers_go(spec, tmp_path):
    call = _tiny_plan(tmp_path)
    call.run()
    from dyadica import harness, operators

    originals = (harness.run_scenario, operators.weighted_apply,
                 dict(harness._STAGES))
    per_layer = [m["name"] for m in spec["per_layer"]]
    tracer = tracing.Tracer()
    rows = []
    for _ in range(2):
        tracer.rec.clear()
        tracer.install()
        try:
            assert "harness.run_scenario" in tracer.leftovers()
            _, reports, error = call.run()
        finally:
            tracer.restore()
        assert error is None and reports
        rows.append(run.layer_metrics(tracer, per_layer))
    assert tracer.missing == []
    assert tracer.leftovers() == []
    assert (harness.run_scenario, operators.weighted_apply,
            dict(harness._STAGES)) == originals
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [n for n in per_layer if units[n] == "count"]
    assert counts
    for name in counts:
        assert rows[0][name] == rows[1][name], name
    assert rows[0]["operators.weighted_apply.calls"] > 0
    assert rows[0]["norms.lp_norm.calls"] > 0


def test_spans_cover_each_stage(spec, tmp_path):
    call = _tiny_plan(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call.run()
    finally:
        tracer.restore()
    fig = run.layer_metrics(
        tracer, [f"stage.{s}.cover_frac" for s in run.STAGES])
    for stage, frac in fig.items():
        assert frac >= 0.9, (stage, frac)


def test_digest_ignores_timings_and_tolerances():
    report = {"checks": [{"name": "a", "status": "pass", "constant": 1.5,
                          "witness": None}],
              "constants": {"a0": 1.0}, "timings": {"space": 0.1},
              "tolerances": {"x": 1e-12}}
    other = dict(report, timings={"space": 9.9}, tolerances={})
    assert run.outcome_digest(report) == run.outcome_digest(other)
    moved = dict(report, constants={"a0": 1.0000001})
    assert run.outcome_digest(report) != run.outcome_digest(moved)


def test_annotations_cover_every_metric(spec):
    with open(run.HERE / "metrics.json", encoding="utf-8") as fh:
        notes = json.load(fh)
    annotated = [m for layer in notes["layers"].values()
                 for m in layer["metrics"]]
    assert sorted(annotated) == sorted(m["name"] for m in spec["per_layer"])
    assert set(notes["workloads"]) == set(workloads.WORKLOADS)


def test_setup_sample_and_host_probe_time_real_work():
    run.OUT.mkdir(parents=True, exist_ok=True)
    assert 0.0 < run.setup_sample("sweep-small", 3) < 60.0
    assert 0.0 < run.host_probe() < 60.0


def test_host_adjustment_divides_by_the_probe_factor():
    fast, slow = [run.PROBE_REFERENCE_S] * 3, [2 * run.PROBE_REFERENCE_S] * 3
    assert run.host_factor(fast, fast) == pytest.approx(1.0)
    assert run.host_factor(fast + slow, slow) == pytest.approx(2.0)
    report = {"scenario": {"space": {"kind": "k", "n": 4}, "seed": 0},
              "timings": {"space": 0.4, "theorem-a": 1.0}}
    sums = run.stage_sums([[report], [report], [report]], [1.0, 2.0, 4.0])
    assert sums["space"] == pytest.approx(0.2)
    assert sums["theorem-a"] == pytest.approx(0.5)
    assert sums["dyadic"] == 0.0
