"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    [f"policies.{a}.explore_rounds" for a in ("exp3", "exp3-dom", "exp3-ip", "exp3-up", "exp3-gr")]
    + [
        "policies.geometric_resample.calls",
        "policies.geometric_resample.cap_hit_frac",
        "schedulers.restarts",
        "schedulers.epoch_advances",
        "environment.observed_per_round",
        "environment.realize_feedback.calls",
        "harness.episodes",
        "trace.spans",
    ]
)


@pytest.fixture(scope="module")
def program():
    """The worker's modules, with graphbandit imported from this checkout."""
    import tracer
    import worker
    import workloads

    original = Path.cwd()
    try:
        os.chdir(ROOT)
        worker.import_program()
    finally:
        os.chdir(original)
    return worker, workloads, tracer


def _traced(definition, inputs, out_dir, tracer_module):
    tracer = tracer_module.Tracer()
    with tracer.installed():
        state = definition.setup(inputs)
        lo, setup_counts = tracer.mark()
        outcome = definition.run(state, out_dir)
    metrics = tracer_module.per_layer_metrics(
        setup=tracer.spans(0, lo), setup_counts=setup_counts, reps=tracer.spans(lo),
        rep_counts=tracer.counters, n_reps=1, checks_failed=outcome.failed,
        traced_s=1.0, traced_rate=1.0, overhead=1.0,
    )
    return outcome, metrics


@pytest.mark.parametrize("name", ["sparse-k50-doubling", "oracle"])
def test_tracing_changes_no_output_and_counts_repeat(program, name, tmp_path):
    worker, workloads, tracer_module = program
    definition = workloads.WORKLOADS[name]
    inputs = definition.generate(7, tmp_path)
    untraced = definition.run(definition.setup(inputs), tmp_path / "plain")
    first, first_metrics = _traced(definition, inputs, tmp_path / "traced1", tracer_module)
    second, second_metrics = _traced(definition, inputs, tmp_path / "traced2", tracer_module)

    assert first.digests == untraced.digests
    assert second.digests == untraced.digests
    assert untraced.problems == [] and first.problems == []
    for metric in EXACT_COUNTS:
        assert first_metrics[metric] == second_metrics[metric], metric
    if name == "sparse-k50-doubling":
        assert first_metrics["harness.episodes"]["value"] == 5
        assert first_metrics["policies.exp3-gr.explore_rounds"]["value"] > 0
        assert first_metrics["schedulers.restarts"]["value"] > 0


def test_wrappers_leave_attributes_as_found(program):
    _, _, tracer_module = program
    import graphbandit
    from graphbandit import environment, estimator, experts, graph, harness, oracles, policies

    modules = (graphbandit, environment, estimator, experts, graph, harness, oracles, policies)
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    before = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]

    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert harness.run_experiment is not before[modules.index(harness)]["run_experiment"]

    after = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    assert len(before) == len(after)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for key in old:
            assert new[key] is old[key], key


def test_benchmark_json_matches_the_code(program):
    worker, workloads, tracer_module = program
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer_module.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["work_per_s", "setup_s", "peak_rss_mb"]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
