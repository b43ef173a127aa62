"""The benchmark's span tracer still installs on this tree.

``perfbench/tracer.py`` replaces graphbandit's functions and methods by name
(module attributes, and class attributes that must be defined on the class
named), so renaming or moving one of them breaks every traced benchmark run.
The tracer is loaded by path, without adding ``perfbench`` to ``sys.path``:
its modules ``run`` and ``worker`` would shadow other imports.
"""

import importlib.util
from pathlib import Path

from graphbandit.environment import StochasticGapAdversary
from graphbandit.graph import NominalGraph
from graphbandit.harness import ExperimentConfig, run_experiment
from graphbandit.schedulers import DoublingSchedule

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("graphbandit_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    monkeypatch.setenv("GRAPHBANDIT_THREADS", "1")  # the wrappers see only this process's calls
    tracer = load_tracer().Tracer()
    cfg = ExperimentConfig(
        algorithms=("exp3", "exp3-up", "exp3-gr"), graph=NominalGraph.complete(3), prob_generator=("equal", 0.5),
        adversary=StochasticGapAdversary(gap=0.2), horizon=40, probability_mode="uninformative", runs=1,
        schedule=DoublingSchedule(), min_observations=2, epsilon=0.5, seed=3,
    )
    with tracer.installed():
        patched = list(tracer._undo)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        run_experiment(cfg)
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    assert tracer.counters["rounds"] == 3 * 40
    assert tracer.counters["policies.exp3-up.explore_rounds"] > 0
    assert tracer.counters["policies.exp3-gr.explore_rounds"] > 0
    assert tracer.counters["epoch_advances"] > 0
    assert {"harness.run_experiment", "environment.run_episode", "graph.greedy_dominating_set"} <= set(tracer.names)
