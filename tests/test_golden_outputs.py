"""Golden outputs: sha256 digests of ``results.csv`` and ``summary.csv``
over a grid of learners, schedules, graphs and probability modes.

The digests in ``fixtures/golden_outputs.json`` pin the harness output
byte for byte, so a change that alters any number fails here.  Regenerate
them only when an output changes on purpose:

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from graphbandit.environment import StochasticGapAdversary
from graphbandit.graph import NominalGraph
from graphbandit.harness import ExperimentConfig, emit_results, run_experiment
from graphbandit.policies import ALGORITHMS
from graphbandit.schedulers import parse_schedule

FIXTURE = Path(__file__).parent / "fixtures" / "golden_outputs.json"

SCHEDULES = ("fixed:0.1", "inverse-sqrt", "doubling")
INFORMATIVE_ONLY = ("exp3-ip",)


def sparse_graph() -> NominalGraph:
    adj = np.random.default_rng(12).random((12, 12)) < 0.25
    np.fill_diagonal(adj, True)
    return NominalGraph(adj)


GRAPHS = {
    "complete5": (lambda: NominalGraph.complete(5), ("equal", 0.5), 0.5),
    "sparse12": (sparse_graph, ("uniform", 0.3, 0.9), 0.3),
}


def grid():
    for graph_name in GRAPHS:
        for schedule in SCHEDULES:
            for mode in ("informative", "uninformative"):
                for algorithm in ALGORITHMS:
                    if mode == "uninformative" and algorithm in INFORMATIVE_ONLY:
                        continue
                    yield f"{graph_name}/{schedule}/{mode}/{algorithm}"


def config(point: str) -> ExperimentConfig:
    graph_name, schedule, mode, algorithm = point.split("/")
    make_graph, prob_generator, epsilon = GRAPHS[graph_name]
    return ExperimentConfig(
        algorithms=(algorithm,),
        graph=make_graph(),
        prob_generator=prob_generator,
        adversary=StochasticGapAdversary(gap=0.2),
        horizon=400,
        probability_mode=mode,
        runs=2,
        schedule=parse_schedule(schedule),
        min_observations=5,
        epsilon=epsilon,
        seed=7,
    )


def outcome(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """The digests of one experiment's outputs, or the error it raises."""
    try:
        result = run_experiment(cfg)
    except ValueError as exc:  # pinned: the known doubling abort at K >= 8
        return {"error": f"{type(exc).__name__}: {exc}"}
    emit_results(result, out_dir)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ("results.csv", "summary.csv")}


def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("point", list(grid()))
def test_outputs_match_golden_digests(point, tmp_path):
    assert outcome(config(point), tmp_path) == golden()[point]


def test_grid_matches_fixture():
    assert sorted(grid()) == sorted(golden())


def test_informative_doubling_abort_is_pinned():
    errors = [p for p, v in golden().items() if "error" in v]
    assert errors and all(p.startswith("sparse12/doubling/") for p in errors)


def test_process_pool_matches_serial(tmp_path, monkeypatch):
    """The serial run fills whatever the graph caches; the workers then
    receive that graph pickled, and must reproduce the same bytes."""
    point = "sparse12/inverse-sqrt/uninformative/exp3-gr"
    cfg = config(point)
    serial = outcome(cfg, tmp_path / "serial")
    monkeypatch.setenv("GRAPHBANDIT_THREADS", "2")
    assert outcome(cfg, tmp_path / "pool") == serial == golden()[point]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {point: outcome(config(point), Path(tmp) / point.replace("/", "_")) for point in grid()}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
