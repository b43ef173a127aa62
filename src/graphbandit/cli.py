"""Command-line interface.

Three subcommands:

* ``simulate`` - synthetic adversary, cumulative-regret output;
* ``dataset``  - CSV regression pipeline, running-MSE output;
* ``oracle``   - the Monte-Carlo expectation-identity suite.

Exit codes: 0 success, 2 configuration error, 3 runtime/contract error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .environment import FixedTableAdversary, StochasticGapAdversary, SwitchingAdversary
from .errors import ConfigError, ContractError, IngestError, InvariantError, PhaseOrderError, ProtocolError
from .experts import POOL_SIZE, DatasetBundle, build_dataset_bundle, load_csv, train_expert_pool
from .graph import NominalGraph, load_graph_file
from .harness import ExperimentConfig, emit_results, run_experiment
from .oracles import default_suite
from .policies import ALGORITHMS
from .schedulers import parse_schedule

CONFIG_EXIT = 2
RUNTIME_EXIT = 3


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", action="append", choices=ALGORITHMS, required=True,
                        help="algorithm to run (repeatable)")
    parser.add_argument("--graph", default="complete",
                        help="graph source: 'complete', 'bandit', or a graph literal file")
    parser.add_argument("--p", default="equal:0.25",
                        help="edge probabilities: equal:<v> or uniform:<lo>,<hi>")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--informative", dest="informative", action="store_true", default=True,
                      help="reveal the probability table to exp3-ip (default)")
    mode.add_argument("--uninformative", dest="informative", action="store_false",
                      help="hide the probability table from every learner")
    parser.add_argument("--runs", type=int, default=20, help="independent runs (default 20)")
    parser.add_argument("--schedule", default="inverse-sqrt",
                        help="learning-rate schedule: fixed:<eta>, inverse-sqrt, or doubling")
    parser.add_argument("--M", dest="min_observations", type=int, default=25,
                        help="per-edge sample floor for exp3-up/exp3-gr (default 25)")
    parser.add_argument("--xi", dest="confidence_width", type=float, default=1.0,
                        help="confidence width for exp3-up (default 1)")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="edge-probability lower bound (needed by exp3-gr doubling)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", type=Path, default=None, help="output directory for CSV results")


def _parse_prob_generator(text: str) -> tuple:
    kind, _, body = text.partition(":")
    try:
        return (kind, *map(float, body.split(",")))
    except ValueError:
        raise ConfigError(f"bad probability spec {text!r}; expected equal:<v> or uniform:<lo>,<hi>") from None


def _parse_adversary(text: str):
    kind, _, body = text.partition(":")
    parts = body.split(",")
    if kind == "switching" and len(parts) != 2:
        raise ConfigError(f"switching needs gap,period, got {text!r}")
    try:
        if kind == "gap":
            return StochasticGapAdversary(gap=float(body))
        if kind == "switching":
            return SwitchingAdversary(gap=float(parts[0]), period=int(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad adversary spec {text!r}: {exc}") from None
    if kind == "table":
        return FixedTableAdversary.from_csv(body)
    raise ConfigError(f"bad adversary spec {text!r}; expected gap:<g>, switching:<g>,<period>, or table:<csv>")


def _resolve_graph(args, num_experts: int | None) -> NominalGraph:
    """The graph, from a shorthand on ``num_experts`` experts or a graph file, which sets its own K."""
    if num_experts is not None and num_experts < 1:
        raise ConfigError(f"--K must be >= 1, got {num_experts}")
    if args.graph in ("complete", "bandit"):
        if num_experts is None:
            raise ConfigError(f"--graph {args.graph} needs --K")
        return (NominalGraph.complete if args.graph == "complete" else NominalGraph.bandit)(num_experts)
    return load_graph_file(args.graph)


def _build_config(args, graph, adversary=None, bundle=None, horizon=None) -> ExperimentConfig:
    return ExperimentConfig(
        algorithms=tuple(args.algo),
        graph=graph,
        prob_generator=_parse_prob_generator(args.p),
        adversary=adversary,
        bundle=bundle,
        horizon=horizon,
        probability_mode="informative" if args.informative else "uninformative",
        runs=args.runs,
        schedule=parse_schedule(args.schedule),
        min_observations=args.min_observations,
        confidence_width=args.confidence_width,
        epsilon=args.epsilon,
        seed=args.seed,
    )


def _finish(result, cfg, args) -> None:
    for algorithm in result.algorithms():
        print(f"{algorithm}: final {result.metric} {result.final_mean(algorithm):.6g} "
              f"+/- {result.final_std(algorithm):.6g} over {result.runs()} runs")
    if args.out is not None:
        emit_results(result, args.out)
        meta = {
            "algorithms": list(cfg.algorithms),
            "metric": result.metric,
            "runs": cfg.runs,
            "horizon": cfg.effective_horizon,
            "seed": cfg.seed,
            "probability_mode": cfg.probability_mode,
            "prob_generator": list(cfg.prob_generator),
            "p_tables": [table.tolist() for table in result.p_tables],
        }
        (Path(args.out) / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
        print(f"wrote {args.out}/results.csv, summary.csv, meta.json")


def _cmd_simulate(args) -> int:
    graph = _resolve_graph(args, args.num_experts)
    if args.num_experts not in (None, graph.num_experts):
        raise ConfigError(f"--K {args.num_experts} disagrees with {args.graph}, which has {graph.num_experts} experts")
    adversary = _parse_adversary(args.adversary)
    cfg = _build_config(args, graph, adversary=adversary, horizon=args.horizon)
    result = run_experiment(cfg)
    _finish(result, cfg, args)
    return 0


def _cmd_dataset(args) -> int:
    # Every flag is checked before the data is read, on a one-round stand-in bundle of the pool's fixed size.
    stand_in = DatasetBundle(np.zeros((POOL_SIZE, 1)), np.zeros(1), np.zeros((1, POOL_SIZE)), ())
    cfg = _build_config(args, _resolve_graph(args, POOL_SIZE), bundle=stand_in, horizon=args.horizon)
    target = int(args.target) if args.target.isdigit() else args.target
    dataset = load_csv(args.data, target, normalize=not args.no_normalize, split=args.split)
    cfg = dataclasses.replace(cfg, bundle=build_dataset_bundle(dataset, train_expert_pool(dataset)))
    result = run_experiment(cfg)
    _finish(result, cfg, args)
    return 0


def _cmd_oracle(args) -> int:
    if args.draws < 1 or args.seed < 0:
        raise ConfigError(f"--draws must be >= 1 and --seed >= 0, got {args.draws} and {args.seed}")
    checks = default_suite(draws=args.draws, seed=args.seed)
    failures = 0
    for check in checks:
        ok = check.passed(max_stderrs=4.0)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {check.describe()}")
    if failures:
        print(f"{failures}/{len(checks)} oracle checks failed")
        return RUNTIME_EXIT
    print(f"all {len(checks)} oracle checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphbandit",
                                     description="Expert-advice learners over uncertain feedback graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="synthetic adversary, regret output")
    _add_shared_flags(simulate)
    simulate.add_argument("--K", dest="num_experts", type=int, default=None,
                          help="number of experts (for the complete/bandit shorthands; must match a graph file)")
    simulate.add_argument("--T", dest="horizon", type=int, required=True, help="number of rounds")
    simulate.add_argument("--adversary", default="gap:0.1",
                          help="gap:<g> | switching:<g>,<period> | table:<csv> (default gap:0.1)")
    simulate.set_defaults(entry=_cmd_simulate)

    dataset = sub.add_parser("dataset", help="CSV regression pipeline, MSE output")
    _add_shared_flags(dataset)
    dataset.add_argument("--data", required=True, help="regression CSV path")
    dataset.add_argument("--target", required=True, help="target column name (or 0-based position)")
    dataset.add_argument("--split", type=float, default=0.10, help="training prefix fraction (default 0.10)")
    dataset.add_argument("--no-normalize", action="store_true", help="take feature/target values verbatim")
    dataset.add_argument("--T", dest="horizon", type=int, default=None,
                         help="cap on evaluation rounds (default: all rows after the prefix)")
    dataset.set_defaults(entry=_cmd_dataset)

    oracle = sub.add_parser("oracle", help="run the Monte-Carlo expectation-identity suite")
    oracle.add_argument("--draws", type=int, default=1_000_000, help="draws per check (default 1e6)")
    oracle.add_argument("--seed", type=int, default=20_240_601)
    oracle.set_defaults(entry=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.entry(args)
    except (ConfigError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except (ContractError, ProtocolError, PhaseOrderError, InvariantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except MemoryError as exc:  # numpy's message names the allocation it could not make
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
