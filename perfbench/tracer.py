"""Span tracing around the calls into graphbandit's modules.

The tracer replaces module and class attributes with timing wrappers for the
duration of a ``with tracer.installed():`` block and puts the originals back
when it ends.  Each name is wrapped where its caller looks it up: the
learners call ``policies.sample_index`` (imported into ``policies``), so that
is the attribute replaced, not ``estimator.sample_index``.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out once, by ``save``.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("environment", "policies", "estimator", "schedulers", "graph", "experts", "harness", "oracles")
ALGORITHMS = ("exp3", "exp3-dom", "exp3-ip", "exp3-up", "exp3-gr")

# (metric name, unit).  ".us" metrics are per-call medians with a ".us_p99"
# twin; ".ms" metrics are per-call medians; ".s" metrics are seconds per
# repetition (per set-up for experts); the rest are counts per repetition.
PER_LAYER = (
    [
        ("environment.episode_self_us_per_round", "us"),
        ("environment.realize_feedback.us", "us"),
        ("environment.realize_feedback.us_p99", "us"),
        ("environment.realize_feedback.calls", "count"),
        ("environment.observed_per_round", "count"),
        ("environment.materialize.ms", "ms"),
    ]
    + [
        (f"policies.{a}.{m}", u)
        for a in ALGORITHMS
        for m, u in (("select_us", "us"), ("select_us_p99", "us"), ("update_us", "us"),
                     ("update_us_p99", "us"), ("explore_rounds", "count"))
    ]
    + [
        ("policies.geometric_resample.us", "us"),
        ("policies.geometric_resample.us_p99", "us"),
        ("policies.geometric_resample.calls", "count"),
        ("policies.geometric_resample.trials_mean", "count"),
        ("policies.geometric_resample.cap_hit_frac", "ratio"),
        ("policies.ResampleBuffer.edge_matrix.us", "us"),
        ("policies.ResampleBuffer.edge_matrix.us_p99", "us"),
        ("policies.ResampleBuffer.edge_matrix.calls", "count"),
        ("policies.ResampleBuffer.observe_row.us", "us"),
        ("policies.ResampleBuffer.observe_row.us_p99", "us"),
        ("policies.ResampleBuffer.observe_row.calls", "count"),
        ("policies.ResampleBuffer.grow.ms", "ms"),
        ("policies.ResampleBuffer.grow.calls", "count"),
        ("policies.exp3ip_pmf.us", "us"),
        ("policies.exp3ip_pmf.us_p99", "us"),
        ("policies.observation_probs.us", "us"),
        ("policies.observation_probs.us_p99", "us"),
        ("policies.estimated_observation_prob.us", "us"),
        ("policies.estimated_observation_prob.us_p99", "us"),
        ("policies.estimated_observation_prob.calls", "count"),
        ("policies.ProbabilityEstimatorState.observe_row.us", "us"),
        ("policies.ProbabilityEstimatorState.observe_row.us_p99", "us"),
        ("estimator.Pmf.us", "us"),
        ("estimator.Pmf.us_p99", "us"),
        ("estimator.Pmf.calls", "count"),
        ("estimator.WeightVector.us", "us"),
        ("estimator.WeightVector.us_p99", "us"),
        ("estimator.exp_weight_update.us", "us"),
        ("estimator.exp_weight_update.us_p99", "us"),
        ("estimator.sample_index.us", "us"),
        ("estimator.sample_index.us_p99", "us"),
        ("estimator.importance_loss_estimate.calls", "count"),
        ("schedulers.ip_doubling_step.us", "us"),
        ("schedulers.ip_doubling_step.us_p99", "us"),
        ("schedulers.restarts", "count"),
        ("schedulers.epoch_advances", "count"),
        ("graph.greedy_dominating_set.ms", "ms"),
        ("graph.dominating_set_size", "count"),
        ("graph.EdgeProbabilityTable.ms", "ms"),
        ("experts.load_csv.s", "s"),
        ("experts.train_expert_pool.s", "s"),
        ("experts.build_dataset_bundle.s", "s"),
        ("experts.kernel_entries_computed", "count"),
        ("harness.run_experiment.s", "s"),
        ("harness.self_s", "s"),
        ("harness.emit_results.s", "s"),
        ("harness.episodes", "count"),
        ("oracles.ip_estimator_checks.s", "s"),
        ("oracles.resampling_checks.s", "s"),
        ("oracles.checks_failed", "count"),
    ]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [
        ("trace.overhead", "ratio"),
        ("trace.work_per_s", "1/s"),
        ("trace.spans", "count"),
    ]
)

class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until uninstall.
        For a class, the attribute must be defined on that class itself."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        replacement = functools.wraps(original)(make(original))
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments that
        returns it; ``after(args, kwargs, result)`` may update counters.
        """
        fixed = self.name_id(name) if isinstance(name, str) else None

        def make(original):
            def wrapper(*args, **kwargs):
                index = self._open(fixed if fixed is not None else self.name_id(name(args)))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of a ``with`` block."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        from graphbandit import environment, estimator, experts, graph, harness, oracles, policies

        count = self.counters

        def episode_done(args, kwargs, trace):
            count["rounds"] += trace.horizon

        def feedback_done(args, kwargs, event):
            count["observed"] += len(event.observed)

        def resample_done(args, kwargs, trials):
            cap = args[4] if len(args) > 4 else kwargs["min_observations"]
            count["trials"] += trials
            count["cap_hits"] += trials == cap

        def doubling_done(args, kwargs, result):
            state, restart, _ = result
            if restart:
                count["restarts"] += 1
                count["epoch_advances"] += state.epoch - args[0].epoch

        def dominating_done(args, kwargs, members):
            nominal = args[0] if args else kwargs["graph"]
            if nominal.adjacency.sum() > nominal.num_experts:  # skip exp3's internal bandit graph
                count["dominating_set_size"] = max(count["dominating_set_size"], len(members))

        def pool_done(args, kwargs, pool):
            count["kernel_entries"] += sum(
                m.train_features.shape[0] ** 2 for m in pool if isinstance(m, experts.KernelRidgeExpert)
            )

        def bundle_done(args, kwargs, bundle):
            pool = args[1] if len(args) > 1 else kwargs["pool"]
            count["kernel_entries"] += bundle.horizon * sum(
                m.train_features.shape[0] for m in pool if isinstance(m, experts.KernelRidgeExpert)
            )

        # environment (run_episode is looked up by the harness)
        self.wrap(harness, "run_episode", "environment.run_episode", after=episode_done)
        self.wrap(environment, "realize_feedback", "environment.realize_feedback", after=feedback_done)
        for adversary in (environment.FixedTableAdversary, environment.StochasticGapAdversary,
                          environment.SwitchingAdversary):
            self.wrap(adversary, "materialize", "environment.materialize")

        # policies
        learner = policies._LearnerBase
        self.wrap(learner, "select", lambda args: f"policies.{args[0].algorithm}.select")
        self.wrap(learner, "update", lambda args: f"policies.{args[0].algorithm}.update")
        self.wrap(policies, "geometric_resample", "policies.geometric_resample", after=resample_done)
        self.wrap(policies.ResampleBuffer, "edge_matrix", "policies.ResampleBuffer.edge_matrix")
        self.wrap(policies.ResampleBuffer, "observe_row", "policies.ResampleBuffer.observe_row")
        self.wrap(policies.ResampleBuffer, "grow", "policies.ResampleBuffer.grow")
        self.wrap(policies, "exp3ip_pmf", "policies.exp3ip_pmf")
        self.wrap(policies, "observation_probs", "policies.observation_probs")
        self.wrap(oracles, "observation_probs", "policies.observation_probs")
        self.wrap(policies, "estimated_observation_prob", "policies.estimated_observation_prob")
        self.wrap(policies.ProbabilityEstimatorState, "observe_row", "policies.ProbabilityEstimatorState.observe_row")

        def count_exploration(original):
            def wrapper(self_, *args, **kwargs):
                count[f"policies.{self_.algorithm}.explore_rounds"] += 1
                return original(self_, *args, **kwargs)

            return wrapper

        def count_epochs(original):
            def wrapper(self_, *args, **kwargs):
                before = self_._epoch
                result = original(self_, *args, **kwargs)
                if self_._epoch != before:
                    count["restarts"] += 1
                    count["epoch_advances"] += self_._epoch - before
                return result

            return wrapper

        self.patch(policies._UninformativeBase, "_next_exploration", count_exploration)
        self.patch(policies._UninformativeBase, "_advance_epochs", count_epochs)

        # estimator (the learners look these up in policies)
        self.wrap(estimator.Pmf, "__post_init__", "estimator.Pmf")
        self.wrap(estimator.WeightVector, "__post_init__", "estimator.WeightVector")
        self.wrap(policies, "exp_weight_update", "estimator.exp_weight_update")
        self.wrap(policies, "sample_index", "estimator.sample_index")

        def count_calls(key):
            def make(original):
                def wrapper(*args, **kwargs):
                    count[key] += 1
                    return original(*args, **kwargs)

                return wrapper

            return make

        self.patch(policies, "importance_loss_estimate", count_calls("importance_loss_estimate"))

        # schedulers
        self.wrap(policies, "ip_doubling_step", "schedulers.ip_doubling_step", after=doubling_done)

        # graph (learners use policies' import; the oracle suite imports from graph)
        self.wrap(policies, "greedy_dominating_set", "graph.greedy_dominating_set", after=dominating_done)
        self.wrap(graph, "greedy_dominating_set", "graph.greedy_dominating_set", after=dominating_done)
        self.wrap(graph.EdgeProbabilityTable, "__post_init__", "graph.EdgeProbabilityTable")

        # experts, harness and oracles (called by the benchmark, or by default_suite)
        self.wrap(experts, "load_csv", "experts.load_csv")
        self.wrap(experts, "train_expert_pool", "experts.train_expert_pool", after=pool_done)
        self.wrap(experts, "build_dataset_bundle", "experts.build_dataset_bundle", after=bundle_done)
        self.wrap(harness, "run_experiment", "harness.run_experiment")
        self.wrap(harness, "emit_results", "harness.emit_results")
        self.wrap(oracles, "ip_estimator_checks", "oracles.ip_estimator_checks")
        self.wrap(oracles, "resampling_checks", "oracles.resampling_checks")

    # -- analysis ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Start a new phase: returns (first span index, the old counters)."""
        old = Counter(self.counters)
        self.counters.clear()  # the wrappers hold this object
        return len(self.starts), old

    def spans(self, lo: int = 0, hi: int | None = None) -> "Spans":
        hi = len(self.starts) if hi is None else hi
        return Spans(
            names=self.names,
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi].copy(),
            parents=np.frombuffer(self.parents, dtype=np.int64)[lo:hi] - lo,
            starts=np.frombuffer(self.starts, dtype=np.int64)[lo:hi].copy(),
            ends=np.frombuffer(self.ends, dtype=np.int64)[lo:hi].copy(),
        )

    def save(self, path: Path) -> None:
        """Write every span: names[name_ids[i]], parents[i] (-1 at top level), start and end in ns."""
        np.savez(path, names=np.array(self.names), name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int64),
                 starts=np.frombuffer(self.starts, dtype=np.int64), ends=np.frombuffer(self.ends, dtype=np.int64))


class Spans:
    """One phase's spans with per-name statistics."""

    def __init__(self, names, name_ids, parents, starts, ends) -> None:
        self.names = names
        self.name_ids = name_ids
        self.durations = (ends - starts).astype(float)
        children = np.zeros(len(starts))
        inside = parents >= 0  # spans opened before the phase began have parent < 0
        np.add.at(children, parents[inside], self.durations[inside])
        self.self_ns = self.durations - children
        self._by_id = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return self.durations.size

    def _select(self, name: str) -> np.ndarray:
        nid = self._by_id.get(name)
        return self.name_ids == nid if nid is not None else np.zeros(self.durations.size, dtype=bool)

    def calls(self, name: str) -> int:
        return int(self._select(name).sum())

    def total_ns(self, name: str) -> float:
        return float(self.durations[self._select(name)].sum())

    def self_total_ns(self, name: str) -> float:
        return float(self.self_ns[self._select(name)].sum())

    def percentile_ns(self, name: str, q: float) -> float:
        values = self.durations[self._select(name)]
        return float(np.percentile(values, q)) if values.size else 0.0

    def layer_self_ns(self, layer: str) -> float:
        ids = [i for i, name in enumerate(self.names) if name.split(".", 1)[0] == layer]
        return float(self.self_ns[np.isin(self.name_ids, ids)].sum())


def per_layer_metrics(setup: Spans, setup_counts: Counter, reps: Spans, rep_counts: Counter,
                      n_reps: int, checks_failed: float, traced_s: float,
                      traced_rate: float, overhead: float) -> dict:
    """Every PER_LAYER metric from a traced set-up and ``n_reps`` traced
    repetitions.  Layers the workload never calls read 0."""
    values: dict[str, float] = {}

    def per_call(span: str, metric: str, scale: float, p99: bool = True) -> None:
        values[metric] = reps.percentile_ns(span, 50) / scale
        if p99:
            values[metric + "_p99"] = reps.percentile_ns(span, 99) / scale

    def per_rep(x: float) -> float:
        return x / n_reps

    us, ms, s = 1e3, 1e6, 1e9
    rounds = rep_counts["rounds"]
    realize_calls = reps.calls("environment.realize_feedback")
    values["environment.episode_self_us_per_round"] = (
        reps.self_total_ns("environment.run_episode") / us / rounds if rounds else 0.0
    )
    per_call("environment.realize_feedback", "environment.realize_feedback.us", us)
    values["environment.realize_feedback.calls"] = per_rep(realize_calls)
    values["environment.observed_per_round"] = rep_counts["observed"] / realize_calls if realize_calls else 0.0
    per_call("environment.materialize", "environment.materialize.ms", ms, p99=False)

    for algorithm in ALGORITHMS:
        per_call(f"policies.{algorithm}.select", f"policies.{algorithm}.select_us", us)
        per_call(f"policies.{algorithm}.update", f"policies.{algorithm}.update_us", us)
        values[f"policies.{algorithm}.explore_rounds"] = per_rep(rep_counts[f"policies.{algorithm}.explore_rounds"])

    resamples = reps.calls("policies.geometric_resample")
    per_call("policies.geometric_resample", "policies.geometric_resample.us", us)
    values["policies.geometric_resample.calls"] = per_rep(resamples)
    values["policies.geometric_resample.trials_mean"] = rep_counts["trials"] / resamples if resamples else 0.0
    values["policies.geometric_resample.cap_hit_frac"] = rep_counts["cap_hits"] / resamples if resamples else 0.0
    for method in ("edge_matrix", "observe_row"):
        span = f"policies.ResampleBuffer.{method}"
        per_call(span, f"{span}.us", us)
        values[f"{span}.calls"] = per_rep(reps.calls(span))
    per_call("policies.ResampleBuffer.grow", "policies.ResampleBuffer.grow.ms", ms, p99=False)
    values["policies.ResampleBuffer.grow.calls"] = per_rep(reps.calls("policies.ResampleBuffer.grow"))
    for span in ("policies.exp3ip_pmf", "policies.observation_probs", "policies.estimated_observation_prob",
                 "policies.ProbabilityEstimatorState.observe_row"):
        per_call(span, f"{span}.us", us)
    values["policies.estimated_observation_prob.calls"] = per_rep(reps.calls("policies.estimated_observation_prob"))

    for span in ("estimator.Pmf", "estimator.WeightVector", "estimator.exp_weight_update", "estimator.sample_index"):
        per_call(span, f"{span}.us", us)
    values["estimator.Pmf.calls"] = per_rep(reps.calls("estimator.Pmf"))
    values["estimator.importance_loss_estimate.calls"] = per_rep(rep_counts["importance_loss_estimate"])

    per_call("schedulers.ip_doubling_step", "schedulers.ip_doubling_step.us", us)
    values["schedulers.restarts"] = per_rep(rep_counts["restarts"])
    values["schedulers.epoch_advances"] = per_rep(rep_counts["epoch_advances"])

    per_call("graph.greedy_dominating_set", "graph.greedy_dominating_set.ms", ms, p99=False)
    values["graph.dominating_set_size"] = rep_counts["dominating_set_size"]
    per_call("graph.EdgeProbabilityTable", "graph.EdgeProbabilityTable.ms", ms, p99=False)

    for fn in ("load_csv", "train_expert_pool", "build_dataset_bundle"):
        values[f"experts.{fn}.s"] = setup.total_ns(f"experts.{fn}") / s
    values["experts.kernel_entries_computed"] = setup_counts["kernel_entries"]

    values["harness.run_experiment.s"] = per_rep(reps.total_ns("harness.run_experiment")) / s
    values["harness.self_s"] = per_rep(
        reps.total_ns("harness.run_experiment") - reps.total_ns("environment.run_episode")
    ) / s
    values["harness.emit_results.s"] = per_rep(reps.total_ns("harness.emit_results")) / s
    values["harness.episodes"] = per_rep(reps.calls("environment.run_episode"))
    values["oracles.ip_estimator_checks.s"] = per_rep(reps.total_ns("oracles.ip_estimator_checks")) / s
    values["oracles.resampling_checks.s"] = per_rep(reps.total_ns("oracles.resampling_checks")) / s
    values["oracles.checks_failed"] = checks_failed

    total_ns = traced_s * s
    for layer in LAYERS:
        values[f"{layer}.self_share"] = (setup.layer_self_ns(layer) + reps.layer_self_ns(layer)) / total_ns

    values["trace.overhead"] = overhead
    values["trace.work_per_s"] = traced_rate
    values["trace.spans"] = per_rep(len(reps))
    missing = {name for name, _ in PER_LAYER} ^ set(values)
    if missing:
        raise AssertionError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    return {name: {"value": _number(values[name], unit), "unit": unit} for name, unit in PER_LAYER}


def _number(value: float, unit: str):
    value = float(value)
    return int(value) if unit == "count" and value.is_integer() else value
