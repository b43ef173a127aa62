"""Monte-Carlo checks of the estimator expectation identities.

These simulate the select -> observe -> estimate pipeline in vectorized
chunks and compare the sample means against the closed-form expectations:

* importance-weighted estimates are unbiased: E[l_hat_i] = l_i, and their
  second moment is l_i^2 / q_i;
* the capped resampling count has E[Q] = (1 - (1 - q)^M) / q, and the
  resampled loss estimate has E[l_tilde] = (1 - (1 - q)^M) * l.

The ip checks reuse the learners' kernels for the observation probabilities
and the pmf sampler, so a failing check indicts the production code.  Their
activations are the oracle's own: they draw K uniforms per repetition, where
the episodes' ``_fire`` draws one per out-edge of the chosen expert.  The
resampling checks run on one expert, whose pmf sends every trial's expert
draw to it: they skip those draws' region of the stream unread.  They count
each repetition's trials from the ranks of its permutation keys; only a row
where another key ties its first hit's goes through exp3-gr's argsort
kernels, ``_trial_slots`` and ``_first_success``.  The tests'
``test_trial_counts_are_exp3_gr_counts`` checks the counts against exp3-gr's.

A chunk's random arrays are drawn and used ``_TRIAL_BLOCK`` repetitions at a
time, each region of its stream read through a generator copy at the
region's offset: the results and the caller's final generator state are
those of whole-chunk arrays.  Memory is bounded by one block, plus one
value per repetition of a chunk, not by ``draws``; on a one-expert graph
the ip checks hold a whole chunk's (chunk, 1) arrays, to keep their sums.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import _integer
from .estimator import Pmf, _skip_doubles, sample_positions
from .graph import EdgeProbabilityTable, NominalGraph
from .policies import _first_success, _trial_slots, observation_probs

__all__ = ["MomentCheck", "ip_estimator_checks", "resampling_checks", "default_suite"]

# Repetitions drawn and used per block.  From 4,096 up, glibc returned a
# block's arrays to the OS after each block (7x the page faults of
# whole-chunk arrays, ~15% slower); at 2,048 the heap reuses them.
_TRIAL_BLOCK = 2_048


@dataclass(frozen=True)
class MomentCheck:
    """One sample-mean-vs-expectation comparison."""

    name: str
    observed: float
    expected: float
    stderr: float
    draws: int

    @property
    def deviation(self) -> float:
        """|observed - expected| in standard-error units."""
        if self.stderr == 0:
            return 0.0 if self.observed == self.expected else math.inf
        return abs(self.observed - self.expected) / self.stderr

    def passed(self, max_stderrs: float = 4.0) -> bool:
        return abs(self.observed - self.expected) <= max_stderrs * self.stderr

    def describe(self) -> str:
        return (
            f"{self.name}: observed {self.observed:.6f} vs expected {self.expected:.6f} "
            f"({self.deviation:.2f} stderr, n={self.draws})"
        )


def _moment(name: str, total: float, total_sq: float, n: int, expected: float) -> MomentCheck:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return MomentCheck(name=name, observed=mean, expected=expected, stderr=math.sqrt(var / n), draws=n)


def _unit_float(value, name: str, low: str = "[") -> float:
    """``value`` as a float, if it is a number, not a bool, in [0, 1], or in
    (0, 1] when ``low`` is "("; anything else raises ValueError naming ``name``."""
    number = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    if not (number and (0 < value <= 1 if low == "(" else 0 <= value <= 1)):
        raise ValueError(f"{name} must be a number in {low}0, 1], got {value!r}")
    return float(value)


def _reader(rng: np.random.Generator, size: int) -> np.random.Generator:
    """A copy of ``rng`` at the start of the next ``size`` doubles in its
    stream; ``rng`` moves past them."""
    reader = copy.deepcopy(rng)
    _skip_doubles(rng, size)
    return reader


def ip_estimator_checks(
    graph: NominalGraph,
    probs: EdgeProbabilityTable,
    pmf: Pmf,
    losses,
    draws: int,
    rng: np.random.Generator,
    chunk: int = 200_000,
) -> list[MomentCheck]:
    """Simulate the informative-setting estimate for every arm.

    Each draw picks an expert from ``pmf``, fires the chosen row's edges
    independently, and importance-weights every observed loss by its exact
    observation probability.  Returns first- and second-moment checks per arm.
    """
    draws, chunk = _integer(draws, "draws"), _integer(chunk, "chunk")
    k = graph.num_experts
    try:
        shape = np.shape(losses)
    except ValueError:  # numpy refuses a ragged nest
        shape = "ragged"
    if shape != (k,):
        raise ValueError(f"need {k} losses, got shape {shape}")
    losses = np.array([_unit_float(loss, f"loss {i + 1}") for i, loss in enumerate(losses)])
    q = observation_probs(pmf, graph, probs)
    ratio = losses / q
    sums = np.zeros((3, k))  # est, est^2, est^4
    # A (rows, 1) column sums pairwise, which a carried partial cannot continue.
    block = _TRIAL_BLOCK if k > 1 else chunk
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        choices = _reader(rng, m)  # rng moves on to the activations
        part = np.empty((3, k))  # each row's sum over the chunk, carried across blocks in row order
        for lo in range(0, m, block):
            n = min(block, m - lo)
            chosen = sample_positions(pmf, choices, n)
            est = ((rng.random((n, k)) < probs.probs[chosen]) & graph.adjacency[chosen]) * ratio
            est_sq = est * est
            for row, power in zip(part, (est, est_sq, est_sq * est_sq)):
                row[:] = np.add.reduce(np.concatenate([row[None], power]) if lo else power)
        sums += part
        done += m
    checks = []
    for i in range(k):
        checks.append(_moment(f"mean estimate, arm {i + 1}", sums[0, i], sums[1, i], draws, losses[i]))
        expected_second = losses[i] ** 2 / q[i]
        checks.append(_moment(f"second moment, arm {i + 1}", sums[1, i], sums[2, i], draws, expected_second))
    return checks


def _trial_counts(samples: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``_first_success(True, samples[rows, _trial_slots(keys, rows)])`` for
    an (n, M) block, as floats, without the sort: trial u reads the slot whose
    key has rank u, so a row's count is min(1 + #{keys below its first hit's
    key}, M), or M without a hit.  Rows where another key ties the first
    hit's, whose rank argsort alone settles, take the sorting kernels."""
    window = keys.shape[1]
    # numpy reduces short rows one at a time: take the minimum down a transposed copy's columns,
    # and count by a product with ones (sums of 0.0s and 1.0s, exact in any order).
    first = np.minimum.reduce((keys + ~samples * 2.0).T.copy(), axis=0)[:, None]  # >= 2.0 in a row without a hit
    counts = np.minimum(np.less(keys, first, out=np.empty(keys.shape)) @ np.ones(window) + 1, window)
    at_first = keys == first
    if np.count_nonzero(at_first) != np.count_nonzero(first < 2.0):
        tied = np.flatnonzero(np.add.reduce(at_first, axis=1) > 1)
        rows = np.arange(tied.size)[:, None]
        counts[tied] = _first_success(True, samples[tied][rows, _trial_slots(keys[tied], rows)])
    return counts


def resampling_checks(
    q: float,
    window: int,
    loss: float,
    draws: int,
    rng: np.random.Generator,
    chunk: int = 200_000,
) -> tuple[MomentCheck, MomentCheck]:
    """Simulate the resampling pipeline on a one-expert self-loop graph whose
    activation probability is ``q``, with fresh window contents per draw.

    A chunk's stream holds its windows, the trials' expert draws and the
    permutation keys, M per repetition each, then one observed draw per
    repetition.  Every expert draw picks the one expert, so that region is
    skipped, not drawn; ``_trial_counts`` counts each repetition's trials to
    the first hit.

    Returns (trial-count check, resampled-loss check) against
    E[Q] = (1 - (1-q)^M) / q and E[l_tilde] = (1 - (1-q)^M) * l.
    """
    q, loss = _unit_float(q, "q", low="("), _unit_float(loss, "loss")
    draws, chunk, window = _integer(draws, "draws"), _integer(chunk, "chunk"), _integer(window, "window")
    sum_q = sum_q2 = 0.0
    sum_l = sum_l2 = 0.0
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        size = m * window
        windows = _reader(rng, size)
        _skip_doubles(rng, size)  # the trials' expert draws: a one-expert pmf never reads them
        keys = _reader(rng, size)  # rng moves on to the observed draws
        trials = np.empty(m)
        for lo in range(0, m, _TRIAL_BLOCK):
            n = min(_TRIAL_BLOCK, m - lo)
            trials[lo : lo + n] = _trial_counts(windows.random((n, window)) < q, keys.random((n, window)))
        observed = rng.random(m) < q
        est = trials * loss * observed
        sum_q += trials.sum()
        sum_q2 += (trials * trials).sum()
        sum_l += est.sum()
        sum_l2 += (est * est).sum()
        done += m
    hit = 1.0 - (1.0 - q) ** window
    trial_check = _moment(f"mean trial count (q={q}, M={window})", sum_q, sum_q2, draws, hit / q)
    loss_check = _moment(f"mean resampled loss (q={q}, M={window})", sum_l, sum_l2, draws, hit * loss)
    return trial_check, loss_check


def default_suite(draws: int = 1_000_000, seed: int = 20_240_601) -> list[MomentCheck]:
    """The oracle suite the CLI exposes: the informative-setting unbiasedness
    check on a five-expert complete graph, plus the resampling expectations
    over a grid of activation probabilities and window sizes."""
    from .estimator import WeightVector
    from .graph import greedy_dominating_set
    from .policies import exp3ip_pmf

    graph = NominalGraph.complete(5)
    probs = EdgeProbabilityTable.constant(graph, 0.25)
    pmf = exp3ip_pmf(WeightVector.uniform(5), 0.3, graph, probs, greedy_dominating_set(graph))
    losses = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    checks = ip_estimator_checks(graph, probs, pmf, losses, draws, rng)
    for q in (0.1, 0.5, 0.9):
        for window in (5, 25):
            checks.extend(resampling_checks(q, window, loss=0.8, draws=draws, rng=rng))
    return checks
