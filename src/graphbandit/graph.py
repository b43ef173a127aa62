"""Nominal feedback graphs and the graph quantities the learners rely on.

Expert indices are 1-based everywhere in the public API; the underlying
adjacency and probability matrices are plain 0-based numpy arrays where
row/column ``k`` belongs to expert ``k + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import IngestError, _real

__all__ = [
    "NominalGraph",
    "EdgeProbabilityTable",
    "VertexSet",
    "greedy_dominating_set",
    "independence_number",
    "load_graph_file",
]

# Exact maximum-independent-set search is restricted to small graphs.
MAX_EXACT_INDEPENDENCE = 25


@dataclass(frozen=True)
class VertexSet:
    """Duplicate-free, ordered collection of 1-based expert indices."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(int(i) for i in self.members)
        object.__setattr__(self, "members", members)
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate vertices in {members}")
        if any(i < 1 for i in members):
            raise ValueError("expert indices are 1-based and must be >= 1")

    def __contains__(self, item: object) -> bool:
        return item in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class NominalGraph:
    """Directed feedback graph over experts; an edge (i, j) means choosing
    expert i may reveal expert j's loss.  Self-loops are mandatory: choosing
    an expert always has some chance of revealing its own loss."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ValueError("graph needs at least one expert")
        if not adj.diagonal().all():
            raise ValueError("every expert needs a self-loop")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def num_experts(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def out_positions(self) -> tuple[np.ndarray, ...]:
        """Entry k: expert k+1's out-neighbours as ascending 0-based positions, built on first use."""
        rows = tuple(np.flatnonzero(row) for row in self.adjacency)
        for row in rows:
            row.flags.writeable = False
        return rows

    @classmethod
    def complete(cls, num_experts: int) -> "NominalGraph":
        return cls(np.ones((num_experts, num_experts), dtype=bool))

    @classmethod
    def bandit(cls, num_experts: int) -> "NominalGraph":
        """Self-loops only: the classic bandit feedback structure."""
        return cls(np.eye(num_experts, dtype=bool))

    @classmethod
    def from_edges(cls, num_experts: int, edges) -> "NominalGraph":
        adj = np.zeros((num_experts, num_experts), dtype=bool)
        for i, j in edges:
            if not (1 <= i <= num_experts and 1 <= j <= num_experts):
                raise ValueError(f"edge ({i}, {j}) out of range for K={num_experts}")
            adj[i - 1, j - 1] = True
        return cls(adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NominalGraph):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash(self.adjacency.tobytes())


@dataclass(frozen=True)
class EdgeProbabilityTable:
    """Per-edge observation probabilities: entry (i, j) is the chance that a
    loss at j is revealed when i is chosen; non-edge entries are zero and
    never read.  The lower bound epsilon that exp3-gr's doubling needs is
    ``LearnerConfig.epsilon``, not part of the table."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError(f"probability table must be square, got {probs.shape}")
        if not np.isfinite(probs).all() or (probs < 0).any() or (probs > 1).any():
            raise ValueError("edge probabilities must lie in [0, 1]")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_probs(cls, graph: NominalGraph, probs, epsilon: float | None = None) -> "EdgeProbabilityTable":
        """Validate ``probs`` against ``graph``: non-edges exactly 0, edges in
        [epsilon, 1] for an epsilon in (0, 1], by default the smallest edge
        probability.  The bound is checked, not stored."""
        probs = np.asarray(probs, dtype=float)
        _check_fits(graph, probs)
        if (probs[~graph.adjacency] != 0).any():
            raise ValueError("non-edge entries must be exactly 0")
        edge_probs = probs[graph.adjacency]
        if epsilon is None:
            epsilon = float(edge_probs.min())
        if not (_real(epsilon) and 0 < epsilon <= 1):
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        if (edge_probs < epsilon).any():
            raise ValueError("some edge probability is below the stated epsilon")
        return cls(probs)

    @classmethod
    def constant(cls, graph: NominalGraph, value: float) -> "EdgeProbabilityTable":
        if not (_real(value) and 0 < value <= 1):
            raise ValueError(f"need 0 < p <= 1, got {value}")
        return cls(np.where(graph.adjacency, float(value), 0.0))

    @classmethod
    def uniform(cls, graph: NominalGraph, low: float, high: float, rng) -> "EdgeProbabilityTable":
        """Independent per-edge probabilities drawn uniformly from [low, high]."""
        if not (_real(low) and _real(high) and 0 < low <= high <= 1):
            raise ValueError(f"need 0 < low <= high <= 1, got [{low}, {high}]")
        draws = rng.uniform(low, high, size=graph.adjacency.shape)
        return cls(np.where(graph.adjacency, draws, 0.0))


def _check_fits(graph: NominalGraph, probs: np.ndarray) -> None:
    """Refuse a probability matrix (a table's ``probs``) whose shape is not ``graph``'s (K, K)."""
    if probs.shape != graph.adjacency.shape:
        raise ValueError(f"probability table has shape {probs.shape}, the graph has {graph.num_experts} experts")


def greedy_dominating_set(graph: NominalGraph) -> VertexSet:
    """Greedy set cover over out-neighborhoods.

    Repeatedly picks the vertex covering the most still-uncovered vertices,
    breaking ties toward the lowest index, until every vertex is observable
    from some member.  Deterministic; self-loops guarantee termination.
    Each vertex's gain is kept up to date: a pick takes from it one per
    vertex it reaches that the pick covered first.
    """
    adj = graph.adjacency
    uncovered = np.ones(graph.num_experts, dtype=bool)
    gains = adj.sum(axis=1)
    chosen: list[int] = []
    while True:
        v = int(np.argmax(gains))  # argmax returns the first (lowest-index) max
        chosen.append(v + 1)
        newly = adj[v] & uncovered
        uncovered ^= newly
        if not uncovered.any():
            return VertexSet(tuple(chosen))
        gains -= adj[:, newly].sum(axis=1)


def independence_number(graph: NominalGraph) -> int:
    """Size of the largest vertex set with no edge (in either direction,
    self-loops ignored) between any two distinct members.

    Exact branch-and-bound; only supported for K <= 25.
    """
    n = graph.num_experts
    if n > MAX_EXACT_INDEPENDENCE:
        raise ValueError(f"exact independence number limited to K <= {MAX_EXACT_INDEPENDENCE}, got {n}")
    sym = graph.adjacency | graph.adjacency.T
    np.fill_diagonal(sym, False)
    nbr = []
    for v in range(n):
        mask = 0
        for u in np.flatnonzero(sym[v]):
            mask |= 1 << int(u)
        nbr.append(mask)
    return _mis_size((1 << n) - 1, nbr)


def _mis_size(mask: int, nbr: list[int]) -> int:
    if mask == 0:
        return 0
    best_v, best_deg = -1, -1
    mm = mask
    while mm:
        v = (mm & -mm).bit_length() - 1
        mm &= mm - 1
        deg = (nbr[v] & mask).bit_count()
        if deg > best_deg:
            best_deg, best_v = deg, v
    if best_deg == 0:
        return mask.bit_count()
    without = _mis_size(mask & ~(1 << best_v), nbr)
    with_v = 1 + _mis_size(mask & ~(1 << best_v) & ~nbr[best_v], nbr)
    return max(without, with_v)


def load_graph_file(path) -> NominalGraph:
    """Parse the graph literal format: structure only, as ``--p`` sets the probabilities.

    Line 1 must be ``K=<int>``.  The body is either a single shorthand line
    (``complete`` or ``bandit``) or a list of ``edge i j`` lines with 1-based
    endpoints; missing self-loops are an error, never silently added.  A line
    with an extra field, such as a probability (``complete 0.5``, ``edge 1 2
    0.5``), is an error naming its line.  Blank lines and ``#`` comments are
    ignored.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            lines.append((lineno, text))
    if not lines:
        raise IngestError(f"{path}: empty graph file")

    lineno, header = lines[0]
    if not header.startswith("K="):
        raise IngestError(f"{path}:{lineno}: first line must be 'K=<int>', got {header!r}")
    try:
        num_experts = int(header[2:])
    except ValueError as exc:
        raise IngestError(f"{path}:{lineno}: bad expert count in {header!r}") from exc
    if num_experts < 1:
        raise IngestError(f"{path}:{lineno}: K must be >= 1")

    body = lines[1:]
    if not body:
        raise IngestError(f"{path}: no edges after the K= line")
    for lineno, text in body:
        parts = text.split()
        if len(parts) > {"complete": 1, "bandit": 1, "edge": 3}.get(parts[0], len(parts)):  # other words: below
            raise IngestError(f"{path}:{lineno}: too many fields in {text!r}; --p sets the probabilities")

    shorthand = body[0][1]
    if shorthand in ("complete", "bandit"):
        if len(body) > 1:
            raise IngestError(f"{path}:{body[1][0]}: no lines allowed after a shorthand")
        return NominalGraph.complete(num_experts) if shorthand == "complete" else NominalGraph.bandit(num_experts)

    adj = np.zeros((num_experts, num_experts), dtype=bool)
    for lineno, text in body:
        parts = text.split()
        if parts[0] != "edge" or len(parts) != 3:
            raise IngestError(f"{path}:{lineno}: expected 'edge i j', got {text!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-integer endpoint in {text!r}") from exc
        if not (1 <= i <= num_experts and 1 <= j <= num_experts):
            raise IngestError(f"{path}:{lineno}: edge ({i}, {j}) out of range for K={num_experts}")
        if adj[i - 1, j - 1]:
            raise IngestError(f"{path}:{lineno}: duplicate edge ({i}, {j})")
        adj[i - 1, j - 1] = True

    missing = [str(v + 1) for v in range(num_experts) if not adj[v, v]]
    if missing:
        raise IngestError(f"{path}: missing self-loop for expert(s) {', '.join(missing)}")
    return NominalGraph(adj)
