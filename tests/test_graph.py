import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import brute_independence_number, brute_min_dominating_size, random_graph

from graphbandit.errors import IngestError
from graphbandit.graph import (
    EdgeProbabilityTable,
    NominalGraph,
    VertexSet,
    greedy_dominating_set,
    independence_number,
    load_graph_file,
)
from graphbandit.policies import _informed_table


class TestConstruction:
    def test_self_loop_required(self):
        adj = np.eye(3, dtype=bool)
        adj[1, 1] = False
        with pytest.raises(ValueError, match="self-loop"):
            NominalGraph(adj)

    def test_square_required(self):
        with pytest.raises(ValueError, match="square"):
            NominalGraph(np.ones((2, 3), dtype=bool))

    def test_adjacency_is_immutable(self):
        g = NominalGraph.complete(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = False

    def test_vertex_set_rejects_duplicates_and_zero(self):
        with pytest.raises(ValueError):
            VertexSet((1, 1))
        with pytest.raises(ValueError):
            VertexSet((0, 2))

    def test_probability_table_checks_edges(self):
        g = NominalGraph.bandit(2)
        bad = np.array([[0.5, 0.2], [0.0, 0.5]])  # (1,2) is not an edge
        with pytest.raises(ValueError, match="non-edge"):
            EdgeProbabilityTable.from_probs(g, bad)
        with pytest.raises(ValueError, match="epsilon"):
            EdgeProbabilityTable.from_probs(g, np.eye(2) * 0.5, epsilon=0.9)

    def test_probability_table_holds_only_its_probabilities(self):
        g = NominalGraph.complete(2)
        table = EdgeProbabilityTable.from_probs(g, np.array([[0.5, 0.25], [0.3, 0.9]]), epsilon=0.25)
        assert [field.name for field in dataclasses.fields(table)] == ["probs"]
        assert table.probs.tolist() == [[0.5, 0.25], [0.3, 0.9]]
        assert EdgeProbabilityTable.constant(g, 0.25).probs.tolist() == [[0.25, 0.25], [0.25, 0.25]]

    @pytest.mark.parametrize(
        "probs, epsilon, message",
        [
            ([[0.5, 0.0], [0.0, 0.5]], None, "epsilon must be in (0, 1], got 0.0"),
            ([[0.5, 0.5], [0.0, 0.5]], 0.0, "epsilon must be in (0, 1], got 0.0"),
            ([[0.5, 0.5], [0.0, 0.5]], 1.5, "epsilon must be in (0, 1], got 1.5"),
            ([[1.0, 1.0], [0.0, 1.0]], True, "epsilon must be in (0, 1], got True"),
            ([[0.5, 0.5], [0.0, 0.5]], 0.9, "some edge probability is below the stated epsilon"),
            ([[0.5, 0.5], [0.0, 1.5]], 0.5, "edge probabilities must lie in [0, 1]"),
            ([[0.5, 0.5], [0.0, np.nan]], 0.5, "edge probabilities must lie in [0, 1]"),
            ([[0.5, 0.5], [np.nan, 0.5]], None, "non-edge entries must be exactly 0"),
            ([[0.5, 0.5, 0.5]] * 3, None, "probability table has shape (3, 3), the graph has 2 experts"),
        ],
        ids=["zero-edge", "epsilon-zero", "epsilon-above-one", "epsilon-bool", "epsilon-above-edges", "edge-above-one",
             "nan-edge", "nan-non-edge", "other-graph"],
    )
    def test_from_probs_checks(self, probs, epsilon, message):
        graph = NominalGraph.from_edges(2, [(1, 1), (1, 2), (2, 2)])
        with pytest.raises(ValueError, match=re.escape(message)):
            EdgeProbabilityTable.from_probs(graph, np.array(probs), epsilon=epsilon)


def out_neighbors(graph, i):
    """1-based out-neighbours of expert i, from the graph's cached out-positions."""
    return tuple(graph.out_positions[i - 1] + 1)


def in_neighbors(graph, i):
    """1-based in-neighbours of expert i: the nonzero rows of adjacency column i."""
    return tuple(np.flatnonzero(graph.adjacency[:, i - 1]) + 1)


class TestNeighborhoods:
    def test_out_neighbors_complete(self):
        assert out_neighbors(NominalGraph.complete(3), 1) == (1, 2, 3)

    def test_out_neighbors_bandit(self):
        assert out_neighbors(NominalGraph.bandit(4), 2) == (2,)

    def test_out_neighbors_star_leaf(self):
        star = NominalGraph.from_edges(4, [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 3), (4, 4)])
        assert out_neighbors(star, 3) == (3,)

    def test_in_neighbors_complete(self):
        assert in_neighbors(NominalGraph.complete(3), 2) == (1, 2, 3)

    def test_in_neighbors_star(self):
        star = NominalGraph.from_edges(4, [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 3), (4, 4)])
        assert in_neighbors(star, 3) == (1, 3)

    def test_in_neighbors_bandit(self):
        assert in_neighbors(NominalGraph.bandit(4), 4) == (4,)

    def test_out_in_are_transposes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 9)))
            for i in range(1, g.num_experts + 1):
                for j in range(1, g.num_experts + 1):
                    assert (j in out_neighbors(g, i)) == (i in in_neighbors(g, j))


class TestGreedyDominatingSet:
    def test_complete_graph_single_vertex(self):
        assert greedy_dominating_set(NominalGraph.complete(5)).members == (1,)

    def test_bandit_graph_needs_everyone(self):
        assert greedy_dominating_set(NominalGraph.bandit(4)).members == (1, 2, 3, 4)

    def test_two_hub_graph(self):
        # 1 -> {1,2,3}, 4 -> {4,5}, self-loops elsewhere; {1,4} is a minimum
        # cover (verified by enumeration below) and greedy finds exactly it.
        g = NominalGraph.from_edges(5, [(1, 1), (1, 2), (1, 3), (2, 2), (3, 3), (4, 4), (4, 5), (5, 5)])
        result = greedy_dominating_set(g)
        assert result.members == (1, 4)
        assert brute_min_dominating_size(g) == 2

    def test_covers_all_vertices_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(1, 13)), density=rng.uniform(0.05, 0.9))
            dom = greedy_dominating_set(g)
            covered = np.zeros(g.num_experts, dtype=bool)
            for v in dom:
                covered |= g.adjacency[v - 1]
            assert covered.all()

    def test_approximation_factor_versus_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(120):
            k = int(rng.integers(2, 13))
            g = random_graph(rng, k, density=rng.uniform(0.05, 0.9))
            greedy_size = len(greedy_dominating_set(g))
            optimum = brute_min_dominating_size(g)
            assert greedy_size <= optimum * (1 + math.log(k))


def reference_greedy_dominating_set(graph):
    """Greedy set cover with every vertex's gain recomputed at each pick."""
    adj = graph.adjacency
    uncovered = np.ones(graph.num_experts, dtype=bool)
    chosen = []
    while uncovered.any():
        v = int(np.argmax((adj & uncovered).sum(axis=1)))
        chosen.append(v + 1)
        uncovered &= ~adj[v]
    return tuple(chosen)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_experts=st.integers(1, 120), density=st.floats(0.0, 1.0))
def test_greedy_dominating_set_matches_recomputed_gains(seed, num_experts, density):
    """The kept gains pick the same vertices, in the same order, as gains recomputed every pick."""
    graph = random_graph(np.random.default_rng(seed), num_experts, density)
    assert greedy_dominating_set(graph).members == reference_greedy_dominating_set(graph)


class TestIndependenceNumber:
    def test_complete(self):
        assert independence_number(NominalGraph.complete(6)) == 1

    def test_bandit(self):
        assert independence_number(NominalGraph.bandit(7)) == 7

    def test_bidirectional_five_cycle(self):
        edges = [(i, i) for i in range(1, 6)]
        for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]:
            edges += [(a, b), (b, a)]
        g = NominalGraph.from_edges(5, edges)
        assert independence_number(g) == 2
        assert brute_independence_number(g) == 2

    def test_extremes_for_all_small_sizes(self):
        for k in range(1, 11):
            assert independence_number(NominalGraph.complete(k)) == 1
            assert independence_number(NominalGraph.bandit(k)) == k

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            g = random_graph(rng, int(rng.integers(2, 11)), density=rng.uniform(0.05, 0.9))
            assert independence_number(g) == brute_independence_number(g)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="K <= 25"):
            independence_number(NominalGraph.bandit(26))


def expected_observations(graph, probs, i):
    """Expected losses revealed when i is chosen: row i of the learners' masked table, summed."""
    return _informed_table(graph, probs, greedy_dominating_set(graph))[0].sum(axis=1)[i - 1]


class TestExpectedObservations:
    def test_complete_equal_quarter(self):
        g = NominalGraph.complete(3)
        p = EdgeProbabilityTable.constant(g, 0.25)
        assert expected_observations(g, p, 1) == pytest.approx(0.75)

    def test_bandit_unit(self):
        g = NominalGraph.bandit(4)
        p = EdgeProbabilityTable.constant(g, 1.0)
        for i in range(1, 5):
            assert expected_observations(g, p, i) == 1.0

    def test_hand_sum_k2(self):
        g = NominalGraph.complete(2)
        p = EdgeProbabilityTable.from_probs(g, np.array([[0.5, 0.5], [0.3, 0.9]]))
        assert expected_observations(g, p, 2) == pytest.approx(1.2)


class TestProbabilityTableValues:
    """A bool is not a probability: ``0 < True <= 1`` holds, so it must be refused by type."""

    @pytest.mark.parametrize("value", [True, np.bool_(True)])
    def test_constant_rejects_a_bool(self, value):
        with pytest.raises(ValueError, match="need 0 < p <= 1"):
            EdgeProbabilityTable.constant(NominalGraph.complete(2), value)

    @pytest.mark.parametrize("low, high", [(True, 1.0), (0.5, True), (np.bool_(True), 1.0)])
    def test_uniform_rejects_a_bool(self, low, high):
        with pytest.raises(ValueError, match="need 0 < low <= high <= 1"):
            EdgeProbabilityTable.uniform(NominalGraph.complete(2), low, high, np.random.default_rng(0))


class TestGraphFile:
    def test_complete_shorthand(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("K=3\ncomplete\n")
        assert load_graph_file(path) == NominalGraph.complete(3)

    def test_bandit_shorthand(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("K=4\nbandit\n")
        assert load_graph_file(path) == NominalGraph.bandit(4)

    def test_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "K=2\n"
            "edge 1 1\n"
            "edge 1 2  # cross edge\n"
            "edge 2 2\n"
        )
        g = load_graph_file(path)
        assert isinstance(g, NominalGraph)
        assert g.adjacency.tolist() == [[True, True], [False, True]]

    def test_missing_self_loop_is_an_error(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("K=2\nedge 1 1\nedge 1 2\n")
        with pytest.raises(IngestError, match="self-loop"):
            load_graph_file(path)

    @pytest.mark.parametrize(
        "text, line",
        [("K=2\nedge 1 1\n\nedge 1 2 0.5\nedge 2 2\n", 4), ("K=3\n# structure only\ncomplete 0.5\n", 3)],
        ids=["edge", "shorthand"],
    )
    def test_probability_column_refused(self, tmp_path, text, line):
        path = tmp_path / "g.txt"
        path.write_text(text)
        message = rf"^{re.escape(str(path))}:{line}: too many fields .*; --p sets the probabilities$"
        with pytest.raises(IngestError, match=message):
            load_graph_file(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("experts: 3\n")
        with pytest.raises(IngestError, match="K="):
            load_graph_file(path)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), num_experts=st.integers(1, 12), density=st.floats(0.0, 1.0))
def test_edge_list_round_trip(tmp_path, seed, num_experts, density):
    """A seeded adjacency, written as shuffled ``edge`` lines among comments and
    blank lines, loads as the same graph."""
    rng = np.random.default_rng(seed)
    adjacency = rng.random((num_experts, num_experts)) < density
    np.fill_diagonal(adjacency, True)
    lines = [f"edge {i + 1} {j + 1}" for i, j in np.argwhere(adjacency)]
    lines += ["", "# a comment", "   "]
    lines = [f"{line}  # trailing" if line and rng.random() < 0.3 else line for line in lines]
    path = tmp_path / "g.txt"
    path.write_text(f"# header comment\nK={num_experts}\n" + "\n".join(rng.permutation(lines)) + "\n")
    assert load_graph_file(path) == NominalGraph(adjacency)
