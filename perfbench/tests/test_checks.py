"""Each output check passes correct output and rejects a corrupted copy.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import math

import pytest

import checks
from riglab import Graph
from riglab.matching import maximum_matching


def graph(n, edges):
    return Graph.from_edges(n, edges)


# Biconnected, min degree 2, no node with three forced edges, but the edges
# forced by degree-2 nodes 1 and 3 close the 4-cycle 0-1-2-3 inside n=7.
FORCED_SUBCYCLE = graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5),
                            (4, 5), (4, 6), (5, 6)])
BOWTIE = graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
K23 = graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def test_identical_outputs():
    assert checks.identical_outputs("a,b\n", "a,b\n", "{}", "{}") == []
    assert checks.identical_outputs("a,b\n", "a,c\n", "{}", "{}")
    assert checks.identical_outputs("a,b\n", "a,b\n", "{}", "{ }")


def test_clean_audits():
    assert checks.clean_audits({"hamilton_implies_matching": 0}) == []
    assert checks.clean_audits({"hamilton_implies_matching": 1})


def test_traced_matches_rejects_a_flipped_outcome():
    rows = [(True, 10, 2), (False, 8, 1)]
    assert checks.traced_matches(rows, list(rows)) == []
    assert checks.traced_matches(rows, [(False, 10, 2), (False, 8, 1)])
    assert checks.traced_matches(rows, rows[:1])


@pytest.mark.parametrize("g, k, truth", [
    (Graph.path(6), 1, True),
    (Graph.path(6), 2, False),
    (graph(4, [(0, 1), (2, 3)]), 1, False),
    (Graph.complete(5), 3, True),
    (Graph.cycle(6), 3, False),
])
def test_connectivity_decision(g, k, truth):
    assert checks.connectivity_decision(g, k, truth) == []
    assert checks.connectivity_decision(g, k, not truth)


def test_expected_composed_edges_matches_the_hypergeometric_sum():
    n, K, P, s, q = 50, 6, 40, 2, 0.3
    tail = sum(math.comb(K, j) * math.comb(P - K, K - j) for j in range(s, K + 1)) / math.comb(P, K)
    assert checks.expected_composed_edges(n, K, P, s, q) == pytest.approx(
        math.comb(n, 2) * tail * q, rel=1e-12)


def test_edge_mean_rejects_a_count_off_by_the_tolerance():
    edges = [1000, 1010, 990, 1000, 1005, 995]
    se = (sum((e - 1000) ** 2 for e in edges) / (len(edges) - 1)) ** 0.5 / len(edges) ** 0.5
    tol = checks.EDGE_MEAN_TOLERANCE_SE * se
    assert checks.edge_mean_close(edges, 1000.0) == []
    assert checks.edge_mean_close(edges, 1000.0 + 0.99 * tol) == []
    assert checks.edge_mean_close(edges, 1000.0 + 1.01 * tol)
    assert checks.edge_mean_close(edges, 1000.0 - 1.01 * tol)


def test_hamilton_true_needs_biconnectivity():
    assert checks.hamilton_decision(Graph.cycle(6), True) == []
    assert checks.hamilton_decision(BOWTIE, True)


@pytest.mark.parametrize("g, reason", [
    (Graph.path(5), "min degree < 2"),
    (graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), "disconnected"),
    (BOWTIE, "articulation point"),
    (K23, "a node with three forced edges"),
    (FORCED_SUBCYCLE, "forced edges close a cycle shorter than n"),
])
def test_hamilton_false_needs_a_certificate(g, reason):
    assert checks.hamilton_certificate(g) == reason
    assert checks.hamilton_decision(g, False) == []


def test_hamilton_false_without_certificate_is_rejected():
    assert checks.hamilton_certificate(Graph.cycle(7)) is None
    assert checks.hamilton_decision(Graph.cycle(7), False)
    assert checks.hamilton_decision(Graph.complete(6), False)


def test_matching_true_needs_a_valid_mate_array():
    p4 = Graph.path(4)
    assert checks.matching_decision(p4, True, [1, 0, 3, 2]) == []
    assert checks.matching_decision(p4, True, maximum_matching(p4)) == []
    assert checks.matching_decision(p4, True, [2, 3, 0, 1])  # 0-2 is not an edge
    assert checks.matching_decision(p4, True, [1, 0, -1, -1])  # two left uncovered
    assert checks.matching_decision(p4, True, [1, 2, 3, 2])  # not symmetric
    assert checks.matching_decision(p4, True, None)
    p5 = Graph.path(5)
    assert checks.matching_decision(p5, True, [1, 0, 3, 2, -1]) == []


@pytest.mark.parametrize("g", [
    graph(4, [(0, 1)]),  # two isolated nodes
    Graph.star(3),  # a node next to three leaves
    # Leaves 0 and 4 hang off 1 and 3, and nodes 2 and 5 touch only 1 and
    # 3, so S = {1, 3} leaves four odd components.
    graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5)]),
])
def test_matching_false_needs_a_tutte_set(g):
    assert checks.matching_decision(g, False, None) == []


def test_matching_false_without_certificate_is_rejected():
    assert checks.matching_decision(Graph.path(4), False, None)
    assert checks.matching_decision(Graph.cycle(5), False, None)
