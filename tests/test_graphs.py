import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riglab.errors import EdgeListFormatError, ParameterError
from riglab.graphs import (
    Graph,
    connected_components,
    from_edge_list_text,
    intersect_graphs,
    is_biconnected,
    is_connected,
    to_edge_list_text,
)


def graph_from_pairs(n, pairs):
    return Graph.from_edges(n, pairs)


@st.composite
def random_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=3 * n,
    ))
    return Graph.from_edges(n, pairs)


class TestGraphBasics:
    def test_rejects_self_loops(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 3)])

    def test_deduplicates_and_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_degree_sum_is_twice_edges(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 2)])
        assert int(g.degrees().sum()) == 2 * g.m

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_even(self, g):
        assert int(g.degrees().sum()) % 2 == 0

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_has_edge_matches_edge_list(self, g):
        edges = set(g.edges())
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)

    def test_neighbors_sorted(self):
        g = Graph.from_edges(5, [(3, 1), (3, 4), (3, 0), (3, 2)])
        assert list(g.neighbors(3)) == [0, 1, 2, 4]

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_lists_in_degree_order(self, g):
        # CSR rows stay in id order for binary search; the Python lists
        # hold the same neighbours in (degree, id) order for the searches
        adj = g.adjacency_lists()
        assert len(adj) == g.n
        for v in range(g.n):
            row = g.neighbors(v).tolist()
            assert row == sorted(row)
            assert adj[v] == sorted(row, key=lambda u: (g.degree(u), u))


class TestMinDegree:
    def test_empty_graph(self):
        assert Graph.empty(5).min_degree() == 0

    def test_complete_graph(self):
        assert Graph.complete(4).min_degree() == 3

    def test_star(self):
        # center plus 3 leaves: leaves have degree 1
        assert Graph.star(3).min_degree() == 1

    def test_single_node(self):
        assert Graph.empty(1).min_degree() == 0


class TestIntersect:
    def test_identity_case(self):
        k3 = Graph.complete(3)
        assert intersect_graphs(k3, k3) == k3

    def test_absorbing_case(self):
        assert intersect_graphs(Graph.complete(3), Graph.empty(3)) == Graph.empty(3)

    def test_hand_enumerated(self):
        # path 0-1-2 meets (1-2 plus isolated 0): only {1,2} survives
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2)])
        got = intersect_graphs(a, b)
        assert sorted(got.edges()) == [(1, 2)]

    def test_mismatched_sizes_error(self):
        with pytest.raises(ParameterError):
            intersect_graphs(Graph.empty(3), Graph.empty(4))

    @given(random_graphs(), random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_commutative_idempotent_subset(self, g1, g2):
        if g1.n != g2.n:
            g2 = Graph.from_edges(g1.n, [
                (u % g1.n, v % g1.n) for u, v in g2.edges() if u % g1.n != v % g1.n
            ])
        both = intersect_graphs(g1, g2)
        assert both == intersect_graphs(g2, g1)
        assert intersect_graphs(g1, g1) == g1
        keys = set(both.edge_keys().tolist())
        assert keys <= set(g1.edge_keys().tolist())
        assert keys <= set(g2.edge_keys().tolist())


class TestComponents:
    def test_empty(self):
        assert connected_components(Graph.empty(3)) == [[0], [1], [2]]

    def test_complete(self):
        assert connected_components(Graph.complete(3)) == [[0, 1, 2]]

    def test_two_pairs(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3]]

    def test_single_node_connected(self):
        assert is_connected(Graph.empty(1))

    def test_connectivity_searched_once(self, monkeypatch):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        calls = []
        lists = Graph.adjacency_lists
        monkeypatch.setattr(Graph, "adjacency_lists", lambda self: calls.append(1) or lists(self))
        assert not is_connected(g)
        assert not is_connected(g)
        assert len(calls) == 1

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_all_nodes(self, g):
        blocks = connected_components(g)
        nodes = sorted(v for b in blocks for v in b)
        assert nodes == list(range(g.n))
        assert is_connected(g) == (len(blocks) == 1)


class TestAgainstNetworkx:
    """Seeded graphs up to n = 200, near the connectivity thresholds and
    glued at one node, against networkx's own searches."""

    @staticmethod
    def _graphs():
        from riglab.models import ErParams, UniformRigParams, sample_model
        from riglab.rng import RngStream

        gen = np.random.default_rng(18)
        for i in range(90):
            n = int(gen.integers(3, 201))
            c = float(gen.uniform(-1.0, 4.0))  # (ln n + c)/n edge probability
            p = min((np.log(n) + c) / n, 1.0)
            if i % 3 == 0:
                yield sample_model(ErParams(n, p), RngStream(18, i))
            elif i % 3 == 1:
                P = 10 * n
                K = max(1, int(round(np.sqrt(p * P))))
                yield sample_model(UniformRigParams(n, K, P, 1), RngStream(18, i))
            else:
                # Two blocks sharing node a - 1, relabelled: a cut vertex at
                # a minimum degree of 2 or more, which only Tarjan's pass sees.
                a = int(gen.integers(3, n // 2 + 2))
                b = n - a + 1
                g1 = sample_model(ErParams(a, min(6 / a, 1.0)), RngStream(18, i))
                g2 = sample_model(ErParams(b, min(6 / b, 1.0)), RngStream(19, i))
                u1, v1 = np.divmod(g1.edge_keys(), a)
                u2, v2 = np.divmod(g2.edge_keys(), b)
                perm = gen.permutation(n)
                yield Graph.from_edge_arrays(n, perm[np.concatenate([u1, u2 + a - 1])],
                                             perm[np.concatenate([v1, v2 + a - 1])])

    def test_biconnected_and_components(self):
        nx = pytest.importorskip("networkx")
        seen = {"disconnected": 0, "cut vertex": 0, "cut vertex, min degree >= 2": 0,
                "biconnected": 0}
        for g in self._graphs():
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            blocks = connected_components(g)
            assert sorted(v for b in blocks for v in b) == list(range(g.n))
            assert blocks == sorted(sorted(c) for c in nx.connected_components(h))
            assert is_connected(g) == (len(blocks) == 1) == nx.is_connected(h)
            assert is_biconnected(g) == nx.is_biconnected(h), g
            if len(blocks) > 1:
                seen["disconnected"] += 1
            elif is_biconnected(g):
                seen["biconnected"] += 1
            else:
                seen["cut vertex"] += 1
                seen["cut vertex, min degree >= 2"] += g.min_degree() >= 2
        assert all(seen.values()), seen


class TestEdgeListFormat:
    def test_canonical_text(self):
        assert to_edge_list_text(Graph.complete(3)) == "3 3\n0 1\n0 2\n1 2\n"

    def test_round_trip_bit_exact(self):
        g = Graph.from_edges(6, [(5, 0), (2, 4), (1, 2), (0, 3)])
        text = to_edge_list_text(g)
        again = from_edge_list_text(text)
        assert again == g
        assert to_edge_list_text(again) == text

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, g):
        text = to_edge_list_text(g)
        assert to_edge_list_text(from_edge_list_text(text)) == text

    @pytest.mark.parametrize("bad", [
        "",
        "3\n",
        "3 2\n0 1\n",
        "3 1\n1 0\n",
        "3 1\n0 3\n",
        "3 1\n0 0\n",
        "3 2\n0 1\n0 1\n",
        "x y\n",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(EdgeListFormatError):
            from_edge_list_text(bad)

