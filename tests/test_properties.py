import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riglab.errors import BudgetExceeded, ParameterError
from riglab.graphs import Graph
from riglab.hamilton import is_hamilton_cycle
from riglab.matching import maximum_matching
from riglab.models import ErParams, sample_er
from riglab.properties import (
    DecisionBudget,
    PropertyKind,
    evaluate_property,
    has_hamilton_cycle,
    has_near_perfect_matching,
    is_k_connected,
    is_k_robust,
    k_robust_witness,
    max_matching_size,
    _SplitDigraph,
)
from riglab.rng import RngStream

from conftest import assert_violates_robustness, random_small_graphs
from oracles import (
    oracle_hamilton,
    oracle_k_connected,
    oracle_k_robust,
    oracle_max_matching,
    oracle_near_perfect_matching,
)


def _record_searches(monkeypatch):
    """Record (lists, anchor, steps left after it) for every anchor the
    Hamilton decision searches from."""
    from riglab import hamilton

    searches = []
    grow = hamilton._grow_cycle

    def recorded(adj, n, start, budget):
        cycle = grow(adj, n, start, budget)
        searches.append((adj, start, budget[0]))
        return cycle

    monkeypatch.setattr(hamilton, "_grow_cycle", recorded)
    return searches


# Every graph on one or two nodes.
TINY_GRAPHS = [Graph.empty(1), Graph.empty(2), Graph.complete(2)]


def pendant_rich_graph(seed, i, n_core, max_paths, max_len):
    """A random recursive tree (even i) or a sparse ER graph (odd i) on
    ``n_core`` nodes, with up to ``max_paths`` pendant paths attached."""
    rng = np.random.default_rng([seed, i])
    if i % 2 == 0:
        edges = [(int(rng.integers(v)), v) for v in range(1, n_core)]
    else:
        q = min(1.0, 1.5 * math.log(n_core + 1) / n_core)
        edges = list(sample_er(ErParams(n_core, q), RngStream(seed, i)).edges())
    n = n_core
    for _ in range(int(rng.integers(max_paths + 1))):
        prev = int(rng.integers(n_core))
        for _ in range(int(rng.integers(1, max_len + 1))):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph.from_edges(n, edges)


class TestKConnected:
    def test_complete_graph_convention(self):
        k5 = Graph.complete(5)
        assert is_k_connected(k5, 4)
        assert not is_k_connected(k5, 5)

    def test_cycle(self):
        c6 = Graph.cycle(6)
        assert is_k_connected(c6, 2)
        assert not is_k_connected(c6, 3)

    def test_path(self):
        p4 = Graph.path(4)
        assert is_k_connected(p4, 1)
        assert not is_k_connected(p4, 2)

    def test_single_node(self):
        g = Graph.empty(1)
        assert is_k_connected(g, 1)  # connected by convention
        assert not is_k_connected(g, 2)

    def test_two_nodes(self):
        k2 = Graph.complete(2)
        assert is_k_connected(k2, 1)
        assert not is_k_connected(k2, 2)

    def test_flow_path_on_near_complete(self):
        # K6 minus one edge: kappa = 4
        g = Graph.from_edges(6, [
            (u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)
        ])
        assert is_k_connected(g, 4)
        assert not is_k_connected(g, 5)

    def test_agrees_with_oracle(self):
        for g in TINY_GRAPHS + random_small_graphs(150, seed=101):
            for k in (1, 2, 3, 4):
                assert is_k_connected(g, k) == oracle_k_connected(g, k), (g, k)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_planted_cut(self, k):
        # Two dense blocks that meet only through a separator of k-1 nodes:
        # every node has degree >= k, so the Menger flows must find the cut.
        for i, n in enumerate((60, 120, 200)):
            rng = RngStream(909, 10 * k + i).generator()
            sep = list(range(k - 1))
            half = (n - len(sep)) // 2
            blocks = (range(k - 1, k - 1 + half), range(k - 1 + half, n))
            edges = set()
            for block in blocks:
                side = sep + list(block)
                for a, u in enumerate(side):
                    for v in side[a + 1:]:
                        if rng.random() < 0.2:
                            edges.add((u, v))
                for u, v in zip(block, list(block[1:]) + [block[0]]):
                    edges.add((min(u, v), max(u, v)))  # a Hamilton cycle per block
                for u in sep:
                    for v in block[:k]:
                        edges.add((u, v))
            g = Graph.from_edges(n, sorted(edges))
            assert g.min_degree() >= k, (k, n)
            assert not is_k_connected(g, k), (k, n)
            assert is_k_connected(g, k - 1), (k, n)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("v_side", ["small", "large"])
    def test_planted_cut_at_the_min_degree_node(self, k, v_side):
        # The k-1 separator nodes are neighbours of the min-degree node v,
        # so every flow from v into the far block is blocked next to v. In
        # the search that fails, the side whose block is small runs out
        # first: the one leaving v when v's block is small, the one
        # leaving the sink when it is large.
        rng = RngStream(919, k).generator()
        sep = list(range(k - 1))
        v = k - 1
        sizes = (k + 2, 80) if v_side == "small" else (80, k + 2)
        blocks = (range(v, v + sizes[0]), range(v + sizes[0], v + sum(sizes)))
        n = blocks[1][-1] + 1
        edges = {(u, v) for u in sep} | {(v, v + 1)}
        for block in blocks:
            rest = [u for u in block if u != v]
            for a, u in enumerate(rest):
                for w in rest[a + 1:]:
                    if len(rest) <= k + 2 or rng.random() < 0.15:
                        edges.add((u, w))
                edges.add((min(u, rest[a - 1]), max(u, rest[a - 1])))
                for s in sep:
                    if a < k or rng.random() < 0.3:
                        edges.add((s, u))
        g = Graph.from_edges(n, sorted(edges))
        assert int(g.degrees().argmin()) == v and g.degree(v) == k
        assert not is_k_connected(g, k)
        assert is_k_connected(g, k - 1)

    def test_expansion_lemma_spares_most_flows(self, monkeypatch):
        # The kconn3 benchmark graphs: ER at n = 300, k = 3, deviation +5.
        # Flowing v to every non-neighbour takes about 300 flows; nodes with
        # k neighbours already known k-connected to v need none.
        n, k = 300, 3
        q = (math.log(n) + (k - 1) * math.log(math.log(n)) + 5) / n
        g = sample_er(ErParams(n, q), RngStream(41, 0))
        calls = []
        flow = _SplitDigraph.flow_at_least

        def counted(self, s, t, paths):
            calls.append((s, t))
            return flow(self, s, t, paths)

        monkeypatch.setattr(_SplitDigraph, "flow_at_least", counted)
        assert is_k_connected(g, k)
        assert 0 < len(calls) <= 60

    def test_flow_cancels_an_earlier_path(self):
        # s-a-b-t is the unique shortest path, and the only two disjoint
        # paths are s-c-e-b-t and s-a-d-f-t, so the second augmenting path
        # must cancel the flow that the first sent from a to b. Three
        # leaves on s make the frontier at s the wider one, so the side
        # leaving t crosses the cancelled arc when s is the source and the
        # side leaving s does when it is the sink.
        s, a, b, t, c, e, d, f = range(8)
        edges = [(s, a), (a, b), (b, t), (s, c), (c, e), (e, b), (a, d), (d, f), (f, t)]
        edges += [(s, leaf) for leaf in (8, 9, 10)]
        n = 11
        adj = Graph.from_edges(n, sorted((min(uv), max(uv)) for uv in edges)).adjacency_lists()
        for src, dst in ((s, t), (t, s)):
            net = _SplitDigraph(adj, n)
            assert net.flow_at_least(src, dst, 2)
            assert not net.flow_at_least(src, dst, 3)
            assert net._cap == _SplitDigraph(adj, n)._cap

    def test_queries_leave_zero_flow(self):
        n = 120
        g = sample_er(ErParams(n, 0.06), RngStream(929, 0))
        adj = g.adjacency_lists()
        net = _SplitDigraph(adj, n)
        rng = RngStream(929, 1).generator()
        verdicts = set()
        for _ in range(60):
            s, t = (int(x) for x in rng.choice(n, 2, replace=False))
            if not g.has_edge(s, t):
                verdicts.add(net.flow_at_least(s, t, int(rng.integers(1, 8))))
        assert verdicts == {True, False}
        assert net._cap == _SplitDigraph(adj, n)._cap


class TestMatching:
    def test_cycle_c6(self):
        assert max_matching_size(Graph.cycle(6)) == 3

    def test_star(self):
        assert max_matching_size(Graph.star(3)) == 1
        assert not has_near_perfect_matching(Graph.star(3))

    def test_petersen(self, petersen):
        assert max_matching_size(petersen) == 5
        assert oracle_max_matching(petersen) == 5

    def test_triangle_near_perfect(self):
        assert has_near_perfect_matching(Graph.complete(3))

    def test_empty_pair(self):
        assert not has_near_perfect_matching(Graph.empty(2))

    def test_single_node(self):
        assert has_near_perfect_matching(Graph.empty(1))

    def test_odd_cycle_blossoms(self):
        # two triangles joined by a path force blossom handling
        g = Graph.from_edges(8, [
            (0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
            (4, 5), (5, 6), (6, 4), (6, 7),
        ])
        assert max_matching_size(g) == oracle_max_matching(g)

    def test_hub_with_three_leaves_is_deficient(self):
        # No isolated node, but the hub covers one leaf at most.
        n = 1000
        er = sample_er(ErParams(n, 3 * math.log(n) / n), RngStream(404, 0))
        hub = [(0, n)] + [(n, n + j) for j in (1, 2, 3)]
        g = Graph.from_edges(n + 4, list(er.edges()) + hub)
        assert g.min_degree() >= 1
        assert not has_near_perfect_matching(g)

    def test_agrees_with_oracle(self):
        pendant = [pendant_rich_graph(303, i, 2 + i % 6, 2, 2) for i in range(200)]
        for g in TINY_GRAPHS + random_small_graphs(200, seed=202) + pendant:
            assert max_matching_size(g) == oracle_max_matching(g)
            assert has_near_perfect_matching(g) == oracle_near_perfect_matching(g)


class TestHamilton:
    def test_cycle_true(self):
        assert has_hamilton_cycle(Graph.cycle(5))

    def test_tree_false(self):
        assert not has_hamilton_cycle(Graph.path(6))
        assert not has_hamilton_cycle(Graph.star(4))

    def test_petersen_false(self, petersen):
        assert not has_hamilton_cycle(petersen)
        assert not oracle_hamilton(petersen)

    def test_tiny_graphs(self):
        assert not has_hamilton_cycle(Graph.complete(2))
        assert has_hamilton_cycle(Graph.complete(3))

    def test_budget_error_past_enumeration_cap(self):
        # 4-regular circulant C_30(1, 2): biconnected, below Dirac, no
        # degree-2 node, so only the search or the DP can settle it
        g = Graph.from_edges(30, [(v, (v + d) % 30) for v in range(30) for d in (1, 2)])
        with pytest.raises(BudgetExceeded, match="inconclusive"):
            has_hamilton_cycle(g, DecisionBudget(search_steps=1))
        assert has_hamilton_cycle(g)

    def test_large_path_with_search_steps(self):
        g = Graph.cycle(200)
        budget = DecisionBudget(search_steps=50_000)
        assert has_hamilton_cycle(g, budget)
        gp = Graph.path(200)
        assert not has_hamilton_cycle(gp, budget)

    def test_forced_edge_contradiction(self):
        # theta graph: two degree-3 hubs joined by three paths; the middle
        # vertices force 3 cycle edges at each hub
        g = Graph.from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
        assert not has_hamilton_cycle(g)

    def test_agrees_with_oracle(self):
        for g in TINY_GRAPHS + random_small_graphs(150, seed=303):
            assert has_hamilton_cycle(g) == oracle_hamilton(g)

    def test_staged_agrees_with_dp(self, monkeypatch):
        # keep mid-size graphs away from the subset DP (cap 3), so only
        # certificates and search decide, and compare with the DP itself
        from riglab import hamilton
        from riglab.hamilton import _hamilton_dp

        monkeypatch.setattr(hamilton, "_DP_MAX_NODES", 3)
        checked = 0
        for i in range(80):
            n = 13 + i % 4
            g = sample_er(ErParams(n, [2.2 / n, 3.2 / n, 0.4][i % 3]), RngStream(404, i))
            exact = _hamilton_dp(g)
            try:
                staged = has_hamilton_cycle(g, DecisionBudget(search_steps=20_000))
            except BudgetExceeded:
                continue
            assert staged == exact
            checked += 1
        assert checked >= 60  # the search should rarely be inconclusive

    @pytest.mark.parametrize("seed, left, digest", [
        (0, 197_445, "ec4ba08495cafde7"),
        (1, 196_678, "37689bff84e3286b"),
        (5, 197_318, "92b49b0edcbda7e5"),
    ])
    def test_search_path_pinned(self, monkeypatch, seed, left, digest):
        # ER at n=2000, deviation +3: the steps the rotation search leaves
        # of its budget fix the path it took, so a rewrite of its data
        # structures must leave them, and the cycle found, unchanged
        n = 2000
        q = (math.log(n) + math.log(math.log(n)) + 3.0) / n
        g = sample_er(ErParams(n, q), RngStream(seed, 0))
        searches = _record_searches(monkeypatch)
        assert has_hamilton_cycle(g, DecisionBudget(search_steps=200_000))
        assert len(searches) <= 3 and searches[-1][2] == left  # one of the first anchors
        cycle_bytes = np.asarray(g._cache["hamilton_cycle"], dtype=np.int64).tobytes()
        assert hashlib.sha256(cycle_bytes).hexdigest()[:16] == digest

    def test_search_walks_the_graph_adjacency_lists(self, monkeypatch):
        # one neighbour list per graph: the rotation search walks the
        # cached (degree, id)-ordered lists, not a copy of its own
        n = 200
        g = sample_er(ErParams(n, 3 * math.log(n) / n), RngStream(7, 0))
        searches = _record_searches(monkeypatch)
        assert has_hamilton_cycle(g)
        assert searches and all(adj is g.adjacency_lists() for adj, _, _ in searches)

    def test_found_cycle_is_kept_and_skips_tarjan(self):
        n = 200
        g = sample_er(ErParams(n, 3 * math.log(n) / n), RngStream(7, 0))
        assert has_hamilton_cycle(g)
        assert is_hamilton_cycle(g, g._cache["hamilton_cycle"])
        assert "biconnected" not in g._cache  # the cycle certified it

    @pytest.mark.parametrize("size", [3, 4, 13], ids=["bowtie", "k4-bowtie", "two-k13"])
    @pytest.mark.parametrize("steps", [1, 200_000])
    def test_cut_vertex_is_false_after_failed_search(self, size, steps):
        # two K_size sharing node 0: minimum degree >= 2 and a cut vertex,
        # on 5, 7 and 25 nodes (the last above the DP cap), so neither an
        # exhausted nor a failed search may raise
        halves = ([0, *range(1, size)], [0, *range(size, 2 * size - 1)])
        g = Graph.from_edges(2 * size - 1, [
            (u, v) for half in halves for i, u in enumerate(half) for v in half[i + 1:]
        ])
        assert g.min_degree() >= 2 and not is_k_connected(g, 2)
        assert not has_hamilton_cycle(g, DecisionBudget(search_steps=steps))

    def test_cut_vertex_skips_the_remaining_anchors(self, monkeypatch):
        # two K_13 sharing node 0: the first three anchors fail, and the
        # cut vertex decides before any other anchor is tried
        searches = _record_searches(monkeypatch)
        halves = ([0, *range(1, 13)], [0, *range(13, 25)])
        g = Graph.from_edges(25, [
            (u, v) for half in halves for i, u in enumerate(half) for v in half[i + 1:]
        ])
        assert not has_hamilton_cycle(g)
        assert len(searches) == 3

    def test_inconclusive_message_names_the_cause(self):
        # K_{13,14}: biconnected, above the DP cap and without a Hamilton
        # cycle, so all 27 anchors dead-end, after 2120 steps in all
        # whatever the budget
        g = Graph.from_edges(27, [(u, v) for u in range(13) for v in range(13, 27)])
        assert is_k_connected(g, 2)
        for steps in (200_000, 10**6):
            with pytest.raises(BudgetExceeded, match=(
                    f"inconclusive at n=27: every anchor dead-ended or stalled "
                    f"after 2120 of {steps} steps")):
                has_hamilton_cycle(g, DecisionBudget(search_steps=steps))
        circulant = Graph.from_edges(30, [(v, (v + d) % 30) for v in range(30) for d in (1, 2)])
        with pytest.raises(BudgetExceeded,
                           match="inconclusive at n=30: the step budget of 1 ran out"):
            has_hamilton_cycle(circulant, DecisionBudget(search_steps=1))

    def test_search_goes_past_the_first_three_anchors(self, monkeypatch):
        # RngStream(17, 24) at ER n=60, deviation +2: the lowest-, median-
        # and highest-degree anchors dead-end after 145 steps, but the
        # graph is Hamiltonian: the second node in degree order closes a
        # cycle in 87 more
        n = 60
        q = (math.log(n) + math.log(math.log(n)) + 2.0) / n
        g = sample_er(ErParams(n, q), RngStream(17, 24))
        searches = _record_searches(monkeypatch)
        assert has_hamilton_cycle(g)
        assert is_hamilton_cycle(g, g._cache["hamilton_cycle"])
        order = np.argsort(g.degrees(), kind="stable").tolist()
        assert [a for _, a, _ in searches] == [order[0], order[n // 2], order[-1], order[1]]
        assert [left for _, _, left in searches][2:] == [200_000 - 145, 200_000 - 145 - 87]

    def test_cycle_check_rejects_mutations(self):
        n = 200
        g = sample_er(ErParams(n, 3 * math.log(n) / n), RngStream(7, 0))
        assert has_hamilton_cycle(g)
        cycle = list(g._cache["hamilton_cycle"])
        assert is_hamilton_cycle(g, cycle)
        assert not is_hamilton_cycle(g, cycle[:-1] + [cycle[0]])  # repeated node
        assert not is_hamilton_cycle(Graph.complete(4), [0, 1, 0, 1])  # ... on edges only
        assert not is_hamilton_cycle(g, cycle[:-1])  # missing node
        assert not is_hamilton_cycle(g, cycle + [cycle[0]])  # wrong length
        assert not is_hamilton_cycle(g, cycle[:-1] + [n])  # not a node
        path = Graph.path(5)  # every consecutive pair is an edge but (4, 0)
        assert not is_hamilton_cycle(path, [0, 1, 2, 3, 4])
        assert is_hamilton_cycle(Graph.cycle(5), [0, 1, 2, 3, 4])

    def test_default_budget_decides_near_threshold(self):
        # ER at n=24, deviation +4: a subset DP run first exceeds its state
        # limit on most of these graphs; certificates and search settle them
        from riglab import FamilyParams, ModelFamily, run_experiment, threshold_experiment

        cfg = threshold_experiment(ModelFamily.er(), PropertyKind.hamilton_cycle(), 24, 4.0,
                                   FamilyParams(n=24), 20, 11)
        records = run_experiment(cfg).records
        assert sum(r.outcome for r in records) >= 15


class TestNetworkxCrossCheck:
    """Moderate-n graphs, beyond the brute-force oracles, against networkx."""

    @staticmethod
    def _to_networkx(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        adj = g.adjacency_lists()
        h.add_edges_from((u, v) for u in range(g.n) for v in adj[u] if u < v)
        return h

    def test_three_connectivity(self):
        nx = pytest.importorskip("networkx")
        verdicts = set()
        for i in range(12):
            n = 50 + 10 * (i % 4)
            # deviations -1, +1, +3 around the 3-connectivity threshold
            q = (math.log(n) + 2 * math.log(math.log(n)) + (-1, 1, 3)[i % 3]) / n
            g = sample_er(ErParams(n, q), RngStream(606, i))
            got = is_k_connected(g, 3)
            assert got == (nx.node_connectivity(self._to_networkx(nx, g)) >= 3), (n, i)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_desk_scale_connectivity(self):
        # n = 200-250 keeps networkx's own flows under ~10 s in all.
        nx = pytest.importorskip("networkx")
        verdicts = set()
        for i, (k, dev) in enumerate((k, dev) for k in (3, 4, 5) for dev in (-1, 1, 3)):
            n = (200, 225, 250)[(k + dev) % 3]
            # deviations around the k-connectivity threshold
            q = (math.log(n) + (k - 1) * math.log(math.log(n)) + dev) / n
            g = sample_er(ErParams(n, q), RngStream(505, i))
            got = is_k_connected(g, k)
            assert got == (nx.node_connectivity(self._to_networkx(nx, g)) >= k), (n, k, dev)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_exact_connectivity(self):
        # The largest k <= 6 that is_k_connected accepts is kappa itself, so
        # every pair flow of a decision is checked against a fresh one.
        nx = pytest.importorskip("networkx")
        seen = set()
        for i in range(12):
            n = (40, 60, 80)[i % 3]
            q = (math.log(n) + 2 * math.log(math.log(n)) + (0, 3, 6, 10)[i % 4]) / n
            g = sample_er(ErParams(n, q), RngStream(808, i))
            got = max((k for k in range(1, 7) if is_k_connected(g, k)), default=0)
            kappa = min(nx.node_connectivity(self._to_networkx(nx, g)), 6)
            assert got == kappa, (n, i)
            seen.add(got)
        assert len(seen) >= 3

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_planted_separator_under_relabelling(self, k):
        # Two random blocks joined only through a separator of k - 1 nodes,
        # plus up to three cross edges that may break the cut; the nodes are
        # then relabelled at random, so the min-degree node v and the
        # separator fall anywhere in the id order the flows walk. A node
        # with k - 1 neighbours in the set proved k-connected to v is not
        # settled: the separator nodes can be k - 1 such neighbours.
        nx = pytest.importorskip("networkx")
        rng = RngStream(939, k).generator()
        verdicts = []
        for _ in range(40):
            n = int(rng.integers(30, 81))
            sep = list(range(k - 1))
            cut = int(rng.integers(k + 9, n - 9))
            blocks = (range(k - 1, cut), range(cut, n))
            p_block, p_sep = rng.uniform(0.25, 0.5), rng.uniform(0.3, 0.9)
            edges = set()
            for block in blocks:
                for a, u in enumerate(block):
                    edges.update((u, w) for w in block[a + 1:] if rng.random() < p_block)
                    edges.update((x, u) for x in sep if rng.random() < p_sep)
            for _ in range(int(rng.integers(1, 4)) if rng.random() < 0.5 else 0):
                edges.add((int(rng.choice(blocks[0])), int(rng.choice(blocks[1]))))
            label = rng.permutation(n)
            g = Graph.from_edges(n, sorted((min(label[u], label[w]), max(label[u], label[w]))
                                           for u, w in edges))
            got = is_k_connected(g, k)
            assert got == (nx.node_connectivity(self._to_networkx(nx, g)) >= k), (k, n)
            if g.min_degree() >= k:
                verdicts.append(got)
        assert verdicts.count(False) >= 5 and verdicts.count(True) >= 5

    def test_max_matching(self):
        nx = pytest.importorskip("networkx")
        for i in range(12):
            n = (51, 100, 150, 200)[i % 4]
            g = sample_er(ErParams(n, (1.0, 1.5, 3.0)[i % 3] * math.log(n) / n),
                          RngStream(707, i))
            h = self._to_networkx(nx, g)
            assert max_matching_size(g) == len(nx.max_weight_matching(h, maxcardinality=True))

    def test_maximum_matching_on_pendant_rich_graphs(self):
        nx = pytest.importorskip("networkx")
        for i in range(60):
            g = pendant_rich_graph(909, i, 20 + 3 * i, 8, 4)
            mate = maximum_matching(g)
            matched = [v for v in range(g.n) if mate[v] != -1]
            assert all(mate[mate[v]] == v and g.has_edge(v, mate[v]) for v in matched), i
            size = len(nx.max_weight_matching(self._to_networkx(nx, g), maxcardinality=True))
            assert len(matched) == 2 * size, i
            assert has_near_perfect_matching(g) == (g.n - 2 * size <= 1), i


class TestKRobust:
    def test_k4_is_2_robust(self):
        assert is_k_robust(Graph.complete(4), 2)
        assert oracle_k_robust(Graph.complete(4), 2)

    def test_c6_not_2_robust(self):
        c6 = Graph.cycle(6)
        assert not is_k_robust(c6, 2)
        assert_violates_robustness(c6, 2, k_robust_witness(c6, 2))

    def test_disconnected_not_1_robust(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_k_robust(g, 1)

    def test_single_node_vacuous(self):
        assert is_k_robust(Graph.empty(1), 1)

    def test_cycle_past_enumeration_sizes(self):
        c30 = Graph.cycle(30)
        assert is_k_robust(c30, 1)
        assert not is_k_robust(c30, 2)
        assert_violates_robustness(c30, 2, k_robust_witness(c30, 2))

    def test_complete_graph_at_its_robustness(self):
        k24 = Graph.complete(24)
        assert is_k_robust(k24, 2)
        assert is_k_robust(k24, 12)
        assert not is_k_robust(k24, 13)  # T = 12 nodes: 12 neighbors across
        assert_violates_robustness(k24, 13, k_robust_witness(k24, 13))

    def test_node_limit_raises(self, monkeypatch):
        # ER(12) near the 3-robustness threshold: k-robust, but the MILP
        # needs more than its root node to prove it
        from riglab import properties

        q = (math.log(12) + 2 * math.log(math.log(12)) + 1) / 12
        g = sample_er(ErParams(12, q), RngStream(2, 0))
        assert g.min_degree() >= 3
        monkeypatch.setattr(properties, "_MILP_NODE_LIMIT", 1)
        with pytest.raises(BudgetExceeded, match=r"n=12, k=3 .* 1 branch-and-bound"):
            is_k_robust(g, 3)
        monkeypatch.undo()
        assert is_k_robust(g, 3) and oracle_k_robust(g, 3)

    # The messages of scipy 1.17's milp for a HiGHS node-limit stop and a solve error
    @pytest.mark.parametrize("message, error, match", [
        ("The HiGHS status code was not recognized. (HiGHS Status 16: model_status is "
         "Solution limit reached; primal_status is None)", BudgetExceeded,
         r"n=6, k=2 undecided within 10000 branch-and-bound nodes"),
        ("(HiGHS Status 4: model_status is Solve error; primal_status is None)",
         RuntimeError, r"n=6, k=2 failed: .*Solve error"),
    ], ids=["node-limit", "solve-error"])
    def test_failed_solve_raises(self, monkeypatch, message, error, match):
        import scipy.optimize

        stopped = SimpleNamespace(status=4, x=None, message=message, mip_node_count=None)
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: stopped)
        with pytest.raises(error, match=match):
            k_robust_witness(Graph.cycle(6), 2)

    @pytest.mark.parametrize("x", [[1, 0, 1, 0, 1, 0], [1] * 6], ids=["crossing", "all"])
    def test_solution_that_is_no_witness_raises(self, monkeypatch, x):
        import scipy.optimize

        solved = SimpleNamespace(status=0, x=np.array(x, dtype=float))
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: solved)
        with pytest.raises(RuntimeError, match="non-witness"):
            k_robust_witness(Graph.cycle(6), 2)

    def test_agrees_with_oracle(self):
        # 4 x 150 graphs, n = 4..12, at k = 1..3: 1,800 cases, plus the tiny ones
        graphs = TINY_GRAPHS + [
            g for seed in (505, 606, 707, 808) for g in random_small_graphs(150, seed, n_hi=12)
        ]
        for g in graphs:
            for k in (1, 2, 3):
                witness = k_robust_witness(g, k)
                assert (witness is None) == oracle_k_robust(g, k), (g, k)
                if witness is not None:
                    assert_violates_robustness(g, k, witness)

    def test_one_robust_iff_connected(self):
        from riglab.graphs import is_connected

        for g in random_small_graphs(80, seed=606, n_hi=9):
            assert is_k_robust(g, 1) == is_connected(g)

    def test_robust_vs_kconnected_audit(self, capsys):
        # The displayed robustness condition quantifies one subset against
        # its complement; whether it still implies k-connectivity is
        # audited empirically here, not asserted.
        agree = total = 0
        for g in random_small_graphs(150, seed=707, n_hi=9):
            for k in (2, 3):
                if is_k_robust(g, k):
                    total += 1
                    agree += is_k_connected(g, k)
        print(f"robust=>k-connected audit: {agree}/{total} agreed")
        assert total > 0


class TestCrossPropertyInvariants:
    def test_implications_on_random_graphs(self):
        budget = DecisionBudget()
        for g in random_small_graphs(150, seed=808):
            mind = g.min_degree()
            for k in (1, 2, 3):
                if is_k_connected(g, k):
                    assert mind >= k
                    if k >= 2:
                        assert is_k_connected(g, k - 1)
                if is_k_robust(g, k):
                    if k >= 2:
                        assert mind >= k
                        assert is_k_robust(g, k - 1)
            if g.n >= 3 and has_hamilton_cycle(g, budget):
                assert is_k_connected(g, 2)
                assert has_near_perfect_matching(g)

    @given(st.integers(3, 8), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_hamilton_implies_matching_hypothesis(self, n, seed):
        from riglab.models import ErParams, sample_er
        from riglab.rng import RngStream

        g = sample_er(ErParams(n, 0.6), RngStream(seed, 0))
        if has_hamilton_cycle(g):
            assert has_near_perfect_matching(g)


class TestPropertyKind:
    def test_labels(self):
        assert PropertyKind.k_connected(2).label() == "k_connected(k=2)"
        assert PropertyKind.hamilton_cycle().label() == "hamilton_cycle"

    def test_validation(self):
        with pytest.raises(ParameterError):
            PropertyKind("nope")
        with pytest.raises(ParameterError):
            PropertyKind.k_connected(0)
        with pytest.raises(ParameterError):
            PropertyKind("hamilton_cycle", 3)

    def test_evaluate_dispatch(self):
        c6 = Graph.cycle(6)
        assert evaluate_property(c6, PropertyKind.min_degree_at_least(2))
        assert evaluate_property(c6, PropertyKind.k_connected(2))
        assert evaluate_property(c6, PropertyKind.near_perfect_matching())
        assert evaluate_property(c6, PropertyKind.hamilton_cycle())
        assert not evaluate_property(c6, PropertyKind.k_robust(2))
