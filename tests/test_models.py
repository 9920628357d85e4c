import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from riglab.errors import ParameterError
from riglab.graphs import Graph
from riglab.models import (
    BinomialRigParams,
    ErParams,
    IntersectionSpec,
    ItemAssignment,
    RggParams,
    UniformRigParams,
    _distinct_rows,
    build_rig,
    rgg_from_points,
    sample_binomial_assignment,
    sample_er,
    sample_model,
    sample_rgg,
    sample_uniform_assignment,
)
from riglab.rng import RngStream
from riglab.scaling import uniform_overlap_tail, binomial_overlap_tail

from oracles import oracle_rig_edges


def _rings(a):
    """Node rings of an assignment as lists, for literal comparison."""
    items, off = a.items.tolist(), a.offsets.tolist()
    return [items[off[v]:off[v + 1]] for v in range(a.n)]


class TestParamValidation:
    def test_uniform_needs_s_le_K_le_P(self):
        with pytest.raises(ParameterError):
            UniformRigParams(3, 5, 4)
        with pytest.raises(ParameterError):
            UniformRigParams(3, 2, 4, s=3)

    def test_binomial_t_range(self):
        with pytest.raises(ParameterError):
            BinomialRigParams(3, 1.5, 4)

    def test_er_q_range(self):
        with pytest.raises(ParameterError):
            ErParams(3, -0.1)

    def test_rgg_region(self):
        with pytest.raises(ParameterError):
            RggParams(3, 0.1, "disk")

    def test_intersection_same_n(self):
        with pytest.raises(ParameterError):
            IntersectionSpec((ErParams(3, 0.5), ErParams(4, 0.5)))


class TestUniformAssignment:
    def test_only_one_subset_possible(self):
        a = sample_uniform_assignment(UniformRigParams(3, 2, 2), RngStream(1))
        assert _rings(a) == [[0, 1], [0, 1], [0, 1]]

    def test_ring_sizes_and_distinctness(self):
        a = sample_uniform_assignment(UniformRigParams(50, 7, 100), RngStream(2))
        for ring in _rings(a):
            assert len(ring) == 7
            assert len(set(ring)) == 7
            assert all(0 <= x < 100 for x in ring)

    def test_single_item_frequencies_uniform(self):
        # K=1, P=5: chi-squared against uniform over 1e5 seeded draws
        counts = [0] * 5
        p = UniformRigParams(1, 1, 5)
        for i in range(100_000):
            a = sample_uniform_assignment(p, RngStream(42, i))
            counts[_rings(a)[0][0]] += 1
        expected = 100_000 / 5
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 18.47  # chi2_{4, 0.999}

    def test_two_node_outcomes_uniform(self):
        # n=2, K=1, P=2: four equally likely assignments
        counts = {}
        p = UniformRigParams(2, 1, 2)
        for i in range(100_000):
            a = sample_uniform_assignment(p, RngStream(7, i))
            key = tuple(a.items.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for c in counts.values():
            assert abs(c / 100_000 - 0.25) < 0.01

    def test_large_pool_is_cheap(self):
        a = sample_uniform_assignment(UniformRigParams(4, 3, 10**9), RngStream(3))
        for ring in _rings(a):
            assert len(ring) == 3


class TestFromRings:
    def test_sorts_each_ring(self):
        a = ItemAssignment.from_rings(10, [[7, 2, 5], [], [9, 0]])
        assert (a.n, a.P) == (3, 10)
        assert a.offsets.tolist() == [0, 3, 3, 5]
        assert a.items.tolist() == [2, 5, 7, 0, 9]

    @pytest.mark.parametrize("rings", [[[0, 10]], [[-1, 3]], [[1], [4, 2, 4]]])
    def test_rejects_bad_ids(self, rings):
        with pytest.raises(ParameterError):
            ItemAssignment.from_rings(10, rings)


class TestBinomialAssignment:
    def test_t_zero_empty(self):
        a = sample_binomial_assignment(BinomialRigParams(4, 0.0, 10), RngStream(1))
        assert all(len(r) == 0 for r in _rings(a))

    def test_t_one_full_pool(self):
        a = sample_binomial_assignment(BinomialRigParams(4, 1.0, 10), RngStream(1))
        assert all(r == list(range(10)) for r in _rings(a))

    def test_mean_ring_size(self):
        # P=10, t=0.3: mean ring size over 1e5 seeds near P*t = 3
        p = BinomialRigParams(1, 0.3, 10)
        total = 0
        for i in range(100_000):
            total += len(_rings(sample_binomial_assignment(p, RngStream(11, i)))[0])
        assert abs(total / 100_000 - 3.0) < 0.05


def _reference_rows(gen, N, sizes):
    """The sampling rule of ``_distinct_rows`` as a plain loop over rows."""
    rows = [set() for _ in sizes]
    for r, k in enumerate(sizes):
        if k and 4 * k >= N:
            rows[r] = set(gen.permutation(N)[:k].tolist())
    whole = [r for r, k in enumerate(sizes) if k and 4 * k < N and k * (k - 1) <= 2 * N]
    width = max((sizes[r] for r in whole), default=0)
    while whole:
        matrix = gen.integers(0, N, size=(len(whole), width)).tolist()
        for r, row in zip(whole, matrix):
            if len(set(row[:sizes[r]])) == sizes[r]:  # the padding cells are not looked at
                rows[r] = set(row[:sizes[r]])
        whole = [r for r in whole if not rows[r]]
    short = [r for r, k in enumerate(sizes) if k and 4 * k < N and k * (k - 1) > 2 * N]
    while active := [r for r in short if len(rows[r]) < sizes[r]]:
        draws = [sizes[r] - len(rows[r]) for r in active]
        draws = [d + d // 16 + 16 for d in draws]
        flat = iter(gen.integers(0, N, size=sum(draws)).tolist())
        for r, count in zip(active, draws):
            for _ in range(count):
                x = next(flat)
                if len(rows[r]) < sizes[r]:
                    rows[r].add(x)
    return [sorted(r) for r in rows]


class TestDistinctRows:
    @staticmethod
    def _split(offsets, values):
        return [values[offsets[r]:offsets[r + 1]].tolist() for r in range(len(offsets) - 1)]

    @pytest.mark.parametrize("P, K, rows", [(20, 4, 100_000), (6, 3, 20_000)],
                             ids=["rejection", "permutation"])
    def test_subsets_uniform(self, P, K, rows):
        # chi-squared over all C(P, K) subsets, every row from one call; at
        # P = 20, K = 4 about 27% of the whole rows are rejected and redrawn
        offsets, values = _distinct_rows(np.random.default_rng(P), P, np.full(rows, K))
        assert offsets.tolist() == list(range(0, K * rows + 1, K))
        ranked = values.reshape(rows, K)
        assert (np.diff(ranked, axis=1) > 0).all()
        codes = (ranked * P ** np.arange(K)[::-1]).sum(axis=1)
        counts = np.unique(codes, return_counts=True)[1]
        cells = math.comb(P, K)
        assert counts.size == cells
        expected = rows / cells
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, cells - 1)

    @pytest.mark.parametrize("rank", [0, 6, 13])
    def test_rounds_order_statistics(self, rank):
        # P = 60, K = 14 is too wide for rejection and too narrow for the
        # permutation; the rank-th smallest item of a uniform K-subset is j
        # with probability C(j, rank) C(P - 1 - j, K - 1 - rank) / C(P, K)
        P, K, rows = 60, 14, 40_000
        assert 4 * K < P < K * (K - 1) / 2
        values = _distinct_rows(np.random.default_rng(rank), P, np.full(rows, K))[1]
        counts = np.bincount(values.reshape(rows, K)[:, rank], minlength=P)
        law = np.array([math.comb(j, rank) * math.comb(P - 1 - j, K - 1 - rank)
                        for j in range(P)]) / math.comb(P, K)
        cells = law * rows >= 5  # the sparse tails pooled into one cell
        observed = np.append(counts[cells], counts[~cells].sum())
        expected = np.append(law[cells], law[~cells].sum()) * rows
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_ragged_rows_mix_all_branches(self):
        gen = np.random.default_rng(3)
        # sizes near 100 take the permutation head, up to 28 whole-row
        # rejection (28 * 27 <= 800) and 29 to 99 the rounds
        sizes = np.concatenate([gen.binomial(400, 0.25, size=300), gen.integers(0, 60, size=300)])
        gen.shuffle(sizes)
        head = 4 * sizes >= 400
        whole = (sizes > 0) & ~head & (sizes * (sizes - 1) <= 800)
        assert head.any() and whole.any() and (~head & ~whole & (sizes > 0)).any()
        offsets, values = _distinct_rows(gen, 400, sizes)
        assert np.diff(offsets).tolist() == sizes.tolist()
        assert values.size == sizes.sum() and ((0 <= values) & (values < 400)).all()
        for row in self._split(offsets, values):
            assert all(a < b for a, b in zip(row, row[1:]))

    @pytest.mark.parametrize("N, sizes", [
        (4000, [999, 998, 500, 3, 0, 1200]),  # rows that need a second round
        (40, [9] * 50),  # whole rows, about 6 in 10 rejected
        (6, [0, 1, 2, 3, 6]),
        (10**6, [249_999]),
        (1, [0, 1]),
        (1000, [5, 40, 12, 0, 44, 46, 300]),  # ragged whole rows next to the other two
    ])
    def test_matches_the_loop_rule(self, N, sizes):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert self._split(*_distinct_rows(a, N, sizes)) == _reference_rows(b, N, sizes)
        assert a.integers(0, 2**62) == b.integers(0, 2**62)  # same draws consumed

    def test_key_limit(self):
        with pytest.raises(ParameterError, match=r"2\*\*63"):
            sample_uniform_assignment(UniformRigParams(4, 3, 2**62), RngStream(1))
        ring = _rings(sample_uniform_assignment(UniformRigParams(1, 3, 2**62), RngStream(1)))[0]
        assert len(set(ring)) == 3 and all(0 <= x < 2**62 for x in ring)


@st.composite
def ring_sets(draw):
    """``(P, rings)``: up to 12 ragged, possibly empty rings from
    ``range(P)``, P <= 10, with item 0 sometimes in every ring."""
    P = draw(st.integers(1, 10))
    rings = draw(st.lists(st.sets(st.integers(0, P - 1)), min_size=1, max_size=12))
    if draw(st.booleans()):
        rings = [r | {0} for r in rings]
    return P, [sorted(r) for r in rings]


def _assert_rig_matches_oracle(a):
    """``build_rig`` against pairwise set intersection for every s from 1
    to two above the largest overlap."""
    rings = _rings(a)
    top = max((len(set(r) & set(q)) for i, r in enumerate(rings) for q in rings[i + 1:]), default=0)
    for s in range(1, top + 3):
        assert sorted(build_rig(a, s).edges()) == oracle_rig_edges(rings, s), s


class TestBuildRig:
    def test_shared_pool_complete(self):
        a = sample_uniform_assignment(UniformRigParams(4, 2, 2), RngStream(1))
        assert build_rig(a, 1).is_complete()

    def test_disjoint_rings_empty(self):
        a = ItemAssignment.from_rings(3, [[0], [1], [2]])
        assert build_rig(a, 1).m == 0

    def test_hand_enumerated_path(self):
        a = ItemAssignment.from_rings(4, [[0, 1], [1, 2], [2, 3]])
        g = build_rig(a, 1)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_overlap_threshold_monotone(self):
        p = UniformRigParams(30, 5, 40)
        for i in range(10):
            a = sample_uniform_assignment(p, RngStream(5, i))
            g1 = build_rig(a, 1)
            g2 = build_rig(a, 2)
            keys2 = set(g2.edge_keys().tolist())
            assert keys2 <= set(g1.edge_keys().tolist())

    def test_key_limit(self):
        # Holders are sorted by the key item * n + node, so n * P must be < 2**63.
        P = 2**62
        with pytest.raises(ParameterError, match=r"2\*\*63"):
            build_rig(ItemAssignment.from_rings(P, [[0, P - 1], [P - 1]]), 1)
        g = build_rig(ItemAssignment.from_rings(P - 1, [[0, P - 2], [P - 2]]), 1)
        assert sorted(g.edges()) == [(0, 1)]

    def test_dense_fallback_agrees(self):
        from riglab.models import _build_rig_dense

        p = BinomialRigParams(20, 0.4, 50, s=3)
        for i in range(5):
            a = sample_binomial_assignment(p, RngStream(6, i))
            for s in (1, 2, 3):
                assert build_rig(a, s) == _build_rig_dense(a, s)

    @given(ring_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_set_oracle(self, case):
        P, rings = case
        _assert_rig_matches_oracle(ItemAssignment.from_rings(P, rings))

    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(1, 10), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_binomial_matches_set_oracle(self, n, t, P, seed):
        _assert_rig_matches_oracle(sample_binomial_assignment(BinomialRigParams(n, t, P), RngStream(seed)))

    def test_item_held_by_every_node(self):
        # One segment of n holders: the pairing runs n - 1 offsets.
        n = 40
        rings = [[0, 1 + v % 3] for v in range(n)]
        a = ItemAssignment.from_rings(4, rings)
        _assert_rig_matches_oracle(a)
        assert build_rig(a, 1).is_complete()

    def test_fewer_pair_keys_than_s(self):
        # Four pair keys, all (0, 1): none reaches s = 5 and beyond.
        a = ItemAssignment.from_rings(10, [[0, 1, 2, 3], [0, 1, 2, 3], [9]])
        assert sorted(build_rig(a, 4).edges()) == [(0, 1)]
        for s in (5, 7, 9):
            assert build_rig(a, s).m == 0

    def test_uniform_edge_probability_matches_tail(self):
        # empirical edge frequency within 3 standard errors of the
        # hypergeometric tail, for an s=2 configuration
        K, P, s, trials = 3, 8, 2, 20_000
        p_exact = uniform_overlap_tail(K, P, s)
        hits = 0
        params = UniformRigParams(2, K, P, s)
        for i in range(trials):
            a = sample_uniform_assignment(params, RngStream(13, i))
            r0, r1 = _rings(a)
            hits += len(set(r0) & set(r1)) >= s
        se = math.sqrt(p_exact * (1 - p_exact) / trials)
        assert abs(hits / trials - p_exact) < 3 * se

    def test_binomial_edge_probability_matches_tail(self):
        t, P, s, trials = 0.35, 12, 2, 20_000
        p_exact = binomial_overlap_tail(t, P, s)
        hits = 0
        params = BinomialRigParams(2, t, P, s)
        for i in range(trials):
            a = sample_binomial_assignment(params, RngStream(14, i))
            r0, r1 = _rings(a)
            hits += len(set(r0) & set(r1)) >= s
        se = math.sqrt(p_exact * (1 - p_exact) / trials)
        assert abs(hits / trials - p_exact) < 3 * se


class TestEr:
    def test_q_zero(self):
        assert sample_er(ErParams(10, 0.0), RngStream(1)).m == 0

    def test_q_one(self):
        assert sample_er(ErParams(10, 1.0), RngStream(1)).is_complete()

    def test_mean_edge_count(self):
        # n=100, q=0.1: mean edge count over 1e4 seeds near 4950*0.1 = 495
        total = 0
        p = ErParams(100, 0.1)
        for i in range(10_000):
            total += sample_er(p, RngStream(21, i)).m
        assert abs(total / 10_000 - 495.0) < 10.0

    def test_single_node_has_no_pairs(self):
        assert sample_er(ErParams(1, 1.0), RngStream(1)).m == 0

    def test_pair_decode_valid(self):
        g = sample_er(ErParams(137, 0.05), RngStream(23))
        for u, v in g.edges():
            assert 0 <= u < v < 137


class TestRgg:
    def test_torus_complete_at_max_distance(self):
        r = math.sqrt(2) / 2
        g, _ = sample_rgg(RggParams(12, r, "torus"), RngStream(1))
        assert g.is_complete()

    def test_r_zero_empty(self):
        g, _ = sample_rgg(RggParams(12, 0.0, "square"), RngStream(1))
        assert g.m == 0

    def test_fixed_points_square(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.1], [0.9, 0.9]])
        g = rgg_from_points(pts, 0.15, "square")
        assert sorted(g.edges()) == [(0, 1)]

    def test_torus_wraps(self):
        pts = np.array([[0.05, 0.5], [0.95, 0.5]])
        assert rgg_from_points(pts, 0.15, "torus").m == 1
        assert rgg_from_points(pts, 0.15, "square").m == 0

    def test_points_in_unit_square(self):
        _, pts = sample_rgg(RggParams(100, 0.1, "square"), RngStream(9))
        assert (pts >= 0).all() and (pts < 1).all()


class TestSampleModel:
    def test_er_q1_complete(self):
        assert sample_model(ErParams(3, 1.0), RngStream(1)).is_complete()

    def test_composition_with_empty_er(self):
        spec = IntersectionSpec((UniformRigParams(5, 2, 3), ErParams(5, 0.0)))
        assert sample_model(spec, RngStream(1)).m == 0

    def test_composed_edge_probability(self):
        # G_1(2,1,2) meet ER(q=0.5): edge prob (1/2)*(1/2) = 1/4
        spec = IntersectionSpec((UniformRigParams(2, 1, 2), ErParams(2, 0.5)))
        hits = 0
        for i in range(100_000):
            hits += sample_model(spec, RngStream(31, i)).m
        assert abs(hits / 100_000 - 0.25) < 0.01

    def test_composition_is_a_subgraph_of_its_first_part(self):
        spec = IntersectionSpec((UniformRigParams(60, 4, 100), ErParams(60, 0.3)))
        for i in range(10):
            r = RngStream(8, i)
            got = sample_model(spec, r).edge_keys()
            candidates = sample_model(spec.parts[0], r.substream(0)).edge_keys()
            assert got.size and np.isin(got, candidates).all()

    def test_er_filter_keeps_candidates_at_rate_q(self):
        # Given the G_1 edges, each survives the ER filter independently w.p. q.
        q = 0.3
        spec = IntersectionSpec((UniformRigParams(100, 5, 200), ErParams(100, q)))
        kept = candidates = 0
        for i in range(200):
            r = RngStream(9, i)
            kept += sample_model(spec, r).m
            candidates += sample_model(spec.parts[0], r.substream(0)).m
        assert abs(kept / candidates - q) < 4 * math.sqrt(q * (1 - q) / candidates)

    def test_er_filter_q_one_keeps_every_candidate(self):
        spec = IntersectionSpec((UniformRigParams(60, 4, 100), ErParams(60, 1.0)))
        for i in range(5):
            r = RngStream(10, i)
            assert sample_model(spec, r) == sample_model(spec.parts[0], r.substream(0))

    def test_all_er_composition(self):
        n, trials = 40, 50
        spec = IntersectionSpec((ErParams(n, 0.5), ErParams(n, 0.4)))
        pairs = trials * n * (n - 1) // 2
        hits = sum(sample_model(spec, RngStream(11, i)).m for i in range(trials))
        assert abs(hits / pairs - 0.2) < 4 * math.sqrt(0.2 * 0.8 / pairs)

    def test_determinism(self):
        spec = IntersectionSpec((UniformRigParams(40, 4, 60), ErParams(40, 0.7)))
        a = sample_model(spec, RngStream(5, 17))
        b = sample_model(spec, RngStream(5, 17))
        c = sample_model(spec, RngStream(5, 18))
        assert a == b
        assert a != c  # overwhelmingly likely for distinct trial streams

    def test_known_stream_fingerprint(self):
        # frozen fingerprint guards accidental changes to stream derivation
        g = sample_er(ErParams(30, 0.3), RngStream(12345, 6))
        assert g.m == 142


def _sha(keys):
    return hashlib.sha256(np.asarray(keys, dtype="<i8").tobytes()).hexdigest()[:16]


class TestStreamFingerprints:
    """Frozen samples: a refactor of the samplers or of the CSR layout must
    leave every draw and every edge exactly where it was."""

    def test_uniform_assignment(self):
        p = UniformRigParams(5, 3, 20)
        assert _rings(sample_uniform_assignment(p, RngStream(3))) == [
            [0, 8, 10], [7, 13, 15], [0, 9, 12], [0, 3, 7], [2, 4, 13]]
        assert _rings(sample_uniform_assignment(p, RngStream(4))) == [
            [2, 12, 18], [6, 7, 18], [0, 2, 17], [3, 15, 19], [2, 12, 17]]
        a = sample_uniform_assignment(UniformRigParams(400, 30, 5000), RngStream(5))
        assert _sha([x for r in _rings(a) for x in r]) == "40217aa8ee6ae3c7"

    def test_binomial_assignment(self):
        p = BinomialRigParams(5, 0.3, 12)
        assert _rings(sample_binomial_assignment(p, RngStream(3))) == [
            [9], [0, 3, 6, 10], [1, 2, 3], [3, 4, 7, 11], [6, 10]]
        assert _rings(sample_binomial_assignment(p, RngStream(4))) == [
            [0, 3, 4, 7], [1, 4, 9], [0, 2, 3], [1, 6], [0, 1, 3, 4, 5, 7, 9]]

    def test_composed_edge_keys(self):
        spec = IntersectionSpec((UniformRigParams(12, 4, 10, s=2), ErParams(12, 0.5)))
        assert sample_model(spec, RngStream(7, 2)).edge_keys().tolist() == [
            3, 8, 15, 18, 19, 20, 21, 30, 41, 43, 45, 55, 58, 59, 69, 71, 81, 83,
            93, 95, 119, 131]

    def test_urig_rgg_square_edge_keys(self):
        spec = IntersectionSpec((UniformRigParams(12, 4, 10), RggParams(12, 0.4, "square")))
        assert sample_model(spec, RngStream(7, 2)).edge_keys().tolist() == [
            3, 7, 10, 11, 16, 19, 20, 28, 33, 40, 43, 46, 47, 55, 58, 59, 66, 94, 95,
            131]
        spec = IntersectionSpec((UniformRigParams(200, 8, 1000), RggParams(200, 0.2, "square")))
        keys = [sample_model(spec, RngStream(7, i)).edge_keys() for i in range(20)]
        assert _sha(np.concatenate(keys)) == "020c470c099130fe"

    def test_graph_neighbor_rows(self):
        g = sample_er(ErParams(8, 0.4), RngStream(9))
        assert [g.neighbors(u).tolist() for u in range(g.n)] == [
            [1, 2, 5, 7], [0, 3, 7], [0, 3, 5], [1, 2, 4, 7], [3, 6, 7], [0, 2],
            [4, 7], [0, 1, 3, 4, 6]]
        big = sample_er(ErParams(3000, 0.002), RngStream(9, 1))
        assert big.m == 8938
        assert _sha(big.edge_keys()) == "b0e43d886c964575"
        rows = np.concatenate([big.neighbors(u) for u in range(big.n)])
        assert _sha(rows) == "39c1eba3095bd6f1"

    def test_sparse_er_edge_keys(self):
        # about 20 edges of 19,900 slots: m(m - 1) <= 2N, so the slots are few
        # enough for a ring sampler to draw them, yet ER keeps its own draws
        keys = [sample_er(ErParams(200, 0.001), RngStream(9, i)).edge_keys() for i in range(20)]
        assert sum(k.size for k in keys) == 414
        assert _sha(np.concatenate(keys)) == "c48eed6a4bc192b0"
