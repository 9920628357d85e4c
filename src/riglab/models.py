"""Seeded samplers for every random graph family in the lab.

Families:

* uniform random s-intersection graph ``G_s(n, K, P)``: each node draws
  ``K`` distinct items uniformly from a pool of ``P``; edge iff the two
  rings share at least ``s`` items (key predistribution a la
  Eschenauer-Gligor for ``s = 1``, q-composite for ``s >= 2``),
* binomial random s-intersection graph ``H_s(n, t, P)``: every
  (node, item) pair is assigned independently with probability ``t``,
* Erdos-Renyi ``G(n, q)``: every unordered pair is an edge independently,
* random geometric graph on the unit torus or unit square: edge iff the
  two uniform points are within distance ``r`` (ties count as edges),
* intersections of the above on a shared node set, keeping an edge only
  if every component graph has it.

All samplers are pure functions of ``(params, RngStream)``; identical
streams give identical graphs regardless of platform or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError
from .graphs import Graph, intersect_graphs
from .rng import RngStream

TORUS = "torus"
SQUARE = "square"


# -- parameter records ---------------------------------------------------


@dataclass(frozen=True)
class UniformRigParams:
    """``G_s(n, K, P)``: rings of exactly K distinct items from a P-pool."""

    n: int
    K: int
    P: int
    s: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if not 1 <= self.s <= self.K <= self.P:
            raise ParameterError("need 1 <= s <= K <= P")


@dataclass(frozen=True)
class BinomialRigParams:
    """``H_s(n, t, P)``: each item lands in each ring independently w.p. t."""

    n: int
    t: float
    P: int
    s: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if not 0.0 <= self.t <= 1.0:
            raise ParameterError("t must lie in [0, 1]")
        if self.P < 1:
            raise ParameterError("P must be >= 1")
        if self.s < 1:
            raise ParameterError("s must be >= 1")


@dataclass(frozen=True)
class ErParams:
    n: int
    q: float

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError("q must lie in [0, 1]")


@dataclass(frozen=True)
class RggParams:
    """Unit-area disk model; ``torus`` wraps coordinates, ``square`` does not."""

    n: int
    r: float
    region: str = TORUS

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if self.r < 0:
            raise ParameterError("r must be >= 0")
        if self.region not in (TORUS, SQUARE):
            raise ParameterError(f"region must be {TORUS!r} or {SQUARE!r}")


@dataclass(frozen=True)
class IntersectionSpec:
    """Sample each part independently on the same nodes, then intersect edges."""

    parts: tuple["ModelSpec", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ParameterError("intersection needs at least two parts")
        ns = {p.n for p in self.parts}
        if len(ns) != 1:
            raise ParameterError("all intersected models must share the node count")

    @property
    def n(self) -> int:
        return self.parts[0].n


ModelSpec = Union[UniformRigParams, BinomialRigParams, ErParams, RggParams, IntersectionSpec]


# -- item assignments ------------------------------------------------------


@dataclass(frozen=True)
class ItemAssignment:
    """Per-node sorted rings of distinct item ids drawn from ``range(P)``."""

    n: int
    P: int
    rings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rings) != self.n:
            raise ParameterError("one ring per node required")
        for ring in self.rings:
            if any(not 0 <= it < self.P for it in ring):
                raise ParameterError("item id out of pool range")
            if len(set(ring)) != len(ring):
                raise ParameterError("duplicate item in a ring")


def _distinct_items(rng: np.random.Generator, P: int, sizes: np.ndarray) -> list[list[int]]:
    """Uniform distinct subsets, one per row, via a batched Floyd walk.

    Row i receives ``sizes[i]`` distinct items from ``range(P)``; cost is
    O(sum(sizes)) draws independent of P, which matters for huge pools.
    """
    total = int(sizes.sum())
    if total == 0:
        return [[] for _ in sizes]
    # For row of size k the Floyd walk draws bounds P-k+1, ..., P.
    intra = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    highs = P - np.repeat(sizes, sizes) + 1 + intra
    draws = rng.integers(0, highs).tolist()
    out: list[list[int]] = []
    pos = 0
    for k in sizes.tolist():
        chosen: set[int] = set()
        j = P - k
        for d in draws[pos:pos + k]:
            pick = d if d not in chosen else j
            chosen.add(pick)
            j += 1
        pos += k
        out.append(sorted(chosen))
    return out


def sample_uniform_assignment(p: UniformRigParams, rng: RngStream) -> ItemAssignment:
    gen = rng.generator()
    sizes = np.full(p.n, p.K, dtype=np.int64)
    rings = _distinct_items(gen, p.P, sizes)
    return ItemAssignment(p.n, p.P, tuple(tuple(r) for r in rings))


def sample_binomial_assignment(p: BinomialRigParams, rng: RngStream) -> ItemAssignment:
    # Ring size is Binomial(P, t); conditioned on its size a ring is a
    # uniform subset, so sizes-then-subsets reproduces the model exactly.
    gen = rng.generator()
    sizes = gen.binomial(p.P, p.t, size=p.n).astype(np.int64)
    rings = _distinct_items(gen, p.P, sizes)
    return ItemAssignment(p.n, p.P, tuple(tuple(r) for r in rings))


# -- intersection graph construction --------------------------------------

_DENSE_PAIR_LIMIT = 200_000_000


def build_rig(assignment: ItemAssignment, s: int) -> Graph:
    """Edge iff two rings share at least ``s`` items.

    Enumerates co-holder pairs through an item -> holders index, so cost
    scales with actual ring overlap rather than with n^2 * K; falls back
    to packed-bitset intersection counting when rings are dense.
    """
    if s < 1:
        raise ParameterError("s must be >= 1")
    n = assignment.n
    nodes = np.repeat(
        np.arange(n, dtype=np.int64),
        np.fromiter((len(r) for r in assignment.rings), dtype=np.int64, count=n),
    )
    if nodes.size == 0:
        return Graph.empty(n)
    items = np.concatenate([np.asarray(r, dtype=np.int64) for r in assignment.rings])
    order = np.lexsort((nodes, items))
    items = items[order]
    nodes = nodes[order]
    _, seg_starts, seg_lens = np.unique(items, return_index=True, return_counts=True)
    pair_total = int((seg_lens * (seg_lens - 1) // 2).sum())
    if pair_total > _DENSE_PAIR_LIMIT:
        return _build_rig_dense(assignment, s)
    if pair_total == 0:
        return Graph.empty(n)
    # Within each item segment, pair every holder with each later holder.
    pos = np.arange(nodes.size) - np.repeat(seg_starts, seg_lens)
    counts = np.repeat(seg_lens, seg_lens) - 1 - pos
    left = np.repeat(np.arange(nodes.size), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    right = left + 1 + (np.arange(counts.sum()) - np.repeat(offsets, counts))
    keys = nodes[left] * n + nodes[right]  # holders sorted per segment, so u < v
    uniq, shared = np.unique(keys, return_counts=True)
    return Graph(n, uniq[shared >= s])


def _build_rig_dense(assignment: ItemAssignment, s: int) -> Graph:
    """Packed-bitset pairwise overlap counting; O(n^2 * P/64)."""
    n, P = assignment.n, assignment.P
    words = (P + 63) // 64
    packed = np.zeros((n, words), dtype=np.uint64)
    for v, ring in enumerate(assignment.rings):
        idx = np.asarray(ring, dtype=np.int64)
        np.bitwise_or.at(packed, (v, idx // 64), np.uint64(1) << (idx % 64).astype(np.uint64))
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for u in range(n - 1):
        overlap = np.bitwise_count(packed[u + 1:] & packed[u]).sum(axis=1)
        hits = np.nonzero(overlap >= s)[0]
        if hits.size:
            us.append(np.full(hits.size, u, dtype=np.int64))
            vs.append(hits + u + 1)
    if not us:
        return Graph.empty(n)
    return Graph.from_edge_arrays(n, np.concatenate(us), np.concatenate(vs))


# -- pairwise families -----------------------------------------------------


def _distinct_indices(gen: np.random.Generator, total: int, m: int) -> np.ndarray:
    """Uniform m-subset of ``range(total)`` by batched rejection."""
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if m * 4 >= total:
        return gen.permutation(total)[:m]
    picked = np.empty(0, dtype=np.int64)
    while picked.size < m:
        batch = gen.integers(0, total, size=(m - picked.size) + (m - picked.size) // 16 + 16)
        merged = np.concatenate([picked, batch])
        _, first = np.unique(merged, return_index=True)
        picked = merged[np.sort(first)]  # keep first-draw order, drop repeats
    return picked[:m]


def sample_er(p: ErParams, rng: RngStream) -> Graph:
    """Each unordered pair is an edge independently with probability q.

    Drawn as Binomial(#pairs, q) edges placed on a uniform subset of pair
    slots, which is the same distribution without touching all O(n^2) pairs.
    """
    gen = rng.generator()
    total = p.n * (p.n - 1) // 2
    if total == 0:
        return Graph.empty(p.n)
    m = int(gen.binomial(total, p.q))
    idx = np.sort(_distinct_indices(gen, total, m))
    # Decode triangular index: pair (u, v), u < v, counted row by row.
    u = (np.floor((2 * p.n - 1 - np.sqrt((2 * p.n - 1) ** 2 - 8 * idx.astype(np.float64))) / 2)).astype(np.int64)
    base = u * (2 * p.n - u - 1) // 2
    # Guard the float inversion near row boundaries.
    over = base > idx
    while np.any(over):
        u[over] -= 1
        base = u * (2 * p.n - u - 1) // 2
        over = base > idx
    nxt = (u + 1) * (2 * p.n - u - 2) // 2
    under = idx >= nxt
    while np.any(under):
        u[under] += 1
        nxt = (u + 1) * (2 * p.n - u - 2) // 2
        base = u * (2 * p.n - u - 1) // 2
        under = idx >= nxt
    v = idx - base + u + 1
    return Graph(p.n, u * p.n + v)


def sample_rgg(p: RggParams, rng: RngStream) -> tuple[Graph, np.ndarray]:
    """Uniform points on the unit square, disk connectivity of radius r.

    Torus distance wraps each coordinate difference to ``min(|d|, 1-|d|)``;
    distances exactly equal to r count as edges.
    """
    points = rng.generator().random((p.n, 2))
    return rgg_from_points(points, p.r, p.region), points


def rgg_from_points(points: np.ndarray, r: float, region: str = SQUARE) -> Graph:
    """Disk graph of explicitly given points."""
    from scipy.spatial import cKDTree  # imported here: loading it slows `import riglab`

    n = len(points)
    if region == TORUS:
        tree = cKDTree(points, boxsize=[1.0, 1.0])
    else:
        tree = cKDTree(points)
    pairs = tree.query_pairs(r, output_type="ndarray")
    if pairs.size == 0:
        return Graph.empty(n)
    return Graph.from_edge_arrays(n, pairs[:, 0], pairs[:, 1])


# -- dispatch --------------------------------------------------------------


def sample_model(spec: ModelSpec, rng: RngStream) -> Graph:
    """Sample any model spec; composed parts use independent substreams."""
    if isinstance(spec, UniformRigParams):
        return build_rig(sample_uniform_assignment(spec, rng), spec.s)
    if isinstance(spec, BinomialRigParams):
        return build_rig(sample_binomial_assignment(spec, rng), spec.s)
    if isinstance(spec, ErParams):
        return sample_er(spec, rng)
    if isinstance(spec, RggParams):
        return sample_rgg(spec, rng)[0]
    if isinstance(spec, IntersectionSpec):
        graphs = [sample_model(part, rng.substream(i)) for i, part in enumerate(spec.parts)]
        out = graphs[0]
        for g in graphs[1:]:
            out = intersect_graphs(out, g)
        return out
    raise ParameterError(f"unknown model spec {spec!r}")
