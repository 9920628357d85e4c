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
  if every component graph has it; an ER part is not sampled but filters
  the other parts' edges, keeping each independently with probability q.

All samplers are pure functions of ``(params, RngStream)``; identical
streams give identical graphs regardless of platform or thread count.

Rings and edges stay in flat NumPy arrays from the draw to the
:class:`Graph`: an :class:`ItemAssignment` holds every ring in one CSR pair
``(offsets, items)``, and ``build_rig`` reads those arrays directly. The
samplers build the arrays themselves; only hand-made rings, entering
through :meth:`ItemAssignment.from_rings`, are validated. One sampler of
uniform subsets, ``_distinct_rows``, draws every ring of an assignment, all
rows of one call in batched NumPy draws, by three exact methods chosen per
ring of K items from a pool of P: the head of a permutation when 4K >= P,
whole-row rejection when K(K - 1) <= 2P, and rounds of i.i.d. draws kept
until K are distinct otherwise. The edge slots of ``G(n, q)`` take the
permutation or the rounds as before, never rejection, so its stream stays
as it was. ``build_rig`` counts shared items without a pair table: it emits
one key per (pair, shared item) and sorts them once, so a pair shares at
least ``s`` items iff its key repeats ``s`` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
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
    """Independent parts on the same nodes, intersected edge by edge; an
    ``ErParams`` part acts as an independent edge filter on the others."""

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


@dataclass(frozen=True, eq=False)
class ItemAssignment:
    """Per-node rings of distinct item ids from ``range(P)``, in CSR layout.

    ``items[offsets[v]:offsets[v + 1]]`` is node v's ring, sorted ascending.
    The samplers build these arrays directly and are not checked again;
    :meth:`from_rings` is the one constructor that validates.
    """

    n: int
    P: int
    offsets: np.ndarray
    items: np.ndarray

    @classmethod
    def from_rings(cls, P: int, rings) -> "ItemAssignment":
        """Checked assignment from one iterable of item ids per node; each
        ring is sorted, and an id outside ``range(P)`` or repeated in its
        ring raises :class:`ParameterError`."""
        rows = [np.sort(np.asarray(r, dtype=np.int64)) for r in rings]
        for row in rows:
            if row.size and (row[0] < 0 or row[-1] >= P):
                raise ParameterError("item id out of pool range")
            if np.any(row[1:] == row[:-1]):
                raise ParameterError("duplicate item in a ring")
        offsets = np.cumsum([0] + [row.size for row in rows], dtype=np.int64)
        items = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        return cls(len(rows), P, offsets, items)


def _distinct_rows(gen: np.random.Generator, N: int, sizes) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(offsets, values)``: row r is a sorted uniform ``K = sizes[r]``
    subset of ``range(N)``, by one of three exact methods, drawn in this order:

    * a row with ``4 * K >= N`` is the head of its own ``gen.permutation(N)``,
      in row order;
    * every other row with ``K * (K - 1) <= 2 * N`` is drawn whole and
      rejected if it repeats a value (:func:`_whole_rows`), all such rows in
      one matrix; a row is accepted with probability above 1/3;
    * the rest, too wide to be accepted often, take rounds of i.i.d. draws
      (:func:`_draw_rounds`), which tell rows apart by the key
      ``row * N + value``; so ``len(sizes) * N`` must be < 2**63.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(sizes) * N >= 2**63:
        raise ParameterError(f"{len(sizes)} rows of range({N}) pass the 2**63 key limit")
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    values = np.empty(int(offsets[-1]), dtype=np.int64)
    head = 4 * sizes >= N
    # In floats: K * K overflows int64 for pools near 2**63.
    whole = ~head & (sizes > 0) & (sizes * (sizes - 1.0) <= 2.0 * N)
    for r in np.flatnonzero(head):
        values[offsets[r]:offsets[r + 1]] = np.sort(gen.permutation(N)[:sizes[r]])
    for rows, draw in ((whole, _whole_rows), (~head & ~whole, _draw_rounds)):
        if rows.any():
            values[np.repeat(rows, sizes)] = draw(gen, N, sizes[rows])
    return offsets, values


def _whole_rows(gen: np.random.Generator, N: int, sizes: np.ndarray) -> np.ndarray:
    """Sorted uniform ``sizes[r]``-subsets of ``range(N)``, concatenated.

    Every row is drawn as ``sizes[r]`` i.i.d. values and kept only if they are
    all distinct; given that, each ordered tuple of distinct values is equally
    likely. All rows are one ``(rows, width)`` matrix from ``gen.integers``;
    a short row's padding cells hold the sentinels ``N + column``, which are
    distinct and sort last. Rejected rows are redrawn together, at the same
    width, until none is left.
    """
    width = int(sizes.max())
    pad = np.arange(width) >= sizes[:, None]
    rows = np.empty(pad.shape, dtype=np.int64)
    todo = np.arange(sizes.size)
    while todo.size:
        draw = gen.integers(0, N, size=(todo.size, width))
        np.copyto(draw, N + np.arange(width), where=pad[todo])
        draw.sort(axis=1)
        rows[todo] = draw
        todo = todo[(draw[:, 1:] == draw[:, :-1]).any(axis=1)]
    return rows[~pad]


def _draw_rounds(gen: np.random.Generator, N: int, sizes: np.ndarray) -> np.ndarray:
    """Sorted uniform ``sizes[r]``-subsets of ``range(N)``, concatenated: each
    row keeps the first ``sizes[r]`` distinct values of i.i.d. draws, made in
    rounds of ``deficit + deficit // 16 + 16`` per row with one
    ``gen.integers`` call for all rows. Empty rows draw nothing.
    """
    rows = np.flatnonzero(sizes)
    need, picked = sizes[rows], np.empty(0, dtype=np.int64)  # accepted keys, ascending
    while rows.size:
        draws = need + need // 16 + 16
        bounds = np.concatenate([[0], np.cumsum(draws)])
        batch = np.repeat(rows, draws) * N + gen.integers(0, N, size=int(bounds[-1]))
        keys = np.concatenate([picked, batch])
        # First draw of each key: its least index (np.unique's needs a slower stable sort).
        order = np.argsort(keys)
        ranked = keys[order]
        starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
        first = np.minimum.reduceat(order, starts) - picked.size  # < 0: accepted earlier
        # A row keeps its first ``need`` new keys in draw order.
        at = first[first >= 0]
        seen = np.concatenate([[0], np.cumsum(np.bincount(at, minlength=batch.size))])
        slot = np.repeat(np.arange(rows.size), draws)[at]
        keep = first < 0
        keep[~keep] = seen[at] - seen[bounds[slot]] < need[slot]
        picked = ranked[starts][keep]
        need -= np.minimum(np.diff(seen[bounds]), need)
        rows, need = rows[need > 0], need[need > 0]
    return picked % N


def sample_uniform_assignment(p: UniformRigParams, rng: RngStream) -> ItemAssignment:
    return ItemAssignment(p.n, p.P, *_distinct_rows(rng.generator(), p.P, np.full(p.n, p.K)))


def sample_binomial_assignment(p: BinomialRigParams, rng: RngStream) -> ItemAssignment:
    # Ring size is Binomial(P, t); conditioned on its size a ring is a
    # uniform subset, so sizes-then-subsets reproduces the model exactly.
    gen = rng.generator()
    return ItemAssignment(p.n, p.P, *_distinct_rows(gen, p.P, gen.binomial(p.P, p.t, size=p.n)))


# -- intersection graph construction --------------------------------------

_DENSE_PAIR_LIMIT = 200_000_000


def build_rig(assignment: ItemAssignment, s: int) -> Graph:
    """Edge iff two rings share at least ``s`` items.

    Sorts the keys ``item * n + node``, so each item's holders form one
    ascending run, and pairs every holder with the holder ``d`` places
    later for d = 1, 2, ... while both still hold the same item. Each pair
    key ``u * n + v`` then occurs once per shared item; after one sort, a
    key occurs at least ``s`` times iff it equals the entry ``s - 1``
    places later. Cost scales with the co-holder pairs rather than with
    n^2 * K; when those pass ``_DENSE_PAIR_LIMIT``, the overlaps are
    counted on packed bitsets instead.
    """
    if s < 1:
        raise ParameterError("s must be >= 1")
    n = assignment.n
    if assignment.items.size == 0:
        return Graph.empty(n)
    if n * assignment.P >= 2**63:
        raise ParameterError(f"{n} rings of range({assignment.P}) pass the 2**63 key limit")
    # Sorting by the key item * n + node leaves each item's holders ascending.
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(assignment.offsets))
    keys += assignment.items * n
    keys.sort()
    items, nodes = np.divmod(keys, n)
    seg_starts = np.flatnonzero(np.concatenate([[True], items[1:] != items[:-1]]))
    seg_lens = np.diff(np.append(seg_starts, items.size))
    pair_total = int((seg_lens * (seg_lens - 1) // 2).sum())
    if pair_total > _DENSE_PAIR_LIMIT:
        return _build_rig_dense(assignment, s)
    if pair_total == 0:
        return Graph.empty(n)
    # Pair holder i with holder i + d while both hold the same item; the
    # active set only shrinks, and the sentinel -1 ends the last segment.
    items = np.append(items, -1)
    left = np.flatnonzero(items[1:-1] == items[:-2])
    passes = []
    d = 1
    while left.size:
        passes.append(nodes[left] * n + nodes[left + d])  # holders ascend, so u < v
        d += 1
        left = left[items[left + d] == items[left]]
    pairs = np.concatenate(passes)
    if pairs.size < s:
        return Graph.empty(n)
    pairs.sort()
    # Keep the first entry of each run that reaches s - 1 places further.
    head = pairs[: pairs.size - s + 1]
    first = np.append(True, head[1:] != head[:-1])
    return Graph(n, head[first & (head == pairs[s - 1 :])])


def _build_rig_dense(assignment: ItemAssignment, s: int) -> Graph:
    """Packed-bitset pairwise overlap counting; O(n^2 * P/64)."""
    n, P = assignment.n, assignment.P
    words = (P + 63) // 64
    packed = np.zeros((n, words), dtype=np.uint64)
    idx = assignment.items
    nodes = np.repeat(np.arange(n, dtype=np.int64), np.diff(assignment.offsets))
    np.bitwise_or.at(packed, (nodes, idx // 64), np.uint64(1) << (idx % 64).astype(np.uint64))
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


def sample_er(p: ErParams, rng: RngStream) -> Graph:
    """Each unordered pair is an edge independently with probability q.

    Drawn as Binomial(#pairs, q) edges placed on a uniform subset of pair
    slots, which is the same distribution without touching all O(n^2) pairs.
    """
    gen = rng.generator()
    total = p.n * (p.n - 1) // 2
    m = gen.binomial(total, p.q)
    # The two methods of ``_distinct_rows`` that G(n, q) always used: a
    # sparse G(n, q) skips row rejection and keeps its stream.
    if 4 * m >= total:
        idx = np.sort(gen.permutation(total)[:m])
    else:
        idx = _draw_rounds(gen, total, np.array([m]))
    # Decode the triangular index exactly: row u (pairs (u, v), v > u)
    # starts at u * (2n - u - 1) / 2.
    rows = np.arange(p.n, dtype=np.int64)
    starts = rows * (2 * p.n - rows - 1) // 2
    u = np.searchsorted(starts, idx, side="right") - 1
    v = idx - starts[u] + u + 1
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
        # Each ER part keeps each edge of the others (of part 0 if all are ER)
        # on its own uniform < q, in key order: the law of sampling it in full.
        drawn = [i for i, part in enumerate(spec.parts) if not isinstance(part, ErParams)]
        drawn = drawn or [0]
        keys = reduce(intersect_graphs, [sample_model(spec.parts[i], rng.substream(i))
                                         for i in drawn]).edge_keys()
        for i, part in enumerate(spec.parts):
            if i not in drawn:
                keys = keys[rng.substream(i).generator().random(keys.size) < part.q]
        return Graph(spec.n, keys)
    raise ParameterError(f"unknown model spec {spec!r}")
