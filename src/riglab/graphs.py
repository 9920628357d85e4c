"""Simple undirected graphs on dense integer node ids.

The :class:`Graph` is the one object every sampler produces and every
property checker consumes: nodes are ``0..n-1``, edges are an immutable
deduplicated set of unordered pairs with no self-loops. Adjacency is kept
in CSR arrays whose rows are sorted by id, so membership tests
binary-search a node's row; :meth:`Graph.adjacency_lists`, the one Python
adjacency every search walks, lists each node's neighbours in
(degree, id) order instead.

The searches every other module asks of a graph live here too, on that
adjacency: connectivity, the components and the cut-vertex test.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .errors import EdgeListFormatError, ParameterError


def _canonical_edge_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sorted unique keys ``min*n+max`` for validated endpoint arrays."""
    if u.size == 0:
        return np.empty(0, dtype=np.int64)
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    if lo.min() < 0 or hi.max() >= n:
        raise ParameterError("edge endpoint out of range [0, n)")
    if np.any(lo == hi):
        raise ParameterError("self-loops are not allowed")
    return np.unique(lo * n + hi)


class Graph:
    """Immutable simple undirected graph; build via the ``from_*`` constructors."""

    __slots__ = ("n", "m", "_keys", "_nbr", "_off", "_cache")

    def __init__(self, n: int, keys: np.ndarray):
        if n < 1:
            raise ParameterError("graph needs at least one node")
        self.n = int(n)
        self._keys = keys  # sorted unique int64 keys u*n+v with u<v
        self.m = int(keys.size)
        u, v = np.divmod(keys, n)
        # Both orientations of every edge as arc keys tail*n+head; one sort
        # puts the arcs in CSR order, rows ascending and heads sorted within.
        arcs = np.sort(np.concatenate([keys, v * n + u]))
        self._nbr = arcs % n
        self._off = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
        self._cache: dict = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        pairs = list(edges)
        if not pairs:
            return cls(n, np.empty(0, dtype=np.int64))
        arr = np.asarray(pairs, dtype=np.int64)
        return cls(n, _canonical_edge_keys(n, arr[:, 0], arr[:, 1]))

    @classmethod
    def from_edge_arrays(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        return cls(n, _canonical_edge_keys(n, np.asarray(u), np.asarray(v)))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, np.empty(0, dtype=np.int64))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        u, v = np.triu_indices(n, k=1)
        return cls.from_edge_arrays(n, u, v)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ParameterError("cycle needs n >= 3")
        u = np.arange(n)
        return cls.from_edge_arrays(n, u, (u + 1) % n)

    @classmethod
    def path(cls, n: int) -> "Graph":
        u = np.arange(n - 1)
        return cls.from_edge_arrays(n, u, u + 1)

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        v = np.arange(1, leaves + 1)
        return cls.from_edge_arrays(leaves + 1, np.zeros(leaves, dtype=np.int64), v)

    # -- queries -------------------------------------------------------

    def neighbors(self, u: int) -> np.ndarray:
        return self._nbr[self._off[u]:self._off[u + 1]]

    def degree(self, u: int) -> int:
        return int(self._off[u + 1] - self._off[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self._off)

    def min_degree(self) -> int:
        return int(np.min(np.diff(self._off)))

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return bool(i < row.size and row[i] == v)

    def edge_keys(self) -> np.ndarray:
        return self._keys

    def edges(self) -> Iterator[tuple[int, int]]:
        for k in self._keys.tolist():
            yield k // self.n, k % self.n

    def adjacency_lists(self) -> list[list[int]]:
        """Each node's neighbours as a plain Python list in (degree, id)
        order, cached: the searches walk them in that order, so scarce
        low-degree nodes are reached first."""
        adj = self._cache.get("adj")
        if adj is None:
            n = self.n
            deg = self.degrees()
            # Heads are sorted within each CSR row, so one stable sort keyed
            # by (row, head degree) breaks degree ties by id.
            key = np.repeat(np.arange(n, dtype=np.int64) * n, deg)
            key += deg[self._nbr]
            # Lists taken from an object array share one int per node, where
            # ``tolist`` of an int array would box every arc's head anew.
            nodes = np.empty(n, dtype=object)
            nodes[:] = range(n)
            nbr = nodes[self._nbr[np.argsort(key, kind="stable")]].tolist()
            off = self._off.tolist()
            adj = self._cache["adj"] = [nbr[off[v]:off[v + 1]] for v in range(n)]
        return adj

    def adjacency_masks(self) -> list[int]:
        """Neighbor sets as int bitmasks, for subset-enumeration checkers."""
        rows = self._cache.get("masks")
        if rows is None:
            rows = [0] * self.n
            for u, v in self.edges():
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            self._cache["masks"] = rows
        return rows

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._keys, other._keys)

    def __hash__(self) -> int:
        return hash((self.n, self._keys.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def intersect_graphs(g1: Graph, g2: Graph) -> Graph:
    """Edge-wise intersection of two graphs on the same node set."""
    if g1.n != g2.n:
        raise ParameterError(
            f"cannot intersect graphs with different node counts ({g1.n} vs {g2.n})"
        )
    keys = np.intersect1d(g1.edge_keys(), g2.edge_keys(), assume_unique=True)
    return Graph(g1.n, keys)


def _reach(adj: list[list[int]], seen: bytearray, s: int) -> list[int]:
    """The block of ``s``: every node reachable from it, marked in ``seen``
    as found. The block list is the search queue, walked while it grows."""
    seen[s] = 1
    block = [s]
    for x in block:
        for y in adj[x]:
            if not seen[y]:
                seen[y] = 1
                block.append(y)
    return block


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of nodes into maximal connected blocks, each sorted."""
    adj = g.adjacency_lists()
    seen = bytearray(g.n)
    return [sorted(_reach(adj, seen, s)) for s in range(g.n) if not seen[s]]


def is_connected(g: Graph) -> bool:
    """Single-node graphs count as connected. The answer is cached on ``g``,
    so the decisions and the trial loop that ask again search only once."""
    conn = g._cache.get("connected")
    if conn is None:
        conn = g._cache["connected"] = (
            len(_reach(g.adjacency_lists(), bytearray(g.n), 0)) == g.n)
    return conn


def is_biconnected(g: Graph) -> bool:
    """At least 3 nodes, minimum degree >= 2, connected and no cut vertex.
    The answer is cached on ``g``, as :func:`is_connected` caches its own."""
    bic = g._cache.get("biconnected")
    if bic is None:
        bic = g._cache["biconnected"] = (
            g.n >= 3 and g.min_degree() >= 2 and is_connected(g)
            and articulation_free(g.adjacency_lists(), g.n)
        )
    return bic


def articulation_free(adj: list[list[int]], n: int) -> bool:
    """True iff the (connected) graph has no cut vertex; iterative Tarjan."""
    disc = [-1] * n
    low = [0] * n
    ptr = [0] * n
    parent = [-1] * n
    root = 0
    disc[root] = low[root] = 0
    timer = 1
    stack = [root]
    root_children = 0
    while stack:
        v = stack[-1]
        if ptr[v] < len(adj[v]):
            w = adj[v][ptr[v]]
            ptr[v] += 1
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                if v == root:
                    root_children += 1
                stack.append(w)
            elif w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
                if u != root and low[v] >= disc[u]:
                    return False
    return root_children <= 1


# -- edge-list text format -------------------------------------------


def to_edge_list_text(g: Graph) -> str:
    """Canonical text form: ``n m`` header then ``u v`` lines with u<v."""
    lines = [f"{g.n} {g.m}\n"]
    n = g.n
    for k in g.edge_keys().tolist():
        lines.append(f"{k // n} {k % n}\n")
    return "".join(lines)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(to_edge_list_text(g))


def from_edge_list_text(text: str) -> Graph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EdgeListFormatError("empty edge-list document")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListFormatError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer header: {lines[0]!r}") from exc
    if n < 1 or m < 0:
        raise EdgeListFormatError("header requires n >= 1 and m >= 0")
    if len(lines) - 1 != m:
        raise EdgeListFormatError(
            f"header promises {m} edges but document has {len(lines) - 1} edge lines"
        )
    us = np.empty(m, dtype=np.int64)
    vs = np.empty(m, dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"bad edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListFormatError(f"non-integer edge line: {line!r}") from exc
        if not 0 <= u < v < n:
            raise EdgeListFormatError(f"edge line requires 0 <= u < v < n: {line!r}")
        us[i], vs[i] = u, v
    keys = us * n + vs
    uniq = np.unique(keys)
    if uniq.size != keys.size:
        raise EdgeListFormatError("duplicate edge in document")
    return Graph(n, uniq)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise EdgeListFormatError(f"edge list is not ASCII text: {exc}") from exc
    return from_edge_list_text(text)
