"""Exact Hamilton cycle decisions.

One pipeline decides every graph, cheapest stage first, and only ever
returns certified answers:

1. certified False: fewer than 3 nodes, minimum degree < 2, or
   disconnected,
2. certified True: the Dirac bound (minimum degree >= n/2),
3. forced edges around degree-2 nodes: False when a node needs 3 cycle
   edges or they close a subcycle, True when they form a spanning cycle,
4. certified True: rotation-extension search, within ``search_steps``,
   grows a path from one anchor node after another, walking the
   neighbour lists of :meth:`Graph.adjacency_lists` in (degree, id) order,
   until one closes into an explicit cycle, kept on the graph as
   ``g._cache["hamilton_cycle"]`` for :func:`is_hamilton_cycle` to audit.
   One walk visits the anchors: the nodes of lowest, median and highest
   degree; then certified False on a cut vertex (``graphs.is_biconnected``),
   checked even when those anchors spent the budget; then every other node
   in (degree, id) order, within the same steps,
5. up to ``_DP_MAX_NODES`` nodes, the Bondy-Chvatal closure and then
   subset dynamic programming over (visited-set, endpoint) states decide
   exactly; above it the pipeline raises ``BudgetExceeded`` - never a guess.

Near the sharp thresholds where the experiments run, almost every
non-Hamiltonian sample is caught by the first and third stages and almost
every Hamiltonian sample yields to rotation-extension from the first
anchors quickly, whose cycle certifies 2-connectivity, so the cut-vertex
search runs only when they fail, and a graph with a cut vertex never pays
for the remaining anchors.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import BudgetExceeded
from .graphs import Graph, is_biconnected, is_connected

_DP_STATE_LIMIT = 1 << 21  # subset-DP states summed over all layers
_DP_MAX_NODES = 24  # closure and DP keep n-bit masks and up to 2**n states


def _forced_edge_verdict(g: Graph) -> bool | None:
    """Resolve via edges forced by degree-2 nodes; None when inconclusive.

    Both edges at a degree-2 node must lie on any Hamilton cycle. A node
    collecting three forced edges, or a forced cycle shorter than n, rules
    the cycle out; a forced spanning cycle decides True outright.
    """
    adj = g.adjacency_lists()
    n = g.n
    forced: set[tuple[int, int]] = set()
    for v in range(n):
        if len(adj[v]) == 2:
            for u in adj[v]:
                forced.add((u, v) if u < v else (v, u))
    if not forced:
        return None
    forced_deg = [0] * n
    for u, v in forced:
        forced_deg[u] += 1
        forced_deg[v] += 1
    if max(forced_deg) > 2:
        return False
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    closed_cycle = False
    for u, v in forced:
        ru, rv = find(u), find(v)
        if ru == rv:
            closed_cycle = True
        else:
            parent[ru] = rv
    if not closed_cycle:
        return None
    if len(forced) == n and min(forced_deg) == 2:
        r0 = find(0)
        if all(find(v) == r0 for v in range(n)):
            return True  # the forced edges are themselves a spanning cycle
    return False


def _closure_complete(g: Graph) -> bool:
    """Bondy-Chvatal closure: keep joining non-adjacent u,v with
    deg u + deg v >= n; the input has a Hamilton cycle iff the closure does,
    so a complete closure decides True."""
    n = g.n
    masks = list(g.adjacency_masks())
    deg = [m.bit_count() for m in masks]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            cand = ((1 << n) - 1) & ~masks[u] & ~(1 << u)
            while cand:
                lb = cand & -cand
                v = lb.bit_length() - 1
                cand ^= lb
                if deg[u] + deg[v] >= n:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
                    deg[u] += 1
                    deg[v] += 1
                    changed = True
    return all(d == n - 1 for d in deg)


def _hamilton_dp(g: Graph) -> bool:
    """Layered subset DP on paths anchored at node 0; exact."""
    n = g.n
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    frontier = {1: 1}  # visited-set {0} with endpoint set {0}
    total_states = 0
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for mask, ends in frontier.items():
            e = ends
            while e:
                lb = e & -e
                v = lb.bit_length() - 1
                e ^= lb
                ext = masks[v] & ~mask
                while ext:
                    ub = ext & -ext
                    ext ^= ub
                    nm = mask | ub
                    nxt[nm] = nxt.get(nm, 0) | ub
        total_states += len(nxt)
        if total_states > _DP_STATE_LIMIT:
            raise BudgetExceeded(
                f"hamilton DP exceeded {_DP_STATE_LIMIT} states at n={n}"
            )
        if not nxt:
            return False
        frontier = nxt
    return bool(frontier.get(full, 0) & masks[0])


_GROW_WIDTH = 64  # endpoint-set breadth while the path still grows
_CLOSE_WIDTH = 1024  # breadth while hunting the closing edge
_MAX_FRUITLESS = 64  # consecutive stalls without net path growth


def _grow_cycle(adj: list[list[int]], n: int, start: int, budget: list[int]) -> list[int] | None:
    """Grow a path from ``start``; on a stall, breadth-first explore the
    set of endpoints reachable by rotations and adopt the first transformed
    path that extends (or closes into a Hamilton cycle). Returns the
    closed path, or None."""
    path = np.full(n, -1, dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)  # position on the path, -1 off it
    path[0] = start
    pos[start] = 0
    length = 1
    head_set = set(adj[start])
    best_length = 1
    fruitless = 0
    while budget[0] > 0:
        budget[0] -= 1
        ext = -1
        for u in adj[path.item(length - 1)]:
            if pos.item(u) < 0:
                ext = u
                break
        if ext >= 0:
            path[length] = ext
            pos[ext] = length
            length += 1
            if length > best_length:
                best_length = length
                fruitless = 0
            if length == n and ext in head_set:
                return path.tolist()
            continue
        # Stalled: explore rotation endpoints breadth-first.
        adopted, closed = _posa_step(adj, path, pos, length, head_set, budget, n)
        if closed:
            return path.tolist()
        if not adopted:
            return None  # rotation-closed dead end for this anchor
        fruitless += 1
        if fruitless > _MAX_FRUITLESS:
            return None
    return None


def _posa_step(adj, path, pos, length, head_set, budget, n):
    """One stall resolution. Mutates path/pos on success.

    Returns (adopted, closed): ``closed`` when the path has been rotated
    into a Hamilton cycle, ``adopted`` when a rotated path was taken that
    either extends or escapes the explored endpoint set.

    Every endpoint is reached by a chain of rotations of ``path``, kept as
    its pivot positions. Rotating at pivot ``piv`` reverses the suffix
    after it, moving position p > piv to ``piv + length - p``; each
    rotation is its own inverse. So a node's position on a rotated path,
    and the node at a rotated position, follow from ``pos`` and ``path``
    by the chain alone, and only an adopted path is ever written.
    """
    width = _CLOSE_WIDTH if length == n else _GROW_WIDTH
    t = path.item(length - 1)
    visited = {t}
    chains = [()]  # pivot positions of the rotations reaching each endpoint
    endpoint = [t]
    qi = 0
    while qi < len(endpoint) and len(visited) <= width and budget[0] > 0:
        budget[0] -= 4
        chain = chains[qi]
        for x in adj[endpoint[qi]]:
            i = pos.item(x)
            if i < 0:
                continue
            for piv in chain:
                if i > piv:
                    i = piv + length - i
            if i >= length - 2:
                continue
            j = i + 1
            for piv in reversed(chain):
                if j > piv:
                    j = piv + length - j
            y = path.item(j)
            if y in visited:
                continue
            visited.add(y)
            rotated = chain + (i,)
            if length == n and y in head_set:
                _adopt(path, pos, length, rotated)
                return False, True
            chains.append(rotated)
            endpoint.append(y)
            for w in adj[y]:
                if pos.item(w) < 0:
                    _adopt(path, pos, length, rotated)
                    return True, False
        qi += 1
    if qi >= len(endpoint) and len(visited) <= width:
        return False, False  # full Posa set explored: dead end
    if budget[0] <= 0:
        return False, False
    # Breadth cap hit: adopt the deepest rotation and keep searching.
    _adopt(path, pos, length, chains[-1])
    return True, False


def _adopt(path: np.ndarray, pos: np.ndarray, length: int, chain: tuple[int, ...]) -> None:
    """Apply the chain's rotations to ``path[:length]``; ``pos`` changes
    only after the smallest pivot."""
    for piv in chain:
        path[piv + 1:length] = path[piv + 1:length][::-1]
    lo = min(chain) + 1
    pos[path[lo:length]] = np.arange(lo, length)


def is_hamilton_cycle(g: Graph, cycle) -> bool:
    """True iff ``cycle`` lists every node of ``g`` once and each
    consecutive pair, the last and first included, is an edge of ``g``."""
    n = g.n
    c = np.asarray(cycle, dtype=np.int64)
    if n < 3 or c.shape != (n,) or not np.array_equal(np.sort(c), np.arange(n)):
        return False
    nxt = np.roll(c, -1)
    keys = np.minimum(c, nxt) * n + np.maximum(c, nxt)
    edge_keys = g.edge_keys()
    at = np.searchsorted(edge_keys, keys)
    return bool(np.all(at < edge_keys.size) and np.array_equal(edge_keys[at], keys))


def decide_hamilton(g: Graph, search_steps: int) -> bool:
    n = g.n
    if n < 3 or g.min_degree() < 2 or not is_connected(g):
        return False
    if 2 * g.min_degree() >= n:
        return True  # Dirac
    verdict = _forced_edge_verdict(g)
    if verdict is not None:
        return verdict
    adj = g.adjacency_lists()
    order = np.argsort(g.degrees(), kind="stable").tolist()
    first = list(dict.fromkeys((order[0], order[n // 2], order[-1])))
    budget = [search_steps]
    # One walk over the anchors: lowest, median and highest degree, then a
    # cut-vertex check, then every other node in (degree, id) order.
    for i, a in enumerate(chain(first, (v for v in order if v not in first))):
        if budget[0] <= 0 or (i == len(first) and not is_biconnected(g)):
            break
        cycle = _grow_cycle(adj, n, a, budget)
        if cycle is not None:
            g._cache["hamilton_cycle"] = cycle
            return True
    if not is_biconnected(g):
        return False  # whatever the budget left
    if n > _DP_MAX_NODES:
        if budget[0] > 0:
            spent = search_steps - budget[0]
            why = f"every anchor dead-ended or stalled after {spent} of {search_steps} steps"
        else:
            why = f"the step budget of {search_steps} ran out"
        raise BudgetExceeded(
            f"hamilton search inconclusive at n={n}: {why}, above the subset "
            f"DP cap of {_DP_MAX_NODES} nodes"
        )
    return _closure_complete(g) or _hamilton_dp(g)
