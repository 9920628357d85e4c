"""Brute-force reference implementations for small graphs.

Deliberately independent of the production checkers: plain definitions,
exhaustive enumeration, no shared shortcuts. Used to cross-validate every
checker on all graphs small enough to afford it.
"""

from __future__ import annotations

from itertools import combinations

from riglab.errors import ParameterError
from riglab.graphs import Graph

_KCONN_CAP = 10
_HAMILTON_CAP = 10
_MATCHING_CAP = 12
_ROBUST_CAP = 16


def oracle_k_connected(g: Graph, k: int) -> bool:
    """Delete every (k-1)-subset and require the rest stays connected."""
    n = g.n
    if n > _KCONN_CAP:
        raise ParameterError(f"oracle limited to n <= {_KCONN_CAP}")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if n == 1:
        return k == 1  # a single node is connected, and no more
    if g.is_complete():
        return k <= n - 1
    if k > n - 1:
        return False
    adj = g.adjacency_lists()

    def connected_without(removed: set[int]) -> bool:
        rest = [v for v in range(n) if v not in removed]
        if not rest:
            return True
        seen = {rest[0]}
        queue = [rest[0]]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in removed and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return len(seen) == len(rest)

    return all(
        connected_without(set(sub)) for sub in combinations(range(n), k - 1)
    )


def oracle_max_matching(g: Graph) -> int:
    """Maximum independent edge set size by subset DP over covered nodes."""
    n = g.n
    if n > _MATCHING_CAP:
        raise ParameterError(f"oracle limited to n <= {_MATCHING_CAP}")
    masks = g.adjacency_masks()
    memo: dict[int, int] = {0: 0}

    def best(avail: int) -> int:
        if avail in memo:
            return memo[avail]
        lb = avail & -avail
        v = lb.bit_length() - 1
        rest = avail ^ lb
        result = best(rest)  # leave v uncovered
        cand = masks[v] & rest
        while cand:
            ub = cand & -cand
            cand ^= ub
            result = max(result, 1 + best(rest ^ ub))
        memo[avail] = result
        return result

    return best((1 << n) - 1)


def oracle_near_perfect_matching(g: Graph) -> bool:
    return oracle_max_matching(g) >= g.n // 2


def oracle_hamilton(g: Graph) -> bool:
    """Exhaustive search over cyclic orders anchored at node 0."""
    n = g.n
    if n > _HAMILTON_CAP:
        raise ParameterError(f"oracle limited to n <= {_HAMILTON_CAP}")
    if n < 3:
        return False
    adj = g.adjacency_lists()
    visited = [False] * n
    visited[0] = True

    def extend(v: int, depth: int) -> bool:
        if depth == n:
            return 0 in adj[v]
        for u in adj[v]:
            if not visited[u]:
                visited[u] = True
                if extend(u, depth + 1):
                    return True
                visited[u] = False
        return False

    return extend(0, 1)


def oracle_k_robust(g: Graph, k: int) -> bool:
    """Check the defining condition on every non-empty strict subset."""
    n = g.n
    if n > _ROBUST_CAP:
        raise ParameterError(f"oracle limited to n <= {_ROBUST_CAP}")
    if k < 1:
        raise ParameterError("k must be >= 1")
    adj = g.adjacency_lists()
    for bits in range(1, (1 << n) - 1):
        inside = [v for v in range(n) if bits >> v & 1]
        outside = [v for v in range(n) if not bits >> v & 1]
        ok = any(
            sum(1 for w in adj[v] if not bits >> w & 1) >= k for v in inside
        ) or any(
            sum(1 for w in adj[v] if bits >> w & 1) >= k for v in outside
        )
        if not ok:
            return False
    return True


def oracle_rig_edges(rings, s: int) -> list[tuple[int, int]]:
    """Pairs u < v whose rings share at least ``s`` items, by set intersection."""
    sets = [set(r) for r in rings]
    return [(u, v) for u, v in combinations(range(len(sets)), 2) if len(sets[u] & sets[v]) >= s]
