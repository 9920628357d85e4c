"""Exact maximum matching on general graphs (Edmonds' blossom algorithm).

Tuned for the near-perfect-matching decision on sparse random graphs:

* forced pass: a vertex whose only remaining neighbor is u must match u
  (always contained in some maximum matching); vertices this cascade
  strands with no remaining neighbor are certified deficiencies,
* greedy maximal pass plus length-3 augmenting flips,
* per remaining free vertex: a cheap alternating DFS (sound but
  incomplete on odd cycles), falling back to the full blossom search,
  which is the exactness authority.

A free vertex with no augmenting path stays free under every later
augmentation, so the near-perfect decision stops as soon as the
permanently-free count exceeds what parity allows.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph


def _initial_matching(adj: list[list[int]], n: int) -> tuple[list[int], int]:
    """Forced + greedy + short-flip initial matching.

    Returns the mate array and the number of vertices the forced cascade
    left with no remaining neighbor; each such vertex is unmatched in some
    maximum matching, so their count lower-bounds the deficiency.
    """
    match = [-1] * n
    alive = [True] * n
    deg = [len(a) for a in adj]
    stack = [v for v in range(n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if not alive[v] or deg[v] != 1 or match[v] != -1:
            continue
        u = -1
        for w in adj[v]:
            if alive[w]:
                u = w
                break
        if u == -1:
            continue
        match[v] = u
        match[u] = v
        alive[v] = alive[u] = False
        for x in (v, u):
            for w in adj[x]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        stack.append(w)
    dead = sum(1 for v in range(n) if alive[v] and deg[v] == 0)
    for v in range(n):
        if alive[v] and match[v] == -1:
            for u in adj[v]:
                if alive[u] and match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    _short_augment_passes(adj, match, n)
    return match, dead


def _short_augment_passes(adj: list[list[int]], match: list[int], n: int) -> None:
    """Flip length-3 augmenting paths v-u-w-x until none are found."""
    for _ in range(4):
        improved = False
        for v in range(n):
            if match[v] != -1:
                continue
            done = False
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    done = True
                    break
                w = match[u]
                for x in adj[w]:
                    if x != v and x != u and match[x] == -1:
                        match[v] = u
                        match[u] = v
                        match[w] = x
                        match[x] = w
                        done = True
                        break
                if done:
                    break
            if done:
                improved = True
        if not improved:
            return


def _dfs_augment(adj, match, root, visit, stamp) -> bool:
    """Alternating DFS from a free root; flips the path when one is found.

    Sound (found paths are genuine augmenting paths) but incomplete on
    blossoms; callers must fall back to the full search on failure.
    """
    prev = {root: (-1, -1)}  # even vertex -> (odd vertex, previous even)
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if visit[u] == stamp:
                continue
            mate = match[u]
            if mate == -1:
                if u == root:
                    continue
                # Augment: (u, v), then rematch backwards to the root.
                x = v
                while x != root:
                    odd, pe = prev[x]
                    match[u] = x
                    match[x] = u
                    u = odd
                    x = pe
                match[u] = x
                match[x] = u
                return True
            if visit[mate] == stamp:
                continue
            visit[u] = stamp
            visit[mate] = stamp
            prev[mate] = (u, v)
            stack.append(mate)
    return False


def _find_augmenting_path(adj, match, p, base, root, n) -> int:
    """BFS an alternating tree from ``root``, contracting blossoms.

    Returns the free endpoint of an augmenting path, or -1. This is the
    complete (exact) search. ``members`` lists the nodes of each base
    that heads a contracted blossom, so a contraction relabels only the
    nodes of the blossoms it merges.
    """
    for i in range(n):
        p[i] = -1
        base[i] = i
    used = [False] * n
    used[root] = True
    members: dict[int, list[int]] = {}
    q = deque([root])
    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # Odd cycle through the root: contract the blossom.
                cur = _lca(match, base, p, v, to)
                blossom: set[int] = set()
                _mark_path(match, base, p, blossom, v, cur, to)
                _mark_path(match, base, p, blossom, to, cur, v)
                # cur's own nodes already have base cur and are queued.
                blossom.discard(cur)
                group = members.setdefault(cur, [cur])
                entering = []
                for b in blossom:
                    for i in members.pop(b, (b,)):
                        base[i] = cur
                        group.append(i)
                        if not used[i]:
                            used[i] = True
                            entering.append(i)
                entering.sort()  # the order a scan over all nodes queues them in
                q.extend(entering)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    return to
                used[match[to]] = True
                q.append(match[to])
    return -1


def _lca(match, base, p, a, b) -> int:
    seen = set()
    a = base[a]
    while True:
        seen.add(a)
        if match[a] == -1:
            break
        a = base[p[match[a]]]
    b = base[b]
    while b not in seen:
        b = base[p[match[b]]]
    return b


def _mark_path(match, base, p, blossom, v, b, child) -> None:
    while base[v] != b:
        blossom.add(base[v])
        blossom.add(base[match[v]])
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _augment(match, p, v) -> None:
    while v != -1:
        pv = p[v]
        ppv = match[pv]
        match[v] = pv
        match[pv] = v
        v = ppv


def _augment_from(adj, match, n, v, p, base, visit, stamp) -> bool:
    """One exact augmentation attempt: cheap DFS, then blossom search."""
    if _dfs_augment(adj, match, v, visit, stamp):
        return True
    end = _find_augmenting_path(adj, match, p, base, v, n)
    if end == -1:
        return False
    _augment(match, p, end)
    return True


def maximum_matching(g: Graph) -> list[int]:
    """Mate array of a maximum matching (-1 for uncovered nodes)."""
    n = g.n
    adj = g.adjacency_lists()
    match, _ = _initial_matching(adj, n)
    p = [-1] * n
    base = list(range(n))
    visit = [0] * n
    stamp = 0
    for v in range(n):
        if match[v] == -1:
            stamp += 1
            _augment_from(adj, match, n, v, p, base, visit, stamp)
    return match


def max_matching_size(g: Graph) -> int:
    match = maximum_matching(g)
    return sum(1 for v in match if v != -1) // 2


def has_near_perfect_matching(g: Graph) -> bool:
    """True iff a matching covers all nodes except at most one.

    Early exits: by parity the uncovered count can be at most
    ``n - 2*floor(n/2)``; forced-cascade strandings certify deficiencies
    up front, and every failed augmentation search pins one node as
    permanently uncovered.
    """
    n = g.n
    if n == 1:
        return True
    allowance = n - 2 * (n // 2)
    degs = g.degrees()
    if int((degs == 0).sum()) > allowance:
        return False
    adj = g.adjacency_lists()
    match, dead = _initial_matching(adj, n)
    if dead > allowance:
        return False
    free = sum(1 for v in match if v == -1)
    if free <= allowance:
        return True
    p = [-1] * n
    base = list(range(n))
    visit = [0] * n
    stamp = 0
    failures = 0
    for v in range(n):
        if match[v] != -1:
            continue
        stamp += 1
        if _augment_from(adj, match, n, v, p, base, visit, stamp):
            free -= 2
            if free <= allowance:
                return True
        else:
            failures += 1
            if failures > allowance:
                return False
    return free <= allowance
