"""Exact maximum matching on general graphs (Edmonds' blossom algorithm).

Tuned for the near-perfect-matching decision on sparse random graphs. One
pipeline serves both entry points: a greedy maximal matching and
length-3 augmenting flips, then each free node in index order tries a
cheap alternating DFS (sound but incomplete on odd cycles) and falls back
to the full blossom search, which is the exactness authority.

The loop stops once at most one node is free, since one free node ends
no augmenting path, or once more than ``give_up`` searches have failed: a
free node with no augmenting path stays free under every later
augmentation, so the near-perfect decision stops as soon as the failed
count exceeds what parity allows.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph


def _initial_matching(adj: list[list[int]], n: int) -> list[int]:
    """Greedy maximal matching, then length-3 augmenting flips."""
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    _short_augment_passes(adj, match, n)
    return match


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


def _augment_all(g: Graph, give_up: int) -> tuple[list[int], int]:
    """Mate array and free-node count after augmenting from each free node.

    Stops once ``free <= 1`` or once more than ``give_up`` searches have
    failed; every failed root is still free then, so ``free > give_up``.
    """
    n = g.n
    adj = g.adjacency_lists()
    match = _initial_matching(adj, n)
    free = match.count(-1)
    p = [-1] * n
    base = list(range(n))
    visit = [0] * n
    failures = 0
    for v in range(n):
        if free <= 1 or failures > give_up:
            break
        if match[v] != -1:
            continue
        if _dfs_augment(adj, match, v, visit, v + 1):
            free -= 2
            continue
        end = _find_augmenting_path(adj, match, p, base, v, n)
        if end == -1:
            failures += 1
        else:
            _augment(match, p, end)
            free -= 2
    return match, free


def maximum_matching(g: Graph) -> list[int]:
    """Mate array of a maximum matching (-1 for uncovered nodes)."""
    return _augment_all(g, g.n)[0]


def max_matching_size(g: Graph) -> int:
    """Number of edges in a maximum matching."""
    return (g.n - _augment_all(g, g.n)[1]) // 2


def has_near_perfect_matching(g: Graph) -> bool:
    """True iff a matching covers all nodes except at most one.

    By parity at most ``n % 2`` nodes can stay uncovered; more isolated
    nodes than that decide False before any matching is built.
    """
    allowance = g.n % 2
    if int((g.degrees() == 0).sum()) > allowance:
        return False
    return _augment_all(g, allowance)[1] <= allowance
