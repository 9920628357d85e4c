"""Output checks. Each returns a list of problems; an empty list passes.

References are networkx, ``scipy.stats`` and properties the method must
have; no check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import statistics

import networkx as nx
from scipy.stats import hypergeom

EDGE_MEAN_TOLERANCE_SE = 5.0


def to_networkx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def identical_outputs(csv_w1: str, csv_w2: str, json_w1: str, json_w2: str) -> list[str]:
    """``workers=1`` and ``workers=2`` must write the same bytes."""
    out = []
    if csv_w1 != csv_w2:
        out.append("trial CSV differs between workers=1 and workers=2")
    if json_w1 != json_w2:
        out.append("JSON summary differs between workers=1 and workers=2")
    return out


def clean_audits(violations: dict[str, int]) -> list[str]:
    return [f"audit {name}: {count} violations" for name, count in violations.items() if count]


def traced_matches(untraced: list[tuple], traced: list[tuple]) -> list[str]:
    """Per-trial (outcome, edges, min degree) of the traced pass equal the untraced run's."""
    if len(untraced) != len(traced):
        return [f"traced run has {len(traced)} trials, untraced {len(untraced)}"]
    return [
        f"trial {i}: traced {t} != untraced {u}"
        for i, (u, t) in enumerate(zip(untraced, traced)) if tuple(u) != tuple(t)
    ]


def expected_composed_edges(n: int, K: int, P: int, s: int, q: float) -> float:
    """C(n,2) * P[Hypergeom(P, K, K) >= s] * q: two rings of K keys from a
    P-pool share at least s keys, and the channel is on."""
    return math.comb(n, 2) * float(hypergeom.sf(s - 1, P, K, K)) * q


def edge_mean_close(edges: list[int], expected: float,
                    tolerance_se: float = EDGE_MEAN_TOLERANCE_SE) -> list[str]:
    """Mean edge count within ``tolerance_se`` standard errors of ``expected``."""
    mean = statistics.fmean(edges)
    se = statistics.stdev(edges) / math.sqrt(len(edges)) if len(edges) > 1 else 0.0
    se = max(se, 1.0)
    if abs(mean - expected) > tolerance_se * se:
        return [f"mean edge count {mean:.1f} is {abs(mean - expected) / se:.1f} standard "
                f"errors from the expected {expected:.1f}"]
    return []


def connectivity_decision(g, k: int, outcome: bool) -> list[str]:
    """k-connectivity re-made by networkx; a node of degree < k settles it
    without the flows, since connectivity never exceeds the minimum degree."""
    h = to_networkx(g)
    if k == 1:
        truth = nx.is_connected(h)
    else:
        truth = min(d for _, d in h.degree()) >= k and nx.node_connectivity(h) >= k
    if truth != outcome:
        return [f"{k}-connectivity: riglab says {outcome}, networkx says {truth}"]
    return []


def hamilton_certificate(g) -> str | None:
    """A reason the graph has no Hamilton cycle, found without riglab's
    checker: min degree < 2, disconnected, a cut vertex, or edges forced by
    degree-2 nodes that meet three at a node or close a cycle shorter than n."""
    h = to_networkx(g)
    n = h.number_of_nodes()
    if n < 3:
        return "fewer than 3 nodes"
    if min(d for _, d in h.degree()) < 2:
        return "min degree < 2"
    if not nx.is_connected(h):
        return "disconnected"
    if next(nx.articulation_points(h), None) is not None:
        return "articulation point"
    forced = nx.Graph()
    forced.add_edges_from((v, u) for v in h if h.degree(v) == 2 for u in h[v])
    if forced.number_of_nodes() and max(d for _, d in forced.degree()) > 2:
        return "a node with three forced edges"
    for comp in nx.connected_components(forced):
        if len(comp) < n and forced.subgraph(comp).number_of_edges() == len(comp):
            return "forced edges close a cycle shorter than n"
    return None


def hamilton_decision(g, outcome: bool) -> list[str]:
    if outcome:
        if not nx.is_biconnected(to_networkx(g)):
            return ["Hamilton True on a graph networkx finds not biconnected"]
        return []
    if hamilton_certificate(g) is None:
        return ["Hamilton False without a certificate"]
    return []


def tutte_deficiency(h: nx.Graph, S: set) -> int:
    """odd(G - S) - |S|, a lower bound on the nodes any matching leaves uncovered."""
    rest = h.subgraph(v for v in h if v not in S)
    odd = sum(1 for comp in nx.connected_components(rest) if len(comp) % 2)
    return odd - len(S)


def matching_decision(g, outcome: bool, mate: list[int] | None) -> list[str]:
    """True needs a valid mate array covering all but n mod 2 nodes; False
    needs a Tutte set S with odd(G - S) - |S| > n mod 2: no set (isolated
    nodes), the nodes next to two or more leaves, or all nodes next to a leaf."""
    h = to_networkx(g)
    allowance = g.n % 2
    if outcome:
        if mate is None or len(mate) != g.n:
            return ["near-perfect matching True without a mate array of length n"]
        for v, u in enumerate(mate):
            if u != -1 and (mate[u] != v or not h.has_edge(u, v)):
                return [f"mate pair ({v}, {u}) is not a matched edge"]
        uncovered = sum(1 for u in mate if u == -1)
        if uncovered > allowance:
            return [f"matching leaves {uncovered} nodes uncovered, parity allows {allowance}"]
        return []
    leaves_at: dict[int, int] = {}
    for v in h:
        if h.degree(v) == 1:
            u = next(iter(h[v]))
            leaves_at[u] = leaves_at.get(u, 0) + 1
    candidates = (set(), {u for u, c in leaves_at.items() if c >= 2}, set(leaves_at))
    if any(tutte_deficiency(h, S) > allowance for S in candidates):
        return []
    return ["near-perfect matching False without a Tutte-set certificate"]
