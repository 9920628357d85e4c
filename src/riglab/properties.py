"""Exact decision procedures for the five monitored graph properties.

* ``min_degree >= k`` and k-connectivity (every pair of nodes joined by at
  least k internally node-disjoint paths; complete graphs count as
  (n-1)-connected, a single node as connected),
* near-perfect matching (an independent edge set covering all nodes
  except at most one),
* Hamilton cycle containment (see :mod:`riglab.hamilton`),
* k-robustness: for every non-empty strict subset T of nodes, either some
  node of T has at least k neighbors outside T, or some node outside T
  has at least k neighbors inside T.

The single source of every property fact (command-line name, level k,
the ln ln n coefficient and limit form of its zero-one law, decision
procedure) is :data:`PROPERTIES`, one row per property kind, which every
function here, the threshold laws, the summaries and the command line read.

k-connectivity uses the linear-time searches of :mod:`riglab.graphs` for
k=1 (:func:`is_connected`) and k=2 (the cut-vertex test :func:`is_biconnected`)
and, for k >= 3, the Esfahanian-Hakimi pair set, in which a local form of
the expansion lemma (West, *Introduction to Graph Theory*, Lemma 4.2.3)
settles most pairs without a search: a node with k neighbours among nodes
already k-connected to the min-degree node is k-connected to it too. The
pairs left are unit-capacity max-flow decisions that all run on one split
digraph built once per decision, each augmenting path coming from a search
that grows from both ends of the flow until the two sides meet.
k-robustness is settled by exact stages (components, k = 1, minimum
degree) and otherwise by one exact feasibility MILP whose solution, when
there is one, is checked as a failing subset. The exponential checkers
raise ``BudgetExceeded`` instead of guessing: Hamilton's past its
:class:`DecisionBudget` search and its subset-DP node cap, robustness past
a fixed number of branch-and-bound nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hamilton as _hamilton
from .errors import BudgetExceeded, ParameterError
from .graphs import Graph, connected_components, is_biconnected, is_connected
from .matching import has_near_perfect_matching, max_matching_size  # re-exported

MIN_DEGREE = "min_degree"
K_CONNECTED = "k_connected"
NEAR_PERFECT_MATCHING = "near_perfect_matching"
HAMILTON_CYCLE = "hamilton_cycle"
K_ROBUST = "k_robust"

ZERO_ONE = "zero_one"  # limit form of a law that fixes no value at finite deviations


@dataclass(frozen=True)
class PropertyRow:
    """Everything the lab knows about one property kind.

    A ``parametric`` property takes a level k >= 1, the others k = 1. Its
    law reads ``coupling = (ln n + (lnln + k - 1) ln ln n + dev)/n``; the
    limit named ``limit_form`` is ``exp(-exp(-d)/(k-1)!)``, or for
    :data:`ZERO_ONE` only the 0/1 dichotomy. ``decide(g, k, budget)`` is
    the exact decision.
    """

    cli: str
    parametric: bool
    lnln: int
    limit_form: str
    decide: Callable[[Graph, int, "DecisionBudget"], bool]


@dataclass(frozen=True)
class PropertyKind:
    """One monitored property, with its integer level k where applicable."""

    kind: str
    k: int = 1

    def __post_init__(self):
        row = PROPERTIES.get(self.kind)
        if row is None:
            raise ParameterError(f"unknown property kind {self.kind!r}")
        if self.k < 1:
            raise ParameterError("k must be a positive integer")
        if not row.parametric and self.k != 1:
            raise ParameterError(f"property {self.kind!r} takes no k")

    @classmethod
    def min_degree_at_least(cls, k: int) -> "PropertyKind":
        return cls(MIN_DEGREE, k)

    @classmethod
    def k_connected(cls, k: int) -> "PropertyKind":
        return cls(K_CONNECTED, k)

    @classmethod
    def near_perfect_matching(cls) -> "PropertyKind":
        return cls(NEAR_PERFECT_MATCHING)

    @classmethod
    def hamilton_cycle(cls) -> "PropertyKind":
        return cls(HAMILTON_CYCLE)

    @classmethod
    def k_robust(cls, k: int) -> "PropertyKind":
        return cls(K_ROBUST, k)

    def label(self) -> str:
        if PROPERTIES[self.kind].parametric:
            return f"{self.kind}(k={self.k})"
        return self.kind


@dataclass(frozen=True)
class DecisionBudget:
    """Step budget of the Hamilton decision's rotation-extension search.

    ``search_steps`` (default 200_000) bounds the search the decision runs
    once the degree, connectivity, Dirac and forced-edge stages leave a
    graph open. The search grows paths from the nodes of lowest, median
    and highest degree; if none closes a cycle the graph is False when it
    has a cut vertex, and otherwise the search goes on from every other
    node in degree order with the steps left. A graph it still leaves
    open is decided by the subset DP, which only graphs of at most
    ``hamilton._DP_MAX_NODES`` nodes reach; a larger graph raises
    ``BudgetExceeded``.
    """

    search_steps: int = 200_000

    def __post_init__(self):
        if self.search_steps < 1:
            raise ParameterError("search_steps must be positive")


DEFAULT_BUDGET = DecisionBudget()

_MILP_NODE_LIMIT = 10_000  # branch-and-bound nodes of one robustness MILP


# -- k-connectivity ----------------------------------------------------------


class _SplitDigraph:
    """Unit-capacity split digraph of a graph, built once per decision.

    Node v becomes v_in = 2v and v_out = 2v+1 joined by an arc of
    capacity 1; each edge uv becomes the arcs u_out -> v_in and
    v_out -> u_in. Arc i's reverse is arc i ^ 1. Every internal arc is
    kept, those of a query's endpoints included: with the source at s_out
    and the sink at t_in, s_in -> s_out ends at the source and
    t_in -> t_out starts at the sink, so no augmenting path uses either
    and one arc store serves every pair. ``head[x]`` lists the arcs out of
    x together with the reverses of the arcs into x, so a search walks it
    forwards from the source and backwards from the sink alike.
    """

    def __init__(self, adj: list[list[int]], n: int):
        to: list[int] = []
        cap: list[int] = []
        head: list[list[int]] = [[] for _ in range(2 * n)]

        def add_arc(a: int, b: int) -> None:
            head[a].append(len(to))
            to.append(b)
            cap.append(1)
            head[b].append(len(to))
            to.append(a)
            cap.append(0)

        for v in range(n):
            add_arc(2 * v, 2 * v + 1)
        for u in range(n):
            for v in adj[u]:
                if u < v:
                    add_arc(2 * u + 1, 2 * v)
                    add_arc(2 * v + 1, 2 * u)
        self._to = to
        self._cap = cap
        self._head = head
        # Search marks: in the current search node x was reached from the
        # source iff seen[x] == epoch - 1 and from the sink iff
        # seen[x] == epoch. The epoch steps by 2, so no mark of an earlier
        # search matches and no per-search reset is needed.
        self._seen = [0] * (2 * n)
        self._prev = [0] * (2 * n)
        self._epoch = 0

    def flow_at_least(self, s: int, t: int, k: int) -> bool:
        """Menger decision: >= k internally node-disjoint s-t paths.

        Each augmenting path comes from :meth:`_meeting_arc`, a search of
        the residual digraph from both ends, and is augmented from the arc
        where its two sides met out to the sink and back to the source.
        The flows stop as soon as k paths are found; every arc the flow
        augmented is then restored, leaving the digraph at zero flow for
        the next pair.
        """
        to, cap, prev = self._to, self._cap, self._prev
        source, sink = 2 * s + 1, 2 * t
        pushed: list[int] = []
        flow = 0
        while flow < k:
            meet = self._meeting_arc(source, sink)
            if meet < 0:
                break
            path = [meet]
            x = to[meet]
            while x != sink:
                aid = prev[x]
                path.append(aid)
                x = to[aid]
            x = to[meet ^ 1]
            while x != source:
                aid = prev[x]
                path.append(aid)
                x = to[aid ^ 1]
            for aid in path:
                cap[aid] -= 1
                cap[aid ^ 1] += 1
            pushed += path
            flow += 1
        for aid in pushed:
            cap[aid] += 1
            cap[aid ^ 1] -= 1
        return flow >= k

    def _meeting_arc(self, source: int, sink: int) -> int:
        """One bidirectional search for an augmenting source-sink path.

        The forward side leaves the source along arcs with residual
        capacity, the backward side leaves the sink along such arcs
        reversed, and each round grows the smaller frontier by one whole
        level. A side records in ``prev`` the arc that leads towards its
        own end. Returns the arc from a forward to a backward node where
        the sides met, or -1 when one side runs out first.
        """
        to, cap, head = self._to, self._cap, self._head
        seen, prev = self._seen, self._prev
        self._epoch += 2
        bwd = self._epoch
        fwd = bwd - 1
        seen[source] = fwd
        seen[sink] = bwd
        front, back = [source], [sink]
        while front and back:
            level: list[int] = []
            if len(front) <= len(back):
                for x in front:
                    for aid in head[x]:
                        if cap[aid]:
                            y = to[aid]
                            mark = seen[y]
                            if mark == bwd:
                                return aid
                            if mark != fwd:
                                seen[y] = fwd
                                prev[y] = aid
                                level.append(y)
                front = level
            else:
                for x in back:
                    for aid in head[x]:
                        if cap[aid ^ 1]:
                            y = to[aid]
                            mark = seen[y]
                            if mark == fwd:
                                return aid ^ 1
                            if mark != bwd:
                                seen[y] = bwd
                                prev[y] = aid ^ 1
                                level.append(y)
                back = level
        return -1


def is_k_connected(g: Graph, k: int) -> bool:
    """Vertex connectivity at least k (kappa(K_n) = n-1 by convention).

    For k >= 3 one split digraph is built per decision, and the Menger
    flows of the Esfahanian-Hakimi pair set run on it, those from the
    min-degree node v only where the expansion lemma leaves the pair open.
    Let R hold v, its neighbours and every node proved k-connected to v.
    A node w outside R with k neighbours in R is k-connected to v: a
    separator S with |S| < k misses one of them, u, which lies on w's side
    of G - S, and either v-u-w avoids S (u a neighbour of v) or S also
    separates v from u, against kappa(v, u) >= k.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    n = g.n
    if k == 1:
        return is_connected(g)
    if n <= k:
        return False  # kappa <= n-1 < k
    if g.is_complete():
        return True  # k <= n-1 checked above
    if g.min_degree() < k:
        return False
    if k == 2:
        return is_biconnected(g)
    if not is_connected(g):
        return False
    # Esfahanian-Hakimi: with v of minimum degree it suffices to check
    # local connectivity from v to its non-neighbors and between
    # non-adjacent pairs of its neighbors. A node with k neighbours in R
    # joins R unflowed (the lemma in the docstring).
    adj = g.adjacency_lists()
    net = _SplitDigraph(adj, n)
    v = int(g.degrees().argmin())
    in_r = bytearray(n)
    in_r_nbrs = [0] * n
    fresh = [v, *adj[v]]  # in R, neighbours not yet counted
    for x in fresh:
        in_r[x] = 1
    for w in range(n):
        while fresh:
            for y in adj[fresh.pop()]:
                in_r_nbrs[y] += 1
                if in_r_nbrs[y] == k and not in_r[y]:
                    in_r[y] = 1
                    fresh.append(y)
        if not in_r[w]:
            if not net.flow_at_least(v, w, k):
                return False
            in_r[w] = 1
            fresh.append(w)
    nbrs = adj[v]
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1:]:
            if not g.has_edge(x, y):
                if not net.flow_at_least(x, y, k):
                    return False
    return True


# -- hamilton facade --------------------------------------------------------


def has_hamilton_cycle(g: Graph, budget: DecisionBudget = DEFAULT_BUDGET) -> bool:
    return _hamilton.decide_hamilton(g, budget.search_steps)


# -- k-robustness ------------------------------------------------------------


def k_robust_witness(g: Graph, k: int) -> tuple[int, ...] | None:
    """Sorted nodes of a failing subset T, or None if k-robust.

    Exact stages first: one node is vacuously robust, a disconnected graph
    fails on its smallest block, a connected one is 1-robust (every cut
    has a crossing edge), a node of degree < k fails alone. Otherwise one
    feasibility MILP (Usevitch & Panagou, Automatica 111, 2020) over binary
    x_v = [v in T] asks for |deg(v) x_v - sum_{w in N(v)} x_w| <= k-1 at
    every node (a node of T has at most k-1 neighbors outside it, a node
    outside at most k-1 inside) and 1 <= sum x <= n-1. A solution, checked
    against the definition, is the witness; infeasible means k-robust.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    n = g.n
    if n == 1:
        return None  # no non-empty strict subset exists
    blocks = connected_components(g)
    if len(blocks) > 1:
        return tuple(min(blocks, key=len))
    if k == 1:
        return None
    degs = g.degrees()
    v = int(degs.argmin())
    if int(degs[v]) < k:
        return (v,)
    from scipy.optimize import Bounds, LinearConstraint, milp  # slows `import riglab`
    from scipy.sparse import coo_array

    tails, heads = np.divmod(g.edge_keys(), n)
    diag = np.arange(n)
    laplacian = coo_array((np.concatenate([-np.ones(2 * g.m), degs]),
                           (np.concatenate([tails, heads, diag]),
                            np.concatenate([heads, tails, diag]))))
    lower = np.zeros(n)
    lower[0] = 1  # the condition is symmetric under T <-> complement
    res = milp(np.zeros(n), integrality=np.ones(n), bounds=Bounds(lower, 1),
               constraints=[LinearConstraint(laplacian.tocsr(), 1 - k, k - 1),
                            LinearConstraint(np.ones((1, n)), 1, n - 1)],
               options={"node_limit": _MILP_NODE_LIMIT})
    if res.status == 2:  # infeasible
        return None
    if res.status != 0:
        # HiGHS stops at the node limit with "Solution limit reached", which
        # scipy reports as status 4, as it does unknown failures, and without
        # a node count; so the model status in the message tells them apart.
        if "model_status is Solution limit reached" in res.message:
            raise BudgetExceeded(f"robustness MILP at n={n}, k={k} undecided within "
                                 f"{_MILP_NODE_LIMIT} branch-and-bound nodes: {res.message}")
        raise RuntimeError(f"robustness MILP at n={n}, k={k} failed: {res.message}")
    in_t = (res.x > 0.5).tolist()
    adj = g.adjacency_lists()
    if all(in_t) or any(sum(in_t[w] != in_t[v] for w in adj[v]) >= k for v in range(n)):
        raise RuntimeError(f"robustness MILP at n={n}, k={k} returned a non-witness")
    return tuple(v for v in range(n) if in_t[v])


def is_k_robust(g: Graph, k: int) -> bool:
    return k_robust_witness(g, k) is None


# -- the property table ------------------------------------------------------


PROPERTIES: dict[str, PropertyRow] = {
    MIN_DEGREE: PropertyRow(
        cli="mindeg", parametric=True, lnln=0, limit_form="poisson_kconn",
        decide=lambda g, k, budget: g.min_degree() >= k),
    K_CONNECTED: PropertyRow(
        cli="kconn", parametric=True, lnln=0, limit_form="poisson_kconn",
        decide=lambda g, k, budget: is_k_connected(g, k)),
    NEAR_PERFECT_MATCHING: PropertyRow(
        cli="matching", parametric=False, lnln=0, limit_form="gumbel",
        decide=lambda g, k, budget: has_near_perfect_matching(g)),
    HAMILTON_CYCLE: PropertyRow(
        cli="hamilton", parametric=False, lnln=1, limit_form="gumbel",
        decide=lambda g, k, budget: has_hamilton_cycle(g, budget)),
    K_ROBUST: PropertyRow(
        cli="robust", parametric=True, lnln=0, limit_form=ZERO_ONE,
        decide=lambda g, k, budget: is_k_robust(g, k)),
}


def evaluate_property(
    g: Graph, prop: PropertyKind, budget: DecisionBudget = DEFAULT_BUDGET
) -> bool:
    return PROPERTIES[prop.kind].decide(g, prop.k, budget)
