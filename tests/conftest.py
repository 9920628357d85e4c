import pytest

from riglab import montecarlo
from riglab.graphs import Graph
from riglab.models import ErParams, sample_er
from riglab.rng import RngStream


@pytest.fixture(scope="session")
def petersen():
    return Graph.from_edges(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ])


def random_small_graphs(count, seed, n_lo=4, n_hi=10, densities=(0.2, 0.5, 0.8)):
    """Seeded stream of small ER graphs cycling sizes and densities."""
    out = []
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        q = densities[i % len(densities)]
        out.append(sample_er(ErParams(n, q), RngStream(seed, i)))
    return out


def assert_violates_robustness(g, k, witness):
    """``witness`` is a non-empty strict subset T whose own nodes all have
    fewer than k neighbors outside T, and whose outside nodes all have
    fewer than k neighbors inside it."""
    members = set(witness)
    assert 0 < len(members) < g.n
    adj = g.adjacency_lists()
    assert all(sum(1 for w in adj[v] if w not in members) < k for v in members)
    assert all(
        sum(1 for w in adj[v] if w in members) < k for v in range(g.n) if v not in members
    )


@pytest.fixture(autouse=True)
def _no_kept_pool():
    """Shut the process pool that ``run_experiment`` keeps down after each
    test, so no pool, real or stand-in, and no module state its workers
    copied reaches the next test."""
    yield
    montecarlo._drop_pool()
