"""The benchmark's workloads: one model family, property, n and deviation each.

Every workload goes through the public ``riglab`` API: the free parameter
is solved by ``threshold_experiment`` and the trials run through
``run_experiment``. A run is made of whole rounds; round ``r`` of a run
with seed ``s`` is the experiment with base seed ``mix64(s, r)``, so the
same seed always gives the same sequence of sampled graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from riglab import DecisionBudget, FamilyParams, ModelFamily, PropertyKind, threshold_experiment
from riglab.rng import mix64


@dataclass(frozen=True)
class Workload:
    name: str
    family: ModelFamily
    prop: PropertyKind
    n: int
    deviation: float
    fixed: FamilyParams
    trials_per_round: int
    budget: DecisionBudget = DecisionBudget()

    def config(self, seed: int, round_index: int):
        """The experiment of one round, solved from the public scaling API."""
        return threshold_experiment(
            self.family, self.prop, self.n, self.deviation, self.fixed,
            self.trials_per_round, mix64(seed, round_index), self.budget,
            label=self.name,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # G_2(2000, K, 2e5) on q=0.5 on/off channels: q-composite keys, the
        # paper's composed sensor-network model. Almost all sampling.
        Workload(
            "compose-urig2-er-n2000", ModelFamily.uniform_rig_er(2),
            PropertyKind.k_connected(1), 2000, 0.0,
            FamilyParams(n=2000, P=200_000, q=0.5), trials_per_round=4,
        ),
        # At deviation +5, 98% of graphs pass the min-degree test and run
        # every Menger flow; at +3 one in eight exits early in 2 ms against
        # 0.7 s, and that mix moved trials/s by more than 10% between seeds.
        Workload(
            "kconn3-er-n300", ModelFamily.er(), PropertyKind.k_connected(3),
            300, 5.0, FamilyParams(n=300), trials_per_round=4,
        ),
        # Staged search; the most steps seen on 136 searches was 13,770, so
        # 200,000 leaves room for no trial to raise BudgetExceeded.
        Workload(
            "hamilton-er-n5000", ModelFamily.er(), PropertyKind.hamilton_cycle(),
            5000, 3.0, FamilyParams(n=5000), trials_per_round=12,
            budget=DecisionBudget(search_steps=200_000),
        ),
        # Near-perfect matching as the decision. About one graph in thirty
        # reaches the blossom search, whose cost grows as contractions x n:
        # at n=2000 a search takes 30-50 ms on average against 11 ms for a
        # whole ordinary trial, and a run meets forty or more of them. At
        # n=2e4 a search takes 1-10 s and a run meets zero to a few, too few
        # to repeat.
        Workload(
            "matching-er-n2000", ModelFamily.er(), PropertyKind.near_perfect_matching(),
            2000, 0.0, FamilyParams(n=2000), trials_per_round=100,
        ),
    )
}
