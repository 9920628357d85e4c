import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from riglab.errors import ParameterError
from riglab.models import ErParams, IntersectionSpec, RggParams, UniformRigParams
from riglab.properties import PropertyKind
from riglab.scaling import (
    FAMILIES,
    LAW_FAMILIES,
    FamilyParams,
    ModelFamily,
    binomial_overlap_tail,
    build_model_spec,
    coupling_value,
    deviation_from_params,
    exact_edge_probability,
    limiting_probability,
    lnln_offset,
    side_conditions,
    solve_param,
    threshold_spec,
    uniform_overlap_tail,
)

KCONN1 = PropertyKind.k_connected(1)
KCONN3 = PropertyKind.k_connected(3)
PM = PropertyKind.near_perfect_matching()
HC = PropertyKind.hamilton_cycle()
ROBUST2 = PropertyKind.k_robust(2)


class TestCoupling:
    def test_uniform_s1(self):
        fam = ModelFamily.uniform_rig(1)
        assert coupling_value(fam, FamilyParams(n=10, K=10, P=1000)) == pytest.approx(0.1)

    def test_uniform_s2(self):
        fam = ModelFamily.uniform_rig(2)
        # (1/2) * (K^2/P)^2 = (1/2) * (100/1000)^2
        got = coupling_value(fam, FamilyParams(n=10, K=10, P=1000))
        assert got == pytest.approx(0.005)

    def test_binomial_s1(self):
        fam = ModelFamily.binomial_rig(1)
        assert coupling_value(fam, FamilyParams(n=10, t=0.01, P=10_000)) == pytest.approx(1.0)

    def test_composed_uses_exact_edge_probability(self):
        fam = ModelFamily.uniform_rig_er(1)
        p = FamilyParams(n=10, K=3, P=10, q=0.5)
        assert coupling_value(fam, p) == pytest.approx(
            uniform_overlap_tail(3, 10, 1) * 0.5
        )

    def test_rgg_torus(self):
        fam = ModelFamily.uniform_rig_rgg("torus")
        p = FamilyParams(n=10, K=10, P=1000, r=0.2)
        assert coupling_value(fam, p) == pytest.approx(math.pi * 0.04 * 0.1)


class TestOffsets:
    def test_table(self):
        assert lnln_offset(PropertyKind.k_connected(1)) == 0
        assert lnln_offset(PropertyKind.k_connected(3)) == 2
        assert lnln_offset(PropertyKind.min_degree_at_least(2)) == 1
        assert lnln_offset(PropertyKind.k_robust(2)) == 1
        assert lnln_offset(PM) == 0
        assert lnln_offset(HC) == 1


class TestDeviation:
    def test_inversion_identity(self):
        n = 5000
        q = math.log(n) / n
        fam = ModelFamily.er()
        dev = deviation_from_params(fam, FamilyParams(n=n, q=q), PM)
        assert dev == pytest.approx(0.0, abs=1e-12)

    def test_er_alpha_two(self):
        n = 10_000
        q = (math.log(n) + 2.0) / n
        dev = deviation_from_params(ModelFamily.er(), FamilyParams(n=n, q=q), KCONN1)
        assert dev == pytest.approx(2.0, abs=1e-9)

    def test_urig_k6_arithmetic(self):
        # independent arithmetic: 2000 * 36/10^4 - ln 2000
        expected = 2000 * 36 / 10_000 - math.log(2000)
        dev = deviation_from_params(
            ModelFamily.uniform_rig(1), FamilyParams(n=2000, K=6, P=10_000), PM
        )
        assert dev == pytest.approx(expected, abs=1e-12)
        assert dev == pytest.approx(-0.4009, abs=1e-4)

    def test_needs_n_at_least_3(self):
        with pytest.raises(ParameterError):
            deviation_from_params(ModelFamily.er(), FamilyParams(n=2, q=0.5), PM)


class TestSolve:
    def test_er_connectivity_alpha_zero(self):
        res = solve_param(ModelFamily.er(), KCONN1, 10_000, 0.0, FamilyParams(n=10_000))
        assert res.real_value == pytest.approx(math.log(10_000) / 10_000, rel=1e-12)

    def test_urig_pm_candidates(self):
        res = solve_param(
            ModelFamily.uniform_rig(1), PM, 2000, 0.0, FamilyParams(n=2000, P=10_000)
        )
        # independent arithmetic oracle
        assert res.real_value == pytest.approx(
            math.sqrt(10_000 * math.log(2000) / 2000), rel=1e-12
        )
        values = [c.value for c in res.candidates]
        assert values == [6, 7]
        devs = {c.value: c.implied_deviation for c in res.candidates}
        assert devs[6] == pytest.approx(2000 * 36 / 10_000 - math.log(2000), abs=1e-12)
        assert devs[7] == pytest.approx(2000 * 49 / 10_000 - math.log(2000), abs=1e-12)
        assert res.best().value == 6  # |-0.40| beats |2.20|

    def test_rgg_torus_radius(self):
        n, K, P = 4000, 60, 100_000
        res = solve_param(
            ModelFamily.uniform_rig_rgg("torus"), KCONN1, n, 1.0,
            FamilyParams(n=n, K=K, P=P),
        )
        expected = math.sqrt(math.log(n) / (n * math.pi * K * K / P))
        assert res.real_value == pytest.approx(expected, rel=1e-12)

    def test_composed_q_solution(self):
        n, K, P = 2000, 20, 5000
        res = solve_param(
            ModelFamily.uniform_rig_er(1), KCONN1, n, 0.0,
            FamilyParams(n=n, K=K, P=P),
        )
        q = res.candidates[0].value
        assert q == pytest.approx(
            (math.log(n) / n) / uniform_overlap_tail(K, P, 1), rel=1e-12
        )
        assert res.candidates[0].implied_deviation == pytest.approx(0.0, abs=1e-9)

    def test_unreachable_target_errors(self):
        with pytest.raises(ParameterError):
            solve_param(ModelFamily.er(), KCONN1, 3, 10.0, FamilyParams(n=3))

    def test_low_target_clamps(self):
        res = solve_param(
            ModelFamily.uniform_rig(1), KCONN1, 16, -6.0, FamilyParams(n=16, P=1000)
        )
        assert res.clamped
        assert [c.value for c in res.candidates] == [1]
        assert res.candidates[0].implied_deviation == pytest.approx(
            16 * (1 / 1000) - math.log(16), abs=1e-12
        )

    @given(
        st.sampled_from(["er", "urig", "brig"]),
        st.integers(1, 2),
        st.sampled_from(["kconn", "pm", "hc"]),
        st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, kind, s, prop_name, target):
        n, P = 2000, 10_000
        prop = {"kconn": PropertyKind.k_connected(2), "pm": PM, "hc": HC}[prop_name]
        if kind == "er":
            fam, fixed = ModelFamily.er(), FamilyParams(n=n)
        elif kind == "urig":
            fam, fixed = ModelFamily.uniform_rig(s), FamilyParams(n=n, P=P)
        else:
            fam, fixed = ModelFamily.binomial_rig(s), FamilyParams(n=n, P=P)
        res = solve_param(fam, prop, n, target, fixed)
        if res.clamped:
            return
        if res.param == "K":
            # re-substitute the real-valued solution through the coupling
            c = (res.real_value ** (2 * s)) / (math.factorial(s) * P**s)
            dev = n * c - math.log(n) - lnln_offset(prop) * math.log(math.log(n))
        else:
            p = res.candidates[0].params
            dev = deviation_from_params(fam, p, prop)
        assert dev == pytest.approx(target, abs=1e-9)


class TestLimitingProbability:
    def test_poisson_k1(self):
        spec = threshold_spec(ModelFamily.uniform_rig(1), KCONN1)
        assert limiting_probability(spec, 0.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_poisson_k3(self):
        spec = threshold_spec(ModelFamily.uniform_rig(1), KCONN3)
        assert limiting_probability(spec, 0.0) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_gumbel_limits(self):
        spec = threshold_spec(ModelFamily.er(), PM)
        assert limiting_probability(spec, math.inf) == 1.0
        assert limiting_probability(spec, -math.inf) == 0.0
        assert limiting_probability(spec, 1.0) == pytest.approx(math.exp(-math.exp(-1)))

    def test_zero_one_unspecified(self):
        spec = threshold_spec(ModelFamily.er(), ROBUST2)
        assert limiting_probability(spec, -math.inf) == 0.0
        assert limiting_probability(spec, math.inf) == 1.0
        assert limiting_probability(spec, 0.0) is None

    def test_rgg_dichotomy(self):
        spec = threshold_spec(ModelFamily.uniform_rig_rgg("torus"), KCONN1)
        assert limiting_probability(spec, 0.5) == 0.0
        assert limiting_probability(spec, 2.0) == 1.0
        assert limiting_probability(spec, 1.0) is None

    def test_nan_deviation(self):
        for fam, prop in ((ModelFamily.er(), PM), (ModelFamily.er(), ROBUST2),
                          (ModelFamily.uniform_rig_rgg("torus"), KCONN1)):
            with pytest.raises(ParameterError, match="deviation must be a number"):
                limiting_probability(threshold_spec(fam, prop), math.nan)

    def test_poisson_k1_equals_gumbel(self):
        pois = threshold_spec(ModelFamily.er(), KCONN1)
        gum = threshold_spec(ModelFamily.er(), PM)
        for d in (-2.0, -0.3, 0.0, 1.7, 4.0):
            assert limiting_probability(pois, d) == pytest.approx(
                limiting_probability(gum, d), abs=1e-15
            )

    @given(st.floats(-5, 20), st.floats(-5, 20))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing(self, a, b):
        # domain restricted to where both values are representable floats
        spec = threshold_spec(ModelFamily.er(), KCONN1)
        lo, hi = sorted((a, b))
        if hi - lo > 1e-6:
            assert limiting_probability(spec, lo) < limiting_probability(spec, hi)

    def test_family_property_table(self):
        with pytest.raises(ParameterError):
            threshold_spec(ModelFamily.uniform_rig_er(1), HC)
        with pytest.raises(ParameterError):
            threshold_spec(ModelFamily.uniform_rig_rgg("torus"), PM)
        # min-degree surrogate for the s>=2 composition is available
        spec = threshold_spec(ModelFamily.uniform_rig_er(2), PropertyKind.min_degree_at_least(1))
        assert spec.limit_form == "poisson_kconn"


def _enumerate_overlap_probability(K, P, s):
    """Exhaustive oracle: fraction of subset pairs sharing >= s items."""
    subsets = list(combinations(range(P), K))
    hit = 0
    for a in subsets:
        sa = set(a)
        for b in subsets:
            if len(sa.intersection(b)) >= s:
                hit += 1
    return Fraction(hit, len(subsets) ** 2)


class TestExactEdgeProbability:
    def test_k1_p2(self):
        assert uniform_overlap_tail(1, 2, 1) == pytest.approx(0.5, abs=1e-12)

    def test_full_pool(self):
        assert uniform_overlap_tail(7, 7, 1) == pytest.approx(1.0, abs=1e-12)

    def test_s2_k2_p4(self):
        # enumeration oracle: C(2,2)C(2,0)/C(4,2) = 1/6
        assert _enumerate_overlap_probability(2, 4, 2) == Fraction(1, 6)
        assert uniform_overlap_tail(2, 4, 2) == pytest.approx(1 / 6, abs=1e-12)

    def test_small_grid_vs_enumeration(self):
        for P in (2, 3, 5):
            for K in range(1, min(4, P) + 1):
                for s in range(1, K + 1):
                    exact = float(_enumerate_overlap_probability(K, P, s))
                    assert uniform_overlap_tail(K, P, s) == pytest.approx(exact, abs=1e-12)

    def test_monotonicity(self):
        eps = 1e-12  # lgamma rounding jitter
        for K in range(2, 5):
            tails = [uniform_overlap_tail(K, 12, s) for s in range(1, K + 1)]
            assert all(a >= b - eps for a, b in zip(tails, tails[1:]))
        for s in (1, 2):
            by_k = [uniform_overlap_tail(K, 12, s) for K in range(s, 9)]
            assert all(a <= b + eps for a, b in zip(by_k, by_k[1:]))

    def test_binomial_tail(self):
        assert binomial_overlap_tail(0.0, 10, 1) == 0.0
        assert binomial_overlap_tail(1.0, 10, 1) == pytest.approx(1.0)
        assert binomial_overlap_tail(0.5, 3, 4) == 0.0  # s > P
        # P[Binom(4, 0.25) >= 1] = 1 - 0.75^4
        assert binomial_overlap_tail(0.5, 4, 1) == pytest.approx(1 - 0.75**4, abs=1e-12)

    def test_huge_pool_stable(self):
        p = uniform_overlap_tail(10_000, 10**9, 1)
        assert 0.0 < p < 1.0
        # close to the coupling K^2/P for tiny density
        assert p == pytest.approx(1e8 / 1e9, rel=0.05)

    def test_composition_product(self):
        fam = ModelFamily.uniform_rig_er(1)
        p = FamilyParams(n=10, K=2, P=6, q=0.25)
        assert exact_edge_probability(fam, p) == pytest.approx(
            uniform_overlap_tail(2, 6, 1) * 0.25, abs=1e-15
        )


SQUARE_RGG = ModelFamily.uniform_rig_rgg("square")


class TestRggSquareThreshold:
    def test_dense_branch_b_one(self):
        # K^2/P = 1/ln n lies above the split for every n >= 3
        n = 100_000
        K, P = 1000, int(1000**2 * math.log(n))
        dens = K * K / P
        assert dens > 1 / (n ** (1 / 3) * math.log(n))
        target = math.log(n * P / K**2) / n
        r = math.sqrt(target / (math.pi * dens))
        b = deviation_from_params(SQUARE_RGG, FamilyParams(n=n, K=K, P=P, r=r), KCONN1)
        assert b == pytest.approx(1.0, rel=1e-9)

    def test_sparse_branch_b_two(self):
        n = 1_000_000
        K, P = 100, 10**8
        dens = K * K / P
        assert dens < 1 / (n ** (1 / 3) * math.log(n))  # second branch
        target = 8 * math.log(P / K**2) / n
        r = math.sqrt(target / (math.pi * dens))
        b = deviation_from_params(SQUARE_RGG, FamilyParams(n=n, K=K, P=P, r=r), KCONN1)
        assert b == pytest.approx(2.0, rel=1e-9)


class TestSideConditions:
    def test_pool_over_n_passes(self):
        conds = side_conditions(
            ModelFamily.uniform_rig(1), FamilyParams(n=2000, K=6, P=10_000), KCONN1
        )
        assert [(c.name, c.ok) for c in conds] == [("P/n", True)]
        assert conds[0].value == pytest.approx(5.0)

    def test_matching_pool_condition_flagged(self):
        conds = side_conditions(
            ModelFamily.uniform_rig(1), FamilyParams(n=2000, K=6, P=10_000), PM
        )
        (c,) = conds
        assert c.name == "P/(n ln^5 n)"
        assert c.value == pytest.approx(10_000 / (2000 * math.log(2000) ** 5), rel=1e-12)
        assert c.value == pytest.approx(0.000197, rel=0.01)
        assert not c.ok

    def test_power_law_exponent(self):
        n = 1000
        P = int(n**1.6)
        (c,) = side_conditions(
            ModelFamily.uniform_rig(2), FamilyParams(n=n, K=30, P=P), KCONN1
        )
        assert c.name == "log_n P"
        assert c.ok  # 1.6 > 2 - 1/2

    def test_er_has_none(self):
        assert side_conditions(ModelFamily.er(), FamilyParams(n=100, q=0.5), PM) == ()


class TestBuildModelSpec:
    def test_families(self):
        assert build_model_spec(
            ModelFamily.uniform_rig(2), FamilyParams(n=5, K=3, P=9)
        ) == UniformRigParams(5, 3, 9, 2)
        assert build_model_spec(ModelFamily.er(), FamilyParams(n=5, q=0.5)) == ErParams(5, 0.5)
        spec = build_model_spec(
            ModelFamily.uniform_rig_er(1), FamilyParams(n=5, K=2, P=9, q=0.5)
        )
        assert isinstance(spec, IntersectionSpec)
        assert spec.parts == (UniformRigParams(5, 2, 9, 1), ErParams(5, 0.5))


# Parameters at which each family's coupling is far below 1, so the
# asymptotic inverse of the ER composition's K agrees with its exact tail.
TABLE_PARAMS = {
    "er": (ModelFamily.er(), FamilyParams(n=2000, q=0.004)),
    "urig": (ModelFamily.uniform_rig(2), FamilyParams(n=2000, K=70, P=20_000)),
    "brig": (ModelFamily.binomial_rig(1), FamilyParams(n=2000, t=0.001, P=20_000)),
    "rgg": (ModelFamily.named("rgg"), FamilyParams(n=2000, r=0.05)),
    "urig_er": (ModelFamily.uniform_rig_er(1), FamilyParams(n=2000, K=20, P=10**6, q=0.3)),
    "urig_rgg": (ModelFamily.uniform_rig_rgg("square"),
                 FamilyParams(n=2000, K=60, P=200_000, r=0.1)),
}


class TestFamilyTable:
    def test_every_row_has_params(self):
        assert set(TABLE_PARAMS) == set(FAMILIES)
        assert LAW_FAMILIES == ("er", "urig", "brig", "urig_er", "urig_rgg")

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_needs_are_required(self, name):
        family, params = TABLE_PARAMS[name]
        for field in FAMILIES[name].needs:
            with pytest.raises(ParameterError):
                build_model_spec(family, replace(params, **{field: None}))
            with pytest.raises(ParameterError):
                exact_edge_probability(family, replace(params, **{field: None}))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_inverses_undo_the_coupling(self, name):
        family, params = TABLE_PARAMS[name]
        row = FAMILIES[name]
        if row.coupling is None:
            with pytest.raises(ParameterError):
                coupling_value(family, params)
            return
        c = coupling_value(family, params)
        for field, inverse in row.inverse.items():
            tol = 1e-3 if name == "urig_er" and field == "K" else 1e-12
            assert inverse(family, params, c) == pytest.approx(getattr(params, field), rel=tol)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_solve_round_trip(self, name):
        family, params = TABLE_PARAMS[name]
        prop = KCONN1
        row = FAMILIES[name]
        for field in row.inverse:
            fixed = replace(params, **{field: None})
            dev = deviation_from_params(family, params, prop)
            res = solve_param(family, prop, params.n, dev, fixed)
            assert res.param == field and not res.clamped
            assert res.real_value == pytest.approx(getattr(params, field), rel=1e-3)
        if not row.inverse:
            with pytest.raises(ParameterError):
                solve_param(family, prop, params.n, 0.0, params)

    def test_rgg_samples_but_has_no_law(self):
        family, params = TABLE_PARAMS["rgg"]
        assert family.region == "torus"
        assert build_model_spec(family, params) == RggParams(2000, 0.05, "torus")
        assert exact_edge_probability(family, params) == pytest.approx(math.pi * 0.05**2)
        with pytest.raises(ParameterError):
            threshold_spec(family, KCONN1)

    def test_named_ignores_what_a_family_lacks(self):
        assert ModelFamily.named("er", 3, "square") == ModelFamily.er()
        assert ModelFamily.named("urig_rgg", 2) == ModelFamily.uniform_rig_rgg("torus")
        assert ModelFamily.named("urig_er", 2) == ModelFamily.uniform_rig_er(2)
        with pytest.raises(ParameterError):
            ModelFamily.named("gnp")


class TestSolveBounds:
    def test_K_past_pool(self):
        with pytest.raises(ParameterError):
            solve_param(ModelFamily.uniform_rig(1), KCONN1, 10, 100.0, FamilyParams(n=10, P=5))

    def test_t_past_one(self):
        with pytest.raises(ParameterError):
            solve_param(ModelFamily.binomial_rig(1), KCONN1, 10, 40.0, FamilyParams(n=10, P=3))

    def test_composition_needs_one_free(self):
        fam = ModelFamily.uniform_rig_er(1)
        for fixed in (FamilyParams(n=100, P=1000), FamilyParams(n=100, P=1000, K=5, q=0.5)):
            with pytest.raises(ParameterError):
                solve_param(fam, KCONN1, 100, 0.0, fixed)

    def test_zero_target_coupling(self):
        n = 2000
        dev = -math.log(n)  # ln n + 0 * ln ln n + dev is exactly 0
        er = solve_param(ModelFamily.er(), KCONN1, n, dev, FamilyParams(n=n))
        assert (er.real_value, er.clamped) == (0.0, False)
        urig = solve_param(ModelFamily.uniform_rig(1), KCONN1, n, dev, FamilyParams(n=n, P=1000))
        assert (urig.real_value, urig.clamped) == (1.0, True)
        rgg = solve_param(ModelFamily.uniform_rig_rgg("torus"), KCONN1, n, 0.0,
                          FamilyParams(n=n, K=10, P=1000))
        assert (rgg.real_value, rgg.clamped) == (0.0, True)

    @pytest.mark.parametrize("family, fixed", [
        (ModelFamily.er(), FamilyParams(n=100)),
        (ModelFamily.uniform_rig(1), FamilyParams(n=100, P=1000)),
        (ModelFamily.uniform_rig_rgg("square"), FamilyParams(n=100, K=5, P=500)),
    ], ids=["er", "urig", "urig_rgg"])
    def test_nan_deviation(self, family, fixed):
        with pytest.raises(ParameterError, match="deviation must be a number"):
            solve_param(family, KCONN1, 100, math.nan, fixed)

    def test_fixed_params_pass_the_sampler_checks(self):
        with pytest.raises(ParameterError, match="P must be >= 1"):
            solve_param(ModelFamily.binomial_rig(1), KCONN1, 100, 1.0, FamilyParams(n=100, P=0))
        with pytest.raises(ParameterError, match="q must lie in"):
            solve_param(ModelFamily.uniform_rig_er(1), KCONN1, 100, 1.0,
                        FamilyParams(n=100, P=1000, q=1.5))

    def test_integer_K_candidates(self):
        res = solve_param(ModelFamily.uniform_rig_er(1), KCONN1, 2000, -30.0,
                          FamilyParams(n=2000, P=1000, q=0.5))
        assert res.clamped and res.real_value == 1.0
        assert [type(c.value) for c in res.candidates] == [int]
