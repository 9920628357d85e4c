"""Threshold scalings, limit formulas and exact edge probabilities.

Each supported family has a scalar *coupling*, the effective edge
probability appearing on the left-hand side of its threshold law:

=====================  =====================================
family                 coupling
=====================  =====================================
uniform RIG  G_s       K^{2s} / (s! P^s)
binomial RIG H_s       t^{2s} P^s / s!
Erdos-Renyi            q
disk model (rgg)       none: sampled only, no law
G_s intersect ER       exact edge probability of G_s times q
G_1 intersect RGG      pi r^2 K^2 / P
=====================  =====================================

The table above is a summary; the single source of every family fact
(its parameters, sampler spec, edge probability, coupling and its
inverses, laws and side conditions) is :data:`FAMILIES`, one row per
family, which every function here and the command line read.

For the intersection-graph and Erdos-Renyi families the law reads
``coupling = (ln n + c ln ln n + dev)/n``; the ln ln n coefficient c and
the limit of P[property] as the deviation sequence tends to d depend on
the property alone, and :data:`riglab.properties.PROPERTIES` holds them.

The geometric compositions instead scale ``pi r^2 K^2/P ~ a ln(n)/n`` on
the torus (connected iff a > 1, not iff a < 1) and, on the square with its
boundary effect, against a piecewise denominator split on how K^2/P
compares to 1/(n^{1/3} ln n).

Deviations are treated as per-configuration constants; discretizing a
solved parameter (integer K) shifts the deviation, so every candidate is
re-annotated with the deviation its rounded value actually implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

from .errors import ParameterError
from .models import (
    SQUARE,
    TORUS,
    BinomialRigParams,
    ErParams,
    IntersectionSpec,
    ModelSpec,
    RggParams,
    UniformRigParams,
)
from .properties import (
    K_CONNECTED,
    MIN_DEGREE,
    NEAR_PERFECT_MATCHING,
    PROPERTIES,
    ZERO_ONE,
    PropertyKind,
)

URIG = "urig"
BRIG = "brig"
ER = "er"
RGG = "rgg"
URIG_ER = "urig_er"
URIG_RGG = "urig_rgg"

RGG_TORUS = "rgg_torus"
RGG_SQUARE = "rgg_square"


@dataclass(frozen=True)
class ModelFamily:
    kind: str
    s: int = 1
    region: str | None = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        if self.s < 1:
            raise ParameterError("s must be >= 1")
        if FAMILIES[self.kind].geometric:
            if self.region not in (TORUS, SQUARE):
                raise ParameterError("a geometric family needs region torus or square")
            if self.s != 1:
                raise ParameterError("geometric families are defined for s=1")
        elif self.region is not None:
            raise ParameterError("region only applies to the geometric families")

    @classmethod
    def named(cls, name: str, s: int = 1, region: str | None = None) -> "ModelFamily":
        """The family a command line or config names. ``s`` and ``region``
        are ignored where the family has none; a geometric family given no
        region lives on the torus, as its sampler does."""
        row = FAMILIES.get(name)
        if row is None:
            raise ParameterError(f"unknown family {name!r}; choose from {list(FAMILIES)}")
        return cls(name, s if row.has_s else 1, (region or TORUS) if row.geometric else None)

    @classmethod
    def uniform_rig(cls, s: int = 1) -> "ModelFamily":
        return cls(URIG, s)

    @classmethod
    def binomial_rig(cls, s: int = 1) -> "ModelFamily":
        return cls(BRIG, s)

    @classmethod
    def er(cls) -> "ModelFamily":
        return cls(ER)

    @classmethod
    def uniform_rig_er(cls, s: int = 1) -> "ModelFamily":
        return cls(URIG_ER, s)

    @classmethod
    def uniform_rig_rgg(cls, region: str) -> "ModelFamily":
        return cls(URIG_RGG, 1, region)

    def label(self) -> str:
        row = FAMILIES[self.kind]
        if row.geometric:
            return f"{self.kind}[{self.region}]"
        if row.has_s and self.s != 1:
            return f"{self.kind}[s={self.s}]"
        return self.kind


@dataclass(frozen=True)
class FamilyParams:
    """Flat parameter record; each family reads the fields it needs."""

    n: int
    K: int | None = None
    P: int | None = None
    t: float | None = None
    q: float | None = None
    r: float | None = None


@dataclass(frozen=True)
class SideCondition:
    """One asymptotic hypothesis rendered as an advisory finite-n ratio."""

    name: str
    description: str
    value: float
    ok: bool


@dataclass(frozen=True)
class ThresholdSpec:
    property: PropertyKind
    limit_form: str


@dataclass(frozen=True)
class Candidate:
    value: float
    implied_deviation: float
    params: FamilyParams


@dataclass(frozen=True)
class SolveResult:
    param: str
    real_value: float
    clamped: bool
    target_deviation: float
    candidates: tuple[Candidate, ...]

    def best(self) -> Candidate:
        """Candidate whose implied deviation is nearest the target."""
        return min(
            self.candidates,
            key=lambda c: (abs(c.implied_deviation - self.target_deviation), c.value),
        )


# -- the family table ----------------------------------------------------------
#
# Row functions take (family, params) and may assume the row's ``needs``
# are set; inverses also take the target coupling, which is positive
# (q may also be solved for a zero target).


def _urig_er_q(f: ModelFamily, p: FamilyParams, c: float) -> float:
    p_rig = uniform_overlap_tail(p.K, p.P, f.s)
    if p_rig == 0.0:
        raise ParameterError("ring overlap probability is zero; K too small")
    return c / p_rig


def _urig_er_K(f: ModelFamily, p: FamilyParams, c: float) -> float:
    # The asymptotic G_s coupling thinned by q, not the exact overlap tail.
    if p.q == 0.0:
        raise ParameterError("q = 0 cannot reach a positive coupling")
    return (math.factorial(f.s) * c / p.q) ** (1.0 / (2 * f.s)) * math.sqrt(p.P)


def _cond(name, description, value, ok) -> SideCondition:
    return SideCondition(name, description, float(value), bool(ok))


def _pool_exponent(p: FamilyParams, bound: float) -> SideCondition:
    expo = math.log(p.P) / math.log(p.n)
    return _cond("log_n P", f"pool growth exponent must exceed {bound:.3g}",
                 expo, expo > bound)


def _pool_over_n(p: FamilyParams) -> SideCondition:
    return _cond("P/n", "pool at least proportional to n", p.P / p.n, p.P / p.n >= 1.0)


def _pool_over_ln5(p: FamilyParams) -> SideCondition:
    ln5 = p.P / (p.n * math.log(p.n) ** 5)
    return _cond("P/(n ln^5 n)", "pool above n (ln n)^5", ln5, ln5 >= 1.0)


def _urig_conditions(f: ModelFamily, p: FamilyParams, prop: PropertyKind):
    if f.s >= 2:
        return (_pool_exponent(p, 2.0 - 1.0 / f.s),)
    if prop.kind in (MIN_DEGREE, K_CONNECTED):
        return (_pool_over_n(p),)
    return (_pool_over_ln5(p),)


def _brig_conditions(f: ModelFamily, p: FamilyParams, prop: PropertyKind):
    if f.s >= 2:
        return (_pool_exponent(p, 2.0 - 1.0 / f.s),)
    if prop.kind == NEAR_PERFECT_MATCHING:
        return (_pool_exponent(p, 1.0),)
    return (_pool_over_ln5(p),)


def _urig_er_conditions(f: ModelFamily, p: FamilyParams, prop: PropertyKind):
    return (
        _pool_over_n(p),
        _cond("K/P", "ring negligible against pool (o(1) proxy)",
              p.K / p.P, p.K / p.P <= 0.1),
    )


def _urig_rgg_conditions(f: ModelFamily, p: FamilyParams, prop: PropertyKind):
    ln_n = math.log(p.n)
    density = p.K * p.K / p.P
    return (
        _cond("K/ln n", "ring grows past ln n", p.K / ln_n, p.K / ln_n >= 1.0),
        _cond("(K^2/P) ln n", "ring density at most order 1/ln n",
              density * ln_n, density * ln_n <= 1.0),
        _cond("(K^2/P)/(ln n/n)", "ring density past ln n/n",
              density / (ln_n / p.n), density / (ln_n / p.n) >= 1.0),
        _cond("K n/P", "K below P/n (o(1/n) proxy)",
              p.K * p.n / p.P, p.K * p.n / p.P <= 0.1),
    )


@dataclass(frozen=True)
class FamilyRow:
    """Everything the lab knows about one model family.

    ``model`` is the sampler spec type, whose fields are named after the
    ``FamilyParams`` and ``ModelFamily`` fields they take, or for a
    composition the names of the rows it intersects; a composition's exact
    edge probability is the product of its parts'. A row without a
    coupling can be sampled but has no threshold law. ``inverse`` maps each
    parameter :func:`solve_param` may free to the inverse of the coupling.
    """

    needs: tuple[str, ...]
    model: type | tuple[str, ...]
    edge_probability: Callable[[ModelFamily, FamilyParams], float] | None = None
    coupling: Callable[[ModelFamily, FamilyParams], float] | None = None
    inverse: Mapping[str, Callable[[ModelFamily, FamilyParams, float], float]] = field(
        default_factory=dict)
    laws: tuple[str, ...] = ()
    side_conditions: Callable[..., tuple[SideCondition, ...]] = lambda f, p, prop: ()
    has_s: bool = False
    geometric: bool = False


_ALL_LAWS = tuple(PROPERTIES)

FAMILIES: dict[str, FamilyRow] = {
    ER: FamilyRow(
        needs=("q",), model=ErParams,
        edge_probability=lambda f, p: p.q,
        coupling=lambda f, p: p.q,
        inverse={"q": lambda f, p, c: c},
        laws=_ALL_LAWS,
    ),
    URIG: FamilyRow(
        needs=("K", "P"), model=UniformRigParams,
        edge_probability=lambda f, p: uniform_overlap_tail(p.K, p.P, f.s),
        coupling=lambda f, p: (p.K ** (2 * f.s)) / (math.factorial(f.s) * p.P**f.s),
        inverse={"K": lambda f, p, c: (
            (math.factorial(f.s) * c) ** (1.0 / (2 * f.s)) * math.sqrt(p.P))},
        laws=_ALL_LAWS, side_conditions=_urig_conditions, has_s=True,
    ),
    BRIG: FamilyRow(
        needs=("t", "P"), model=BinomialRigParams,
        edge_probability=lambda f, p: binomial_overlap_tail(p.t, p.P, f.s),
        coupling=lambda f, p: (p.t ** (2 * f.s)) * (p.P**f.s) / math.factorial(f.s),
        inverse={"t": lambda f, p, c: (
            (math.factorial(f.s) * c / p.P**f.s) ** (1.0 / (2 * f.s)))},
        laws=_ALL_LAWS, side_conditions=_brig_conditions, has_s=True,
    ),
    RGG: FamilyRow(
        needs=("r",), model=RggParams,
        edge_probability=lambda f, p: min(math.pi * p.r * p.r, 1.0),
        geometric=True,
    ),
    # Only the minimum-degree law is known for s >= 2; k-connectivity
    # requests get it as an audit surrogate.
    URIG_ER: FamilyRow(
        needs=("K", "P", "q"), model=(URIG, ER),
        coupling=lambda f, p: exact_edge_probability(f, p),
        inverse={"q": _urig_er_q, "K": _urig_er_K},
        laws=(MIN_DEGREE, K_CONNECTED), side_conditions=_urig_er_conditions, has_s=True,
    ),
    URIG_RGG: FamilyRow(
        needs=("K", "P", "r"), model=(URIG, RGG),
        coupling=lambda f, p: math.pi * p.r * p.r * p.K**2 / p.P,
        inverse={"r": lambda f, p, c: math.sqrt(c * p.P / (math.pi * p.K**2))},
        laws=(K_CONNECTED,), side_conditions=_urig_rgg_conditions, geometric=True,
    ),
}

# Families with a threshold law, in table order.
LAW_FAMILIES = tuple(name for name, row in FAMILIES.items() if row.coupling is not None)


# -- thresholds -------------------------------------------------------------


def lnln_offset(prop: PropertyKind) -> int:
    return PROPERTIES[prop.kind].lnln + prop.k - 1


def threshold_spec(family: ModelFamily, prop: PropertyKind) -> ThresholdSpec:
    """The threshold law for this family/property pair.

    The geometric composition has only its connectivity (k=1) law.
    """
    row = FAMILIES[family.kind]
    if prop.kind not in row.laws or (row.geometric and prop.k != 1):
        raise ParameterError(f"no {prop.label()} law for {family.label()}")
    if row.geometric:
        return ThresholdSpec(prop, RGG_TORUS if family.region == TORUS else RGG_SQUARE)
    return ThresholdSpec(prop, PROPERTIES[prop.kind].limit_form)


def limiting_probability(spec: ThresholdSpec, deviation: float) -> float | None:
    """Limit of P[property] when the deviation sequence tends to ``deviation``.

    Returns None where the law specifies no value (finite deviations of
    zero-one-only laws; a geometric constant exactly 1). A NaN deviation
    raises :class:`ParameterError`.
    """
    if math.isnan(deviation):
        raise ParameterError("deviation must be a number, got nan")
    if spec.limit_form in (RGG_TORUS, RGG_SQUARE):
        if deviation < 1.0:
            return 0.0
        if deviation > 1.0:
            return 1.0
        return None
    if deviation == math.inf:
        return 1.0
    if deviation == -math.inf:
        return 0.0
    if spec.limit_form == ZERO_ONE:
        return None
    if -deviation > 500.0:
        return 0.0
    return math.exp(-math.exp(-deviation) / math.factorial(spec.property.k - 1))


# -- couplings and edge probabilities ----------------------------------------


def _lchoose(a: int, b: int) -> float:
    if b < 0 or b > a:
        return -math.inf
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def uniform_overlap_tail(K: int, P: int, s: int) -> float:
    """P[|X ∩ Y| >= s] for independent uniform K-subsets of a P-pool.

    Hypergeometric upper tail, summed in the log domain so pools up to
    ~1e9 stay overflow-free.
    """
    if not 1 <= s <= K <= P:
        raise ParameterError("need 1 <= s <= K <= P")
    if 2 * K - P >= s:
        return 1.0  # overlap is at least 2K - P for any two K-subsets
    denom = _lchoose(P, K)
    total = 0.0
    for i in range(s, K + 1):
        term = _lchoose(K, i) + _lchoose(P - K, K - i) - denom
        if term > -math.inf:
            total += math.exp(term)
    return min(total, 1.0)


def binomial_overlap_tail(t: float, P: int, s: int) -> float:
    """P[Binomial(P, t^2) >= s]: each pool item is shared independently."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError("t must lie in [0, 1]")
    if s > P:
        return 0.0
    p2 = t * t
    if p2 == 0.0:
        return 0.0
    from scipy.special import betainc  # imported here: loading it slows `import riglab`

    return float(betainc(s, P - s + 1, p2))


def exact_edge_probability(family: ModelFamily, params: FamilyParams) -> float:
    """Finite-n edge probability; compositions multiply their parts."""
    row = FAMILIES[family.kind]
    build_model_spec(family, params)
    if isinstance(row.model, tuple):
        return math.prod(
            FAMILIES[part].edge_probability(family, params) for part in row.model
        )
    return row.edge_probability(family, params)


def coupling_value(family: ModelFamily, params: FamilyParams) -> float:
    """The family's coupling; ``params`` must pass its sampler spec's checks."""
    row = FAMILIES[family.kind]
    if row.coupling is None:
        raise ParameterError(f"{family.label()} has no threshold law")
    build_model_spec(family, params)
    return row.coupling(family, params)


def _rgg_denominator(region: str, params: FamilyParams, n: int) -> float:
    """Threshold denominator of the geometric compositions: ``ln n/n`` on
    the torus. On the square it is ``ln(n P/K^2)/n`` in the dense-ring
    branch (K^2/P above 1/(n^{1/3} ln n)) and ``4 ln(P/K^2)/n`` below it.
    """
    if region == TORUS:
        return math.log(n) / n
    density = params.K**2 / params.P
    split = 1.0 / (n ** (1.0 / 3.0) * math.log(n))
    if density > split:
        denom = math.log(n * params.P / params.K**2) / n
    else:
        denom = 4.0 * math.log(params.P / params.K**2) / n
    if denom <= 0:
        raise ParameterError("square threshold denominator is non-positive here")
    return denom


def deviation_from_params(
    family: ModelFamily, params: FamilyParams, prop: PropertyKind
) -> float:
    """Invert the scaling: the deviation these parameters realize at n.

    Additive families: ``n * coupling - ln n - c * ln ln n``. Geometric
    compositions: the ratio of the coupling to its threshold denominator.
    """
    n = params.n
    if n < 3:
        raise ParameterError("need n >= 3 so ln ln n is defined and positive")
    coupling = coupling_value(family, params)
    if FAMILIES[family.kind].geometric:
        return coupling / _rgg_denominator(family.region, params, n)
    c = lnln_offset(prop)
    return n * coupling - math.log(n) - c * math.log(math.log(n))


# -- solving for a free parameter --------------------------------------------


def _target_coupling(
    family: ModelFamily, prop: PropertyKind, n: int, deviation: float,
    params: FamilyParams,
) -> float:
    if n < 3:
        raise ParameterError("need n >= 3")
    if FAMILIES[family.kind].geometric:
        return deviation * _rgg_denominator(family.region, params, n)
    c = lnln_offset(prop)
    return (math.log(n) + c * math.log(math.log(n)) + deviation) / n


def _bounds(name: str, family: ModelFamily, fixed: FamilyParams) -> tuple:
    """Bounds rule of a solvable parameter: K is an integer in [s, P], t and
    q lie in [0, 1] and r is at least 0."""
    if name == "K":
        return family.s, fixed.P
    return 0.0, math.inf if name == "r" else 1.0


def solve_param(
    family: ModelFamily,
    prop: PropertyKind,
    n: int,
    deviation: float,
    fixed: FamilyParams,
) -> SolveResult:
    """Solve the threshold scaling for the family's free parameter.

    A family with several solvable parameters needs exactly one of them
    unset in ``fixed``. The real-valued solution is reported together with
    rounded (integer K) or clamped candidates, each annotated with the
    deviation it actually implies; downstream predictions must use those
    implied deviations. Targets below the achievable minimum clamp to the
    smallest valid parameter. A NaN deviation, parameters the sampler spec
    rejects and targets above the achievable maximum (q or t past 1, K past
    P) raise :class:`ParameterError`.
    """
    if math.isnan(deviation):
        raise ParameterError("deviation must be a number, got nan")
    fixed = replace(fixed, n=n)
    row = FAMILIES[family.kind]
    free = list(row.inverse)
    if len(free) > 1:
        free = [x for x in free if getattr(fixed, x) is None]
    if len(free) != 1:
        if not row.inverse:
            raise ParameterError(f"{family.label()} has no threshold scaling")
        raise ParameterError(
            f"{family.label()} solve needs exactly one of {list(row.inverse)} free"
        )
    name = free[0]
    lo, hi = _bounds(name, family, fixed)
    build_model_spec(family, replace(fixed, **{name: lo}))
    c = _target_coupling(family, prop, n, deviation, fixed)
    # q = 0 meets a zero target exactly; K, t and r take a non-positive
    # target to their lowest value and report it as clamped.
    clamped = c < 0 if name == "q" else c <= 0
    real = float(lo) if clamped else row.inverse[name](family, fixed, c)
    if real > hi:
        raise ParameterError(
            f"target deviation needs {name} = {real:.6g}, above its largest value {hi:g}"
        )
    if real < lo:
        real, clamped = float(lo), True
    if name == "K":
        values = sorted({min(max(math.floor(real), lo), hi),
                         min(max(math.ceil(real), lo), hi)})
    else:
        values = [real]
    candidates = []
    for v in values:
        p = replace(fixed, **{name: v})
        candidates.append(Candidate(v, deviation_from_params(family, p, prop), p))
    return SolveResult(name, real, clamped, deviation, tuple(candidates))


# -- side conditions ----------------------------------------------------------


def side_conditions(
    family: ModelFamily, params: FamilyParams, prop: PropertyKind
) -> tuple[SideCondition, ...]:
    """Advisory finite-n proxies for the theorems' asymptotic hypotheses.

    Never fatal: experiments at violating parameters run and carry the
    flags in their summaries. Proxy thresholds: a big-Omega/little-omega
    lower-bound ratio passes at >= 1, an o(1)/O(.) upper-bound ratio at
    <= 0.1 and <= 1 respectively, and power-law exponents compare
    ``log_n P`` against the stated constant.
    """
    return FAMILIES[family.kind].side_conditions(family, params, prop)


# -- family -> sampleable model spec ------------------------------------------


def _sampler_spec(spec_type: type, family: ModelFamily, params: FamilyParams) -> ModelSpec:
    return spec_type(**{
        f.name: getattr(family if f.name in ("s", "region") else params, f.name)
        for f in fields(spec_type)
    })


def build_model_spec(family: ModelFamily, params: FamilyParams) -> ModelSpec:
    """The sampler spec of ``family`` at ``params``; a composition samples
    its parts on one node set and intersects their edges, an ER part acting
    as an independent edge filter."""
    row = FAMILIES[family.kind]
    missing = [x for x in row.needs if getattr(params, x) is None]
    if missing:
        raise ParameterError(f"missing parameter(s) {missing} for this family")
    if isinstance(row.model, tuple):
        return IntersectionSpec(tuple(
            _sampler_spec(FAMILIES[part].model, family, params) for part in row.model
        ))
    return _sampler_spec(row.model, family, params)
