"""Experiment harness: named instances, tight-instance generators,
balancedness estimation with Hoeffding intervals, and competitiveness
measurement for secretary algorithms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from fractions import Fraction
from functools import partial
from random import Random
from typing import Optional

from .bitset import DimensionMismatch, SubsetMask
from .matroid import GraphicMatroid, ExplicitMatroid, Matroid, UniformMatroid, matroid_from_spec
from .priors import (
    AllActivePrior,
    ExplicitPrior,
    Prior,
    hidden_element_prior,
    prior_from_spec,
    to_fraction,
)
from .sampling import Permutation, spec_field
from .schemes import Scheme, WeightMixture


@dataclass
class Instance:
    """A matroid/prior pair with its claimed uncontentiousness level.

    `canonical_order` is the arrival order under which the instance is
    known to be tight, when there is one; generators fill it in.
    """

    name: str
    matroid: Matroid
    prior: Prior
    declared_alpha: Fraction
    canonical_order: Optional[Permutation] = None
    provenance: str = ""

    def __post_init__(self):
        try:
            self.matroid.check_over(prior=self.prior, canonical_order=self.canonical_order)
        except DimensionMismatch as err:
            raise DimensionMismatch(f"instance {self.name}: {err}") from None

    def to_spec(self) -> dict:
        spec = {
            "name": self.name,
            "matroid": self.matroid.to_spec(),
            "prior": self.prior.to_spec(),
            "declared_alpha": str(self.declared_alpha),
            "provenance": self.provenance,
        }
        if self.canonical_order is not None:
            spec["canonical_order"] = list(self.canonical_order.order)
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "Instance":
        """Inverse of `to_spec`; a missing or mistyped field raises
        ValueError naming it (`spec_field`)."""
        matroid = matroid_from_spec(spec_field(spec, "matroid"))  # checks spec is a dict
        order = spec.get("canonical_order")
        if order is not None:
            order = spec_field(spec, "canonical_order", Permutation)
        return cls(
            name=spec.get("name", "instance"),
            matroid=matroid,
            prior=prior_from_spec(spec_field(spec, "prior")),
            declared_alpha=spec_field(spec, "declared_alpha", Fraction),
            canonical_order=order,
            provenance=spec.get("provenance", ""),
        )


def gen_kuniform_allactive(n: int, k: int) -> Instance:
    """k-uniform matroid, everything always active; tight for the
    prefix-subsampling scheme at level k/n."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return Instance(
        name=f"kuniform:{n},{k}",
        matroid=UniformMatroid(n, k),
        prior=AllActivePrior(n),
        declared_alpha=Fraction(k, n),
        canonical_order=Permutation.identity(n),
        provenance="uniform tight instance",
    )


def hats_count(alpha: Fraction) -> int:
    """Largest m with (1 - a/2)(1 - a^2/4)^m >= a/2, computed exactly."""
    alpha = to_fraction(alpha)
    lhs = 1 - alpha / 2
    decay = 1 - alpha * alpha / 4
    m = 0
    while lhs * decay ** (m + 1) >= alpha / 2:
        m += 1
    return m


def gen_parallel_hats(alpha, m_override: Optional[int] = None) -> Instance:
    """Bundle of 1/alpha parallel edges plus a chain of edge 'hats' over a
    shared base edge, all always active; tight for the
    independent-subsampling scheme.

    Edge indices follow the canonical tight order: hat tops, hat bottoms,
    the base edge, then the parallel bundle; so the canonical order is the
    identity. `m_override` forces the hat count m >= 0 (handy for small
    variants; m = 0 leaves the base edge and the bundle).
    """
    alpha = to_fraction(alpha)
    if not 0 < alpha <= Fraction(1, 2):
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha}")
    inv = 1 / alpha
    if inv.denominator != 1:
        raise ValueError(f"1/alpha must be an integer, got {inv}")
    npar = int(inv)
    m = hats_count(alpha) if m_override is None else int(m_override)
    if m < 0:
        raise ValueError(f"hat count m must be >= 0, got {m}")
    u, uprime = 0, 1  # hat tips; spoke vertices are 2..m+1
    w, wprime = 2 + m, 3 + m
    edges = [(2 + i, u) for i in range(m)]
    edges += [(2 + i, uprime) for i in range(m)]
    edges.append((u, uprime))
    edges += [(w, wprime)] * npar
    n = len(edges)
    return Instance(
        name=f"parallel-hats:{alpha}" + (f",m={m}" if m_override is not None else ""),
        matroid=GraphicMatroid(4 + m, edges),
        prior=AllActivePrior(n),
        declared_alpha=alpha,
        canonical_order=Permutation.identity(n),
        provenance=f"graphic tight instance, {m} hats, {npar} parallel edges",
    )


def two_element_instance() -> Instance:
    """Two mutually exclusive elements, active together half the time; the
    smallest instance where every element is always spanned by the rest of
    the active set, yet level 1/2 is achievable offline."""
    return Instance(
        name="twoelem",
        matroid=ExplicitMatroid(2, [[], [0], [1]]),
        prior=ExplicitPrior(2, [(0b11, Fraction(1, 2)), (0, Fraction(1, 2))]),
        declared_alpha=Fraction(1, 2),
        canonical_order=Permutation.identity(2),
        provenance="coupled two-element example",
    )


def gen_hidden_element(n: int, alpha, delta, j: int) -> Instance:
    """1-uniform matroid with the hidden-element prior; p_min shrinks with
    delta while the declared level stays alpha."""
    alpha = to_fraction(alpha)
    return Instance(
        name=f"hidden:{n},{alpha},{to_fraction(delta)},{j}",
        matroid=UniformMatroid(n, 1),
        prior=hidden_element_prior(n, alpha, delta, j),
        declared_alpha=alpha,
        provenance="hidden-element prior on 1-uniform",
    )


# each shorthand's form, named when its arguments do not read
_SHORTHAND_FORMS = {
    "kuniform": "kuniform:N,K",
    "twoelem": "twoelem",
    "parallel-hats": "parallel-hats:ALPHA[,m=M]",
    "hidden": "hidden:N,ALPHA,DELTA,J",
}


def parse_instance(text: str) -> Instance:
    """Shorthand parser: 'kuniform:N,K', 'twoelem', 'parallel-hats:ALPHA[,m=M]',
    'hidden:N,ALPHA,DELTA,J', or a path to an instance JSON file. Arguments
    that do not read raise one ValueError naming the form; the generators
    check their ranges themselves."""
    if text.endswith(".json"):
        import json

        with open(text) as f:
            return Instance.from_spec(json.load(f))
    name, colon, args = text.partition(":")
    name = name.replace("_", "-")
    given = args.split(",") if colon else []
    malformed = ValueError(f"instance {text!r} does not have the form {_SHORTHAND_FORMS.get(name)}")

    def read(convert, arg):
        try:
            return convert(arg)
        except ValueError:
            raise malformed from None

    if name == "kuniform" and len(given) == 2:
        return gen_kuniform_allactive(*map(read, (int, int), given))
    if name == "twoelem" and not given:
        return two_element_instance()
    if name == "parallel-hats" and given:
        m_override = None
        for p in given[1:]:
            key, _, val = p.partition("=")
            if key != "m":
                raise ValueError(f"unknown parallel-hats option {p!r} (use m=M)")
            m_override = read(int, val)
        return gen_parallel_hats(read(to_fraction, given[0]), m_override)
    if name == "hidden" and len(given) == 4:
        return gen_hidden_element(*map(read, (int, to_fraction, to_fraction, int), given))
    if name in _SHORTHAND_FORMS:
        raise malformed
    raise ValueError(f"unknown instance spec {text!r}")


# -- balancedness estimation -------------------------------------------------


@dataclass
class ElementEstimate:
    element: int
    active_count: int
    selected_count: int
    estimate: Optional[float]
    ci_lo: Optional[float]
    ci_hi: Optional[float]


@dataclass
class BalancednessReport:
    trials: int
    ci_level: float
    elements: list[ElementEstimate]
    metadata: dict = field(default_factory=dict)

    def min_estimate(self) -> Optional[float]:
        vals = [e.estimate for e in self.elements if e.estimate is not None]
        return min(vals) if vals else None

    def csv_lines(self) -> list[str]:
        """A header of ElementEstimate's field names, then one row per
        element; a missing value is an empty cell."""
        header = ",".join(f.name for f in fields(ElementEstimate))
        return [header] + [
            ",".join("" if v is None else repr(v) for v in astuple(e)) for e in self.elements
        ]

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("\n".join(self.csv_lines()) + "\n")

    def to_json(self) -> dict:
        return {**asdict(self), "min_estimate": self.min_estimate()}


def hoeffding_halfwidth(level: float, count: int) -> float:
    return math.sqrt(math.log(2 / (1 - level)) / (2 * count))


def estimate_balancedness(
    M: Matroid,
    scheme: Scheme,
    P: Prior,
    trials: int,
    rng: Random,
    ci_level: float = 0.99,
    metadata: Optional[dict] = None,
) -> BalancednessReport:
    """Run the scheme's run phase on fresh active sets and report, per
    element, the conditional selection frequency with a two-sided
    Hoeffding interval. Elements never seen active get a no-data row.

    The trials are counted by `Prior.count` with the scheme's `run_words` as
    the selector: per batch the prior draws the active words and the scheme
    runs on them, one pass over the words for greedy and the subsampling
    schemes (the matroid's `greedy_words`), one `run_bits` per trial
    otherwise."""
    M.check_over(scheme=scheme, prior=P)
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 < ci_level < 1:
        raise ValueError(f"ci_level must lie in (0, 1), got {ci_level}")
    act, sel = P.count(trials, rng, partial(scheme.run_words, M, rng=rng))
    elements = []
    for e in range(M.n):
        if act[e] == 0:
            elements.append(ElementEstimate(e, 0, 0, None, None, None))
            continue
        est = sel[e] / act[e]
        hw = hoeffding_halfwidth(ci_level, act[e])
        elements.append(
            ElementEstimate(e, act[e], sel[e], est, max(0.0, est - hw), min(1.0, est + hw))
        )
    return BalancednessReport(
        trials=trials, ci_level=ci_level, elements=elements, metadata=metadata or {}
    )


def measure_competitiveness(
    M: Matroid, secretary_kind: str, w, trials: int, rng: Random
) -> float:
    """Average ratio of the secretary algorithm's selected weight to the
    offline optimum, over fresh arrival orders (no active-set masking).
    `Prior.count` on an all-active prior, which draws nothing, counts the
    selections of the one-vector `WeightMixture` of w, and
    sum_e w_e count_e / (trials OPT) is formed in Fractions (`to_fraction`):
    only the returned float is rounded, 1-competitive is 1.0."""
    scheme = WeightMixture(secretary_kind, [(w, 1)])
    if trials < 1:
        raise ValueError("need at least one trial")
    exact_w = [to_fraction(x) for x in w]
    opt = M.weighted_rank(exact_w, SubsetMask.full(M.n))
    if opt <= 0:
        raise ValueError("offline optimum is zero; competitiveness undefined")
    _, counts = AllActivePrior(M.n).count(trials, rng, partial(scheme.run_words, M, rng=rng))
    total = sum((x * c for x, c in zip(exact_w, counts) if c), Fraction(0))
    return float(total / (trials * opt))
