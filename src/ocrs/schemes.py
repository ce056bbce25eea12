"""Executable online selection schemes.

Every scheme is split into a build phase (fix the arrival order or the
mixture; expensive, done once per instance) and a run phase (one online
pass over a fresh active set; cheap, repeated across trials). Run phases
only ever look at the revealed prefix, so decisions are online by
construction.

Schemes:

* OrderedGreedy        -- deterministic greedy along a fixed order.
* IndependentSubsampling -- greedy along a preselected order, restricted to
  an independently thinned subset of the ground set.
* PrefixSubsampling    -- same, with the correlated sentinel-prefix subsample.
* PermutationMixture   -- sample an order from a finite mixture, then greedy.
* WeightMixture        -- sample a weight vector from a finite mixture and
  replay a matroid secretary algorithm against masked weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .bitset import SubsetMask, full_mask
from .matroid import Matroid
from .preselect import PreselectConfig, preselect_independent, preselect_prefix
from .priors import Prior, draw_index, float_cdf, to_fraction
from .sampling import (
    IndependentLaw,
    Permutation,
    PrefixLaw,
    prefix_subsample_bits,
    random_permutation,
    t_rho_bits,
)

MIXTURE_WEIGHT_TOL = 1e-9


def greedy_ordered_bits(M: Matroid, order: Sequence[int], a_bits: int) -> int:
    g = M.grower()
    for e in order:
        if (a_bits >> e) & 1:
            g.try_add(e)
    return g.bits


def greedy_ordered(M: Matroid, pi: Permutation, A: SubsetMask) -> SubsetMask:
    """Scan pi; take every active element that keeps the set independent."""
    return SubsetMask(M.n, greedy_ordered_bits(M, pi.order, A.bits))


def order_by_weight(w: Sequence) -> Permutation:
    """Decreasing-weight order, ties broken by ascending element index."""
    return Permutation(sorted(range(len(w)), key=lambda e: (-w[e], e)))


class Scheme:
    """Base run-phase interface."""

    n: int

    def run_bits(self, M: Matroid, a_bits: int, rng: Random) -> int:
        raise NotImplementedError

    def run(self, M: Matroid, A: SubsetMask, rng: Random) -> SubsetMask:
        return SubsetMask(self.n, self.run_bits(M, A.bits, rng))

    def to_spec(self) -> dict:
        raise NotImplementedError


class OrderedGreedy(Scheme):
    def __init__(self, order: Permutation):
        self.order = order
        self.n = order.n

    def run_bits(self, M, a_bits, rng):
        return greedy_ordered_bits(M, self.order.order, a_bits)

    def to_spec(self):
        return {"kind": "ordered_greedy", "order": list(self.order.order)}

    def __repr__(self):
        return f"OrderedGreedy({list(self.order.order)})"


class IndependentSubsampling(Scheme):
    """Greedy along `order` over A ∩ T, T an independent rho-thinning of the
    whole ground set (drawn fresh per run, independent of A)."""

    def __init__(self, order: Permutation, rho):
        self.order = order
        self.rho = to_fraction(rho)
        if not 0 <= self.rho <= 1:
            raise ValueError(f"rho {rho} outside [0,1]")
        self.n = order.n
        self.law = IndependentLaw(self.rho)  # what t_rho_bits draws, stated exactly
        self._rho_f = float(self.rho)
        self._full = full_mask(self.n)

    def run_bits(self, M, a_bits, rng):
        t = t_rho_bits(self._full, self._rho_f, rng)
        return greedy_ordered_bits(M, self.order.order, a_bits & t)

    def to_spec(self):
        return {
            "kind": "independent_subsampling",
            "order": list(self.order.order),
            "rho": str(self.rho),
        }

    def __repr__(self):
        return f"IndependentSubsampling(order={list(self.order.order)}, rho={self.rho})"


class PrefixSubsampling(Scheme):
    """Greedy along `order` over A ∩ T, T drawn by the sentinel-prefix
    subsampler (drawn fresh per run, independent of A)."""

    def __init__(self, order: Permutation):
        self.order = order
        self.n = order.n
        self.law = PrefixLaw()  # what prefix_subsample_bits draws, stated exactly

    def run_bits(self, M, a_bits, rng):
        t = prefix_subsample_bits(self.n, rng)
        return greedy_ordered_bits(M, self.order.order, a_bits & t)

    def to_spec(self):
        return {"kind": "prefix_subsampling", "order": list(self.order.order)}

    def __repr__(self):
        return f"PrefixSubsampling(order={list(self.order.order)})"


def _check_mixture_weights(weights):
    total = math.fsum(float(x) for x in weights)
    if any(float(x) < 0 for x in weights) or abs(total - 1) > MIXTURE_WEIGHT_TOL:
        raise ValueError(f"mixture weights must be >= 0 and sum to 1, got sum {total}")


class PermutationMixture(Scheme):
    def __init__(self, components: Sequence[tuple[Permutation, object]]):
        if not components:
            raise ValueError("empty mixture")
        self.components = [(pi, to_fraction(wt)) for pi, wt in components]
        _check_mixture_weights(wt for _, wt in self.components)
        self.n = self.components[0][0].n
        self._cdf = float_cdf(wt for _, wt in self.components)

    def sample_component(self, rng: Random) -> Permutation:
        return self.components[draw_index(self._cdf, rng)][0]

    def run_bits(self, M, a_bits, rng):
        pi = self.sample_component(rng)
        return greedy_ordered_bits(M, pi.order, a_bits)

    def to_spec(self):
        return {
            "kind": "permutation_mixture",
            "components": [
                {"order": list(pi.order), "weight": str(wt)} for pi, wt in self.components
            ],
        }

    def __repr__(self):
        return f"PermutationMixture({len(self.components)} orders)"


# -- matroid secretary algorithms ------------------------------------------


class SecretaryAlgorithm:
    """Streaming interface: one instance per run, elements pushed in arrival
    order via next(element, weight) -> accept. The arrival order itself is
    generated outside, according to `arrival_model`."""

    arrival_model = "random"  # or "by_weight"

    def __init__(self, M: Matroid):
        self._grower = M.grower()

    def next(self, e: int, w) -> bool:
        raise NotImplementedError


class GreedyByWeight(SecretaryAlgorithm):
    """Accepts any positive-weight element that keeps independence; run with
    decreasing-weight arrivals this selects a maximum-weight independent set."""

    arrival_model = "by_weight"

    def next(self, e, w):
        if w <= 0:
            return False
        return self._grower.try_add(e)


class Classic1Uniform(SecretaryAlgorithm):
    """Observe floor(n/e) arrivals, then take the first that matches or
    beats the best weight seen. Intended for 1-uniform instances under
    random arrival order; never accepts weight 0."""

    arrival_model = "random"

    def __init__(self, M: Matroid):
        super().__init__(M)
        self._observe = math.floor(M.n / math.e)
        self._seen = 0
        self._best = 0.0

    def next(self, e, w):
        self._seen += 1
        if self._seen <= self._observe:
            self._best = max(self._best, float(w))
            return False
        if w <= 0 or float(w) < self._best:
            return False
        return self._grower.try_add(e)


SECRETARY_KINDS = {
    "greedy_by_weight": GreedyByWeight,
    "classic_1uniform": Classic1Uniform,
}

DETERMINISTIC_SECRETARIES = {"greedy_by_weight"}


def secretary_wrap(
    alg_kind: str,
    w: Sequence,
    M: Matroid,
    A: SubsetMask,
    rng: Random,
    arrival: Optional[Permutation] = None,
) -> SubsetMask:
    """Run a secretary algorithm against weights masked by the active set.

    Inactive elements are presented with weight 0 (and positive-weight
    acceptance then keeps the output inside A). `arrival` overrides the
    algorithm's own arrival model when given.
    """
    return SubsetMask(M.n, secretary_wrap_bits(alg_kind, w, M, A.bits, rng, arrival))


def secretary_wrap_bits(alg_kind, w, M, a_bits, rng, arrival=None) -> int:
    cls = SECRETARY_KINDS[alg_kind]
    alg = cls(M)
    if arrival is not None:
        order = arrival.order
    elif cls.arrival_model == "by_weight":
        order = order_by_weight(w).order
    else:
        order = random_permutation(M.n, rng).order
    out = 0
    for e in order:
        we = w[e] if (a_bits >> e) & 1 else 0
        if alg.next(e, we):
            out |= 1 << e
    return out


class WeightMixture(Scheme):
    """Sample a weight vector from the mixture, then replay the secretary
    algorithm with active-masked weights."""

    def __init__(self, secretary_kind: str, components: Sequence[tuple[Sequence, object]]):
        if secretary_kind not in SECRETARY_KINDS:
            raise ValueError(f"unknown secretary kind {secretary_kind!r}")
        if not components:
            raise ValueError("empty mixture")
        self.secretary_kind = secretary_kind
        self.components = [(tuple(wv), to_fraction(wt)) for wv, wt in components]
        _check_mixture_weights(wt for _, wt in self.components)
        self.n = len(self.components[0][0])
        self._cdf = float_cdf(wt for _, wt in self.components)

    def sample_component(self, rng: Random) -> tuple:
        return self.components[draw_index(self._cdf, rng)][0]

    def run_bits(self, M, a_bits, rng):
        wv = self.sample_component(rng)
        return secretary_wrap_bits(self.secretary_kind, wv, M, a_bits, rng)

    def to_spec(self):
        return {
            "kind": "weight_mixture",
            "secretary": self.secretary_kind,
            "components": [
                {"w": [_num_str(x) for x in wv], "weight": str(wt)}
                for wv, wt in self.components
            ],
        }

    def __repr__(self):
        return f"WeightMixture({self.secretary_kind}, {len(self.components)} vectors)"


def _num_str(x):
    return str(x) if isinstance(x, Fraction) else x


# -- build helpers ---------------------------------------------------------


def build_independent_subsampling_scheme(
    M: Matroid,
    P: Prior,
    alpha,
    rng: Random,
    cfg: Optional[PreselectConfig] = None,
    order: Optional[Permutation] = None,
) -> IndependentSubsampling:
    """Preselect an order with the independent-thinning statistic and pair
    it with rho = alpha/2 thinning. With alpha = 0 the subsample is a.s.
    empty, so no preselection is needed and the identity order is used."""
    alpha = to_fraction(alpha)
    if order is None:
        if alpha == 0:
            order = Permutation.identity(M.n)
        else:
            cfg = cfg or PreselectConfig(alpha=alpha)
            order = preselect_independent(M, P, cfg, rng)
    return IndependentSubsampling(order, alpha / 2)


def build_prefix_subsampling_scheme(
    M: Matroid,
    P: Prior,
    alpha,
    rng: Random,
    cfg: Optional[PreselectConfig] = None,
    order: Optional[Permutation] = None,
) -> PrefixSubsampling:
    alpha = to_fraction(alpha)
    if order is None:
        cfg = cfg or PreselectConfig(alpha=alpha)
        order = preselect_prefix(M, P, cfg, rng)
    return PrefixSubsampling(order)


def scheme_from_spec(spec: dict) -> Scheme:
    kind = spec.get("kind")
    if kind == "ordered_greedy":
        return OrderedGreedy(Permutation(spec["order"]))
    if kind == "independent_subsampling":
        return IndependentSubsampling(Permutation(spec["order"]), Fraction(spec["rho"]))
    if kind == "prefix_subsampling":
        return PrefixSubsampling(Permutation(spec["order"]))
    if kind == "permutation_mixture":
        return PermutationMixture(
            [(Permutation(c["order"]), Fraction(c["weight"])) for c in spec["components"]]
        )
    if kind == "weight_mixture":
        return WeightMixture(
            spec["secretary"],
            [
                ([_parse_num(x) for x in c["w"]], Fraction(c["weight"]))
                for c in spec["components"]
            ],
        )
    raise ValueError(f"unknown scheme kind {kind!r}")


def _parse_num(x):
    if isinstance(x, str):
        return Fraction(x)
    return x
