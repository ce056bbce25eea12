"""Executable online selection schemes.

Every scheme is split into a build phase (fix the arrival order or the
mixture; expensive, done once per instance) and a run phase (one online
pass over a fresh active set; cheap, repeated across trials). Run phases
only ever look at the revealed prefix, so decisions are online by
construction.

Each scheme states its own randomness once, in two twins side by side:
`run_bits` draws it for one pass (Monte-Carlo), and `outcomes` enumerates
it exactly on one active set (exact balancedness).

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
from typing import Iterator, Optional, Sequence

from .bitset import SubsetMask, full_mask
from .matroid import Matroid, greedy_ordered_bits
from .preselect import PreselectConfig, preselect_independent, preselect_prefix
from .priors import Prior, draw_index, float_cdf, to_fraction
from .sampling import (
    EnumerationTooLarge,
    IndependentLaw,
    Permutation,
    PrefixLaw,
    prefix_subsample_bits,
    random_permutation,
    t_rho_bits,
)

MIXTURE_WEIGHT_TOL = 1e-9


def greedy_ordered(M: Matroid, pi: Permutation, A: SubsetMask) -> SubsetMask:
    """Scan pi; take every active element that keeps the set independent."""
    return SubsetMask(M.n, greedy_ordered_bits(M, pi.order, A.bits))


def order_by_weight(w: Sequence) -> Permutation:
    """Decreasing-weight order, ties broken by ascending element index."""
    return Permutation(sorted(range(len(w)), key=lambda e: (-w[e], e)))


class Scheme:
    """Base run-phase interface. `outcomes` is the exact twin of `run_bits`:
    it yields (probability, selected bits) over the scheme's own randomness
    on a_bits, summing to exactly 1, or raises `EnumerationTooLarge`."""

    n: int

    def run_bits(self, M: Matroid, a_bits: int, rng: Random) -> int:
        raise NotImplementedError

    def outcomes(self, M: Matroid, a_bits: int) -> Iterator[tuple[Fraction, int]]:
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

    def outcomes(self, M, a_bits):
        yield Fraction(1), greedy_ordered_bits(M, self.order.order, a_bits)

    def to_spec(self):
        return {"kind": "ordered_greedy", "order": list(self.order.order)}

    def __repr__(self):
        return f"OrderedGreedy({list(self.order.order)})"


class _Subsampling(Scheme):
    """Greedy along `order` over A ∩ T, T a subsample of the ground set drawn
    fresh per run, independent of A; `law` states exactly what it draws."""

    def outcomes(self, M, a_bits):
        # greedy(A ∩ T) depends on T only through T ∩ A: enumerate the law on A.
        order = self.order.order
        for b, w in self.law.outcomes(a_bits):
            yield w, greedy_ordered_bits(M, order, b)


class IndependentSubsampling(_Subsampling):
    """T: an independent rho-thinning of the whole ground set."""

    def __init__(self, order: Permutation, rho):
        self.order = order
        self.rho = to_fraction(rho)
        if not 0 <= self.rho <= 1:
            raise ValueError(f"rho {rho} outside [0,1]")
        self.n = order.n
        self.law = IndependentLaw(self.rho)
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


class PrefixSubsampling(_Subsampling):
    """T: drawn by the sentinel-prefix subsampler."""

    def __init__(self, order: Permutation):
        self.order = order
        self.n = order.n
        self.law = PrefixLaw()

    def run_bits(self, M, a_bits, rng):
        t = prefix_subsample_bits(self.n, rng)
        return greedy_ordered_bits(M, self.order.order, a_bits & t)

    def to_spec(self):
        return {"kind": "prefix_subsampling", "order": list(self.order.order)}

    def __repr__(self):
        return f"PrefixSubsampling(order={list(self.order.order)})"


class _Mixture(Scheme):
    """A finite mixture of columns; each subclass states one column's
    selection, `_select`. Weights must be >= 0 and sum to 1 within
    MIXTURE_WEIGHT_TOL; they are divided by their exact total, as in
    `ExplicitPrior`, so the outcome weights sum to exactly 1."""

    def __init__(self, components: Sequence[tuple[object, object]]):
        if not components:
            raise ValueError("empty mixture")
        weights = [to_fraction(wt) for _, wt in components]
        total = sum(weights, Fraction(0))
        if any(wt < 0 for wt in weights) or abs(total - 1) > MIXTURE_WEIGHT_TOL:
            raise ValueError(f"mixture weights must be >= 0 and sum to 1, got sum {float(total)}")
        self.components = [(col, wt / total) for (col, _), wt in zip(components, weights)]
        self._cdf = float_cdf(wt for _, wt in self.components)

    def run_bits(self, M, a_bits, rng):
        column = self.components[draw_index(self._cdf, rng)][0]
        return self._select(M, column, a_bits, rng)

    def outcomes(self, M, a_bits):
        for column, wt in self.components:
            yield wt, self._select(M, column, a_bits, None)


class PermutationMixture(_Mixture):
    """Draw an order from the mixture, then run greedy along it."""

    def __init__(self, components: Sequence[tuple[Permutation, object]]):
        super().__init__(components)
        self.n = self.components[0][0].n

    def _select(self, M, pi, a_bits, rng):
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
    generated outside, according to `arrival_model`; a "random" arrival
    order is the only randomness a secretary run draws."""

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


def secretary_wrap(
    alg_kind: str, w: Sequence, M: Matroid, A: SubsetMask, rng: Random
) -> SubsetMask:
    """Run a secretary algorithm against weights masked by the active set.

    Inactive elements are presented with weight 0 (and positive-weight
    acceptance then keeps the output inside A). Elements arrive by the
    algorithm's own `arrival_model`.
    """
    return SubsetMask(M.n, secretary_wrap_bits(alg_kind, w, M, A.bits, rng))


def secretary_wrap_bits(alg_kind, w, M, a_bits, rng) -> int:
    cls = SECRETARY_KINDS[alg_kind]
    alg = cls(M)
    if cls.arrival_model == "by_weight":
        order = order_by_weight(w).order
    else:
        order = random_permutation(M.n, rng).order
    out = 0
    for e in order:
        we = w[e] if (a_bits >> e) & 1 else 0
        if alg.next(e, we):
            out |= 1 << e
    return out


class WeightMixture(_Mixture):
    """Sample a weight vector from the mixture, then replay the secretary
    algorithm with active-masked weights."""

    def __init__(self, secretary_kind: str, components: Sequence[tuple[Sequence, object]]):
        if secretary_kind not in SECRETARY_KINDS:
            raise ValueError(f"unknown secretary kind {secretary_kind!r}")
        super().__init__([(tuple(wv), wt) for wv, wt in components])
        self.secretary_kind = secretary_kind
        self.n = len(self.components[0][0])

    def _select(self, M, wv, a_bits, rng):
        return secretary_wrap_bits(self.secretary_kind, wv, M, a_bits, rng)

    def outcomes(self, M, a_bits):
        if SECRETARY_KINDS[self.secretary_kind].arrival_model == "random":
            raise EnumerationTooLarge(
                f"secretary {self.secretary_kind!r} is randomized; no exact enumeration"
            )
        return super().outcomes(M, a_bits)

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
    """Inverse of `to_spec`. Numbers are read by `to_fraction` (in the
    constructors for rho and mixture weights), so a JSON float means its
    decimal digits."""
    kind = spec.get("kind")
    if kind == "ordered_greedy":
        return OrderedGreedy(Permutation(spec["order"]))
    if kind == "independent_subsampling":
        return IndependentSubsampling(Permutation(spec["order"]), spec["rho"])
    if kind == "prefix_subsampling":
        return PrefixSubsampling(Permutation(spec["order"]))
    if kind == "permutation_mixture":
        return PermutationMixture(
            [(Permutation(c["order"]), c["weight"]) for c in spec["components"]]
        )
    if kind == "weight_mixture":
        return WeightMixture(
            spec["secretary"],
            [([to_fraction(x) for x in c["w"]], c["weight"]) for c in spec["components"]],
        )
    raise ValueError(f"unknown scheme kind {kind!r}")
