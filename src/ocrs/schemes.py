"""Executable online selection schemes.

Every scheme is split into a build phase (fix the arrival order or the
mixture; expensive, done once per instance) and a run phase (one online
pass over a fresh active set; cheap, repeated across trials). A scheme
here is the run phase only: it takes its order from the caller, who
preselects it with `preselect.py` or supplies it, and its mixture from
`lp.py`. Run phases only ever look at the revealed prefix, so decisions
are online by construction.

Each scheme states its own randomness once, in two twins side by side:
`run_bits` draws it for one pass (Monte-Carlo), and `outcomes` credits
each element its exact selection probability on one active set (exact
balancedness). `run_words` runs a batch of trials, each element's state
one word with bit t for trial t, for `Prior.count`: by default one
`run_bits` per trial, and for greedy and the subsampling schemes one pass
over the words on the matroid's sliced greedy (`greedy_words`).

Schemes:

* OrderedGreedy        -- deterministic greedy along a fixed order.
* IndependentSubsampling -- greedy along a preselected order, restricted to
  an independently thinned subset of the ground set.
* PrefixSubsampling    -- same, with the correlated sentinel-prefix subsample.
* PermutationMixture   -- sample an order from a finite mixture, then greedy.
* WeightMixture        -- sample a weight vector from a finite mixture and
  replay a matroid secretary algorithm against masked weights; each kind
  is one function in `SECRETARY_KINDS`, its arrival order and its rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from .bitset import SubsetMask, full_mask, mask_of, sliced, unsliced
from .matroid import Matroid, by_decreasing_weight, greedy_ordered_bits
from .priors import to_fraction
from .sampling import (
    EnumerationTooLarge,
    IndependentLaw,
    Permutation,
    PrefixLaw,
    draw_index,
    exact_cdf,
    prefix_subsample_bits,
    prefix_subsample_words,
    shuffled,
    spec_field,
    t_rho_bits,
    unspanned_counts,
)

MIXTURE_WEIGHT_TOL = 1e-9


def order_by_weight(w: Sequence) -> Permutation:
    """Decreasing-weight order, ties broken by ascending element index."""
    return Permutation(by_decreasing_weight(w, range(len(w))))


class Scheme:
    """Base run-phase interface. `outcomes` is the exact twin of `run_bits`:
    it yields credits (weight, bits) on a_bits whose per-element sums are
    each element's exact selection probability over the scheme's own
    randomness, or raises `EnumerationTooLarge`. Greedy and the mixtures
    yield their joint law, (probability, selected bits) summing to exactly
    1, which the alpha* witness reads; the subsampling schemes yield one
    marginal credit per element."""

    n: int

    def run_bits(self, M: Matroid, a_bits: int, rng: Random) -> int:
        raise NotImplementedError

    def run_words(self, M: Matroid, words: list[int], trials: int, rng: Random) -> list[int]:
        """`run_bits` over a batch of trials, sliced: words[e] holds the
        trials (bits of the full mask `trials`) in which e is active, and the
        result those in which e is selected, each trial with run_bits's law.
        By default one `run_bits` per trial, in trial order (`bitset.unsliced`,
        then `bitset.sliced`); greedy and the subsampling schemes override it
        with one pass over the words."""
        run = self.run_bits
        return sliced([run(M, a, rng) for a in unsliced(words, trials.bit_length())], self.n)

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

    def run_words(self, M, words, trials, rng):
        return M.greedy_words(self.order.order, words)

    def outcomes(self, M, a_bits):
        yield 1, greedy_ordered_bits(M, self.order.order, a_bits)

    def to_spec(self):
        return {"kind": "ordered_greedy", "order": list(self.order.order)}

    def __repr__(self):
        return f"OrderedGreedy({list(self.order.order)})"


class _Subsampling(Scheme):
    """Greedy along `order` over A ∩ T, T a subsample of the ground set drawn
    fresh per run, independent of A; `law` states exactly what it draws."""

    def outcomes(self, M, a_bits):
        # Greedy selects the active arrival e after t others exactly when e
        # is kept and the kept ones of those t leave e unspanned: with e,
        # such a pattern keeps s + 1 of those t + 1 elements, weighed by the
        # law on A restricted to them.
        active = [e for e in self.order.order if a_bits >> e & 1]
        for t, (e, free) in enumerate(zip(active, unspanned_counts(M, active))):
            prob = self.law.prob([0, *free], t + 1)
            if prob:
                yield prob, 1 << e


class IndependentSubsampling(_Subsampling):
    """T: an independent rho-thinning of the whole ground set."""

    def __init__(self, order: Permutation, rho):
        self.order = order
        self.rho = to_fraction(rho)
        if not 0 <= self.rho <= 1:
            raise ValueError(f"rho {rho} outside [0,1]")
        self.n = order.n
        self.law = IndependentLaw(self.rho)
        self._full = full_mask(self.n)

    def run_bits(self, M, a_bits, rng):
        # T is drawn on the whole ground set, not on A, so the choices among
        # the first arrivals do not depend on later ones.
        t = t_rho_bits(self._full, self.rho, rng)
        return greedy_ordered_bits(M, self.order.order, a_bits & t)

    def run_words(self, M, words, trials, rng):
        # Each element is thinned in the trials where it is active: its keep
        # bit elsewhere is never read.
        return M.greedy_words(self.order.order, [t_rho_bits(a, self.rho, rng) for a in words])

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

    def run_words(self, M, words, trials, rng):
        return M.greedy_words(self.order.order, prefix_subsample_words(words, rng))

    def to_spec(self):
        return {"kind": "prefix_subsampling", "order": list(self.order.order)}

    def __repr__(self):
        return f"PrefixSubsampling(order={list(self.order.order)})"


class _Mixture(Scheme):
    """A finite mixture of columns; each subclass states column i's
    selection, `_select(M, i, a_bits, rng)`. Weights must be >= 0 and sum
    to 1 within MIXTURE_WEIGHT_TOL; they are divided by their exact total, as in
    `ExplicitPrior`, so the outcome weights sum to exactly 1."""

    def __init__(self, components: Sequence[tuple[object, object]]):
        if not components:
            raise ValueError("empty mixture")
        weights = [to_fraction(wt) for _, wt in components]
        total = sum(weights, Fraction(0))
        if any(wt < 0 for wt in weights) or abs(float(total) - 1) > MIXTURE_WEIGHT_TOL:
            raise ValueError(f"mixture weights must be >= 0 and sum to 1, got sum {float(total)}")
        self.components = [(col, wt / total) for (col, _), wt in zip(components, weights)]
        self._cdf = exact_cdf([wt for _, wt in self.components])

    def run_bits(self, M, a_bits, rng):
        i = draw_index(self._cdf, rng) if len(self._cdf) > 1 else 0  # one column: no draw
        return self._select(M, i, a_bits, rng)

    def outcomes(self, M, a_bits):
        for i, (_, wt) in enumerate(self.components):
            yield wt, self._select(M, i, a_bits, None)


class PermutationMixture(_Mixture):
    """Draw an order from the mixture, then run greedy along it."""

    def __init__(self, components: Sequence[tuple[Permutation, object]]):
        super().__init__(components)
        self.n = self.components[0][0].n

    def _select(self, M, i, a_bits, rng):
        return greedy_ordered_bits(M, self.components[i][0].order, a_bits)

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
#
# Each kind is one function (M, w, a_bits, rng, arrivals) -> bits, stating its
# arrival order and its acceptance rule against w masked by the active set:
# an inactive element weighs 0, and only positive weight is accepted.


def by_weight_arrivals(w: Sequence) -> list[int]:
    """The elements of positive weight, in decreasing weight with ties
    ascending: all that `greedy_by_weight` can accept, in its arrival order."""
    return [e for e in by_decreasing_weight(w, range(len(w))) if w[e] > 0]


def greedy_by_weight(M, w, a_bits, rng, arrivals=None) -> int:
    """Arrivals by decreasing weight (`arrivals`, if a caller sorted them
    once); take each active one that keeps the set independent, which
    selects a maximum-weight independent subset of a_bits. Draws nothing."""
    if arrivals is None:
        arrivals = by_weight_arrivals(w)
    return greedy_ordered_bits(M, arrivals, a_bits)


def classic_1uniform(M, w, a_bits, rng, arrivals=None) -> int:
    """Arrivals in uniformly random order: observe floor(n/e), then take each
    later one of positive masked weight at least the best seen, while it keeps
    the set independent: greedy over those, as the threshold is then fixed.
    Intended for 1-uniform instances; reads no `arrivals`."""
    if rng is None:  # exact enumeration passes no rng
        raise EnumerationTooLarge(
            "secretary 'classic_1uniform' is randomized; no exact enumeration"
        )
    order = shuffled(range(M.n), rng)
    observe = math.floor(M.n / math.e)
    best = max((w[e] for e in order[:observe] if a_bits >> e & 1), default=0)
    later = order[observe:]
    eligible = mask_of(e for e in later if w[e] > 0 and w[e] >= best)
    return greedy_ordered_bits(M, later, a_bits & eligible)


SECRETARY_KINDS = {
    "greedy_by_weight": greedy_by_weight,
    "classic_1uniform": classic_1uniform,
}


def secretary_wrap_bits(alg_kind, w, M, a_bits, rng, arrivals=None) -> int:
    """Replay secretary `alg_kind` against the weights w masked by the active
    set a_bits; a by-weight caller passes its sorted `arrivals`."""
    return SECRETARY_KINDS[alg_kind](M, w, a_bits, rng, arrivals)


class WeightMixture(_Mixture):
    """Sample a weight vector from the mixture, then replay the secretary
    algorithm with active-masked weights."""

    def __init__(self, secretary_kind: str, components: Sequence[tuple[Sequence, object]]):
        if secretary_kind not in SECRETARY_KINDS:
            raise ValueError(f"unknown secretary kind {secretary_kind!r}")
        super().__init__([(tuple(wv), wt) for wv, wt in components])
        self.secretary_kind = secretary_kind
        self.n = len(self.components[0][0])
        # Column i's `by_weight_arrivals` (read by greedy_by_weight only), sorted
        # on its first run or atom; not at construction, which ends every LP build.
        self._arrivals = [None] * len(self.components)

    def _select(self, M, i, a_bits, rng):
        wv, arrivals = self.components[i][0], self._arrivals[i]
        if arrivals is None:
            arrivals = self._arrivals[i] = by_weight_arrivals(wv)
        return secretary_wrap_bits(self.secretary_kind, wv, M, a_bits, rng, arrivals)

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


def scheme_from_spec(spec: dict) -> Scheme:
    """Inverse of `to_spec`. Each field is read by `spec_field`, so a missing
    or mistyped one raises ValueError naming it; numbers are read as
    `Fraction`, so a JSON float means its decimal digits."""
    kind = spec_field(spec, "kind")
    if kind == "ordered_greedy":
        return OrderedGreedy(spec_field(spec, "order", Permutation))
    if kind == "independent_subsampling":
        return IndependentSubsampling(
            spec_field(spec, "order", Permutation), spec_field(spec, "rho", Fraction)
        )
    if kind == "prefix_subsampling":
        return PrefixSubsampling(spec_field(spec, "order", Permutation))
    if kind == "permutation_mixture":
        return PermutationMixture(
            [(spec_field(c, "order", Permutation), spec_field(c, "weight", Fraction))
             for c in spec_field(spec, "components", list)]
        )
    if kind == "weight_mixture":
        return WeightMixture(
            spec_field(spec, "secretary"),
            [(spec_field(c, "w", [Fraction]), spec_field(c, "weight", Fraction))
             for c in spec_field(spec, "components", list)],
        )
    raise ValueError(f"unknown scheme kind {kind!r}")
