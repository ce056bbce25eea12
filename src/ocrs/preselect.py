"""Order preselection: the reverse-greedy loop that fixes the arrival order.

Working from the last arrival position down to the first, each step looks
for an element of the remaining set that has a decent chance of not being
spanned by a subsampled active set, then removes it. Two qualifying
statistics are supported:

* independent mode -- the subsample keeps each active element with
  probability alpha/2; qualifying threshold alpha/2.
* prefix mode -- the subsample is the active part of a uniformly random
  prefix of the remaining elements; qualifying threshold alpha.

Each comes in a Monte-Carlo flavour (counters over m joint samples, with a
(1 - eps/4) relaxation of the threshold) and an exact flavour over explicit
supports. Both counters run through `Prior.count`: per batch of draws, the
words of S are subsampled once and one matroid kernel answers every
candidate in every trial. The independent
counters thin each word by rho and ask `Matroid.unspanned_words`. The
prefix counters keep the elements below one sentinel per trial,
T = {e : U_e < U_s}, and ask `Matroid.unspanned_by_rest_words`, which
probes each candidate j on T \\ {j}: given U_s that is the U_s-thinning of
S \\ {j}, whose size is uniform on 0..|S| - 1 and which, given its size, is
a uniform subset, so it has the law of j's prefix in a uniform order of S
and one draw serves every candidate. The exact flavour marginalises the
subsample onto each atom A: one span-state scan over A ∩ S
(`sampling.unspanned_counts`) counts the keep/drop patterns that leave the
candidate unspanned, by how many they keep, and the law weighs them by
that number alone. A scan past `sampling.SCAN_BUDGET` refuses
before any draw; `priors.exact_or_sampled` picks the flavour, and falls back.
In both flavours, elements the prior knows never active take the leftover
front positions once only they remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .bitset import SubsetMask, full_mask, iter_bits, popcount
from .matroid import Matroid
from .priors import MODES, Prior, exact_or_sampled, to_fraction
from .sampling import (
    IndependentLaw,
    Permutation,
    PrefixLaw,
    SubsampleLaw,
    prefix_subsample_words,
    t_rho_bits,
    unspanned_counts,
)
from .sampling import shuffled  # noqa: F401 - unused; bench/tracer.py patches this name


class NoQualifyingElement(RuntimeError):
    """No remaining element met the qualifying threshold at some step.

    Carries the partial order found so far (arrival positions step..n-1);
    callers that want the bail-out-to-empty-set behaviour can catch this
    and select nothing.
    """

    def __init__(self, step: int, suffix: list[int]):
        self.step = step
        self.suffix = suffix
        if suffix:
            filled = f"positions {step}..{step + len(suffix) - 1} filled"
        else:
            filled = "no position filled yet"
        super().__init__(f"no qualifying element at step {step} ({filled})")


@dataclass(frozen=True)
class PreselectConfig:
    """alpha and eps are read by `to_fraction` and checked exactly; `mode`,
    "mc" (the default), "exact" or "auto", is read by `priors.exact_or_sampled`."""

    alpha: Fraction
    eps: Fraction = Fraction(1, 4)
    mode: str = "mc"
    sample_override: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", to_fraction(self.alpha))
        object.__setattr__(self, "eps", to_fraction(self.eps))
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0,1], got {self.alpha}")
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must lie in (0,1], got {self.eps}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        m = self.sample_override
        if m is not None and (not isinstance(m, int) or m < 1):
            raise ValueError(f"sample_override must be None or an int >= 1, got {m!r}")


def sample_size(n: int, alpha: float, eps: float, p_min: float) -> int:
    """Samples per preselection step: ceil(128 ln(4n/eps) / (alpha^2 eps^2 p_min))."""
    return math.ceil(128 * math.log(4 * n / eps) / (alpha**2 * eps**2 * float(p_min)))


def _free_in(S: SubsetMask, draw, free_of):
    """The selector of `Prior.count` for a span statistic: per element, the
    trials where it is active in S and free in the batch's
    `free_of(kept, S.bits, trials)`, where `kept = draw(words)` subsamples
    the batch's words of S (0 outside S)."""
    s_bits = S.bits

    def select(words, trials):
        kept = draw([w if s_bits >> e & 1 else 0 for e, w in enumerate(words)])
        return [a & f for a, f in zip(words, free_of(kept, s_bits, trials))]

    return select


def count_span_stats_independent(
    M: Matroid, P: Prior, S: SubsetMask, rho, m: int, rng: Random
) -> tuple[list[int], list[int]]:
    """Over m draws of P, thinned by rho (read by `to_fraction`): per element,
    how often it is active, and how often it is active in S and escapes the
    span of the thinned active part of S. Each batch of draws thins the
    words of S once (`t_rho_bits`) and asks one `Matroid.unspanned_words`."""
    rho = to_fraction(rho)
    thin = lambda words: [t_rho_bits(w, rho, rng) if w else 0 for w in words]
    return P.count(m, rng, _free_in(S, thin, M.unspanned_words))


def count_span_stats_prefix(
    M: Matroid, P: Prior, S: SubsetMask, m: int, rng: Random
) -> tuple[list[int], list[int]]:
    """Over m draws of P: per element, how often it is active, and how often
    it is active in S and escapes the span of the active elements of S
    before it in a uniform order of S. Each batch of draws keeps the active
    words of S below one sentinel per trial, T = {e : U_e < U_s}
    (`prefix_subsample_words`), and asks one
    `Matroid.unspanned_by_rest_words`, which probes each candidate j on
    T \\ {j}. That is j's prefix law, with no conditioning on where j falls:
    given U_s, T \\ {j} is the active part of the U_s-thinning of S \\ {j},
    and over U_s that thinning has a size uniform on 0..|S| - 1 and, given
    its size, is a uniform subset, as the elements before j in a uniform
    order of S are. So one draw serves every candidate."""
    draw = lambda words: prefix_subsample_words(words, rng)
    return P.count(m, rng, _free_in(S, draw, M.unspanned_by_rest_words))


def _exact_unspanned_prob(M: Matroid, P: Prior, j: int, law: SubsampleLaw, drawn_on: int):
    """Exact Pr[j not spanned by T ∩ A | j active], T drawn by `law` on A ∩ drawn_on,
    by `Prior.exact_count` over the support atoms A that hold j. Patterns
    that keep j contribute nothing (j spans itself), so the scan runs over
    A ∩ drawn_on less j and probes its final states with j."""
    jbit = 1 << j

    def unspanned(atom: int):
        if atom & jbit:
            pool = atom & drawn_on
            free = unspanned_counts(M, [*iter_bits(pool & ~jbit), j])[-1]
            prob = law.prob(free, popcount(pool))
            if prob:
                yield prob, jbit

    num = P.exact_count(unspanned)[j]
    den = P.activation_probabilities()[j]
    return num / den if den else Fraction(0)


def exact_unspanned_prob_independent(M: Matroid, P: Prior, S: SubsetMask, j: int, rho) -> Fraction:
    """Exact Pr[j not spanned by the rho-thinned active part of S | j active],
    for an explicit prior. The law is drawn on A ∩ S, j included, so each
    pattern's weight carries the factor 1 - rho of j being thinned away."""
    return _exact_unspanned_prob(M, P, j, IndependentLaw(rho), S.bits)


def exact_unspanned_prob_prefix(M: Matroid, P: Prior, S: SubsetMask, j: int) -> Fraction:
    """Exact Pr[j not spanned by the active part of a uniform-prefix of S | j active],
    for an explicit prior. The prefix of j under a uniform order of S is the
    prefix law on S \\ {j}, with j as the sentinel."""
    return _exact_unspanned_prob(M, P, j, PrefixLaw(), S.bits & ~(1 << j))


def _preselect(M, P, cfg, rng, prefix_mode: bool) -> Permutation:
    n = M.n
    threshold = cfg.alpha if prefix_mode else cfg.alpha / 2
    # A known never-active element is never in T ∩ A, so it changes no other
    # element's statistic: once only such elements remain, they take the
    # leftover front positions in ascending order.
    never = P.never_active_bits

    def fill(qualifying) -> Permutation:
        order = [0] * n
        remaining = full_mask(n)
        for i in range(n, 0, -1):
            if not remaining & ~never:
                order[:i] = iter_bits(remaining)
                break
            chosen = next(qualifying(SubsetMask(n, remaining)), -1)
            if chosen < 0:
                raise NoQualifyingElement(i, order[i:])
            order[i - 1] = chosen
            remaining &= ~(1 << chosen)
        return Permutation(order)

    def exact():
        if prefix_mode:
            stat = lambda S, j: exact_unspanned_prob_prefix(M, P, S, j)
        else:
            stat = lambda S, j: exact_unspanned_prob_independent(M, P, S, j, threshold)
        return fill(lambda S: (j for j in iter_bits(S.bits & ~never) if stat(S, j) >= threshold))

    def sampled():
        m = cfg.sample_override or sample_size(
            n, float(cfg.alpha), float(cfg.eps), float(P.p_min(rng=rng))
        )
        # the relaxed bar (1 - eps/4) * threshold, compared exactly in integers
        num, den = ((1 - cfg.eps / 4) * threshold).as_integer_ratio()
        if prefix_mode:
            stats_of = lambda S: count_span_stats_prefix(M, P, S, m, rng)
        else:
            stats_of = lambda S: count_span_stats_independent(M, P, S, threshold, m, rng)

        def qualifying(S: SubsetMask):
            act, unspanned = stats_of(S)
            # never-sampled elements cannot qualify; conservative choice
            return (j for j in iter_bits(S.bits) if act[j] and unspanned[j] * den >= num * act[j])

        return fill(qualifying)

    return exact_or_sampled(P, cfg.mode, exact, sampled)


def preselect_independent(M: Matroid, P: Prior, cfg: PreselectConfig, rng: Random) -> Permutation:
    """Preselect an arrival order using the independent-thinning statistic."""
    return _preselect(M, P, cfg, rng, prefix_mode=False)


def preselect_prefix(M: Matroid, P: Prior, cfg: PreselectConfig, rng: Random) -> Permutation:
    """Preselect an arrival order using the random-prefix statistic."""
    return _preselect(M, P, cfg, rng, prefix_mode=True)
