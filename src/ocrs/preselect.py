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
supports, which marginalises the subsample onto each atom A: it enumerates
subsets of A ∩ S, not of S (`sampling.SubsampleLaw`), so its limits bound
the atom, not the ground set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .bitset import SubsetMask, full_mask, iter_bits
from .matroid import Matroid, greedy_ordered_bits
from .priors import Prior, to_fraction
from .sampling import (
    EnumerationTooLarge,
    IndependentLaw,
    Permutation,
    PrefixLaw,
    SubsampleLaw,
    shuffled,
    t_rho_bits,
)

ExactModeTooLarge = EnumerationTooLarge  # the name exact preselection has always raised


class NoQualifyingElement(RuntimeError):
    """No remaining element met the qualifying threshold at some step.

    Carries the partial order found so far (arrival positions step..n-1);
    callers that want the bail-out-to-empty-set behaviour can catch this
    and select nothing.
    """

    def __init__(self, step: int, suffix: list[int], detail: str = ""):
        self.step = step
        self.suffix = suffix
        if suffix:
            filled = f"positions {step}..{step + len(suffix) - 1} filled"
        else:
            filled = "no position filled yet"
        msg = f"no qualifying element at step {step} ({filled})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class PreselectConfig:
    alpha: Fraction
    eps: Fraction = Fraction(1, 4)
    mode: str = "monte_carlo"  # or "exact"
    sample_override: Optional[int] = None

    def __post_init__(self):
        if not 0 < float(self.alpha) <= 1:
            raise ValueError(f"alpha must lie in (0,1], got {self.alpha}")
        if not 0 < float(self.eps) <= 1:
            raise ValueError(f"eps must lie in (0,1], got {self.eps}")
        if self.mode not in ("monte_carlo", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")


def sample_size(n: int, alpha: float, eps: float, p_min: float) -> int:
    """Samples per preselection step: ceil(128 ln(4n/eps) / (alpha^2 eps^2 p_min))."""
    return math.ceil(128 * math.log(4 * n / eps) / (alpha**2 * eps**2 * float(p_min)))


def count_span_stats_independent(
    M: Matroid, P: Prior, S: SubsetMask, rho, m: int, rng: Random
) -> tuple[list[int], list[int]]:
    """`Prior.count` over m draws, each thinned by rho (read by `to_fraction`):
    per element, how often it is active, and how often it is active in S and
    escapes the span of the thinned active part of S."""
    s_bits = S.bits
    rho = to_fraction(rho)

    def unspanned(a: int, r: Random) -> int:
        b = t_rho_bits(a, rho, r) & s_bits
        return a & s_bits & ~M._span_of_independent(M._basis_bits(b))

    return P.count(m, rng, unspanned)


def count_span_stats_prefix(
    M: Matroid, P: Prior, S: SubsetMask, m: int, rng: Random
) -> tuple[list[int], list[int]]:
    """`Prior.count` over joint draws (active set, uniform order of S): per
    element, how often it is active, and how often it is active in S and
    escapes the span of the active elements of S before it."""
    s_bits = S.bits
    base = list(iter_bits(s_bits))

    def unspanned(a: int, r: Random) -> int:
        order = shuffled(base, r)  # drawn even when a misses S, to keep the stream
        if not a & s_bits:
            return 0
        return greedy_ordered_bits(M, order, a)

    return P.count(m, rng, unspanned)


def _exact_unspanned_prob(M: Matroid, P: Prior, j: int, law: SubsampleLaw, drawn_on: int):
    """Exact Pr[j not spanned by T ∩ A | j active], T drawn by `law` on A ∩ drawn_on,
    by `Prior.exact_count` over the support atoms A that hold j. Outcomes that
    contain j contribute nothing (j spans itself), so they are not enumerated."""
    jbit = 1 << j

    def unspanned(atom: int):
        if atom & jbit:
            for b, w in law.outcomes(atom & drawn_on, avoid=jbit):
                if not (M._span_of_independent(M._basis_bits(b)) >> j) & 1:
                    yield w, jbit

    num = P.exact_count(unspanned)[j]
    den = P.activation_probabilities()[j]
    return num / den if den else Fraction(0)


def exact_unspanned_prob_independent(M: Matroid, P: Prior, S: SubsetMask, j: int, rho) -> Fraction:
    """Exact Pr[j not spanned by the rho-thinned active part of S | j active],
    for an explicit prior. The law is drawn on A ∩ S, j included, so each
    outcome carries the factor 1 - rho of j being thinned away."""
    return _exact_unspanned_prob(M, P, j, IndependentLaw(rho), S.bits)


def exact_unspanned_prob_prefix(M: Matroid, P: Prior, S: SubsetMask, j: int) -> Fraction:
    """Exact Pr[j not spanned by the active part of a uniform-prefix of S | j active],
    for an explicit prior. The prefix of j under a uniform order of S is the
    prefix law on S \\ {j}, with j as the sentinel."""
    return _exact_unspanned_prob(M, P, j, PrefixLaw(), S.bits & ~(1 << j))


def _preselect(M, P, cfg, rng, prefix_mode: bool) -> Permutation:
    n = M.n
    if cfg.mode == "monte_carlo":
        m = cfg.sample_override or sample_size(
            n, float(cfg.alpha), float(cfg.eps), float(P.p_min(rng=rng))
        )
        slack = 1 - float(cfg.eps) / 4
        rate = slack * (float(cfg.alpha) if prefix_mode else float(cfg.alpha) / 2)
        rho = to_fraction(cfg.alpha) / 2
        if prefix_mode:
            stats_of = lambda S: count_span_stats_prefix(M, P, S, m, rng)
        else:
            stats_of = lambda S: count_span_stats_independent(M, P, S, rho, m, rng)

        def qualifying(S: SubsetMask):
            act, unspanned = stats_of(S)
            # never-sampled elements cannot qualify; conservative choice
            return (j for j in iter_bits(S.bits) if act[j] and unspanned[j] >= rate * act[j])

    else:
        probs = P.activation_probabilities()
        if probs is None:
            raise EnumerationTooLarge("exact mode needs an explicit prior support")
        alpha = to_fraction(cfg.alpha)
        threshold = alpha if prefix_mode else alpha / 2
        if prefix_mode:
            stat = lambda S, j: exact_unspanned_prob_prefix(M, P, S, j)
        else:
            stat = lambda S, j: exact_unspanned_prob_independent(M, P, S, j, threshold)

        def qualifying(S: SubsetMask):
            return (j for j in iter_bits(S.bits) if probs[j] and stat(S, j) >= threshold)

    order = [0] * n
    remaining = full_mask(n)
    for i in range(n, 0, -1):
        chosen = next(qualifying(SubsetMask(n, remaining)), -1)
        if chosen < 0:
            raise NoQualifyingElement(i, order[i:])
        order[i - 1] = chosen
        remaining &= ~(1 << chosen)
    return Permutation(order)


def preselect_independent(M: Matroid, P: Prior, cfg: PreselectConfig, rng: Random) -> Permutation:
    """Preselect an arrival order using the independent-thinning statistic."""
    return _preselect(M, P, cfg, rng, prefix_mode=False)


def preselect_prefix(M: Matroid, P: Prior, cfg: PreselectConfig, rng: Random) -> Permutation:
    """Preselect an arrival order using the random-prefix statistic."""
    return _preselect(M, P, cfg, rng, prefix_mode=True)
