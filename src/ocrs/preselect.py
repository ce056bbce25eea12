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
from .matroid import Matroid
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


@dataclass
class SpanStats:
    """Per-element counters: times active (m) and times active-and-unspanned (k)."""

    m: list[int]
    k: list[int]

    @classmethod
    def zeros(cls, n: int) -> "SpanStats":
        return cls([0] * n, [0] * n)


def sample_size(n: int, alpha: float, eps: float, p_min: float) -> int:
    """Samples per preselection step: ceil(128 ln(4n/eps) / (alpha^2 eps^2 p_min))."""
    return math.ceil(128 * math.log(4 * n / eps) / (alpha**2 * eps**2 * float(p_min)))


def count_span_stats_independent(
    M: Matroid, P: Prior, S: SubsetMask, rho: float, m: int, rng: Random
) -> SpanStats:
    """Draw m active sets, thin each by rho, and count per element of S how
    often it is active and how often it additionally escapes the span of the
    thinned set (restricted to S)."""
    stats = SpanStats.zeros(M.n)
    s_bits = S.bits
    rho = float(rho)
    ms, ks = stats.m, stats.k
    for _ in range(m):
        a = P.sample_bits(rng)
        b = t_rho_bits(a, rho, rng) & s_bits
        sp = M._span_of_independent(M._basis_bits(b))
        act = a & s_bits
        for j in iter_bits(act):
            ms[j] += 1
            if not (sp >> j) & 1:
                ks[j] += 1
    return stats


def count_span_stats_prefix(
    M: Matroid, P: Prior, S: SubsetMask, m: int, rng: Random
) -> SpanStats:
    """Joint samples (active set, uniform order of S); per element of S,
    count activations and escapes from the span of the active prefix."""
    stats = SpanStats.zeros(M.n)
    base = list(iter_bits(S.bits))
    ms, ks = stats.m, stats.k
    for _ in range(m):
        a = P.sample_bits(rng)
        g = M.grower()
        for e in shuffled(base, rng):
            if (a >> e) & 1:
                ms[e] += 1
                if g.try_add(e):
                    ks[e] += 1
    return stats


def _exact_unspanned_prob(M: Matroid, P: Prior, j: int, law: SubsampleLaw, drawn_on: int):
    """Exact Pr[j not spanned by T ∩ A | j active], T drawn by `law` on A ∩ drawn_on,
    for each support atom A that holds j. Outcomes that contain j contribute
    nothing (j spans itself), so they are not enumerated."""
    support = P.support()
    if support is None:
        raise EnumerationTooLarge("exact mode needs an explicit prior support")
    jbit = 1 << j
    num = den = Fraction(0)
    for atom, p in support:
        if not atom & jbit or p == 0:
            continue
        den += p
        unspanned = Fraction(0)
        for b, w in law.outcomes(atom & drawn_on, avoid=jbit):
            if not (M._span_of_independent(M._basis_bits(b)) >> j) & 1:
                unspanned += w
        num += p * unspanned
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
        rho = float(cfg.alpha) / 2
        if prefix_mode:
            stats_of = lambda S: count_span_stats_prefix(M, P, S, m, rng)
        else:
            stats_of = lambda S: count_span_stats_independent(M, P, S, rho, m, rng)

        def qualifying(S: SubsetMask):
            stats = stats_of(S)
            # never-sampled elements cannot qualify; conservative choice
            return (j for j in iter_bits(S.bits) if stats.m[j] and stats.k[j] >= rate * stats.m[j])

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
