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
(1 - eps/4) relaxation of the threshold) and an exact flavour (full
enumeration over explicit supports, feasible at desk scale only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .bitset import SubsetMask, full_mask, iter_bits, popcount
from .matroid import Matroid
from .priors import Prior, to_fraction
from .sampling import Permutation, shuffled, t_rho_bits

INDEPENDENT_EXACT_LIMIT = 12  # max |A ∩ S| for 2^|A∩S| subsample enumeration
PREFIX_EXACT_LIMIT = 9  # max |S_i| for prefix enumeration


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


class ExactModeTooLarge(ValueError):
    """Exact enumeration was requested beyond the desk-scale limits."""


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


def exact_unspanned_prob_independent(
    M: Matroid, P: Prior, S: SubsetMask, j: int, rho
) -> Fraction:
    """Exact Pr[j not spanned by the rho-thinned active part of S | j active].

    Enumerates the thinning outcomes per support atom; requires an explicit
    prior. Outcomes containing j itself contribute nothing (j spans itself),
    so only subsets of S \\ {j} are enumerated.
    """
    support = P.support()
    if support is None:
        raise ExactModeTooLarge("exact mode needs an explicit prior support")
    rho = to_fraction(rho)
    jbit = 1 << j
    num = Fraction(0)
    den = Fraction(0)
    for atom, p in support:
        if not atom & jbit or p == 0:
            continue
        den += p
        pool = atom & S.bits & ~jbit
        size = popcount(pool)
        if size > INDEPENDENT_EXACT_LIMIT:
            raise ExactModeTooLarge(
                f"atom restricted to S has {size} elements; limit {INDEPENDENT_EXACT_LIMIT}"
            )
        elems = list(iter_bits(pool))
        unspanned = Fraction(0)
        for sub in range(1 << size):
            b = 0
            for idx in range(size):
                if (sub >> idx) & 1:
                    b |= 1 << elems[idx]
            weight = rho ** popcount(b) * (1 - rho) ** (size - popcount(b))
            sp = M._span_of_independent(M._basis_bits(b))
            if not (sp >> j) & 1:
                unspanned += weight
        num += p * (1 - rho) * unspanned
    if den == 0:
        return Fraction(0)
    return num / den


def exact_unspanned_prob_prefix(M: Matroid, P: Prior, S: SubsetMask, j: int) -> Fraction:
    """Exact Pr[j not spanned by the active part of a uniform-prefix of S | j active].

    The prefix of j under a uniform order of S is a uniformly sized, then
    uniformly chosen, subset of S \\ {j}; each specific subset of size s has
    probability s! (|S|-1-s)! / |S|!.
    """
    support = P.support()
    if support is None:
        raise ExactModeTooLarge("exact mode needs an explicit prior support")
    i = popcount(S.bits)
    if i > PREFIX_EXACT_LIMIT:
        raise ExactModeTooLarge(f"|S|={i} exceeds prefix enumeration limit {PREFIX_EXACT_LIMIT}")
    jbit = 1 << j
    pool = list(iter_bits(S.bits & ~jbit))
    fact = [math.factorial(x) for x in range(i + 1)]
    weights = [Fraction(fact[s] * fact[i - 1 - s], fact[i]) for s in range(i)]
    num = Fraction(0)
    den = Fraction(0)
    for atom, p in support:
        if not atom & jbit or p == 0:
            continue
        den += p
        unspanned = Fraction(0)
        for sub in range(1 << len(pool)):
            pre = 0
            for idx in range(len(pool)):
                if (sub >> idx) & 1:
                    pre |= 1 << pool[idx]
            sp = M._span_of_independent(M._basis_bits(atom & pre))
            if not (sp >> j) & 1:
                unspanned += weights[popcount(pre)]
        num += p * unspanned
    if den == 0:
        return Fraction(0)
    return num / den


def _preselect(M, P, cfg, rng, prefix_mode: bool) -> Permutation:
    n = M.n
    order = [0] * n
    remaining = full_mask(n)
    alpha = to_fraction(cfg.alpha)
    if cfg.mode == "monte_carlo":
        m = cfg.sample_override or sample_size(
            n, float(cfg.alpha), float(cfg.eps), float(P.p_min(rng=rng))
        )
        slack = 1 - float(cfg.eps) / 4
        threshold_rate = slack * (float(cfg.alpha) if prefix_mode else float(cfg.alpha) / 2)
    for i in range(n, 0, -1):
        S = SubsetMask(n, remaining)
        chosen = -1
        if cfg.mode == "monte_carlo":
            if prefix_mode:
                stats = count_span_stats_prefix(M, P, S, m, rng)
            else:
                stats = count_span_stats_independent(M, P, S, float(cfg.alpha) / 2, m, rng)
            for j in iter_bits(remaining):
                # never-sampled elements cannot qualify; conservative choice
                if stats.m[j] > 0 and stats.k[j] >= threshold_rate * stats.m[j]:
                    chosen = j
                    break
        else:
            probs = P.activation_probabilities()
            if probs is None:
                raise ExactModeTooLarge("exact mode needs an explicit prior support")
            for j in iter_bits(remaining):
                if probs[j] == 0:
                    continue
                if prefix_mode:
                    q = exact_unspanned_prob_prefix(M, P, S, j)
                    if q >= alpha:
                        chosen = j
                        break
                else:
                    q = exact_unspanned_prob_independent(M, P, S, j, alpha / 2)
                    if q >= alpha / 2:
                        chosen = j
                        break
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
