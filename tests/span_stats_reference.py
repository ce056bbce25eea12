"""Test-only reference for preselection's Monte-Carlo span statistics:
per-trial counting loops that take the span from `_independent` queries
alone (`membership_span`).

Each loop counts per element of S how often it is active (m) and how often
it also escapes the span (k). Each draws what the library's sliced
statistic draws, on the one rng: each batch's active words (`trial_words`
in batches of up to `priors.TRIAL_BATCH`, as `Prior.count` draws them),
then the words of S thinned by rho, or kept below
a sentinel (`prefix_subsample_words`). It then counts trial by trial, so
the library's `Matroid.unspanned_words` and
`Matroid.unspanned_by_rest_words` are checked on the same batch words and
the rng must end in the same state. The prefix loop probes each candidate
on the kept set less the candidate itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from ocrs import priors
from ocrs.bitset import SubsetMask, iter_bits
from ocrs.matroid import Matroid
from ocrs.priors import Prior
from ocrs.sampling import prefix_subsample_words, t_rho_bits

from conftest import column, membership_span


@dataclass
class SpanStats:
    """Per-element counters: times active (m) and times active-and-unspanned (k)."""

    m: list[int]
    k: list[int]

    @classmethod
    def zeros(cls, n: int) -> "SpanStats":
        return cls([0] * n, [0] * n)


def batches(P: Prior, m: int, rng: Random):
    """m draws of P as (size, words) batches of up to `priors.TRIAL_BATCH`,
    each drawn just before its caller draws on it."""
    for done in range(0, m, priors.TRIAL_BATCH):
        size = min(priors.TRIAL_BATCH, m - done)
        yield size, P.trial_words(size, rng)


def reference_span_stats_independent(
    M: Matroid, P: Prior, S: SubsetMask, rho, m: int, rng: Random
) -> SpanStats:
    """Draw m active sets in batches and thin each batch's words of S by rho,
    then count per trial and per element of S how often it is active and how
    often it additionally escapes the span of the thinned set."""
    stats = SpanStats.zeros(M.n)
    s_bits = S.bits
    ms, ks = stats.m, stats.k
    for size, words in batches(P, m, rng):
        kept = [t_rho_bits(w, rho, rng) if s_bits >> e & 1 else 0 for e, w in enumerate(words)]
        for t in range(size):
            sp = membership_span(M, column(kept, t))
            for j in iter_bits(column(words, t) & s_bits):
                ms[j] += 1
                if not (sp >> j) & 1:
                    ks[j] += 1
    return stats


def reference_span_stats_prefix(
    M: Matroid, P: Prior, S: SubsetMask, m: int, rng: Random
) -> SpanStats:
    """Draw m active sets in batches and keep each batch's words of S below a
    sentinel, then count per trial and per element j of S how often it is
    active and how often it additionally escapes the span of the kept set
    less j."""
    stats = SpanStats.zeros(M.n)
    s_bits = S.bits
    ms, ks = stats.m, stats.k
    for size, words in batches(P, m, rng):
        of_s = [w if s_bits >> e & 1 else 0 for e, w in enumerate(words)]
        kept = prefix_subsample_words(of_s, rng)
        for t in range(size):
            below = column(kept, t)
            for j in iter_bits(column(words, t) & s_bits):
                ms[j] += 1
                if not membership_span(M, below & ~(1 << j)) >> j & 1:
                    ks[j] += 1
    return stats
