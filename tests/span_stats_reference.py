"""Test-only reference for preselection's Monte-Carlo span statistics:
per-trial counting loops that take the span from `_independent` queries
alone (`membership_span`).

Each loop counts per element of S how often it is active (m) and how often
it also escapes the span (k). The independent loop draws what the library's
sliced statistic draws, on the one rng: each batch's active words
(`Prior.trial_batches`), then the words of S thinned by rho. It then counts
trial by trial, so the library's `Matroid.unspanned_words` is checked on the
same batch words and the rng must end in the same state. The prefix loop
draws one active set and one order of S per draw, the order by
`Random.shuffle`, so the library's own Fisher-Yates is checked against the
stdlib, not against itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from ocrs.bitset import SubsetMask, iter_bits
from ocrs.matroid import Matroid
from ocrs.priors import Prior
from ocrs.sampling import t_rho_bits

from conftest import column, membership_span


@dataclass
class SpanStats:
    """Per-element counters: times active (m) and times active-and-unspanned (k)."""

    m: list[int]
    k: list[int]

    @classmethod
    def zeros(cls, n: int) -> "SpanStats":
        return cls([0] * n, [0] * n)


def reference_span_stats_independent(
    M: Matroid, P: Prior, S: SubsetMask, rho, m: int, rng: Random
) -> SpanStats:
    """Draw m active sets in batches and thin each batch's words of S by rho,
    then count per trial and per element of S how often it is active and how
    often it additionally escapes the span of the thinned set."""
    stats = SpanStats.zeros(M.n)
    s_bits = S.bits
    ms, ks = stats.m, stats.k
    for trials, words in P.trial_batches(m, rng):
        kept = [t_rho_bits(w, rho, rng) if s_bits >> e & 1 else 0 for e, w in enumerate(words)]
        for t in range(trials.bit_length()):
            sp = membership_span(M, column(kept, t))
            for j in iter_bits(column(words, t) & s_bits):
                ms[j] += 1
                if not (sp >> j) & 1:
                    ks[j] += 1
    return stats


def reference_span_stats_prefix(
    M: Matroid, P: Prior, S: SubsetMask, m: int, rng: Random
) -> SpanStats:
    """Joint samples (active set, uniform order of S); per element of S,
    count activations and escapes from the span of the active prefix."""
    stats = SpanStats.zeros(M.n)
    base = list(iter_bits(S.bits))
    ms, ks = stats.m, stats.k
    for _ in range(m):
        a = P.sample_bits(rng)
        taken = 0
        order = list(base)
        rng.shuffle(order)  # the stdlib's draw, which the library's own must equal
        for e in order:
            if (a >> e) & 1:
                ms[e] += 1
                if M._independent(taken | 1 << e):  # as `membership_span` grows its basis
                    taken |= 1 << e
                    ks[e] += 1
    return stats
