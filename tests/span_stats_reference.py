"""Test-only reference for preselection's Monte-Carlo span statistics: the two
counting loops `ocrs.preselect` ran before both became selectors on
`Prior.count`.

Each loop draws the active set and then thins or shuffles, on the one rng,
and counts per element of S how often it is active (m) and how often it also
escapes the span (k). The library's wrappers must give the same counts on
S and leave the rng in the same state, so seeded preselection orders are
unchanged. The prefix loop orders S with `Random.shuffle`, so the library's
own Fisher-Yates is checked against the stdlib, not against itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from ocrs.bitset import SubsetMask, iter_bits
from ocrs.matroid import Matroid
from ocrs.priors import Prior
from ocrs.sampling import t_rho_bits

from conftest import membership_span


@dataclass
class SpanStats:
    """Per-element counters: times active (m) and times active-and-unspanned (k)."""

    m: list[int]
    k: list[int]

    @classmethod
    def zeros(cls, n: int) -> "SpanStats":
        return cls([0] * n, [0] * n)


def reference_span_stats_independent(
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
        sp = membership_span(M, b)
        act = a & s_bits
        for j in iter_bits(act):
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
