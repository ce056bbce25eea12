"""Test-only reference for `ocrs.priors.Prior.count`: the per-draw counting
loop it ran before it counted sliced batches.

Each draw samples an active set a (`sample_bits`) and then, when `select`
is given, selects `select(a, rng)` from it, in that order on the one rng.
The counts are bit-sliced: levels[i] holds bit i of every count, the
selections n bits above the activations, and each draw adds its mask
through a carry chain. The library's batch loop must give the same counts
where the two draw the same stream, and counts of the same law elsewhere.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Optional

from ocrs.bitset import iter_bits
from ocrs.priors import Prior


def reference_count(
    P: Prior, m: int, rng: Random, select: Optional[Callable[[int, Random], int]] = None
) -> tuple[list[int], list[int]]:
    """Per-element activation and selection counts over m draws, one draw
    at a time."""
    n = P.n
    levels = [0] * m.bit_length()  # no count exceeds m
    for _ in range(m):
        a = P.sample_bits(rng)
        carry = a if select is None else a | select(a, rng) << n
        i = 0
        while carry:
            level = levels[i]
            levels[i] = level ^ carry
            carry &= level
            i += 1
    counts = [0] * (2 * n)
    for i, level in enumerate(levels):
        for e in iter_bits(level):
            counts[e] += 1 << i
    return counts[:n], counts[n:]
