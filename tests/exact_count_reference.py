"""Test-only reference for `ocrs.priors.Prior.exact_count`: the counting loop
it ran before it grouped outcomes by weight class.

Every outcome (w, bits) of every atom of probability p > 0 adds the
`Fraction` p*w to each element of bits, one addition per element per
outcome. The library's counter must give the same totals with tolerance 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from ocrs.bitset import iter_bits
from ocrs.priors import Prior


def reference_exact_count(
    P: Prior, outcomes: Callable[[int], Iterable[tuple[object, int]]]
) -> list[Fraction]:
    """Per-element mass over P's explicit support, one outcome at a time."""
    totals = [Fraction(0)] * P.n
    for a, p in P.support():
        if p:
            for w, bits in outcomes(a):
                for e in iter_bits(bits):
                    totals[e] += p * w
    return totals
