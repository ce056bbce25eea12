"""Test-only reference for `ocrs.oracle.exact_balancedness`: the `isinstance`
ladder that enumerated each scheme kind's randomness inside the oracle,
before every scheme stated its own exact twin, `Scheme.outcomes`.

The ladder reads the schemes' fields (`order`, `components`, `law`,
`secretary_kind`) from outside, so it checks each scheme's `outcomes`
against an independent statement of the same randomness: for a subsampling
scheme, greedy on every subset of the atom, weighted by its law's definition
(`subsample_reference.law_outcomes`). Values must agree with tolerance 0.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from ocrs.bitset import iter_bits
from ocrs.matroid import Matroid, greedy_ordered_bits
from ocrs.priors import Prior
from ocrs.sampling import EnumerationTooLarge
from ocrs.schemes import (
    IndependentSubsampling,
    OrderedGreedy,
    PermutationMixture,
    PrefixSubsampling,
    Scheme,
    WeightMixture,
    secretary_wrap_bits,
)

from subsample_reference import law_outcomes

# The secretaries that draw no randomness of their own.
DETERMINISTIC_SECRETARIES = {"greedy_by_weight"}


def ladder_outcomes(M: Matroid, scheme: Scheme, atom: int):
    """Yield (weight, selected bits) pairs covering the scheme's internal
    randomness exactly, on the active set `atom`: its joint law."""
    if isinstance(scheme, OrderedGreedy):
        yield Fraction(1), greedy_ordered_bits(M, scheme.order.order, atom)
    elif isinstance(scheme, PermutationMixture):
        for pi, wt in scheme.components:
            yield wt, greedy_ordered_bits(M, pi.order, atom)
    elif isinstance(scheme, (IndependentSubsampling, PrefixSubsampling)):
        order = scheme.order.order
        for b, w in law_outcomes(scheme.law, atom):
            yield w, greedy_ordered_bits(M, order, b)
    elif isinstance(scheme, WeightMixture):
        if scheme.secretary_kind not in DETERMINISTIC_SECRETARIES:
            raise EnumerationTooLarge(
                f"secretary {scheme.secretary_kind!r} is randomized; no exact enumeration"
            )
        dummy = Random(0)
        for wv, wt in scheme.components:
            yield wt, secretary_wrap_bits(scheme.secretary_kind, wv, M, atom, dummy)
    else:
        raise TypeError(f"cannot enumerate scheme {type(scheme).__name__}")


def reference_exact_balancedness(M: Matroid, scheme: Scheme, P: Prior) -> list:
    """Per-element conditional selection probability, by a plain nested loop
    over the support and, per atom, the scheme randomness through the ladder
    above. It shares no counting code with the library (`Prior.exact_count`)."""
    support = P.support()
    if support is None:
        raise EnumerationTooLarge("exact balancedness needs an explicit prior support")
    probs = [Fraction(0)] * M.n
    selected = [Fraction(0)] * M.n
    for atom, p in support:
        if p == 0:
            continue
        for e in iter_bits(atom):
            probs[e] += p
        for w, bits in ladder_outcomes(M, scheme, atom):
            for e in iter_bits(bits):
                selected[e] += p * w
    return [s / x if x > 0 else None for s, x in zip(selected, probs)]
