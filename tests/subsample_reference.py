"""Test-only reference for the exact subsample laws: the whole-ground-set
enumerations that `ocrs.preselect` and `ocrs.oracle` ran before they
marginalised the subsample onto each support atom, and the per-atom
enumerator `law_outcomes` they ran before the span-state scan replaced it.

The preselection statistics enumerate every subset of S \\ {j}; the
balancedness reference enumerates all 2^n subsamples T of the ground set and
runs greedy on A ∩ T for every atom A. The library's span-state scan must
agree with both with tolerance 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ocrs.bitset import SubsetMask, iter_bits, popcount
from ocrs.matroid import Matroid
from ocrs.oracle import EnumerationTooLarge
from ocrs.priors import Prior, to_fraction
from ocrs.sampling import SubsampleLaw
from ocrs.schemes import IndependentSubsampling, PrefixSubsampling, Scheme, greedy_ordered_bits

from conftest import membership_span

INDEPENDENT_EXACT_LIMIT = 12  # max |A ∩ S| for 2^|A∩S| subsample enumeration
PREFIX_EXACT_LIMIT = 9  # max |S_i| for prefix enumeration
INDEPENDENT_ENUM_LIMIT = 14  # 2^n thinning outcomes
PREFIX_ENUM_LIMIT = 8  # (n+1)! sentinel permutations, enumerated by subset weight


def law_outcomes(law: SubsampleLaw, a_bits: int, avoid: int = 0):
    """Yield (B, Pr[T ∩ a = B]) for the subsets B of a that miss `avoid`,
    skipping outcomes of probability 0; refuses as `law.check` does."""
    r = popcount(a_bits)
    law.check(r)
    weights = law.weights(r)
    b = pool = a_bits & ~avoid
    while True:
        w = weights[popcount(b)]
        if w:
            yield b, w
        if not b:
            return
        b = (b - 1) & pool


def reference_unspanned_prob_independent(
    M: Matroid, P: Prior, S: SubsetMask, j: int, rho
) -> Fraction:
    """Exact Pr[j not spanned by the rho-thinned active part of S | j active].

    Enumerates the thinning outcomes per support atom; requires an explicit
    prior. Outcomes containing j itself contribute nothing (j spans itself),
    so only subsets of S \\ {j} are enumerated.
    """
    support = P.support()
    if support is None:
        raise EnumerationTooLarge("exact mode needs an explicit prior support")
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
            raise EnumerationTooLarge(
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
            sp = membership_span(M, b)
            if not (sp >> j) & 1:
                unspanned += weight
        num += p * (1 - rho) * unspanned
    if den == 0:
        return Fraction(0)
    return num / den


def reference_unspanned_prob_prefix(M: Matroid, P: Prior, S: SubsetMask, j: int) -> Fraction:
    """Exact Pr[j not spanned by the active part of a uniform-prefix of S | j active].

    The prefix of j under a uniform order of S is a uniformly sized, then
    uniformly chosen, subset of S \\ {j}; each specific subset of size s has
    probability s! (|S|-1-s)! / |S|!.
    """
    support = P.support()
    if support is None:
        raise EnumerationTooLarge("exact mode needs an explicit prior support")
    i = popcount(S.bits)
    if i > PREFIX_EXACT_LIMIT:
        raise EnumerationTooLarge(f"|S|={i} exceeds prefix enumeration limit {PREFIX_EXACT_LIMIT}")
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
            sp = membership_span(M, atom & pre)
            if not (sp >> j) & 1:
                unspanned += weights[popcount(pre)]
        num += p * unspanned
    if den == 0:
        return Fraction(0)
    return num / den


def _subsampling_randomness(M: Matroid, scheme: Scheme):
    """Yield (weight, deterministic selector) pairs covering a subsampling
    scheme's randomness exactly, over all 2^n subsamples of the ground set."""
    n = scheme.n
    if isinstance(scheme, IndependentSubsampling):
        if n > INDEPENDENT_ENUM_LIMIT:
            raise EnumerationTooLarge(f"2^{n} thinning outcomes exceed limit")
        rho = to_fraction(scheme.rho)
        order = scheme.order.order
        for t in range(1 << n):
            w = rho ** popcount(t) * (1 - rho) ** (n - popcount(t))
            if w > 0:
                yield w, lambda a, t=t: greedy_ordered_bits(M, order, a & t)
    elif isinstance(scheme, PrefixSubsampling):
        if n > PREFIX_ENUM_LIMIT:
            raise EnumerationTooLarge(f"({n}+1)! sentinel permutations exceed limit")
        order = scheme.order.order
        fact = [math.factorial(i) for i in range(n + 2)]
        for t in range(1 << n):
            s = popcount(t)
            w = Fraction(fact[s] * fact[n - s], fact[n + 1])
            yield w, lambda a, t=t: greedy_ordered_bits(M, order, a & t)
    else:
        raise TypeError(f"not a subsampling scheme: {type(scheme).__name__}")


def reference_exact_balancedness(M: Matroid, scheme: Scheme, P: Prior) -> list:
    """Per-element conditional selection probability, by joint enumeration
    of the support and the scheme randomness. None for never-active elements."""
    support = P.support()
    if support is None:
        raise EnumerationTooLarge("exact balancedness needs an explicit prior support")
    n = M.n
    probs = [Fraction(0)] * n
    selmass = [Fraction(0)] * n
    for w, selector in _subsampling_randomness(M, scheme):
        for atom, p in support:
            if p == 0:
                continue
            wp = w * p
            for e in iter_bits(selector(atom)):
                selmass[e] += wp
    for atom, p in support:
        for e in iter_bits(atom):
            probs[e] += p
    return [selmass[i] / probs[i] if probs[i] > 0 else None for i in range(n)]
