"""Exact draws, subsampling operators and their exact laws, permutations.

Every draw compares fair bits. Per-element draws compare bit planes
(`_below`): thinning with rho, the prefix subsample (the elements before a
uniformly placed sentinel) with the sentinel's own uniform; categorical
draws bisect an integer CDF, with one rejection width per draw. A
permutation is drawn by fair-bit Fisher-Yates (`shuffled`), stream-equal to
`Random.shuffle`: the same `getrandbits` calls, so a seeded order does not
depend on the stdlib. The prefix law's conditional insertion law,
Pr[next element lands in T | current intersection has size s] = (s+1)/(i+1),
is what the prefix-based scheme's guarantee rests on; the exact-enumeration
tests reproduce it with zero error.

Exact consumers do not enumerate subsamples. Greedy selects e exactly when
e is kept and stays outside the span of the kept active elements before it,
so every exact quantity is a sum over span states: `unspanned_counts` scans
an order once, counting keep/drop patterns by (span state, number kept), and
each law weighs a pattern by its size alone (`SubsampleLaw.weights`).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from random import Random
from typing import Iterable, Sequence

from .bitset import SubsetMask, full_mask


class EnumerationTooLarge(ValueError):
    """Exact enumeration was requested beyond the desk-scale limits."""


def to_fraction(x) -> Fraction:
    """Exact Fraction from int/Fraction/str; floats via their repr digits.
    Anything else, or a zero denominator, raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    try:
        return Fraction(x)
    except (TypeError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {x!r}") from None


@dataclass(frozen=True, slots=True, repr=False)
class Permutation:
    """A bijection on {0, ..., n-1}; order[p] is the element at position p.
    Any iterable of ints is accepted and stored as a tuple; anything else
    raises ValueError."""

    order: Sequence[int]

    def __post_init__(self):
        try:
            order = tuple(self.order)
        except TypeError:
            raise ValueError(f"an order must be an iterable of ints, got {self.order!r}") from None
        n = len(order)
        if any(type(e) is not int for e in order) or sorted(order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
        object.__setattr__(self, "order", order)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def n(self) -> int:
        return len(self.order)

    def __repr__(self) -> str:
        return f"Permutation({list(self.order)})"


def random_permutation(n: int, rng: Random) -> Permutation:
    return Permutation(shuffled(range(n), rng))


def shuffled(elements: Iterable[int], rng: Random) -> list[int]:
    """The elements in uniformly random order: Fisher-Yates (Knuth's
    Algorithm P). Positions i = len-1 down to 1 each swap with a j <= i,
    drawn from (i+1).bit_length() fair bits and redrawn while j > i. Those
    are the draws of `Random.shuffle` through `getrandbits`, call for call,
    without its per-index method call."""
    items = list(elements)
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        width = (i + 1).bit_length()
        j = getrandbits(width)
        while j > i:
            j = getrandbits(width)
        items[i], items[j] = items[j], items[i]
    return items


def _below(bits: int, num: int, den: int, rng: Random) -> int:
    """The elements e of `bits` with U_e < r, for iid uniform U_e (Knuth-Yao).
    Level i draws one word holding bit u_i of every undecided element; it is
    kept if u_i < r_i, r's binary digit, dropped if u_i > r_i, and undecided
    on a tie, until nothing is undecided or r's expansion ends. r is num/den,
    or, with num 1 and den 0, a sentinel's uniform U_s: one more fair bit per word."""
    kept = 0
    while bits and num:
        width = bits.bit_length()
        if den:
            u = rng.getrandbits(width)
            num <<= 1
            digit = num >= den
            if digit:
                num -= den
        else:
            u = rng.getrandbits(width + 1)
            digit = u >> width
        if digit:  # u_i = 0 keeps, u_i = 1 stays undecided
            kept |= bits & ~u
            bits &= u
        else:  # u_i = 1 drops, u_i = 0 stays undecided
            bits &= ~u
    return kept


def t_rho_bits(bits: int, rho, rng: Random) -> int:
    """Keep each element of `bits` independently with probability exactly rho
    (`_below` with rho's binary expansion: rho = 1/4 costs two words). rho is
    read by `to_fraction`, so a float means its decimal digits."""
    num, den = to_fraction(rho).as_integer_ratio()
    if not 0 <= num <= den:
        raise ValueError(f"keep probability {rho} outside [0,1]")
    return bits if num == den else _below(bits, num, den, rng)


def t_rho(S: SubsetMask, rho, rng: Random) -> SubsetMask:
    """Keep each element of S independently with probability rho."""
    return SubsetMask(S.n, t_rho_bits(S.bits, rho, rng))


def prefix_subsample_bits(n: int, rng: Random) -> int:
    """Correlated subsample of {0..n-1} with the law of the elements before a
    uniformly placed sentinel (`PrefixLaw`): T = {e : U_e < U_s} for iid
    uniform U on the elements and a sentinel s (`_below`)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _below(full_mask(n), 1, 0, rng)


def prefix_subsample(n: int, rng: Random) -> SubsetMask:
    return SubsetMask(n, prefix_subsample_bits(n, rng))


def exact_cdf(weights: Sequence[Fraction]) -> list[int]:
    """Running sums of `weights` as integers over their common denominator."""
    den = math.lcm(*(w.denominator for w in weights))
    return list(accumulate(w.numerator * (den // w.denominator) for w in weights))


def draw_index(cdf: list[int], rng: Random) -> int:
    """One exact draw from an `exact_cdf`: u uniform below the last sum, by
    rejection on fair bits, then the first index whose running sum exceeds u."""
    total = cdf[-1]
    width = (total - 1).bit_length()
    u = rng.getrandbits(width)
    while u >= total:
        u = rng.getrandbits(width)
    return bisect_right(cdf, u)


def unspanned_counts(M, elements: Sequence[int]) -> list[list[int]]:
    """For each e = elements[t], by s: how many of the 2^t keep/drop patterns
    over elements[:t] keep s elements and leave e outside the span of those
    kept. One forward scan: the patterns are grouped by their span state
    (`Matroid.span_step`), so the work grows with the number of states, not
    with 2^t. A state's counts by s are packed into one int, count s in bits
    s*width and up (no count exceeds 2^t < 2^width), so keeping an element
    is one shift and merging two states one addition."""
    width = len(elements) + 1
    states = {M.span_start(): 1}
    free_by_t = []
    for e in elements:
        free = 0
        after: dict = {}
        for state, counts in states.items():
            spanned, kept = M.span_step(state, e)
            if not spanned:
                free += counts
            after[state] = after.get(state, 0) + counts
            after[kept] = after.get(kept, 0) + (counts << width)
        free_by_t.append(free)
        states = after
    mask = (1 << width) - 1
    return [[free >> s * width & mask for s in range(t + 1)] for t, free in enumerate(free_by_t)]


class SubsampleLaw:
    """The exact law of T ∩ a, for a subsample T of the ground set and a set a.

    Both subsamplers keep their form under restriction: T ∩ a is the same
    law on a (for the prefix law, because the relative order of a and the
    sentinel is uniform), and Pr[T ∩ a = B] depends only on |a| and |B|:
    `weights(r)` lists it by |B| for |a| = r. So exact consumers weigh the
    keep/drop patterns of `unspanned_counts` over an active atom, not over
    the ground set; `limit` bounds |a|, the same for both laws.
    """

    limit = 13

    def check(self, r: int) -> None:
        """Raise `EnumerationTooLarge` when |a| = r exceeds `limit`."""
        if r > self.limit:
            raise EnumerationTooLarge(f"{type(self).__name__} on {r} elements; limit {self.limit}")


class IndependentLaw(SubsampleLaw):
    """Each element kept independently with probability rho (`t_rho_bits`)."""

    def __init__(self, rho):
        self.rho = to_fraction(rho)

    def weights(self, r: int) -> tuple[Fraction, ...]:
        return _independent_weights(self.rho, r)


class PrefixLaw(SubsampleLaw):
    """The elements before a uniformly placed sentinel (`prefix_subsample_bits`):
    |T ∩ a| is uniform on {0..r}, then T ∩ a is a uniform subset of that size."""

    def weights(self, r: int) -> tuple[Fraction, ...]:
        return _prefix_weights(r)


# Each law's weights are built once per (rho, r): the exact routes ask for
# them once per atom, candidate and arrival. The keys stay few: r is checked
# against `limit` first, and a run uses a handful of rho values.
@functools.cache
def _independent_weights(rho: Fraction, r: int) -> tuple[Fraction, ...]:
    return tuple(rho**s * (1 - rho) ** (r - s) for s in range(r + 1))


@functools.cache
def _prefix_weights(r: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, (r + 1) * math.comb(r, s)) for s in range(r + 1))
