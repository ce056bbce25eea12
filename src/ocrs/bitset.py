"""Fixed-width subsets of a ground set {0, ..., n-1}, stored as bitmasks.

SubsetMask is the currency passed across the public API. Hot loops inside
the package work on the raw ``bits`` integers and wrap results at the
boundary; Python ints make the width-64 cutoff irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def wide_bits(bits: int) -> list[int]:
    """The set bit positions of ``bits`` in ascending order, found in its
    binary digits: for a batch's trial words, thousands of bits wide, where
    each step of `iter_bits` is a big-int operation."""
    digits = bin(bits)[:1:-1]  # least significant first
    found, i = [], digits.find("1")
    while i >= 0:
        found.append(i)
        i = digits.find("1", i + 1)
    return found


def distinct_sets(words: Sequence[int], trials: int) -> dict[int, int]:
    """A batch of trials sliced into words (words[e] holds the trials whose
    set holds e) read back as its distinct sets, each with the trials of the
    mask `trials` that hold it; a trial in no word holds the empty set."""
    columns = dict.fromkeys(wide_bits(trials), 0)  # trial -> its set
    for e, word in enumerate(words):
        for t in wide_bits(word):
            columns[t] |= 1 << e
    by_set: dict[int, int] = {}
    for t, bits in columns.items():
        by_set[bits] = by_set.get(bits, 0) | 1 << t
    return by_set


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


popcount = int.bit_count  # popcount(bits): the number of set bits


class DimensionMismatch(ValueError):
    """Two objects over different ground-set sizes were combined."""


@dataclass(frozen=True, slots=True, repr=False)
class SubsetMask:
    """An immutable subset of {0, ..., n-1}."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground-set size must be >= 0, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits {self.bits:#x} not contained in ground set of size {self.n}")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "SubsetMask":
        return cls(n, mask_of(elements))

    @classmethod
    def full(cls, n: int) -> "SubsetMask":
        return cls(n, full_mask(n))

    @classmethod
    def empty(cls, n: int) -> "SubsetMask":
        return cls(n, 0)

    def cardinality(self) -> int:
        return popcount(self.bits)

    def elements(self) -> list[int]:
        return list(iter_bits(self.bits))

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.n and (self.bits >> e) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.cardinality()

    def __bool__(self) -> bool:
        return self.bits != 0

    def _check(self, other: "SubsetMask") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"ground sizes differ: {self.n} vs {other.n}")

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.n, self.bits & other.bits)

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.n, self.bits | other.bits)

    def __sub__(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.n, self.bits & ~other.bits)

    def __invert__(self) -> "SubsetMask":
        return SubsetMask(self.n, full_mask(self.n) & ~self.bits)

    def issubset(self, other: "SubsetMask") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def add(self, e: int) -> "SubsetMask":
        if not 0 <= e < self.n:
            raise ValueError(f"element {e} outside ground set of size {self.n}")
        return SubsetMask(self.n, self.bits | (1 << e))

    def remove(self, e: int) -> "SubsetMask":
        if e not in self:
            raise KeyError(e)
        return SubsetMask(self.n, self.bits & ~(1 << e))

    def __repr__(self) -> str:
        return f"SubsetMask({self.n}, {{{', '.join(map(str, self))}}})"
