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


def sliced(sets: Sequence[int], n: int) -> list[int]:
    """Trial t's set sets[t], over elements 0..n-1, sliced into words:
    word e has bit t set when sets[t] holds e. One binary digit string
    holds every set, last trial first, so each word is one strided slice
    of it, read most significant first: no big-int operation per bit."""
    if not sets:
        return [0] * n
    spec = f"0{n}b"
    digits = "".join([format(bits, spec) for bits in reversed(sets)])
    return [int(digits[n - 1 - e :: n], 2) for e in range(n)]


def unsliced(words: Sequence[int], trials: int) -> list[int]:
    """The inverse of `sliced`: the sets of trials 0..trials-1, trial t's
    set holding each e whose words[e] has bit t set. Each word's binary
    digits, least significant first, are written with stride n into one
    buffer, so trial t's set is its n digits from t*n, highest element first."""
    n = len(words)
    if not n or not trials:
        return [0] * trials
    digits = bytearray(trials * n)
    for e, word in enumerate(words):
        digits[n - 1 - e :: n] = format(word, f"0{trials}b").encode()[::-1]
    return [int(digits[i : i + n], 2) for i in range(0, len(digits), n)]


def map_sets(fn, words: Sequence[int], trials: int) -> list[int]:
    """`fn` applied to the set of each of trials 0..trials-1 of a batch
    sliced into words (`unsliced`), and the images sliced back (`sliced`):
    one call per distinct set."""
    sets = unsliced(words, trials)
    image = {bits: fn(bits) for bits in set(sets)}
    return sliced([image[bits] for bits in sets], len(words))


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
