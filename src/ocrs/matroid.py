"""Matroid membership oracles with derived rank / span / basis / restriction.

Every matroid here answers independence queries over a ground set
{0, ..., n-1}. `span_start` and `span_step` are each family's one statement
of incremental span: they walk a set's span one element at a time, as a
small state. By default the state is the basis of the set grown along the
walk (one `_independent` query per step); a uniform matroid keeps the size
capped at k, a graphic one a string of component labels, and a restriction
delegates to its parent. `IndependentSetGrower` (no library caller) and
the exact scan in `sampling.unspanned_counts` walk these hooks. Greedy
(`greedy_ordered_bits`, and through it rank and bases) dispatches to
`Matroid.greedy_bits`, one fold per family: by default one `span_step` per
active arrival; the first k active arrivals for a uniform matroid; an
inline label merge for a graphic one, whose `_independent` is the same
fold; the parent's fold over the masked active set for a restriction.
`_unspanned(bits, within)` is the one batch span query; a graphic matroid
answers it by merging its span state's component labels along `bits`.
Built-in families: uniform, graphic (multi-edges allowed), explicit set
lists, and restrictions of any of these.

All oracles are immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bitset import (
    DimensionMismatch,
    SubsetMask,
    full_mask,
    iter_bits,
    mask_of,
    popcount,
)
from .sampling import EnumerationTooLarge

EXHAUSTIVE_LIMIT = 16


class Matroid:
    """Base membership oracle. Subclasses implement `_independent`."""

    n: int
    ground_bits: int  # effective ground set; full except for restrictions

    def __init__(self, n: int):
        self.n = n
        self.ground_bits = full_mask(n)

    # -- membership ---------------------------------------------------------

    def _independent(self, bits: int) -> bool:
        raise NotImplementedError

    def _bits(self, S: SubsetMask) -> int:
        if S.n != self.n:
            raise DimensionMismatch(f"set over {S.n} elements, matroid over {self.n}")
        return S.bits

    def is_independent(self, S: SubsetMask) -> bool:
        return self._independent(self._bits(S))

    def check_over(self, **parts) -> None:
        """Raise `DimensionMismatch` unless each named part (a scheme, a
        prior, an order; None is skipped) is over this ground set."""
        for what, part in parts.items():
            if part is not None and part.n != self.n:
                raise DimensionMismatch(f"the matroid is over {self.n} elements, "
                                        f"the {what.replace('_', ' ')} over {part.n}")

    # -- derived quantities --------------------------------------------------

    def greedy_bits(self, order: Iterable[int], a_bits: int) -> int:
        """Scan `order`; take every element of a_bits that the ones taken
        before it leave unspanned, one `span_step` per element of a_bits.
        Families override this fold with a kernel that draws nothing and
        returns the same set."""
        step = self.span_step
        state = self.span_start()
        taken = 0
        for e in order:
            if a_bits >> e & 1:
                spanned, state = step(state, e)
                if not spanned:
                    taken |= 1 << e
        return taken

    def _basis_bits(self, bits: int) -> int:
        return greedy_ordered_bits(self, iter_bits(bits), bits)

    def basis_of(self, S: SubsetMask) -> SubsetMask:
        """A maximal independent subset of S, chosen by an ascending-index
        scan so repeated calls are deterministic."""
        return SubsetMask(self.n, self._basis_bits(self._bits(S)))

    def rank(self, S: SubsetMask) -> int:
        return popcount(self._basis_bits(self._bits(S)))

    def weighted_rank(self, w: Sequence, S: SubsetMask) -> object:
        """Maximum weight of an independent subset of S.

        Greedy in decreasing-weight order (ties broken by ascending index),
        which is optimal on matroids. Weights must be nonnegative.
        """
        if S.n != self.n or len(w) != self.n:
            raise DimensionMismatch("weight vector / set / matroid sizes differ")
        for wi in w:
            if wi < 0:
                raise ValueError(f"negative weight {wi}")
        order = by_decreasing_weight(w, iter_bits(S.bits))
        chosen = greedy_ordered_bits(self, order, S.bits)
        return sum(w[e] for e in order if chosen >> e & 1)

    def _unspanned(self, bits: int, within: int) -> int:
        """The elements of `within` (in the ground set) outside the span of
        `bits` (any set): those a basis of `bits` stays independent with."""
        basis = self._basis_bits(bits)
        out = 0
        for e in iter_bits(within & ~basis):
            if self._independent(basis | (1 << e)):
                out |= 1 << e
        return out

    # -- span states ----------------------------------------------------------

    def span_start(self):
        """The span state of the empty set; see `span_step`."""
        return 0

    def span_step(self, state, e: int):
        """(whether `state` spans e, the state once e is added to it).

        A span state stands for a set R by what the rest of a scan needs of
        it: which elements R spans. Here it is the basis of R grown along
        the scan, so R spans e exactly when that basis plus e is dependent.
        It asks `_independent` alone: `_unspanned` and `_basis_bits` run
        greedy, whose default fold walks these hooks. Families override
        both hooks with a smaller key."""
        grown = state | 1 << e
        if grown == state or not self._independent(grown):
            return True, state
        return False, grown

    def span(self, S: SubsetMask) -> SubsetMask:
        ground = self.ground_bits
        return SubsetMask(self.n, ground & ~self._unspanned(self._bits(S), ground))

    _span_of_independent = span  # unused; bench/tracer.py patches this name

    def restrict(self, X: SubsetMask) -> "RestrictionMatroid":
        return RestrictionMatroid(self, X)

    def to_spec(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no JSON form")


class IndependentSetGrower:
    """An independent set grown one offered element at a time, on the
    matroid's span state: e is taken when the set so far leaves it unspanned.
    An element already held is refused (a size-capped state cannot tell).
    No library code calls it; it stays because `bench/tracer.py` patches its
    `try_add`, whose count `bench/run.py` reads, and a test reference uses it."""

    def __init__(self, matroid: Matroid):
        self._step = matroid.span_step
        self._state = matroid.span_start()
        self.bits = 0

    def try_add(self, e: int) -> bool:
        if self.bits >> e & 1:
            return False
        spanned, self._state = self._step(self._state, e)
        if spanned:
            return False
        self.bits |= 1 << e
        return True


def greedy_ordered_bits(M: Matroid, order: Iterable[int], a_bits: int) -> int:
    """Greedy along `order` over a_bits: `M.greedy_bits`, the family's fold."""
    return M.greedy_bits(order, a_bits)


def by_decreasing_weight(w: Sequence, elements: Iterable[int]) -> list[int]:
    """`elements`, given ascending, in decreasing weight with ties kept
    ascending: a reverse sort is still stable."""
    return sorted(elements, key=w.__getitem__, reverse=True)


class UniformMatroid(Matroid):
    """Independent sets are those of size at most k."""

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        super().__init__(n)
        self.k = k

    def _independent(self, bits: int) -> bool:
        return popcount(bits) <= self.k

    def _unspanned(self, bits: int, within: int) -> int:
        return 0 if popcount(bits) >= self.k else within & ~bits

    def greedy_bits(self, order, a_bits):
        left, taken = self.k, 0  # the first k active arrivals
        if left:
            for e in order:
                if a_bits >> e & 1:
                    taken |= 1 << e
                    left -= 1
                    if not left:
                        break
        return taken

    def span_start(self):
        return 0  # min(|R|, k): R spans everything once it holds k elements

    def span_step(self, state, e):
        return (True, state) if state >= self.k else (False, state + 1)

    def to_spec(self) -> dict:
        return {"type": "uniform", "n": self.n, "k": self.k}

    def __repr__(self):
        return f"UniformMatroid(n={self.n}, k={self.k})"


class GraphicMatroid(Matroid):
    """Forests of a multigraph; ground-set elements are edge indices.

    Parallel edges are supported: a second copy of any edge always closes a
    cycle. Every query walks one representation: a string with one character
    `chr(label)` per vertex, naming its component, so a merge is one
    `replace`. In a span state the label is the smallest vertex of the
    component.
    """

    def __init__(self, vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        self.vertices = vertices
        self.edges = [(int(u), int(v)) for u, v in edges]
        for u, v in self.edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range {vertices}")
        self._start = "".join(map(chr, range(vertices)))

    def _independent(self, bits: int) -> bool:
        return self.greedy_bits(iter_bits(bits), bits) == bits

    def greedy_bits(self, order, a_bits):
        state, edges, taken = self._start, self.edges, 0  # labels need only be consistent
        for e in order:
            if a_bits >> e & 1:
                u, v = edges[e]
                cu, cv = state[u], state[v]
                if cu != cv:
                    state = state.replace(cv, cu)
                    taken |= 1 << e
        return taken

    def _unspanned(self, bits: int, within: int) -> int:
        # Both loops peel the lowest set bit in place: no generator per query.
        state, edges = self._start, self.edges  # no basis: an edge on a cycle merges nothing
        rest = within & ~bits
        while bits:
            low = bits & -bits
            bits ^= low
            u, v = edges[low.bit_length() - 1]
            cu, cv = state[u], state[v]
            if cu != cv:
                state = state.replace(cv, cu)
        out = 0
        while rest:  # unspanned iff its ends stay apart; a loop never is
            low = rest & -rest
            rest ^= low
            u, v = edges[low.bit_length() - 1]
            if state[u] != state[v]:
                out |= low
        return out

    def span_start(self):
        return self._start  # every vertex its own component

    def span_step(self, state, e):
        u, v = self.edges[e]
        cu, cv = state[u], state[v]
        if cu == cv:  # a loop, a parallel edge or a cycle: spanned
            return True, state
        return False, state.replace(cv, cu) if cu < cv else state.replace(cu, cv)

    def to_spec(self) -> dict:
        return {
            "type": "graphic",
            "vertices": self.vertices,
            "edges": [list(e) for e in self.edges],
        }

    def __repr__(self):
        return f"GraphicMatroid(vertices={self.vertices}, edges={self.edges})"


class ExplicitMatroid(Matroid):
    """Set system given by an explicit list of independent sets.

    No matroid axioms are enforced at construction; `verify_axioms` is the
    checker, so deliberately broken families can be built and rejected there.
    """

    def __init__(self, n: int, independent_sets: Iterable[Iterable[int]]):
        super().__init__(n)
        self._sets = frozenset(mask_of(s) for s in independent_sets)
        for bits in self._sets:
            if bits >> n:
                raise ValueError("independent set outside ground set")

    def _independent(self, bits: int) -> bool:
        return bits in self._sets

    def to_spec(self) -> dict:
        return {
            "type": "explicit",
            "n": self.n,
            "independent_sets": sorted(list(iter_bits(b)) for b in self._sets),
        }

    def __repr__(self):
        return f"ExplicitMatroid(n={self.n}, {len(self._sets)} sets)"


class RestrictionMatroid(Matroid):
    """Members are subsets of X independent in the parent; same ground size.

    Span is reported within the restricted ground set, so it agrees with the
    parent's span intersected with X. The span state is the parent's: an
    element outside X reads as spanned, any other goes to the parent's step.
    """

    def __init__(self, parent: Matroid, X: SubsetMask):
        if X.n != parent.n:
            raise DimensionMismatch(f"restriction over {X.n}, matroid over {parent.n}")
        super().__init__(parent.n)
        self.parent = parent
        self.ground_bits = X.bits & parent.ground_bits

    def _independent(self, bits: int) -> bool:
        return bits & ~self.ground_bits == 0 and self.parent._independent(bits)

    def _unspanned(self, bits: int, within: int) -> int:
        return self.parent._unspanned(bits & self.ground_bits, within & self.ground_bits)

    def greedy_bits(self, order, a_bits):
        return self.parent.greedy_bits(order, a_bits & self.ground_bits)

    def span_start(self):
        return self.parent.span_start()

    def span_step(self, state, e):
        if self.ground_bits >> e & 1:
            return self.parent.span_step(state, e)
        return True, state

    def __repr__(self):
        return f"RestrictionMatroid({self.parent!r}, ground={self.ground_bits:#x})"


def verify_axioms(M: Matroid, limit: int = EXHAUSTIVE_LIMIT) -> bool:
    """Exhaustively check non-emptiness, downward closure and exchange.

    Only feasible for small ground sets; raises EnumerationTooLarge beyond
    `limit` elements.
    """
    if M.n > limit:
        raise EnumerationTooLarge(f"n={M.n} exceeds exhaustive limit {limit}")
    universe = M.ground_bits
    members = [bits for bits in range(1 << M.n) if bits & ~universe == 0 and M._independent(bits)]
    member_set = set(members)
    if 0 not in member_set:
        return False
    for bits in members:
        for e in iter_bits(bits):
            if bits ^ (1 << e) not in member_set:
                return False
    by_size: dict[int, list[int]] = {}
    for bits in members:
        by_size.setdefault(popcount(bits), []).append(bits)
    sizes = sorted(by_size)
    for sx in sizes:
        for sy in sizes:
            if sy >= sx:
                continue
            for X in by_size[sx]:
                for Y in by_size[sy]:
                    if not any(
                        Y | (1 << e) in member_set for e in iter_bits(X & ~Y)
                    ):
                        return False
    return True


def matroid_from_spec(spec: dict) -> Matroid:
    """Build a matroid from its JSON dict form."""
    kind = spec.get("type")
    if kind == "uniform":
        return UniformMatroid(int(spec["n"]), int(spec["k"]))
    if kind == "graphic":
        return GraphicMatroid(int(spec["vertices"]), [tuple(e) for e in spec["edges"]])
    if kind == "explicit":
        return ExplicitMatroid(int(spec["n"]), spec["independent_sets"])
    raise ValueError(f"unknown matroid type {kind!r}")
