"""Matroid membership oracles with derived rank / span / basis / restriction.

Every matroid here answers independence queries over a ground set
{0, ..., n-1}; rank and bases are derived from membership queries alone (one
greedy pass, justified by the exchange property). `_unspanned(bits, within)`
is the one span query; each family answers it once, a graphic matroid in one
union-find pass. `span_start` and `span_step` walk a set's span one element
at a time, as a small state (the closure by default, the size capped at k
for a uniform matroid, the component labels for a graphic one), for the
exact scan in `sampling.unspanned_counts`. Built-in families: uniform,
graphic (multi-edges allowed), explicit set lists, and restrictions of any
of these.

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
GroundSetTooLarge = EnumerationTooLarge  # the name `verify_axioms` has always raised


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

    # -- incremental greedy support -----------------------------------------

    def grower(self) -> "IndependentSetGrower":
        """Stateful helper that adds elements one at a time, keeping the
        current set independent. Used by every greedy pass in the package."""
        return IndependentSetGrower(self)

    # -- derived quantities --------------------------------------------------

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
        order = sorted(iter_bits(S.bits), key=lambda e: (-w[e], e))
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
        return self._closure(0)

    def span_step(self, state, e: int):
        """(whether `state` spans e, the state once e is added to it).

        A span state stands for a set R by what the rest of a scan needs of
        it: which elements R spans. Here it is R's closure over the full
        mask, so an element outside a restriction's ground reads as spanned;
        families override both hooks with a smaller key."""
        if state >> e & 1:
            return True, state
        return False, self._closure(state | 1 << e)

    def _closure(self, bits: int) -> int:
        full = full_mask(self.n)
        return full & ~self._unspanned(bits, full)

    def span(self, S: SubsetMask) -> SubsetMask:
        ground = self.ground_bits
        return SubsetMask(self.n, ground & ~self._unspanned(self._bits(S), ground))

    _span_of_independent = span  # unused; bench/tracer.py patches this name

    def restrict(self, X: SubsetMask) -> "RestrictionMatroid":
        return RestrictionMatroid(self, X)

    def to_spec(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no JSON form")


class IndependentSetGrower:
    """Incrementally grown independent set; generic fallback re-queries the
    oracle on each candidate, subclasses keep cheaper state."""

    def __init__(self, matroid: Matroid):
        self._m = matroid
        self.bits = 0

    def try_add(self, e: int) -> bool:
        cand = self.bits | (1 << e)
        if cand != self.bits and self._m._independent(cand):
            self.bits = cand
            return True
        return False


def greedy_ordered_bits(M: Matroid, order: Iterable[int], a_bits: int) -> int:
    """Scan `order`; take every element of a_bits that keeps the set independent."""
    g = M.grower()
    for e in order:
        if (a_bits >> e) & 1:
            g.try_add(e)
    return g.bits


class UniformMatroid(Matroid):
    """Independent sets are those of size at most k."""

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        super().__init__(n)
        self.k = k

    def _independent(self, bits: int) -> bool:
        return popcount(bits) <= self.k

    def grower(self):
        return _UniformGrower(self)

    def _unspanned(self, bits: int, within: int) -> int:
        return 0 if popcount(bits) >= self.k else within & ~bits

    def span_start(self):
        return 0  # min(|R|, k): R spans everything once it holds k elements

    def span_step(self, state, e):
        return (True, state) if state >= self.k else (False, state + 1)

    def to_spec(self) -> dict:
        return {"type": "uniform", "n": self.n, "k": self.k}

    def __repr__(self):
        return f"UniformMatroid(n={self.n}, k={self.k})"


class _UniformGrower:
    def __init__(self, matroid: UniformMatroid):
        self._k = matroid.k
        self._size = 0
        self.bits = 0

    def try_add(self, e: int) -> bool:
        b = 1 << e
        if self._size < self._k and not (self.bits & b):
            self.bits |= b
            self._size += 1
            return True
        return False


class GraphicMatroid(Matroid):
    """Forests of a multigraph; ground-set elements are edge indices.

    Parallel edges are supported: a second copy of any edge always closes a
    cycle. Independence is checked with a fresh union-find per query.
    """

    def __init__(self, vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        self.vertices = vertices
        self.edges = [(int(u), int(v)) for u, v in edges]
        for u, v in self.edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range {vertices}")

    def _independent(self, bits: int) -> bool:
        parent = list(range(self.vertices))
        edges = self.edges
        for e in iter_bits(bits):
            u, v = edges[e]
            ru = _find(parent, u)
            rv = _find(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def grower(self):
        return _ForestGrower(self)

    def _unspanned(self, bits: int, within: int) -> int:
        parent = list(range(self.vertices))  # no basis: an edge on a cycle merges nothing
        edges = self.edges
        for e in iter_bits(bits):
            u, v = edges[e]
            parent[_find(parent, u)] = _find(parent, v)
        out = 0
        for e in iter_bits(within & ~bits):  # unspanned iff its ends stay apart; a loop never is
            u, v = edges[e]
            if _find(parent, u) != _find(parent, v):
                out |= 1 << e
        return out

    def span_start(self):
        return tuple(range(self.vertices))  # each vertex's component, by its smallest vertex

    def span_step(self, state, e):
        u, v = self.edges[e]
        cu, cv = state[u], state[v]
        if cu == cv:  # a loop, a parallel edge or a cycle: spanned
            return True, state
        lo, hi = (cu, cv) if cu < cv else (cv, cu)
        return False, tuple([lo if c == hi else c for c in state])

    def to_spec(self) -> dict:
        return {
            "type": "graphic",
            "vertices": self.vertices,
            "edges": [list(e) for e in self.edges],
        }

    def __repr__(self):
        return f"GraphicMatroid(vertices={self.vertices}, edges={self.edges})"


def _find(parent: list, x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


class _ForestGrower:
    def __init__(self, matroid: GraphicMatroid):
        self._edges = matroid.edges
        self._parent = list(range(matroid.vertices))
        self.bits = 0

    def try_add(self, e: int) -> bool:
        u, v = self._edges[e]
        parent = self._parent
        ru = _find(parent, u)
        rv = _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
        self.bits |= 1 << e
        return True


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
    parent's span intersected with X.
    """

    def __init__(self, parent: Matroid, X: SubsetMask):
        if X.n != parent.n:
            raise DimensionMismatch(f"restriction over {X.n}, matroid over {parent.n}")
        super().__init__(parent.n)
        self.parent = parent
        self.ground_bits = X.bits & parent.ground_bits

    def _independent(self, bits: int) -> bool:
        return bits & ~self.ground_bits == 0 and self.parent._independent(bits)

    def grower(self):
        return _RestrictedGrower(self)

    def _unspanned(self, bits: int, within: int) -> int:
        return self.parent._unspanned(bits & self.ground_bits, within & self.ground_bits)

    def __repr__(self):
        return f"RestrictionMatroid({self.parent!r}, ground={self.ground_bits:#x})"


class _RestrictedGrower:
    def __init__(self, matroid: RestrictionMatroid):
        self._ground = matroid.ground_bits
        self._inner = matroid.parent.grower()

    @property
    def bits(self):
        return self._inner.bits

    def try_add(self, e: int) -> bool:
        if not (self._ground >> e) & 1:
            return False
        return self._inner.try_add(e)


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
