"""Matroid membership oracles with derived rank / span / basis / restriction.

Every matroid here answers independence queries over a ground set
{0, ..., n-1}. A family gives `_independent` or a span state, the base class
derives the other, and a family may add the fast kernels that a workload
measures; everything else derives from the span state. `span_start` and
`span_step` walk a set's span one element at a time, as a small state: by
default the basis of the set grown along the walk (one `_independent` query
per step), and by default `_independent` asks whether greedy over a set takes
all of it. A uniform matroid keeps the size capped at k, a graphic one a
string of component labels, and a restriction reads an element outside its
ground set as spanned and sends any other to its parent's step.

On the span state the base class states every query once:
`_unspanned(bits, within)`, the one span query (`bits` walked in, each
element of `within` probed with one step), which `span` asks; greedy
(`greedy_ordered_bits`, and through it rank and bases), `Matroid.greedy_bits`,
one `span_step` per active arrival; and their batch forms over words, one
per element with bit t for trial t: `greedy_words`,
`unspanned_words(words, within, trials)` and
`unspanned_by_rest_words(words, within, trials)` (each candidate's own word
left out, for the prefix preselection statistic), by default one per-trial
query per distinct set of the batch. `IndependentSetGrower` (no library
caller) and the exact scan in `sampling.unspanned_counts` walk the hooks.

The uniform and graphic families override the kernels that the workloads
run. Uniform: greedy, the one per-trial kernel a family keeps, takes the
first k active arrivals, and the batch forms read one bit-sliced count of
the arrivals taken (below k: unspanned; read at k by its carry and past k
by the arrivals it refused, for the leave-one-out form). Graphic: greedy
and `_independent` run the base fold, and the batch forms fold bit-sliced
component labels, an element unspanned where its ends' labels differ (the
leave-one-out form folds the words outside `within` once, then probes each
half of the candidates on a copy folded with the other half, so each word
is folded O(log r) times for r candidates). Explicit set lists and
restrictions run the base class.
Built-in families: uniform, graphic (multi-edges allowed), explicit set
lists, and restrictions of any of these.

All oracles are immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_
from typing import Iterable, Sequence

from .bitset import (
    DimensionMismatch,
    SubsetMask,
    full_mask,
    iter_bits,
    map_sets,
    mask_of,
    popcount,
)
from .sampling import EnumerationTooLarge, check_in_ground_set, spec_field

EXHAUSTIVE_LIMIT = 16


class Matroid:
    """Base membership oracle. Subclasses define `_independent` or `span_step`."""

    n: int
    ground_bits: int  # effective ground set; full except for restrictions

    def __init__(self, n: int):
        self.n = n
        self.ground_bits = full_mask(n)

    # -- membership ---------------------------------------------------------

    def _independent(self, bits: int) -> bool:
        """Whether `bits` is independent: by default, whether greedy over it,
        walking the span state, takes all of it."""
        if type(self).span_step is Matroid.span_step:
            raise NotImplementedError(f"{type(self).__name__} defines neither _independent "
                                      "nor span_step")
        return self.greedy_bits(iter_bits(bits), bits) == bits

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
        Only the uniform family overrides this fold, with a kernel that
        draws nothing and returns the same set."""
        step = self.span_step
        state = self.span_start()
        taken = 0
        for e in order:
            if a_bits >> e & 1:
                spanned, state = step(state, e)
                if not spanned:
                    taken |= 1 << e
        return taken

    def greedy_words(self, order: Sequence[int], words: Sequence[int]) -> list[int]:
        """Greedy sliced across trials: words[e] holds the trials (bit t for
        trial t) in which e is offered, and the result each element's word of
        the trials in which `greedy_bits` takes it. By default one
        `greedy_bits` per distinct set of the batch (`bitset.map_sets`);
        families override it with one fold of the words."""
        return map_sets(partial(self.greedy_bits, order), words, reduce(or_, words, 0).bit_length())

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
            raise DimensionMismatch(f"{len(w)} weights, set over {S.n}, matroid over {self.n}")
        for wi in w:
            if wi < 0:
                raise ValueError(f"negative weight {wi}")
        order = by_decreasing_weight(w, iter_bits(S.bits))
        chosen = greedy_ordered_bits(self, order, S.bits)
        return sum(w[e] for e in order if chosen >> e & 1)

    def _unspanned(self, bits: int, within: int) -> int:
        """The elements of `within` outside the span of `bits` (any set):
        `bits` walked into the span state, then one `span_step` probe for
        each element of `within & ~bits`."""
        step, state = self.span_step, self.span_start()
        for e in iter_bits(bits):
            state = step(state, e)[1]
        return sum(1 << e for e in iter_bits(within & ~bits) if not step(state, e)[0])

    def unspanned_words(self, words: Sequence[int], within: int, trials: int) -> list[int]:
        """`_unspanned` over a batch of trials, sliced: words[e] holds the
        trials (bits of the mask `trials`) whose set holds e, and the result
        holds, per element of `within`, the trials whose set leaves it
        unspanned (0 for any other element): one `_unspanned` per distinct
        set of the batch, the empty set included. Uniform and graphic
        matroids fold the words once into their sliced span state."""
        return map_sets(lambda bits: self._unspanned(bits, within), words, trials.bit_length())

    def unspanned_by_rest_words(self, words: Sequence[int], within: int, trials: int) -> list[int]:
        """`unspanned_words` with each candidate's own word left out: per
        element j of `within`, the trials whose set less j leaves j
        unspanned: one `_unspanned(bits & ~(1 << j), 1 << j)` per candidate
        j and distinct set of the batch. Uniform and graphic matroids fold
        the words into their sliced span state."""
        def free(bits):
            return sum(self._unspanned(bits & ~(1 << j), 1 << j) for j in iter_bits(within))

        return map_sets(free, words, trials.bit_length())

    # -- span states ----------------------------------------------------------

    def span_start(self):
        """The span state of the empty set; see `span_step`."""
        return 0

    def span_step(self, state, e: int):
        """(whether `state` spans e, the state once e is added to it).

        A span state stands for a set R by what the rest of a scan needs of
        it: which elements R spans. Here it is the basis of R grown along
        the scan, so R spans e exactly when that basis plus e is dependent.
        It asks `_independent` alone. `_unspanned` and greedy, and through
        them every derived query, walk these hooks; a family with a smaller
        key overrides them, and then `_independent` derives from its key."""
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
    `try_add`, whose count `bench/run.py` reads."""

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

    def greedy_words(self, order, words):
        return self._count_words(order, words)[0]

    def unspanned_words(self, words, within, trials):
        # Outside the span exactly in the trials that keep fewer than k.
        below = trials & ~self._count_words(range(self.n), words)[1] if self.k else 0
        return [below & ~w if within >> e & 1 else 0 for e, w in enumerate(words)]

    def unspanned_by_rest_words(self, words, within, trials):
        # The same count, read at k by its carry and past k by the arrivals
        # it refused: j is free where its word is clear and fewer than k are
        # kept, or where its word is set and no more than k are.
        taken, full = self._count_words(range(self.n), words)
        below = trials & ~full if self.k else 0
        upto = trials & ~reduce(or_, (w & ~t for w, t in zip(words, taken)), 0)
        return [upto & w | below & ~w if within >> e & 1 else 0 for e, w in enumerate(words)]

    def _count_words(self, order, words):
        """(the words greedy takes along `order`, the trials that reach k).

        A bit-sliced count of the arrivals taken, started at 2^L - k for
        L = k.bit_length(): its carry out of the top plane marks the trials
        that hold k, which take nothing more."""
        taken = [0] * self.n
        if not self.k:
            return taken, 0
        trials = reduce(or_, words, 0)
        top = self.k.bit_length()
        start = (1 << top) - self.k
        planes = [trials if start >> i & 1 else 0 for i in range(top)]
        full = 0
        for e in order:
            carry = words[e] & ~full
            if carry:
                taken[e] = carry
                for i, plane in enumerate(planes):
                    planes[i] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    full |= carry
                    if full == trials:
                        break
        return taken, full

    def span_step(self, state, e):
        # min(|R|, k): R spans everything once it holds k elements
        return (True, state) if state >= self.k else (False, state + 1)

    def to_spec(self) -> dict:
        return {"type": "uniform", "n": self.n, "k": self.k}

    def __repr__(self):
        return f"UniformMatroid(n={self.n}, k={self.k})"


class GraphicMatroid(Matroid):
    """Forests of a multigraph; ground-set elements are edge indices.

    Parallel edges are supported: a second copy of any edge always closes a
    cycle. Every per-trial query, greedy and `_independent` included, walks
    the span state through the base class: a string with one character
    `chr(label)` per vertex, naming its component (its smallest vertex), so
    a merge is one `replace`.
    """

    def __init__(self, vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        self.vertices = vertices
        self.edges = [(int(u), int(v)) for u, v in edges]
        for u, v in self.edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range {vertices}")
        self._start = "".join(map(chr, range(vertices)))

    def greedy_words(self, order, words):
        return self._label_words(order, words, reduce(or_, words, 0))[0]

    def unspanned_words(self, words, within, trials):
        # Outside the span in the trials where its ends' labels differ.
        _, label = self._label_words(range(self.n), words, trials)
        return [self._apart(label, e, trials) if within >> e & 1 else 0 for e in range(self.n)]

    def unspanned_by_rest_words(self, words, within, trials):
        # A leave-one-out fold: the words outside `within` once, then each
        # half of the candidates probed on a copy folded with the other half,
        # so each word is folded O(log r) times for r candidates, not r.
        out = [0] * self.n

        def probe(label, candidates):
            if len(candidates) > 1:
                half = len(candidates) // 2
                left, right = candidates[:half], candidates[half:]
                probe(self._label_words(right, words, trials, label)[1], left)
                probe(self._label_words(left, words, trials, label)[1], right)
            elif candidates:
                out[candidates[0]] = self._apart(label, candidates[0], trials)

        rest = (e for e in range(self.n) if not within >> e & 1)
        probe(self._label_words(rest, words, trials)[1], list(iter_bits(within)))
        return out

    def _apart(self, label, e, trials):
        """The trials of `trials` in which the labels of e's ends differ. A
        vertex missing from `label` is labelled by itself over all of
        `trials`, the batch's trials where nothing is kept included."""
        width = range((self.vertices - 1).bit_length())
        ends = [label.get(w) or [trials if w >> j & 1 else 0 for j in width]
                for w in self.edges[e]]
        differ = 0
        for x, y in zip(*ends):
            differ |= x ^ y
        return differ

    def _label_words(self, order, words, trials, start=None):
        """(the words greedy takes along `order`, the component labels after).

        Bit-sliced component labels: label[v][j] holds bit j of v's label in
        every trial of `trials`. An edge is taken in the trials where its
        ends' labels differ, and there v's component takes u's label by a
        masked select. Only vertices on a taken edge can share a label, so
        `label` holds those alone; any other vertex is its own component in
        every trial, labelled by itself, and an edge to it merges it alone.
        The fold starts from the labels `start` when given, which it leaves
        as they are: a merge replaces a vertex's list, never edits it."""
        width = range((self.vertices - 1).bit_length())
        label: dict[int, list[int]] = {} if start is None else dict(start)
        edges, taken = self.edges, [0] * self.n
        for e in order:
            offered = words[e]
            if not offered:
                continue
            u, v = edges[e]
            if v in label and u not in label:
                u, v = v, u
            lu = label.get(u) or [trials if u >> j & 1 else 0 for j in width]
            if v not in label:
                if u != v:  # v, on no taken edge yet, joins u's component
                    taken[e] = offered
                    label[u] = lu
                    own = (trials if v >> j & 1 else 0 for j in width)
                    label[v] = [y ^ ((y ^ x) & offered) for x, y in zip(lu, own)]
                continue
            lv = label[v]
            differ = 0
            for x, y in zip(lu, lv):
                differ |= x ^ y
            take = offered & differ  # a loop never differs
            if not take:
                continue
            taken[e] = take
            for w, lw in label.items():
                same = take  # the trials where w is in v's component
                for x, y in zip(lw, lv):
                    same &= ~(x ^ y)
                    if not same:
                        break
                else:
                    label[w] = [x ^ ((x ^ y) & same) for x, y in zip(lw, lu)]
        return taken, label

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

    No matroid axioms are enforced at construction, so deliberately broken
    families can be built; `verify_axioms` rejects them, and so does
    `matroid_from_spec` when it reads one.
    """

    def __init__(self, n: int, independent_sets: Iterable[Iterable[int]]):
        super().__init__(n)
        self._sets = frozenset(mask_of(s) for s in independent_sets)
        for bits in self._sets:
            if bits >> n:
                raise ValueError(f"independent set {bits:#x} outside ground set of size {n}")

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
    element outside X reads as spanned, any other goes to the parent's step,
    and every other query runs the base class on that state.
    """

    def __init__(self, parent: Matroid, X: SubsetMask):
        if X.n != parent.n:
            raise DimensionMismatch(f"restriction over {X.n}, matroid over {parent.n}")
        super().__init__(parent.n)
        self.parent = parent
        self.ground_bits = X.bits & parent.ground_bits

    def span_start(self):
        return self.parent.span_start()

    def span_step(self, state, e):
        if self.ground_bits >> e & 1:
            return self.parent.span_step(state, e)
        return True, state

    def __repr__(self):
        return f"RestrictionMatroid({self.parent!r}, ground={self.ground_bits:#x})"


def _axiom_violation(members: set[int]) -> str | None:
    """Why the listed family `members` is not the independent sets of a
    matroid, or None when it is. It reads the listed sets only: the empty
    set is listed, every listed set less one element is listed, and local
    exchange holds: for a listed K and a, b, c outside K, if K+a and K+b+c
    are listed, so is K+a+b or K+a+c. On a downward-closed family this is
    the full exchange axiom (a larger set lends a smaller one an element)."""
    if 0 not in members:
        return "the empty set is not listed"
    for x in members:
        for e in iter_bits(x):
            if x ^ (1 << e) not in members:
                return f"{list(iter_bits(x))} is listed but not {list(iter_bits(x ^ 1 << e))}"
    universe = reduce(or_, members, 0)
    for x in members:  # x = K + b + c
        elems = list(iter_bits(x))
        for i, b in enumerate(elems):
            for c in elems[i + 1 :]:
                k = x & ~(1 << b | 1 << c)
                for a in iter_bits(universe & ~x):
                    ka, kab, kac = k | 1 << a, k | 1 << a | 1 << b, k | 1 << a | 1 << c
                    if ka in members and kab not in members and kac not in members:
                        sets = [list(iter_bits(y)) for y in (ka, x, kab, kac)]
                        return "{} and {} are listed, but neither {} nor {}".format(*sets)
    return None


def verify_axioms(M: Matroid) -> bool:
    """Whether M's independent sets form a matroid (`_axiom_violation` on
    every member, enumerated over all 2^n subsets).

    Only feasible for small ground sets; raises EnumerationTooLarge beyond
    EXHAUSTIVE_LIMIT elements.
    """
    if M.n > EXHAUSTIVE_LIMIT:
        raise EnumerationTooLarge(f"n={M.n} exceeds exhaustive limit {EXHAUSTIVE_LIMIT}")
    universe = M.ground_bits
    members = {bits for bits in range(1 << M.n) if bits & ~universe == 0 and M._independent(bits)}
    return _axiom_violation(members) is None


def matroid_from_spec(spec: dict) -> Matroid:
    """Build a matroid from its JSON dict form; each field is read by
    `spec_field`, so a missing or mistyped one raises ValueError naming it.
    An explicit family must lie in the ground set and be a matroid
    (`_axiom_violation`): a broken one raises ValueError naming
    `independent_sets`."""
    kind = spec_field(spec, "type")
    if kind == "uniform":
        return UniformMatroid(spec_field(spec, "n", int), spec_field(spec, "k", int))
    if kind == "graphic":
        return GraphicMatroid(
            spec_field(spec, "vertices", int), spec_field(spec, "edges", [(int, int)])
        )
    if kind == "explicit":
        n, sets = spec_field(spec, "n", int), spec_field(spec, "independent_sets", [[int]])
        check_in_ground_set(n, "independent_sets", sets)
        M = ExplicitMatroid(n, sets)
        problem = _axiom_violation(M._sets)
        if problem:
            raise ValueError(f"field 'independent_sets' is not a matroid: {problem}")
        return M
    raise ValueError(f"unknown matroid type {kind!r}")
