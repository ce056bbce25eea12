"""Shared instance builders and exact-law helpers for the test suite."""

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from ocrs import (
    ExplicitMatroid,
    ExplicitPrior,
    GraphicMatroid,
    UniformMatroid,
    gen_hidden_element,
    gen_kuniform_allactive,
    gen_parallel_hats,
    two_element_instance,
)


class NoDraws(Random):
    """A Random that fails on any draw: an exact route handed it must finish,
    or refuse, without touching it. Overriding getrandbits also routes
    shuffle's indices through it."""

    def random(self):
        raise AssertionError("Random.random() was called")

    def getrandbits(self, k):
        raise AssertionError("Random.getrandbits() was called")


def triangle():
    """Graphic matroid of a triangle; edges 0=(0,1), 1=(1,2), 2=(2,0)."""
    return GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])


def explicit_battery():
    """Small explicit-prior instances with known-enumerable supports; the
    battery the desk-scale structural checks run over (all n <= 7)."""
    return [
        two_element_instance(),
        gen_kuniform_allactive(4, 2),
        gen_kuniform_allactive(5, 1),
        gen_hidden_element(3, Fraction(1, 2), Fraction(1, 5), 0),
        gen_parallel_hats(Fraction(1, 2), m_override=2),
    ]


FAMILIES = ("uniform", "graphic", "explicit")


def random_small_matroid(rng: Random, max_n: int = 8, family=None):
    """A genuine matroid of a random size, of `family` (one of FAMILIES) or
    a random one, for property tests."""
    kind = rng.randrange(3) if family is None else FAMILIES.index(family)
    if kind == 0:
        n = rng.randint(1, max_n)
        return UniformMatroid(n, rng.randint(0, n))
    if kind == 1:
        v = rng.randint(2, 5)
        n_edges = rng.randint(1, min(max_n, 7))
        edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(n_edges)]
        return GraphicMatroid(v, edges)
    base = random_small_matroid(rng, max_n=6)
    members = [
        bits for bits in range(1 << base.n) if base._independent(bits)
    ]
    return ExplicitMatroid(base.n, [[e for e in range(base.n) if (b >> e) & 1] for b in members])


def column(words, t: int) -> int:
    """Trial t's set: the elements whose word has bit t."""
    return sum(1 << e for e, w in enumerate(words) if w >> t & 1)


def membership_span(M, bits: int) -> int:
    """Span of `bits` within M's ground set from `M._independent` queries alone:
    a greedy basis Y of `bits`, then Y and every ground element e with Y + e
    dependent. A reference for the library's span query: an explicit family's
    lookup shares none of it, and the `_independent` that the other families
    derive from their span state is checked against the definitions it
    replaced (`test_matroid.py::TestIndependenceFromTheSpanState`)."""
    basis = 0
    for e in range(M.n):
        if (bits >> e) & 1 and M._independent(basis | (1 << e)):
            basis |= 1 << e
    span = basis
    for e in range(M.n):
        if (M.ground_bits >> e) & 1 and not M._independent(basis | (1 << e)):
            span |= 1 << e
    return span


def random_explicit_prior(rng: Random, n: int, max_atoms: int = 4) -> ExplicitPrior:
    """Random explicit prior with rational probabilities and full-coverage
    support (every element active somewhere)."""
    atoms = {(1 << n) - 1}  # guarantee positive activation everywhere
    for _ in range(rng.randint(0, max_atoms - 1)):
        atoms.add(rng.randrange(1 << n))
    atoms = sorted(atoms)
    weights = [rng.randint(1, 9) for _ in atoms]
    total = sum(weights)
    return ExplicitPrior(n, [(a, Fraction(w, total)) for a, w in zip(atoms, weights)])


def sentinel_prefix_law(n):
    """Exact joint law of the set before the sentinel, by enumerating all
    (n+1)! permutations of n+1 symbols; ground truth for the correlated
    subsampler."""
    counts = {}
    total = 0
    for perm in permutations(range(n + 1)):
        t = 0
        for s in perm:
            if s == n:
                break
            t |= 1 << s
        counts[t] = counts.get(t, 0) + 1
        total += 1
    return {t: Fraction(c, total) for t, c in counts.items()}


@pytest.fixture
def rng():
    return Random(20240817)
