from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import (
    DimensionMismatch,
    ExplicitMatroid,
    GraphicMatroid,
    SubsetMask,
    UniformMatroid,
    matroid_from_spec,
    verify_axioms,
)
from ocrs.bitset import iter_bits, popcount
from ocrs.matroid import IndependentSetGrower, Matroid, greedy_ordered_bits
from ocrs.sampling import EnumerationTooLarge

from conftest import FAMILIES, membership_span, random_small_matroid, triangle
from oracle_reference import bruteforce_weighted_rank


def S(n, *elems):
    return SubsetMask.from_elements(n, elems)


def all_subsets(n):
    return [SubsetMask(n, bits) for bits in range(1 << n)]


class TestMembership:
    def test_uniform_cardinality_cap(self):
        m = UniformMatroid(4, 2)
        assert not m.is_independent(S(4, 0, 1, 2))
        assert m.is_independent(S(4, 0, 2))

    def test_empty_always_independent(self):
        for m in (UniformMatroid(3, 0), triangle(), ExplicitMatroid(2, [[], [1]])):
            assert m.is_independent(SubsetMask.empty(m.n))

    def test_triangle_cycle_dependent(self):
        assert not triangle().is_independent(S(3, 0, 1, 2))
        assert triangle().is_independent(S(3, 0, 1))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            UniformMatroid(3, 1).is_independent(S(4, 0))

    def test_parallel_edge_closes_cycle(self):
        m = GraphicMatroid(2, [(0, 1), (0, 1)])
        assert not m.is_independent(S(2, 0, 1))
        assert m.is_independent(S(2, 1))


def _is_forest(m: GraphicMatroid, bits: int) -> bool:
    """Whether the edges of `bits` hold no cycle: union-find on the vertices."""
    root = list(range(m.vertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for e in iter_bits(bits):
        u, v = (find(w) for w in m.edges[e])
        if u == v:
            return False
        root[u] = v
    return True


class TestIndependenceFromTheSpanState:
    """A family gives `_independent` or a span state, and the base class
    derives the other. The family definitions the span state replaced are
    the references: the size cap, a forest, and the parent's membership
    inside X."""

    def test_uniform_is_the_size_cap(self):
        for n in range(11):
            for k in range(n + 1):
                m = UniformMatroid(n, k)
                assert all(m._independent(b) == (popcount(b) <= k) for b in range(1 << n))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES))
    def test_graphic_and_restrictions(self, seed, family):
        rng = Random(seed)
        m = random_small_matroid(rng, family=family)  # graphic: loops and parallel edges
        x = rng.randrange(1 << m.n)
        r = m.restrict(SubsetMask(m.n, x))
        for bits in range(1 << m.n):
            assert r._independent(bits) == (bits & ~x == 0 and m._independent(bits))
            if family == "graphic":
                greedy_takes_all = m.greedy_bits(iter_bits(bits), bits) == bits
                assert m._independent(bits) == greedy_takes_all == _is_forest(m, bits)

    def test_a_family_states_one_of_them(self):
        class Lawless(Matroid):
            pass

        for query in (lambda m: m._independent(0b01), lambda m: m.span_step(0, 0),
                      lambda m: m.is_independent(S(2, 1)), lambda m: m.rank(S(2, 0, 1))):
            with pytest.raises(NotImplementedError, match="neither _independent nor span_step"):
                query(Lawless(2))


@pytest.mark.parametrize(
    "call, error, bad",
    [(lambda: UniformMatroid(3, 1).weighted_rank([1, 2], SubsetMask(3)), DimensionMismatch,
      "2 weights"),
     (lambda: UniformMatroid(3, 4), ValueError, "k=4"),
     (lambda: UniformMatroid(3, -1), ValueError, "k=-1"),
     (lambda: GraphicMatroid(2, [(0, 1), (0, 5)]), ValueError, "edge (0,5)"),
     (lambda: ExplicitMatroid(2, [[], [3]]), ValueError, "0x8"),
     (lambda: UniformMatroid(3, 1).restrict(SubsetMask(4)), DimensionMismatch,
      "restriction over 4")],
    ids=["weighted-rank-sizes", "uniform-k-past-n", "uniform-k-negative", "graphic-edge",
         "explicit-set", "restriction-size"],
)
def test_input_checks_name_the_bad_value(call, error, bad):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and bad in str(info.value)


class TestRank:
    def test_uniform_rank_capped(self):
        assert UniformMatroid(4, 2).rank(S(4, 0, 1, 2)) == 2

    def test_triangle_spanning_tree(self):
        assert triangle().rank(S(3, 0, 1, 2)) == 2

    def test_empty(self):
        assert triangle().rank(SubsetMask.empty(3)) == 0

    def test_rank_at_most_cardinality(self, rng):
        for _ in range(50):
            m = random_small_matroid(rng)
            for s in all_subsets(m.n):
                assert m.rank(s) <= s.cardinality()

    def test_rank_submodular_marginals(self, rng):
        # r(X u Y) - r(Y) <= sum over i in X of r(Y u {i}) - r(Y)
        for _ in range(12):
            m = random_small_matroid(rng, max_n=6)
            subsets = all_subsets(m.n)
            for X in subsets:
                for Y in subsets:
                    ry = m.rank(Y)
                    lhs = m.rank(X | Y) - ry
                    rhs = sum(m.rank(Y.add(i) if i not in Y else Y) - ry for i in X)
                    assert lhs <= rhs


class TestWeightedRank:
    def test_best_singleton(self):
        assert UniformMatroid(2, 1).weighted_rank((3, 5), S(2, 0, 1)) == 5

    def test_zero_weights(self):
        assert triangle().weighted_rank((0, 0, 0), S(3, 0, 1, 2)) == 0

    def test_triangle_brute_force_value(self):
        m = triangle()
        got = m.weighted_rank((1, 2, 3), S(3, 0, 1, 2))
        assert got == 5
        assert got == bruteforce_weighted_rank(m, (1, 2, 3), S(3, 0, 1, 2))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            triangle().weighted_rank((1, -1, 0), S(3, 0))

    def test_matches_brute_force_random(self, rng):
        for _ in range(300):
            m = random_small_matroid(rng, max_n=7)
            w = [Fraction(rng.randint(0, 20), 4) for _ in range(m.n)]
            s = SubsetMask(m.n, rng.randrange(1 << m.n))
            assert m.weighted_rank(w, s) == bruteforce_weighted_rank(m, w, s)

    def test_monotone_under_inclusion(self, rng):
        for _ in range(40):
            m = random_small_matroid(rng, max_n=6)
            w = [rng.randint(0, 5) for _ in range(m.n)]
            big = SubsetMask(m.n, rng.randrange(1 << m.n))
            small = SubsetMask(m.n, big.bits & rng.randrange(1 << m.n))
            assert m.weighted_rank(w, small) <= m.weighted_rank(w, big)


class TestSpanBasis:
    def test_uniform_span_below_capacity(self):
        m = UniformMatroid(5, 3)
        s = S(5, 1, 2)
        assert m.span(s) == s

    def test_uniform_span_at_capacity(self):
        assert UniformMatroid(3, 1).span(S(3, 0)) == SubsetMask.full(3)

    def test_triangle_cycle_closure(self):
        assert triangle().span(S(3, 0, 1)) == SubsetMask.full(3)

    def test_basis_of_independent_set_is_itself(self):
        m = UniformMatroid(4, 3)
        s = S(4, 1, 3)
        assert m.basis_of(s) == s

    def test_triangle_basis_deterministic(self):
        m = triangle()
        b = m.basis_of(SubsetMask.full(3))
        assert b == S(3, 0, 1)  # ascending scan
        assert b.cardinality() == m.rank(SubsetMask.full(3))

    def test_basis_of_empty(self):
        assert triangle().basis_of(SubsetMask.empty(3)) == SubsetMask.empty(3)

    def test_span_monotone(self, rng):
        for _ in range(40):
            m = random_small_matroid(rng, max_n=6)
            big = SubsetMask(m.n, rng.randrange(1 << m.n))
            small = SubsetMask(m.n, big.bits & rng.randrange(1 << m.n))
            assert m.span(small).issubset(m.span(big))

    def test_span_agrees_with_every_basis(self, rng):
        # i in span(S) iff for any basis Y of S: i in Y or Y+{i} dependent
        for _ in range(20):
            m = random_small_matroid(rng, max_n=6)
            s = SubsetMask(m.n, rng.randrange(1 << m.n))
            r = m.rank(s)
            bases = [
                b
                for b in range(1 << m.n)
                if b & ~s.bits == 0 and popcount(b) == r and m._independent(b)
            ]
            sp = m.span(s)
            for basis in bases:
                derived = basis
                for i in range(m.n):
                    if not (basis >> i) & 1 and not m._independent(basis | (1 << i)):
                        derived |= 1 << i
                assert derived == sp.bits


class TestUnspanned:
    """`_unspanned(bits, within)` is the one span query; on every family and
    every restriction it equals the span built from membership queries alone."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_equals_the_membership_span(self, seed, restricted):
        rng = Random(seed)
        m = random_small_matroid(rng)  # graphic ones often hold loops and parallel edges
        full = (1 << m.n) - 1
        if restricted:
            m = m.restrict(SubsetMask(m.n, rng.randrange(1 << m.n)))
        ground = m.ground_bits
        for _ in range(8):
            bits, within = rng.randrange(full + 1), rng.randrange(full + 1)
            sp = membership_span(m, bits)
            assert m._unspanned(bits, within) == within & ground & ~sp
            assert m.span(SubsetMask(m.n, bits)).bits == sp

    def test_loops_and_parallel_edges(self):
        m = GraphicMatroid(3, [(0, 0), (0, 1), (1, 0), (1, 2)])
        assert m._unspanned(0, 0b1111) == 0b1110  # a loop is in the span of the empty set
        assert m._unspanned(0b0010, 0b1111) == 0b1000  # its parallel twin is spanned
        assert m.span(S(4, 1, 3)) == SubsetMask.full(4)


class TestGreedyFolds:
    """Each family's `greedy_bits` kernel selects what the base class's fold,
    one `span_step` per active arrival, selects."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES), st.booleans(), st.booleans())
    def test_equals_the_span_step_fold(self, seed, family, restricted, partial):
        rng = Random(seed)
        m = random_small_matroid(rng, family=family)  # graphic: loops and parallel edges
        if restricted:
            m = m.restrict(SubsetMask(m.n, rng.randrange(1 << m.n)))
        for _ in range(8):
            order = rng.sample(range(m.n), rng.randint(0, m.n) if partial else m.n)
            a_bits = rng.getrandbits(m.n)  # a partial order leaves some of it out
            assert m.greedy_bits(order, a_bits) == Matroid.greedy_bits(m, order, a_bits)
            if restricted:  # the base fold on the restriction is the parent's on a ∩ X
                want = m.parent.greedy_bits(order, a_bits & m.ground_bits)
                assert m.greedy_bits(order, a_bits) == want

    def test_edge_cases(self):
        loops = GraphicMatroid(3, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)])
        for m in (UniformMatroid(5, 0), UniformMatroid(5, 2), loops, loops.restrict(S(5, 1, 2))):
            for order in ([4, 3, 2, 1, 0], [3, 1], []):
                for a_bits in (0, 0b11111, 0b01010):
                    want = Matroid.greedy_bits(m, order, a_bits)
                    assert m.greedy_bits(order, a_bits) == want
        assert UniformMatroid(5, 0).greedy_bits(range(5), 0b11111) == 0
        assert UniformMatroid(5, 2).greedy_bits([4, 0, 3], 0b11111) == 0b10001
        assert loops.greedy_bits(range(5), 0b11111) == 0b01010


class TestRestriction:
    def test_full_restriction_identical(self, rng):
        m = triangle()
        r = m.restrict(SubsetMask.full(3))
        for s in all_subsets(3):
            assert m.is_independent(s) == r.is_independent(s)
            assert m.span(s) == r.span(s)

    def test_membership_requires_subset_of_ground(self):
        r = UniformMatroid(4, 2).restrict(S(4, 0, 1))
        assert r.is_independent(S(4, 0, 1))
        assert not r.is_independent(S(4, 0, 2))

    def test_triangle_restriction_span_stays_inside(self):
        r = triangle().restrict(S(3, 0, 1))
        assert r.span(S(3, 0, 1)) == S(3, 0, 1)

    def test_span_agreement_on_ground(self, rng):
        for _ in range(25):
            m = random_small_matroid(rng, max_n=6)
            x = SubsetMask(m.n, rng.randrange(1 << m.n))
            r = m.restrict(x)
            for bits in range(1 << m.n):
                y = SubsetMask(m.n, bits & x.bits)
                assert (r.span(y) & x) == (m.span(y) & x)


class TestAxioms:
    def test_uniform_families(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert verify_axioms(UniformMatroid(n, k))

    def test_graphic_families(self, rng):
        for _ in range(10):
            v = rng.randint(2, 5)
            edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 7))]
            assert verify_axioms(GraphicMatroid(v, edges))

    def test_exchange_violation_detected(self):
        # {0,1} and {2} cannot be exchanged: neither {0,2} nor {1,2} present
        bad = ExplicitMatroid(3, [[], [0], [1], [0, 1], [2]])
        assert not verify_axioms(bad)

    def test_downward_closure_violation_detected(self):
        bad = ExplicitMatroid(2, [[], [0, 1]])
        assert not verify_axioms(bad)

    def test_missing_empty_set_detected(self):
        assert not verify_axioms(ExplicitMatroid(2, [[0]]))

    def test_too_large_guard(self):
        with pytest.raises(EnumerationTooLarge):
            verify_axioms(UniformMatroid(17, 2))

    def test_local_exchange_is_full_exchange_on_four_elements(self):
        # Every downward-closed family on 4 elements, against the exchange
        # axiom stated whole: a larger member lends a smaller one an element.
        n = 4
        sets = sorted(range(1, 1 << n), key=popcount)
        families = [{0}]
        for x in sets:  # by size, so a set's subsets are decided before it
            families += [
                fam | {x} for fam in families if all(x ^ 1 << e in fam for e in range(n) if x >> e & 1)
            ]

        def exchange(fam):
            return all(
                any(y | 1 << e in fam for e in range(n) if (x & ~y) >> e & 1)
                for x in fam
                for y in fam
                if popcount(x) > popcount(y)
            )

        verdicts = [verify_axioms(ExplicitMatroid(n, [list(iter_bits(b)) for b in fam])) for fam in families]
        assert verdicts == [exchange(fam) for fam in families]
        assert (len(families), sum(verdicts)) == (167, 68)  # the labelled counts


class TestJson:
    def test_round_trips(self):
        for m in (UniformMatroid(4, 2), triangle(), ExplicitMatroid(2, [[], [0], [1]])):
            again = matroid_from_spec(m.to_spec())
            for bits in range(1 << m.n):
                assert m._independent(bits) == again._independent(bits)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            matroid_from_spec({"type": "laminar"})

    def test_non_matroid_family_rejected_when_read(self):
        # {1} and {0, 2} are listed, but neither {0, 1} nor {1, 2} is.
        sets = [[], [0], [1], [2], [3], [0, 2], [1, 3]]
        assert not verify_axioms(ExplicitMatroid(4, sets))  # built, then rejected
        with pytest.raises(ValueError, match="field 'independent_sets' is not a matroid"):
            matroid_from_spec({"type": "explicit", "n": 4, "independent_sets": sets})
        with pytest.raises(ValueError, match="empty set"):
            matroid_from_spec({"type": "explicit", "n": 2, "independent_sets": [[0]]})
        with pytest.raises(ValueError, match=r"\[0, 1\] is listed but not \[1\]"):
            matroid_from_spec({"type": "explicit", "n": 2, "independent_sets": [[], [0], [0, 1]]})


def _membership_greedy(m, order, a_bits):
    taken = 0
    for e in order:
        if a_bits >> e & 1 and m._independent(taken | 1 << e):
            taken |= 1 << e
    return taken


def test_grower_matches_oracle_greedy(rng):
    # Every family, a random restriction of each, and a graph whose component
    # labels pass one byte; each element is offered twice, in a shuffled stream.
    v = 300
    big = GraphicMatroid(v, [(rng.randrange(v), rng.randrange(v)) for _ in range(60)])
    matroids = [big, big.restrict(SubsetMask(big.n, rng.getrandbits(big.n)))]
    for _ in range(40):
        m = random_small_matroid(rng)
        matroids += [m, m.restrict(SubsetMask(m.n, rng.randrange(1 << m.n)))]
    for m in matroids:
        offers = [*range(m.n)] * 2
        rng.shuffle(offers)
        g = IndependentSetGrower(m)
        cur = 0
        for e in offers:
            expect = not (cur >> e) & 1 and m._independent(cur | (1 << e))
            assert g.try_add(e) == expect
            if expect:
                cur |= 1 << e
        assert g.bits == cur
        order = rng.sample(range(m.n), m.n)
        a_bits = rng.getrandbits(m.n)
        assert greedy_ordered_bits(m, order, a_bits) == _membership_greedy(m, order, a_bits)
