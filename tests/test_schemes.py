from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from ocrs import (
    IndependentSubsampling,
    OrderedGreedy,
    Permutation,
    PermutationMixture,
    PrefixSubsampling,
    SubsetMask,
    UniformMatroid,
    WeightMixture,
    build_independent_subsampling_scheme,
    build_prefix_subsampling_scheme,
    gen_kuniform_allactive,
    greedy_ordered,
    measure_competitiveness,
    order_by_weight,
    scheme_from_spec,
    secretary_wrap,
)
from ocrs.schemes import greedy_ordered_bits, secretary_wrap_bits

from conftest import random_explicit_prior, random_small_matroid, triangle


def S(n, *elems):
    return SubsetMask.from_elements(n, elems)


class TestGreedyOrdered:
    def test_empty_active_set(self):
        m = UniformMatroid(3, 2)
        assert greedy_ordered(m, Permutation.identity(3), SubsetMask.empty(3)) == SubsetMask.empty(3)

    def test_first_active_wins_on_one_uniform(self):
        m = UniformMatroid(4, 1)
        out = greedy_ordered(m, Permutation.identity(4), S(4, 1, 3))
        assert out == S(4, 1)

    def test_triangle_third_edge_closes_cycle(self):
        out = greedy_ordered(triangle(), Permutation([0, 1, 2]), SubsetMask.full(3))
        assert out == S(3, 0, 1)

    def test_order_matters(self):
        out = greedy_ordered(triangle(), Permutation([2, 1, 0]), SubsetMask.full(3))
        assert out == S(3, 2, 1)


class TestFeasibility:
    def test_every_scheme_output_feasible(self, rng):
        for _ in range(25):
            m = random_small_matroid(rng, max_n=7)
            if m.n < 1:
                continue
            p = random_explicit_prior(rng, m.n)
            order = Permutation(sorted(range(m.n), key=lambda e: rng.random()))
            schemes = [
                OrderedGreedy(order),
                IndependentSubsampling(order, Fraction(1, 3)),
                PrefixSubsampling(order),
                PermutationMixture([(order, Fraction(1, 2)), (Permutation.identity(m.n), Fraction(1, 2))]),
                WeightMixture("greedy_by_weight", [(tuple(rng.randint(0, 5) for _ in range(m.n)), 1)]),
            ]
            for scheme in schemes:
                for _ in range(10):
                    a = p.sample(rng)
                    x = scheme.run(m, a, rng)
                    assert x.issubset(a)
                    assert m.is_independent(x)


class TestOnlineConsistency:
    def test_decisions_depend_only_on_revealed_prefix(self):
        # Same scheme randomness, two active sets agreeing on the first k
        # arrivals: the selections among those k arrivals must agree.
        m = triangle()
        order = Permutation([2, 0, 1])
        scheme = IndependentSubsampling(order, Fraction(1, 2))
        for seed in range(30):
            for k in range(1, 4):
                head = order.first_bits(k)
                a1 = Random(seed).randrange(8)
                a2 = (a1 & head) | (Random(seed + 100).randrange(8) & ~head)
                x1 = scheme.run_bits(m, a1, Random(777 + seed))
                x2 = scheme.run_bits(m, a2, Random(777 + seed))
                assert x1 & head == x2 & head


class TestSubsamplingSchemes:
    def test_alpha_zero_selects_nothing(self, rng):
        inst = gen_kuniform_allactive(3, 1)
        scheme = build_independent_subsampling_scheme(inst.matroid, inst.prior, 0, rng)
        chosen = SubsetMask(3, scheme.run_bits(inst.matroid, inst.prior.sample_bits(rng), rng))
        assert chosen == SubsetMask.empty(3)

    def test_round_returns_order_and_feasible_set(self, rng):
        inst = gen_kuniform_allactive(4, 2)
        from ocrs import PreselectConfig

        cfg = PreselectConfig(alpha=0.5, mode="exact")
        scheme = build_prefix_subsampling_scheme(
            inst.matroid, inst.prior, Fraction(1, 2), rng, cfg=cfg
        )
        order = scheme.order
        chosen = SubsetMask(4, scheme.run_bits(inst.matroid, inst.prior.sample_bits(rng), rng))
        assert sorted(order.order) == [0, 1, 2, 3]
        assert chosen.cardinality() <= 2

    def test_supplied_order_is_used(self, rng):
        inst = gen_kuniform_allactive(3, 1)
        pi = Permutation([2, 1, 0])
        scheme = build_independent_subsampling_scheme(
            inst.matroid, inst.prior, Fraction(1, 2), rng, order=pi
        )
        assert scheme.order == pi
        assert scheme.rho == Fraction(1, 4)


class TestPermutationMixture:
    def test_singleton_mixture_is_greedy(self, rng):
        m = triangle()
        pi = Permutation([1, 2, 0])
        mix = PermutationMixture([(pi, 1)])
        for _ in range(20):
            a = rng.randrange(8)
            assert mix.run_bits(m, a, rng) == greedy_ordered_bits(m, pi.order, a)

    def test_single_element(self, rng):
        m = UniformMatroid(1, 1)
        mix = PermutationMixture([(Permutation([0]), 1)])
        assert mix.run_bits(m, 0b1, rng) == 0b1

    def test_uniform_two_orders_balances_two_elements(self, rng):
        m = UniformMatroid(2, 1)  # both singletons independent, pair is not
        mix = PermutationMixture(
            [(Permutation([0, 1]), Fraction(1, 2)), (Permutation([1, 0]), Fraction(1, 2))]
        )
        counts = [0, 0]
        trials = 20000
        for _ in range(trials):
            x = mix.run_bits(m, 0b11, rng)
            for e in range(2):
                counts[e] += (x >> e) & 1
        for e in range(2):
            assert abs(counts[e] / trials - 0.5) < 0.02

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            PermutationMixture([(Permutation([0, 1]), 0.7), (Permutation([1, 0]), 0.7)])
        with pytest.raises(ValueError):
            PermutationMixture([])


class TestOrderByWeight:
    def test_sorts_descending(self):
        assert order_by_weight((0.2, 0.7, 0.5)).order == (1, 2, 0)

    def test_ties_ascending_index(self):
        assert order_by_weight((0, 0, 0)).order == (0, 1, 2)
        assert order_by_weight((1, 2, 2, 1)).order == (1, 2, 0, 3)


class TestSecretaryWrap:
    def test_empty_active_set_selects_nothing(self, rng):
        m = UniformMatroid(3, 1)
        out = secretary_wrap("greedy_by_weight", (3, 1, 2), m, SubsetMask.empty(3), rng)
        assert out == SubsetMask.empty(3)

    def test_greedy_by_weight_takes_max(self, rng):
        m = UniformMatroid(3, 1)
        out = secretary_wrap("greedy_by_weight", (3, 1, 2), m, SubsetMask.full(3), rng)
        assert out == S(3, 0)

    def test_greedy_by_weight_attains_weighted_rank(self, rng):
        for _ in range(40):
            m = random_small_matroid(rng, max_n=7)
            p = random_explicit_prior(rng, m.n)
            w = tuple(Fraction(rng.randint(0, 9)) for _ in range(m.n))
            a = p.sample(rng)
            out = secretary_wrap("greedy_by_weight", w, m, a, rng)
            assert sum(w[e] for e in out) == m.weighted_rank(w, a)

    def test_zero_weights_never_selected(self, rng):
        m = UniformMatroid(3, 2)
        for kind in ("greedy_by_weight", "classic_1uniform"):
            out = secretary_wrap(kind, (0, 0, 0), m, SubsetMask.full(3), rng)
            assert out == SubsetMask.empty(3)


class TestGreedyOrderDominance:
    def test_weight_order_maximizes_expected_weight(self, rng):
        # Among all fixed orders, the decreasing-weight order achieves the
        # largest expected selected weight; exact over explicit supports.
        for _ in range(8):
            m = random_small_matroid(rng, max_n=5)
            if m.n > 5 or m.n < 2:
                continue
            p = random_explicit_prior(rng, m.n)
            w = [Fraction(rng.randint(0, 8)) for _ in range(m.n)]
            best_order = order_by_weight(w).order

            def expected_weight(order):
                tot = Fraction(0)
                for atom, prob in p.support():
                    sel = greedy_ordered_bits(m, order, atom)
                    tot += prob * sum(w[e] for e in range(m.n) if (sel >> e) & 1)
                return tot

            best = expected_weight(best_order)
            exact_rank = sum(
                prob * m.weighted_rank(w, SubsetMask(m.n, atom)) for atom, prob in p.support()
            )
            assert best == exact_rank
            for order in permutations(range(m.n)):
                assert expected_weight(order) <= best


class TestClassicSecretary:
    def test_accepts_at_most_one_on_one_uniform(self, rng):
        m = UniformMatroid(6, 1)
        for _ in range(100):
            out = secretary_wrap_bits(
                "classic_1uniform", tuple(rng.random() for _ in range(6)), m, 0b111111, rng
            )
            assert bin(out).count("1") <= 1

    def test_competitiveness_beats_one_over_e(self):
        m = UniformMatroid(5, 1)
        c = measure_competitiveness(
            m, "classic_1uniform", (0.9, 0.4, 1.3, 0.7, 1.1), 20000, Random(21)
        )
        assert c >= 1 / 2.718281828 - 0.03

    def test_greedy_by_weight_is_one_competitive(self):
        m = UniformMatroid(4, 2)
        c = measure_competitiveness(m, "greedy_by_weight", (1, 3, 2, 5), 50, Random(2))
        assert c == 1.0


class TestWeightMixture:
    def test_degenerate_mixture_is_wrap(self, rng):
        m = UniformMatroid(3, 1)
        w = (2, 5, 1)
        mix = WeightMixture("greedy_by_weight", [(w, 1)])
        for _ in range(20):
            a = rng.randrange(8)
            assert mix.run_bits(m, a, rng) == secretary_wrap_bits(
                "greedy_by_weight", w, m, a, rng
            )

    def test_zero_weight_component_contributes_nothing(self, rng):
        m = UniformMatroid(2, 1)
        mix = WeightMixture("greedy_by_weight", [((0, 0), Fraction(1, 2)), ((1, 0), Fraction(1, 2))])
        seen_empty = seen_zero_select = 0
        for _ in range(200):
            x = mix.run_bits(m, 0b11, rng)
            assert x in (0, 0b01)
            seen_empty += x == 0
        assert seen_empty > 0

    def test_unknown_secretary_rejected(self):
        with pytest.raises(ValueError):
            WeightMixture("dynkin", [((1,), 1)])


def test_scheme_json_round_trips(rng):
    order = Permutation([2, 0, 1])
    schemes = [
        OrderedGreedy(order),
        IndependentSubsampling(order, Fraction(1, 4)),
        PrefixSubsampling(order),
        PermutationMixture([(order, Fraction(1, 3)), (Permutation.identity(3), Fraction(2, 3))]),
        WeightMixture("greedy_by_weight", [((Fraction(1, 2), Fraction(0), Fraction(1)), 1)]),
    ]
    m = UniformMatroid(3, 2)
    for scheme in schemes:
        again = scheme_from_spec(scheme.to_spec())
        for seed in range(10):
            a = Random(seed).randrange(8)
            assert scheme.run_bits(m, a, Random(seed + 50)) == again.run_bits(
                m, a, Random(seed + 50)
            )
