import math
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
    PreselectConfig,
    SubsetMask,
    UniformMatroid,
    WeightMixture,
    gen_kuniform_allactive,
    measure_competitiveness,
    order_by_weight,
    preselect_prefix,
    scheme_from_spec,
)
from ocrs import schemes
from ocrs.bitset import mask_of
from ocrs.sampling import draw_index, shuffled, t_rho_bits
from ocrs.schemes import (
    by_weight_arrivals,
    greedy_ordered_bits,
    secretary_wrap_bits,
)

from conftest import NoDraws, random_explicit_prior, random_small_matroid, triangle


def S(n, *elems):
    return SubsetMask.from_elements(n, elems)


class TestGreedyOrdered:
    def test_empty_active_set(self):
        m = UniformMatroid(3, 2)
        assert greedy_ordered_bits(m, range(3), 0) == 0

    def test_first_active_wins_on_one_uniform(self):
        m = UniformMatroid(4, 1)
        out = SubsetMask(4, greedy_ordered_bits(m, range(4), S(4, 1, 3).bits))
        assert out == S(4, 1)

    def test_triangle_third_edge_closes_cycle(self):
        out = SubsetMask(3, greedy_ordered_bits(triangle(), [0, 1, 2], 0b111))
        assert out == S(3, 0, 1)

    def test_order_matters(self):
        out = SubsetMask(3, greedy_ordered_bits(triangle(), [2, 1, 0], 0b111))
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
                head = mask_of(order.order[:k])
                a1 = Random(seed).randrange(8)
                a2 = (a1 & head) | (Random(seed + 100).randrange(8) & ~head)
                x1 = scheme.run_bits(m, a1, Random(777 + seed))
                x2 = scheme.run_bits(m, a2, Random(777 + seed))
                assert x1 & head == x2 & head


class TestSubsamplingSchemes:
    def test_alpha_zero_selects_nothing(self, rng):
        # rho = 0 keeps no element, so any order will do: no preselection.
        inst = gen_kuniform_allactive(3, 1)
        scheme = IndependentSubsampling(Permutation.identity(3), 0)
        chosen = SubsetMask(3, scheme.run_bits(inst.matroid, inst.prior.sample_bits(rng), rng))
        assert chosen == SubsetMask.empty(3)

    def test_round_returns_order_and_feasible_set(self, rng):
        inst = gen_kuniform_allactive(4, 2)
        cfg = PreselectConfig(alpha=Fraction(1, 2), mode="exact")
        scheme = PrefixSubsampling(preselect_prefix(inst.matroid, inst.prior, cfg, rng))
        order = scheme.order
        chosen = SubsetMask(4, scheme.run_bits(inst.matroid, inst.prior.sample_bits(rng), rng))
        assert sorted(order.order) == [0, 1, 2, 3]
        assert chosen.cardinality() <= 2

    def test_supplied_order_is_used(self, rng):
        # A supplied order skips preselection and runs with the config's alpha/2 thinning.
        inst = gen_kuniform_allactive(3, 1)
        pi = Permutation([2, 1, 0])
        cfg = PreselectConfig(alpha=Fraction(1, 2), mode="exact")
        scheme = IndependentSubsampling(pi, cfg.alpha / 2)
        assert scheme.order == pi
        assert scheme.rho == Fraction(1, 4)
        a = inst.prior.sample_bits(rng)
        for seed in range(30):
            t = t_rho_bits(0b111, scheme.rho, Random(seed))
            expected = greedy_ordered_bits(inst.matroid, pi.order, a & t)
            assert scheme.run_bits(inst.matroid, a, Random(seed)) == expected


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
        assert secretary_wrap_bits("greedy_by_weight", (3, 1, 2), m, 0, rng) == 0

    def test_greedy_by_weight_takes_max(self, rng):
        m = UniformMatroid(3, 1)
        out = SubsetMask(3, secretary_wrap_bits("greedy_by_weight", (3, 1, 2), m, 0b111, rng))
        assert out == S(3, 0)

    def test_greedy_by_weight_attains_weighted_rank(self, rng):
        for _ in range(40):
            m = random_small_matroid(rng, max_n=7)
            p = random_explicit_prior(rng, m.n)
            w = tuple(Fraction(rng.randint(0, 9)) for _ in range(m.n))
            a = p.sample(rng)
            out = SubsetMask(m.n, secretary_wrap_bits("greedy_by_weight", w, m, a.bits, rng))
            assert sum(w[e] for e in out) == m.weighted_rank(w, a)

    def test_greedy_by_weight_fold_equals_its_stream(self, rng):
        # The fold along the positive weights selects what a streaming greedy
        # selects when every element arrives by decreasing weight with
        # inactive ones at weight 0; zeros and ties included.
        for _ in range(200):
            m = random_small_matroid(rng)
            w = [Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(m.n)]
            a_bits = rng.getrandbits(m.n)
            streamed = 0
            for e in sorted(range(m.n), key=lambda e: (-w[e], e)):
                we = w[e] if a_bits >> e & 1 else 0
                if we > 0 and m.is_independent(SubsetMask(m.n, streamed | 1 << e)):
                    streamed |= 1 << e
            arrivals = by_weight_arrivals(w)
            assert secretary_wrap_bits("greedy_by_weight", w, m, a_bits, None) == streamed
            assert secretary_wrap_bits("greedy_by_weight", w, m, a_bits, None, arrivals) == streamed

    def test_zero_weights_never_selected(self, rng):
        m = UniformMatroid(3, 2)
        for kind in ("greedy_by_weight", "classic_1uniform"):
            assert secretary_wrap_bits(kind, (0, 0, 0), m, 0b111, rng) == 0


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


class _BitsOnlyRandom(Random):
    """Draws through an overridden getrandbits, as a counting rng does."""

    def getrandbits(self, k):
        return super().getrandbits(k)


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

    def test_observed_best_is_compared_exactly(self):
        # UniformMatroid(3, 1) observes one arrival. 1/3 + 10^-20 and 1/3 are
        # the same float, so a float comparison took the second arrival.
        # Random(5) shuffles range(3) to the identity, so 0 is the one observed.
        w = (Fraction(1, 3) + Fraction(1, 10**20), Fraction(1, 3), Fraction(1, 2))
        out = secretary_wrap_bits("classic_1uniform", w, UniformMatroid(3, 1), 0b111, Random(5))
        assert out == 0b100

    @pytest.mark.parametrize("rng_cls", [Random, _BitsOnlyRandom])
    def test_same_selection_and_stream_as_the_streaming_rule(self, rng_cls):
        # Reference: arrivals in `shuffled` order, inactive ones at
        # weight 0; observe floor(n/e), then take each that is positive, at
        # least the best seen and keeps the set independent.
        for seed in range(300):
            gen = Random(seed)
            m = random_small_matroid(gen)
            w = [Fraction(gen.randint(0, 3), gen.randint(1, 2)) for _ in range(m.n)]
            a_bits = gen.getrandbits(m.n)
            ours, ref = rng_cls(seed), rng_cls(seed)
            got = secretary_wrap_bits("classic_1uniform", w, m, a_bits, ours)
            observe, best, want = math.floor(m.n / math.e), 0, 0
            for seen, e in enumerate(shuffled(range(m.n), ref)):
                we = w[e] if a_bits >> e & 1 else 0
                if seen < observe:
                    best = max(best, we)
                elif we > 0 and we >= best and m.is_independent(SubsetMask(m.n, want | 1 << e)):
                    want |= 1 << e
            assert got == want
            assert ours.getstate() == ref.getstate()

    def test_seeded_values_and_one_sort(self, monkeypatch):
        # The tally counts through an all-active prior, which draws nothing,
        # so the seeded values are those of a per-trial loop; the one-vector
        # mixture sorts its arrivals once per measurement, not once per trial.
        sort = schemes.by_weight_arrivals
        sorts = []
        monkeypatch.setattr(schemes, "by_weight_arrivals", lambda w: sorts.append(w) or sort(w))
        w = (5, 1, 4, 2, 3, 6)
        for k, value in ((1, 0.6146666666666667), (2, 0.5249090909090909)):
            m = UniformMatroid(6, k)
            assert measure_competitiveness(m, "classic_1uniform", w, 500, Random(11)) == value
            assert measure_competitiveness(m, "greedy_by_weight", w, 500, Random(11)) == 1.0
        assert sorts == [w] * 4

    def test_greedy_by_weight_is_one_competitive(self):
        m = UniformMatroid(4, 2)
        c = measure_competitiveness(m, "greedy_by_weight", (1, 3, 2, 5), 50, Random(2))
        assert c == 1.0

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("w", [(0.9, 0.4, 1.3, 0.7, 1.1), (0.1, 0.2, 0.7), (0.3, 0.3, 0.3)])
    def test_float_weights_are_summed_exactly(self, w, k):
        # Summed as floats, (0.9, 0.4, 1.3, 0.7, 1.1) at k = 2 over 1,000 trials
        # read 1.0000000000000187, outside the (0, 1] a claimed competitiveness takes.
        m = UniformMatroid(len(w), k)
        assert measure_competitiveness(m, "greedy_by_weight", w, 1000, Random(2)) == 1.0

    def test_competitiveness_refusals(self):
        m = UniformMatroid(3, 1)
        with pytest.raises(ValueError, match="unknown secretary kind 'nope'"):
            measure_competitiveness(m, "nope", (1, 2, 3), 10, NoDraws())
        with pytest.raises(ValueError, match="offline optimum is zero"):
            measure_competitiveness(m, "greedy_by_weight", (0, 0, 0), 10, NoDraws())
        for trials in (0, -1):  # 0 divided Fraction(0) by 0 trials
            with pytest.raises(ValueError, match="at least one trial"):
                measure_competitiveness(m, "greedy_by_weight", (1, 2, 3), trials, NoDraws())


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

    def test_columns_sorted_once_select_as_a_per_call_sort(self, rng, monkeypatch):
        # Each column's arrivals are sorted once, on its first use: runs and
        # outcomes then select what `secretary_wrap_bits` selects sorting per
        # call, on the same stream, and no later run or atom sorts again.
        sorts = []

        def counted(w):
            sorts.append(w)
            return by_weight_arrivals(w)

        monkeypatch.setattr("ocrs.schemes.by_weight_arrivals", counted)
        for _ in range(60):
            m = random_small_matroid(rng, max_n=6)
            columns = [
                tuple(Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(m.n))
                for _ in range(rng.randint(1, 4))
            ]
            weights = [Fraction(rng.randint(1, 3)) for _ in columns]
            mix = WeightMixture(
                "greedy_by_weight", [(c, wt / sum(weights)) for c, wt in zip(columns, weights)]
            )
            assert sorts == []  # nothing is sorted at construction
            for a_bits in range(1 << m.n):
                seed = rng.getrandbits(32)
                ours, ref = Random(seed), Random(seed)
                got = list(mix.outcomes(m, a_bits)), mix.run_bits(m, a_bits, ours)
                assert sorts == (columns if a_bits == 0 else [])
                want = [
                    (wt, secretary_wrap_bits("greedy_by_weight", wv, m, a_bits, None))
                    for wv, wt in mix.components
                ]
                wv = mix.components[draw_index(mix._cdf, ref)][0]
                assert got == (want, secretary_wrap_bits("greedy_by_weight", wv, m, a_bits, ref))
                assert ours.getstate() == ref.getstate()
                del sorts[:]


@pytest.mark.parametrize(
    "call, bad",
    [(lambda: IndependentSubsampling(Permutation.identity(2), Fraction(3, 2)), "3/2"),
     (lambda: IndependentSubsampling(Permutation.identity(2), -0.5), "-0.5"),
     (lambda: scheme_from_spec({"kind": "magic", "order": [0, 1]}), "'magic'")],
    ids=["rho-past-1", "rho-negative", "unknown-kind"],
)
def test_input_checks_name_the_bad_value(call, bad):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and bad in str(info.value)


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
