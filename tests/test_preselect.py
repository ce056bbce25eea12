import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import (
    ExplicitPrior,
    GraphicMatroid,
    IndependentSubsampling,
    NoQualifyingElement,
    PreselectConfig,
    PrefixSubsampling,
    SubsetMask,
    UniformMatroid,
    count_span_stats_independent,
    count_span_stats_prefix,
    gen_kuniform_allactive,
    gen_parallel_hats,
    preselect_independent,
    preselect_prefix,
    sample_size,
    two_element_instance,
)
from ocrs import preselect, priors
from ocrs.harness import hoeffding_halfwidth, parse_instance
from ocrs.oracle import exact_balancedness, max_uncontentious_alpha
from ocrs.preselect import (
    exact_unspanned_prob_independent,
    exact_unspanned_prob_prefix,
)
from ocrs.priors import AllActivePrior, EnumerationTooLarge, ProductPrior, SamplerPrior

from conftest import NoDraws, random_explicit_prior, random_small_matroid
from span_stats_reference import reference_span_stats_independent, reference_span_stats_prefix


def test_sample_size_formula():
    # ceil(128 ln(4n/eps) / (alpha^2 eps^2 p_min)), evaluated independently
    expected = math.ceil(128 * math.log(4 * 10 / 0.25) / (0.5**2 * 0.25**2 * 1.0))
    assert sample_size(10, 0.5, 0.25, 1.0) == expected == 41576
    assert sample_size(5, 1.0, 1.0, 0.5) == math.ceil(128 * math.log(20) / 0.5)


class TestCountStatsIndependent:
    def test_rho_zero_nothing_spanned(self, rng):
        m = UniformMatroid(4, 2)
        act, unspanned = count_span_stats_independent(
            m, AllActivePrior(4), SubsetMask.full(4), 0.0, 50, rng
        )
        assert act == [50] * 4
        assert unspanned == [50] * 4

    def test_rho_one_everything_spanned(self, rng):
        m = UniformMatroid(3, 1)
        act, unspanned = count_span_stats_independent(
            m, AllActivePrior(3), SubsetMask.full(3), 1.0, 40, rng
        )
        assert act == [40] * 3
        assert unspanned == [0] * 3

    def test_two_element_exact_value_and_counters(self, rng):
        inst = two_element_instance()
        q = exact_unspanned_prob_independent(
            inst.matroid, inst.prior, SubsetMask.full(2), 0, Fraction(1, 4)
        )
        assert q == Fraction(9, 16)
        trials = 20000
        act, unspanned = count_span_stats_independent(
            inst.matroid, inst.prior, SubsetMask.full(2), 0.25, trials, rng
        )
        for j in range(2):
            rate = unspanned[j] / act[j]
            band = 4 * math.sqrt(0.25 / act[j]) + 0.01
            assert abs(rate - 9 / 16) < band

    def test_restricted_to_s(self, rng):
        # span is computed inside S only: with S={0}, element 0 escapes
        # whenever it is dropped, regardless of element 1
        m = UniformMatroid(2, 1)
        act, unspanned = count_span_stats_independent(
            m, AllActivePrior(2), SubsetMask.from_elements(2, [0]), 1.0, 30, rng
        )
        assert act[1] == 30  # activations are counted everywhere
        assert unspanned[1] == 0  # escapes are credited only inside S
        assert unspanned[0] == 0  # rho=1 keeps 0 itself, which spans itself


class TestAgainstReferenceLoops:
    """On S the span statistics count what per-trial loops count from
    membership queries alone, on the same random stream: the independent one
    on the same batch words (in batches of 7, 16 or the default), the prefix
    one on the same per-draw sets and orders."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_same_counts_and_same_stream(self, seed, product, prefix):
        rng = Random(seed)
        M = random_small_matroid(rng, max_n=7)
        n = M.n
        if product:
            P = ProductPrior([Fraction(rng.randint(0, 4), 4) for _ in range(n)])
        else:
            P = random_explicit_prior(rng, n)
        S = SubsetMask(n, rng.randrange(1 << n))
        m = rng.randint(0, 40)
        draws = rng.randrange(2**32)
        ours, ref = Random(draws), Random(draws)
        if prefix:
            act, unspanned = count_span_stats_prefix(M, P, S, m, ours)
            want = reference_span_stats_prefix(M, P, S, m, ref)
        else:
            rho = rng.choice([0.0, 0.25, 0.5, rng.random(), 1.0])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(priors, "TRIAL_BATCH", rng.choice([7, 16, priors.TRIAL_BATCH]))
                act, unspanned = count_span_stats_independent(M, P, S, rho, m, ours)
                want = reference_span_stats_independent(M, P, S, rho, m, ref)
        assert [act[j] for j in S] == [want.m[j] for j in S]
        assert unspanned == want.k  # never credited outside S
        assert ours.getstate() == ref.getstate()


class TestExactProbabilities:
    def test_one_uniform_closed_form(self):
        # thinning the whole remaining set: escape iff nothing survives
        n = 4
        m = UniformMatroid(n, 1)
        prior = AllActivePrior(n)
        rho = Fraction(1, 8)
        for i_sz in range(1, n + 1):
            s = SubsetMask(n, (1 << i_sz) - 1)
            q = exact_unspanned_prob_independent(m, prior, s, 0, rho)
            assert q == (1 - rho) ** i_sz

    def test_prefix_uniform_law(self):
        # k-uniform all-active: escape iff the prefix holds < k elements
        for n, k in ((4, 2), (5, 3)):
            inst = gen_kuniform_allactive(n, k)
            for i_sz in range(1, n + 1):
                s = SubsetMask(n, (1 << i_sz) - 1)
                q = exact_unspanned_prob_prefix(inst.matroid, inst.prior, s, 0)
                assert q == Fraction(min(k, i_sz), i_sz)

    def test_independent_enumeration_guard(self):
        # The span scan's budget is the one limit: 14 uniform elements hold
        # at most k + 1 states and are exact (escape iff j and all but at most
        # one of the 13 others are thinned away); 8 hats, all active, refuse.
        inst = gen_kuniform_allactive(14, 2)
        q = exact_unspanned_prob_independent(
            inst.matroid, inst.prior, SubsetMask.full(14), 0, Fraction(1, 2)
        )
        assert q == Fraction(1, 2) * Fraction(1 + 13, 2**13)
        hats = gen_parallel_hats(Fraction(1, 2), m_override=8)
        with pytest.raises(EnumerationTooLarge, match="budget"):
            exact_unspanned_prob_independent(
                hats.matroid, hats.prior, SubsetMask.full(hats.matroid.n), 0, Fraction(1, 4)
            )

    def test_prefix_enumeration_guard(self):
        inst = gen_kuniform_allactive(15, 2)  # the law is drawn on the 14 others
        q = exact_unspanned_prob_prefix(inst.matroid, inst.prior, SubsetMask.full(15), 0)
        assert q == Fraction(2, 15)  # min(k, |S|) / |S|, as on small S
        hats = gen_parallel_hats(Fraction(1, 2), m_override=8)
        with pytest.raises(EnumerationTooLarge, match="budget"):
            exact_unspanned_prob_prefix(
                hats.matroid, hats.prior, SubsetMask.full(hats.matroid.n), 0
            )

    def test_opaque_prior_rejected(self):
        p = SamplerPrior(3, lambda r: 0b111)
        with pytest.raises(EnumerationTooLarge):
            exact_unspanned_prob_independent(
                UniformMatroid(3, 1), p, SubsetMask.full(3), 0, Fraction(1, 2)
            )


class TestPreselectExact:
    def test_one_uniform_all_active_succeeds(self, rng):
        n = 5
        inst = gen_kuniform_allactive(n, 1)
        cfg = PreselectConfig(alpha=1 / n, mode="exact")
        order = preselect_independent(inst.matroid, inst.prior, cfg, rng)
        assert sorted(order.order) == list(range(n))

    def test_trivial_single_element(self, rng):
        m = UniformMatroid(1, 1)
        cfg = PreselectConfig(alpha=1.0, mode="exact")
        assert preselect_prefix(m, AllActivePrior(1), cfg, rng).order == (0,)

    def test_two_element_instance_both_modes(self, rng):
        inst = two_element_instance()
        cfg = PreselectConfig(alpha=0.5, mode="exact")
        assert sorted(preselect_independent(inst.matroid, inst.prior, cfg, rng).order) == [0, 1]
        assert sorted(preselect_prefix(inst.matroid, inst.prior, cfg, rng).order) == [0, 1]

    def test_unreachable_alpha_raises(self, rng):
        inst = two_element_instance()
        cfg = PreselectConfig(alpha=0.99, mode="exact")
        with pytest.raises(NoQualifyingElement) as exc:
            preselect_independent(inst.matroid, inst.prior, cfg, rng)
        assert exc.value.step == 2
        assert exc.value.suffix == []
        assert str(exc.value) == "no qualifying element at step 2 (no position filled yet)"

    @pytest.mark.parametrize("law, n", [("independent", 15), ("prefix", 15)])
    def test_oversized_atom_fails_before_any_statistic(self, monkeypatch, law, n):
        # A star's edges are independent, so a span scan over all n of them
        # holds 2^t states at step t and passes the budget: the first
        # statistic refuses before it answers and before any draw, and auto
        # falls back onto the stream a Monte-Carlo run sees.
        M = GraphicMatroid(n + 1, [(0, v) for v in range(1, n + 1)])
        P = ExplicitPrior(n, [({0}, Fraction(1, 2)), (range(n), Fraction(1, 2))])
        answered = []
        stat = getattr(preselect, "exact_unspanned_prob_" + law)

        def counted(*args):
            q = stat(*args)
            answered.append(q)
            return q

        monkeypatch.setattr(preselect, "exact_unspanned_prob_" + law, counted)
        run = getattr(preselect, "preselect_" + law)
        with pytest.raises(EnumerationTooLarge, match="budget"):
            run(M, P, PreselectConfig(alpha=Fraction(1, 2), mode="exact"), NoDraws())
        assert answered == []

        def outcome(mode):
            cfg = PreselectConfig(alpha=Fraction(1, 2), mode=mode, sample_override=50)
            try:
                return run(M, P, cfg, Random(4)).order
            except NoQualifyingElement as err:
                return err.step, err.suffix

        assert outcome("auto") == outcome("mc")
        assert answered == []

    def test_never_active_element_takes_the_front(self):
        # Element 1 is never active, so it never qualifies and never changes
        # element 0's statistic: 0 fills the last slot, 1 the one left over.
        m = UniformMatroid(2, 1)
        p = ExplicitPrior(2, [(0b01, 1)])
        for mode in ("exact", "mc"):
            cfg = PreselectConfig(alpha=0.5, mode=mode, sample_override=200)
            assert preselect_independent(m, p, cfg, Random(1)).order == (1, 0)
            assert preselect_prefix(m, p, cfg, Random(1)).order == (1, 0)

    @pytest.mark.parametrize("law", ["independent", "prefix"])
    @pytest.mark.parametrize("n", [9, 13, 14, 30])
    def test_takes_the_atoms_exact_balancedness_takes(self, law, n):
        # One limit, the span scan's budget: exact preselection succeeds
        # exactly when the exact evaluation of the scheme it builds does.
        # Uniform atoms hold at most k + 1 states, so both take every n here,
        # though the prefix statistic scans the atom less its candidate.
        inst = gen_kuniform_allactive(n, n // 2)
        M, P, alpha = inst.matroid, inst.prior, inst.declared_alpha
        run = getattr(preselect, "preselect_" + law)
        order = run(M, P, PreselectConfig(alpha=alpha, mode="exact"), NoDraws())
        if law == "independent":
            scheme, floor = IndependentSubsampling(order, alpha / 2), 4
        else:
            scheme, floor = PrefixSubsampling(order), 2
        assert min(exact_balancedness(M, scheme, P)) >= alpha * alpha / floor

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_orders_at_alpha_star_meet_the_floors(self, seed, never):
        # Preselected at alpha*, thinning at rho = alpha*/2 is alpha*^2/4-balanced
        # and the random prefix alpha*^2/2-balanced, exactly. never: a marginal
        # leaves the elements outside a random nonempty set never active, and
        # they take the front positions.
        rng = Random(seed)
        M = random_small_matroid(rng, max_n=6)
        n = M.n
        P = random_explicit_prior(rng, n)
        live = rng.randrange(1, 1 << n) if never else (1 << n) - 1
        P = P.marginal(SubsetMask(n, live))
        alpha = max_uncontentious_alpha(M, P).alpha_star
        # Every live element is active somewhere, so only a live loop is never selected.
        loops = [e for e in range(n) if live >> e & 1 and not M._independent(1 << e)]
        assert (alpha == 0) == bool(loops)
        if alpha == 0:
            return
        cfg = PreselectConfig(alpha=alpha, mode="exact")
        front = [e for e in range(n) if not live >> e & 1]
        for run, scheme, floor in (
            (preselect_independent, lambda order: IndependentSubsampling(order, alpha / 2), 4),
            (preselect_prefix, PrefixSubsampling, 2),
        ):
            order = run(M, P, cfg, rng)
            assert list(order.order[: len(front)]) == front
            bal = exact_balancedness(M, scheme(order), P)
            assert min(b for b in bal if b is not None) >= alpha * alpha / floor


class TestPreselectMonteCarlo:
    def test_kuniform_succeeds(self):
        inst = gen_kuniform_allactive(4, 2)
        cfg = PreselectConfig(alpha=0.5, eps=0.5, sample_override=2000)
        order = preselect_independent(inst.matroid, inst.prior, cfg, Random(3))
        assert sorted(order.order) == [0, 1, 2, 3]
        order2 = preselect_prefix(inst.matroid, inst.prior, cfg, Random(3))
        assert sorted(order2.order) == [0, 1, 2, 3]

    def test_reproducible_for_fixed_seed(self):
        inst = gen_kuniform_allactive(5, 2)
        cfg = PreselectConfig(alpha=0.4, eps=0.5, sample_override=500)
        a = preselect_independent(inst.matroid, inst.prior, cfg, Random(9))
        b = preselect_independent(inst.matroid, inst.prior, cfg, Random(9))
        assert a == b

    def test_dead_element_raises_with_partial_order(self):
        # An opaque prior does not know element 1 is dead, so it stays in
        # play, is never sampled and never qualifies.
        m = UniformMatroid(2, 1)
        p = SamplerPrior(2, lambda r: 0b01)
        cfg = PreselectConfig(alpha=0.5, eps=0.5, sample_override=200)
        with pytest.raises(NoQualifyingElement) as exc:
            preselect_independent(m, p, cfg, Random(1))
        assert exc.value.step == 1
        assert exc.value.suffix == [0]
        assert str(exc.value) == "no qualifying element at step 1 (positions 1..1 filled)"

    def test_monte_carlo_soundness_over_seed_battery(self):
        # On the tight all-active instances, the per-step failure rate of
        # Monte-Carlo preselection stays within the eps/4 budget (plus the
        # slack bought by the reduced sample count). The margins here are
        # wide, so 100 seeded runs should essentially never fail.
        eps = 0.5
        failures = 0
        runs = 100
        for seed in range(runs):
            for inst in (gen_kuniform_allactive(6, 3), gen_parallel_hats(Fraction(1, 2), m_override=2)):
                cfg = PreselectConfig(
                    alpha=float(inst.declared_alpha), eps=eps, sample_override=400
                )
                try:
                    preselect_independent(inst.matroid, inst.prior, cfg, Random(seed))
                except NoQualifyingElement:
                    failures += 1
        assert failures / (2 * runs) <= eps / 4 + 0.05

    @pytest.mark.parametrize("spec", ["kuniform:6,3", "parallel-hats:1/2,m=2",
                                      "hidden:6,1/3,1/20,0", "product"])
    def test_exact_statistic_inside_the_sliced_intervals(self, spec):
        # Per element of S, the sliced counts' rate lies within the 1 - 1e-9
        # Hoeffding half-width of the exact statistic, over a seed battery.
        if spec == "product":
            M, P = UniformMatroid(6, 2), ProductPrior(["1/3", "1/2", "2/7", "9/10", "1/5", "0"])
            rho = Fraction(1, 4)
        else:
            inst = parse_instance(spec)
            M, P, rho = inst.matroid, inst.prior, inst.declared_alpha / 2
        for seed in range(4):
            gen = Random(seed)
            S = SubsetMask(M.n, gen.randrange(1, 1 << M.n) if seed else (1 << M.n) - 1)
            act, unspanned = count_span_stats_independent(M, P, S, rho, 20000, gen)
            for j in S:
                if act[j]:
                    exact = exact_unspanned_prob_independent(M, P, S, j, rho)
                    half = hoeffding_halfwidth(1 - 1e-9, act[j])
                    assert abs(Fraction(unspanned[j], act[j]) - exact) <= half, (seed, j)

    def test_bar_is_compared_exactly(self, monkeypatch):
        # (1 - eps/4) * alpha = 15/176 at alpha = 1/11, eps = 1/4, so 15 escapes in
        # 176 activations sit exactly on the bar; in floats, 176 * rate > 15.
        monkeypatch.setattr(preselect, "count_span_stats_prefix", lambda *a: ([176], [15]))
        cfg = PreselectConfig(alpha=Fraction(1, 11), eps=Fraction(1, 4), sample_override=176)
        assert preselect_prefix(UniformMatroid(1, 1), AllActivePrior(1), cfg, Random(0)).order == (0,)

    def test_auto_matches_mc_when_an_atom_is_too_large(self):
        # kuniform:10,5: the prefix law would be drawn on 9 > 8 elements
        inst = parse_instance("kuniform:10,5")
        orders = [
            preselect_prefix(
                inst.matroid, inst.prior,
                PreselectConfig(alpha=inst.declared_alpha, mode=mode, sample_override=200),
                Random(3),
            )
            for mode in ("auto", "mc")
        ]
        assert orders[0] == orders[1]

    def test_canonical_tight_order_qualifies(self):
        # On the parallel-edges-plus-hats instance, the canonical order's
        # hardest step is the base edge (u,u') with the hats still present:
        # its escape probability 0.75 * (15/16)^17 ~ 0.2504 sits just above
        # the Monte-Carlo threshold (1 - eps/4) * alpha/2 = 0.2344 at eps=1/4.
        inst = gen_parallel_hats(Fraction(1, 2))
        n = inst.matroid.n
        base_edge = 34  # arrives right after the 2*17 hat edges
        s = SubsetMask(n, (1 << (base_edge + 1)) - 1)
        act, unspanned = count_span_stats_independent(
            inst.matroid, inst.prior, s, 0.25, 20000, Random(12)
        )
        threshold = (1 - 0.25 / 4) * 0.25
        assert unspanned[base_edge] >= threshold * act[base_edge]
        # earlier hat edges clear the bar by a wide margin
        assert unspanned[0] >= threshold * act[0]


class TestConfig:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            PreselectConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PreselectConfig(alpha=1.5)

    def test_alpha_and_eps_are_exact(self):
        cfg = PreselectConfig(alpha=0.2, eps="1/3")
        assert (cfg.alpha, cfg.eps) == (Fraction(1, 5), Fraction(1, 3))
        for bad in ({"alpha": 1 + Fraction(1, 10**20)}, {"alpha": 0.5, "eps": 1 + Fraction(1, 10**20)}):
            with pytest.raises(ValueError):
                PreselectConfig(**bad)
        with pytest.raises(ValueError):
            PreselectConfig(alpha=0.5, mode="monte_carlo")

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            PreselectConfig(alpha=0.5, mode="guess")

    @pytest.mark.parametrize("samples", [0, -5, 2.5, "10"])
    def test_sample_override_must_be_positive(self, samples):
        with pytest.raises(ValueError, match="sample_override"):
            PreselectConfig(alpha=0.5, sample_override=samples)


def test_prefix_counter_statistic_matches_exact(rng):
    inst = gen_kuniform_allactive(4, 2)
    trials = 20000
    act, unspanned = count_span_stats_prefix(
        inst.matroid, inst.prior, SubsetMask.full(4), trials, rng
    )
    for j in range(4):
        rate = unspanned[j] / act[j]
        assert abs(rate - 0.5) < 4 * math.sqrt(0.25 / trials) + 0.01
