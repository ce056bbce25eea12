import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import (
    ExplicitPrior,
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
from ocrs import preselect
from ocrs.harness import parse_instance
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
        assert act[1] == 30  # activations are counted everywhere (`Prior.count`)
        assert unspanned[1] == 0  # escapes are credited only inside S
        assert unspanned[0] == 0  # rho=1 keeps 0 itself, which spans itself


class TestAgainstReferenceLoops:
    """The span statistics are selectors on `Prior.count`; on S they count what
    the two bespoke loops they replaced counted, on the same random stream."""

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
        inst = gen_kuniform_allactive(14, 2)
        with pytest.raises(EnumerationTooLarge):
            exact_unspanned_prob_independent(
                inst.matroid, inst.prior, SubsetMask.full(14), 0, Fraction(1, 2)
            )

    def test_prefix_enumeration_guard(self):
        inst = gen_kuniform_allactive(15, 2)  # the law is drawn on the 14 others
        with pytest.raises(EnumerationTooLarge):
            exact_unspanned_prob_prefix(inst.matroid, inst.prior, SubsetMask.full(15), 0)

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
        # {1..n-1} exceeds the limit of 13 elements; the exact route refuses
        # before step 1, and auto goes to Monte-Carlo at once.
        M = UniformMatroid(n, 1)
        P = ExplicitPrior(n, [({0}, Fraction(1, 2)), (range(1, n), Fraction(1, 2))])
        calls = []
        stat = getattr(preselect, "exact_unspanned_prob_" + law)
        monkeypatch.setattr(
            preselect, "exact_unspanned_prob_" + law, lambda *a: calls.append(a) or stat(*a)
        )
        run = getattr(preselect, "preselect_" + law)
        with pytest.raises(EnumerationTooLarge):
            run(M, P, PreselectConfig(alpha=Fraction(1, 2), mode="exact"), Random(0))
        assert calls == []

        def outcome(mode):
            cfg = PreselectConfig(alpha=Fraction(1, 2), mode=mode, sample_override=50)
            try:
                return run(M, P, cfg, Random(4)).order
            except NoQualifyingElement as err:
                return err.step, err.suffix

        assert outcome("auto") == outcome("mc")
        assert calls == []

    def test_never_active_element_is_skipped_then_fails(self, rng):
        # element 1 never active: conservative rule keeps it unqualified, so
        # the loop fills the other slot and then fails with a partial order
        m = UniformMatroid(2, 1)
        p = ExplicitPrior(2, [(0b01, 1)])
        cfg = PreselectConfig(alpha=0.5, mode="exact")
        with pytest.raises(NoQualifyingElement) as exc:
            preselect_independent(m, p, cfg, rng)
        assert exc.value.step == 1
        assert exc.value.suffix == [0]
        assert str(exc.value) == "no qualifying element at step 1 (positions 1..1 filled)"

    @pytest.mark.parametrize("law", ["independent", "prefix"])
    @pytest.mark.parametrize("n", [9, 13, 14])
    def test_takes_the_atoms_exact_balancedness_takes(self, law, n):
        # One limit: exact preselection succeeds exactly when the exact
        # evaluation of the scheme it builds does; both refuse 14 elements
        # before any draw, though the prefix statistic enumerates the atom
        # less its candidate.
        inst = gen_kuniform_allactive(n, n // 2)
        M, P, alpha = inst.matroid, inst.prior, inst.declared_alpha
        run = getattr(preselect, "preselect_" + law)
        try:
            order = run(M, P, PreselectConfig(alpha=alpha, mode="exact"), NoDraws())
        except EnumerationTooLarge:
            order = None
        if law == "independent":
            scheme, floor = IndependentSubsampling(order or inst.canonical_order, alpha / 2), 4
        else:
            scheme, floor = PrefixSubsampling(order or inst.canonical_order), 2
        try:
            bal = exact_balancedness(M, scheme, P)
        except EnumerationTooLarge:
            bal = None
        assert (order is None) == (bal is None) == (n > 13)
        if bal is not None:
            assert min(bal) >= alpha * alpha / floor

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_orders_at_alpha_star_meet_the_floors(self, seed):
        # Preselected at alpha*, thinning at rho = alpha*/2 is alpha*^2/4-balanced
        # and the random prefix alpha*^2/2-balanced, exactly.
        rng = Random(seed)
        M = random_small_matroid(rng, max_n=6)
        P = random_explicit_prior(rng, M.n)
        alpha = max_uncontentious_alpha(M, P).alpha_star
        # Every element is active somewhere, so only a loop is never selected.
        assert (alpha == 0) == any(not M._independent(1 << e) for e in range(M.n))
        if alpha == 0:
            return
        cfg = PreselectConfig(alpha=alpha, mode="exact")
        order = preselect_independent(M, P, cfg, rng)
        bal = exact_balancedness(M, IndependentSubsampling(order, alpha / 2), P)
        assert min(bal) >= alpha * alpha / 4
        order = preselect_prefix(M, P, cfg, rng)
        assert min(exact_balancedness(M, PrefixSubsampling(order), P)) >= alpha * alpha / 2


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
        m = UniformMatroid(2, 1)
        p = ExplicitPrior(2, [(0b01, 1)])
        cfg = PreselectConfig(alpha=0.5, eps=0.5, sample_override=200)
        with pytest.raises(NoQualifyingElement) as exc:
            preselect_independent(m, p, cfg, Random(1))
        assert exc.value.suffix == [0]

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
