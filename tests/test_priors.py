import itertools
import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import (
    AllActivePrior,
    DimensionMismatch,
    ExplicitPrior,
    IndependentSubsampling,
    NoQualifyingElement,
    Permutation,
    PrefixSubsampling,
    PreselectConfig,
    Prior,
    PriorError,
    ProductPrior,
    SamplerPrior,
    SubsetMask,
    UniformMatroid,
    build_lp_scheme,
    hidden_element_prior,
    max_uncontentious_alpha,
    prior_from_spec,
)
from ocrs import preselect, priors
from ocrs.bitset import sliced, unsliced
from ocrs.harness import hoeffding_halfwidth
from ocrs.oracle import exact_balancedness
from ocrs.priors import exact_or_sampled
from ocrs.sampling import EnumerationTooLarge

from conftest import NoDraws, random_explicit_prior
from count_reference import reference_count
from exact_count_reference import reference_exact_count


class TestSampling:
    def test_all_active_is_always_full(self, rng):
        p = AllActivePrior(5)
        assert all(p.sample_bits(rng) == 0b11111 for _ in range(50))

    def test_product_deterministic_coordinate(self, rng):
        p = ProductPrior([1, Fraction(1, 2)])
        draws = [p.sample_bits(rng) for _ in range(2000)]
        assert all(d & 1 for d in draws)
        freq = sum(1 for d in draws if d & 2) / len(draws)
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / len(draws)) + 1e-9

    def test_explicit_frequencies_and_support_containment(self, rng):
        p = ExplicitPrior(2, [(0b11, Fraction(1, 2)), (0, Fraction(1, 2))])
        trials = 30000
        hits = 0
        for _ in range(trials):
            bits = p.sample_bits(rng)
            assert bits in (0, 0b11)
            hits += bits == 0b11
        hw = 4 * math.sqrt(math.log(2) / (2 * trials)) + 0.01
        assert abs(hits / trials - 0.5) < hw

    def test_sampled_masks_stay_in_declared_support(self, rng):
        p = random_explicit_prior(rng, 5)
        atoms = {bits for bits, _ in p.atoms}
        assert all(p.sample_bits(rng) in atoms for _ in range(500))


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(PriorError):
            ExplicitPrior(2, [(0b01, 0.5), (0b10, 0.6)])

    def test_negative_probability_rejected(self):
        with pytest.raises(PriorError):
            ExplicitPrior(1, [(0, -0.5), (1, 1.5)])

    def test_atom_outside_ground_rejected(self):
        with pytest.raises(PriorError):
            ExplicitPrior(2, [(0b100, 1)])

    def test_duplicate_atoms_merge(self):
        p = ExplicitPrior(1, [(1, 0.25), (1, 0.25), (0, 0.5)])
        assert dict(p.atoms)[1] == Fraction(1, 2)

    def test_near_one_total_is_normalised_exactly(self):
        p = ExplicitPrior(2, [(1, 0.5), (2, 0.5 + 1e-13)])
        assert sum(prob for _, prob in p.support()) == 1
        exact = ExplicitPrior(2, [(1, Fraction(1, 3)), (2, Fraction(2, 3))])
        assert exact.atoms == [(1, Fraction(1, 3)), (2, Fraction(2, 3))]


class TestMarginal:
    def test_all_active_marginal(self, rng):
        s = SubsetMask.from_elements(4, [1, 3])
        m = AllActivePrior(4).marginal(s)
        assert m.support() == [(s.bits, Fraction(1))]

    def test_explicit_projection(self):
        p = ExplicitPrior(2, [(0b11, Fraction(1, 2)), (0, Fraction(1, 2))])
        m = p.marginal(SubsetMask.from_elements(2, [0]))
        assert sorted(m.support()) == [(0, Fraction(1, 2)), (1, Fraction(1, 2))]

    def test_product_marginal_is_restricted_product(self):
        p = ProductPrior([Fraction(1, 3), Fraction(3, 4), Fraction(1, 2)])
        m = p.marginal(SubsetMask.from_elements(3, [0, 2]))
        assert m.activation_probabilities() == [Fraction(1, 3), 0, Fraction(1, 2)]
        assert m.never_active_bits == 0b010

    def test_marginal_composes(self, rng):
        for _ in range(20):
            p = random_explicit_prior(rng, 5)
            s1 = SubsetMask(5, rng.randrange(32))
            s2 = SubsetMask(5, rng.randrange(32))
            lhs = p.marginal(s1).marginal(s2)
            rhs = p.marginal(s1 & s2)
            assert sorted(lhs.support()) == sorted(rhs.support())

    def test_opaque_marginal_wrapper(self, rng):
        p = SamplerPrior(3, lambda r: 0b111)
        m = p.marginal(SubsetMask.from_elements(3, [0]))
        assert m.sample_bits(rng) == 0b001

    @pytest.mark.parametrize(
        "prior",
        [ExplicitPrior(2, [(0b11, 1)]), ProductPrior([Fraction(1, 2)] * 2),
         SamplerPrior(2, lambda r: 0b11)],
        ids=["explicit", "product", "sampler"],
    )
    def test_set_of_another_size_rejected(self, prior):
        with pytest.raises(DimensionMismatch, match="marginal set over 3, prior over 2"):
            prior.marginal(SubsetMask.full(3))


class TestPMin:
    def test_all_active(self):
        assert AllActivePrior(6).p_min() == 1

    def test_product_min_coordinate(self):
        assert ProductPrior([Fraction(3, 10), Fraction(9, 10)]).p_min() == Fraction(3, 10)

    def test_hidden_element_formula(self):
        n, alpha, delta = 4, Fraction(1, 3), Fraction(1, 10)
        p = hidden_element_prior(n, alpha, delta, 2)
        assert p.p_min() == delta * (1 / alpha - 1)

    def test_opaque_estimator_needs_rng(self):
        p = SamplerPrior(2, lambda r: 0b11)
        with pytest.raises(PriorError):
            p.p_min()
        assert p.p_min(rng=Random(0), eps=0.1) >= 0.8

    def test_opaque_marginal_estimates_over_the_kept_elements(self):
        # Elements 1 and 2 are drawn through the parent; the rest are masked
        # out, known never active and skipped. The estimate equals that of a
        # sampler over the two kept elements alone: same draws, same sample size.
        p = SamplerPrior(4, lambda r: r.getrandbits(4))
        kept = SamplerPrior(2, lambda r: r.getrandbits(4) >> 1 & 0b11)
        s1, s2 = SubsetMask.from_elements(4, [0, 1, 2]), SubsetMask.from_elements(4, [1, 2, 3])
        for m in (p.marginal(s1 & s2), p.marginal(s1).marginal(s2)):
            assert m.never_active_bits == 0b1001
            assert m.p_min(rng=Random(0)) == kept.p_min(rng=Random(0)) == 0.4527816411682893
        # A plain sampler estimates over all its elements, as it always has.
        assert p.p_min(rng=Random(0)) == 0.4425205684367988
        with pytest.raises(PriorError, match="no element is ever active"):
            p.marginal(SubsetMask.empty(4)).p_min(rng=Random(0))

    def test_opaque_estimator_aborts_on_dead_element(self):
        p = SamplerPrior(2, lambda r: 0b01)
        with pytest.raises(PriorError):
            p.p_min(rng=Random(0), eps=0.1)


    def test_opaque_estimator_names_the_rare_elements(self):
        # element 1 is active ~3% of the time: seen, but not above eps = 0.05
        p = SamplerPrior(3, lambda r: 0b101 | (0b010 if r.random() < 0.03 else 0))
        with pytest.raises(PriorError, match=r"elements \[1\] .*pass a smaller eps"):
            p.p_min(rng=Random(0))
        assert 0 < p.p_min(rng=Random(0), eps=0.01) < 0.03


class _DrawsOnly(Prior):
    """A prior that states its draws and nothing else."""

    def __init__(self, n, fn):
        super().__init__(n)
        self.fn = fn

    def sample_bits(self, rng):
        return self.fn(rng)


class TestPriorThatOnlyDraws:
    """`Prior` needs only `sample_bits`: its p_min is estimated from its own
    draws, as a `SamplerPrior`'s is, so the Monte-Carlo routes take it."""

    FN = staticmethod(lambda r: 0b01 | (0b10 if r.getrandbits(1) else 0))

    def test_p_min_is_the_sampler_estimate(self):
        P = _DrawsOnly(2, self.FN)
        assert P.p_min(rng=Random(0)) == SamplerPrior(2, self.FN).p_min(rng=Random(0))
        assert P.marginal(SubsetMask.from_elements(2, [1])).p_min(rng=Random(0)) > 0.4

    def test_monte_carlo_build_and_preselection(self):
        P, M = _DrawsOnly(2, self.FN), UniformMatroid(2, 1)
        _, report = build_lp_scheme(M, P, eps=Fraction(1, 4), rng=Random(0), mode="mc",
                                    estimation_override=200)
        assert report.converged and report.estimation_samples["x"] == 200
        cfg = PreselectConfig(alpha=Fraction(1, 2), eps=Fraction(1, 2))
        assert preselect.preselect_prefix(M, P, cfg, Random(0)).order == (1, 0)


def per_trial(select, rng, n):
    """A `Prior.count` selector that runs `select(a, rng)` on each trial's
    set a in trial order, as a scheme's default `run_words` does."""
    return lambda words, trials: sliced(
        [select(a, rng) for a in unsliced(words, trials.bit_length())], n
    )


class TestCount:
    """`Prior.count` against the per-draw carry chain it replaced
    (`count_reference`): equal counts and rng state where the two draw the
    same stream, the same law elsewhere."""

    @pytest.mark.parametrize("m", [0, 1, 7, 8, 1023, 1024])
    @pytest.mark.parametrize("n", [1, 13, 70])
    def test_matches_a_naive_count(self, n, m, monkeypatch):
        select = lambda a, r: a & r.getrandbits(n) if r.random() < 0.5 else r.getrandbits(n)
        for batch in (7, priors.TRIAL_BATCH):  # many batches and a short last one, or one
            monkeypatch.setattr(priors, "TRIAL_BATCH", batch)
            # A SamplerPrior's batch is `sample_bits` per trial, in order: with
            # no selector the streams coincide.
            P = SamplerPrior(n, lambda r: r.getrandbits(n))
            ours, ref = Random(n * m), Random(n * m)
            assert P.count(m, ours) == reference_count(P, m, ref)
            assert ours.getstate() == ref.getstate()
            # An all-active prior draws nothing, so a per-trial selector sees
            # the stream the per-draw loop gave it. Random masks in and out,
            # so each element's counter carries at its own times.
            P = AllActivePrior(n)
            ours, ref = Random(n * m), Random(n * m)
            got = P.count(m, ours, per_trial(select, ours, n))
            assert got == reference_count(P, m, ref, select)
            assert ours.getstate() == ref.getstate()

    def test_selections_have_the_per_draw_law(self):
        # With a selector on a drawing prior the batch draws its sets before
        # any selection, so the streams differ; each rate lies within the
        # 1 - 1e-9 Hoeffding half-width of its exact value: active 1/2,
        # selected 1/2 * 1/4 + 1/2 * 1/2 = 3/8.
        n, m = 13, 20_000
        P = SamplerPrior(n, lambda r: r.getrandbits(n))
        select = lambda a, r: a & r.getrandbits(n) if r.random() < 0.5 else r.getrandbits(n)
        half = hoeffding_halfwidth(1 - 1e-9, m)
        for seed in range(3):
            rng = Random(seed)
            for act, sel in (P.count(m, rng, per_trial(select, rng, n)),
                             reference_count(P, m, Random(seed), select)):
                assert all(abs(a / m - 1 / 2) <= half for a in act), seed
                assert all(abs(s / m - 3 / 8) <= half for s in sel), seed

    @pytest.mark.parametrize("m", [0, 1, 1023, 1024])
    def test_every_draw_full_and_no_selector(self, m):
        act, sel = AllActivePrior(70).count(m, Random(0))
        assert act == [m] * 70 and sel == [0] * 70

    def test_memory_is_bounded_by_one_batch(self):
        # Every selected set distinct: the counts hold one batch at a time, so
        # 12 batches peak where 3 do.
        n = 64
        P = SamplerPrior(n, lambda r: r.getrandbits(n))
        peaks = []
        for m in (3 * priors.TRIAL_BATCH, 12 * priors.TRIAL_BATCH):
            distinct = itertools.count(1)
            tracemalloc.start()
            try:
                act, sel = P.count(m, Random(1), per_trial(lambda a, r: next(distinct), None, n))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sel[0] == m // 2 and sum(act) > 0
        assert peaks[1] < 1.25 * peaks[0] and peaks[1] < 1 << 21


class TestExactCount:
    def test_credits_p_times_w_to_each_element(self):
        P = ExplicitPrior(3, [(0b011, Fraction(1, 3)), (0b110, Fraction(2, 3))])
        got = P.exact_count(lambda a: [(Fraction(1, 2), a), (Fraction(1, 4), a & 0b010)])
        assert got == [Fraction(1, 6), Fraction(3, 4), Fraction(1, 3)]

    def test_skips_atoms_of_probability_zero(self):
        P = ExplicitPrior(2, [(0b01, 1), (0b10, 0)])
        seen = []
        assert P.exact_count(lambda a: seen.append(a) or [(1, a)]) == [1, 0]
        assert seen == [0b01]

    def test_activation_probabilities_are_its_identity_count(self, rng):
        P = random_explicit_prior(rng, 5)
        want = [sum((p for a, p in P.atoms if (a >> e) & 1), Fraction(0)) for e in range(5)]
        assert P.activation_probabilities() == want

    def test_needs_an_explicit_support(self):
        with pytest.raises(EnumerationTooLarge):
            SamplerPrior(2, lambda r: 0b11).exact_count(lambda a: [(1, a)])
        assert SamplerPrior(2, lambda r: 0b11).activation_probabilities() is None
        # Unknown probabilities name no element as never active.
        assert SamplerPrior(2, lambda r: 0b01).never_active_bits == 0

    def test_activation_probabilities_are_counted_once(self, rng):
        P = random_explicit_prior(rng, 5)
        count, calls = P.exact_count, []
        P.exact_count = lambda outcomes: calls.append(outcomes) or count(outcomes)
        first = P.activation_probabilities()
        assert len(calls) == 1
        first.clear()  # callers get a copy
        for _ in range(3):
            assert len(P.activation_probabilities()) == 5
        P.p_min(), P.never_active_bits
        assert len(calls) == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_the_per_outcome_reference(self, seed, one_p):
        rng = Random(seed)
        n = rng.randint(1, 6)
        k = rng.randint(1, 12)
        # one_p: many atoms share one probability; else some atoms get p == 0
        raw = [1 if one_p else rng.randint(0, 3) for _ in range(k - 1)] + [1]
        atoms = [rng.randrange(1 << n) for _ in range(k)]
        P = ExplicitPrior(n, [(a, Fraction(w, sum(raw))) for a, w in zip(atoms, raw)])
        table = {}
        for a, _ in P.atoms:
            size = rng.choice(_NEAR_POWERS_OF_TWO)
            pool = [rng.choice(_WEIGHTS) for _ in range(rng.randint(1, 3))]  # repeated weights
            sets = [0] + [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]  # 0: empty bits
            table[a] = [
                (rng.choice(pool), rng.random() < 0.5, rng.choice(sets)) for _ in range(size)
            ]

        def outcomes(a):
            for w, fresh, bits in table[a]:
                # fresh: a weight equal in value to the others but a new object
                yield (Fraction(w) if fresh else w), bits

        assert P.exact_count(outcomes) == reference_exact_count(P, outcomes)

    @pytest.mark.parametrize("size", [1, 2, 3, 1023, 1024, 1025])
    def test_one_class_counts_past_powers_of_two(self, size):
        P = ExplicitPrior(3, [(a, Fraction(1, 3)) for a in (0b011, 0b110, 0b111)])
        outcomes = lambda a: ((Fraction(2, 7), b) for b in [a, a & 0b010, 0] * size)
        got = P.exact_count(outcomes)
        assert got == reference_exact_count(P, outcomes)
        assert got == [Fraction(4 * size, 21), Fraction(12 * size, 21), Fraction(4 * size, 21)]

    def test_arithmetic_grows_with_weight_classes_not_outcomes(self):
        # The thinning scheme credits each of the one atom's 10 elements once,
        # weighed by the law: at most one class per element, not 2^10 outcomes
        n = r = 10
        M = UniformMatroid(n, 4)
        P = AllActivePrior(n)
        P.atoms = [(a, _CountedFraction(p)) for a, p in P.atoms]
        scheme = IndependentSubsampling(Permutation(list(range(n))), Fraction(1, 3))
        before = _CountedFraction.ops
        bal = exact_balancedness(M, scheme, P)
        assert _CountedFraction.ops - before <= (r + 1) * r + n
        assert bal == reference_exact_count(P, lambda a: scheme.outcomes(M, a))  # p = 1

    def test_probabilities_are_read_as_integer_ratios_only(self):
        # All 256 subsets of 8 elements at 1/256 each form one weight class.
        # The count reads each probability through as_integer_ratio and takes
        # its Fractions from ints at the end; a per-atom sum would take 256
        # additions, and per-level class masses one product per level.
        n = 8
        P = ExplicitPrior(n, [(a, Fraction(1, 2**n)) for a in range(2**n)])
        P.atoms = [(a, _CountedFraction(p)) for a, p in P.atoms]
        before = _CountedFraction.ops
        assert P.activation_probabilities() == [Fraction(1, 2)] * n
        assert _CountedFraction.ops == before


# Outcome counts on either side of powers of two.
_NEAR_POWERS_OF_TWO = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]
_WEIGHTS = [0, 1, Fraction(1), Fraction(1, 2), Fraction(2, 4), Fraction(3, 7), Fraction(5, 6)]


def _counted(name):
    def op(self, other):
        _CountedFraction.ops += 1
        return getattr(Fraction, name)(self, other)

    return op


class _CountedFraction(Fraction):
    """A Fraction that counts the products, differences and sums taken with it."""

    ops = 0
    __add__, __radd__ = _counted("__add__"), _counted("__radd__")
    __mul__, __rmul__ = _counted("__mul__"), _counted("__rmul__")
    __sub__, __rsub__ = _counted("__sub__"), _counted("__rsub__")


class TestProductSupport:
    def test_support_is_enumerated_once(self):
        p = ProductPrior([_CountedFraction(k, 10) for k in (1, 3, 5, 7, 9)])
        first = p.support()
        done = _CountedFraction.ops
        assert done > 0 and len(first) == 2**5
        first.clear()  # callers get a copy
        for _ in range(3):
            assert p.support() == sorted(p.support()) and len(p.support()) == 2**5
        assert _CountedFraction.ops == done

    def test_support_matches_the_product_formula(self):
        x = [Fraction(1, 4), Fraction(0), Fraction(1), Fraction(2, 3)]
        want = []
        for bits in range(1 << len(x)):
            pr = Fraction(1)
            for i, xi in enumerate(x):
                pr *= xi if (bits >> i) & 1 else 1 - xi
            if pr:
                want.append((bits, pr))
        assert ProductPrior(x).support() == want


class TestProductPriorPastItsSupport:
    """17 random coordinates: the activation probabilities are known, but the
    2^17 atoms are not listed, so every exact route refuses before it draws
    and auto samples as mc does."""

    M = UniformMatroid(17, 4)
    P = ProductPrior([Fraction(1, 2)] * 17)

    def route(self, name, mode, rng):
        M, P = self.M, self.P
        if name == "alpha":
            return max_uncontentious_alpha(M, P).alpha_star
        if name == "balancedness":
            return exact_balancedness(M, PrefixSubsampling(Permutation.identity(17)), P)
        if name == "lp":
            mixture, _ = build_lp_scheme(
                M, P, Fraction(1, 10), rng, mode=mode, iteration_cap=2, estimation_override=50
            )
            return mixture.to_spec()
        cfg = PreselectConfig(alpha=Fraction(1, 4), mode=mode, sample_override=50)
        try:
            return getattr(preselect, "preselect_" + name)(M, P, cfg, rng).order
        except NoQualifyingElement as err:
            return err.step, err.suffix

    @pytest.mark.parametrize("name", ["alpha", "lp", "independent", "prefix", "balancedness"])
    def test_exact_routes_refuse_before_any_draw(self, name):
        assert self.P.activation_probabilities() == [Fraction(1, 2)] * 17
        assert self.P.support() is None
        with pytest.raises(EnumerationTooLarge):
            self.route(name, "exact", NoDraws())
        if name in ("lp", "independent", "prefix"):  # the routes that take a mode
            assert self.route(name, "auto", Random(5)) == self.route(name, "mc", Random(5))


class TestExactOrSampled:
    P = ExplicitPrior(2, [(0b01, Fraction(1, 2)), (0b10, Fraction(1, 2))])

    def test_modes(self):
        exact, sampled = (lambda: "exact"), (lambda: "mc")
        got = [exact_or_sampled(self.P, mode, exact, sampled) for mode in ("exact", "mc", "auto")]
        assert got == ["exact", "mc", "exact"]
        with pytest.raises(ValueError, match="unknown mode"):
            exact_or_sampled(self.P, "monte_carlo", exact, sampled)

    def test_auto_samples_without_a_small_explicit_support(self):
        def exact():
            raise AssertionError("exact route tried")

        for P in (SamplerPrior(2, lambda r: 0b11), ProductPrior([Fraction(1, 2)] * 13)):
            assert exact_or_sampled(P, "auto", exact, lambda: "mc") == "mc"

    def test_auto_falls_back_only_when_the_exact_route_refuses(self):
        def refuse():
            raise EnumerationTooLarge("too many outcomes")

        def broken():
            raise PriorError("not a refusal")

        assert exact_or_sampled(self.P, "auto", refuse, lambda: "mc") == "mc"
        with pytest.raises(EnumerationTooLarge):
            exact_or_sampled(self.P, "exact", refuse, lambda: "mc")
        with pytest.raises(PriorError):
            exact_or_sampled(self.P, "auto", broken, lambda: "mc")


class TestHiddenElementPrior:
    def test_normalization_example(self):
        p = hidden_element_prior(3, Fraction(1, 2), Fraction(1, 5), 0)
        atoms = dict(p.atoms)
        assert atoms[0] == Fraction(2, 5)
        assert atoms[0b111] == Fraction(1, 5)
        assert atoms[0b010] == atoms[0b100] == Fraction(1, 5)
        assert sum(atoms.values()) == 1

    def test_hidden_element_only_in_full_set(self):
        p = hidden_element_prior(4, Fraction(1, 4), Fraction(1, 20), 1)
        for bits, prob in p.atoms:
            if (bits >> 1) & 1 and prob > 0:
                assert bits == 0b1111

    def test_delta_range_enforced(self):
        with pytest.raises(PriorError):
            hidden_element_prior(3, Fraction(1, 2), Fraction(1, 2), 0)
        with pytest.raises(PriorError):
            hidden_element_prior(3, Fraction(1, 2), 0, 0)

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(3, 2), Fraction(-1, 2)])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(PriorError, match="alpha must lie in"):
            hidden_element_prior(3, alpha, Fraction(1, 100), 0)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_hidden_element_must_be_in_the_ground_set(self, j):
        with pytest.raises(PriorError, match=f"element j={j} outside ground set of size 3"):
            hidden_element_prior(3, Fraction(1, 2), Fraction(1, 100), j)


def test_json_round_trips(rng):
    priors = [
        AllActivePrior(3),
        ProductPrior([Fraction(1, 4), Fraction(1, 2)]),
        random_explicit_prior(rng, 4),
        hidden_element_prior(3, Fraction(1, 2), Fraction(1, 5), 0),
    ]
    for p in priors:
        again = prior_from_spec(p.to_spec())
        assert again.n == p.n
        assert sorted(again.support()) == sorted(p.support())


def test_hidden_element_kind_accepted():
    p = prior_from_spec({"type": "hidden_element", "n": 3, "alpha": "1/2", "delta": "1/5", "j": 0})
    assert p.p_min() == Fraction(1, 5)
