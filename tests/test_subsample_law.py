"""The exact subsample laws: the restriction property they rest on, the
span-state scan against the whole-ground-set references, the work the scan
does, and the reach that marginalising onto the atom buys."""

import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import (
    ExplicitMatroid,
    ExplicitPrior,
    GraphicMatroid,
    IndependentSubsampling,
    Permutation,
    PrefixSubsampling,
    PreselectConfig,
    SubsetMask,
    UniformMatroid,
    exact_balancedness,
    gen_parallel_hats,
    max_uncontentious_alpha,
    preselect_prefix,
)
from ocrs.bitset import iter_bits, popcount
from ocrs.preselect import exact_unspanned_prob_independent, exact_unspanned_prob_prefix
from ocrs.priors import AllActivePrior
from ocrs.sampling import (
    SCAN_BUDGET,
    EnumerationTooLarge,
    IndependentLaw,
    PrefixLaw,
    unspanned_counts,
)

from conftest import random_explicit_prior, random_small_matroid, sentinel_prefix_law
from subsample_reference import (
    law_outcomes,
    law_weight,
    reference_exact_balancedness,
    reference_unspanned_prob_independent,
    reference_unspanned_prob_prefix,
)


def _restricted(law_of_t: dict, a: int) -> dict:
    """The law of T ∩ a, from the law of T."""
    out: dict = {}
    for t, pr in law_of_t.items():
        out[t & a] = out.get(t & a, 0) + pr
    return {b: pr for b, pr in out.items() if pr}


class TestRestriction:
    def test_prefix_law_is_the_sentinel_law_on_the_atom(self):
        n = 5
        whole = sentinel_prefix_law(n)  # all (n+1)! permutations
        for a in range(1 << n):
            assert dict(law_outcomes(PrefixLaw(), a)) == _restricted(whole, a)

    @pytest.mark.parametrize("rho", [Fraction(0), Fraction(1, 3), Fraction(1)])
    def test_independent_law_is_the_thinning_law_on_the_atom(self, rho):
        n = 5
        whole = {
            t: rho ** popcount(t) * (1 - rho) ** (n - popcount(t)) for t in range(1 << n)
        }
        for a in range(1 << n):
            assert dict(law_outcomes(IndependentLaw(rho), a)) == _restricted(whole, a)

    def test_avoided_outcomes_keep_their_weights(self):
        got = dict(law_outcomes(IndependentLaw(Fraction(1, 4)), 0b111, avoid=0b001))
        assert set(got) == {0b000, 0b010, 0b100, 0b110}
        assert sum(got.values()) == Fraction(3, 4)  # element 0 dropped

    def test_limits_bound_the_atom_not_the_ground_set(self):
        far = 1 << 200
        assert dict(law_outcomes(PrefixLaw(), far)) == {far: Fraction(1, 2), 0: Fraction(1, 2)}
        # The scan's budget is the one limit. Full hats has 37 edges: all
        # active, the scan passes SCAN_BUDGET and refuses; atoms of 13 hat
        # tops (a star, so 2^t states at step t) and of the base edge alone
        # fit, and every edge there is selected exactly when it is kept.
        hats = gen_parallel_hats(Fraction(1, 2))
        M, n = hats.matroid, hats.matroid.n
        scheme = IndependentSubsampling(hats.canonical_order, Fraction(1, 4))
        with pytest.raises(EnumerationTooLarge, match=f"budget of {SCAN_BUDGET} cells"):
            exact_balancedness(M, scheme, hats.prior)
        small = ExplicitPrior(n, [(range(13), Fraction(1, 2)), ({34}, Fraction(1, 2))])
        bal = exact_balancedness(M, scheme, small)
        assert bal == [Fraction(1, 4) if e < 13 or e == 34 else None for e in range(n)]


class TestAgainstWholeGroundSet:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_small_instances(self, seed, restrict):
        rng = Random(seed)
        m = random_small_matroid(rng, max_n=7)
        n = m.n
        p = random_explicit_prior(rng, n)
        if restrict:  # some elements never active
            p = p.marginal(SubsetMask(n, rng.randrange(1 << n)))
        s = SubsetMask(n, rng.randrange(1, 1 << n))
        j = rng.choice(list(s))
        q = rng.randint(1, 9)
        rho = Fraction(rng.randint(0, q), q)
        assert exact_unspanned_prob_independent(m, p, s, j, rho) == (
            reference_unspanned_prob_independent(m, p, s, j, rho)
        )
        assert exact_unspanned_prob_prefix(m, p, s, j) == reference_unspanned_prob_prefix(m, p, s, j)
        order = Permutation(rng.sample(range(n), n))
        for scheme in (IndependentSubsampling(order, rho), PrefixSubsampling(order)):
            assert exact_balancedness(m, scheme, p) == reference_exact_balancedness(m, scheme, p)


def _family(rng: Random, kind: str):
    """A matroid of the named family, on at most 7 elements."""
    if kind == "uniform":
        n = rng.randint(1, 7)
        return UniformMatroid(n, rng.randint(0, n))
    if kind == "graphic":  # with a loop and a parallel pair, at random places
        v = rng.randint(2, 4)
        edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, 4))]
        edges.append((rng.randrange(v),) * 2)
        edges.append(rng.choice(edges))
        rng.shuffle(edges)
        return GraphicMatroid(v, edges)
    if kind == "explicit":
        base = _family(rng, rng.choice(["uniform", "graphic"]))
        members = [b for b in range(1 << base.n) if base._independent(b)]
        return ExplicitMatroid(base.n, [[e for e in range(base.n) if b >> e & 1] for b in members])
    base = _family(rng, rng.choice(["uniform", "graphic", "explicit"]))
    return base.restrict(SubsetMask(base.n, rng.randrange(1 << base.n)))


def _family_on(rng: Random, kind: str, n: int):
    """A matroid of the named family on exactly n elements."""
    if kind == "uniform":
        return UniformMatroid(n, rng.randint(0, n))
    if kind == "graphic":
        v = rng.randint(2, n + 1)
        return GraphicMatroid(v, [(rng.randrange(v), rng.randrange(v)) for _ in range(n)])
    if kind == "explicit":
        base = _family_on(rng, rng.choice(["uniform", "graphic"]), n)
        return ExplicitMatroid(n, [iter_bits(b) for b in range(1 << n) if base._independent(b)])
    base = _family_on(rng, rng.choice(["uniform", "graphic", "explicit"]), n)
    return base.restrict(SubsetMask(n, rng.randrange(1 << n)))


class TestSpanScan:
    """The span-state scan (`sampling.unspanned_counts`), through both of its
    consumers, against the whole-ground-set enumerations."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["uniform", "graphic", "explicit", "restricted"]),
        st.sampled_from(["0", "1", "between"]),
    )
    def test_equals_the_whole_ground_set(self, seed, kind, rho_kind):
        rng = Random(seed)
        m = _family(rng, kind)
        n = m.n
        p = random_explicit_prior(rng, n)
        if rng.random() < 0.3:  # some elements never active
            p = p.marginal(SubsetMask(n, rng.randrange(1 << n)))
        rho = {"0": Fraction(0), "1": Fraction(1)}.get(rho_kind)
        if rho is None:
            q = rng.randint(2, 9)
            rho = Fraction(rng.randint(1, q - 1), q)
        s = SubsetMask(n, rng.randrange(1, 1 << n))  # may hold elements outside a restriction
        j = rng.choice(list(s))
        indep = exact_unspanned_prob_independent(m, p, s, j, rho)
        prefix = exact_unspanned_prob_prefix(m, p, s, j)
        if m.ground_bits >> j & 1:
            assert indep == reference_unspanned_prob_independent(m, p, s, j, rho)
            assert prefix == reference_unspanned_prob_prefix(m, p, s, j)
        else:  # outside the ground: never selectable, so always spanned
            assert indep == prefix == 0
        order = Permutation(rng.sample(range(n), n))
        for scheme in (IndependentSubsampling(order, rho), PrefixSubsampling(order)):
            assert exact_balancedness(m, scheme, p) == reference_exact_balancedness(m, scheme, p)

    @pytest.mark.parametrize(
        "prefix, restricted",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["False", "True", "False-restricted", "True-restricted"],
    )
    def test_work_grows_with_states_not_subsets(self, prefix, restricted):
        # min(|R|, k) takes k + 1 values and |R| takes r + 1, over r steps;
        # enumerating the 2^13 subsets would take 2^13 steps and more. A
        # restriction walks its parent's state, so the parent counts the steps.
        r, k = 13, 6
        counting = _CountingUniform(r, k)
        m = counting.restrict(SubsetMask(r, (1 << r - 1) - 1)) if restricted else counting
        order = Permutation.identity(r)
        scheme = PrefixSubsampling(order) if prefix else IndependentSubsampling(order, Fraction(1, 2))
        bal = exact_balancedness(m, scheme, AllActivePrior(r))
        assert 0 < counting.steps <= (k + 1) * (r + 1) * r
        assert bal[0] == Fraction(1, 2)  # the first arrival is selected whenever it is kept
        if restricted:
            assert bal[r - 1] == 0  # outside the ground: never selected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["uniform", "graphic", "explicit", "restricted"]),
    )
    def test_takes_every_atom_the_limit_of_13_took(self, seed, kind):
        # A scan holds at most 2^t states at step t, so one of at most 14
        # elements passes at most 13 * 2^14 + 1 = 212,993 cells: every atom
        # of 13 elements fits, and so does the prefix statistic's scan of
        # the 13 others and its candidate.
        rng = Random(seed)
        n = 14
        m = _family_on(rng, kind, n)
        order = Permutation(rng.sample(range(n), n))
        atom = SubsetMask(n, ((1 << n) - 1) & ~(1 << rng.randrange(n)))
        p = ExplicitPrior(n, [(atom, Fraction(1))])
        for scheme in (IndependentSubsampling(order, Fraction(1, 3)), PrefixSubsampling(order)):
            exact_balancedness(m, scheme, p)
        j = rng.choice(list(atom))
        exact_unspanned_prob_independent(m, p, atom, j, Fraction(1, 3))
        exact_unspanned_prob_prefix(m, AllActivePrior(n), SubsetMask.full(n), j)

    def test_the_widest_scan_at_14_elements_fits_and_at_15_refuses(self):
        # Every subset independent: the default state is the kept set itself,
        # so the scan holds 2^t states at step t, the most there can be.
        assert 13 * 2**14 + 1 <= SCAN_BUDGET < 14 * 2**15 + 1
        free = ExplicitMatroid(14, [iter_bits(b) for b in range(1 << 14)])
        assert unspanned_counts(free, range(14))[-1] == [math.comb(13, s) for s in range(14)]
        free = ExplicitMatroid(15, [iter_bits(b) for b in range(1 << 15)])
        with pytest.raises(EnumerationTooLarge):
            unspanned_counts(free, range(15))


class TestProb:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_is_the_counts_weighed_by_the_definition(self, data):
        # rho 0 and 1 rest on 0**0 == 1: the one pattern that keeps nothing,
        # or everything, has all the mass.
        r = data.draw(st.integers(0, 40))
        size = data.draw(st.integers(0, r + 1))
        counts = [data.draw(st.integers(0, math.comb(r, s))) for s in range(size)]
        rho = data.draw(st.sampled_from([0, 1, Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)]))
        for law in (IndependentLaw(rho), PrefixLaw()):
            assert law.prob(counts, r) == sum(c * law_weight(law, r, s) for s, c in enumerate(counts))
            assert law.prob([math.comb(r, s) for s in range(r + 1)], r) == 1


class _CountingUniform(UniformMatroid):
    """A uniform matroid that counts its span steps."""

    steps = 0

    def span_step(self, state, e):
        self.steps += 1
        return super().span_step(state, e)


class TestReach:
    def test_balancedness_of_singletons_at_n30(self):
        n = 30
        m = UniformMatroid(n, 1)
        p = ExplicitPrior(n, [(0, Fraction(1, 2))] + [(1 << e, Fraction(1, 60)) for e in range(n)])
        order = Permutation.identity(n)
        indep = IndependentSubsampling(order, Fraction(1, 4))
        assert exact_balancedness(m, indep, p) == [Fraction(1, 4)] * n
        assert exact_balancedness(m, PrefixSubsampling(order), p) == [Fraction(1, 2)] * n

    def test_rank_one_scans_of_500_elements_hold_no_memory(self):
        # Element t is selected when it is kept and none of the t before it
        # is. The laws keep no table of weights, so nothing the weighing
        # builds outlives the calls.
        n = 500
        m, p, order = UniformMatroid(n, 1), AllActivePrior(n), Permutation.identity(n)
        quarter = Fraction(1, 4)
        tracemalloc.start()
        try:
            indep = exact_balancedness(m, IndependentSubsampling(order, quarter), p)
            prefix = exact_balancedness(m, PrefixSubsampling(order), p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert indep == [quarter * (1 - quarter) ** t for t in range(n)]
        assert prefix == [Fraction(1, (t + 1) * (t + 2)) for t in range(n)]
        assert held < 2 * 2**20

    def test_exact_prefix_preselection_on_sparse_n20(self):
        n = 20
        m = UniformMatroid(n, 2)
        weights = {0: 20, **{1 << e: 1 for e in range(n)}}
        weights.update({0b111 << e: 2 for e in range(n - 2)})  # runs of three
        total = sum(weights.values())
        p = ExplicitPrior(n, [(a, Fraction(w, total)) for a, w in weights.items()])
        alpha = max_uncontentious_alpha(m, p).alpha_star
        order = preselect_prefix(m, p, PreselectConfig(alpha=alpha, mode="exact"), Random(0))
        assert sorted(order.order) == list(range(n))
        bal = exact_balancedness(m, PrefixSubsampling(order), p)
        assert min(bal) >= alpha * alpha / 2
