from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import (
    DimensionMismatch,
    ExplicitPrior,
    IndependentSubsampling,
    OrderedGreedy,
    Permutation,
    PermutationMixture,
    PrefixSubsampling,
    ProductPrior,
    SubsetMask,
    UniformMatroid,
    WeightMixture,
    bruteforce_weighted_rank,
    estimate_balancedness,
    exact_balancedness,
    gen_hidden_element,
    gen_kuniform_allactive,
    max_uncontentious_alpha,
    parse_instance,
    scheme_from_spec,
    two_element_instance,
)
from ocrs import oracle
from ocrs.bitset import iter_bits
from ocrs.oracle import EnumerationTooLarge, independent_subsets
from ocrs.preselect import exact_unspanned_prob_independent
from ocrs.priors import AllActivePrior, SamplerPrior

from conftest import explicit_battery, random_explicit_prior, random_small_matroid
from oracle_reference import reference_max_uncontentious_alpha
from scheme_reference import ladder_outcomes, reference_exact_balancedness


class TestAlphaStar:
    def test_kuniform_is_k_over_n(self):
        for n, k in ((4, 2), (5, 1), (5, 3), (6, 2)):
            inst = gen_kuniform_allactive(n, k)
            cert = max_uncontentious_alpha(inst.matroid, inst.prior)
            assert cert.alpha_star == Fraction(k, n)

    def test_two_element_instance_is_half(self):
        inst = two_element_instance()
        assert max_uncontentious_alpha(inst.matroid, inst.prior).alpha_star == Fraction(1, 2)

    def test_hidden_element_at_least_declared(self):
        inst = gen_hidden_element(3, Fraction(1, 2), Fraction(1, 5), 0)
        cert = max_uncontentious_alpha(inst.matroid, inst.prior)
        assert cert.alpha_star >= Fraction(1, 2)
        assert cert.alpha_star == Fraction(3, 5)  # this instance leaves slack

    def test_declared_alpha_is_a_lower_bound_across_battery(self):
        for inst in explicit_battery():
            cert = max_uncontentious_alpha(inst.matroid, inst.prior)
            assert cert.alpha_star >= inst.declared_alpha

    def test_vacuous_instance_capped_at_one(self):
        p = ExplicitPrior(2, [(0, 1)])
        cert = max_uncontentious_alpha(UniformMatroid(2, 1), p)
        assert cert.alpha_star == 1

    def test_opaque_prior_rejected(self):
        with pytest.raises(EnumerationTooLarge):
            max_uncontentious_alpha(UniformMatroid(2, 1), SamplerPrior(2, lambda r: 0b11))

    def test_product_prior_enumerates_its_random_coordinates(self):
        # 17 elements, none of them random: one atom, so the support is listed.
        cert = max_uncontentious_alpha(UniformMatroid(17, 3), ProductPrior([1] * 17))
        assert cert.alpha_star == Fraction(3, 17)


def assert_valid_certificate(m, p, cert):
    """The witness is a selection rule over the support whose per-element
    probabilities are the reported ones, with minimum alpha_star."""
    probs = p.activation_probabilities()
    selected = [Fraction(0)] * m.n
    for atom, prob in p.support():
        if prob == 0:
            continue
        dist = cert.witness[atom]
        assert sum(pr for _, pr in dist) == 1
        for y, pr in dist:
            assert pr > 0 and y & ~atom == 0 and m._independent(y)
            for e in iter_bits(y):
                selected[e] += prob * pr
    assert cert.per_element == [s / x if x > 0 else None for s, x in zip(selected, probs)]
    assert min((v for v in cert.per_element if v is not None), default=1) == cert.alpha_star


class TestAgainstEnumerationLp:
    def test_battery(self):
        for inst in explicit_battery():
            cert = max_uncontentious_alpha(inst.matroid, inst.prior)
            ref = reference_max_uncontentious_alpha(inst.matroid, inst.prior)
            assert cert.alpha_star == ref.alpha_star
            assert_valid_certificate(inst.matroid, inst.prior, cert)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_small_instances(self, seed, restrict):
        rng = Random(seed)
        m = random_small_matroid(rng, max_n=7)
        p = random_explicit_prior(rng, m.n)
        if restrict:  # some elements never active
            p = p.marginal(SubsetMask(m.n, rng.randrange(1 << m.n)))
        cert = max_uncontentious_alpha(m, p)
        assert cert.alpha_star == reference_max_uncontentious_alpha(m, p).alpha_star
        assert_valid_certificate(m, p, cert)

    @pytest.mark.parametrize("spec", ["parallel-hats:1/2", "kuniform:30,15"])
    def test_beyond_enumeration_scale(self, spec):
        inst = parse_instance(spec)
        assert max_uncontentious_alpha(inst.matroid, inst.prior).alpha_star == Fraction(1, 2)

    def test_uncertified_result_raises(self, monkeypatch):
        build = oracle.build_lp_scheme
        monkeypatch.setattr(
            oracle, "build_lp_scheme", lambda *a, **kw: build(*a, iteration_cap=1, **kw)
        )
        inst = gen_kuniform_allactive(4, 2)
        with pytest.raises(RuntimeError, match="uncertified"):
            max_uncontentious_alpha(inst.matroid, inst.prior)


class TestCertificate:
    def test_witness_is_consistent(self, rng):
        for _ in range(10):
            m = random_small_matroid(rng, max_n=5)
            p = random_explicit_prior(rng, m.n)
            cert = max_uncontentious_alpha(m, p)
            for atom, dist in cert.witness.items():
                assert sum(pr for _, pr in dist) == 1
                for y, _ in dist:
                    assert y & ~atom == 0
                    assert m._independent(y)
            assert min((v for v in cert.per_element if v is not None), default=1) == cert.alpha_star

    def test_json_dump_shape(self):
        inst = two_element_instance()
        payload = max_uncontentious_alpha(inst.matroid, inst.prior).to_json()
        assert payload["alpha_star"] == "1/2"
        assert set(payload) == {"alpha_star", "witness", "per_element"}


class TestExactBalancedness:
    def test_greedy_identity_one_uniform(self):
        m = UniformMatroid(3, 1)
        bal = exact_balancedness(m, OrderedGreedy(Permutation.identity(3)), AllActivePrior(3))
        assert bal == [1, 0, 0]

    def test_prefix_scheme_tight_value(self):
        inst = gen_kuniform_allactive(4, 2)
        bal = exact_balancedness(
            inst.matroid, PrefixSubsampling(Permutation.identity(4)), inst.prior
        )
        assert bal[3] == Fraction(3, 20)

    def test_uniform_two_order_mixture(self):
        m = UniformMatroid(2, 1)
        mix = PermutationMixture(
            [(Permutation([0, 1]), Fraction(1, 2)), (Permutation([1, 0]), Fraction(1, 2))]
        )
        assert exact_balancedness(m, mix, AllActivePrior(2)) == [Fraction(1, 2), Fraction(1, 2)]

    def test_parts_over_other_ground_sets_rejected(self):
        # Before the check, this returned [1, 1, 1, 0, 0, 0].
        m = UniformMatroid(6, 3)
        with pytest.raises(DimensionMismatch, match="over 6 elements, the scheme over 4"):
            exact_balancedness(m, OrderedGreedy(Permutation.identity(4)), AllActivePrior(6))
        with pytest.raises(DimensionMismatch, match="over 6 elements, the prior over 5"):
            exact_balancedness(m, OrderedGreedy(Permutation.identity(6)), AllActivePrior(5))

    def test_never_active_element_reports_none(self):
        m = UniformMatroid(2, 1)
        p = ExplicitPrior(2, [(0b01, 1)])
        bal = exact_balancedness(m, OrderedGreedy(Permutation.identity(2)), p)
        assert bal[0] == 1 and bal[1] is None

    def test_independent_subsampling_two_element(self):
        inst = two_element_instance()
        scheme = IndependentSubsampling(Permutation([0, 1]), Fraction(1, 4))
        bal = exact_balancedness(inst.matroid, scheme, inst.prior)
        assert bal[0] == Fraction(1, 4)  # first in line: selected iff kept
        assert bal[1] == Fraction(3, 16)  # second: kept and first dropped

    def test_weight_mixture_deterministic_secretary(self):
        m = UniformMatroid(2, 1)
        mix = WeightMixture(
            "greedy_by_weight",
            [((Fraction(1), Fraction(0)), Fraction(1, 2)), ((Fraction(0), Fraction(1)), Fraction(1, 2))],
        )
        assert exact_balancedness(m, mix, AllActivePrior(2)) == [Fraction(1, 2), Fraction(1, 2)]

    def test_randomized_secretary_rejected(self):
        m = UniformMatroid(2, 1)
        mix = WeightMixture("classic_1uniform", [((1, 1), 1)])
        with pytest.raises(EnumerationTooLarge):
            exact_balancedness(m, mix, AllActivePrior(2))

    def test_guards(self):
        big = gen_kuniform_allactive(15, 2)
        with pytest.raises(EnumerationTooLarge):
            exact_balancedness(
                big.matroid, IndependentSubsampling(Permutation.identity(15), Fraction(1, 2)), big.prior
            )
        big14 = gen_kuniform_allactive(14, 2)
        with pytest.raises(EnumerationTooLarge):
            exact_balancedness(big14.matroid, PrefixSubsampling(Permutation.identity(14)), big14.prior)

    def test_float_spec_weights_read_exactly(self):
        # JSON floats 0.1 and 0.9 mean 1/10 and 9/10, not their binary values.
        spec = {
            "kind": "permutation_mixture",
            "components": [{"order": [0], "weight": 0.1}, {"order": [0], "weight": 0.9}],
        }
        m = UniformMatroid(1, 1)
        assert exact_balancedness(m, scheme_from_spec(spec), AllActivePrior(1)) == [1]

    def test_mixture_weights_divided_by_exact_total(self):
        # Within the 1e-9 tolerance of 1, but not exactly 1.
        weights = (Fraction(1, 3), Fraction(2, 3) - Fraction(1, 10**10))
        mix = PermutationMixture([(Permutation([0]), wt) for wt in weights])
        assert exact_balancedness(UniformMatroid(1, 1), mix, AllActivePrior(1)) == [1]

    @pytest.mark.parametrize(
        "scheme",
        [
            pytest.param(OrderedGreedy(Permutation([2, 0, 3, 1])), id="ordered_greedy"),
            pytest.param(
                IndependentSubsampling(Permutation.identity(4), Fraction(1, 4)),
                id="independent_subsampling",
            ),
            pytest.param(PrefixSubsampling(Permutation.identity(4)), id="prefix_subsampling"),
            pytest.param(
                PermutationMixture(
                    [
                        (Permutation.identity(4), Fraction(1, 3)),
                        (Permutation([3, 2, 1, 0]), Fraction(2, 3)),
                    ]
                ),
                id="permutation_mixture",
            ),
            pytest.param(
                WeightMixture(
                    "greedy_by_weight",
                    [((3, 1, 2, 0), Fraction(1, 2)), ((0, 2, 1, 3), Fraction(1, 2))],
                ),
                id="weight_mixture",
            ),
        ],
    )
    def test_matches_monte_carlo(self, scheme):
        # run_bits (sampled) against outcomes (enumerated), scheme by scheme.
        inst = gen_kuniform_allactive(4, 2)
        bal = exact_balancedness(inst.matroid, scheme, inst.prior)
        rep = estimate_balancedness(
            inst.matroid, scheme, inst.prior, trials=30000, rng=Random(4), ci_level=0.999
        )
        for e in range(4):
            assert rep.elements[e].ci_lo <= float(bal[e]) <= rep.elements[e].ci_hi


class TestAgainstSchemeLadder:
    """`exact_balancedness` over `Scheme.outcomes` against the oracle's former
    `isinstance` ladder (tests/scheme_reference.py), over all five kinds."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_random_small_instances(self, seed):
        rng = Random(seed)
        m = random_small_matroid(rng, max_n=7)
        p = random_explicit_prior(rng, m.n)

        def order():
            return Permutation(sorted(range(m.n), key=lambda e: rng.random()))

        def weights(k):
            raw = [rng.randint(0, 4) for _ in range(k - 1)] + [rng.randint(1, 4)]
            return [Fraction(x, sum(raw)) for x in raw]

        k = rng.randint(1, 3)
        schemes = [
            OrderedGreedy(order()),
            IndependentSubsampling(order(), Fraction(rng.randint(0, 8), 8)),
            PrefixSubsampling(order()),
            PermutationMixture([(order(), wt) for wt in weights(k)]),
            WeightMixture(
                "greedy_by_weight",
                [
                    (tuple(Fraction(rng.randint(0, 5), 2) for _ in range(m.n)), wt)
                    for wt in weights(k)
                ],
            ),
        ]
        for scheme in schemes:
            assert exact_balancedness(m, scheme, p) == reference_exact_balancedness(m, scheme, p)
            subsampling = isinstance(scheme, (IndependentSubsampling, PrefixSubsampling))
            for atom, _ in p.support():
                joint = list(ladder_outcomes(m, scheme, atom))
                credits = list(scheme.outcomes(m, atom))
                assert _per_element(credits, m.n) == _per_element(joint, m.n)
                # Greedy and the mixtures yield their joint law (the alpha* witness
                # reads a PermutationMixture's); the subsampling schemes yield
                # one marginal credit per element.
                for law in [joint] if subsampling else [joint, credits]:
                    assert sum(w for w, _ in law) == 1
                    for _, y in law:
                        assert y & ~atom == 0 and m._independent(y)


def _per_element(credits, n: int) -> list:
    """Each element's summed credit weight."""
    totals = [Fraction(0)] * n
    for w, bits in credits:
        for e in iter_bits(bits):
            totals[e] += w
    return totals


class TestBruteForce:
    def test_zero_weight_and_empty_set(self):
        m = UniformMatroid(3, 2)
        assert bruteforce_weighted_rank(m, (0, 0, 0), SubsetMask.full(3)) == 0
        assert bruteforce_weighted_rank(m, (1, 2, 3), SubsetMask.empty(3)) == 0

    def test_against_greedy(self, rng):
        for _ in range(200):
            m = random_small_matroid(rng, max_n=8)
            w = [Fraction(rng.randint(0, 12), 3) for _ in range(m.n)]
            s = SubsetMask(m.n, rng.randrange(1 << m.n))
            assert bruteforce_weighted_rank(m, w, s) == m.weighted_rank(w, s)

    def test_size_guard(self):
        m = UniformMatroid(21, 2)
        with pytest.raises(EnumerationTooLarge):
            bruteforce_weighted_rank(m, [1] * 21, SubsetMask.full(21))


class TestIndependentSubsets:
    def test_downward_closed_enumeration(self, rng):
        for _ in range(20):
            m = random_small_matroid(rng, max_n=7)
            pool = rng.randrange(1 << m.n)
            got = sorted(independent_subsets(m, pool))
            want = sorted(
                b for b in range(1 << m.n) if b & ~pool == 0 and m._independent(b)
            )
            assert got == want


class TestStructuralConsequences:
    def test_rank_dominates_alpha_star_times_weight(self, rng):
        # expected max-weight independent subset of the active set is at
        # least alpha_star times the expected active weight, exactly
        for inst in explicit_battery():
            if inst.matroid.n > 7:
                continue
            cert = max_uncontentious_alpha(inst.matroid, inst.prior)
            for _ in range(25):
                w = [Fraction(rng.randint(0, 16), 4) for _ in range(inst.matroid.n)]
                lhs = Fraction(0)
                rhs = Fraction(0)
                for atom, p in inst.prior.support():
                    lhs += p * inst.matroid.weighted_rank(w, SubsetMask(inst.matroid.n, atom))
                    rhs += p * sum(w[e] for e in SubsetMask(inst.matroid.n, atom))
                assert lhs >= cert.alpha_star * rhs

    def test_restriction_marginal_monotone_quick(self, rng):
        inst = two_element_instance()
        base = max_uncontentious_alpha(inst.matroid, inst.prior).alpha_star
        for bits in range(4):
            s = SubsetMask(2, bits)
            sub = max_uncontentious_alpha(
                inst.matroid.restrict(s), inst.prior.marginal(s)
            ).alpha_star
            assert sub >= base

    def test_subsample_escape_bound_realized(self):
        # for rho <= alpha*, some element escapes the span of the thinned
        # active set with conditional probability >= alpha* - rho
        for inst in (two_element_instance(), gen_kuniform_allactive(4, 2)):
            n = inst.matroid.n
            cert = max_uncontentious_alpha(inst.matroid, inst.prior)
            for rho_num in range(0, 5):
                rho = cert.alpha_star * Fraction(rho_num, 4)
                best = max(
                    exact_unspanned_prob_independent(
                        inst.matroid, inst.prior, SubsetMask.full(n), j, rho
                    )
                    for j in range(n)
                )
                assert best >= cert.alpha_star - rho
