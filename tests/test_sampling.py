import math
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from ocrs import (
    ExplicitPrior,
    Permutation,
    PermutationMixture,
    ProductPrior,
    SubsetMask,
    UniformMatroid,
    parse_instance,
)
from ocrs.bitset import full_mask, iter_bits, mask_of, popcount
from ocrs.sampling import (
    draw_index,
    exact_cdf,
    prefix_subsample_bits,
    shuffled,
    spec_field,
    t_rho_bits,
)

from conftest import sentinel_prefix_law


class TestTRho:
    def test_rho_zero_drops_everything(self, rng):
        s = SubsetMask.from_elements(5, [0, 2, 4])
        assert all(not t_rho_bits(s.bits, 0.0, rng) for _ in range(20))

    def test_rho_one_keeps_everything(self, rng):
        s = SubsetMask.from_elements(5, [0, 2, 4])
        assert all(SubsetMask(5, t_rho_bits(s.bits, 1.0, rng)) == s for _ in range(20))

    def test_result_is_subset(self, rng):
        s = SubsetMask.from_elements(8, [1, 3, 4, 7])
        for _ in range(200):
            assert SubsetMask(8, t_rho_bits(s.bits, 0.3, rng)).issubset(s)

    def test_marginal_rate_and_pairwise_independence(self, rng):
        trials = 30000
        counts = [0, 0, 0]
        joint01 = 0
        for _ in range(trials):
            kept = t_rho_bits(0b111, 0.5, rng)
            for e in iter_bits(kept):
                counts[e] += 1
            joint01 += (kept & 0b11) == 0b11
        band = 3 * math.sqrt(0.25 / trials)
        for c in counts:
            assert abs(c / trials - 0.5) < band + 0.005
        assert abs(joint01 / trials - 0.25) < band + 0.005

    def test_rho_out_of_range(self, rng):
        with pytest.raises(ValueError):
            t_rho_bits(0b11, 1.5, rng)

    @pytest.mark.parametrize(
        "rho, depth",
        [(Fraction(0), 0), (Fraction(1, 4), 2), (Fraction(3, 8), 3), (Fraction(1), 0)],
    )
    def test_dyadic_law_exact_within_its_expansion(self, rho, depth):
        # Every word sequence of the expansion's length ends the draw, and the
        # joint law is the product law: marginals rho, pairs rho^2, tolerance 0.
        n = 3
        law, undecided = thinning_law(full_mask(n), rho, depth)
        assert undecided == 0
        for t in range(1 << n):
            k = popcount(t)
            assert law.get(t, 0) == rho**k * (1 - rho) ** (n - k)
        for e in range(n):
            assert kept_mass(law, 1 << e) == rho
        assert kept_mass(law, 0b011) == kept_mass(law, 0b101) == rho**2

    @pytest.mark.parametrize("rho", [Fraction(1, 3), Fraction(5, 36)])
    def test_non_dyadic_law_within_two_to_minus_depth(self, rho):
        # One element: within L words it is kept with rho's expansion cut to L
        # bits, in [rho - 2^-L, rho], and undecided with mass exactly 2^-L.
        depth = 8
        law, undecided = thinning_law(0b1, rho, depth)
        truncated = Fraction(math.floor(rho * 2**depth), 2**depth)
        assert rho - Fraction(1, 2**depth) <= kept_mass(law, 0b1) == truncated <= rho
        assert undecided == Fraction(1, 2**depth)
        # Two elements share each word; a draw ends when both are decided.
        law, undecided = thinning_law(0b11, rho, depth)
        for e in range(2):
            assert rho - Fraction(2, 2**depth) <= kept_mass(law, 1 << e) <= rho
        assert rho**2 - Fraction(2, 2**depth) <= kept_mass(law, 0b11) <= rho**2
        assert 0 < undecided <= Fraction(2, 2**depth)

    def test_float_rho_means_its_decimal_digits(self):
        assert thinning_law(0b11, 0.1, 5) == thinning_law(0b11, Fraction(1, 10), 5)


class _OutOfWords(Exception):
    def __init__(self, width):
        self.width = width


class _ScriptedWords:
    """An rng whose getrandbits replays `words`; asking past the end raises
    _OutOfWords carrying the width asked for."""

    def __init__(self, words):
        self.words = iter(words)

    def getrandbits(self, width):
        for u in self.words:
            assert 0 <= u < 1 << width
            return u
        raise _OutOfWords(width)


def word_law(draw, depth):
    """Exact law of draw(rng) over every sequence of at most `depth` fair
    words: ({outcome: mass} of the draws that end, undecided mass)."""
    law, undecided = {}, Fraction(0)
    stack = [((), Fraction(1))]
    while stack:
        words, mass = stack.pop()
        try:
            out = draw(_ScriptedWords(words))
        except _OutOfWords as ask:
            if len(words) == depth:
                undecided += mass
            else:
                branch = mass / 2**ask.width
                stack.extend((words + (u,), branch) for u in range(1 << ask.width))
            continue
        law[out] = law.get(out, 0) + mass
    return law, undecided


def thinning_law(bits, rho, depth):
    """Exact law of t_rho_bits(bits, rho, .) over every sequence of at most
    `depth` fair words: ({kept: mass} of the draws that end, undecided mass)."""
    return word_law(lambda rng: t_rho_bits(bits, rho, rng), depth)


def kept_mass(law, mask):
    """Mass of the draws that keep every element of mask."""
    return sum((p for t, p in law.items() if t & mask == mask), Fraction(0))


@pytest.mark.parametrize(
    "call, bad",
    [(lambda: spec_field(5, "n"), "got 5"), (lambda: spec_field([1, 2], "n"), "got [1, 2]"),
     (lambda: Permutation(5), "got 5"), (lambda: Permutation(None), "got None")],
    ids=["spec-int", "spec-list", "order-int", "order-none"],
)
def test_input_checks_name_the_bad_value(call, bad):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and bad in str(info.value)


class TestPermutation:
    def test_must_be_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 3])

    def test_random_permutation_reproducible(self):
        assert Permutation(shuffled(range(6), Random(5))) == Permutation(shuffled(range(6), Random(5)))

    def test_immutability_equality_and_hash(self):
        sigma = Permutation([2, 0, 1])
        with pytest.raises(AttributeError):
            sigma.order = (0, 1, 2)
        assert sigma.order == (2, 0, 1)  # any sequence is stored as a tuple
        assert sigma == Permutation((2, 0, 1)) == Permutation(iter([2, 0, 1]))
        assert hash(sigma) == hash(Permutation((2, 0, 1)))
        assert sigma != Permutation([0, 1, 2]) and sigma != (2, 0, 1)
        assert len({sigma, Permutation([2, 0, 1]), Permutation([0, 1, 2])}) == 2
        assert repr(sigma) == "Permutation([2, 0, 1])"


class _RecordingRandom(Random):
    """Overrides getrandbits, as a counting Random does, and records each
    width asked for, so two draws can be compared call for call."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


class TestShuffled:
    """`shuffled` is the library's own Fisher-Yates; it must make the draws
    of `Random.shuffle`, so seeded orders do not depend on the stdlib's."""

    SEEDS = [0, 1, 2, 3, 7, 42, 2**31 - 1, 2**32 + 5, 123456789]

    @pytest.mark.parametrize("rng_cls", [Random, _RecordingRandom])
    def test_stream_equals_random_shuffle(self, rng_cls):
        for seed in self.SEEDS:
            for n in range(41):
                ours, ref = rng_cls(seed), rng_cls(seed)
                want = list(range(n))
                ref.shuffle(want)
                assert shuffled(range(n), ours) == want, (seed, n)
                assert ours.getstate() == ref.getstate(), (seed, n)
                if rng_cls is _RecordingRandom:
                    assert ours.widths == ref.widths, (seed, n)

    def test_any_elements_and_input_untouched(self):
        items = [10, 3, 7, 7, 0, 99]
        copy = list(items)
        ref = list(items)
        Random(11).shuffle(ref)
        assert shuffled(items, Random(11)) == ref
        assert items == copy  # a new list; the input is not shuffled in place
        assert shuffled(iter(items), Random(11)) == ref

    def test_random_permutation_is_the_same_draw(self):
        for seed in self.SEEDS:
            ref = list(range(9))
            Random(seed).shuffle(ref)
            assert Permutation(shuffled(range(9), Random(seed))) == Permutation(ref)


class TestPrefixSubsample:
    def test_size_uniform_exact(self):
        for n in range(1, 7):
            law = sentinel_prefix_law(n)
            by_size = {}
            for t, p in law.items():
                by_size[popcount(t)] = by_size.get(popcount(t), Fraction(0)) + p
            assert by_size == {s: Fraction(1, n + 1) for s in range(n + 1)}

    def test_n1_half(self):
        law = sentinel_prefix_law(1)
        assert law[0b1] == Fraction(1, 2)

    def test_conditional_insertion_law_exact(self):
        # Pr[pi(i) in T | T cap first(i-1) = S] == (|S|+1)/(i+1), any pi
        pi = Permutation([2, 0, 3, 1])
        n = pi.n
        law = sentinel_prefix_law(n)
        for i in range(1, n + 1):
            head = mask_of(pi.order[: i - 1])
            e = pi.order[i - 1]
            for s_bits in range(1 << n):
                if s_bits & ~head:
                    continue
                total = Fraction(0)
                with_e = Fraction(0)
                for t, p in law.items():
                    if t & head == s_bits:
                        total += p
                        if (t >> e) & 1:
                            with_e += p
                assert total > 0
                assert with_e / total == Fraction(popcount(s_bits) + 1, i + 1)

    def test_prefix_distribution_equivalence_exact(self):
        # T cap first(i-1) has the law of prefix(sigma, pi(i)), sigma uniform
        # over the first i elements; total-variation distance must be 0.
        pi = Permutation([1, 3, 0, 2, 4])
        n = pi.n
        law = sentinel_prefix_law(n)
        for i in range(1, n + 1):
            head = mask_of(pi.order[: i - 1])
            lhs = {}
            for t, p in law.items():
                key = t & head
                lhs[key] = lhs.get(key, Fraction(0)) + p
            rhs = {}
            first_i = [pi.order[j] for j in range(i)]
            count = 0
            for perm in permutations(first_i):
                pre = 0
                for e in perm:
                    if e == pi.order[i - 1]:
                        break
                    pre |= 1 << e
                rhs[pre] = rhs.get(pre, 0) + 1
                count += 1
            rhs = {k: Fraction(v, count) for k, v in rhs.items()}
            assert lhs == rhs

    def test_sampler_matches_exact_law(self, rng):
        # n = 4 on the fresh seed as before; n = 1, 2 and 5 also reach both
        # branches of the complement draw at small sizes.
        for n in (4, 1, 2, 5):
            law = sentinel_prefix_law(n)
            trials = 20000
            counts = {}
            for _ in range(trials):
                t = prefix_subsample_bits(n, rng)
                counts[t] = counts.get(t, 0) + 1
            for t, p in law.items():
                band = 4 * math.sqrt(float(p) * (1 - float(p)) / trials) + 0.01
                assert abs(counts.get(t, 0) / trials - float(p)) < band

    def test_needs_positive_n(self, rng):
        with pytest.raises(ValueError):
            prefix_subsample_bits(0, rng)

    @pytest.mark.parametrize("n, depth", [(1, 8), (2, 9), (3, 12), (4, 15), (5, 18)])
    def test_sentinel_comparison_never_overshoots_the_exact_law(self, n, depth):
        # Within `depth` words the draw gives no subset more than its
        # PrefixLaw mass, and the shortfalls sum to exactly the mass still
        # undecided. A level spends one word on the sentinel and one on each
        # undecided element, so `depth` words complete at least
        # depth // (n + 1) levels (here 3 or more), and an element is still
        # undecided only after a tie with the sentinel on every one of them.
        law, undecided = word_law(lambda rng: prefix_subsample_bits(n, rng), depth)
        shortfall = Fraction(0)
        for t in range(1 << n):
            exact = Fraction(1, (n + 1) * math.comb(n, popcount(t)))
            assert law.get(t, 0) <= exact
            shortfall += exact - law.get(t, 0)
        assert shortfall == undecided
        assert 0 < undecided <= Fraction(n, 2 ** (depth // (n + 1)))


def _conditional_law(draw, depth):
    """The law of draw(rng) given that it ends within `depth` words."""
    law, undecided = word_law(draw, depth)
    assert undecided < 1
    return {out: mass / (1 - undecided) for out, mass in law.items()}


class TestIntegerCdf:
    def test_running_sums_over_the_common_denominator(self):
        weights = [Fraction(1, 4), Fraction(1, 6), Fraction(0), Fraction(7, 12)]
        assert exact_cdf(weights) == [3, 5, 5, 12]

    @pytest.mark.parametrize(
        "prior",
        [
            ExplicitPrior(2, [(bits, Fraction(1, 3)) for bits in (0b00, 0b01, 0b11)]),
            parse_instance("hidden:6,1/3,1/20,0").prior,
        ],
    )
    def test_explicit_prior_draw_is_exact(self, prior):
        # Conditional on the rejection loop ending, each atom is drawn with its
        # probability exactly, tolerance 0.
        assert _conditional_law(prior.sample_bits, 2) == dict(prior.atoms)

    def test_mixture_draw_is_exact(self):
        mix = PermutationMixture(
            [(Permutation([0, 1]), Fraction(1, 3)), (Permutation([1, 0]), Fraction(2, 3))]
        )
        m = UniformMatroid(2, 1)
        law = _conditional_law(lambda rng: mix.run_bits(m, 0b11, rng), 3)
        assert law == {0b01: Fraction(1, 3), 0b10: Fraction(2, 3)}

    def test_power_of_two_total_never_rejects(self):
        cdf = exact_cdf([Fraction(1, 4), Fraction(3, 4)])
        law, undecided = word_law(lambda rng: draw_index(cdf, rng), 1)
        assert undecided == 0
        assert law == {0: Fraction(1, 4), 1: Fraction(3, 4)}

    @pytest.mark.parametrize("cdf", [[1], [1, 3], [2, 5, 5, 12], [3, 4, 17], [1 << 40, 3 << 40]])
    def test_every_retry_draws_one_width(self, cdf):
        # u < total by rejection on (total - 1).bit_length() fair bits, the
        # same width on every retry; the draw is the first index past u.
        total, width = cdf[-1], (cdf[-1] - 1).bit_length()
        for seed in range(50):
            rng, ref = _RecordingRandom(seed), Random(seed)
            u = ref.getrandbits(width)
            while u >= total:
                u = ref.getrandbits(width)
            assert draw_index(cdf, rng) == min(i for i, c in enumerate(cdf) if c > u)
            assert set(rng.widths) <= {width}
            assert rng.getstate() == ref.getstate()


def test_product_prior_law_exact_within_its_expansions():
    # A single draw is the batch of one, each element thinned on its own:
    # each 1/4 takes at most two words, 3/8 at most three, 0 and 1 none, so
    # seven words decide every draw.
    x = [Fraction(1, 4), Fraction(1, 4), Fraction(3, 8), Fraction(0), Fraction(1)]
    law, undecided = word_law(ProductPrior(x).sample_bits, 7)
    assert undecided == 0
    for t in range(1 << len(x)):
        p = math.prod(xi if (t >> i) & 1 else 1 - xi for i, xi in enumerate(x))
        assert law.get(t, 0) == p


def test_weighted_prefix_sum_bound(rng):
    # If the x_k average at least alpha, the (k+1)/(i(i+1))-weighted sum is
    # at least alpha^2/2. Quick randomized version; the full sweep runs in
    # the acceptance suite.
    for _ in range(500):
        i = rng.randint(1, 20)
        xs = [rng.random() for _ in range(i)]
        alpha = (sum(xs) / i) * rng.random()
        weighted = sum((k + 1) * xs[k] for k in range(i)) / (i * (i + 1))
        assert weighted >= alpha * alpha / 2 - 1e-12
