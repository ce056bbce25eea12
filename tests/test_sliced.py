"""The trial-sliced Monte-Carlo path of `estimate_balancedness`: each
element's state over a batch of trials is one int, bit t for trial t. Each
sliced piece is checked against its per-trial twin: greedy against
`greedy_bits` per trial, bit for bit; the draws against a scalar bit-plane
comparison on the same fair bits; the estimates against
`exact_balancedness` at the 1 - 1e-9 Hoeffding level."""

from collections import Counter
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
    OrderedGreedy,
    Permutation,
    PermutationMixture,
    PrefixSubsampling,
    ProductPrior,
    RestrictionMatroid,
    SubsetMask,
    UniformMatroid,
    WeightMixture,
    estimate_balancedness,
    exact_balancedness,
    parse_instance,
)
from ocrs import priors
from ocrs.harness import hoeffding_halfwidth
from ocrs.priors import AllActivePrior, hidden_element_prior
from ocrs.sampling import prefix_subsample_words

from conftest import column, random_small_matroid, sentinel_prefix_law

MISS = 1e-9  # no interval at this level is missed by chance in the suite


def every_set(n: int) -> list[int]:
    """Words over 2^n trials in which trial t is the set t: all sets at once."""
    return [sum(1 << t for t in range(1 << n) if t >> e & 1) for e in range(n)]


def masked_to(M, words):
    """`words` with every element outside the restriction M's ground set cleared."""
    return [w if M.ground_bits >> e & 1 else 0 for e, w in enumerate(words)]


def assert_greedy_words_per_trial(M, order, trials, words):
    taken = M.greedy_words(order, words)
    assert len(taken) == M.n
    for t in range(trials):
        assert column(taken, t) == M.greedy_bits(order, column(words, t)), (M, order, t)
    assert all(w >> trials == 0 for w in taken)


LOOPY = GraphicMatroid(4, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 2), (2, 3), (3, 1)])


class TestSlicedGreedy:
    @pytest.mark.parametrize(
        "M",
        [UniformMatroid(5, 0), UniformMatroid(5, 1), UniformMatroid(5, 3), UniformMatroid(5, 5),
         LOOPY, UniformMatroid(6, 2).restrict(SubsetMask(6, 0b101101)),
         LOOPY.restrict(SubsetMask(8, 0b11011110))],
        ids=["k=0", "k=1", "k=3", "k=n", "graphic-loops-parallel", "uniform-restricted",
             "graphic-restricted"],
    )
    def test_every_active_set_at_once(self, M):
        # Trial t offers the set t, so one call covers every set of the ground set.
        for order in (range(M.n), range(M.n - 1, -1, -1), [3, 0, 4, 1, 2, *range(5, M.n)]):
            assert_greedy_words_per_trial(M, list(order), 1 << M.n, every_set(M.n))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_greedy_bits_per_trial(self, data):
        n = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            M = UniformMatroid(n, data.draw(st.integers(0, n)))
        else:
            v = data.draw(st.integers(1, 5))
            ends = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
            M = GraphicMatroid(v, data.draw(st.lists(ends, min_size=n, max_size=n)))
        if data.draw(st.booleans()):
            M = M.restrict(SubsetMask(n, data.draw(st.integers(0, (1 << n) - 1))))
        trials = data.draw(st.integers(1, 80))
        words = data.draw(st.lists(st.integers(0, (1 << trials) - 1), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        assert_greedy_words_per_trial(M, order, trials, words)
        if isinstance(M, RestrictionMatroid):
            # The reference above runs the restriction's own span steps too:
            # tie it to its parent's kernel on the words masked to X.
            masked = masked_to(M, words)
            assert M.greedy_words(order, words) == M.parent.greedy_words(order, masked)

    def test_families_without_a_kernel(self):
        # An explicit set list, and its restriction, greedy by the default: one
        # `greedy_bits` per distinct set of the batch.
        explicit = ExplicitMatroid(4, [[], [0], [1], [2], [3], [0, 2], [1, 3], [0, 3], [1, 2]])
        gen = Random(5)
        for M in (explicit, explicit.restrict(SubsetMask(4, 0b1101))):
            for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
                assert_greedy_words_per_trial(M, order, 1 << M.n, every_set(M.n))
                words = [gen.getrandbits(100) for _ in range(M.n)]
                assert_greedy_words_per_trial(M, order, 100, words)

    @pytest.mark.parametrize(
        "scheme",
        [PermutationMixture([(Permutation([0, 1, 2, 3]), Fraction(1, 3)),
                             (Permutation([3, 1, 2, 0]), Fraction(2, 3))]),
         WeightMixture("classic_1uniform", [((1, 2, 3, 4), 1)]),
         WeightMixture("greedy_by_weight", [((1, 2, 3, 4), Fraction(1, 2)),
                                            ((4, 0, 2, 1), Fraction(1, 2))])],
        ids=["permutation-mixture", "classic", "weight-mixture"],
    )
    def test_default_run_words_is_run_bits_per_trial(self, scheme):
        # Trials past the last active one still run, in order, on the empty set.
        M, trials = UniformMatroid(4, 2), 70
        words = [Random(e).getrandbits(60) for e in range(4)]
        ours, ref = Random(9), Random(9)
        got = scheme.run_words(M, words, (1 << trials) - 1, ours)
        for t in range(trials):
            assert column(got, t) == scheme.run_bits(M, column(words, t), ref), t
        assert all(w >> trials == 0 for w in got)
        assert ours.getstate() == ref.getstate()


# Vertices 3 and 5 lie on no edge; 0 and 4 carry loops, 0-1 a parallel pair.
UNTOUCHED = GraphicMatroid(6, [(0, 0), (0, 1), (1, 0), (1, 2), (4, 4), (2, 0), (4, 2)])


def assert_span_words_per_trial(M, words, within, trials):
    """Both sliced span kernels against `_unspanned` in each trial t:
    `unspanned_words` against `_unspanned(bits, within)`, and
    `unspanned_by_rest_words` against `_unspanned(bits & ~(1 << j), 1 << j)`
    for each candidate j of `within`, bits being trial t's set."""
    out = M.unspanned_words(words, within, trials)
    rest = M.unspanned_by_rest_words(words, within, trials)
    assert len(out) == len(rest) == M.n
    for t in range(trials.bit_length()):
        bits = column(words, t)
        assert column(out, t) == M._unspanned(bits, within), (M, within, t)
        want = sum(M._unspanned(bits & ~(1 << j), 1 << j) for j in range(M.n) if within >> j & 1)
        assert column(rest, t) == want, (M, within, t)
    assert all(w & ~trials == 0 for w in out + rest)


# A loop at 0 and at 4, the parallel pair 0-1, the cycle 0-1-2 and the bridges 2-3, 3-4.
BRIDGED = GraphicMatroid(5, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4)])


class TestSlicedSpan:
    """`unspanned_words` is `_unspanned` per trial, bit for bit, and
    `unspanned_by_rest_words` is `_unspanned(bits & ~(1 << j), 1 << j)` per
    trial and candidate j, in every family: uniform and graphic by their
    folds, explicit set lists and restrictions through the base class's
    default, a restriction also against its parent's kernels on masked
    words."""

    @pytest.mark.parametrize(
        "M",
        [*(UniformMatroid(5, k) for k in range(6)), LOOPY, UNTOUCHED, BRIDGED,
         UniformMatroid(6, 2).restrict(SubsetMask(6, 0b101101)),
         UNTOUCHED.restrict(SubsetMask(7, 0b1011110)),
         ExplicitMatroid(4, [[], [0], [1], [2], [3], [0, 2], [1, 3], [0, 3], [1, 2]])],
        ids=["k=0", "k=1", "k=2", "k=3", "k=4", "k=n", "graphic-loops-parallel",
             "graphic-untouched-vertices", "graphic-bridges-cycle", "uniform-restricted",
             "graphic-restricted", "explicit"],
    )
    def test_every_set_at_once(self, M):
        # Trial t holds the set t, so trial 0 and the 3 trials past 2^n keep
        # nothing: an untouched vertex must still read as its own component there.
        trials = (1 << (1 << M.n) + 3) - 1
        for within in ((1 << M.n) - 1, 0b1010101 & ((1 << M.n) - 1), 0):
            assert_span_words_per_trial(M, every_set(M.n), within, trials)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_unspanned_per_trial(self, data):
        n = data.draw(st.integers(1, 8))
        kind = data.draw(st.sampled_from(["uniform", "graphic", "explicit"]))
        if kind == "uniform":
            M = UniformMatroid(n, data.draw(st.integers(0, n)))
        elif kind == "graphic":
            v = data.draw(st.integers(1, 7))
            ends = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
            M = GraphicMatroid(v, data.draw(st.lists(ends, min_size=n, max_size=n)))
        else:
            M = random_small_matroid(Random(data.draw(st.integers(0, 2**32 - 1))), family=kind)
        n = M.n
        if data.draw(st.booleans()):
            M = M.restrict(SubsetMask(n, data.draw(st.integers(0, (1 << n) - 1))))
        trials = (1 << data.draw(st.integers(1, 150))) - 1
        sparse = data.draw(st.booleans())  # then most trials keep nothing
        word = st.integers(0, trials).map(lambda w: w & w >> 1 & w >> 2 if sparse else w)
        words = data.draw(st.lists(word, min_size=n, max_size=n))
        within = data.draw(st.integers(0, (1 << n) - 1))
        assert_span_words_per_trial(M, words, within, trials)
        if isinstance(M, RestrictionMatroid):
            # As for greedy: the parent's kernels on the words masked to X.
            masked, inside = masked_to(M, words), within & M.ground_bits
            for kernel in ("unspanned_words", "unspanned_by_rest_words"):
                got = getattr(M, kernel)(words, within, trials)
                assert got == getattr(M.parent, kernel)(masked, inside, trials), kernel


class ScriptedBits(Random):
    """A fair-bit source that keeps a script of its draws: each
    `getrandbits(k)` is the next k bits of a seeded stream, appended to
    `script` for a reference to replay. Any other draw fails."""

    def __init__(self, seed):
        self.script = []
        super().__init__(seed)

    def getrandbits(self, k):
        word = super().getrandbits(k)
        self.script.append(word)
        return word

    def random(self):
        raise AssertionError("float draw")


def scalar_prefix(words, script):
    """Replay the script level by level: a sentinel word, then one word per
    element still undecided in some trial, ascending. Trial t compares
    U_e(t) with U_s(t) one digit (bit t of each word) at a time and keeps e
    at the first digit where U_e's is 0 and U_s's is 1."""
    draws = iter(script)
    undecided = {e: {t for t in range(w.bit_length()) if w >> t & 1} for e, w in enumerate(words)}
    kept = [0] * len(words)
    live = [e for e in undecided if undecided[e]]
    while live:
        s = next(draws)
        for e in live:
            u = next(draws)
            for t in sorted(undecided[e]):
                if (u >> t & 1) != (s >> t & 1):
                    undecided[e].discard(t)
                    kept[e] |= (s >> t & 1) << t
        live = [e for e in live if undecided[e]]
    assert next(draws, None) is None
    return kept


def scalar_thinning(words, rho: Fraction, script):
    """Replay the script element by element, one word per digit of rho's
    binary expansion while the element is undecided in some trial: trial t
    keeps e at the first digit where U_e(t)'s (bit t) is below rho's."""
    draws = iter(script)
    kept = []
    for w in words:
        if rho == 1:
            kept.append(w)
            continue
        undecided = {t for t in range(w.bit_length()) if w >> t & 1}
        num, den, k = rho.numerator, rho.denominator, 0
        while undecided and num:
            num <<= 1
            digit = int(num >= den)
            num -= digit * den
            u = next(draws)
            for t in sorted(undecided):
                if (u >> t & 1) != digit:
                    undecided.discard(t)
                    k |= digit << t
        kept.append(k)
    assert next(draws, None) is None
    return kept


def random_words(seed: int, n: int, trials: int) -> list[int]:
    gen = Random(seed)
    return [gen.getrandbits(trials) if gen.random() < 0.8 else 0 for _ in range(n)]


class TestSlicedDraws:
    """On a free matroid (rank n) greedy takes every offered element, so a
    scheme's `run_words` returns its keep-words over the active trials."""

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_draw_is_the_scalar_comparison(self, seed):
        n, trials = 1 + seed, 50 + 40 * seed
        words = random_words(seed, n, trials)
        rng = ScriptedBits(seed)
        scheme = PrefixSubsampling(Permutation.identity(n))
        got = scheme.run_words(UniformMatroid(n, n), words, (1 << trials) - 1, rng)
        assert got == scalar_prefix(words, rng.script)
        assert all(k & ~w == 0 for k, w in zip(got, words))

    @pytest.mark.parametrize("rho", ["0", "1/4", "1/3", "5/7", "1"])
    @pytest.mark.parametrize("seed", range(3))
    def test_thinning_is_the_scalar_comparison(self, seed, rho):
        n, trials = 3 + seed, 70
        words = random_words(seed, n, trials)
        rng = ScriptedBits(seed)
        scheme = IndependentSubsampling(Permutation.identity(n), rho)
        got = scheme.run_words(UniformMatroid(n, n), words, (1 << trials) - 1, rng)
        assert got == scalar_thinning(words, Fraction(rho), rng.script)

    def test_prefix_draw_has_the_sentinel_law(self):
        # Every trial's T, over 3 always-active elements, against the exact law
        # of the set before a uniformly placed sentinel.
        n, trials = 3, 20000
        seen = {}
        for start in range(0, trials, 4000):
            kept = prefix_subsample_words([(1 << 4000) - 1] * n, Random(start))
            for t in range(4000):
                T = column(kept, t)
                seen[T] = seen.get(T, 0) + 1
        half = hoeffding_halfwidth(1 - MISS, trials)
        for T, p in sentinel_prefix_law(n).items():
            assert abs(Fraction(seen.get(T, 0), trials) - p) <= half, T



class TestExplicitPriorWords:
    """An explicit prior splits each batch between halves of its atom list
    by mass, and draws small parts per trial: checked in law, per seed, at
    batch sizes that draw per trial at the top, split, or both."""

    LAWS = {
        "zero-atom": ExplicitPrior(4, [(0b0011, Fraction(1, 3)), (0b0110, Fraction(1, 2)),
                                       (0b0000, Fraction(1, 6)), (0b1000, Fraction(0))]),
        "hidden": hidden_element_prior(6, Fraction(1, 3), Fraction(1, 20), 0),
        "product-support": ExplicitPrior(8, ProductPrior(
            ["1/3", "1/2", "2/7", "9/10", "1/5", "3/4", "1/9", "5/8"]).support()),
    }

    @pytest.mark.parametrize("size", [1, 3, 100, 4096])
    @pytest.mark.parametrize("name", list(LAWS))
    def test_atom_frequencies_within_hoeffding(self, name, size):
        prior, trials = self.LAWS[name], 8192
        half = hoeffding_halfwidth(1 - MISS, trials)
        for seed in range(4):
            rng, seen = Random(seed), Counter()
            for _ in range(trials // size):
                words = prior.trial_words(size, rng)
                seen.update(column(words, t) for t in range(size))
            assert seen.keys() <= {bits for bits, p in prior.atoms if p}
            for bits, p in prior.atoms:
                assert abs(Fraction(seen[bits], trials) - p) <= half, (seed, bits)

    @pytest.mark.parametrize("size", [1, 2, 5, 4096])
    def test_zero_probability_atoms_are_never_drawn(self, size):
        # Zero atoms first, inside and last; the lower half of the list has no mass.
        prior = ExplicitPrior(3, [(0b000, 0), (0b001, 0), (0b010, Fraction(1, 3)), (0b011, 0),
                                  (0b100, Fraction(2, 3)), (0b111, 0)])
        for seed in range(20):
            words = prior.trial_words(size, Random(seed))
            assert {column(words, t) for t in range(size)} <= {0b010, 0b100}

    def test_one_atom_draws_nothing(self):
        rng = Random(4)
        state = rng.getstate()
        for size in (1, 2, 4096):
            assert ExplicitPrior(3, [(0b101, 1)]).trial_words(size, rng) == [
                (1 << size) - 1, 0, (1 << size) - 1]
        assert rng.getstate() == state
        assert AllActivePrior(3).trial_words(5, Random(0)) == [0b11111] * 3


def counts(report) -> list[tuple[int, int]]:
    return [(row.active_count, row.selected_count) for row in report.elements]


def product_instance():
    hats = parse_instance("parallel-hats:1/2,m=3")
    x = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(9, 10), Fraction(1, 5)] * 2
    return hats.matroid, ProductPrior(x[: hats.matroid.n])


def explicit_instance():
    M = GraphicMatroid(4, [(0, 1), (1, 2), (2, 0), (0, 1), (2, 3), (3, 3)])
    prior = ExplicitPrior(6, [(0b111111, Fraction(1, 4)), (0b010111, Fraction(1, 4)),
                              (0b101001, Fraction(1, 3)), (0b110110, Fraction(1, 6))])
    return M, prior


def battery():
    k8, hats5 = parse_instance("kuniform:8,4"), parse_instance("parallel-hats:1/2,m=5")
    yield "kuniform:8,4 prefix", k8.matroid, k8.prior, PrefixSubsampling(k8.canonical_order)
    yield ("parallel-hats:1/2,m=5 indep", hats5.matroid, hats5.prior,
           IndependentSubsampling(hats5.canonical_order, Fraction(1, 4)))
    M, prior = explicit_instance()
    yield "explicit prior prefix", M, prior, PrefixSubsampling(Permutation([5, 2, 0, 4, 1, 3]))
    M, prior = product_instance()
    yield ("product prior indep", M, prior,
           IndependentSubsampling(Permutation(range(M.n - 1, -1, -1)), Fraction(1, 3)))
    yield ("explicit matroid prefix", ExplicitMatroid(3, [[], [0], [1], [2], [0, 2]]),
           ExplicitPrior(3, [(0b111, Fraction(1, 2)), (0b011, Fraction(1, 2))]),
           PrefixSubsampling(Permutation([2, 0, 1])))


class TestSlicedEstimates:
    @pytest.mark.parametrize("case", list(battery()), ids=lambda case: case[0])
    def test_within_hoeffding_of_the_exact_value(self, case):
        name, M, prior, scheme = case
        exact = exact_balancedness(M, scheme, prior)
        for seed in range(1, 5):
            report = estimate_balancedness(M, scheme, prior, 20000, Random(seed))
            for row, want in zip(report.elements, exact):
                assert row.active_count > 0
                half = hoeffding_halfwidth(1 - MISS, row.active_count)
                assert abs(Fraction(row.selected_count, row.active_count) - want) <= half, (
                    name, seed, row)

    def test_batches_cover_every_trial(self, monkeypatch):
        # 50 trials in batches of 7: the last batch is short, and greedy draws
        # nothing, so the counts are greedy's per trial on the prior's words
        # drawn in batches of 7, 7, ..., 7, 1.
        monkeypatch.setattr(priors, "TRIAL_BATCH", 7)
        k4 = parse_instance("kuniform:4,2")
        report = estimate_balancedness(k4.matroid, PrefixSubsampling(k4.canonical_order),
                                       k4.prior, 50, Random(3))
        assert [row.active_count for row in report.elements] == [50] * 4
        M, prior = explicit_instance()
        greedy = OrderedGreedy(Permutation([3, 1, 4, 0, 5, 2]))
        report = estimate_balancedness(M, greedy, prior, 50, Random(3))
        rng, want = Random(3), [(0, 0)] * M.n
        for size in [7] * 7 + [1]:
            words = prior.trial_words(size, rng)
            for t in range(size):
                a = column(words, t)
                s = greedy.run_bits(M, a, rng)
                want = [(x + (a >> e & 1), y + (s >> e & 1)) for e, (x, y) in enumerate(want)]
        assert counts(report) == want

    @pytest.mark.parametrize(
        "M, scheme",
        [
            (UniformMatroid(3, 1), PermutationMixture([
                (Permutation([0, 1, 2]), Fraction(1, 3)), (Permutation([2, 1, 0]), Fraction(2, 3))
            ])),
            (UniformMatroid(3, 2), WeightMixture("classic_1uniform", [((1, 2, 3), 1)])),
            (ExplicitMatroid(3, [[], [0], [1], [2], [0, 2]]), OrderedGreedy(Permutation([2, 0, 1]))),
        ],
        ids=["permutation-mixture", "weight-mixture", "explicit-matroid"],
    )
    def test_no_kernel_is_the_per_trial_loop(self, M, scheme):
        # One batch of the prior's words, then the scheme's `run_bits` (or,
        # on the explicit matroid, greedy's `greedy_bits`) trial by trial.
        prior = ExplicitPrior(3, [(0b111, Fraction(1, 2)), (0b011, Fraction(1, 2))])
        report = estimate_balancedness(M, scheme, prior, 500, Random(8))
        rng = Random(8)
        words = prior.trial_words(500, rng)
        want = [[0, 0] for _ in range(M.n)]
        for t in range(500):
            a = column(words, t)
            s = scheme.run_bits(M, a, rng)
            for e in range(M.n):
                want[e][0] += a >> e & 1
                want[e][1] += s >> e & 1
        assert counts(report) == [tuple(c) for c in want]
