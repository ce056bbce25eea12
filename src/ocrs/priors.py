"""Prior distributions over active sets.

A prior states its law once, as `sample_bits` (one draw; `SamplerPrior`
adapts a function) or `trial_words` (a batch, one word per element with
bit t for draw t), and each derives from the other. The explicit, product
and all-active priors state the batch and report exact activation
probabilities. `Prior.count` is the library's one Monte-Carlo counting
loop over such batches: evaluation, both preselection statistics, the
Monte-Carlo LP build, `p_min`'s estimate and `measure_competitiveness` all
count through it, each with its own selector on the batch's words.
`Prior` states p_min and marginal once for every prior: p_min is exact when
those are known, else estimated from the prior's own draws (`Prior.count`).

Exact probabilities are kept as Fractions, so enumeration (oracles, exact
preselection) and the exact draws of `sampling` carry no rounding error.
Float inputs are read as their decimal literal (0.2 means 1/5).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Callable, Iterable, Optional, Sequence

from .bitset import DimensionMismatch, SubsetMask, full_mask, iter_bits, mask_of, sliced
from .sampling import (
    EnumerationTooLarge,
    _below,
    check_in_ground_set,
    draw_indices,
    exact_cdf,
    spec_field,
    t_rho_bits,
    to_fraction,
)

PROB_SUM_TOL = Fraction(1, 10**12)
TRIAL_BATCH = 4096  # trials per sliced batch: the bits of each element's word
MODES = ("exact", "mc", "auto")
AUTO_EXACT_ATOMS = 4096  # auto enumerates an explicit support up to this many atoms


class PriorError(ValueError):
    pass


def exact_or_sampled(P: Prior, mode: str, exact: Callable, sampled: Callable):
    """The library's one choice between an exact and a Monte-Carlo route.

    `mode` "exact" runs `exact()`, "mc" runs `sampled()`, and "auto" tries
    `exact()` when P's support is explicit with at most AUTO_EXACT_ATOMS
    atoms (`support_size`, which lists none), falling back to `sampled()`
    whenever it raises `EnumerationTooLarge`. An exact route must raise
    before it draws from any rng, so a fallback sees the stream a
    Monte-Carlo run would."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    if mode == "auto":
        size = P.support_size()
        if size is not None and size <= AUTO_EXACT_ATOMS:
            try:
                return exact()
            except EnumerationTooLarge:
                pass
        return sampled()
    return exact() if mode == "exact" else sampled()


class Prior:
    """Base class; subclasses define `sample_bits` or `trial_words`."""

    n: int

    def __init__(self, n: int):
        self.n = n

    def sample_bits(self, rng: Random) -> int:
        """One draw: by default the batch of one, `trial_words(1, rng)`."""
        if type(self).trial_words is Prior.trial_words:
            raise NotImplementedError(f"{type(self).__name__} defines neither sample_bits "
                                      "nor trial_words")
        return mask_of(e for e, word in enumerate(self.trial_words(1, rng)) if word)

    def sample(self, rng: Random) -> SubsetMask:
        return SubsetMask(self.n, self.sample_bits(rng))

    def trial_words(self, trials: int, rng: Random) -> list[int]:
        """The active sets of `trials` independent draws, sliced: word e has
        bit t set when e is active in draw t. By default `trials` calls of
        `sample_bits`, in order, read into words by `bitset.sliced`; priors
        with a per-element law draw each word directly, and an explicit prior
        splits the batch by mass."""
        sample = self.sample_bits
        return sliced([sample(rng) for _ in range(trials)], self.n)

    def count(
        self, m: int, rng: Random, select: Optional[Callable[[list[int], int], list[int]]] = None
    ) -> tuple[list[int], list[int]]:
        """Per-element activation and selection counts over m draws: the
        library's one Monte-Carlo counting loop.

        The draws come in batches of up to TRIAL_BATCH (`trial_words`), each
        element's state one word with bit t for draw t. `select(words,
        trials)`, when given, returns each element's word of the draws that
        select it (trials: the batch's full trial mask), drawing on the same
        rng after the batch. Both are counted by `bit_count`, so the memory
        is one batch whatever m is; with no `select` the selection counts
        are 0. Schemes select by `run_words`, preselection by span kernels.
        """
        act, sel = [0] * self.n, [0] * self.n
        for done in range(0, m, TRIAL_BATCH):
            size = min(TRIAL_BATCH, m - done)
            words = self.trial_words(size, rng)
            for e, a in enumerate(words):
                act[e] += a.bit_count()
            if select is not None:
                for e, s in enumerate(select(words, full_mask(size))):
                    sel[e] += s.bit_count()
        return act, sel

    def exact_count(
        self, outcomes: Callable[[int], Iterable[tuple[object, int]]]
    ) -> list[Fraction]:
        """Exact twin of `count`: per-element mass over the explicit support.

        For each atom a of probability p > 0, every (w, bits) that
        `outcomes(a)` yields credits p*w to each element of bits.

        Outcomes are counted by weight class: each distinct value pair
        (p, w) over the whole support, however its Fractions were made, keeps
        one bit-sliced counter, and an outcome adds its bits
        to it through a carry chain. Counter level i credits p*w*2^i to each
        element it holds, as a plain int numerator over the common
        denominator of all classes; each element takes one Fraction at the
        end, and none before.
        """
        support = self.support()
        if support is None:
            raise EnumerationTooLarge("exact enumeration needs an explicit prior support")
        # Classes are keyed by exact value as (numerator, denominator), which
        # hash much faster than Fractions: p's key -> w's key -> counter levels.
        classes: dict[tuple[int, int], dict[tuple[int, int], list[int]]] = {}
        for a, p in support:
            if not p:
                continue
            by_w = classes.setdefault(p.as_integer_ratio(), {})
            for w, bits in outcomes(a):
                key = w.as_integer_ratio()
                levels = by_w.get(key)
                if levels is None:
                    levels = by_w[key] = []
                carry, i = bits, 0
                while carry:
                    if i == len(levels):
                        levels.append(carry)
                        break
                    level = levels[i]
                    levels[i] = level ^ carry
                    carry &= level
                    i += 1
        den = math.lcm(*(pd * wd for (_, pd), by_w in classes.items() for _, wd in by_w))
        nums = [0] * self.n
        for (p_num, p_den), by_w in classes.items():
            for (w_num, w_den), levels in by_w.items():
                num = p_num * w_num * (den // (p_den * w_den))
                for i, level in enumerate(levels):
                    for e in iter_bits(level):
                        nums[e] += num << i
        zero = Fraction(0)
        return [Fraction(v, den) if v else zero for v in nums]

    def support(self) -> Optional[list[tuple[int, Fraction]]]:
        """Explicit (bits, probability) atoms, or None when unknown."""
        return None

    def support_size(self) -> Optional[int]:
        """How many atoms `support` lists, or None when it lists none."""
        support = self.support()
        return None if support is None else len(support)

    def activation_probabilities(self) -> Optional[list[Fraction]]:
        """Exact activation probabilities, counted once; None only when unknown
        (an opaque sampler), not when the support is too large to list."""
        return None if self.support() is None else list(self._activation)

    @cached_property
    def _activation(self) -> list[Fraction]:
        return self.exact_count(lambda a: ((1, a),))

    @property
    def never_active_bits(self) -> int:
        """Elements with zero activation probability (arises in marginals)."""
        probs = self.activation_probabilities()
        if probs is None:
            return 0
        return mask_of(e for e, p in enumerate(probs) if p == 0)

    def p_min(self, rng: Optional[Random] = None, eps: float = 0.05):
        """Smallest positive activation probability: exact when
        `activation_probabilities()` is known, else a lower-confidence
        estimate over the k elements not known never active, the least
        frequency minus eps over ceil(3 ln(2k/0.01) / eps^2) draws of `count`
        on `rng`. It raises when an element is active in at most an eps share
        of the draws, since every downstream guarantee divides by p_min; a
        smaller eps resolves rarer elements, at 1/eps^2 the draws."""
        probs = self.activation_probabilities()
        if probs is None and rng is None:
            raise PriorError("p_min estimation needs an rng")
        never = self.never_active_bits
        kept = [e for e in range(self.n) if not never >> e & 1]
        if not kept:
            raise PriorError("no element is ever active")
        if probs is not None:
            return min(probs[e] for e in kept)
        m = math.ceil(3 * math.log(2 * len(kept) / 0.01) / eps**2)
        counts, _ = self.count(m, rng)
        floor = min(max(counts[e] / m - eps, 0.0) for e in kept)
        if floor <= 0:
            rare = [e for e in kept if counts[e] / m <= eps]
            raise PriorError(
                f"p_min estimate hit 0: elements {rare} were active in at most eps={eps} "
                f"of {m} samples; this estimate resolves frequencies above eps only, "
                f"so pass a smaller eps"
            )
        return floor

    def marginal(self, S: SubsetMask) -> "Prior":
        """Distribution of A ∩ S. Elements outside S become never-active."""
        if S.n != self.n:
            raise DimensionMismatch(f"marginal set over {S.n}, prior over {self.n}")
        return self._marginal(S.bits)

    def _marginal(self, keep_bits: int) -> "Prior":
        return _MarginalPrior(self, keep_bits)

    def to_spec(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no JSON form")


class ExplicitPrior(Prior):
    """Finite support given as (subset, probability) atoms.

    Atoms are stored sorted by mask value, so the integer-CDF draw is
    deterministic for a fixed seed. Probabilities must be nonnegative and
    sum to 1 up to 1e-12, to admit float input; they are divided by their
    exact total, so the support's mass is exactly 1.
    """

    def __init__(self, n: int, atoms: Iterable[tuple[object, object]]):
        super().__init__(n)
        merged: dict[int, Fraction] = {}
        for subset, prob in atoms:
            bits = subset if isinstance(subset, int) else mask_of(subset)
            if bits >> n:
                raise PriorError(f"support atom {bits:#x} outside ground set")
            p = to_fraction(prob)
            if p < 0:
                raise PriorError(f"negative probability {prob}")
            merged[bits] = merged.get(bits, Fraction(0)) + p
        total = sum(merged.values(), Fraction(0))
        if abs(total - 1) > PROB_SUM_TOL:
            raise PriorError(f"probabilities sum to {total}, expected 1")
        self.atoms: list[tuple[int, Fraction]] = sorted(
            (bits, p / total) for bits, p in merged.items()
        )
        self._cdf = exact_cdf([p for _, p in self.atoms])

    def trial_words(self, trials: int, rng: Random) -> list[int]:
        """The batch's trials split by mass: a part of the atom list, at
        first the whole list with every trial, sends each of its trials to
        its lower half with that half's exact share of the part's integer
        mass (`_below`, no draw when a half has no mass), the rest to its
        upper half, down to single atoms. A part with at most 4 trials per
        atom draws each of its trials (read by `iter_bits`) from its own
        integer CDF (`draw_indices`), so a large support pays one bisection
        per trial, a single draw included, not a split per level: a split
        costs a few draws over the batch's words, several bisections' worth."""
        atoms, cdf = self.atoms, self._cdf
        by_atom: dict[int, int] = {}  # atom index -> the trials that drew it
        parts = [(0, len(atoms), full_mask(trials))]
        while parts:
            lo, hi, drawn = parts.pop()
            if not drawn:
                continue
            if hi - lo == 1:
                by_atom[lo] = drawn
            elif drawn.bit_count() <= 4 * (hi - lo):
                ts = list(iter_bits(drawn))
                for t, i in zip(ts, draw_indices(cdf, lo, hi, len(ts), rng)):
                    by_atom[i] = by_atom.get(i, 0) | 1 << t
            else:
                mid = (lo + hi) // 2
                base = cdf[lo - 1] if lo else 0
                lower, total = cdf[mid - 1] - base, cdf[hi - 1] - base
                kept = drawn if lower == total else _below(drawn, lower, total, rng)
                parts += [(mid, hi, drawn & ~kept), (lo, mid, kept)]
        words = [0] * self.n
        for i, drawn in by_atom.items():
            for e in iter_bits(atoms[i][0]):
                words[e] |= drawn
        return words

    def support(self):
        return list(self.atoms)

    def _marginal(self, keep_bits: int) -> "ExplicitPrior":
        return ExplicitPrior(self.n, [(bits & keep_bits, p) for bits, p in self.atoms])

    def to_spec(self) -> dict:
        return {
            "type": "explicit",
            "n": self.n,
            "support": [
                {"elements": sorted(iter_bits(bits)), "prob": str(p)}
                for bits, p in self.atoms
            ],
        }

    def __repr__(self):
        return f"ExplicitPrior(n={self.n}, {len(self.atoms)} atoms)"


class AllActivePrior(ExplicitPrior):
    """Every element active in every draw."""

    def __init__(self, n: int):
        super().__init__(n, [(full_mask(n), Fraction(1))])

    def trial_words(self, trials: int, rng: Random) -> list[int]:
        return [full_mask(trials)] * self.n

    def to_spec(self) -> dict:
        return {"type": "all_active", "n": self.n}

    def __repr__(self):
        return f"AllActivePrior(n={self.n})"


class ProductPrior(Prior):
    """Each element active independently with its own probability."""

    def __init__(self, x: Sequence):
        super().__init__(len(x))
        self.x = [to_fraction(xi) for xi in x]
        for xi in self.x:
            if not 0 <= xi <= 1:
                raise PriorError(f"activation probability {xi} outside [0,1]")
        self._random = sum(0 < xi < 1 for xi in self.x)  # 2^_random atoms

    def trial_words(self, trials: int, rng: Random) -> list[int]:
        every = full_mask(trials)  # element i is active in each trial w.p. x_i
        return [t_rho_bits(every, xi, rng) for xi in self.x]

    def activation_probabilities(self):
        return list(self.x)

    def support(self):
        return None if self._random > 16 else list(self._atoms)

    def support_size(self):
        return None if self._random > 16 else 2**self._random

    @cached_property
    def _atoms(self) -> list[tuple[int, Fraction]]:
        """The positive-probability atoms, by mask, enumerated once."""
        sup = [(0, Fraction(1))]
        for i, xi in enumerate(self.x):
            sup = [(b | c, p * q) for b, p in sup for c, q in ((0, 1 - xi), (1 << i, xi)) if q]
        return sorted(sup)

    def _marginal(self, keep_bits: int) -> "ProductPrior":
        kept = [xi if keep_bits >> i & 1 else Fraction(0) for i, xi in enumerate(self.x)]
        return ProductPrior(kept)

    def to_spec(self) -> dict:
        return {"type": "product", "x": [str(xi) for xi in self.x]}

    def __repr__(self):
        return f"ProductPrior(x={[str(xi) for xi in self.x]})"


class SamplerPrior(Prior):
    """A prior drawn by a function rng -> bitmask, masked to the ground set."""

    def __init__(self, n: int, fn: Callable[[Random], int]):
        super().__init__(n)
        self._fn = fn

    def sample_bits(self, rng: Random) -> int:
        return self._fn(rng) & full_mask(self.n)


class _MarginalPrior(Prior):
    """A ∩ S of a prior with no marginal of its own, drawn through it. What
    lies outside S or the parent never activates is known never active."""

    def __init__(self, parent: Prior, keep_bits: int):
        super().__init__(parent.n)
        self._sample = parent.sample_bits
        self._keep = keep_bits & ~parent.never_active_bits

    def sample_bits(self, rng: Random) -> int:
        return self._sample(rng) & self._keep

    @property
    def never_active_bits(self) -> int:
        return full_mask(self.n) & ~self._keep


def hidden_element_prior(n: int, alpha, delta, j: int) -> ExplicitPrior:
    """Correlated prior whose element j is active only when everything is.

    Mass 1 - delta*(n + 1/alpha - 2) on the empty set, delta*(1/alpha - 1)
    on the full set, and delta on each singleton {i} for i != j. For the
    1-uniform matroid this is alpha-uncontentious, yet
    p_min = delta*(1/alpha - 1) can be made arbitrarily small.
    """
    alpha = to_fraction(alpha)
    delta = to_fraction(delta)
    if not 0 < alpha < 1:
        raise PriorError(f"alpha must lie in (0,1), got {alpha}")
    if not 0 <= j < n:
        raise PriorError(f"element j={j} outside ground set of size {n}")
    bound = 1 / (n + 1 / alpha - 2)
    if not 0 < delta <= bound:
        raise PriorError(f"delta must lie in (0, {bound}], got {delta}")
    atoms: list[tuple[int, Fraction]] = [
        (0, 1 - delta * (n + 1 / alpha - 2)),
        (full_mask(n), delta * (1 / alpha - 1)),
    ]
    atoms += [(1 << i, delta) for i in range(n) if i != j]
    return ExplicitPrior(n, atoms)


def prior_from_spec(spec: dict) -> Prior:
    """Build a prior from its JSON dict form; each field is read by
    `spec_field`, so a missing or mistyped one raises ValueError naming it,
    as does an explicit atom outside the ground set."""
    kind = spec_field(spec, "type")
    if kind == "explicit":
        n = spec_field(spec, "n", int)
        atoms = [(spec_field(atom, "elements", [int]), spec_field(atom, "prob", Fraction))
                 for atom in spec_field(spec, "support", list)]
        check_in_ground_set(n, "support", [elements for elements, _ in atoms])
        return ExplicitPrior(n, atoms)
    if kind == "all_active":
        return AllActivePrior(spec_field(spec, "n", int))
    if kind == "product":
        return ProductPrior(spec_field(spec, "x", [Fraction]))
    if kind == "hidden_element":
        return hidden_element_prior(
            spec_field(spec, "n", int), spec_field(spec, "alpha", Fraction),
            spec_field(spec, "delta", Fraction), spec_field(spec, "j", int),
        )
    raise ValueError(f"unknown prior type {kind!r}")
