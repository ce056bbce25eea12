"""Exact ground truth for small instances.

The best achievable balancedness of any offline selection rule (by exact
column generation over greedy orders, over an enumerated support) and the
exact per-element balancedness of any scheme from its `outcomes` (each
scheme states its own randomness exactly, in `schemes.py`). Probabilities
are Fractions end to end, so equality assertions in tests are legitimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .bitset import iter_bits
from .lp import build_lp_scheme
from .matroid import Matroid
from .priors import Prior
from .sampling import EnumerationTooLarge
from .schemes import greedy_ordered_bits  # noqa: F401 - unused; bench/tracer.py patches this name
from .schemes import secretary_wrap_bits  # noqa: F401 - unused; bench/tracer.py patches this name
from .simplex import solve_lp  # noqa: F401 - unused; bench/tracer.py patches this name


def independent_subsets(M: Matroid, pool_bits: int) -> list[int]:
    """All independent subsets of pool_bits (the family is downward closed,
    so depth-first growth visits each exactly once). Only the test references
    call it; bench/tracer.py patches this name."""
    elems = list(iter_bits(pool_bits))
    out = [0]

    def grow(bits: int, start: int):
        for idx in range(start, len(elems)):
            cand = bits | (1 << elems[idx])
            if M._independent(cand):
                out.append(cand)
                grow(cand, idx + 1)

    grow(0, 0)
    return out


@dataclass
class AlphaCertificate:
    """Best achievable balancedness alpha_star, with an achieving rule:
    for each support atom, a distribution over independent subsets."""

    alpha_star: Fraction
    witness: dict  # atom bits -> list of (subset bits, probability)
    per_element: list  # conditional selection probability under the witness

    def to_json(self) -> dict:
        return {
            "alpha_star": str(self.alpha_star),
            "witness": {
                str(sorted(iter_bits(atom))): [
                    {"subset": sorted(iter_bits(y)), "prob": str(p)} for y, p in dist
                ]
                for atom, dist in self.witness.items()
            },
            "per_element": [None if v is None else str(v) for v in self.per_element],
        }


def max_uncontentious_alpha(M: Matroid, P: Prior) -> AlphaCertificate:
    """The instance's uncontentiousness level alpha*: the best worst-case
    conditional selection probability of any offline selection rule, with a
    rule that achieves it.

    Solved as the LP mixture over greedy orders, by the column generation of
    `build_lp_scheme` with exact columns. This rests on M being a
    matroid: the LP over all selection rules prices each atom by its
    max-weight independent subset, which greedy along decreasing weight
    finds exactly (Edmonds), so both LPs have the same optimum. The result
    always carries the loop's convergence certificate; without it this
    raises rather than return an uncertified value.
    """
    support = P.support()
    if support is None:
        raise EnumerationTooLarge("alpha* needs an explicit prior support")
    probs = P.activation_probabilities()
    atoms = [bits for bits, p in support if p > 0]
    if not any(probs):
        # No element is ever active, so every rule is vacuously 1-balanced.
        witness = {bits: [(0, Fraction(1))] for bits in atoms}
        return AlphaCertificate(Fraction(1), witness, [None] * M.n)
    # Exact columns draw no randomness and give up no eps.
    mixture, report = build_lp_scheme(M, P, eps=0, rng=Random(0), mode="exact")
    if not report.converged:
        raise RuntimeError(f"alpha* column generation ended uncertified: {report.notes}")

    witness = {}
    for bits in atoms:
        dist: dict[int, Fraction] = {}
        for lam, y in mixture.outcomes(M, bits):
            dist[y] = dist.get(y, Fraction(0)) + lam
        witness[bits] = list(dist.items())
    selected = P.exact_count(lambda a: ((lam, y) for y, lam in witness[a]))
    per_element = [s / x if x > 0 else None for s, x in zip(selected, probs)]
    return AlphaCertificate(report.beta_trajectory[-1], witness, per_element)


def _scheme_randomness(M: Matroid, scheme, atom: int):
    """`scheme.outcomes` on `atom`; bench/tracer.py wraps this name to count outcomes."""
    return scheme.outcomes(M, atom)


def exact_balancedness(M: Matroid, scheme, P: Prior) -> list:
    """Per-element conditional selection probability of a `schemes.Scheme`:
    an exact count over the support of the scheme's `outcomes` on each atom.
    None for never-active elements."""
    M.check_over(scheme=scheme, prior=P)
    selected = P.exact_count(lambda atom: _scheme_randomness(M, scheme, atom))
    probs = P.activation_probabilities()
    return [s / x if x > 0 else None for s, x in zip(selected, probs)]
