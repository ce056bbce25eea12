"""Test-only references by enumeration of independent subsets: for
`ocrs.oracle.max_uncontentious_alpha`, the enumeration LP, with one
variable per (atom, independent subset); for `Matroid.weighted_rank`, the
exhaustive max-weight independent subset.

It needs no matroid structure beyond a downward-closed independence family,
so it checks the library oracle's column generation, which rests on greedy
pricing being exact for matroids. alpha* must agree with tolerance 0; the
witnesses may differ, since any optimal rule is valid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ocrs.bitset import iter_bits, popcount
from ocrs.matroid import Matroid
from ocrs.oracle import AlphaCertificate, EnumerationTooLarge, independent_subsets
from ocrs.priors import Prior
from ocrs.simplex import solve_lp

BRUTEFORCE_LIMIT = 20


def bruteforce_weighted_rank(M: Matroid, w, S) -> object:
    """Exhaustive max-weight independent subset of S; the ground truth the
    greedy weighted rank is checked against."""
    bits = S.bits if hasattr(S, "bits") else S
    if popcount(bits) > BRUTEFORCE_LIMIT:
        raise EnumerationTooLarge(f"|S|={popcount(bits)} exceeds {BRUTEFORCE_LIMIT}")
    return max(sum(w[e] for e in iter_bits(y)) for y in independent_subsets(M, bits))


def reference_max_uncontentious_alpha(M: Matroid, P: Prior) -> AlphaCertificate:
    """Exact LP over all (atom, independent subset) selection variables:
    maximize the worst-case conditional selection probability.

    The optimum is the largest alpha for which some alpha-balanced offline
    selection rule exists, i.e. the instance's uncontentiousness level.
    """
    support = P.support()
    if support is None:
        raise EnumerationTooLarge("oracle needs an explicit prior support")
    atoms = [(bits, p) for bits, p in support if p > 0]
    probs = [Fraction(0)] * M.n
    for bits, p in atoms:
        for e in iter_bits(bits):
            probs[e] += p

    variables: list[tuple[int, int]] = []  # (atom index, subset bits)
    offsets = []
    for ai, (bits, _) in enumerate(atoms):
        subs = independent_subsets(M, bits)
        offsets.append((len(variables), len(subs)))
        variables.extend((ai, y) for y in subs)

    nv = 1 + len(variables)  # alpha first
    c = [Fraction(1)] + [Fraction(0)] * len(variables)
    A_eq, b_eq = [], []
    for ai in range(len(atoms)):
        row = [Fraction(0)] * nv
        start, count = offsets[ai]
        for v in range(start, start + count):
            row[1 + v] = Fraction(1)
        A_eq.append(row)
        b_eq.append(Fraction(1))
    A_ub, b_ub = [], []
    for i in range(M.n):
        if probs[i] == 0:
            continue
        row = [Fraction(0)] * nv
        row[0] = probs[i]
        for v, (ai, y) in enumerate(variables):
            if (y >> i) & 1:
                row[1 + v] = -atoms[ai][1]
        A_ub.append(row)
        b_ub.append(Fraction(0))
    cap = [Fraction(0)] * nv
    cap[0] = Fraction(1)
    A_ub.append(cap)
    b_ub.append(Fraction(1))

    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, maximize=True)

    witness: dict[int, list] = {}
    for v, (ai, y) in enumerate(variables):
        weight = res.x[1 + v]
        if weight > 0:
            witness.setdefault(atoms[ai][0], []).append((y, weight))
    per_element: list[Optional[Fraction]] = []
    for i in range(M.n):
        if probs[i] == 0:
            per_element.append(None)
            continue
        mass = Fraction(0)
        for v, (ai, y) in enumerate(variables):
            if (y >> i) & 1 and res.x[1 + v] > 0:
                mass += atoms[ai][1] * res.x[1 + v]
        per_element.append(mass / probs[i])
    return AlphaCertificate(alpha_star=res.objective, witness=witness, per_element=per_element)
