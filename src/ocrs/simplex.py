"""Small dense two-phase simplex with dual extraction, exact on every input.

Built for the desk-scale LPs in this package (tens of rows, up to a few
thousand columns): no sparsity, Bland's rule throughout so the method
terminates even on the heavily degenerate instances the column generation
produces.

Arithmetic is integer-preserving (Edmonds 1967, Bareiss 1968). Every input
is read as an exact rational (a float by its decimal digits, `to_fraction`,
as everywhere in the package) and each constraint row is scaled by the lcm
of its denominators, so the tableau holds Python ints over one shared
positive denominator D. A pivot on (r, j) with p = T[r][j] replaces every
other row by (p*T[i] - T[i][j]*T[r]) // D, a division Sylvester's identity
makes exact, and then sets D = p. Pricing, the ratio test and the phase-1
residual compare integers by cross-multiplication, so there is no tolerance
and Bland's rule picks the same pivots as on exact rationals. Results are
always Fractions.

Problem form (all variables nonnegative):

    min / max   c . x
    subject to  A_eq x  = b_eq
                A_ub x <= b_ub

Duals are returned per constraint row with the usual shadow-price signs:
objective == dual_eq . b_eq + dual_ub . b_ub at the optimum, dual_ub <= 0
for minimization and >= 0 for maximization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .sampling import to_fraction


class LpInfeasible(RuntimeError):
    pass


class LpUnbounded(RuntimeError):
    pass


@dataclass
class LpResult:
    x: list
    objective: Fraction
    dual_eq: list
    dual_ub: list
    iterations: int


def _rational(v):
    """ints and Fractions as they are; a float by its digits (`to_fraction`)."""
    return v if isinstance(v, (int, Fraction)) else to_fraction(v)


def _integer_multiple(values: Sequence) -> tuple[list[int], int]:
    """(s * values as ints, s) for ints or Fractions, s the lcm of the denominators."""
    # A list, not a generator: unpacking a generator resizes the argument
    # tuple, which leaves a tuple of each row length on CPython's freelists
    # per call and grows peak memory over a long run of solves.
    s = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (s // v.denominator) for v in values], s


def solve_lp(
    c: Sequence,
    A_ub: Optional[Sequence[Sequence]] = None,
    b_ub: Optional[Sequence] = None,
    A_eq: Optional[Sequence[Sequence]] = None,
    b_eq: Optional[Sequence] = None,
    maximize: bool = False,
) -> LpResult:
    A_ub = [list(r) for r in (A_ub or [])]
    b_ub = list(b_ub or [])
    A_eq = [list(r) for r in (A_eq or [])]
    b_eq = list(b_eq or [])
    c = [_rational(ci) for ci in c]
    nv = len(c)

    # Row layout: equalities first, then inequalities (each with one slack).
    rows = list(zip(A_eq, b_eq)) + list(zip(A_ub, b_ub))
    m = len(rows)
    n_eq = len(A_eq)
    ns = len(A_ub)
    width = nv + ns + m  # vars | slacks | artificials
    art0 = nv + ns

    # Row r is multiplied by flip[r] * scale[r] (scale > 0) to make it integral
    # with a nonnegative right-hand side. Its artificial keeps a unit entry, so
    # it stands for scale[r] times the artificial of the unscaled row.
    tab = []
    flip = []
    scale = []
    for r, (coeffs, b) in enumerate(rows):
        if len(coeffs) != nv:
            raise ValueError(f"constraint row {r} has {len(coeffs)} entries, expected {nv}")
        ints, s = _integer_multiple([_rational(v) for v in coeffs] + [_rational(b)])
        row = ints[:nv] + [0] * (width - nv) + ints[nv:]
        if r >= n_eq:
            row[nv + (r - n_eq)] = s
        sign = -1 if b < 0 else 1
        if sign < 0:
            row = [-v for v in row]
        row[art0 + r] = 1
        tab.append(row)
        flip.append(sign)
        scale.append(s)

    basis = [art0 + r for r in range(m)]
    den = 1  # shared denominator: the tableau's values are tab[i][j] / den

    def pivot(r, j):
        nonlocal den
        prow = tab[r]
        p = prow[j]
        if p < 0:  # only when driving out an artificial; keeps den positive
            prow = tab[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(tab):
            if i != r:
                f = row[j]
                if f:
                    tab[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
                else:
                    tab[i] = [p * a // den for a in row]
        den = p
        basis[r] = j

    def run(cost, banned) -> int:
        """Bland's-rule iterations for min cost; returns iteration count."""
        iters = 0
        while True:
            basic = set(basis)
            priced = [(i, cost[b]) for i, b in enumerate(basis) if cost[b]]
            entering = -1
            for j in range(width):
                if j in banned or j in basic:
                    continue
                # den * reduced cost; den > 0, so the signs agree.
                red = cost[j] * den
                for i, ci in priced:
                    red -= ci * tab[i][j]
                if red < 0:
                    entering = j
                    break
            if entering < 0:
                return iters
            leaving = -1
            for i, row in enumerate(tab):
                a = row[entering]
                if a > 0:
                    if leaving < 0:
                        leaving = i
                        continue
                    # row[width] / a against the best ratio, cross-multiplied
                    best = tab[leaving]
                    lhs = row[width] * best[entering]
                    rhs = best[width] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                raise LpUnbounded(f"column {entering} unbounded")
            pivot(leaving, entering)
            iters += 1

    # Phase 1: drive artificials to zero. Artificial r costs 1/scale[r], so the
    # phase-1 objective is the unscaled artificials' sum; scaled to integers.
    lcm_scale = math.lcm(*scale)
    cost1 = [0] * art0 + [lcm_scale // s for s in scale]
    iters = run(cost1, banned=frozenset())
    residual = sum(
        Fraction(tab[i][width], den * scale[b - art0])
        for i, b in enumerate(basis)
        if b >= art0
    )
    if residual:
        raise LpInfeasible(f"phase-1 residual {residual}")

    # Pivot out any artificial still basic (at value 0); drop redundant rows.
    dropped = set()
    for i in range(m):
        if basis[i] >= art0:
            target = next((j for j in range(art0) if tab[i][j]), -1)
            if target >= 0:
                pivot(i, target)
            else:
                dropped.add(i)

    # Phase 2, on the costs scaled to integers.
    cost_ints, cost_scale = _integer_multiple([-ci if maximize else ci for ci in c])
    cost2 = cost_ints + [0] * (width - nv)
    iters += run(cost2, banned=frozenset(range(art0, width)))

    x = [Fraction(0)] * nv
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = Fraction(tab[i][width], den)
    objective = sum(ci * xi for ci, xi in zip(c, x))

    # Duals: artificial columns of the final tableau hold B^-1 of the scaled
    # rows; undo the row scaling, the flip, the cost scaling and the max sign.
    sense = -1 if maximize else 1
    priced = [(i, cost2[b]) for i, b in enumerate(basis) if cost2[b]]
    y = []
    for r in range(m):
        if r in dropped:
            y.append(Fraction(0))
            continue
        val = sum(ci * tab[i][art0 + r] for i, ci in priced)
        y.append(Fraction(sense * flip[r] * scale[r] * val, den * cost_scale))
    return LpResult(
        x=x,
        objective=objective,
        dual_eq=y[:n_eq],
        dual_ub=y[n_eq:],
        iterations=iters,
    )
