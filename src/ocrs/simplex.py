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

The tableau is an object, `Tableau`, so an LP can grow by columns and be
re-optimised where it stopped, as column generation needs (Gilmore and
Gomory 1961; Dantzig and Wolfe 1960). Adding a column leaves the current
basis primal feasible, so the next `solve` runs phase 2 only, from that
basis. The new column enters as B^-1 a: the artificial block of the
tableau holds D * B^-1 of the scaled rows, so its tableau column is
sum_r T[i][art0 + r] * a_r over the column's scaled entries a_r. Rows keep
the scale they were given at construction; an added column carries its
own. Its entries times their rows' scales are multiplied by f_j, the lcm
of the denominators left, so the column is integral and holds the
variable x_j / f_j. It is then one more integer column of the scaled
system, so the tableau stays D * B^-1 of it and later pivots divide
exactly. Phase 2 prices the column at c_j * f_j, and `solve` reports
x_j = f_j times its value. A positive column factor changes neither the
sign of a reduced cost nor the order of a column's ratios, so Bland's
rule pivots as it would on the unscaled column.
`solve_lp` is the one-shot use of the same object.

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


class Tableau:
    """One LP's integer tableau, its basis and its row and column scaling,
    kept across solves so that columns can be added and the LP re-optimised.

    The first `solve` runs both phases; after `add_column`, `solve` runs
    phase 2 from the basis the last solve ended on. Each solve returns the
    current optimum over every column added so far.
    """

    def __init__(
        self,
        c: Sequence,
        A_ub: Optional[Sequence[Sequence]] = None,
        b_ub: Optional[Sequence] = None,
        A_eq: Optional[Sequence[Sequence]] = None,
        b_eq: Optional[Sequence] = None,
        maximize: bool = False,
    ):
        A_ub = [list(r) for r in (A_ub or [])]
        b_ub = list(b_ub or [])
        A_eq = [list(r) for r in (A_eq or [])]
        b_eq = list(b_eq or [])
        for name, A, b in (("A_eq", A_eq, b_eq), ("A_ub", A_ub, b_ub)):
            if len(A) != len(b):
                raise ValueError(f"{name} has length {len(A)} but its right-hand side {len(b)}")
        self.c = [_rational(ci) for ci in c]
        self.maximize = maximize
        nv = len(self.c)

        # Row layout: equalities first, then inequalities (each with one slack).
        rows = list(zip(A_eq, b_eq)) + list(zip(A_ub, b_ub))
        m = len(rows)
        self.n_eq = n_eq = len(A_eq)
        self.ns = ns = len(A_ub)
        width = nv + ns + m  # vars | slacks | artificials
        art0 = nv + ns

        # Row r is multiplied, here and only here, by scale[r]: the lcm of its
        # denominators, negated where that makes the right-hand side nonnegative.
        # Its slack and its artificial stand for |scale[r]| times those of the
        # unscaled row.
        self.tab = []
        self.scale = []
        for r, (coeffs, b) in enumerate(rows):
            if len(coeffs) != nv:
                raise ValueError(f"constraint row {r} has {len(coeffs)} entries, expected {nv}")
            ints, s = _integer_multiple([_rational(v) for v in coeffs] + [_rational(b)])
            row = ints[:nv] + [0] * (width - nv) + ints[nv:]
            if r >= n_eq:
                row[nv + (r - n_eq)] = 1
            if b < 0:
                row = [-v for v in row]
                s = -s
            row[art0 + r] = 1
            self.tab.append(row)
            self.scale.append(s)

        # Column j holds the variable x_j / col_scale[j], so c[j] is c_j * col_scale[j].
        self.col_scale = [1] * nv
        self.basis = [art0 + r for r in range(m)]
        self.den = 1  # shared denominator: the tableau's values are tab[i][j] / den
        self.dropped = None  # rows found redundant by phase 1; None until it has run

    def _pivot(self, r: int, j: int) -> None:
        tab, den = self.tab, self.den
        prow = tab[r]
        p = prow[j]
        if p < 0:  # only on a zero right-hand side; keeps den positive
            prow = tab[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(tab):
            if i != r:
                f = row[j]
                if f:
                    tab[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
                else:
                    tab[i] = [p * a // den for a in row]
        self.den = p
        self.basis[r] = j

    def _run(self, cost: list, priced_columns: int) -> int:
        """Bland's-rule pivots for min cost over columns 0..priced_columns-1
        (the rest may not enter); returns the pivot count."""
        tab, basis = self.tab, self.basis
        rhs = len(self.c) + self.ns + len(tab)  # the right-hand side's index
        iters = 0
        while True:
            basic = set(basis)
            den = self.den
            priced = [(i, cost[b]) for i, b in enumerate(basis) if cost[b]]
            entering = -1
            for j in range(priced_columns):
                if j in basic:
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
                    # row[rhs] / a against the best ratio, cross-multiplied
                    best = tab[leaving]
                    lhs = row[rhs] * best[entering]
                    ratio = best[rhs] * a
                    if lhs < ratio or (lhs == ratio and basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                raise LpUnbounded(f"column {entering} unbounded")
            self._pivot(leaving, entering)
            iters += 1

    def add_column(self, a_ub: Sequence = (), a_eq: Sequence = (), cost=0) -> None:
        """Append a structural variable with entries `a_eq` in the equality
        rows and `a_ub` in the inequality rows; it enters nonbasic at 0,
        multiplied by the factor that makes it integral under the rows' scales."""
        nv = len(self.c)
        column = list(a_eq) + list(a_ub)
        if len(a_eq) != self.n_eq or len(a_ub) != self.ns:
            raise ValueError(
                f"column has {len(a_eq)} equality and {len(a_ub)} inequality entries, "
                f"expected {self.n_eq} and {self.ns}"
            )
        scaled, f = _integer_multiple([_rational(v) * s for v, s in zip(column, self.scale)])
        art0 = nv + self.ns
        tab = self.tab
        for row in tab:
            row.insert(nv, sum(row[art0 + r] * v for r, v in enumerate(scaled) if v))
        self.basis = [b + (b >= nv) for b in self.basis]
        self.c.append(_rational(cost) * f)
        self.col_scale.append(f)
        # A row phase 1 found redundant holds a basic artificial at 0. If the new
        # column reaches it, pivot the column in there: the row's right-hand side
        # is 0, so the basis stays feasible, and the row is no longer redundant.
        for i in sorted(self.dropped or ()):
            if tab[i][nv]:
                self._pivot(i, nv)
                self.dropped.discard(i)

    def solve(self) -> LpResult:
        """Optimise over the columns so far: both phases until phase 1 has
        once succeeded, phase 2 alone from the current basis after that."""
        tab, basis = self.tab, self.basis
        m, nv = len(tab), len(self.c)
        art0 = nv + self.ns
        width = art0 + m
        iters = 0
        if self.dropped is None:
            # Phase 1: drive artificials to zero. Artificial r costs 1/|scale[r]|, so
            # the phase-1 objective is the unscaled artificials' sum; scaled to
            # integers.
            lcm_scale = math.lcm(*self.scale)
            cost1 = [0] * art0 + [lcm_scale // abs(s) for s in self.scale]
            iters = self._run(cost1, width)
            residual = sum(
                Fraction(tab[i][width], self.den * abs(self.scale[b - art0]))
                for i, b in enumerate(basis)
                if b >= art0
            )
            if residual:
                raise LpInfeasible(f"phase-1 residual {residual}")

            # Pivot out any artificial still basic (at value 0); drop redundant rows.
            self.dropped = set()
            for i in range(m):
                if basis[i] >= art0:
                    target = next((j for j in range(art0) if tab[i][j]), -1)
                    if target >= 0:
                        self._pivot(i, target)
                    else:
                        self.dropped.add(i)

        # Phase 2, on the costs scaled to integers; artificials may not enter.
        cost_ints, cost_scale = _integer_multiple([-ci if self.maximize else ci for ci in self.c])
        cost2 = cost_ints + [0] * (width - nv)
        iters += self._run(cost2, art0)

        den = self.den
        x = [Fraction(0)] * nv
        for i, b in enumerate(basis):
            if b < nv:
                x[b] = Fraction(self.col_scale[b] * tab[i][width], den)
        sense = -1 if self.maximize else 1
        priced = [(i, cost2[b]) for i, b in enumerate(basis) if cost2[b]]
        objective = Fraction(sense * sum(ci * tab[i][width] for i, ci in priced), den * cost_scale)

        # Duals y = c_B B^-1: artificial columns of the final tableau hold B^-1 of
        # the scaled rows; undo the row scaling, the cost scaling and the max
        # sign. A still-basic artificial's row gets y_r = c_B e_i = 0.
        y = []
        for r in range(m):
            val = sum(ci * tab[i][art0 + r] for i, ci in priced)
            y.append(Fraction(sense * self.scale[r] * val, den * cost_scale))
        return LpResult(
            x=x,
            objective=objective,
            dual_eq=y[: self.n_eq],
            dual_ub=y[self.n_eq :],
            iterations=iters,
        )


def solve_lp(
    c: Sequence,
    A_ub: Optional[Sequence[Sequence]] = None,
    b_ub: Optional[Sequence] = None,
    A_eq: Optional[Sequence[Sequence]] = None,
    b_eq: Optional[Sequence] = None,
    maximize: bool = False,
) -> LpResult:
    """Solve the LP once, by both phases from an all-artificial basis."""
    return Tableau(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, maximize=maximize).solve()
