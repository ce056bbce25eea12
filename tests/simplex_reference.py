"""Test-only reference for `ocrs.simplex.solve_lp`: a dense `Fraction` tableau.

Same problem form, row layout, Bland's rule and dual extraction as the
library kernel, but every pivot divides the pivot row through and updates
the other rows in rationals. The integer-preserving kernel must return
identical x, objective, duals and iteration counts on every exact LP.
"""

from __future__ import annotations

from fractions import Fraction

from ocrs.simplex import LpInfeasible, LpResult, LpUnbounded


def reference_solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, maximize=False) -> LpResult:
    A_ub = [list(r) for r in (A_ub or [])]
    b_ub = list(b_ub or [])
    A_eq = [list(r) for r in (A_eq or [])]
    b_eq = list(b_eq or [])
    nv = len(c)
    zero = Fraction(0)
    one = Fraction(1)

    cmin = [(-ci if maximize else ci) for ci in c]

    # Row layout: equalities first, then inequalities (each with one slack).
    rows = [(list(r), b) for r, b in zip(A_eq, b_eq)]
    rows += [(list(r), b) for r, b in zip(A_ub, b_ub)]
    m = len(rows)
    n_eq = len(A_eq)
    ns = len(A_ub)
    width = nv + ns + m  # vars | slacks | artificials
    art0 = nv + ns

    tab = []
    flip = [one] * m
    for r, (coeffs, b) in enumerate(rows):
        row = [zero] * (width + 1)
        for j, v in enumerate(coeffs):
            row[j] = v + zero
        if r >= n_eq:
            row[nv + (r - n_eq)] = one
        if b < 0:
            flip[r] = -one
            row = [-v for v in row]
            b = -b
        row[art0 + r] = one
        row[width] = b + zero
        tab.append(row)

    basis = [art0 + r for r in range(m)]

    def pivot(r, j):
        inv = one / tab[r][j]
        tab[r] = [v * inv for v in tab[r]]
        prow = tab[r]
        for i in range(len(tab)):
            if i != r:
                f = tab[i][j]
                if f != 0:
                    tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
        basis[r] = j

    def run(cost, banned) -> int:
        iters = 0
        while True:
            y = [cost[basis[i]] for i in range(len(tab))]
            entering = -1
            for j in range(width):
                if j in banned or j in basis:
                    continue
                red = cost[j]
                for i in range(len(tab)):
                    if y[i] != 0:
                        red -= y[i] * tab[i][j]
                if red < 0:
                    entering = j
                    break
            if entering < 0:
                return iters
            leaving = -1
            best = None
            for i in range(len(tab)):
                a = tab[i][entering]
                if a > 0:
                    ratio = tab[i][width] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                raise LpUnbounded(f"column {entering} unbounded")
            pivot(leaving, entering)
            iters += 1

    cost1 = [zero] * width
    for j in range(art0, width):
        cost1[j] = one
    iters = run(cost1, banned=frozenset())
    infeas = sum(tab[i][width] for i in range(len(tab)) if basis[i] >= art0)
    if infeas > 0:
        raise LpInfeasible(f"phase-1 residual {infeas}")

    dropped = set()
    for i in range(len(tab)):
        if basis[i] >= art0:
            target = -1
            for j in range(art0):
                if tab[i][j] != 0:
                    target = j
                    break
            if target >= 0:
                pivot(i, target)
            else:
                dropped.add(i)

    cost2 = [zero] * width
    for j in range(nv):
        cost2[j] = cmin[j] + zero
    iters += run(cost2, banned=frozenset(range(art0, width)))

    x = [zero] * nv
    for i, bj in enumerate(basis):
        if bj < nv and i not in dropped:
            x[bj] = tab[i][width]
    objective = sum(ci * xi for ci, xi in zip(c, x))

    # Duals: artificial columns of the final tableau hold B^-1.
    y = []
    for r in range(m):
        val = zero
        for i in range(len(tab)):
            cb = cost2[basis[i]]
            if cb != 0:
                val += cb * tab[i][art0 + r]
        y.append(val * flip[r])
    if maximize:
        y = [-v for v in y]
    return LpResult(x=x, objective=objective, dual_eq=y[:n_eq], dual_ub=y[n_eq:], iterations=iters)
