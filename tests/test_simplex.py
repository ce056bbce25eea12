from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs.simplex import LpInfeasible, LpUnbounded, Tableau, solve_lp
from simplex_reference import reference_solve_lp


def F(a, b=1):
    return Fraction(a, b)


@pytest.mark.parametrize(
    "kwargs, bad",
    [({"A_ub": [[F(1)]], "b_ub": [F(1)]}, "row 0 has 1 entries, expected 2"),
     ({"A_eq": [[F(1), F(1)]], "b_eq": [F(1)], "A_ub": [[F(1), F(1), F(1)]], "b_ub": [F(1)]},
      "row 1 has 3 entries, expected 2")],
    ids=["short-row", "long-row"],
)
def test_input_checks_name_the_bad_value(kwargs, bad):
    with pytest.raises(ValueError) as info:
        solve_lp([F(1), F(1)], **kwargs)
    assert info.type is ValueError and bad in str(info.value)


class TestBasics:
    def test_box_maximum_with_duals(self):
        # max x + y, x <= 1, y <= 2
        res = solve_lp([F(1), F(1)], A_ub=[[F(1), F(0)], [F(0), F(1)]], b_ub=[F(1), F(2)], maximize=True)
        assert res.objective == 3
        assert res.x == [1, 2]
        assert res.dual_ub == [1, 1]

    def test_minimization_with_equality(self):
        # min x + 2y s.t. x + y = 1
        res = solve_lp([F(1), F(2)], A_eq=[[F(1), F(1)]], b_eq=[F(1)])
        assert res.objective == 1
        assert res.x == [1, 0]
        assert res.dual_eq == [1]

    def test_degenerate_zero_rhs(self):
        # max b s.t. b - l <= 0, l = 1  (the restricted-LP shape)
        res = solve_lp(
            [F(1), F(0)],
            A_ub=[[F(1), F(-1)]],
            b_ub=[F(0)],
            A_eq=[[F(0), F(1)]],
            b_eq=[F(1)],
            maximize=True,
        )
        assert res.objective == 1

    def test_redundant_rows_keep_their_duals(self):
        # max x + y s.t. -x = -1, x - y = 0, x = 1, -2x + 3y = 1. Phase 1 drops
        # two rows; one of them holds another row's artificial, so the dual
        # that is 0 is that artificial's row's, and y . b is the objective.
        b_eq = [F(-1), F(0), F(1), F(1)]
        res = solve_lp([F(1), F(1)], A_eq=[[F(-1), F(0)], [F(1), F(-1)], [F(1), F(0)], [F(-2), F(3)]],
                       b_eq=b_eq, maximize=True)
        assert res.x == [1, 1] and res.objective == 2
        assert res.dual_eq == [F(-5, 3), F(0), F(0), F(1, 3)]
        assert sum(y * b for y, b in zip(res.dual_eq, b_eq)) == 2

    def test_infeasible_detected(self):
        with pytest.raises(LpInfeasible):
            solve_lp([F(1)], A_eq=[[F(1)]], b_eq=[F(2)], A_ub=[[F(1)]], b_ub=[F(1)])

    def test_unbounded_detected(self):
        with pytest.raises(LpUnbounded):
            solve_lp([F(1)], A_ub=[[F(-1)]], b_ub=[F(0)], maximize=True)

    def test_negative_rhs_rows(self):
        # min x s.t. -x <= -2  (i.e. x >= 2); dual: max -2y over y in [-1,0]
        res = solve_lp([F(1)], A_ub=[[F(-1)]], b_ub=[F(-2)])
        assert res.objective == 2
        assert res.dual_ub == [-1]
        assert res.dual_ub[0] * F(-2) == res.objective

    def test_right_hand_side_of_another_length_is_refused(self):
        # zip truncated the longer side: two rows solved as one, or an
        # equality dropped and objective 0 returned
        with pytest.raises(ValueError, match="A_ub has length 2 but its right-hand side 1"):
            solve_lp([1], A_ub=[[1], [1]], b_ub=[1], maximize=True)
        with pytest.raises(ValueError, match="A_eq has length 1 but its right-hand side 0"):
            solve_lp([1, 1], A_eq=[[1, 1]], b_eq=[])
        with pytest.raises(ValueError, match="A_ub has length 0 but its right-hand side 1"):
            Tableau([1], b_ub=[1])

    def test_float_mode(self):
        res = solve_lp([1.0, 1.0], A_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 2.0], maximize=True)
        assert abs(res.objective - 3.0) < 1e-9


class TestDualityProperties:
    def _random_feasible_lp(self, rng, exact):
        # max c.x s.t. Ax <= b with b > 0, so x=0 is feasible and the
        # optimum is finite whenever every improving column is bounded.
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        mk = (lambda v: Fraction(v)) if exact else (lambda v: float(v))
        A = [[mk(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        # bound every variable to keep the LP bounded
        for j in range(n):
            row = [mk(0)] * n
            row[j] = mk(1)
            A.append(row)
        b = [mk(rng.randint(1, 6)) for _ in range(len(A))]
        c = [mk(rng.randint(0, 5)) for _ in range(n)]
        return c, A, b

    @pytest.mark.parametrize("exact", [True, False])
    def test_strong_duality_and_dual_feasibility(self, exact):
        rng = Random(42 if exact else 43)
        tol = 0 if exact else 1e-7
        for _ in range(40):
            c, A, b = self._random_feasible_lp(rng, exact)
            res = solve_lp(c, A_ub=A, b_ub=b, maximize=True)
            dual_obj = sum(y * bi for y, bi in zip(res.dual_ub, b))
            assert abs(res.objective - dual_obj) <= tol
            # max form: y >= 0 and A^T y >= c
            for y in res.dual_ub:
                assert y >= -tol
            for j in range(len(c)):
                lhs = sum(A[i][j] * res.dual_ub[i] for i in range(len(A)))
                assert lhs >= c[j] - tol
            # primal feasibility
            for i in range(len(A)):
                assert sum(A[i][j] * res.x[j] for j in range(len(c))) <= b[i] + tol

    def test_mixed_eq_ub_duality_exact(self):
        rng = Random(7)
        for _ in range(25):
            n = rng.randint(2, 4)
            c = [Fraction(rng.randint(0, 4)) for _ in range(n)]
            A_eq = [[Fraction(1)] * n]
            b_eq = [Fraction(1)]
            A_ub = [[Fraction(rng.randint(0, 3)) for _ in range(n)] for _ in range(2)]
            # keep every simplex point feasible: b at least the max row entry
            b_ub = [max(row) + Fraction(rng.randint(0, 3)) for row in A_ub]
            res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, maximize=True)
            dual_obj = res.dual_eq[0] * b_eq[0] + sum(
                y * bi for y, bi in zip(res.dual_ub, b_ub)
            )
            assert res.objective == dual_obj
            assert sum(res.x) == 1


small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
rhs = st.one_of(st.just(Fraction(0)), small)  # zero right-hand sides make ties


@st.composite
def exact_lps(draw):
    """Small exact LPs: mixed rows, negative b, redundant equalities, ties,
    and infeasible or unbounded cases, all left to chance in the draw."""
    nv = draw(st.integers(1, 4))
    row = st.lists(small, min_size=nv, max_size=nv)
    A_eq = draw(st.lists(row, max_size=3))
    b_eq = [draw(rhs) for _ in A_eq]
    if A_eq and draw(st.booleans()):
        # a multiple of an existing equality, so phase 1 leaves a redundant row
        k = draw(st.integers(0, len(A_eq) - 1))
        t = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]))
        A_eq.append([t * v for v in A_eq[k]])
        b_eq.append(t * b_eq[k])
    A_ub = draw(st.lists(row, min_size=0 if A_eq else 1, max_size=3))
    b_ub = [draw(rhs) for _ in A_ub]
    return dict(c=draw(row), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                maximize=draw(st.booleans()))


def outcome(solver, lp):
    try:
        res = solver(**lp)
    except (LpInfeasible, LpUnbounded) as err:
        return type(err)
    return res.x, res.objective, res.dual_eq, res.dual_ub, res.iterations


class TestAgainstReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(exact_lps())
    def test_same_result_as_fraction_tableau(self, lp):
        assert outcome(solve_lp, lp) == outcome(reference_solve_lp, lp)

    def test_objective_matches_scipy_linprog(self):
        optimize = pytest.importorskip("scipy.optimize")

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(exact_lps())
        def check(lp):
            sense = -1 if lp["maximize"] else 1
            ref = optimize.linprog(
                [sense * float(v) for v in lp["c"]],
                A_ub=[[float(v) for v in r] for r in lp["A_ub"]] or None,
                b_ub=[float(v) for v in lp["b_ub"]] or None,
                A_eq=[[float(v) for v in r] for r in lp["A_eq"]] or None,
                b_eq=[float(v) for v in lp["b_eq"]] or None,
                method="highs",
            )
            got = outcome(solve_lp, lp)
            if got is LpInfeasible:
                assert ref.status == 2
            elif got is LpUnbounded:
                assert ref.status == 3
            else:
                assert ref.status == 0
                assert abs(sense * ref.fun - float(got[1])) <= 1e-7 * (1 + abs(ref.fun))

        check()


def _assert_optimal(lp, res):
    """x is feasible, c.x is the objective, and the duals are feasible with
    the same value: an exact optimality certificate for `lp`."""
    c, x = lp["c"], res.x
    assert all(v >= 0 for v in x)
    for row, b in zip(lp["A_eq"], lp["b_eq"]):
        assert sum(a * v for a, v in zip(row, x)) == b
    for row, b in zip(lp["A_ub"], lp["b_ub"]):
        assert sum(a * v for a, v in zip(row, x)) <= b
    assert res.objective == sum(ci * v for ci, v in zip(c, x))
    y = res.dual_eq + res.dual_ub
    rows = lp["A_eq"] + lp["A_ub"]
    assert res.objective == sum(yi * b for yi, b in zip(y, lp["b_eq"] + lp["b_ub"]))
    sense = -1 if lp["maximize"] else 1
    assert all(sense * v <= 0 for v in res.dual_ub)
    for j, cj in enumerate(c):
        assert sense * (cj - sum(yi * row[j] for yi, row in zip(y, rows))) >= 0


class TestWarmTableau:
    """`Tableau.add_column` then `solve` re-optimises from the basis the last
    solve ended on; every solve must agree with a cold `solve_lp` of the
    same columns. Added entries have denominators the rows need not have,
    so the column is scaled by the factor they miss, while the rows keep
    their scales: before phase 1, after it, and in rows phase 1 dropped as
    redundant."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(exact_lps(), st.data())
    def test_added_columns_match_a_cold_solve(self, lp, data):
        # `small`, fifths and sevenths, which no row of `exact_lps` holds, so one
        # column may need the lcm of two missing denominators
        entry = st.one_of(small, st.builds(Fraction, st.integers(-4, 4), st.sampled_from([5, 7])))
        tableau = Tableau(**lp)
        steps = data.draw(st.integers(1, 4))
        for step in range(steps):
            if step:
                cost = data.draw(small)
                a_ub = [data.draw(entry) for _ in lp["A_ub"]]
                a_eq = [data.draw(entry) for _ in lp["A_eq"]]
                tableau.add_column(a_ub=a_ub, a_eq=a_eq, cost=cost)
                lp = dict(
                    lp, c=lp["c"] + [cost],
                    A_ub=[r + [v] for r, v in zip(lp["A_ub"], a_ub)],
                    A_eq=[r + [v] for r, v in zip(lp["A_eq"], a_eq)],
                )
            if step < steps - 1 and data.draw(st.booleans()):
                continue  # the next column is added before this one is solved
            want = outcome(solve_lp, lp)
            try:
                res = tableau.solve()
            except (LpInfeasible, LpUnbounded) as err:
                assert want is type(err)
                continue
            assert want not in (LpInfeasible, LpUnbounded)
            assert res.objective == want[1]
            _assert_optimal(lp, res)

    def test_a_dropped_row_is_rescaled(self):
        # x1 + x2 = 1 twice over: phase 1 drops the second row, its artificial
        # left basic at 0. A fifth in that row scales the column by 5, which
        # then pivots in there, since it makes the row independent; x3 reads
        # 5 times the value of its scaled column.
        lp = dict(c=[F(1), F(2)], A_ub=[], b_ub=[], A_eq=[[F(1), F(1)], [F(2), F(2)]],
                  b_eq=[F(1), F(2)], maximize=False)
        tableau = Tableau(**lp)
        assert tableau.solve().objective == 1 and tableau.dropped == {1}
        tableau.add_column(a_eq=[F(1), F(1, 5)], cost=F(-1))
        assert not tableau.dropped
        lp = dict(lp, c=lp["c"] + [F(-1)], A_eq=[[F(1), F(1), F(1)], [F(2), F(2), F(1, 5)]])
        res = tableau.solve()
        assert res.objective == solve_lp(**lp).objective
        _assert_optimal(lp, res)

    def test_added_column_leaves_the_tableau_as_it_was(self):
        # Rows are scaled once, at construction: a column of thirds, fifths and
        # sevenths changes no existing entry, no row scale and not den.
        lp = dict(c=[F(1), F(1)], A_ub=[[F(1, 2), F(1)], [F(1), F(3)]], b_ub=[F(2), F(3)],
                  A_eq=[[F(1), F(1)]], b_eq=[F(1)], maximize=True)
        tableau = Tableau(**lp)
        for _ in range(2):  # before the first solve and after it
            before = [list(row) for row in tableau.tab], list(tableau.scale), tableau.den
            nv = len(tableau.c)
            tableau.add_column(a_ub=[F(1, 3), F(2, 7)], a_eq=[F(1, 5)], cost=F(1, 2))
            after = [row[:nv] + row[nv + 1:] for row in tableau.tab]
            assert (after, tableau.scale, tableau.den) == before
            assert tableau.col_scale[nv] == 105  # 1/5, 1/3 * 2 (row scale 2), 2/7
            tableau.solve()

    def test_wrong_length_is_refused_then_reoptimised(self):
        tableau = Tableau([1], A_ub=[[1]], b_ub=[1], maximize=True)
        assert tableau.solve().x == [1]
        with pytest.raises(ValueError, match="expected 0 and 1"):
            tableau.add_column(a_ub=[F(1), F(1)])
        assert tableau.solve().x == [1]  # refused whole: still the one column
        # max x1 + 3 x2 s.t. x1 + 2 x2 <= 1, re-optimised from x1's basis
        tableau.add_column(a_ub=[F(2)], cost=3)
        res = tableau.solve()
        assert res.x == [0, F(1, 2)] and res.objective == F(3, 2)
        assert res.iterations == 1 and res.dual_ub == [F(3, 2)]
