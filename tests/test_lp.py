import math
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrs import (
    LpColumn,
    UniformMatroid,
    WeightGrid,
    build_lp_scheme,
    build_secretary_reduction,
    exact_balancedness,
    gen_kuniform_allactive,
    max_uncontentious_alpha,
    round_to_grid,
    solve_restricted,
    two_element_instance,
)
from ocrs import lp
from ocrs.lp import GridRangeError, RestrictedMaster, estimation_sample_size, exact_selection_column
from ocrs.harness import parse_instance
from ocrs.priors import AllActivePrior, EnumerationTooLarge, ProductPrior, SamplerPrior
from ocrs.sampling import to_fraction
from ocrs.schemes import greedy_ordered_bits, order_by_weight, secretary_wrap_bits
from ocrs.simplex import solve_lp

from conftest import NoDraws, random_explicit_prior, random_small_matroid


class TestWeightGrid:
    def test_small_grid_contents(self):
        grid = WeightGrid(n=2, eps=Fraction(1, 2), p_min=Fraction(1))
        assert (grid.step, grid.top_index) == (Fraction(1, 4), 4)
        assert grid.max_value >= 1 / grid.p_min

    def test_floor_examples(self):
        grid = WeightGrid(n=2, eps=Fraction(1, 2), p_min=Fraction(1, 2))
        assert round_to_grid((0.6, 0.3), grid) == (Fraction(1, 2), Fraction(1, 4))
        assert round_to_grid((Fraction(1, 2),), grid) == (Fraction(1, 2),)
        assert round_to_grid((0, 0), grid) == (0, 0)

    def test_rounding_error_bounded(self, rng):
        grid = WeightGrid(n=5, eps=Fraction(1, 4), p_min=Fraction(1, 3))
        for _ in range(300):
            mu = Fraction(rng.randint(0, 3000), 1000)
            lo = grid.floor(mu)
            assert lo <= mu
            assert mu - lo < grid.step
            assert mu - lo <= grid.eps / grid.n

    def test_above_max_rejected(self):
        grid = WeightGrid(n=2, eps=Fraction(1, 2), p_min=Fraction(1))
        with pytest.raises(GridRangeError):
            grid.floor(Fraction(3, 2))

    def test_tiny_negative_noise_clamped(self):
        grid = WeightGrid(n=2, eps=Fraction(1, 2), p_min=Fraction(1))
        assert grid.floor(-1e-12) == 0


class TestEstimation:
    def test_sample_size_formula(self):
        expected = math.ceil(2 * math.log(2 / 0.01) / (0.1**2 * 0.5**2))
        assert estimation_sample_size(0.1, 0.01, 0.5) == expected == 4239

    @staticmethod
    def builders(rng, override):
        M, P = UniformMatroid(3, 1), AllActivePrior(3)
        kw = dict(eps=0.5, rng=rng, mode="mc", estimation_override=override)
        return [
            lambda: build_lp_scheme(M, P, **kw),
            lambda: build_secretary_reduction(M, P, "greedy_by_weight", c=1, **kw),
        ]

    @pytest.mark.parametrize("m_override", [0, -5])
    def test_bad_m_override_rejected(self, m_override):
        # 0 once meant the paper's m and -5 gave all-zero x and q; both are
        # refused before the build draws anything.
        rng = Random(0)
        state = rng.getstate()
        for build in self.builders(rng, m_override):
            with pytest.raises(ValueError, match="estimation_override"):
                build()
            assert rng.getstate() == state

    def test_one_sample_override(self):
        # An override sets every m, down to one draw per estimate.
        for build in self.builders(Random(0), 1):
            _, report = build()
            assert report.converged and set(report.estimation_samples.values()) == {1}


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_unknown_secretary_kind_refused_before_any_draw(mode):
    M, P = UniformMatroid(3, 1), AllActivePrior(3)
    with pytest.raises(ValueError, match="unknown secretary kind 'nope'"):
        build_secretary_reduction(M, P, "nope", c=1, eps=0.5, rng=NoDraws(), mode=mode)


class TestSolveRestricted:
    def test_single_matching_column(self):
        col = LpColumn(key="c", q=[Fraction(1, 2), Fraction(1, 3)])
        sol = solve_restricted([col], [Fraction(1, 2), Fraction(1, 3)])
        assert sol.beta == 1
        assert sol.lam == [1]

    def test_single_element(self):
        sol = solve_restricted([LpColumn(key="c", q=[Fraction(1)])], [Fraction(1)])
        assert sol.beta == 1

    def test_two_element_symmetric(self):
        # the coupled two-element instance with both one-permutation columns
        inst = two_element_instance()
        cols = []
        for order in ((0, 1), (1, 0)):
            q = exact_selection_column(
                inst.prior, lambda atom, order=order: greedy_ordered_bits(inst.matroid, order, atom)
            )
            cols.append(LpColumn(key=order, q=q))
        x = inst.prior.activation_probabilities()
        sol = solve_restricted(cols, x)
        assert sol.beta == Fraction(1, 2)
        assert sorted(sol.lam) == [Fraction(1, 2), Fraction(1, 2)]
        # dual certificate: every column satisfies q.mu <= gamma, x.mu >= 1
        assert sol.gamma == sol.beta
        for col in cols:
            assert sum(qi * mi for qi, mi in zip(col.q, sol.mu)) <= sol.gamma
        assert sum(xi * mi for xi, mi in zip(x, sol.mu)) >= 1

    def test_weak_duality_random(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            x = [Fraction(rng.randint(1, 4), 4) for _ in range(n)]
            cols = [
                LpColumn(key=i, q=[Fraction(rng.randint(0, 4), 4) for _ in range(n)])
                for i in range(rng.randint(1, 4))
            ]
            sol = solve_restricted(cols, x)
            assert sol.beta == sol.gamma  # strong duality, exact arithmetic
            for col in cols:
                assert sum(qi * mi for qi, mi in zip(col.q, sol.mu)) <= sol.gamma

    def test_zero_activation_elements_ignored(self):
        col = LpColumn(key="c", q=[Fraction(1, 2), Fraction(0)])
        sol = solve_restricted([col], [Fraction(1, 2), Fraction(0)])
        assert sol.beta == 1

    def test_needs_a_column(self):
        with pytest.raises(ValueError):
            solve_restricted([], [Fraction(1)])

    def test_needs_an_element_that_can_be_active(self):
        col = LpColumn(key="c", q=[Fraction(0), Fraction(0)])
        with pytest.raises(ValueError, match="no element has positive activation probability"):
            solve_restricted([col], [Fraction(0), Fraction(0)])


class TestSeparation:
    def test_weight_order_maximizes_dual_value(self, rng):
        # the sort-by-mu order dominates every permutation, exact check
        for _ in range(6):
            n = rng.randint(2, 4)
            m = UniformMatroid(n, rng.randint(1, n))
            p = random_explicit_prior(rng, n)
            mu = [Fraction(rng.randint(0, 9), 10) for _ in range(n)]

            def dual_value(order):
                q = exact_selection_column(
                    p, lambda atom, order=order: greedy_ordered_bits(m, order, atom)
                )
                return sum(qi * mi for qi, mi in zip(q, mu))

            best = dual_value(order_by_weight(mu).order)
            for order in permutations(range(n)):
                assert dual_value(order) <= best


class TestBuildLpScheme:
    def test_single_element_trivial(self, rng):
        m = UniformMatroid(1, 1)
        mix, report = build_lp_scheme(m, AllActivePrior(1), eps=0.1, rng=rng, mode="exact")
        assert report.beta_trajectory[-1] == 1
        assert report.converged

    def test_kuniform_reaches_alpha_star(self, rng):
        inst = gen_kuniform_allactive(4, 2)
        mix, report = build_lp_scheme(inst.matroid, inst.prior, eps=0.1, rng=rng, mode="exact")
        assert report.converged
        beta = report.beta_trajectory[-1]
        assert beta >= Fraction(9, 10) * Fraction(1, 2)
        assert report.gamma >= Fraction(9, 10) * Fraction(1, 2)
        bal = exact_balancedness(inst.matroid, mix, inst.prior)
        assert min(bal) >= beta

    def test_two_element_uniform_mixture(self, rng):
        inst = two_element_instance()
        mix, report = build_lp_scheme(inst.matroid, inst.prior, eps=0.1, rng=rng, mode="exact")
        assert report.beta_trajectory[-1] == Fraction(1, 2)
        assert sorted(wt for _, wt in mix.components) == [Fraction(1, 2), Fraction(1, 2)]

    def test_monte_carlo_mode_close_to_exact(self):
        inst = gen_kuniform_allactive(4, 2)
        mix, report = build_lp_scheme(
            inst.matroid,
            inst.prior,
            eps=0.25,
            rng=Random(5),
            mode="mc",
            alpha_target=0.5,
            estimation_override=4000,
        )
        assert report.beta_trajectory[-1] >= 0.4

    def test_unknown_mode_rejected(self, rng):
        inst = two_element_instance()
        with pytest.raises(ValueError, match="unknown mode"):
            build_lp_scheme(inst.matroid, inst.prior, eps=0.1, rng=rng, mode="monte_carlo")

    def test_exact_on_an_opaque_prior_raises_before_drawing(self):
        rng = Random(4)
        state = rng.getstate()
        with pytest.raises(EnumerationTooLarge):
            build_lp_scheme(
                UniformMatroid(2, 1), SamplerPrior(2, lambda r: 0b11), eps=0.1, rng=rng,
                mode="exact",
            )
        assert rng.getstate() == state

    def test_report_is_json_ready(self, rng):
        inst = two_element_instance()
        _, report = build_lp_scheme(inst.matroid, inst.prior, eps=0.1, rng=rng, mode="exact")
        payload = report.to_json()
        assert payload["kind"] == "permutation_mixture"
        assert payload["converged"] is True
        assert payload["eps_split"]["stages"] == 6


class TestSecretaryReduction:
    def test_greedy_by_weight_matches_lp_scheme(self, rng):
        for inst in (two_element_instance(), gen_kuniform_allactive(4, 2)):
            alpha_star = max_uncontentious_alpha(inst.matroid, inst.prior).alpha_star
            mix, report = build_secretary_reduction(
                inst.matroid, inst.prior, "greedy_by_weight", c=1.0, eps=0.1,
                rng=Random(8), mode="exact",
            )
            assert report.converged
            beta = report.beta_trajectory[-1]
            assert beta >= (1 - Fraction(1, 10)) * alpha_star
            bal = exact_balancedness(inst.matroid, mix, inst.prior)
            assert min(bal) >= beta

    def test_dual_certificate_at_convergence(self, rng):
        inst = gen_kuniform_allactive(4, 2)
        _, report = build_secretary_reduction(
            inst.matroid, inst.prior, "greedy_by_weight", c=1.0, eps=0.1,
            rng=Random(8), mode="exact",
        )
        assert report.gamma >= (1 - 2 * Fraction(1, 10)) * Fraction(1, 2)

    def test_randomized_secretary_needs_mc(self, rng):
        inst = gen_kuniform_allactive(3, 1)
        with pytest.raises(ValueError):
            build_secretary_reduction(
                inst.matroid, inst.prior, "classic_1uniform", c=0.3, eps=0.2,
                rng=rng, mode="exact",
            )

    def test_auto_falls_back_to_mc_for_a_randomized_secretary(self):
        inst = gen_kuniform_allactive(3, 1)
        with pytest.raises(EnumerationTooLarge):
            build_secretary_reduction(
                inst.matroid, inst.prior, "classic_1uniform", c=0.3, eps=0.2,
                rng=Random(1), mode="exact",
            )
        built = [
            build_secretary_reduction(
                inst.matroid, inst.prior, "classic_1uniform", c=0.35, eps=0.3,
                rng=Random(10), mode=mode, alpha_target=float(1 / 3), estimation_override=500,
            )
            for mode in ("auto", "mc")
        ]
        (auto_mix, auto_report), (mc_mix, mc_report) = built
        assert auto_mix.to_spec() == mc_mix.to_spec()
        assert auto_report.to_json() == mc_report.to_json()
        assert auto_report.exact_columns is False

    def test_classic_mc_smoke(self):
        inst = gen_kuniform_allactive(3, 1)
        mix, report = build_secretary_reduction(
            inst.matroid, inst.prior, "classic_1uniform", c=0.35, eps=0.3,
            rng=Random(10), mode="mc", alpha_target=float(1 / 3),
            estimation_override=3000,
        )
        assert report.beta_trajectory[-1] > 0.2


class TestMonteCarloBuildContract:
    """Both builders share one set-up: the eps split over their stage count
    and one sample size per estimate, from eta = eps*c*alpha_target and
    delta = (eps/stages)/(n(cap+2))."""

    EPS = Fraction(1, 4)
    ALPHA = Fraction(1, 2)

    def builds(self):
        inst = gen_kuniform_allactive(4, 2)
        M, P = inst.matroid, inst.prior
        yield 6, 1, build_lp_scheme(
            M, P, eps=self.EPS, rng=Random(3), mode="mc", alpha_target=self.ALPHA
        )[1]
        yield 7, 1.0, build_secretary_reduction(
            M, P, "greedy_by_weight", c=1.0, eps=self.EPS, rng=Random(2), mode="mc",
            alpha_target=self.ALPHA,
        )[1]

    def test_sample_sizes_follow_the_eps_split(self):
        n, cap = 4, 200
        for stages, c, report in self.builds():
            m = estimation_sample_size(
                self.EPS * c * self.ALPHA, (self.EPS / stages) / (n * (cap + 2)), 1
            )
            assert "x" in report.estimation_samples and len(report.estimation_samples) > 1
            assert set(report.estimation_samples.values()) == {m}

    def test_eps_split(self):
        for stages, _, report in self.builds():
            assert report.eps_split == {"per_stage": float(self.EPS / stages), "stages": stages}
            assert report.to_json()["eps_split"] == report.eps_split


class TestMonteCarloBuildIsExact:
    """A Monte-Carlo column is a vector of count ratios, so the build's LPs,
    its beta trajectory and its mixture weights are Fractions as well."""

    @pytest.mark.parametrize("spec", ["twoelem", "kuniform:5,2"])
    @pytest.mark.parametrize("reduction", ["permutation", "secretary"])
    def test_beta_and_weights_are_fractions(self, spec, reduction):
        inst = parse_instance(spec)
        kwargs = dict(eps=Fraction(1, 10), rng=Random(1), mode="mc",
                      alpha_target=inst.declared_alpha, estimation_override=400)
        if reduction == "permutation":
            mix, report = build_lp_scheme(inst.matroid, inst.prior, **kwargs)
        else:
            mix, report = build_secretary_reduction(
                inst.matroid, inst.prior, "greedy_by_weight", c=1, **kwargs
            )
        assert report.exact_columns is False
        assert all(type(b) is Fraction for b in report.beta_trajectory)
        weights = [wt for _, wt in mix.components]
        assert all(type(wt) is Fraction for wt in weights)
        assert sum(weights) == 1

    def test_solve_lp_reads_floats_exactly(self):
        # The restricted-LP shape with float entries: the same Fractions as
        # the LP over each float's decimal digits, as every entry point reads it.
        q = [[0.3, 0.7, 0.1], [0.6, 0.2, 0.45], [0.5, 0.5, 0.5]]
        x = [0.9, 0.8, 0.55]
        c = [1.0, 0.0, 0.0, 0.0]
        A_ub = [[x[i]] + [-col[i] for col in q] for i in range(3)]
        A_eq, b_eq, b_ub = [[0.0, 1.0, 1.0, 1.0]], [1.0], [0.0] * 3
        got = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, maximize=True)
        F = lambda rows: [[to_fraction(v) for v in r] for r in rows]
        ref = solve_lp(F([c])[0], A_ub=F(A_ub), b_ub=F([b_ub])[0], A_eq=F(A_eq),
                       b_eq=F([b_eq])[0], maximize=True)
        for field in ("x", "dual_eq", "dual_ub"):
            assert all(type(v) is Fraction for v in getattr(got, field))
            assert getattr(got, field) == getattr(ref, field)
        assert type(got.objective) is Fraction and got.objective == ref.objective
        assert sum(got.x[1:]) == 1
        assert solve_lp([0.1], A_ub=[[1]], b_ub=[1], maximize=True).objective == Fraction(1, 10)

    @pytest.mark.parametrize("override", [0, -5, 2.5, "10"])
    def test_estimation_override_must_be_positive(self, override):
        inst = gen_kuniform_allactive(4, 2)
        with pytest.raises(ValueError, match="estimation_override"):
            build_lp_scheme(inst.matroid, inst.prior, eps=0.25, rng=Random(0), mode="mc",
                            estimation_override=override)
        with pytest.raises(ValueError, match="estimation_override"):
            build_secretary_reduction(inst.matroid, inst.prior, "greedy_by_weight", c=1,
                                      eps=0.25, rng=Random(0), mode="mc",
                                      estimation_override=override)


def _assert_warm_equals_cold(columns, x, sol):
    """A warm solve has the cold solve's optimum, and its duals certify it:
    mu >= 0, x.mu = 1 when beta > 0, q_c.mu <= gamma for every column held;
    its lam is a probability vector that reaches beta on every element."""
    cold = solve_restricted(columns, x)
    assert sol.beta == cold.beta and sol.gamma == cold.gamma == sol.beta
    assert all(m >= 0 for m in sol.mu)
    x_mu = sum(xi * mi for xi, mi in zip(x, sol.mu))
    assert x_mu == 1 if sol.beta > 0 else x_mu >= 1
    for col in columns:
        assert sum(qi * mi for qi, mi in zip(col.q, sol.mu)) <= sol.gamma
    assert all(l >= 0 for l in sol.lam) and sum(sol.lam) == 1
    for i, xi in enumerate(x):
        assert sum(l * col.q[i] for l, col in zip(sol.lam, columns)) >= sol.beta * xi


class _CheckedMaster(RestrictedMaster):
    """The build's master, each of its solves checked against a cold one."""

    def solve(self):
        sol = super().solve()
        _assert_warm_equals_cold(self.columns, self.x, sol)
        return sol


class TestRestrictedMaster:
    """One tableau per build, re-optimised per column: every solve equals a
    cold `solve_restricted` of the same columns at tolerance 0."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_warm_solves_equal_cold_ones(self, seed):
        rng = Random(seed)
        M = random_small_matroid(rng, max_n=6)
        P = random_explicit_prior(rng, M.n)
        x = P.activation_probabilities()

        # A random column sequence from both builders' families: greedy along
        # an order, and greedy by a weight vector (the secretary reduction's).
        def column():
            if rng.random() < 0.5:
                order = rng.sample(range(M.n), M.n)
                return LpColumn(order, exact_selection_column(
                    P, lambda a: greedy_ordered_bits(M, order, a)))
            w = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(M.n)]
            return LpColumn(w, exact_selection_column(
                P, lambda a: secretary_wrap_bits("greedy_by_weight", w, M, a, None)))

        master = RestrictedMaster(column(), x)
        _assert_warm_equals_cold(master.columns, x, master.solve())
        for _ in range(rng.randint(1, 8)):
            master.add(column())
            _assert_warm_equals_cold(master.columns, x, master.solve())
        assert master.lp_solves == len(master.columns)

        # Both builders, every solve of their own column sequences checked.
        lp.RestrictedMaster = _CheckedMaster
        try:
            _, report = build_lp_scheme(M, P, eps=0, rng=Random(0), mode="exact")
            assert report.converged
            _, report = build_secretary_reduction(
                M, P, "greedy_by_weight", c=1, eps=Fraction(1, 10), rng=Random(0), mode="exact"
            )
        finally:
            lp.RestrictedMaster = RestrictedMaster
        assert report.lp_solves == len(report.beta_trajectory)

    def test_column_of_any_denominator_enters(self):
        x = [Fraction(1, 2), Fraction(1, 2)]
        master = RestrictedMaster(LpColumn("a", [Fraction(1, 2), Fraction(0)]), x)
        assert master.solve().beta == 0
        # A third is no multiple of x's halves: the row is rescaled, the column
        # enters whole, and lam = (2/5, 3/5) reaches beta = 2/5 on both rows.
        master.add(LpColumn("b", [Fraction(0), Fraction(1, 3)]))
        sol = master.solve()
        assert sol.beta == Fraction(2, 5) and sol.lam == [Fraction(2, 5), Fraction(3, 5)]
        _assert_warm_equals_cold(master.columns, x, sol)

        # Columns counted over 1,000 and over 3,000 draws, in one master.
        rng = Random(3)
        x = [Fraction(rng.randint(1, 1000), 1000) for _ in range(5)]

        def column(key, m):
            return LpColumn(key, [Fraction(rng.randint(0, m), m) for _ in x])

        master = RestrictedMaster(column(0, 1000), x)
        _assert_warm_equals_cold(master.columns, x, master.solve())
        for key in range(1, 9):
            master.add(column(key, (1000, 3000)[key % 2]))
            _assert_warm_equals_cold(master.columns, x, master.solve())
        assert any(q.denominator == 3000 for col in master.columns for q in col.q)

    def test_monte_carlo_build_runs_warm(self, monkeypatch):
        def cold(*args, **kwargs):
            raise AssertionError("the build called the cold solver")

        monkeypatch.setattr(lp, "solve_lp", cold)
        x = [Fraction(1, 5) if i % 3 == 0 else Fraction(1, 2) for i in range(8)]
        mix, report = build_lp_scheme(
            UniformMatroid(8, 2), ProductPrior(x), eps=Fraction(1, 10), rng=Random(1),
            mode="mc", estimation_override=1000,
        )
        assert report.converged and not report.exact_columns
        assert report.lp_solves == len(report.beta_trajectory) > 1
        weights = [wt for _, wt in mix.components]
        assert all(type(wt) is Fraction for wt in weights) and sum(weights) == 1

    def test_report_counts_solves_and_pivots(self):
        inst = gen_kuniform_allactive(10, 5)
        runs = [
            build_lp_scheme(inst.matroid, inst.prior, eps=Fraction(1, 10), rng=Random(1),
                            mode="exact")[1]
            for _ in range(2)
        ]
        first = runs[0].to_json()
        assert first == runs[1].to_json()
        assert first["lp_solves"] == len(runs[0].beta_trajectory)
        # Each solve pivots at least once: a new column enters only when violated.
        assert first["pivots"] >= first["lp_solves"] >= 1
