"""Column generation for the mixture LPs.

The full LPs have one variable per permutation (or per grid weight vector),
so they are solved by a cutting-plane / column-generation loop instead:
solve the restricted primal over the columns found so far, read off the
dual (mu, gamma), and ask the separation step for the most violated column
-- the greedy order sorted by decreasing mu, or its floor onto the weight
grid in the secretary reduction. A column is a scheme: `OrderedGreedy`
along an order, or a one-vector `WeightMixture` replaying the secretary.
New columns have their per-element selection probabilities either computed
exactly over an explicit support (the scheme's `outcomes`), or estimated
by Monte-Carlo as count ratios Fraction(count, m) (`Prior.count` over the
scheme's `run_words`), with the usual relative-error sample size
m = ceil(2 ln(2/delta) / (eta^2 p_min^2)).
Either way every LP entry is a Fraction, so the build's arithmetic is exact
in both modes; the modes differ only in how a column is priced.

Convergence certificate: at termination the best column the separation can
produce is not violated (violation <= 0, compared exactly), so the
restricted dual value gamma bounds the unrestricted one from above; in
Monte-Carlo mode, the unrestricted LP over the estimated columns.

Each build keeps one restricted master (`RestrictedMaster`): a single
`simplex.Tableau`, solved by both phases once, to which every later column
is added and re-optimised by phase 2 from the basis the last solve ended
on. Columns enter as they are: the tableau scales each added column by
the factor its denominators need (`simplex` module docstring), so neither
mode states its denominators. `solve_restricted` is the cold solve of the same LP, kept
as the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .matroid import Matroid
from .priors import Prior, exact_or_sampled, to_fraction
from .sampling import EnumerationTooLarge
from .schemes import (
    SECRETARY_KINDS,
    OrderedGreedy,
    PermutationMixture,
    Scheme,
    WeightMixture,
    order_by_weight,
)
from .schemes import greedy_ordered_bits, secretary_wrap_bits  # noqa: F401 - bench/tracer.py
from .simplex import LpResult, Tableau, solve_lp


class GridRangeError(ValueError):
    """A coordinate exceeded the top of the weight grid."""


@dataclass(frozen=True)
class WeightGrid:
    """The grid {eps*i/n : i = 0..ceil(n/(eps*p_min))}; spans [0, >=1/p_min].
    Its step and top index are computed once, on first use."""

    n: int
    eps: Fraction
    p_min: Fraction

    @cached_property
    def step(self) -> Fraction:
        return to_fraction(self.eps) / self.n

    @cached_property
    def top_index(self) -> int:
        return math.ceil(self.n / (self.eps * self.p_min))

    @property
    def max_value(self) -> Fraction:
        return self.step * self.top_index

    def floor(self, value) -> Fraction:
        v = to_fraction(value)
        if v < 0:
            if v < -Fraction(1, 10**9):
                raise GridRangeError(f"negative coordinate {value}")
            v = Fraction(0)  # noise in a float input
        step = self.step
        idx = v.numerator * step.denominator // (v.denominator * step.numerator)
        if idx > self.top_index:
            raise GridRangeError(f"coordinate {value} above grid max {self.max_value}")
        return step * idx


def round_to_grid(mu: Sequence, grid: WeightGrid) -> tuple[Fraction, ...]:
    """Per-coordinate floor onto the grid; loses at most eps/n per entry."""
    return tuple(grid.floor(v) for v in mu)


@dataclass
class LpColumn:
    key: object  # Permutation or grid weight tuple
    q: list  # per-element selection probability (exact or estimated)


@dataclass
class LpSolution:
    beta: object
    lam: list
    mu: list
    gamma: object


def _restricted_lp(columns: Sequence[LpColumn], x: Sequence) -> dict:
    """Max beta s.t. sum_c q_c lam_c >= beta * x (elementwise over active
    elements), lam a probability vector, as `solve_lp` keywords."""
    if not columns:
        raise ValueError("need at least one column")
    active = [i for i in range(len(x)) if x[i] > 0]
    if not active:
        raise ValueError("no element has positive activation probability")
    nc = len(columns)
    # vars: beta, lam_1..lam_nc
    return dict(
        c=[1] + [0] * nc,
        A_ub=[[x[i]] + [-col.q[i] for col in columns] for i in active],
        b_ub=[0] * len(active),
        A_eq=[[0] + [1] * nc],
        b_eq=[1],
        maximize=True,
    )


def _restricted_solution(res: LpResult, x: Sequence) -> LpSolution:
    mu = [0] * len(x)
    active = (i for i in range(len(x)) if x[i] > 0)
    for i, dual in zip(active, res.dual_ub):
        mu[i] = dual
    return LpSolution(beta=res.objective, lam=res.x[1:], mu=mu, gamma=res.dual_eq[0])


def solve_restricted(columns: Sequence[LpColumn], x: Sequence) -> LpSolution:
    """Max beta s.t. sum_c q_c lam_c >= beta * x (elementwise over active
    elements), lam a probability vector. Returns primal and dual, solved
    cold: the cross-check of `RestrictedMaster`."""
    return _restricted_solution(solve_lp(**_restricted_lp(columns, x)), x)


class RestrictedMaster:
    """The restricted primal of one build, kept as one simplex tableau.

    `solve` returns the same optimum as `solve_restricted` over the columns
    added so far, re-optimised from the previous basis, and counts its
    solves and pivots.
    """

    def __init__(self, column: LpColumn, x: Sequence):
        self.x = x
        self.columns = [column]
        self.tableau = Tableau(**_restricted_lp(self.columns, x))
        self.lp_solves = 0
        self.pivots = 0

    def add(self, column: LpColumn) -> None:
        a_ub = [-qi for qi, xi in zip(column.q, self.x) if xi > 0]
        self.tableau.add_column(a_ub=a_ub, a_eq=[1])
        self.columns.append(column)

    def solve(self) -> LpSolution:
        res = self.tableau.solve()
        self.lp_solves += 1
        self.pivots += res.iterations
        return _restricted_solution(res, self.x)


def estimation_sample_size(eta: float, delta: float, p_min: float) -> int:
    return math.ceil(2 * math.log(2 / delta) / (eta**2 * float(p_min) ** 2))


def exact_selection_column(M: Matroid, P: Prior, column: Scheme) -> list[Fraction]:
    """Exact per-element selection probabilities of a column over an explicit
    support, from its `outcomes`."""
    return P.exact_count(partial(column.outcomes, M))


@dataclass
class BuildReport:
    kind: str
    n: int
    eps: float
    eps_split: dict
    exact_columns: bool
    beta_trajectory: list = field(default_factory=list)
    gamma: object = None
    converged: bool = False
    iterations: int = 0
    columns: list = field(default_factory=list)
    estimation_samples: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    lp_solves: int = 0  # restricted-master solves: one per column accepted
    pivots: int = 0  # simplex pivots over all of them

    def to_json(self) -> dict:
        return {
            **asdict(self),
            "eps": float(self.eps),
            "beta_trajectory": [float(b) for b in self.beta_trajectory],
            "gamma": None if self.gamma is None else float(self.gamma),
        }


def _column_generation(
    M, P, eps, rng, mode, alpha_target, iteration_cap, estimation_override,
    *, kind, stages, c, column, start, key_json,
) -> tuple[list, BuildReport]:
    """The cutting-plane build both mixtures share; returns the mixture's
    (key, weight) items and the report.

    The column family is given by `column(key)`, the scheme one column runs
    (made once per priced column, so what depends on the key alone is
    computed once and not per atom or trial); `start(x, p_min)`, the first
    key and the separation that maps a dual mu to the next key; and
    `key_json(key)`.
    `priors.exact_or_sampled` reads `mode`. Exact columns are counted over
    the support from the scheme's `outcomes` (`exact_selection_column`), so
    a family that draws (a random-arrival secretary) raises
    `EnumerationTooLarge`. Sampled x and columns are count ratios over m
    draws of `Prior.count` each, a column's selections by its `run_words`,
    after p_min's: one m per build, `estimation_override` or the size for
    relative accuracy eta = eps*c*alpha_target with confidence delta, an
    eps/stages share of the failure budget union-bounded over the columns
    the loop can visit. Both kinds are
    Fractions, so the loop stops at violation <= 0 in both modes, and the
    LP's lam, which its equality row makes sum to exactly 1, are the
    mixture weights as they are. The restricted LPs are one
    `RestrictedMaster`, re-optimised from its last basis per column.
    """
    override = estimation_override
    if override is not None and (not isinstance(override, int) or override < 1):
        raise ValueError(f"estimation_override must be None or an int >= 1, got {override!r}")
    n = M.n
    per_stage = eps / stages
    cap = iteration_cap or 50 * n
    eta = eps * c * alpha_target
    delta = per_stage / (n * (cap + 2))

    def generate(exact_columns, x, p_min, price, samples):
        split = {"per_stage": float(per_stage), "stages": stages}
        report = BuildReport(kind, n, eps, split, exact_columns, estimation_samples=samples)
        key, separate = start(x, p_min)
        master = RestrictedMaster(LpColumn(key, price(key)), x)
        seen = {key}
        sol = master.solve()
        report.beta_trajectory.append(sol.beta)
        for _ in range(cap):
            report.iterations += 1
            key = separate(sol.mu)
            if key in seen:
                report.converged = True
                break
            col = LpColumn(key, price(key))
            violation = sum(qi * mi for qi, mi in zip(col.q, sol.mu)) - sol.gamma
            if violation <= 0:
                report.converged = True
                break
            master.add(col)
            seen.add(key)
            sol = master.solve()
            report.beta_trajectory.append(sol.beta)
        else:
            report.notes.append(f"iteration cap {cap} reached; returning best mixture so far")
        report.gamma = sol.gamma
        report.lp_solves, report.pivots = master.lp_solves, master.pivots

        items = [(col.key, l) for col, l in zip(master.columns, sol.lam) if l > 0]
        report.columns = [key_json(k) for k, _ in items]
        return items, report

    def exact():
        if P.support() is None:  # before p_min: an opaque prior draws nothing
            raise EnumerationTooLarge("exact columns need an explicit prior support")
        x = P.activation_probabilities()
        def price(key):
            return exact_selection_column(M, P, column(key))

        return generate(True, x, P.p_min(rng=rng), price, {})

    def sampled():
        for name, v in (("eps", eps), ("alpha_target", alpha_target)):
            if not v > 0:  # eta and delta divide by them
                raise ValueError(f"a Monte-Carlo build needs {name} > 0, got {v}")
        p_min = P.p_min(rng=rng)
        m = override or estimation_sample_size(eta, delta, p_min)
        samples = {"x": m}
        x = [Fraction(a, m) for a in P.count(m, rng)[0]]

        def price(key):
            samples[str(key_json(key))] = m
            run = partial(column(key).run_words, M, rng=rng)
            return [Fraction(s, m) for s in P.count(m, rng, run)[1]]

        return generate(False, x, p_min, price, samples)

    return exact_or_sampled(P, mode, exact, sampled)


def build_lp_scheme(
    M: Matroid,
    P: Prior,
    eps: float,
    rng: Random,
    mode: str = "auto",
    alpha_target: float = 0.25,
    iteration_cap: Optional[int] = None,
    estimation_override: Optional[int] = None,
) -> tuple[PermutationMixture, BuildReport]:
    """Column generation over deterministic greedy orders; separation sorts
    the dual. eps is split over 6 stages."""
    items, report = _column_generation(
        M, P, eps, rng, mode, alpha_target, iteration_cap, estimation_override,
        kind="permutation_mixture", stages=6, c=1,
        column=OrderedGreedy,
        start=lambda x, p_min: (order_by_weight(x), order_by_weight),
        key_json=lambda pi: list(pi.order),
    )
    return PermutationMixture(items), report


def build_secretary_reduction(
    M: Matroid,
    P: Prior,
    secretary_kind: str,
    c: float,
    eps: float,
    rng: Random,
    mode: str = "auto",
    alpha_target: float = 0.25,
    iteration_cap: Optional[int] = None,
    estimation_override: Optional[int] = None,
) -> tuple[WeightMixture, BuildReport]:
    """Column generation over weight vectors from the eps-grid; each column
    replays the given secretary algorithm with masked weights, and
    separation floors the current dual onto the grid. eps is split over 7
    stages; exact columns need a deterministic secretary."""
    eps = to_fraction(eps)  # the grid step eps/7 is exact
    if not (c > 0 and eps > 0):  # eta divides by c, the grid by eps
        raise ValueError(f"the secretary reduction needs c > 0 and eps > 0, got c={c}, eps={eps}")
    if secretary_kind not in SECRETARY_KINDS:
        raise ValueError(f"unknown secretary kind {secretary_kind!r}")
    n = M.n

    def start(x, p_min):
        # Grid built from the smallest activation probability actually seen,
        # so every dual mu (mu_i <= 1/x_i) stays on the grid even with noisy x.
        # p_min is read by `to_fraction`: an opaque prior's is a float estimate.
        grid_pmin = min([to_fraction(p_min)] + [xi for xi in x if xi > 0])
        grid = WeightGrid(n=n, eps=eps / 7, p_min=grid_pmin)
        pos = [i for i in range(n) if x[i] > 0]
        mu0 = [0] * n
        for i in pos:
            mu0[i] = Fraction(1, len(pos)) / x[i]
        return round_to_grid(mu0, grid), lambda mu: round_to_grid(mu, grid)

    items, report = _column_generation(
        M, P, eps, rng, mode, alpha_target, iteration_cap, estimation_override,
        kind="weight_mixture", stages=7, c=c,
        column=lambda wv: WeightMixture(secretary_kind, [(wv, 1)]),
        start=start,
        key_json=lambda wv: [str(v) for v in wv],
    )
    return WeightMixture(secretary_kind, items), report
