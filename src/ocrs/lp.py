"""Column generation for the mixture LPs.

The full LPs have one variable per permutation (or per grid weight vector),
so they are solved by a cutting-plane / column-generation loop instead:
solve the restricted primal over the columns found so far, read off the
dual (mu, gamma), and ask the separation step for the most violated column
-- the greedy order sorted by decreasing mu, or its floor onto the weight
grid in the secretary reduction. New columns have their per-element
selection probabilities either computed exactly over an explicit support,
or estimated by Monte-Carlo with the usual relative-error sample size
m = ceil(2 ln(2/delta) / (eta^2 p_min^2)).

Convergence certificate: at termination the best column the separation can
produce is (numerically) not violated, so the restricted dual value gamma
bounds the unrestricted one from above up to the gap tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Optional, Sequence

from .matroid import Matroid
from .priors import Prior, to_fraction
from .schemes import (
    SECRETARY_KINDS,
    PermutationMixture,
    WeightMixture,
    greedy_ordered_bits,
    order_by_weight,
    secretary_wrap_bits,
)
from .simplex import solve_lp

DEFAULT_GAP_FLOOR = 1e-6


class GridRangeError(ValueError):
    """A coordinate exceeded the top of the weight grid."""


@dataclass(frozen=True)
class WeightGrid:
    """The grid {eps*i/n : i = 0..ceil(n/(eps*p_min))}; spans [0, >=1/p_min]."""

    n: int
    eps: Fraction
    p_min: Fraction

    @property
    def step(self) -> Fraction:
        return self.eps / self.n

    @property
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
            v = Fraction(0)  # float dual noise
        idx = v // self.step
        if idx > self.top_index:
            raise GridRangeError(f"coordinate {value} above grid max {self.max_value}")
        return self.step * idx

    def values(self) -> list[Fraction]:
        return [self.step * i for i in range(self.top_index + 1)]


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


def solve_restricted(columns: Sequence[LpColumn], x: Sequence) -> LpSolution:
    """Max beta s.t. sum_c q_c lam_c >= beta * x (elementwise over active
    elements), lam a probability vector. Returns primal and dual."""
    if not columns:
        raise ValueError("need at least one column")
    n = len(x)
    active = [i for i in range(n) if x[i] > 0]
    if not active:
        raise ValueError("no element has positive activation probability")
    nc = len(columns)
    # vars: beta, lam_1..lam_nc
    c = [1] + [0] * nc
    A_ub = []
    for i in active:
        A_ub.append([x[i]] + [-col.q[i] for col in columns])
    b_ub = [0] * len(active)
    A_eq = [[0] + [1] * nc]
    b_eq = [1]
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, maximize=True)
    mu = [0] * n
    for row, i in enumerate(active):
        mu[i] = res.dual_ub[row]
    return LpSolution(
        beta=res.objective,
        lam=res.x[1:],
        mu=mu,
        gamma=res.dual_eq[0],
    )


def estimation_sample_size(eta: float, delta: float, p_min: float) -> int:
    return math.ceil(2 * math.log(2 / delta) / (eta**2 * float(p_min) ** 2))


def estimate_xq(
    runner: Optional[Callable[[int, Random], int]],
    P: Prior,
    eta: float,
    delta: float,
    rng: Random,
    p_min=None,
    m_override: Optional[int] = None,
) -> tuple[list[float], list[float], int]:
    """Empirical activation and selection frequencies from m joint samples
    (`Prior.count`); a `runner` of None counts activations only.

    Per element, each estimate misses its target by more than eta*x_i with
    probability at most delta. `m_override` trades the guarantee for speed.
    """
    if p_min is None:
        p_min = P.p_min(rng=rng)
    m = m_override or estimation_sample_size(eta, delta, p_min)
    act, sel = P.count(m, rng, runner)
    return [a / m for a in act], [s / m for s in sel], m


def exact_selection_column(P: Prior, select: Callable[[int], int]) -> list[Fraction]:
    """Exact per-element selection probabilities of a deterministic selector
    over an explicit support."""
    return P.exact_count(lambda atom: ((1, select(atom)),))


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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "eps": float(self.eps),
            "eps_split": self.eps_split,
            "exact_columns": self.exact_columns,
            "beta_trajectory": [float(b) for b in self.beta_trajectory],
            "gamma": None if self.gamma is None else float(self.gamma),
            "converged": self.converged,
            "iterations": self.iterations,
            "columns": self.columns,
            "estimation_samples": self.estimation_samples,
            "notes": self.notes,
        }


def _want_exact(P: Prior, mode: str) -> bool:
    if mode == "exact":
        if P.support() is None:
            raise ValueError("exact mode needs an explicit prior")
        return True
    if mode == "mc":
        return False
    sup = P.support()
    return sup is not None and len(sup) <= 4096


def _column_generation(
    M, P, eps, rng, mode, alpha_target, iteration_cap, estimation_override,
    *, kind, stages, c, select, start, key_json, no_exact_columns=None,
) -> tuple[list, BuildReport]:
    """The cutting-plane build both mixtures share; returns the mixture's
    (key, weight) items and the report.

    The column family is given by `select(key, atom, rng)`, the selection of
    one column on one active set; `start(x, p_min)`, the first key and the
    separation that maps a dual mu to the next key; and `key_json(key)`.
    Columns are exact over the support when `_want_exact` says so and
    `no_exact_columns` (the reason exact mode is refused) is None; else they
    are estimated with relative accuracy eta = eps*c*alpha_target and
    confidence delta, an eps/stages share of the failure budget
    union-bounded over the columns the loop can visit.
    """
    n = M.n
    exact = _want_exact(P, mode)
    if exact and no_exact_columns is not None:
        if mode == "exact":
            raise ValueError(no_exact_columns)
        exact = False
    per_stage = eps / stages
    cap = iteration_cap or 50 * n
    eta = eps * c * alpha_target
    gap = 0 if exact else min(DEFAULT_GAP_FLOOR, eta / 10)
    report = BuildReport(
        kind=kind,
        n=n,
        eps=eps,
        eps_split={"per_stage": float(per_stage), "stages": stages},
        exact_columns=exact,
    )
    p_min = P.p_min(rng=rng)
    if exact:
        x = P.activation_probabilities()
    else:
        delta = per_stage / (n * (cap + 2))
        x, _, report.estimation_samples["x"] = estimate_xq(
            None, P, eta, delta, rng, p_min, estimation_override
        )

    def price(key) -> LpColumn:
        if exact:
            q = exact_selection_column(P, lambda atom: select(key, atom, rng))
        else:
            _, q, m = estimate_xq(
                lambda a, r: select(key, a, r), P, eta, delta, rng, p_min, estimation_override
            )
            report.estimation_samples[str(key_json(key))] = m
        return LpColumn(key=key, q=q)

    key, separate = start(x, p_min)
    columns = [price(key)]
    seen = {key}
    sol = solve_restricted(columns, x)
    report.beta_trajectory.append(sol.beta)
    for _ in range(cap):
        report.iterations += 1
        key = separate(sol.mu)
        if key in seen:
            report.converged = True
            break
        col = price(key)
        violation = sum(qi * mi for qi, mi in zip(col.q, sol.mu)) - sol.gamma
        if violation <= gap:
            report.converged = True
            break
        columns.append(col)
        seen.add(key)
        sol = solve_restricted(columns, x)
        report.beta_trajectory.append(sol.beta)
    else:
        report.notes.append(f"iteration cap {cap} reached; returning best mixture so far")
    report.gamma = sol.gamma

    items = [(col.key, l) for col, l in zip(columns, sol.lam) if l > 0]
    total = to_fraction(sum(l for _, l in items))
    items = [(k, to_fraction(l) / total) for k, l in items]
    report.columns = [key_json(k) for k, _ in items]
    return items, report


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
        select=lambda pi, a, r: greedy_ordered_bits(M, pi.order, a),
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
    n = M.n

    def start(x, p_min):
        # Grid built from the smallest activation probability actually seen,
        # so every dual mu (mu_i <= 1/x_i) stays on the grid even with noisy x.
        grid_pmin = min([to_fraction(p_min)] + [to_fraction(xi) for xi in x if xi > 0])
        grid = WeightGrid(n=n, eps=eps / 7, p_min=grid_pmin)
        pos = [i for i in range(n) if x[i] > 0]
        mu0 = [0] * n
        for i in pos:
            mu0[i] = Fraction(1, len(pos)) / to_fraction(x[i])
        return round_to_grid(mu0, grid), lambda mu: round_to_grid(mu, grid)

    items, report = _column_generation(
        M, P, eps, rng, mode, alpha_target, iteration_cap, estimation_override,
        kind="weight_mixture", stages=7, c=c,
        select=lambda wv, a, r: secretary_wrap_bits(secretary_kind, wv, M, a, r),
        start=start,
        key_json=lambda wv: [str(v) for v in wv],
        no_exact_columns=(
            f"secretary {secretary_kind!r} is randomized; exact columns unavailable"
            if SECRETARY_KINDS[secretary_kind].arrival_model == "random"
            else None
        ),
    )
    return WeightMixture(secretary_kind, items), report
