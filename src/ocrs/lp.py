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

from .bitset import iter_bits
from .matroid import Matroid
from .priors import Prior, to_fraction
from .sampling import Permutation
from .schemes import (
    DETERMINISTIC_SECRETARIES,
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
    runner: Callable[[int, Random], int],
    P: Prior,
    eta: float,
    delta: float,
    rng: Random,
    p_min=None,
    m_override: Optional[int] = None,
) -> tuple[list[float], list[float], int]:
    """Empirical activation and selection frequencies from m joint samples.

    Per element, each estimate misses its target by more than eta*x_i with
    probability at most delta. `m_override` trades the guarantee for speed.
    """
    if p_min is None:
        p_min = P.p_min(rng=rng)
    m = m_override or estimation_sample_size(eta, delta, p_min)
    n = P.n
    act = [0] * n
    sel = [0] * n
    for _ in range(m):
        a = P.sample_bits(rng)
        s = runner(a, rng)
        for e in iter_bits(a):
            act[e] += 1
        for e in iter_bits(s):
            sel[e] += 1
    return [a / m for a in act], [s / m for s in sel], m


def exact_selection_column(P: Prior, select: Callable[[int], int]) -> list[Fraction]:
    """Exact per-element selection probabilities of a deterministic selector
    over an explicit support."""
    support = P.support()
    if support is None:
        raise ValueError("exact columns need an explicit prior support")
    q = [Fraction(0)] * P.n
    for atom, p in support:
        chosen = select(atom)
        for e in iter_bits(chosen):
            q[e] += p
    return q


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


def _generic_loop(
    x,
    first_key,
    column_of: Callable[[object], LpColumn],
    separate: Callable[[Sequence], object],
    gap: float,
    cap: int,
    report: BuildReport,
):
    """Shared cutting-plane loop; returns (columns, final LpSolution)."""
    columns = [column_of(first_key)]
    seen = {columns[0].key}
    sol = solve_restricted(columns, x)
    report.beta_trajectory.append(sol.beta)
    for _ in range(cap):
        report.iterations += 1
        key = separate(sol.mu)
        if key in seen:
            report.converged = True
            break
        col = column_of(key)
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
    return columns, sol


def _mixture_items(columns, lam):
    items = [(col.key, l) for col, l in zip(columns, lam) if l > 0]
    total = sum(l for _, l in items)
    return [(k, to_fraction(l) / to_fraction(total)) for k, l in items]


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
    """Column generation over deterministic greedy orders.

    Column estimates use relative accuracy eta = eps * alpha_target; the
    per-column confidence delta carries an eps/6 share of the failure
    budget, union-bounded over the columns the loop can visit. With exact
    columns the estimation terms vanish.
    """
    n = M.n
    eps_prime = eps / 6
    exact = _want_exact(P, mode)
    cap = iteration_cap or 50 * n
    gap = 0 if exact else min(DEFAULT_GAP_FLOOR, eps * alpha_target / 10)
    report = BuildReport(
        kind="permutation_mixture",
        n=n,
        eps=eps,
        eps_split={"per_stage": float(eps_prime), "stages": 6},
        exact_columns=exact,
    )

    if exact:
        x = P.activation_probabilities()
    else:
        p_min = P.p_min(rng=rng)
        eta = eps * alpha_target
        delta = eps_prime / (n * (cap + 2))
        x, _, m0 = estimate_xq(
            lambda a, r: 0, P, eta, delta, rng, p_min=p_min, m_override=estimation_override
        )
        report.estimation_samples["x"] = m0

    def column_of(pi: Permutation) -> LpColumn:
        if exact:
            q = exact_selection_column(P, lambda atom: greedy_ordered_bits(M, pi.order, atom))
        else:
            _, q, m = estimate_xq(
                lambda a, r: greedy_ordered_bits(M, pi.order, a),
                P,
                eta,
                delta,
                rng,
                p_min=p_min,
                m_override=estimation_override,
            )
            report.estimation_samples[str(list(pi.order))] = m
        return LpColumn(key=pi, q=q)

    columns, sol = _generic_loop(
        x, order_by_weight(x), column_of, order_by_weight, gap, cap, report
    )
    mixture = PermutationMixture(_mixture_items(columns, sol.lam))
    report.columns = [list(pi.order) for pi, _ in mixture.components]
    return mixture, report


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
    replays the given secretary algorithm with masked weights. Separation
    floors the current dual onto the grid."""
    n = M.n
    eps_frac = to_fraction(eps) / 7  # exact grid step; float twin for sample sizes
    eps_prime = float(eps_frac)
    exact = _want_exact(P, mode) and secretary_kind in DETERMINISTIC_SECRETARIES
    if mode == "exact" and secretary_kind not in DETERMINISTIC_SECRETARIES:
        raise ValueError(f"secretary {secretary_kind!r} is randomized; exact columns unavailable")
    cap = iteration_cap or 50 * n
    gap = 0 if exact else min(DEFAULT_GAP_FLOOR, eps * c * alpha_target / 10)
    report = BuildReport(
        kind="weight_mixture",
        n=n,
        eps=eps,
        eps_split={"per_stage": eps_prime, "stages": 7},
        exact_columns=exact,
    )

    p_min = P.p_min(rng=rng)
    if exact:
        x = P.activation_probabilities()
    else:
        eta = eps * c * alpha_target
        delta = eps_prime / (n * (cap + 2))
        x, _, m0 = estimate_xq(
            lambda a, r: 0, P, eta, delta, rng, p_min=p_min, m_override=estimation_override
        )
        report.estimation_samples["x"] = m0

    # Grid built from the smallest activation probability actually seen, so
    # every dual mu (mu_i <= 1/x_i) stays on the grid even with noisy x.
    grid_pmin = min([to_fraction(p_min)] + [to_fraction(xi) for xi in x if xi > 0])
    grid = WeightGrid(n=n, eps=eps_frac, p_min=grid_pmin)

    def column_of(wv: tuple) -> LpColumn:
        if exact:
            q = exact_selection_column(
                P, lambda atom: secretary_wrap_bits(secretary_kind, wv, M, atom, rng)
            )
        else:
            _, q, m = estimate_xq(
                lambda a, r: secretary_wrap_bits(secretary_kind, wv, M, a, r),
                P,
                eta,
                delta,
                rng,
                p_min=p_min,
                m_override=estimation_override,
            )
            report.estimation_samples[str([str(v) for v in wv])] = m
        return LpColumn(key=wv, q=q)

    def separate(mu):
        return round_to_grid(mu, grid)

    pos = [i for i in range(n) if x[i] > 0]
    mu0 = [0] * n
    for i in pos:
        mu0[i] = Fraction(1, len(pos)) / to_fraction(x[i])
    columns, sol = _generic_loop(x, separate(mu0), column_of, separate, gap, cap, report)
    mixture = WeightMixture(secretary_kind, _mixture_items(columns, sol.lam))
    report.columns = [[str(v) for v in wv] for wv, _ in mixture.components]
    return mixture, report
