"""The benchmark's workloads: the jobs each one repeats and their output checks.

A workload is a fixed list of jobs repeated in passes; one job call is one
op. Jobs are grouped into kinds ``a``, ``b`` and ``c`` so each kind gets its
own end-to-end time (see README.md for the map). All alphas and eps are
``Fraction``s. The library only ever sees the instances below and the
seeded ``Random`` it is handed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

from ocrs import harness, lp, oracle, preselect
from ocrs.sampling import Permutation
from ocrs.schemes import IndependentSubsampling, PrefixSubsampling

MC_BATCH_TRIALS = 1000  # trials per mc-evaluate op
PRESELECT_SAMPLES = 4000  # samples per preselection step in mc-preselect
PRESELECT_EPS = Fraction(1, 4)
BUILD_EPS = Fraction(1, 10)
# The Hoeffding check on mc-evaluate must not trip by chance, even when a
# change to the library alters the random stream.
HOEFFDING_MISS = 1e-9


@dataclass
class Job:
    kind: str  # "a", "b" or "c"
    label: str
    call: Callable[[Random], object]
    # check(result) -> "" when the output is right, else what is wrong
    check: Callable[[object], str]
    units: int = 0  # trials or sample-steps per op, for the rate metrics


@dataclass
class Workload:
    jobs: list
    warmup: list
    # kind -> (metric name in the printed table, True when it is a rate)
    kind_names: dict
    # Called after the timed loop with nothing; returns {job label: detail}
    # for checks that need every op of a job (merged Monte-Carlo counts).
    final_check: Optional[Callable[[], dict]] = None


def _min_balance(values) -> Fraction:
    return min(v for v in values if v is not None)


# -- mc-evaluate ---------------------------------------------------------------


class _MergedCounts:
    """Active and selected counts of one element, merged over a run's ops."""

    def __init__(self, element: int, target: Fraction):
        self.element = element
        self.target = target
        self.active = 0
        self.selected = 0

    def add(self, report) -> str:
        """Merge one op's counts; the verdict waits for the whole run."""
        row = report.elements[self.element]
        self.active += row.active_count
        self.selected += row.selected_count
        return ""

    def verdict(self) -> str:
        if self.active == 0:
            return f"element {self.element} never active"
        half = math.sqrt(math.log(2 / HOEFFDING_MISS) / (2 * self.active))
        est = self.selected / self.active
        if abs(est - float(self.target)) > half:
            return (
                f"element {self.element}: {self.selected}/{self.active} = {est:.6f} "
                f"misses {float(self.target):.6f} by more than {half:.6f}"
            )
        return ""


def mc_evaluate() -> Workload:
    hats = harness.parse_instance("parallel-hats:1/2")
    kuni = harness.parse_instance("kuniform:30,15")
    indep = IndependentSubsampling(hats.canonical_order, Fraction(1, 4))
    prefix = PrefixSubsampling(kuni.canonical_order)
    # Exact tight values: the hats base edge (element 34) and the last
    # element of the k-uniform instance, k(k+1) / (2n(n+1)).
    merged = {
        "indep": _MergedCounts(34, Fraction(1, 4) * Fraction(15, 16) ** 17),
        "prefix": _MergedCounts(29, Fraction(15 * 16, 2 * 30 * 31)),
    }

    def batch(inst, scheme):
        return lambda rng: harness.estimate_balancedness(
            inst.matroid, scheme, inst.prior, MC_BATCH_TRIALS, rng
        )

    jobs = [
        Job("a", "indep", batch(hats, indep), merged["indep"].add, MC_BATCH_TRIALS),
        Job("b", "prefix", batch(kuni, prefix), merged["prefix"].add, MC_BATCH_TRIALS),
    ]
    return Workload(
        jobs=jobs,
        warmup=jobs,
        kind_names={"a": ("trials_per_s.indep", True), "b": ("trials_per_s.prefix", True)},
        final_check=lambda: {label: m.verdict() for label, m in merged.items()},
    )


# -- mc-preselect ----------------------------------------------------------------


def _is_permutation(order, n: int) -> bool:
    return isinstance(order, Permutation) and sorted(order.order) == list(range(n))


def mc_preselect() -> Workload:
    jobs = []
    for spec in ("parallel-hats:1/2,m=3", "hidden:6,1/3,1/20,0"):
        inst = harness.parse_instance(spec)
        cfg = preselect.PreselectConfig(
            alpha=inst.declared_alpha, eps=PRESELECT_EPS, sample_override=PRESELECT_SAMPLES
        )
        for letter, scheme_kind in (("a", "independent"), ("b", "prefix")):
            jobs.append(
                Job(
                    letter,
                    f"preselect_{scheme_kind} {spec}",
                    _preselect_call(scheme_kind, inst, cfg),
                    _preselect_check(inst, scheme_kind),
                    PRESELECT_SAMPLES * inst.matroid.n,
                )
            )
    return Workload(
        jobs=jobs,
        warmup=jobs,
        kind_names={"a": ("samples_per_s.indep", True), "b": ("samples_per_s.prefix", True)},
    )


def _scheme(scheme_kind: str, order, alpha):
    """The subsampling scheme that a preselection of this kind orders."""
    if scheme_kind == "independent":
        return IndependentSubsampling(order, alpha / 2)
    return PrefixSubsampling(order)


def _floor(scheme_kind: str, alpha) -> Fraction:
    """The scheme's guaranteed balancedness at level alpha."""
    return alpha * alpha / 4 if scheme_kind == "independent" else alpha * alpha / 2


def _preselect_call(scheme_kind: str, inst, cfg):
    # Looked up at call time so a traced run sees its wrapper.
    return lambda rng: getattr(preselect, f"preselect_{scheme_kind}")(
        inst.matroid, inst.prior, cfg, rng
    )


def _preselect_check(inst, scheme_kind: str):
    n = inst.matroid.n
    alpha = inst.declared_alpha
    floor = (1 - PRESELECT_EPS) * _floor(scheme_kind, alpha)
    verdicts: dict = {}

    def check(order) -> str:
        if not _is_permutation(order, n):
            return f"not a permutation of 0..{n - 1}: {order!r}"
        if order.order not in verdicts:
            try:
                bal = oracle.exact_balancedness(
                    inst.matroid, _scheme(scheme_kind, order, alpha), inst.prior
                )
            except oracle.EnumerationTooLarge:
                verdicts[order.order] = ""
            else:
                low = _min_balance(bal)
                verdicts[order.order] = (
                    "" if low >= floor else f"order {list(order.order)}: balance {low} < {floor}"
                )
        return verdicts[order.order]

    return check


# -- exact -----------------------------------------------------------------------

# alpha* of the instances the oracle and build jobs run on, exact.
ALPHA_STAR = {
    "kuniform:10,5": Fraction(1, 2),
    "parallel-hats:1/2,m=3": Fraction(1, 2),
    "hidden:12,1/3,1/20,0": Fraction(13, 35),
    "hidden:9,1/3,1/20,0": Fraction(5, 13),
}


def exact() -> Workload:
    jobs = []
    for spec in ("kuniform:10,5", "parallel-hats:1/2,m=3", "hidden:12,1/3,1/20,0"):
        inst = harness.parse_instance(spec)
        want = ALPHA_STAR[spec]
        jobs.append(
            Job(
                "a",
                f"oracle {spec}",
                lambda rng, inst=inst: oracle.max_uncontentious_alpha(inst.matroid, inst.prior),
                lambda cert, want=want: ""
                if cert.alpha_star == want
                else f"alpha* {cert.alpha_star} != {want}",
            )
        )
    for spec in ("kuniform:10,5", "hidden:9,1/3,1/20,0"):
        inst = harness.parse_instance(spec)
        need = (1 - BUILD_EPS) * ALPHA_STAR[spec]
        calls = {
            "build_lp_scheme": lambda rng, inst=inst: lp.build_lp_scheme(
                inst.matroid, inst.prior, eps=BUILD_EPS, rng=rng, mode="exact",
                alpha_target=inst.declared_alpha,
            ),
            "build_secretary_reduction": lambda rng, inst=inst: lp.build_secretary_reduction(
                inst.matroid, inst.prior, "greedy_by_weight", c=Fraction(1), eps=BUILD_EPS,
                rng=rng, mode="exact", alpha_target=inst.declared_alpha,
            ),
        }
        for name, call in calls.items():
            jobs.append(Job("b", f"{name} {spec}", call, _build_check(need)))
    for spec, scheme_kind, exact_min in (
        ("parallel-hats:1/2,m=5", "independent", None),
        ("kuniform:12,6", "independent", None),
        ("kuniform:8,4", "prefix", Fraction(5, 36)),
        ("hidden:8,1/3,1/20,0", "prefix", None),
    ):
        inst = harness.parse_instance(spec)
        jobs.append(
            Job(
                "c",
                f"exact preselect_{scheme_kind} {spec}",
                _exact_eval_call(inst, scheme_kind),
                _exact_eval_check(_floor(scheme_kind, inst.declared_alpha), exact_min),
            )
        )
    cheapest = {"a": "oracle hidden:12,1/3,1/20,0", "b": "build_lp_scheme hidden:9,1/3,1/20,0",
                "c": "exact preselect_prefix kuniform:8,4"}
    return Workload(
        jobs=jobs,
        warmup=[j for j in jobs if j.label in cheapest.values()],
        kind_names={"a": ("oracle_s", False), "b": ("build_s", False), "c": ("exact_eval_s", False)},
    )


def _build_check(need: Fraction):
    def check(result) -> str:
        _, report = result
        beta = report.beta_trajectory[-1]
        if not report.converged:
            return "no convergence certificate"
        return "" if beta >= need else f"beta {beta} < {need}"

    return check


def _exact_eval_call(inst, scheme_kind: str):
    cfg = preselect.PreselectConfig(alpha=inst.declared_alpha, eps=PRESELECT_EPS, mode="exact")
    preselect_call = _preselect_call(scheme_kind, inst, cfg)

    def call(rng):
        scheme = _scheme(scheme_kind, preselect_call(rng), inst.declared_alpha)
        return oracle.exact_balancedness(inst.matroid, scheme, inst.prior)

    return call


def _exact_eval_check(floor: Fraction, exact_min: Optional[Fraction]):
    def check(bal) -> str:
        low = _min_balance(bal)
        if exact_min is not None and low != exact_min:
            return f"minimum balance {low} != {exact_min}"
        return "" if low >= floor else f"minimum balance {low} < floor {floor}"

    return check


def build(name: str) -> Workload:
    return {"mc-evaluate": mc_evaluate, "mc-preselect": mc_preselect, "exact": exact}[name]()
