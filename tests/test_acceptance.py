"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete (they also appear in captured output on failure).
Monte-Carlo criteria use fixed seeds; everything labelled exact is computed
in rational arithmetic with tolerance 0.
"""

import math
from fractions import Fraction
from itertools import permutations
from random import Random

from ocrs import (
    ExplicitMatroid,
    GraphicMatroid,
    IndependentSubsampling,
    Permutation,
    PrefixSubsampling,
    PreselectConfig,
    SubsetMask,
    UniformMatroid,
    build_lp_scheme,
    build_secretary_reduction,
    estimate_balancedness,
    exact_balancedness,
    gen_kuniform_allactive,
    gen_parallel_hats,
    max_uncontentious_alpha,
    measure_competitiveness,
    preselect_independent,
    preselect_prefix,
    two_element_instance,
    verify_axioms,
)
from ocrs.bitset import mask_of
from ocrs.cli import cli_run
from ocrs.harness import hoeffding_halfwidth
from ocrs.schemes import greedy_ordered_bits

from conftest import explicit_battery, sentinel_prefix_law
from oracle_reference import bruteforce_weighted_rank


def announce(label: str, checks: list):
    """checks: list of (ok, detail). Prints one PASS/FAIL line and asserts."""
    bad = [detail for ok, detail in checks if not ok]
    print(f"{'PASS' if not bad else 'FAIL'} {label}" + (f" -- {bad[0]}" if bad else ""))
    assert not bad, f"{label}: {bad}"


def battery_with_alpha():
    out = []
    for inst in explicit_battery():
        cert = max_uncontentious_alpha(inst.matroid, inst.prior)
        out.append((inst, cert.alpha_star))
    return out


def random_matroid_n10(rng):
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(1, 10)
        return UniformMatroid(n, rng.randint(0, n))
    if kind == 1:
        v = rng.randint(2, 6)
        edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 10))]
        return GraphicMatroid(v, edges)
    n = rng.randint(1, 7)
    base = UniformMatroid(n, rng.randint(0, n))
    members = [b for b in range(1 << n) if base._independent(b)]
    return ExplicitMatroid(n, [[e for e in range(n) if (b >> e) & 1] for b in members])


def test_c01_matroid_axioms():
    checks = []
    for n in range(1, 9):
        for k in range(n + 1):
            checks.append((verify_axioms(UniformMatroid(n, k)), f"uniform({n},{k})"))
    rng = Random(101)
    for i in range(20):
        v = rng.randint(2, 5)
        edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 7))]
        checks.append((verify_axioms(GraphicMatroid(v, edges)), f"graphic #{i}"))
    for inst in explicit_battery():
        if inst.matroid.n <= 8:
            checks.append((verify_axioms(inst.matroid), f"battery {inst.name}"))
    corrupted = ExplicitMatroid(3, [[], [0], [1], [0, 1], [2]])
    checks.append((not verify_axioms(corrupted), "corrupted family accepted"))
    announce("Criterion 1: matroid axiom verification (exhaustive, exact)", checks)


def test_c02_weighted_rank_equals_brute_force():
    rng = Random(202)
    checks = []
    worst = 0.0
    for _ in range(10000):
        m = random_matroid_n10(rng)
        w = [rng.random() * rng.randint(0, 3) for _ in range(m.n)]
        s = SubsetMask(m.n, rng.randrange(1 << m.n))
        gap = abs(m.weighted_rank(w, s) - bruteforce_weighted_rank(m, w, s))
        worst = max(worst, gap)
    checks.append((worst <= 1e-12, f"max greedy/brute-force gap {worst}"))
    announce("Criterion 2: greedy weighted rank == brute force on 10^4 cases", checks)


def test_c03_prefix_subsampling_laws_exact():
    checks = []
    for n in range(1, 7):
        law = sentinel_prefix_law(n)
        sizes = {}
        for t, p in law.items():
            s = bin(t).count("1")
            sizes[s] = sizes.get(s, Fraction(0)) + p
        checks.append(
            (sizes == {s: Fraction(1, n + 1) for s in range(n + 1)}, f"|T| law n={n}")
        )
        pi = Permutation(Random(n).sample(range(n), n))
        for i in range(1, n + 1):
            head = mask_of(pi.order[: i - 1])
            e = pi.order[i - 1]
            for s_bits in range(1 << n):
                if s_bits & ~head:
                    continue
                tot = with_e = Fraction(0)
                for t, p in law.items():
                    if t & head == s_bits:
                        tot += p
                        if (t >> e) & 1:
                            with_e += p
                want = Fraction(bin(s_bits).count("1") + 1, i + 1)
                checks.append((tot > 0 and with_e / tot == want, f"insertion law n={n} i={i}"))
    announce("Criterion 3: prefix-subsample insertion law (|S|+1)/(i+1), exact", checks)


def test_c04_weighted_prefix_sum_bound():
    rng = Random(404)
    checks = []
    worst = 1.0
    for _ in range(10000):
        i = rng.randint(1, 20)
        xs = [rng.random() for _ in range(i)]
        alpha = (sum(xs) / i) * (rng.random() if rng.random() < 0.9 else 1.0)
        lhs = sum((k + 1) * xs[k] for k in range(i)) / (i * (i + 1))
        margin = lhs - alpha * alpha / 2
        worst = min(worst, margin)
    checks.append((worst >= -1e-12, f"worst margin {worst}"))
    announce("Criterion 4: prefix-weighted averages dominate alpha^2/2 on 10^4 cases", checks)


def test_c05_exact_preselection_never_fails_at_alpha_star():
    checks = []
    for inst, alpha_star in battery_with_alpha():
        cfg = PreselectConfig(alpha=alpha_star, mode="exact")
        try:
            preselect_independent(inst.matroid, inst.prior, cfg, Random(5))
            ok_i = True
        except Exception as err:  # noqa: BLE001 - report any failure
            ok_i = False
            checks.append((False, f"{inst.name} independent: {err}"))
        if ok_i:
            checks.append((True, ""))
        try:
            preselect_prefix(inst.matroid, inst.prior, cfg, Random(5))
            checks.append((True, ""))
        except Exception as err:  # noqa: BLE001
            checks.append((False, f"{inst.name} prefix: {err}"))
    announce("Criterion 5: exact preselection succeeds at alpha* on the battery", checks)


def test_c06_prefix_scheme_tight_instance():
    checks = []
    inst = gen_kuniform_allactive(4, 2)
    scheme = PrefixSubsampling(Permutation.identity(4))
    bal = exact_balancedness(inst.matroid, scheme, inst.prior)
    checks.append((bal[3] == Fraction(3, 20), f"exact last-element balance {bal[3]}"))

    # independent cross-check: literally enumerate the 120 sentinel orders
    count = 0
    for perm in permutations(range(5)):
        t = 0
        for s in perm:
            if s == 4:
                break
            t |= 1 << s
        sel = greedy_ordered_bits(inst.matroid, range(4), t)
        count += (sel >> 3) & 1
    checks.append((Fraction(count, 120) == Fraction(3, 20), f"sentinel enumeration {count}/120"))

    checks.append((Fraction(3, 20) >= Fraction(1, 8), "tight value below alpha^2/2"))

    rep = estimate_balancedness(
        inst.matroid, scheme, inst.prior, trials=10**6, rng=Random(606), ci_level=0.99
    )
    e3 = rep.elements[3]
    checks.append(
        (e3.ci_lo <= 0.15 <= e3.ci_hi, f"MC estimate {e3.estimate} CI [{e3.ci_lo},{e3.ci_hi}]")
    )

    # Past 13 elements, exactly: the span scan holds k + 1 uniform states.
    last = {}
    for n, k in ((20, 10), (30, 15)):
        tight = gen_kuniform_allactive(n, k)
        bal = exact_balancedness(tight.matroid, PrefixSubsampling(tight.canonical_order), tight.prior)
        last[n] = bal[-1]
        checks.append(
            (bal[-1] == min(bal) == Fraction(k * (k + 1), 2 * n * (n + 1)),
             f"kuniform:{n},{k} exact last-element balance {bal[-1]}, minimum {min(bal)}")
        )
    checks.append((last[30] == Fraction(4, 31), f"n=30 value {last[30]}"))
    big = last[20]
    checks.append((big == Fraction(11, 84) and big >= Fraction(1, 8), f"n=20 value {big}"))
    checks.append((big - Fraction(1, 8) < Fraction(3, 20) - Fraction(1, 8), "no shrink toward limit"))
    announce("Criterion 6: prefix-scheme tight instance (exact 3/20, 11/84, 4/31; MC; limit trend)", checks)


def test_c07_independent_scheme_tight_instance():
    checks = []
    inst = gen_parallel_hats(Fraction(1, 2))
    scheme = IndependentSubsampling(inst.canonical_order, Fraction(1, 4))
    rep = estimate_balancedness(
        inst.matroid, scheme, inst.prior, trials=10**6, rng=Random(707), ci_level=0.99
    )
    base_edge = rep.elements[34]
    target = 0.25 * (15 / 16) ** 17
    checks.append(
        (
            base_edge.ci_lo <= target <= base_edge.ci_hi,
            f"base-edge estimate {base_edge.estimate} vs {target:.6f}",
        )
    )
    checks.append((base_edge.estimate >= 0.5**2 / 4, f"floor: {base_edge.estimate} < 0.0625"))
    checks.append((rep.min_estimate() >= 0.5**2 / 4 - 0.002, "some element under the floor"))
    # Exact where the span scan fits its budget: the base edge with m hats
    # is (1/4)(15/16)^m. The full 37 edges stay Monte-Carlo.
    for m in (6, 7):
        hats = gen_parallel_hats(Fraction(1, 2), m_override=m)
        bal = exact_balancedness(
            hats.matroid, IndependentSubsampling(hats.canonical_order, Fraction(1, 4)), hats.prior
        )
        checks.append(
            (bal[2 * m] == Fraction(1, 4) * Fraction(15, 16) ** m, f"m={m} exact base edge {bal[2 * m]}")
        )
    announce("Criterion 7: independent-scheme tight instance (base edge ~ 0.0835)", checks)


def test_c08_universality_floors_on_battery():
    eps = 0.25
    trials = 10**5
    checks = []
    for inst, alpha_star in battery_with_alpha():
        cfg = PreselectConfig(alpha=alpha_star, mode="exact")
        a = float(alpha_star)
        order_i = preselect_independent(inst.matroid, inst.prior, cfg, Random(81))
        indep = IndependentSubsampling(order_i, alpha_star / 2)
        rep = estimate_balancedness(inst.matroid, indep, inst.prior, trials, Random(82))
        floor = (1 - eps) * a * a / 4
        for e in rep.elements:
            if e.estimate is None:
                continue
            hw = hoeffding_halfwidth(0.99, e.active_count)
            checks.append(
                (
                    e.estimate >= floor - hw,
                    f"{inst.name} indep elem {e.element}: {e.estimate:.4f} < {floor:.4f}-{hw:.4f}",
                )
            )
        order_p = preselect_prefix(inst.matroid, inst.prior, cfg, Random(83))
        pref = PrefixSubsampling(order_p)
        rep = estimate_balancedness(inst.matroid, pref, inst.prior, trials, Random(84))
        floor = a * a / 2
        for e in rep.elements:
            if e.estimate is None:
                continue
            hw = hoeffding_halfwidth(0.99, e.active_count)
            checks.append(
                (
                    e.estimate >= floor - hw,
                    f"{inst.name} prefix elem {e.element}: {e.estimate:.4f} < {floor:.4f}-{hw:.4f}",
                )
            )
        # deterministic confirmation at desk scale: exact balancedness
        exact_i = exact_balancedness(inst.matroid, indep, inst.prior)
        exact_p = exact_balancedness(inst.matroid, pref, inst.prior)
        a2 = alpha_star * alpha_star
        for v in exact_i:
            if v is not None:
                checks.append((v >= a2 / 4, f"{inst.name} exact indep balance {v} < {a2 / 4}"))
        for v in exact_p:
            if v is not None:
                checks.append((v >= a2 / 2, f"{inst.name} exact prefix balance {v} < {a2 / 2}"))
    announce("Criterion 8: per-element floors alpha*^2/4 and alpha*^2/2 on the battery", checks)


def test_c09_lp_mixture_reaches_alpha_star():
    eps = Fraction(1, 10)
    checks = []
    for inst in (gen_kuniform_allactive(4, 2), two_element_instance()):
        alpha_star = max_uncontentious_alpha(inst.matroid, inst.prior).alpha_star
        mix, report = build_lp_scheme(
            inst.matroid, inst.prior, eps=float(eps), rng=Random(909), mode="exact"
        )
        beta = report.beta_trajectory[-1]
        checks.append((report.converged, f"{inst.name}: no convergence certificate"))
        checks.append((beta >= (1 - eps) * alpha_star, f"{inst.name}: beta {beta}"))
        checks.append((report.gamma >= (1 - eps) * alpha_star, f"{inst.name}: gamma {report.gamma}"))
        bal = exact_balancedness(inst.matroid, mix, inst.prior)
        low = min(v for v in bal if v is not None)
        checks.append((low >= beta, f"{inst.name}: mixture balance {low} below beta {beta}"))
    announce("Criterion 9: LP mixture attains (1-eps) alpha* with dual certificate", checks)


def test_c10_secretary_reduction_matches_lp_path():
    eps = Fraction(1, 10)
    trials = 10**5
    checks = []
    for inst in (gen_kuniform_allactive(4, 2), two_element_instance()):
        alpha_star = max_uncontentious_alpha(inst.matroid, inst.prior).alpha_star
        _, lp_report = build_lp_scheme(
            inst.matroid, inst.prior, eps=float(eps), rng=Random(909), mode="exact"
        )
        mix, report = build_secretary_reduction(
            inst.matroid, inst.prior, "greedy_by_weight", c=1.0,
            eps=float(eps), rng=Random(910), mode="exact",
        )
        beta = report.beta_trajectory[-1]
        checks.append((beta >= (1 - eps) * alpha_star, f"{inst.name}: beta {beta}"))
        checks.append(
            (abs(beta - lp_report.beta_trajectory[-1]) <= 2 * eps, f"{inst.name}: paths disagree")
        )
        rep = estimate_balancedness(inst.matroid, mix, inst.prior, trials, Random(911))
        floor = float((1 - eps) * alpha_star)
        for e in rep.elements:
            if e.estimate is None:
                continue
            hw = hoeffding_halfwidth(0.99, e.active_count)
            checks.append(
                (e.estimate >= floor - hw, f"{inst.name} elem {e.element}: {e.estimate:.4f}")
            )
    announce("Criterion 10: secretary reduction (c=1) matches the LP path", checks)


def test_c11_secretary_reduction_with_observe_then_accept():
    checks = []
    inst = gen_kuniform_allactive(5, 1)
    weights = (0.9, 0.4, 1.3, 0.7, 1.1)
    c_meas = measure_competitiveness(
        inst.matroid, "classic_1uniform", weights, 10**5, Random(111)
    )
    checks.append((c_meas >= 1 / math.e - 0.03, f"competitiveness {c_meas:.4f}"))
    eps = 0.25
    mix, report = build_secretary_reduction(
        inst.matroid, inst.prior, "classic_1uniform", c=c_meas, eps=eps,
        rng=Random(112), mode="mc", alpha_target=0.2,
    )
    rep = estimate_balancedness(inst.matroid, mix, inst.prior, 10**5, Random(113))
    floor = (1 - eps) * c_meas * 0.2
    for e in rep.elements:
        hw = hoeffding_halfwidth(0.99, e.active_count)
        checks.append(
            (e.estimate >= floor - hw, f"elem {e.element}: {e.estimate:.4f} < {floor:.4f}")
        )
    announce("Criterion 11: reduction from the observe-then-accept secretary", checks)


def test_c12_monotone_under_restriction_and_marginal():
    checks = []
    instances = [
        two_element_instance(),
        gen_kuniform_allactive(4, 2),
        gen_kuniform_allactive(6, 3),
        explicit_battery()[3],  # hidden-element prior, n=3
        gen_parallel_hats(Fraction(1, 2), m_override=1),
    ]
    for inst in instances:
        n = inst.matroid.n
        base = max_uncontentious_alpha(inst.matroid, inst.prior).alpha_star
        for bits in range(1 << n):
            s = SubsetMask(n, bits)
            sub = max_uncontentious_alpha(
                inst.matroid.restrict(s), inst.prior.marginal(s)
            ).alpha_star
            checks.append(
                (sub >= base, f"{inst.name} S={bits:#x}: {sub} < {base}")
            )
    announce("Criterion 12: alpha* never drops under restriction + marginal (exact)", checks)


def test_c13_expected_rank_dominates_expected_weight():
    rng = Random(131)
    checks = []
    for inst, alpha_star in battery_with_alpha():
        n = inst.matroid.n
        support = inst.prior.support()
        for _ in range(100):
            w = [Fraction(rng.randint(0, 40), 8) for _ in range(n)]
            lhs = rhs = Fraction(0)
            for atom, p in support:
                lhs += p * inst.matroid.weighted_rank(w, SubsetMask(n, atom))
                rhs += p * sum(w[e] for e in SubsetMask(n, atom))
            checks.append((lhs >= alpha_star * rhs, f"{inst.name}: {lhs} < {alpha_star * rhs}"))
    announce("Criterion 13: E[max independent weight] >= alpha* E[active weight], exact", checks)


def test_c14_reproducibility(tmp_path):
    args = [
        "evaluate", "--instance", "kuniform:4,2", "--scheme", "prefix",
        "--mode", "exact", "--trials", "20000", "--seed", "7",
    ]
    rc1 = cli_run(args + ["--out", str(tmp_path / "r1")])
    rc2 = cli_run(args + ["--out", str(tmp_path / "r2")])
    same_csv = (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    same_json = (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    announce(
        "Criterion 14: identical seeds give byte-identical reports",
        [(rc1 == 0 and rc2 == 0, "nonzero exit"), (same_csv, "CSV differs"), (same_json, "JSON differs")],
    )
