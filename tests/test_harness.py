import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from ocrs import (
    IndependentSubsampling,
    OrderedGreedy,
    Permutation,
    PermutationMixture,
    PrefixSubsampling,
    PreselectConfig,
    ProductPrior,
    SubsetMask,
    UniformMatroid,
    WeightMixture,
    build_lp_scheme,
    build_secretary_reduction,
    estimate_balancedness,
    gen_kuniform_allactive,
    gen_parallel_hats,
    max_uncontentious_alpha,
    parse_instance,
    preselect_independent,
    preselect_prefix,
    two_element_instance,
)
from ocrs import preselect
from ocrs.cli import cli_run
from ocrs.harness import hats_count, hoeffding_halfwidth
from ocrs.priors import AllActivePrior, ExplicitPrior


class TestGenerators:
    def test_kuniform_fields(self):
        inst = gen_kuniform_allactive(4, 2)
        assert inst.declared_alpha == Fraction(1, 2)
        assert inst.matroid.k == 2
        assert inst.prior.n == 4
        assert inst.canonical_order == Permutation.identity(4)

    def test_kuniform_range_checked(self):
        with pytest.raises(ValueError):
            gen_kuniform_allactive(4, 4)
        with pytest.raises(ValueError):
            gen_kuniform_allactive(4, 0)

    def test_one_uniform_two_elements(self):
        assert gen_kuniform_allactive(2, 1).declared_alpha == Fraction(1, 2)

    def test_ten_elements_declared_tenth(self):
        assert gen_kuniform_allactive(10, 1).declared_alpha == Fraction(1, 10)

    def test_hats_count_at_half(self):
        m = hats_count(Fraction(1, 2))
        assert m == 17
        # m is the last value satisfying the defining inequality
        a = Fraction(1, 2)
        assert (1 - a / 2) * (1 - a * a / 4) ** m >= a / 2
        assert (1 - a / 2) * (1 - a * a / 4) ** (m + 1) < a / 2

    def test_parallel_hats_shape_at_half(self):
        inst = gen_parallel_hats(Fraction(1, 2))
        assert inst.matroid.n == 2 + 2 * 17 + 1 == 37
        assert inst.declared_alpha == Fraction(1, 2)
        assert inst.canonical_order == Permutation.identity(37)
        # the parallel bundle: any two copies close a cycle
        m = inst.matroid
        assert not m.is_independent(SubsetMask.from_elements(37, [35, 36]))
        assert m.is_independent(SubsetMask.from_elements(37, [35]))
        # a hat: its two edges plus the base edge close a cycle
        assert not m.is_independent(SubsetMask.from_elements(37, [0, 17, 34]))
        assert m.is_independent(SubsetMask.from_elements(37, [0, 17]))

    def test_parallel_hats_requires_integer_bundle(self):
        with pytest.raises(ValueError):
            gen_parallel_hats(Fraction(2, 5))
        with pytest.raises(ValueError):
            gen_parallel_hats(Fraction(3, 4))

    def test_truncated_variant_stays_uncontentious(self):
        inst = gen_parallel_hats(Fraction(1, 2), m_override=2)
        assert inst.matroid.n == 7
        cert = max_uncontentious_alpha(inst.matroid, inst.prior)
        assert cert.alpha_star >= Fraction(1, 2)


class TestParseInstance:
    def test_shorthands(self):
        assert parse_instance("kuniform:4,2").name == "kuniform:4,2"
        assert parse_instance("twoelem").declared_alpha == Fraction(1, 2)
        assert parse_instance("parallel-hats:1/2").matroid.n == 37
        assert parse_instance("parallel_hats:1/2,m=2").matroid.n == 7
        assert parse_instance("hidden:3,1/2,1/5,0").prior.p_min() == Fraction(1, 5)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_instance("transversal:3")

    @pytest.mark.parametrize("spec", ["parallel-hats:1/2,n=3", "parallel-hats:1/2,3"])
    def test_unknown_parallel_hats_option_rejected(self, spec):
        with pytest.raises(ValueError, match="parallel-hats option"):
            parse_instance(spec)

    def test_json_file_round_trip(self, tmp_path):
        inst = two_element_instance()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_spec()))
        again = parse_instance(str(path))
        assert again.name == inst.name
        assert again.declared_alpha == inst.declared_alpha
        assert sorted(again.prior.support()) == sorted(inst.prior.support())
        assert again.canonical_order == inst.canonical_order


class TestEstimateBalancedness:
    def test_always_selected_singleton(self, rng):
        m = UniformMatroid(1, 1)
        rep = estimate_balancedness(
            m, OrderedGreedy(Permutation.identity(1)), AllActivePrior(1), 500, rng
        )
        e = rep.elements[0]
        assert e.estimate == 1.0 and e.active_count == 500 and e.ci_hi == 1.0

    def test_never_active_is_no_data(self, rng):
        m = UniformMatroid(2, 1)
        p = ExplicitPrior(2, [(0b01, 1)])
        rep = estimate_balancedness(m, OrderedGreedy(Permutation.identity(2)), p, 100, rng)
        assert rep.elements[1].estimate is None
        assert rep.elements[1].active_count == 0
        assert rep.csv_lines()[2] == "1,0,0,,,"

    def test_halfwidth_formula(self):
        assert hoeffding_halfwidth(0.99, 400) == math.sqrt(math.log(2 / 0.01) / 800)

    def test_counts_are_consistent(self, rng):
        inst = gen_kuniform_allactive(4, 2)
        rep = estimate_balancedness(
            inst.matroid, PrefixSubsampling(Permutation.identity(4)), inst.prior, 2000, rng
        )
        for e in rep.elements:
            assert e.active_count == 2000
            assert 0 <= e.selected_count <= e.active_count
            assert e.ci_lo <= e.estimate <= e.ci_hi
        assert rep.min_estimate() == min(e.estimate for e in rep.elements)

    def test_reproducible_with_same_seed(self):
        inst = gen_kuniform_allactive(4, 2)
        scheme = PrefixSubsampling(Permutation.identity(4))
        a = estimate_balancedness(inst.matroid, scheme, inst.prior, 3000, Random(99))
        b = estimate_balancedness(inst.matroid, scheme, inst.prior, 3000, Random(99))
        assert a.csv_lines() == b.csv_lines()

    def test_trials_required(self, rng):
        inst = gen_kuniform_allactive(4, 2)
        with pytest.raises(ValueError):
            estimate_balancedness(
                inst.matroid, PrefixSubsampling(Permutation.identity(4)), inst.prior, 0, rng
            )

    @pytest.mark.parametrize("level", [0, 1, 1.5, -0.5, float("nan")])
    def test_ci_level_must_lie_in_the_open_unit_interval(self, rng, level):
        inst = gen_kuniform_allactive(4, 2)
        with pytest.raises(ValueError, match="ci_level"):
            estimate_balancedness(
                inst.matroid, PrefixSubsampling(Permutation.identity(4)), inst.prior, 10, rng,
                ci_level=level,
            )

    def test_estimates_agree_with_exact_values_across_seeds(self):
        # nearly every element row of every seeded report should cover the
        # exact conditional probability with its interval
        from ocrs import exact_balancedness

        rows = covered = 0
        for inst in (gen_kuniform_allactive(4, 2), two_element_instance()):
            scheme = PrefixSubsampling(Permutation.identity(inst.matroid.n))
            exact = exact_balancedness(inst.matroid, scheme, inst.prior)
            for seed in range(1, 6):
                rep = estimate_balancedness(
                    inst.matroid, scheme, inst.prior, 20000, Random(seed)
                )
                for e in rep.elements:
                    rows += 1
                    covered += e.ci_lo <= float(exact[e.element]) <= e.ci_hi
        assert covered / rows >= 0.99


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            # ~1 MB of JSON: the write is still pending when the reader leaves
            ["gen-instance", "--instance", "kuniform:100000,1"],
            ["evaluate", "--instance", "kuniform:4,2", "--scheme", "prefix", "--trials", "100"],
        ],
    )
    def test_reader_closing_early_is_no_error(self, argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ocrs.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 2
        assert stderr == ""
        if argv[0] == "gen-instance":
            assert proc.returncode == 141

    def test_gen_instance_writes_spec(self, tmp_path):
        out = str(tmp_path / "inst")
        assert cli_run(["gen-instance", "--instance", "kuniform:4,2", "--out", out]) == 0
        spec = json.loads((tmp_path / "inst.json").read_text())
        assert spec["matroid"] == {"type": "uniform", "n": 4, "k": 2}
        assert spec["prior"] == {"type": "all_active", "n": 4}

    def test_oracle_alpha(self, tmp_path, capsys):
        assert cli_run(["oracle-alpha", "--instance", "kuniform:4,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha_star"] == "1/2"

    def test_oracle_alpha_parallel_hats(self, capsys):
        assert cli_run(["oracle-alpha", "--instance", "parallel-hats:1/2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha_star"] == "1/2"

    def test_run_single_draw(self, tmp_path):
        out = str(tmp_path / "draw")
        rc = cli_run(
            ["run", "--instance", "kuniform:4,2", "--scheme", "prefix", "--mode", "exact",
             "--seed", "3", "--out", out]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "draw.json").read_text())
        assert set(payload["selected"]) <= set(payload["active"])
        assert len(payload["selected"]) <= 2

    def test_evaluate_reproducible_byte_identical(self, tmp_path):
        args = [
            "evaluate", "--instance", "kuniform:4,2", "--scheme", "prefix",
            "--mode", "exact", "--trials", "4000", "--seed", "7",
        ]
        rc1 = cli_run(args + ["--out", str(tmp_path / "a")])
        rc2 = cli_run(args + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "element,active_count,selected_count,estimate,ci_lo,ci_hi"

    def test_evaluate_with_scheme_file(self, tmp_path):
        out = str(tmp_path / "lp")
        assert cli_run(
            ["lp-build", "--instance", "twoelem", "--eps", "0.1", "--mode", "exact", "--out", out]
        ) == 0
        build = json.loads((tmp_path / "lp.json").read_text())
        assert build["report"]["beta_trajectory"][-1] >= 0.45
        scheme_path = tmp_path / "lp.scheme.json"
        assert scheme_path.exists()
        rc = cli_run(
            ["evaluate", "--instance", "twoelem", "--scheme", str(scheme_path),
             "--trials", "2000", "--seed", "5", "--out", str(tmp_path / "ev")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "ev.json").read_text())
        assert report["min_estimate"] > 0.4

    def test_preselect_failure_exit_code(self, tmp_path):
        rc = cli_run(
            ["preselect", "--instance", "twoelem", "--alpha", "0.99", "--mode", "exact",
             "--out", str(tmp_path / "p")]
        )
        assert rc == 1
        payload = json.loads((tmp_path / "p.json").read_text())
        assert payload["failed_at_step"] == 2

    def test_preselect_success(self, tmp_path, capsys):
        rc = cli_run(["preselect", "--instance", "twoelem", "--mode", "exact", "--kind", "prefix"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["order"]) == [0, 1]

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "5/7"]])
    def test_preselect_exact_at_tight_alpha(self, capsys, alpha):
        # alpha* = 5/7 is met with equality at the last step; its float,
        # 0.7142857142857143, lies above 5/7 and used to fail there.
        rc = cli_run(
            ["preselect", "--instance", "kuniform:7,5", "--kind", "prefix", "--mode", "exact"]
            + alpha
        )
        assert rc == 0
        assert sorted(json.loads(capsys.readouterr().out)["order"]) == list(range(7))

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-instance", "--instance", "twoelem", "--seed", "3"],
            ["gen-instance", "--instance", "twoelem", "--eps", "9"],
        ],
    )
    def test_gen_instance_takes_only_instance_and_out(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-alpha", "--instance", "twoelem", "--mode", "mc"],
            ["oracle-alpha", "--instance", "twoelem", "--samples", "5"],
        ],
    )
    def test_oracle_alpha_takes_only_instance_and_out(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_run(argv)
        assert exc.value.code == 2

    def test_bad_counts_and_levels_exit_2(self, capsys):
        assert cli_run(["preselect", "--instance", "kuniform:4,2", "--samples", "-5"]) == 2
        assert cli_run(["lp-build", "--instance", "twoelem", "--samples", "0"]) == 2
        for level in ("1", "1.5"):
            assert cli_run(["evaluate", "--instance", "kuniform:4,2", "--scheme", "greedy",
                            "--trials", "10", "--ci-level", level]) == 2
        assert "ci_level" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    @pytest.mark.parametrize(
        "flag",
        [["--mode", "exact"], ["--mode", "mc"], ["--samples", "5"], ["--eps", "0.9"],
         ["--eps", "1/4"], ["--alpha", "1/7"], ["--order", "canonical"], ["--order", "preselect"]],
    )
    def test_scheme_json_rejects_build_flags(self, tmp_path, capsys, command, flag):
        # A scheme JSON is already built, so a build flag would be ignored,
        # even one that repeats its default.
        path = tmp_path / "greedy.json"
        path.write_text(json.dumps(OrderedGreedy(Permutation([1, 0])).to_spec()))
        argv = [command, "--instance", "twoelem", "--scheme", str(path)] + flag
        assert cli_run(argv) == 2
        assert f"{flag[0]} does not apply to a scheme JSON" in capsys.readouterr().err

    def test_scheme_json_takes_seed_trials_and_ci_level(self, tmp_path, capsys):
        path = tmp_path / "greedy.json"
        path.write_text(json.dumps(OrderedGreedy(Permutation([1, 0])).to_spec()))
        argv = ["evaluate", "--instance", "twoelem", "--scheme", str(path),
                "--seed", "3", "--trials", "50", "--ci-level", "0.9"]
        assert cli_run(argv) == 0
        assert cli_run(["run", "--instance", "twoelem", "--scheme", str(path), "--seed", "3"]) == 0

    def test_config_error_exit_code(self, capsys):
        assert cli_run(["oracle-alpha", "--instance", "nonsense:1"]) == 2
        assert cli_run(["evaluate", "--instance", "kuniform:4,2", "--scheme", "wat"]) == 2

    def test_canonical_order_flag(self, tmp_path):
        rc = cli_run(
            ["run", "--instance", "parallel-hats:1/2,m=2", "--scheme", "indep",
             "--order", "canonical", "--seed", "1", "--out", str(tmp_path / "d")]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "d.json").read_text())
        assert payload["scheme"]["order"] == list(range(7))

    @pytest.mark.parametrize("reduction", ["permutation", "secretary"])
    def test_lp_build_samples_flag_sets_every_estimate(self, capsys, reduction):
        rc = cli_run(
            ["lp-build", "--instance", "kuniform:4,2", "--mode", "mc", "--samples", "500",
             "--seed", "3", "--reduction", reduction]
        )
        assert rc == 0
        samples = json.loads(capsys.readouterr().out)["report"]["estimation_samples"]
        assert "x" in samples and len(samples) > 1
        assert set(samples.values()) == {500}

    @pytest.mark.parametrize(
        "instance, kind, mode",
        [
            ("kuniform:8,4", "prefix", "exact"),
            ("kuniform:9,4", "prefix", "exact"),  # the prefix law is drawn on 8 of the 9
            ("kuniform:10,5", "prefix", "monte_carlo"),
            ("kuniform:13,6", "indep", "exact"),
            ("kuniform:14,7", "indep", "monte_carlo"),
            ("kuniform:30,15", "prefix", "monte_carlo"),
            ("kuniform:30,15", "indep", "monte_carlo"),
        ],
    )
    def test_auto_mode_is_exact_when_the_support_fits(self, monkeypatch, instance, kind, mode):
        # Every statistic is stubbed to qualify each candidate; the test reads
        # which family _preselect asks, exact or Monte-Carlo.
        seen = []

        def exact_stat(*args):
            seen.append("exact")
            return Fraction(1)

        def mc_stat(M, *args):
            seen.append("monte_carlo")
            return [1] * M.n, [1] * M.n

        for law in ("independent", "prefix"):
            monkeypatch.setattr(preselect, "exact_unspanned_prob_" + law, exact_stat)
            monkeypatch.setattr(preselect, "count_span_stats_" + law, mc_stat)
        for argv in (["preselect", "--kind", kind], ["run", "--scheme", kind]):
            seen.clear()
            assert cli_run(argv + ["--instance", instance, "--mode", "auto"]) == 0
            assert seen and set(seen) == {mode}


class _ExactBitsOnly(Random):
    """A Random that refuses every draw but fair bits and shuffles. It
    overrides getrandbits, as bench/tracer.py's CountingRandom does, so
    Random keeps drawing shuffle's indices from getrandbits, not random()."""

    def random(self):
        raise AssertionError("float draw: Random.random() was called")

    def getrandbits(self, k):
        return super().getrandbits(k)

    def randrange(self, *args, **kwargs):
        raise AssertionError("Random.randrange() was called")

    def sample(self, *args, **kwargs):
        raise AssertionError("Random.sample() was called")


class TestEveryDrawIsFairBits:
    def test_run_phase_of_every_scheme_on_every_prior(self):
        m = UniformMatroid(3, 1)
        third = Fraction(1, 3)
        schemes = [
            OrderedGreedy(Permutation([2, 0, 1])),
            IndependentSubsampling(Permutation([0, 1, 2]), third),
            PrefixSubsampling(Permutation([1, 2, 0])),
            PermutationMixture(
                [(Permutation([0, 1, 2]), third), (Permutation([2, 1, 0]), 2 * third)]
            ),
            WeightMixture("greedy_by_weight", [((1, 2, 3), third), ((3, 2, 1), 2 * third)]),
            WeightMixture("classic_1uniform", [((1, 2, 3), third), ((3, 2, 1), 2 * third)]),
        ]
        priors = [
            ExplicitPrior(3, [(0b011, third), (0b110, third), (0b111, third)]),
            ProductPrior([third, Fraction(1, 2), third]),
            AllActivePrior(3),
        ]
        for prior in priors:
            for scheme in schemes:
                report = estimate_balancedness(m, scheme, prior, 40, _ExactBitsOnly(1))
                assert sum(e.active_count for e in report.elements) > 0

    def test_monte_carlo_preselection_of_both_kinds(self):
        inst = parse_instance("hidden:4,1/3,1/20,0")
        cfg = PreselectConfig(alpha=Fraction(1, 6), mode="mc", sample_override=300)
        for preselect_kind in (preselect_independent, preselect_prefix):
            order = preselect_kind(inst.matroid, inst.prior, cfg, _ExactBitsOnly(2))
            assert sorted(order.order) == list(range(4))

    def test_monte_carlo_lp_builds(self):
        inst = parse_instance("hidden:4,1/3,1/20,0")
        common = dict(eps=Fraction(1, 4), rng=_ExactBitsOnly(3), mode="mc",
                      alpha_target=Fraction(1, 3), estimation_override=200)
        scheme, _ = build_lp_scheme(inst.matroid, inst.prior, **common)
        estimate_balancedness(inst.matroid, scheme, inst.prior, 40, _ExactBitsOnly(4))
        scheme, _ = build_secretary_reduction(
            inst.matroid, inst.prior, secretary_kind="classic_1uniform", c=Fraction(1, 4), **common
        )
        estimate_balancedness(inst.matroid, scheme, inst.prior, 40, _ExactBitsOnly(5))
