import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from ocrs import (
    DimensionMismatch,
    IndependentSubsampling,
    Instance,
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
    exact_balancedness,
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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("kuniform:3", "kuniform:N,K"),
            ("kuniform:4,2,9", "kuniform:N,K"),
            ("hidden:3,1/3,1/20", "hidden:N,ALPHA,DELTA,J"),
            ("hidden:3,1/3,1/20,0,1", "hidden:N,ALPHA,DELTA,J"),
            ("twoelem:5", "form twoelem"),
            ("parallel-hats:1/2,m=-1", "hat count m must be >= 0"),
            ("kuniform:a,2", "form kuniform:N,K"),
            ("kuniform:5,2.5", "form kuniform:N,K"),
            ("hidden:3,x,1/20,0", "form hidden:N,ALPHA,DELTA,J"),
            ("parallel-hats:1/2,m=x", "form parallel-hats:ALPHA[,m=M]"),
            ("parallel-hats", "form parallel-hats:ALPHA[,m=M]"),
        ],
    )
    def test_wrong_arguments_name_the_form(self, spec, message):
        # Each of these printed Python's unpacking or literal message, read
        # an argument that twoelem ignored, or built a graph of -1 hats whose
        # bundle shared a vertex with the base edge.
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_instance(spec)

    def test_zero_hats_is_the_base_edge_and_the_bundle(self):
        inst = parse_instance("parallel-hats:1/2,m=0")
        assert inst.matroid.n == 3 and inst.matroid.rank(SubsetMask(3, 0b111)) == 2

    def test_json_file_round_trip(self, tmp_path):
        inst = two_element_instance()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_spec()))
        again = parse_instance(str(path))
        assert again.name == inst.name
        assert again.declared_alpha == inst.declared_alpha
        assert sorted(again.prior.support()) == sorted(inst.prior.support())
        assert again.canonical_order == inst.canonical_order

    def test_parts_over_other_ground_sets_rejected(self):
        half = Fraction(1, 2)
        with pytest.raises(DimensionMismatch, match="over 4 elements, the prior over 6"):
            Instance("bad", UniformMatroid(4, 2), AllActivePrior(6), half)
        with pytest.raises(DimensionMismatch, match="over 4 elements, the canonical order over 3"):
            Instance("bad", UniformMatroid(4, 2), AllActivePrior(4), half, Permutation.identity(3))

    def test_json_file_with_mismatched_prior_exits_2(self, tmp_path, capsys):
        spec = gen_kuniform_allactive(4, 2).to_spec()
        spec["prior"] = AllActivePrior(6).to_spec()
        del spec["canonical_order"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        for argv in (["evaluate", "--scheme", "greedy", "--trials", "10"], ["oracle-alpha"]):
            assert cli_run(argv + ["--instance", str(path)]) == 2
            assert "over 4 elements, the prior over 6" in capsys.readouterr().err


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

    def test_parts_over_other_ground_sets_rejected(self, rng):
        # Before the check, elements 3-5 were reported as selected 0 times.
        m, prior = UniformMatroid(6, 3), AllActivePrior(6)
        greedy = OrderedGreedy(Permutation.identity(6))
        with pytest.raises(DimensionMismatch, match="over 6 elements, the scheme over 4"):
            estimate_balancedness(m, OrderedGreedy(Permutation.identity(4)), prior, 9, rng)
        with pytest.raises(DimensionMismatch, match="over 6 elements, the prior over 5"):
            estimate_balancedness(m, greedy, AllActivePrior(5), 9, rng)

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

    @pytest.mark.parametrize(
        "case",
        [
            {"kind": "ordered_greedy", "order": [0.0, 1]},
            {"kind": "ordered_greedy", "order": "01"},
            {"kind": "independent_subsampling", "order": [0, 1], "rho": "1/0"},
            {"kind": "permutation_mixture", "components": [{"order": [0, 1], "weight": None}]},
            {"kind": "ordered_greedy", "order": 5},
            {**two_element_instance().to_spec(), "canonical_order": 7},
            ["lp-build", "--instance", "twoelem", "--eps", "1/0"],
            ["lp-build", "--instance", "kuniform:4,2", "--eps", "0", "--mode", "mc"],
            ["lp-build", "--instance", "kuniform:4,2", "--reduction", "secretary",
             "--competitiveness", "0"],
            *(["lp-build", "--instance", "kuniform:4,2", "--reduction", "secretary",
               "--competitiveness", c, "--mode", "mc"] for c in ("inf", "1e308", "1.5")),
            ["gen-instance", "--instance", "parallel-hats:1/0"],
        ],
        ids=["float-order", "string-order", "rho-1/0", "null-weight", "int-order",
             "int-canonical-order", "eps-1/0", "mc-eps-0", "competitiveness-0",
             "competitiveness-inf", "competitiveness-1e308", "competitiveness-1.5", "hats-1/0"],
    )
    def test_bad_input_exits_2_with_one_error_line(self, tmp_path, capsys, case):
        # A scheme or instance JSON (a dict here) or a flag read badly is a
        # configuration error, not a crash: exit 1 means that no element qualified.
        argv = case
        if isinstance(case, dict) and "matroid" in case:
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(case))
            argv = ["oracle-alpha", "--instance", str(path)]
        elif isinstance(case, dict):
            path = tmp_path / "scheme.json"
            path.write_text(json.dumps(case))
            argv = ["evaluate", "--instance", "twoelem", "--scheme", str(path), "--trials", "10"]
        try:
            code = cli_run(argv)
        except SystemExit as exc:  # argparse refuses a flag's value itself
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, case",
        [
            ("components", {"kind": "permutation_mixture", "components": 5}),
            ("w", {"kind": "weight_mixture", "secretary": "greedy_by_weight",
                   "components": [{"w": 5, "weight": 1}]}),
            ("support", {**two_element_instance().to_spec(),
                         "prior": {"type": "explicit", "n": 2, "support": 5}}),
            ("independent_sets", {**two_element_instance().to_spec(),
                                  "matroid": {"type": "explicit", "n": 2, "independent_sets": 5}}),
            ("declared_alpha", {k: v for k, v in two_element_instance().to_spec().items()
                                if k != "declared_alpha"}),
            ("independent_sets", {**two_element_instance().to_spec(),
                                  "matroid": {"type": "explicit", "n": 2, "independent_sets": [5]}}),
            ("edges", {**two_element_instance().to_spec(),
                       "matroid": {"type": "graphic", "vertices": 3, "edges": [5, 6]}}),
            ("edges", {**two_element_instance().to_spec(),
                       "matroid": {"type": "graphic", "vertices": 3, "edges": [[0, 1, 2], [1, 2]]}}),
            ("n", {**two_element_instance().to_spec(),
                   "matroid": {"type": "uniform", "n": [2], "k": 1}}),
            ("n", {**two_element_instance().to_spec(),
                   "matroid": {"type": "uniform", "n": "two", "k": 1}}),
            ("k", {**two_element_instance().to_spec(),
                   "matroid": {"type": "uniform", "n": 2, "k": 1.5}}),
            ("elements", {**two_element_instance().to_spec(),
                          "prior": {"type": "explicit", "n": 2,
                                    "support": [{"elements": [0, "a"], "prob": "1"}]}}),
            ("independent_sets", {**two_element_instance().to_spec(),
                                  "matroid": {"type": "explicit", "n": 2,
                                              "independent_sets": [[], [-1]]}}),
            ("elements", {**two_element_instance().to_spec(),
                          "prior": {"type": "explicit", "n": 2,
                                    "support": [{"elements": [-1], "prob": "1"}]}}),
            ("edges", {**two_element_instance().to_spec(),
                       "matroid": {"type": "graphic", "vertices": 3, "edges": [[0, -1], [1, 2]]}}),
            ("x", {**two_element_instance().to_spec(),
                   "prior": {"type": "product", "x": ["a", "1/2"]}}),
            ("prob", {**two_element_instance().to_spec(),
                      "prior": {"type": "explicit", "n": 2,
                                "support": [{"elements": [0], "prob": "x"}]}}),
            ("declared_alpha", {**two_element_instance().to_spec(), "declared_alpha": "zz"}),
            ("rho", {"kind": "independent_subsampling", "order": [0, 1], "rho": "zz"}),
            ("weight", {"kind": "permutation_mixture",
                        "components": [{"order": [0, 1], "weight": True}]}),
            ("w", {"kind": "weight_mixture", "secretary": "greedy_by_weight",
                   "components": [{"w": ["a", 1], "weight": 1}]}),
            ("independent_sets", {**two_element_instance().to_spec(),
                                  "matroid": {"type": "explicit", "n": 4,
                                              "independent_sets": [[], [0], [1], [2], [3],
                                                                   [0, 2], [1, 3]]},
                                  "prior": {"type": "explicit", "n": 4,
                                            "support": [{"elements": [0, 3], "prob": "2/7"},
                                                        {"elements": [0, 1], "prob": "3/14"},
                                                        {"elements": [1, 2, 3], "prob": "3/14"},
                                                        {"elements": [0, 2, 3], "prob": "2/7"}]},
                                  "canonical_order": [0, 1, 2, 3]}),
            ("independent_sets", {**two_element_instance().to_spec(),
                                  "matroid": {"type": "explicit", "n": 2,
                                              "independent_sets": [[], [5]]}}),
            ("support", {**two_element_instance().to_spec(),
                         "prior": {"type": "explicit", "n": 2,
                                   "support": [{"elements": [0, 5], "prob": "1"}]}}),
            ("canonical_order", {**two_element_instance().to_spec(), "canonical_order": "01"}),
            ("canonical_order", {**two_element_instance().to_spec(), "canonical_order": [0, 0]}),
            ("order", {"kind": "ordered_greedy", "order": [0, 0]}),
            ("order", {"kind": "prefix_subsampling", "order": [1, 2]}),
            ("order", {"kind": "permutation_mixture",
                       "components": [{"order": [0, 1], "weight": "1/2"},
                                      {"order": [1, 1], "weight": "1/2"}]}),
        ],
        ids=["components", "component-w", "support", "independent-sets", "no-declared-alpha",
             "independent-set-item", "edge-item", "edge-triple", "uniform-n-list",
             "uniform-n-string", "uniform-k-float", "atom-element", "independent-set-negative",
             "atom-element-negative", "edge-negative", "product-x-literal", "atom-prob-literal",
             "declared-alpha-literal", "rho-literal", "component-weight-bool",
             "component-w-literal", "independent-sets-not-a-matroid",
             "independent-set-outside", "atom-outside", "canonical-order-string",
             "canonical-order-repeat", "order-repeat", "order-outside", "component-order"],
    )
    def test_malformed_spec_field_exits_2_naming_it(self, tmp_path, capsys, field, case):
        # A number where a list belongs ended in "TypeError: 'int' object is not
        # iterable", a missing field printed only its bare name, an item of the
        # wrong type escaped as a TypeError, and int() read k = 1.5 as 1. A
        # negative index printed "negative shift count", and a rational that
        # does not parse "Invalid literal for Fraction", neither naming the field.
        # A family that breaks exchange gave a wrong alpha* and exit 0. A set
        # outside the ground set was named as a hex mask or not at all, and an
        # order that is not a permutation printed "not a permutation of 0..n-1"
        # without its field.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(case))
        if "matroid" in case:
            argv = ["oracle-alpha", "--instance", str(path)]
        else:
            argv = ["evaluate", "--instance", "twoelem", "--scheme", str(path), "--trials", "10"]
        assert cli_run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"field '{field}'" in err[0], err

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

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    @pytest.mark.parametrize(
        "flag",
        [["--mode", "exact"], ["--samples", "300"], ["--eps", "1/4"], ["--alpha", "0"],
         ["--alpha", "1/2"]],
    )
    def test_greedy_rejects_build_flags(self, capsys, command, flag):
        # Greedy preselects nothing, so a build flag would be ignored; --alpha 0
        # is named as unread, not as an out-of-range level.
        argv = [command, "--instance", "kuniform:6,3", "--scheme", "greedy"] + flag
        assert cli_run(argv) == 2
        assert capsys.readouterr().err == f"error: {flag[0]} does not apply to --scheme greedy\n"

    def test_greedy_takes_the_order_flag(self, capsys):
        argv = ["run", "--instance", "hidden:4,1/3,1/20,0", "--scheme", "greedy", "--seed", "2"]
        assert cli_run(argv + ["--order", "preselect"]) == 0
        assert json.loads(capsys.readouterr().out)["scheme"]["order"] == [0, 1, 2, 3]
        assert cli_run(argv + ["--order", "canonical"]) == 2  # read, and this instance has none
        assert "has no canonical order" in capsys.readouterr().err

    def test_scheme_json_takes_seed_trials_and_ci_level(self, tmp_path, capsys):
        path = tmp_path / "greedy.json"
        path.write_text(json.dumps(OrderedGreedy(Permutation([1, 0])).to_spec()))
        argv = ["evaluate", "--instance", "twoelem", "--scheme", str(path),
                "--seed", "3", "--trials", "50", "--ci-level", "0.9"]
        assert cli_run(argv) == 0
        assert cli_run(["run", "--instance", "twoelem", "--scheme", str(path), "--seed", "3"]) == 0

    def test_scheme_json_over_another_ground_set_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "s4")
        argv = ["lp-build", "--instance", "kuniform:4,2", "--mode", "exact", "--out", out]
        assert cli_run(argv) == 0
        argv = ["evaluate", "--instance", "kuniform:6,3", "--scheme", out + ".scheme.json"]
        assert cli_run(argv) == 2
        err = capsys.readouterr().err
        assert "scheme is over 4 elements, instance kuniform:6,3 over 6" in err

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
        # The supplied order is run with the thinning of the instance's alpha, 1/2.
        assert payload["scheme"]["rho"] == "1/4"

    @pytest.mark.parametrize(
        "command, partial",
        [
            ("run", {"active": None, "instance": "kuniform:4,2", "selected": []}),
            ("evaluate", {"failed_at_step": 4, "instance": "kuniform:4,2"}),
        ],
    )
    def test_failed_preselection_writes_partial_payload(self, capsys, command, partial):
        rc = cli_run(
            [command, "--instance", "kuniform:4,2", "--scheme", "prefix", "--mode", "exact",
             "--alpha", "99/100"]
        )
        assert rc == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == partial
        assert err.startswith("warning: no qualifying element at step 4")

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
            ("kuniform:9,4", "prefix", "exact"),
            ("kuniform:13,6", "prefix", "exact"),
            ("kuniform:14,7", "prefix", "exact"),
            ("kuniform:13,6", "indep", "exact"),
            ("kuniform:14,7", "indep", "exact"),
            ("kuniform:30,15", "prefix", "exact"),
            ("kuniform:30,15", "indep", "exact"),
            ("parallel-hats:1/2,m=8", "prefix", "monte_carlo"),
            ("parallel-hats:1/2,m=8", "indep", "monte_carlo"),
        ],
    )
    def test_auto_mode_is_exact_when_the_support_fits(self, monkeypatch, instance, kind, mode):
        # Every statistic that answers is stubbed to qualify each candidate;
        # the test reads which family _preselect asks, exact or Monte-Carlo.
        # An exact statistic still runs its span scan first, which refuses
        # past the budget (8 hats, all active), and auto falls back.
        seen = []

        def stub_exact(stat):
            def exact_stat(*args):
                stat(*args)
                seen.append("exact")
                return Fraction(1)

            return exact_stat

        def mc_stat(M, *args):
            seen.append("monte_carlo")
            return [1] * M.n, [1] * M.n

        for law in ("independent", "prefix"):
            stat = getattr(preselect, "exact_unspanned_prob_" + law)
            monkeypatch.setattr(preselect, "exact_unspanned_prob_" + law, stub_exact(stat))
            monkeypatch.setattr(preselect, "count_span_stats_" + law, mc_stat)
        for argv in (["preselect", "--kind", kind], ["run", "--scheme", kind]):
            seen.clear()
            assert cli_run(argv + ["--instance", instance, "--mode", "auto"]) == 0
            assert seen and set(seen) == {mode}


    @pytest.mark.parametrize(
        "argv",
        [["preselect", "--kind", "prefix"], ["preselect", "--kind", "indep"],
         ["run", "--scheme", "prefix"]],
        ids=["preselect-prefix", "preselect-indep", "run-prefix"],
    )
    def test_over_budget_auto_prints_what_mc_prints(self, capsys, argv):
        # 8 hats, all active: the exact route's first span scan passes the
        # budget. Exact exits 2 naming it; auto falls back before any draw,
        # so its stdout is Monte-Carlo's, byte for byte.
        argv = argv + ["--instance", "parallel-hats:1/2,m=8", "--samples", "300", "--seed", "5"]
        assert cli_run(argv + ["--mode", "exact"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "budget" in err[0], err
        outs = []
        for mode in ("auto", "mc"):
            assert cli_run(argv + ["--mode", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]


class TestGoldenOutputs:
    """Seeded CLI outputs pinned to literals: greedy, the grower and the
    exact scan walk each family's span state, and none of them may move.
    A pinned Monte-Carlo row must also lie within the 1 - 1e-9 Hoeffding
    half-width of its exact value, which no seed misses by chance."""

    # Exact tight values: the hats base edge (element 34) under thinning at
    # 1/4, and the last element of kuniform:30,15 under the prefix scheme.
    HATS_BASE_EDGE = Fraction(1, 4) * Fraction(15, 16) ** 17
    KUNIFORM_LAST = Fraction(4, 31)

    @staticmethod
    def assert_near_exact(row: str, exact: Fraction) -> None:
        _, active, selected, *_ = row.split(",")
        half = hoeffding_halfwidth(1 - 1e-9, int(active))
        assert abs(Fraction(int(selected), int(active)) - exact) <= half, row

    def test_evaluate_graphic_greedy(self, tmp_path):
        rc = cli_run(
            ["evaluate", "--instance", "parallel-hats:1/2", "--scheme", "indep",
             "--order", "canonical", "--trials", "2000", "--seed", "7",
             "--out", str(tmp_path / "ev")]
        )
        assert rc == 0
        lines = (tmp_path / "ev.csv").read_text().splitlines()
        assert lines[:2] == [
            "element,active_count,selected_count,estimate,ci_lo,ci_hi",
            "0,2000,506,0.253,0.21660522919927908,0.28939477080072096",
        ]
        assert [line.split(",")[1:3] for line in lines[1:]] == [
            ["2000", str(c)]
            for c in [
                506, 513, 507, 490, 513, 511, 552, 491, 525, 505, 504, 479, 506,
                508, 527, 500, 492, 525, 462, 522, 454, 445, 484, 428, 450, 463,
                416, 481, 424, 423, 403, 392, 416, 411, 179, 527, 381,
            ]
        ]
        self.assert_near_exact(lines[1 + 34], self.HATS_BASE_EDGE)

    # `evaluate --instance parallel-hats:1/2 --scheme indep --order canonical
    # --trials 2000 --seed 7 --out P`: P.csv in full.
    HATS_CSV = """\
element,active_count,selected_count,estimate,ci_lo,ci_hi
0,2000,506,0.253,0.21660522919927908,0.28939477080072096
1,2000,513,0.2565,0.22010522919927908,0.2928947708007209
2,2000,507,0.2535,0.21710522919927908,0.2898947708007209
3,2000,490,0.245,0.20860522919927907,0.28139477080072095
4,2000,513,0.2565,0.22010522919927908,0.2928947708007209
5,2000,511,0.2555,0.21910522919927908,0.2918947708007209
6,2000,552,0.276,0.2396052291992791,0.312394770800721
7,2000,491,0.2455,0.20910522919927907,0.2818947708007209
8,2000,525,0.2625,0.22610522919927908,0.2988947708007209
9,2000,505,0.2525,0.21610522919927908,0.2888947708007209
10,2000,504,0.252,0.21560522919927907,0.28839477080072096
11,2000,479,0.2395,0.20310522919927906,0.2758947708007209
12,2000,506,0.253,0.21660522919927908,0.28939477080072096
13,2000,508,0.254,0.21760522919927908,0.29039477080072096
14,2000,527,0.2635,0.22710522919927909,0.2998947708007209
15,2000,500,0.25,0.21360522919927907,0.28639477080072095
16,2000,492,0.246,0.20960522919927907,0.28239477080072095
17,2000,525,0.2625,0.22610522919927908,0.2988947708007209
18,2000,462,0.231,0.19460522919927908,0.26739477080072094
19,2000,522,0.261,0.22460522919927908,0.29739477080072096
20,2000,454,0.227,0.19060522919927908,0.26339477080072093
21,2000,445,0.2225,0.18610522919927908,0.25889477080072093
22,2000,484,0.242,0.20560522919927907,0.27839477080072095
23,2000,428,0.214,0.17760522919927907,0.2503947708007209
24,2000,450,0.225,0.18860522919927908,0.26139477080072093
25,2000,463,0.2315,0.19510522919927908,0.26789477080072094
26,2000,416,0.208,0.17160522919927906,0.24439477080072092
27,2000,481,0.2405,0.20410522919927906,0.2768947708007209
28,2000,424,0.212,0.17560522919927907,0.24839477080072092
29,2000,423,0.2115,0.17510522919927907,0.24789477080072092
30,2000,403,0.2015,0.16510522919927909,0.23789477080072094
31,2000,392,0.196,0.15960522919927908,0.23239477080072093
32,2000,416,0.208,0.17160522919927906,0.24439477080072092
33,2000,411,0.2055,0.16910522919927906,0.24189477080072092
34,2000,179,0.0895,0.05310522919927907,0.12589477080072092
35,2000,527,0.2635,0.22710522919927909,0.2998947708007209
36,2000,381,0.1905,0.15410522919927908,0.22689477080072093
"""

    # `evaluate --instance kuniform:30,15 --scheme prefix --order canonical
    # --trials 2000 --seed 7 --out K`: K.csv in full. Greedy on a uniform
    # matroid stops at its k-th active arrival; this pins that exit.
    KUNIFORM_CSV = """\
element,active_count,selected_count,estimate,ci_lo,ci_hi
0,2000,951,0.4755,0.4391052291992791,0.5118947708007209
1,2000,984,0.492,0.45560522919927904,0.528394770800721
2,2000,999,0.4995,0.4631052291992791,0.5358947708007209
3,2000,991,0.4955,0.4591052291992791,0.5318947708007209
4,2000,1001,0.5005,0.464105229199279,0.5368947708007209
5,2000,996,0.498,0.46160522919927904,0.534394770800721
6,2000,957,0.4785,0.4421052291992791,0.5148947708007209
7,2000,1041,0.5205,0.484105229199279,0.5568947708007209
8,2000,987,0.4935,0.4571052291992791,0.5298947708007209
9,2000,967,0.4835,0.4471052291992791,0.5198947708007209
10,2000,998,0.499,0.46260522919927904,0.535394770800721
11,2000,996,0.498,0.46160522919927904,0.534394770800721
12,2000,997,0.4985,0.4621052291992791,0.5348947708007209
13,2000,951,0.4755,0.4391052291992791,0.5118947708007209
14,2000,980,0.49,0.45360522919927904,0.526394770800721
15,2000,867,0.4335,0.39710522919927904,0.46989477080072095
16,2000,791,0.3955,0.3591052291992791,0.4318947708007209
17,2000,693,0.3465,0.3101052291992791,0.3828947708007209
18,2000,622,0.311,0.2746052291992791,0.3473947708007209
19,2000,562,0.281,0.2446052291992791,0.317394770800721
20,2000,541,0.2705,0.2341052291992791,0.3068947708007209
21,2000,448,0.224,0.18760522919927908,0.26039477080072093
22,2000,451,0.2255,0.18910522919927908,0.26189477080072093
23,2000,408,0.204,0.16760522919927906,0.2403947708007209
24,2000,403,0.2015,0.16510522919927909,0.23789477080072094
25,2000,350,0.175,0.13860522919927906,0.21139477080072092
26,2000,345,0.1725,0.13610522919927906,0.2088947708007209
27,2000,320,0.16,0.12360522919927908,0.19639477080072093
28,2000,260,0.13,0.09360522919927908,0.16639477080072093
29,2000,258,0.129,0.09260522919927908,0.16539477080072093
"""

    def test_evaluate_files_byte_for_byte(self, tmp_path):
        rc = cli_run(
            ["evaluate", "--instance", "parallel-hats:1/2", "--scheme", "indep",
             "--order", "canonical", "--trials", "2000", "--seed", "7",
             "--out", str(tmp_path / "P")]
        )
        assert rc == 0
        assert (tmp_path / "P.csv").read_bytes() == self.HATS_CSV.encode()
        self.assert_near_exact(self.HATS_CSV.splitlines()[1 + 34], self.HATS_BASE_EDGE)
        # P.json holds the same rows, as numbers keyed by the CSV header
        # (a float's repr reads back to the same float), and the run's context.
        header, *rows = (line.split(",") for line in self.HATS_CSV.splitlines())
        payload = {
            "ci_level": 0.99,
            "elements": [
                dict(zip(header, [*map(int, row[:3]), *map(float, row[3:])])) for row in rows
            ],
            "metadata": {
                "instance": "parallel-hats:1/2",
                "scheme": {"kind": "independent_subsampling", "order": list(range(37)),
                           "rho": "1/4"},
                "seed": 7,
            },
            "min_estimate": 0.0895,
            "trials": 2000,
        }
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "P.json").read_bytes() == want.encode()

    def test_evaluate_uniform_prefix_byte_for_byte(self, tmp_path):
        rc = cli_run(
            ["evaluate", "--instance", "kuniform:30,15", "--scheme", "prefix",
             "--order", "canonical", "--trials", "2000", "--seed", "7",
             "--out", str(tmp_path / "K")]
        )
        assert rc == 0
        assert (tmp_path / "K.csv").read_bytes() == self.KUNIFORM_CSV.encode()
        self.assert_near_exact(self.KUNIFORM_CSV.splitlines()[1 + 29], self.KUNIFORM_LAST)

    @pytest.mark.parametrize(
        "kind, order", [("indep", [5, 4, 3, 2, 1, 0]), ("prefix", [5, 4, 3, 0, 2, 1])]
    )
    def test_preselect_correlated_prior_seeded(self, capsys, kind, order):
        # Each batch of samples draws categorical atoms of the hidden-element
        # prior (`trial_words`), then thins the words of S or keeps them below a
        # sentinel; both draws and their order on the one rng fix the
        # preselected order. The pinned order meets its floor exactly:
        # (1 - eps) alpha^2/4 thinned at alpha/2, (1 - eps) alpha^2/2 by prefix.
        rc = cli_run(
            ["preselect", "--instance", "hidden:6,1/3,1/20,0", "--kind", kind,
             "--samples", "500", "--seed", "3"]
        )
        assert rc == 0
        payload = {"instance": "hidden:6,1/3,1/20,0", "kind": kind, "order": order}
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        inst, eps = parse_instance("hidden:6,1/3,1/20,0"), Fraction(1, 4)
        alpha = inst.declared_alpha
        if kind == "indep":
            scheme, floor = IndependentSubsampling(Permutation(order), alpha / 2), alpha**2 / 4
        else:
            scheme, floor = PrefixSubsampling(Permutation(order)), alpha**2 / 2
        bal = exact_balancedness(inst.matroid, scheme, inst.prior)
        assert min(bal) >= (1 - eps) * floor

    def test_lp_build_secretary_reduction(self, tmp_path):
        rc = cli_run(
            ["lp-build", "--instance", "kuniform:6,3", "--reduction", "secretary",
             "--mode", "exact", "--out", str(tmp_path / "lp")]
        )
        assert rc == 0
        third, quarter, sixth = "1/3", "1/4", "1/6"
        assert json.loads((tmp_path / "lp.scheme.json").read_text()) == {
            "components": [
                {"w": [sixth] * 6, "weight": quarter},
                {"w": [quarter, "0", "0", quarter, quarter, quarter], "weight": quarter},
                {"w": ["0", third, "0", "0", third, third], "weight": quarter},
                {"w": ["0", "0", third, third, "0", third], "weight": quarter},
            ],
            "kind": "weight_mixture",
            "secretary": "greedy_by_weight",
        }


    # `lp-build --instance hidden:9,1/3,1/20,0 --mode exact`, per reduction: the
    # mixture's keys and weights, then the report's iterations, exact beta
    # trajectory and eps split. Pivot counts are the simplex's own business.
    HIDDEN_9 = {
        "permutation": (
            "permutation_mixture", "order",
            [[1, 2, 3, 4, 5, 6, 7, 8, 0], [0, 1, 2, 3, 4, 5, 6, 7, 8],
             [2, 0, 1, 3, 4, 5, 6, 7, 8], [3, 0, 1, 2, 4, 5, 6, 7, 8],
             [4, 0, 1, 2, 3, 5, 6, 7, 8], [5, 0, 1, 2, 3, 4, 6, 7, 8],
             [6, 0, 1, 2, 3, 4, 5, 7, 8], [7, 0, 1, 2, 3, 4, 5, 6, 8],
             [8, 0, 1, 2, 3, 4, 5, 6, 7]],
            ["1/13", "5/13"] + ["1/13"] * 7,
            9, ["0"] + ["1/3"] * 7 + ["5/13"], 0.041666666666666664, 6,
        ),
        "secretary": (
            "weight_mixture", "w",
            [["10/9"] + ["31/42"] * 8,
             ["0", "1/14", "115/84", "17/18", "179/126", "3/28", "107/126", "110/63", "1/7"],
             ["85/252", "149/252", "26/21", "16/21", "8/7", "8/9", "20/21", "85/252", "32/63"],
             ["7/18", "173/252", "7/18", "37/42", "37/28", "37/36", "139/126", "7/18", "37/63"],
             ["115/252", "67/84", "115/252", "43/42", "115/252", "43/36", "323/252", "115/252",
              "43/63"],
             ["131/252", "229/252", "131/252", "295/252", "131/252", "86/63", "131/252",
              "131/252", "197/252"],
             ["25/42", "263/252", "25/42", "169/126"] + ["25/42"] * 4 + ["25/28"],
             ["169/252", "74/63"] + ["169/252"] * 6 + ["127/126"],
             ["61/84"] * 8 + ["137/126"]],
            ["5/13"] + ["1/13"] * 8,
            26, ["1/3"] * 18 + ["671/1885", "293/815", "255/701", "113/307", "25/67", "45/119",
                               "21/55", "5/13"],
            0.03571428571428571, 7,
        ),
    }

    @pytest.mark.parametrize("reduction", sorted(HIDDEN_9))
    def test_lp_build_hidden_exact(self, tmp_path, reduction):
        rc = cli_run(
            ["lp-build", "--instance", "hidden:9,1/3,1/20,0", "--reduction", reduction,
             "--mode", "exact", "--out", str(tmp_path / "lp")]
        )
        assert rc == 0
        kind, key, columns, weights, iterations, betas, per_stage, stages = self.HIDDEN_9[reduction]
        scheme = {
            "components": [{key: col, "weight": wt} for col, wt in zip(columns, weights)],
            "kind": kind,
        }
        if reduction == "secretary":
            scheme["secretary"] = "greedy_by_weight"
        assert json.loads((tmp_path / "lp.scheme.json").read_text()) == scheme
        payload = json.loads((tmp_path / "lp.json").read_text())
        assert payload["scheme"] == scheme
        report = payload["report"]
        del report["pivots"]
        assert report == {
            "beta_trajectory": [float(Fraction(b)) for b in betas],
            "columns": columns,
            "converged": True,
            "eps": 0.25,
            "eps_split": {"per_stage": per_stage, "stages": stages},
            "estimation_samples": {},
            "exact_columns": True,
            "gamma": float(Fraction(5, 13)),
            "iterations": iterations,
            "kind": kind,
            "lp_solves": iterations,
            "n": 9,
            "notes": [],
        }

    # `lp-build --instance hidden:6,1/3,1/20,0 --reduction secretary --secretary
    # classic_1uniform --mode mc --samples 300 --seed 1`: the 20 weight vectors
    # the build priced, each on 300 samples, and the 6 its mixture keeps, in
    # order, with their weights; then the beta trajectory. Every sample runs
    # the classic secretary on its own shuffle of the same rng.
    CLASSIC_PRICED = [
        ["0", "0", "0", "20/3", "0", "0"],
        ["0", "0", "0", "27/14", "43/21", "7/3"],
        ["0", "0", "0", "53/42", "425/84", "0"],
        ["0", "3/8", "143/56", "293/168", "29/14", "0"],
        ["0", "6/7", "101/56", "2/21", "43/24", "55/28"],
        ["0", "65/21", "0", "11/7", "157/84", "0"],
        ["103/84", "23/21", "2/7", "19/28", "433/168", "83/84"],
        ["107/56", "0", "5/4", "109/84", "167/84", "19/24"],
        ["181/168", "1/28", "379/168", "19/14", "33/28", "8/7"],
        ["187/168", "25/56", "43/28", "253/168", "75/56", "59/56"],
        ["211/168", "57/56", "0", "349/168", "121/84", "187/168"],
        ["221/168", "0", "319/168", "0", "467/168", "43/42"],
        ["23/12", "19/84", "209/168", "19/14", "149/84", "31/42"],
        ["289/168", "31/28", "17/14", "31/28", "25/24", "57/56"],
        ["31/24", "15/56", "75/56", "241/168", "35/24", "69/56"],
        ["43/42", "43/168", "247/168", "251/168", "311/168", "71/84"],
        ["5/42", "23/14", "43/84", "25/12", "19/56", "13/7"],
        ["55/42", "41/168", "115/84", "239/168", "17/12", "107/84"],
        ["75/56", "0", "7/4", "17/14", "17/12", "227/168"],
        ["83/84", "11/28", "55/56", "265/168", "127/56", "37/56"],
    ]
    CLASSIC_KEPT = [
        (16, "293842/41759129"), (4, "9704973/41759129"), (12, "22779413/41759129"),
        (18, "4173272/41759129"), (9, "255818/41759129"), (14, "4551811/41759129"),
    ]
    CLASSIC_BETAS = [
        0.1111111111111111, 0.13924050632911392, 0.17314313821938024, 0.1923135293296344,
        0.21253522127246466, 0.22863726166198026, 0.2295473484960167, 0.23722749995917788,
        0.25613211365660166, 0.25906753644108477, 0.2596894585386203, 0.2752562225475842,
        0.2872232216657753, 0.287459612612775, 0.2878410863732208, 0.2898164265429714,
        0.29317575131156454, 0.29324108879710153, 0.2934288212764208,
    ]

    def test_lp_build_classic_secretary_mc_seeded(self, capsys):
        rc = cli_run(
            ["lp-build", "--instance", "hidden:6,1/3,1/20,0", "--reduction", "secretary",
             "--secretary", "classic_1uniform", "--mode", "mc", "--samples", "300",
             "--seed", "1"]
        )
        assert rc == 0
        columns = [self.CLASSIC_PRICED[i] for i, _ in self.CLASSIC_KEPT]
        scheme = {
            "components": [
                {"w": self.CLASSIC_PRICED[i], "weight": wt} for i, wt in self.CLASSIC_KEPT
            ],
            "kind": "weight_mixture",
            "secretary": "classic_1uniform",
        }
        samples = {str(w): 300 for w in self.CLASSIC_PRICED}
        samples["x"] = 300
        report = {
            "beta_trajectory": self.CLASSIC_BETAS,
            "columns": columns,
            "converged": True,
            "eps": 0.25,
            "eps_split": {"per_stage": 0.03571428571428571, "stages": 7},
            "estimation_samples": samples,
            "exact_columns": False,
            "gamma": self.CLASSIC_BETAS[-1],
            "iterations": 19,
            "kind": "weight_mixture",
            "lp_solves": 19,
            "n": 6,
            "notes": [],
            "pivots": 35,
        }
        payload = {"instance": "hidden:6,1/3,1/20,0", "report": report, "scheme": scheme}
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _ExactBitsOnly(Random):
    """A Random that refuses every draw but fair bits. It overrides
    getrandbits, as bench/tracer.py's CountingRandom does. The library
    shuffles by its own Fisher-Yates on getrandbits (`sampling.shuffled`),
    so `Random.shuffle` is refused too."""

    def random(self):
        raise AssertionError("float draw: Random.random() was called")

    def getrandbits(self, k):
        return super().getrandbits(k)

    def randrange(self, *args, **kwargs):
        raise AssertionError("Random.randrange() was called")

    def sample(self, *args, **kwargs):
        raise AssertionError("Random.sample() was called")

    def shuffle(self, *args, **kwargs):
        raise AssertionError("Random.shuffle() was called")


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
