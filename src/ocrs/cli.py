"""Batch experiment front end.

Subcommands: gen-instance, preselect, run, evaluate, oracle-alpha, lp-build.
Identical seed and flags give byte-identical outputs. Exit codes: 0 success,
1 preselection found no qualifying element (partial artifacts are still
written), 2 bad configuration, 141 stdout closed early (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from random import Random

from .bitset import DimensionMismatch
from .harness import Instance, estimate_balancedness, parse_instance
from .lp import build_lp_scheme, build_secretary_reduction
from .oracle import max_uncontentious_alpha
from .preselect import (
    NoQualifyingElement,
    PreselectConfig,
    preselect_independent,
    preselect_prefix,
    sample_size,
)
from .priors import MODES, to_fraction
from .schemes import (
    IndependentSubsampling,
    OrderedGreedy,
    Permutation,
    PrefixSubsampling,
    SECRETARY_KINDS,
    scheme_from_spec,
)

_PRESELECT = {"indep": preselect_independent, "prefix": preselect_prefix}


def _write_json(payload: dict, out: str | None, suffix: str = ".json") -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out + suffix, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _alpha(args, inst: Instance) -> Fraction:
    return inst.declared_alpha if args.alpha is None else args.alpha


def _eps(args) -> Fraction:
    return Fraction(1, 4) if args.eps is None else args.eps


def _preselect_cfg(args, inst: Instance) -> PreselectConfig:
    return PreselectConfig(
        alpha=_alpha(args, inst), eps=_eps(args), mode=args.mode or "mc",
        sample_override=args.samples,
    )


def _reject_unread(args, flags, what: str) -> None:
    """A build flag that `what` would ignore is a configuration error."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to {what}")


def _build_scheme(args, inst: Instance, rng: Random):
    name = args.scheme
    if name.endswith(".json"):
        _reject_unread(args, ("mode", "samples", "eps", "alpha", "order"), "a scheme JSON")
        with open(name) as f:
            scheme = scheme_from_spec(json.load(f))
        if scheme.n != inst.matroid.n:
            raise DimensionMismatch(f"the scheme is over {scheme.n} elements, "
                                    f"instance {inst.name} over {inst.matroid.n}")
        return scheme
    order = None
    if args.order == "canonical":
        if inst.canonical_order is None:
            raise ValueError(f"instance {inst.name} has no canonical order")
        order = inst.canonical_order
    if name == "greedy":  # preselects nothing, so it reads only --order
        _reject_unread(args, ("mode", "samples", "eps", "alpha"), "--scheme greedy")
        return OrderedGreedy(order or Permutation.identity(inst.matroid.n))
    cfg = _preselect_cfg(args, inst)
    if name not in _PRESELECT:
        raise ValueError(
            f"unknown scheme {name!r} (use indep, prefix, greedy, or a scheme JSON path)"
        )
    if order is None:
        order = _PRESELECT[name](inst.matroid, inst.prior, cfg, rng)
    if name == "prefix":
        return PrefixSubsampling(order)
    # An order preselected at alpha is run with thinning at rho = alpha/2.
    return IndependentSubsampling(order, cfg.alpha / 2)


def cmd_gen_instance(args) -> int:
    inst = parse_instance(args.instance)
    _write_json(inst.to_spec(), args.out)
    return 0


def _note_uncertified_samples(inst: Instance, cfg: PreselectConfig) -> None:
    """One stderr note when a Monte-Carlo --samples is below the per-step count
    `sample_size` certifies, where p_min is exact: the note draws nothing."""
    probs = inst.prior.activation_probabilities()
    if cfg.sample_override is None or cfg.mode == "exact" or probs is None or not any(probs):
        return
    p_min = inst.prior.p_min()
    certified = sample_size(inst.matroid.n, float(cfg.alpha), float(cfg.eps), float(p_min))
    if cfg.sample_override < certified:
        print(f"note: --samples {cfg.sample_override} is below the {certified} samples per step "
              "that sample_size certifies; the order carries no floor guarantee", file=sys.stderr)


def cmd_preselect(args) -> int:
    inst = parse_instance(args.instance)
    cfg = _preselect_cfg(args, inst)
    _note_uncertified_samples(inst, cfg)
    try:
        order = _PRESELECT[args.kind](inst.matroid, inst.prior, cfg, Random(args.seed))
    except NoQualifyingElement as err:
        print(f"warning: {err}; emitting empty selection behaviour", file=sys.stderr)
        _write_json(
            {"instance": inst.name, "failed_at_step": err.step, "partial_order": err.suffix},
            args.out,
        )
        return 1
    _write_json(
        {"instance": inst.name, "kind": args.kind, "order": list(order.order)}, args.out
    )
    return 0


def cmd_run(args) -> int:
    inst = parse_instance(args.instance)
    rng = Random(args.seed)
    try:
        scheme = _build_scheme(args, inst, rng)
    except NoQualifyingElement as err:
        print(f"warning: {err}; selecting nothing", file=sys.stderr)
        _write_json({"instance": inst.name, "active": None, "selected": []}, args.out)
        return 1
    a = inst.prior.sample(rng)
    x = scheme.run(inst.matroid, a, rng)
    _write_json(
        {
            "instance": inst.name,
            "scheme": scheme.to_spec(),
            "active": a.elements(),
            "selected": x.elements(),
        },
        args.out,
    )
    return 0


def cmd_evaluate(args) -> int:
    inst = parse_instance(args.instance)
    rng = Random(args.seed)
    try:
        scheme = _build_scheme(args, inst, rng)
    except NoQualifyingElement as err:
        print(f"warning: {err}; nothing to evaluate", file=sys.stderr)
        _write_json({"instance": inst.name, "failed_at_step": err.step}, args.out)
        return 1
    report = estimate_balancedness(
        inst.matroid,
        scheme,
        inst.prior,
        trials=args.trials,
        rng=rng,
        ci_level=args.ci_level,
        metadata={
            "instance": inst.name,
            "scheme": scheme.to_spec(),
            "seed": args.seed,
        },
    )
    if args.out:
        report.write_csv(args.out + ".csv")
        _write_json(report.to_json(), args.out)
    else:
        print("\n".join(report.csv_lines()))
    return 0


def cmd_oracle_alpha(args) -> int:
    inst = parse_instance(args.instance)
    cert = max_uncontentious_alpha(inst.matroid, inst.prior)
    payload = cert.to_json()
    payload["instance"] = inst.name
    payload["alpha_star_float"] = float(cert.alpha_star)
    _write_json(payload, args.out)
    return 0


def cmd_lp_build(args) -> int:
    inst = parse_instance(args.instance)
    build = dict(eps=_eps(args), rng=Random(args.seed), mode=args.mode or "mc",
                 alpha_target=_alpha(args, inst), estimation_override=args.samples)
    if args.reduction == "permutation":
        scheme, report = build_lp_scheme(inst.matroid, inst.prior, **build)
    else:
        scheme, report = build_secretary_reduction(
            inst.matroid, inst.prior, args.secretary, args.competitiveness, **build
        )
    payload = {
        "instance": inst.name,
        "scheme": scheme.to_spec(),
        "report": report.to_json(),
    }
    _write_json(payload, args.out)
    if args.out:
        _write_json(scheme.to_spec(), args.out + ".scheme")
    return 0


def _competitiveness(text: str) -> float:
    """A number in (0, 1]: no online algorithm beats the offline optimum."""
    if not 0 < (c := float(text)) <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return c


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance shorthand or JSON path")
    p.add_argument("--out", default=None, help="output path prefix (stdout if omitted)")


def _add_build(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=to_fraction, default=None, help="default 1/4")
    p.add_argument("--alpha", type=to_fraction, default=None,
                   help="override the instance's declared level (exact, e.g. 5/7)")
    p.add_argument("--mode", choices=MODES, default=None, help="default mc")
    p.add_argument("--samples", type=int, default=None, help="override per-step sample count")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ocrs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="emit an instance JSON")
    _add_io(p)
    p.set_defaults(fn=cmd_gen_instance)

    p = sub.add_parser("preselect", help="preselect an arrival order")
    _add_io(p)
    _add_build(p)
    p.add_argument("--kind", choices=list(_PRESELECT), default="indep")
    p.set_defaults(fn=cmd_preselect)

    p = sub.add_parser("run", help="one online draw")
    _add_io(p)
    _add_build(p)
    p.add_argument("--scheme", required=True)
    p.add_argument("--order", choices=["preselect", "canonical"], help="default preselect")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("evaluate", help="balancedness report over many trials")
    _add_io(p)
    _add_build(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--ci-level", type=float, default=0.99)
    p.add_argument("--scheme", required=True)
    p.add_argument("--order", choices=["preselect", "canonical"], help="default preselect")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("oracle-alpha", help="exact best-achievable balancedness")
    _add_io(p)
    p.set_defaults(fn=cmd_oracle_alpha)

    p = sub.add_parser("lp-build", help="column-generation scheme build")
    _add_io(p)
    _add_build(p)
    p.add_argument("--reduction", choices=["permutation", "secretary"], default="permutation")
    p.add_argument("--secretary", choices=list(SECRETARY_KINDS), default="greedy_by_weight")
    p.add_argument("--competitiveness", type=_competitiveness, default=1.0,
                   help="claimed competitiveness of the secretary algorithm")
    p.set_defaults(fn=cmd_lp_build)
    return parser


def cli_run(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return code
    except BrokenPipeError:  # the reader left early; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
