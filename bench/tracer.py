"""Per-layer tracing for the benchmark, installed from outside the library.

Each layer of ``src/ocrs`` is measured by replacing a function at the name
its caller looks up (a module global or a class attribute) with a wrapper,
and restoring the original afterwards. Calls of about a microsecond are only
counted; the rest are spans. Spans are aggregated as they close rather than
kept as a list, because the Monte-Carlo workloads make millions of them: each
span adds its duration to its parent's child time, and its self time is its
duration minus that child time.
"""

from __future__ import annotations

import functools
import inspect
from random import Random
from time import perf_counter


class CountingRandom(Random):
    """A ``Random`` that counts draws. Overriding both ``random`` and
    ``getrandbits`` keeps ``Random``'s choice of ``_randbelow``, so the
    stream equals that of ``Random`` with the same seed."""

    def __init__(self, seed, counts: dict):
        self.counts = counts  # holds "rng.calls"; swap in a fresh dict per pass
        super().__init__(seed)

    def random(self):
        self.counts["rng.calls"] += 1
        return super().random()

    def getrandbits(self, k):
        self.counts["rng.calls"] += 1
        return super().getrandbits(k)


class Tracer:
    """Counters and span self times for one traced pass."""

    def __init__(self):
        self.counts: dict = {}
        self.self_s: dict = {}
        self._stack: list = []

    def add(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span ``name``; ``after(tracer, result, args,
        kwargs)`` records counters that depend on the call."""
        stack = self._stack
        self_s = self.self_s
        calls = name + ".calls"
        self.counts.setdefault(calls, 0)
        self_s.setdefault(name, 0.0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                self_s[name] += d - frame[0]
                if stack:
                    stack[-1][0] += d
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def counted(self, key: str, fn, accepted: str = ""):
        """Count calls of ``fn``; with ``accepted``, also count truthy results."""
        counts = self.counts
        counts.setdefault(key, 0)
        if not accepted:

            @functools.wraps(fn)
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper
        counts.setdefault(accepted, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            if fn(*args):
                counts[accepted] += 1
                return True
            return False

        return wrapper

    def counted_items(self, key: str, gen_fn):
        """Count the items a generator function yields."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper


class Patches:
    """Replaces attributes and restores them on exit."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, make) -> None:
        original = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def _own_classes(module, attr: str) -> list:
    """Classes defined in ``module`` that define ``attr`` themselves."""
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and attr in vars(obj)
    ]


def _after_simplex(caller: str):
    # Both callers pass the constraint matrices by keyword.
    def after(tr: Tracer, res, args, kwargs):
        c = args[0]
        A_ub = kwargs.get("A_ub") or []
        A_eq = kwargs.get("A_eq") or []
        rows = len(A_ub) + len(A_eq)
        tr.add("simplex.pivots", res.iterations)
        tr.add("simplex.cells", rows * (len(c) + len(A_ub) + rows + 1))
        if caller == "oracle":
            tr.add("oracle.lp_vars", len(c))

    return after


def _after_build(tr: Tracer, res, args, kwargs):
    report = res[1]
    tr.add("lp.iterations", report.iterations)
    tr.add("lp.accepted_columns", len(report.beta_trajectory))


def _after_preselect(tr: Tracer, res, args, kwargs):
    tr.add("preselect.steps", args[0].n)


def _after_stats(samples_arg: int):
    def after(tr: Tracer, res, args, kwargs):
        tr.add("preselect.samples", args[samples_arg])

    return after


def install(tr: Tracer, patches: Patches) -> None:
    """Wrap every traced layer of the ocrs package."""
    from ocrs import harness, lp, matroid, oracle, preselect, priors, schemes

    for cls in _own_classes(priors, "sample_bits"):
        patches.set(cls, "sample_bits", lambda f: tr.span("priors.sample", f))
    for mod in (schemes, preselect):
        patches.set(mod, "t_rho_bits", lambda f: tr.span("sampling.thin", f))
    patches.set(schemes, "prefix_subsample_bits", lambda f: tr.span("sampling.prefix", f))
    patches.set(preselect, "shuffled", lambda f: tr.span("sampling.shuffle", f))

    for cls in _own_classes(schemes, "run_bits"):
        patches.set(cls, "run_bits", lambda f: tr.span("schemes.run", f))
    for mod in (schemes, lp, oracle):
        patches.set(mod, "greedy_ordered_bits", lambda f: tr.span("schemes.greedy", f))
    for mod in (lp, oracle):
        patches.set(mod, "secretary_wrap_bits", lambda f: tr.span("schemes.secretary", f))

    for cls in _own_classes(matroid, "_independent"):
        patches.set(cls, "_independent", lambda f: tr.counted("matroid.independent", f))
    for cls in _own_classes(matroid, "try_add"):
        patches.set(
            cls, "try_add", lambda f: tr.counted("matroid.try_add", f, "matroid.try_add.accepted")
        )
    patches.set(matroid.Matroid, "_basis_bits", lambda f: tr.span("matroid.basis", f))
    for cls in _own_classes(matroid, "_span_of_independent"):
        patches.set(cls, "_span_of_independent", lambda f: tr.span("matroid.span", f))

    patches.set(harness, "estimate_balancedness", lambda f: tr.span("harness.count", f))

    patches.set(preselect, "_preselect", lambda f: tr.span("preselect.run", f, _after_preselect))
    # Sample counts: count_span_stats_independent(M, P, S, rho, m, rng) and
    # count_span_stats_prefix(M, P, S, m, rng).
    for name, m_arg in (("count_span_stats_independent", 4), ("count_span_stats_prefix", 3)):
        patches.set(preselect, name, lambda f, i=m_arg: tr.span("preselect.stats", f, _after_stats(i)))
    for name in ("exact_unspanned_prob_independent", "exact_unspanned_prob_prefix"):
        patches.set(preselect, name, lambda f: tr.span("preselect.exact_prob", f))

    patches.set(lp, "solve_lp", lambda f: tr.span("simplex", f, _after_simplex("lp")))
    patches.set(oracle, "solve_lp", lambda f: tr.span("simplex", f, _after_simplex("oracle")))

    patches.set(lp, "exact_selection_column", lambda f: tr.span("lp.column", f))
    patches.set(lp, "solve_restricted", lambda f: tr.span("lp.restricted", f))
    for name in ("build_lp_scheme", "build_secretary_reduction"):
        patches.set(lp, name, lambda f: tr.span("lp.build", f, _after_build))

    patches.set(oracle, "max_uncontentious_alpha", lambda f: tr.span("oracle.alpha", f))
    patches.set(oracle, "independent_subsets", lambda f: tr.span("oracle.enum", f))
    patches.set(oracle, "exact_balancedness", lambda f: tr.span("oracle.exact_bal", f))
    patches.set(oracle, "_scheme_randomness", lambda f: tr.counted_items("oracle.outcomes", f))
