"""Spans around the public calls of each greedyaug layer, and the per-layer
metrics computed from them.

The program is not edited: ``install`` replaces public functions in the
freshly imported greedyaug modules with wrappers that record spans (name,
start, end, parent, job) in memory.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import inspect
import statistics
import time
from math import comb

# Span names whose union of intervals is the instance/oracle construction time.
CONSTRUCTORS = {
    "families.make_critical_function",
    "families.make_ratio_separator",
    "families.make_rank_separator",
    "families.make_square_cardinality",
    "families.make_modular",
    "families.oracle_from_descriptor",
    "flows.make_lower_bound_instance",
    "flows.make_two_sink_instance",
    "flows.make_zero_ratio_instance",
    "flows.objective_oracle",
    "independence.uniform_matroid",
    "independence.weighted_rank_oracle",
}
# Oracle kinds, set by the constructor that returned the oracle; oracles the
# benchmark builds itself from tables stay "table".
ORACLE_KIND = {
    "families.make_critical_function": "family",
    "families.make_ratio_separator": "family",
    "families.make_square_cardinality": "family",
    "families.make_modular": "family",
    "independence.weighted_rank_oracle": "rank",
    "flows.objective_oracle": "lp",
}
WRAPPED = {
    "core": ("greedy_adaptive", "optimum_profile", "optimum_value", "brute_force_optimum",
             "approximation_ratio"),
    "audit": ("check_alpha_augmentable", "check_gamma_alpha_augmentable", "min_alpha_for",
              "weak_submodularity_ratio"),
    "exactlp": ("maximize",),
    "flows": ("evaluate_objective", "max_flow", "objective_oracle", "make_lower_bound_instance",
              "make_two_sink_instance", "make_zero_ratio_instance"),
    "families": ("make_critical_function", "make_ratio_separator", "make_rank_separator",
                 "make_square_cardinality", "make_modular", "oracle_from_descriptor"),
    "independence": ("rank_quotient", "weighted_rank_oracle", "uniform_matroid"),
    "cli": ("main",),
}
AUDITS = ("audit.check_alpha_augmentable", "audit.check_gamma_alpha_augmentable",
          "audit.min_alpha_for", "audit.weak_submodularity_ratio")
OPTIMA = ("core.optimum_profile", "core.optimum_value", "core.brute_force_optimum")
MAX_SINKS = 16
VERIFY_CHECKS = (
    "critical-ratio-tightness", "critical-pick-order", "critical-weak-membership",
    "critical-strong-separation", "ratio-separator", "rank-separator", "square-escapes-classes",
    "two-sink-values", "zero-ratio-instance", "staircase-family", "containment-implications",
    "independence-bound",
)
CLI_COMMANDS = ("trace", "audit", "ratio-table", "verify-paper", "gen-instance")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("core.oracle_calls", "count"),
        ("core.oracle_misses", "count"),
        ("core.oracle_hit_rate", "ratio"),
        ("core.greedy_step_s", "s"),
        ("core.optimum_self_s", "s"),
        ("core.prune_skip_frac", "ratio"),
        ("audit.strong_pairs", "count"),
        ("audit.strong_pairs_per_s", "1/s"),
        ("audit.weak_pairs_per_s", "1/s"),
        ("audit.min_alpha_s", "s"),
        ("audit.self_s", "s"),
        ("exactlp.solves", "count"),
        ("exactlp.pivots", "count"),
        ("exactlp.pivots_per_solve", "count"),
        ("exactlp.solve_p50_s", "s"),
        ("exactlp.solve_p90_s", "s"),
        ("exactlp.cells_per_solve", "count"),
    ]
    + [(f"exactlp.pivots_per_solve.x{n}", "count") for n in range(1, MAX_SINKS + 1)]
    + [(f"exactlp.solve_mean_s.x{n}", "s") for n in range(1, MAX_SINKS + 1)]
    + [
        ("flows.evaluations", "count"),
        ("flows.model_self_s", "s"),
        ("flows.max_flow_s", "s"),
        ("families.build_s", "s"),
        ("families.eval_s", "s"),
        ("independence.rank_quotient_s", "s"),
        ("independence.sets_per_s", "1/s"),
        ("independence.rank_eval_s", "s"),
        ("cli.self_s", "s"),
    ]
    + [(f"cli.command_s.{c}", "s") for c in CLI_COMMANDS]
    + [(f"verify.check_s.{c}", "s") for c in VERIFY_CHECKS]
    + [("trace.overhead_frac", "ratio")]
)


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, job, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = "setup"
        self.oracle_calls = 0
        self.oracle_misses = 0
        self.last_greedy: dict[int, object] = {}  # parent span -> GreedyTrace
        self.oracle_kind: dict[int, str] = {}  # id(oracle) -> kind
        self.seen: dict[int, set] = {}  # id(oracle) -> masks requested so far
        self.alive: list = []  # keeps traced oracles alive so ids stay unique
        self.raw_value = None  # the unwrapped SetFunctionOracle.value

    def open(self, name: str, info: dict | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.parent(), self.job, info])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def parent(self) -> int:
        return self.stack[-1] if self.stack else -1


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(idx, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], cursor), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def union_length(intervals) -> float:
    total = 0.0
    cursor = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _saturation_prefixes(trace) -> list[int]:
    # Chain prefixes up to the first non-improving pick: the weak audit scope.
    sat = next((i for i, g in enumerate(trace.gains) if g <= 0), len(trace.picks))
    return list(trace.chain[: sat + 1])


def min_alpha_pairs(value, n: int, xs, existential: str, gamma, finite: bool) -> int:
    """Pairs (X, Y) that ``min_alpha_for`` examines over the scope sets ``xs``.

    A finite result means every pair with Y not inside X was examined.  An
    infinite one stops at the first pair with f(X) = 0 whose best gain falls
    short, so that scan is replayed on the (cached) values.
    """
    full = 1 << n
    pairs = 0
    for x in xs:
        in_scope = full - (1 << x.bit_count())
        if finite or value(x) != 0:
            pairs += in_scope
            continue
        fx = value(x)
        gain = [None] * n
        for y in range(n):
            if x >> y & 1:
                if existential == "full":
                    gain[y] = 0
            else:
                gain[y] = value(x | (1 << y)) - fx
        best = [None] * full
        for y_set in range(1, full):
            low = y_set & -y_set
            g, prev = gain[low.bit_length() - 1], best[y_set ^ low]
            best[y_set] = g if prev is None else (prev if g is None or prev >= g else g)
        for y_set in range(1, full):
            if y_set & ~x == 0:
                continue
            pairs += 1
            if gamma * value(x | y_set) - best[y_set] * y_set.bit_count() > 0:
                return pairs
    return pairs


def install(ga) -> Tracer:
    """Wrap the public calls of freshly imported greedyaug modules."""
    tracer = Tracer()
    modules = [m for m in vars(ga).values() if inspect.ismodule(m)]

    def replace(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def register(result, kind):
        for obj in result if isinstance(result, tuple) else (getattr(result, "oracle", result),):
            if isinstance(obj, ga.core.SetFunctionOracle):
                tracer.oracle_kind.setdefault(id(obj), kind)
                tracer.alive.append(obj)

    def wrap(fn, name):
        signature = inspect.signature(fn)
        kind = ORACLE_KIND.get(name)
        needs_info = name in AUDITS or name in ("core.greedy_adaptive", "core.optimum_value",
                                                "exactlp.maximize", "independence.rank_quotient",
                                                "cli.main")

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            calls_before = tracer.oracle_calls
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if kind is not None:
                register(result, kind)
            if needs_info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx][5] = _span_info(
                    tracer, ga, name, idx, bound.arguments, result,
                    tracer.oracle_calls - calls_before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    for module_name, names in WRAPPED.items():
        module = getattr(ga, module_name)
        for fn_name in names:
            original = getattr(module, fn_name)
            replace(original, wrap(original, f"{module_name}.{fn_name}"))

    checks = ga.verify.CHECKS
    for i, (check_id, fn) in enumerate(checks):
        checks[i] = (check_id, wrap(fn, f"verify.{check_id}"))

    oracle_cls = ga.core.SetFunctionOracle
    original_value = oracle_cls.value
    seen = tracer.seen

    def value(self, mask):
        tracer.oracle_calls += 1
        masks = seen.get(id(self))
        if masks is None:
            masks = seen[id(self)] = set()
            tracer.alive.append(self)
        if mask in masks:
            return original_value(self, mask)
        masks.add(mask)
        tracer.oracle_misses += 1
        idx = tracer.open("core.oracle_miss", {"kind": tracer.oracle_kind.get(id(self), "table")})
        try:
            return original_value(self, mask)
        finally:
            tracer.close(idx)

    oracle_cls.value = value
    oracle_cls.__call__ = value
    tracer.raw_value = original_value
    return tracer


def _span_info(tracer, ga, name, idx, args, result, oracle_calls) -> dict:
    if name == "core.greedy_adaptive":
        tracer.last_greedy[tracer.parent()] = result
        return {"picks": len(result.picks)}
    if name == "core.optimum_value":
        if args.get("upper_bound") is None:
            return {}
        f, k = args["f"], args["k"]
        return {"candidates": sum(comb(f.n, i) for i in range(k + 1)), "evaluated": oracle_calls}
    if name == "exactlp.maximize":
        objective = args["objective"]
        return {
            "pivots": result.iterations,
            "cells": len(args["rows"]) * len(objective),
            "sinks": sum(1 for c in objective if c),
        }
    if name == "independence.rank_quotient":
        return {"sets": result.checked_sets}
    if name == "cli.main":
        argv = args.get("argv") or []
        return {"command": argv[0] if argv else ""}
    # audits
    f = args["f"]
    scope = args.get("scope", "weak")
    if name == "audit.weak_submodularity_ratio":
        return {"scope": "weak", "pairs": result.checked_pairs}
    if name == "audit.min_alpha_for":
        if scope == "strong":
            xs = range(1 << f.n)
        else:
            xs = _saturation_prefixes(tracer.last_greedy[idx])
        value = lambda mask: tracer.raw_value(f, mask)  # noqa: E731
        gamma = ga.core.as_fraction(args["gamma"])
        pairs = min_alpha_pairs(value, f.n, xs, args["existential"], gamma,
                                result != float("inf"))
        return {"scope": scope, "pairs": pairs}
    return {"scope": scope, "pairs": result.checked_pairs}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_frac excluded)."""
    spans = tracer.spans  # a call that raised has no info (None) and no counts
    own = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    m: dict[str, float] = {}

    def total(pred, values=dur):
        return sum(v for s, v in zip(spans, values) if pred(s))

    def ratio(a, b):
        return a / b if b else 0.0

    m["core.oracle_calls"] = tracer.oracle_calls
    m["core.oracle_misses"] = tracer.oracle_misses
    m["core.oracle_hit_rate"] = ratio(tracer.oracle_calls - tracer.oracle_misses,
                                      tracer.oracle_calls)
    greedy = [i for i, s in enumerate(spans) if s[0] == "core.greedy_adaptive" and s[5]]
    m["core.greedy_step_s"] = ratio(sum(dur[i] for i in greedy),
                                    sum(spans[i][5]["picks"] for i in greedy))
    m["core.optimum_self_s"] = total(lambda s: s[0] in OPTIMA, own)
    bounded = [s[5] for s in spans if s[0] == "core.optimum_value" and s[5]]
    candidates = sum(b["candidates"] for b in bounded)
    m["core.prune_skip_frac"] = ratio(candidates - sum(b["evaluated"] for b in bounded),
                                      candidates)

    audits = [(s[5], d) for s, d in zip(spans, dur) if s[0] in AUDITS and s[5]]
    strong = [(i, d) for i, d in audits if i["scope"] == "strong"]
    weak = [(i, d) for i, d in audits if i["scope"] == "weak"]
    m["audit.strong_pairs"] = sum(i["pairs"] for i, _ in strong)
    m["audit.strong_pairs_per_s"] = ratio(m["audit.strong_pairs"], sum(d for _, d in strong))
    m["audit.weak_pairs_per_s"] = ratio(sum(i["pairs"] for i, _ in weak), sum(d for _, d in weak))
    m["audit.min_alpha_s"] = total(lambda s: s[0] == "audit.min_alpha_for")
    m["audit.self_s"] = total(lambda s: s[0] in AUDITS, own)

    solves = [(s[5], d) for s, d in zip(spans, dur) if s[0] == "exactlp.maximize" and s[5]]
    times = sorted(d for _, d in solves)
    m["exactlp.solves"] = len(solves)
    m["exactlp.pivots"] = sum(i["pivots"] for i, _ in solves)
    m["exactlp.pivots_per_solve"] = ratio(m["exactlp.pivots"], len(solves))
    m["exactlp.solve_p50_s"] = _quantile(times, 0.5)
    m["exactlp.solve_p90_s"] = _quantile(times, 0.9)
    m["exactlp.cells_per_solve"] = ratio(sum(i["cells"] for i, _ in solves), len(solves))
    for n in range(1, MAX_SINKS + 1):
        group = [(i, d) for i, d in solves if i["sinks"] == n]
        m[f"exactlp.pivots_per_solve.x{n}"] = ratio(sum(i["pivots"] for i, _ in group), len(group))
        m[f"exactlp.solve_mean_s.x{n}"] = ratio(sum(d for _, d in group), len(group))

    m["flows.evaluations"] = sum(1 for s in spans if s[0] == "flows.evaluate_objective")
    m["flows.model_self_s"] = total(lambda s: s[0] == "flows.evaluate_objective", own)
    m["flows.max_flow_s"] = total(lambda s: s[0] == "flows.max_flow")

    m["families.build_s"] = union_length((s[1], s[2]) for s in spans if s[0] in CONSTRUCTORS)
    m["families.eval_s"] = total(lambda s: s[0] == "core.oracle_miss" and s[5]["kind"] == "family")

    m["independence.rank_quotient_s"] = total(lambda s: s[0] == "independence.rank_quotient")
    m["independence.sets_per_s"] = ratio(
        sum(s[5]["sets"] for s in spans if s[0] == "independence.rank_quotient" and s[5]),
        m["independence.rank_quotient_s"])
    m["independence.rank_eval_s"] = total(
        lambda s: s[0] == "core.oracle_miss" and s[5]["kind"] == "rank")

    m["cli.self_s"] = total(lambda s: s[0] == "cli.main", own)
    for command in CLI_COMMANDS:
        m[f"cli.command_s.{command}"] = total(
            lambda s: s[0] == "cli.main" and (s[5] or {}).get("command") == command)
    for check in VERIFY_CHECKS:
        m[f"verify.check_s.{check}"] = total(lambda s: s[0] == f"verify.{check}")
    return m


def _quantile(sorted_values, q: float) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def spans_json(tracer: Tracer) -> list:
    """Spans in a JSON-friendly form: name, start, end, parent, job."""
    return [[s[0], s[1], s[2], s[3], s[4]] for s in tracer.spans]
