"""One-shot verification matrix over the built-in families and instances.

Each check reproduces a known exact result with default, in-budget parameters
and reports pass/fail with a short witness on failure.  The CLI's ``verify``
command runs the registry; individual check functions are importable so a
deliberately corrupted oracle can be pushed through them (fault injection).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    SetFunctionOracle,
    approximation_ratio,
    greedy_adaptive,
    indices_of,
    optimum_profile,
    optimum_value,
)
from .audit import (
    check_alpha_augmentable,
    check_gamma_alpha_augmentable,
    min_alpha_for,
    weak_submodularity_ratio,
)
from .independence import (
    check_exchange_equivalences,
    random_downward_closed_system,
    rank_quotient,
    uniform_matroid,
    weighted_rank_oracle,
)
from .families import (
    CriticalParams,
    critical_ratio_closed_form,
    make_critical_function,
    make_modular,
    make_rank_separator,
    make_ratio_separator,
    make_square_cardinality,
)
from . import flows

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    detail: str = ""


def _fail(check_id: str, detail: str) -> CheckResult:
    return CheckResult(check_id, False, detail)


def _ok(check_id: str) -> CheckResult:
    return CheckResult(check_id, True)


def critical_pick_order_check(oracle: SetFunctionOracle | None = None) -> CheckResult:
    """Greedy on critical(1, 1, 3) must take the A block in index order with
    the geometric gains, then the B block in index order.  Accepts a
    replacement oracle so a corrupted gain table can be shown to fail."""
    check_id = "critical-pick-order"
    k = 3
    f = oracle if oracle is not None else make_critical_function(1, 1, k)
    trace = greedy_adaptive(f, 2 * k, tie="low")
    expected_gains = CriticalParams(Fraction(1), Fraction(1), k).step_gains()
    for i in range(2 * k):
        expected_pick = i
        if trace.picks[i] != expected_pick:
            return _fail(
                check_id,
                f"step {i + 1}: picked {f.ground.label(trace.picks[i])}, "
                f"expected {f.ground.label(expected_pick)}",
            )
        if i < k and trace.gains[i] != expected_gains[i]:
            return _fail(
                check_id,
                f"step {i + 1}: gain {trace.gains[i]} differs from geometric {expected_gains[i]}",
            )
    return _ok(check_id)


def critical_ratio_check() -> CheckResult:
    check_id = "critical-ratio-tightness"
    for gamma, alpha, k in ((1, 1, 3), (HALF, 1, 3), (1, 2, 3), (HALF, HALF, 2)):
        f = make_critical_function(gamma, alpha, k)
        ratio, witness_k = approximation_ratio(f)
        closed = critical_ratio_closed_form(gamma, alpha, k)
        if ratio != closed or witness_k != k:
            return _fail(
                check_id,
                f"(gamma={gamma},alpha={alpha},k={k}): measured {ratio} at k={witness_k}, "
                f"closed form {closed} at k={k}",
            )
    return _ok(check_id)


def critical_weak_membership_check() -> CheckResult:
    check_id = "critical-weak-membership"
    for gamma, alpha, k in ((1, 1, 3), (HALF, 1, 4), (Fraction(1, 4), 2, 3)):
        report = check_gamma_alpha_augmentable(
            make_critical_function(gamma, alpha, k), gamma, alpha, scope="weak"
        )
        if not report.member:
            w = report.witness
            return _fail(
                check_id,
                f"(gamma={gamma},alpha={alpha},k={k}) rejected at "
                f"X={indices_of(w.x_set)}, Y={indices_of(w.y_set)}",
            )
    return _ok(check_id)


def critical_strong_separation_check() -> CheckResult:
    check_id = "critical-strong-separation"
    for alpha, k in ((1, 2), (2, 3)):
        if not check_alpha_augmentable(make_critical_function(1, alpha, k), alpha).member:
            return _fail(check_id, f"unit-gamma instance (alpha={alpha},k={k}) rejected")
    f = make_critical_function(HALF, 1, 3)
    for alpha in (1, 2):
        report = check_alpha_augmentable(f, alpha)
        if report.member:
            return _fail(check_id, f"gamma=1/2 instance accepted at alpha={alpha}")
        w = report.witness
        if w.lhs >= w.rhs:
            return _fail(check_id, "witness does not re-verify")
    return _ok(check_id)


def ratio_separator_check() -> CheckResult:
    check_id = "ratio-separator"
    for gamma in (HALF, Fraction(3, 4)):
        f = make_ratio_separator(gamma)
        measured = weak_submodularity_ratio(f).value
        if measured != gamma:
            return _fail(check_id, f"weak ratio {measured} != {gamma}")
        for alpha in (1, 2, 4):
            if check_alpha_augmentable(f, alpha).member:
                return _fail(check_id, f"accepted at alpha={alpha} despite the pair jump")
        if not check_gamma_alpha_augmentable(f, gamma, gamma).member:
            return _fail(check_id, f"not weakly {gamma}-{gamma}-augmentable")
    return _ok(check_id)


def rank_separator_check() -> CheckResult:
    check_id = "rank-separator"
    system, f = make_rank_separator(HALF, 1, 1, 2)
    q = rank_quotient(system).quotient
    if q != HALF:
        return _fail(check_id, f"rank quotient {q} != 1/2")
    ratio = weak_submodularity_ratio(f, tie="high")
    if ratio.value != 0:
        return _fail(check_id, f"weak ratio {ratio.value} != 0 under the saturating policy")
    tight = min_alpha_for(f, 1, tie="high")
    if tight != 1 / q:
        return _fail(check_id, f"tightest alpha {tight} != 1/q = {1 / q}")
    return _ok(check_id)


def square_check() -> CheckResult:
    check_id = "square-escapes-classes"
    f = make_square_cardinality(3)
    for alpha in (HALF, 1, 2):
        report = check_gamma_alpha_augmentable(f, HALF, alpha)
        if report.member:
            return _fail(check_id, f"accepted at alpha={alpha}")
        if report.witness.x_set != 0:
            return _fail(check_id, "expected the empty set as the violating X")
    ratio, _ = approximation_ratio(f)
    if ratio != 1:
        return _fail(check_id, f"greedy is supposed to be optimal, measured ratio {ratio}")
    return _ok(check_id)


def two_sink_check() -> CheckResult:
    check_id = "two-sink-values"
    inst = flows.make_two_sink_instance(2)
    f = flows.objective_oracle(inst)
    values = [f.value(m) for m in range(4)]
    if values != [0, 2, 2, 3]:
        return _fail(check_id, f"values {values} != [0, 2, 2, 3]")
    # No weight assignment reproduces these values additively or by max.
    if values[3] in (values[1] + values[2], max(values[1], values[2])):
        return _fail(check_id, "values would admit a weighted rank representation")
    if not check_alpha_augmentable(f, inst.commodities).member:
        return _fail(check_id, "not augmentable at the instance's commodity count")
    return _ok(check_id)


def zero_ratio_check() -> CheckResult:
    check_id = "zero-ratio-instance"
    inst = flows.make_zero_ratio_instance(2)
    f = flows.objective_oracle(inst)
    trace = greedy_adaptive(f, 1)
    if f.ground.label(trace.picks[0]) != "t2":
        return _fail(check_id, f"first pick {f.ground.label(trace.picks[0])} != t2")
    ratio = weak_submodularity_ratio(f)
    if ratio.value != 0:
        return _fail(check_id, f"weak ratio {ratio.value} != 0")
    if not check_alpha_augmentable(f, 2).member:
        return _fail(check_id, "rejected at the instance's commodity count")
    if check_alpha_augmentable(f, 1).member:
        return _fail(check_id, "accepted at one commodity; separation lost")
    return _ok(check_id)


def staircase_check() -> CheckResult:
    check_id = "staircase-family"
    alpha, k = 1, 2
    inst = flows.make_lower_bound_instance(alpha, k)
    f = flows.objective_oracle(inst)
    trace = greedy_adaptive(f, alpha * k)
    if [f.ground.label(p) for p in trace.picks] != ["t1", "t2"]:
        return _fail(check_id, f"pick order {[f.ground.label(p) for p in trace.picks]}")
    scale = flows.capacity_scale(k)
    if trace.values[alpha * k] != k * (scale ** (alpha * k) - 1):
        return _fail(check_id, f"greedy value {trace.values[alpha * k]}")
    best = optimum_value(f, alpha * k, upper_bound=flows.excess_upper_bound(inst))
    if best != alpha * k * scale ** (alpha * k):
        return _fail(check_id, f"optimum {best}")
    measured = best / trace.values[alpha * k]
    closed = flows.lower_bound_ratio_closed_form(alpha, k)
    if measured != closed:
        return _fail(check_id, f"ratio {measured} != closed form {closed}")
    for n in range(1, 2 * k + 1):
        if 1 + sum(scale ** j for j in range(1, n + 1)) / k != scale ** n:
            return _fail(check_id, f"geometric capacity identity fails at n={n}")
    return _ok(check_id)


def _small_corpus():
    corpus = [
        ("modular", make_modular([3, 1, 2]), None),
        ("critical-1-1-2", make_critical_function(1, 1, 2), None),
        ("critical-h-1-2", make_critical_function(HALF, 1, 2), None),
        ("ratio-sep", make_ratio_separator(HALF), None),
        ("square", make_square_cardinality(3), None),
    ]
    um = uniform_matroid(4, 2, [3, 1, 2, 2])
    corpus.append(("uniform", weighted_rank_oracle(um), um))
    system, f = make_rank_separator(HALF, 1, 1, 2)
    corpus.append(("rank-sep", f, system))
    two = flows.make_two_sink_instance(2)
    corpus.append(("two-sink", flows.objective_oracle(two), None))
    zero = flows.make_zero_ratio_instance(2)
    corpus.append(("zero-ratio", flows.objective_oracle(zero), None))
    return corpus


def containment_check() -> CheckResult:
    """Class containments: strong alpha implies weak 1-alpha; weak ratio g
    implies weak g-g; rank quotient q implies weak gamma-(gamma/q)."""
    check_id = "containment-implications"
    for name, f, system in _small_corpus():
        for alpha in (1, 2):
            if check_alpha_augmentable(f, alpha).member:
                if not check_gamma_alpha_augmentable(f, 1, alpha, scope="weak").member:
                    return _fail(check_id, f"{name}: strong alpha={alpha} but weak 1-{alpha} fails")
        g = weak_submodularity_ratio(f).value
        if g > 0 and not check_gamma_alpha_augmentable(f, g, g, scope="weak").member:
            return _fail(check_id, f"{name}: weak ratio {g} but weak {g}-{g} fails")
        if system is not None:
            q = rank_quotient(system).quotient
            for gamma in (HALF, Fraction(1)):
                if not check_gamma_alpha_augmentable(f, gamma, gamma / q, scope="weak").member:
                    return _fail(check_id, f"{name}: quotient {q} but weak {gamma}-{gamma / q} fails")
    return _ok(check_id)


def independence_bound_check() -> CheckResult:
    """On weighted rank functions the class guarantee strengthens to
    gamma/alpha at every cardinality, and the greedy chain satisfies the
    extension equivalences step by step."""
    check_id = "independence-bound"
    rng = random.Random(20240817)
    systems = [random_downward_closed_system(6, rng) for _ in range(4)]
    systems.append(make_rank_separator(HALF, 1, 1, 2)[0])
    for system in systems:
        f = weighted_rank_oracle(system)
        alpha = min_alpha_for(f, 1)
        if alpha == float("inf"):
            return _fail(check_id, f"{system.name}: no finite alpha")
        if not check_gamma_alpha_augmentable(f, 1, alpha, scope="weak").member:
            return _fail(check_id, f"{system.name}: audit fails at its own tightest alpha")
        trace = greedy_adaptive(f, f.n)
        profile = optimum_profile(f)
        for k in range(1, f.n + 1):
            if alpha * trace.values[k] < profile[k].best_value:
                return _fail(
                    check_id,
                    f"{system.name}: k={k} greedy {trace.values[k]} below "
                    f"{profile[k].best_value}/{alpha}",
                )
        report = check_exchange_equivalences(system)
        if not report.ok:
            v = report.violations[0]
            return _fail(check_id, f"{system.name}: exchange equivalence broken at step {v.step}")
    return _ok(check_id)


CHECKS: list[tuple[str, Callable[[], CheckResult]]] = [
    ("critical-ratio-tightness", critical_ratio_check),
    ("critical-pick-order", critical_pick_order_check),
    ("critical-weak-membership", critical_weak_membership_check),
    ("critical-strong-separation", critical_strong_separation_check),
    ("ratio-separator", ratio_separator_check),
    ("rank-separator", rank_separator_check),
    ("square-escapes-classes", square_check),
    ("two-sink-values", two_sink_check),
    ("zero-ratio-instance", zero_ratio_check),
    ("staircase-family", staircase_check),
    ("containment-implications", containment_check),
    ("independence-bound", independence_bound_check),
]


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    """Run the registry; ``name_filter`` keeps checks whose id contains it.

    An explicitly empty filter selects nothing (and therefore passes).
    """
    results = []
    for check_id, fn in CHECKS:
        if name_filter is not None and (name_filter == "" or name_filter not in check_id):
            continue
        results.append(fn())
    return results
