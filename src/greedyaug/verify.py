"""One-shot verification matrix over the built-in families and instances.

Each check reproduces a known exact result with default, in-budget parameters
and reports pass/fail with a short witness on failure.  A check is one
per-case function run over a few cases: the function takes one case (its
parameters, or an oracle with its backing system), builds what it needs and
returns "" when the case reproduces the result, the failure detail otherwise.
``CHECKS`` runs each function over the CLI's own cases, built when the check
runs so that every run gets fresh oracles.  The acceptance gate
(``tests/test_acceptance.py``) calls the same functions over wider grids, so a
check means the same thing whichever of the two runs it.  A fault pushed
through a function (a corrupted oracle, or a name in this module replaced)
must come out as a non-empty detail; the tests show that for each of them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable

from .core import (
    Record,
    SetFunctionOracle,
    _greedy_against_optimum,
    approximation_ratio,
    greedy_adaptive,
    indices_of,
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


class CheckResult(Record):
    check_id: str
    ok: bool
    detail: str = ""


def critical_pick_order_case(oracle: SetFunctionOracle | None = None) -> str:
    """Greedy on critical(1, 1, 3) must take the A block in index order with
    the geometric gains, then the B block in index order.  Accepts a
    replacement oracle so a corrupted gain table can be shown to fail."""
    k = 3
    f = oracle if oracle is not None else make_critical_function(1, 1, k)
    trace = greedy_adaptive(f, 2 * k, tie="low")
    expected_gains = CriticalParams(Fraction(1), Fraction(1), k).step_gains()
    for i, pick in enumerate(trace.picks):
        if pick != i:
            return f"step {i + 1}: picked {f.ground.label(pick)}, expected {f.ground.label(i)}"
        if i < k and trace.gains[i] != expected_gains[i]:
            return f"step {i + 1}: gain {trace.gains[i]} differs from geometric {expected_gains[i]}"
    return ""


def critical_ratio_case(gamma, alpha, k: int) -> str:
    """Greedy's ratio on critical(gamma, alpha, k) is the closed form, reached at k."""
    ratio, witness_k = approximation_ratio(make_critical_function(gamma, alpha, k))
    closed = critical_ratio_closed_form(gamma, alpha, k)
    if ratio != closed or witness_k != k:
        return (
            f"(gamma={gamma},alpha={alpha},k={k}): measured {ratio} at k={witness_k}, "
            f"closed form {closed} at k={k}"
        )
    return ""


def critical_weak_case(gamma, alpha, k: int) -> str:
    """critical(gamma, alpha, k) is weakly gamma-alpha-augmentable."""
    report = check_gamma_alpha_augmentable(
        make_critical_function(gamma, alpha, k), gamma, alpha, scope="weak"
    )
    if report.member:
        return ""
    w = report.witness
    return (
        f"(gamma={gamma},alpha={alpha},k={k}) rejected at "
        f"X={indices_of(w.x_set)}, Y={indices_of(w.y_set)}"
    )


def critical_strong_case(gamma, alpha, k: int, probe) -> str:
    """The strong audit at alpha = ``probe`` accepts critical(gamma, alpha, k)
    exactly when gamma = 1.  A rejection's witness must re-derive from f.value:
    lhs is the best gain of an element of Y minus X, rhs is
    (f(X+Y) - probe*f(X))/|Y|, and lhs < rhs."""
    f = make_critical_function(gamma, alpha, k)
    report = check_alpha_augmentable(f, probe)
    name = f"critical(gamma={gamma},alpha={alpha},k={k})"
    if gamma == 1:
        return "" if report.member else f"{name} rejected at alpha={probe}"
    if report.member:
        return f"{name} accepted at alpha={probe}"
    w = report.witness
    fx = f.value(w.x_set)
    lhs = max(f.value(w.x_set | 1 << y) - fx for y in indices_of(w.y_set & ~w.x_set))
    rhs = (f.value(w.x_set | w.y_set) - probe * fx) / w.y_set.bit_count()
    if lhs != w.lhs or rhs != w.rhs or lhs >= rhs:
        return f"{name}: witness at alpha={probe} does not re-verify"
    return ""


def ratio_separator_case(gamma) -> str:
    """The plateau objective has weak ratio gamma and is weakly
    gamma-gamma-augmentable, yet no alpha in {1, 2, 4} covers it."""
    f = make_ratio_separator(gamma)
    measured = weak_submodularity_ratio(f).value
    if measured != gamma:
        return f"weak ratio {measured} != {gamma}"
    for alpha in (1, 2, 4):
        if check_alpha_augmentable(f, alpha).member:
            return f"gamma={gamma}: accepted at alpha={alpha} despite the pair jump"
    if not check_gamma_alpha_augmentable(f, gamma, gamma).member:
        return f"not weakly {gamma}-{gamma}-augmentable"
    return ""


def rank_separator_case() -> str:
    """rank_separator(1/2, 1, 1, 2): quotient 1/2; under the saturating tie
    policy weak ratio 0 at X = {c}, Y = {b1, b2}, and tightest alpha 1/q."""
    system, f = make_rank_separator(HALF, 1, 1, 2)
    q = rank_quotient(system).quotient
    if q != HALF:
        return f"rank quotient {q} != 1/2"
    ratio = weak_submodularity_ratio(f, tie="high")
    if ratio.value != 0:
        return f"weak ratio {ratio.value} != 0 under the saturating policy"
    labels = [[f.ground.label(i) for i in indices_of(s)] for s in (ratio.x_set, ratio.y_set)]
    if labels != [["c"], ["b1", "b2"]]:
        return f"weak ratio witness X={labels[0]}, Y={labels[1]}, not X=['c'], Y=['b1', 'b2']"
    tight = min_alpha_for(f, 1, tie="high")
    if tight != 1 / q:
        return f"tightest alpha {tight} != 1/q = {1 / q}"
    return ""


def square_case() -> str:
    """|X|**2 on three elements is greedy-optimal, yet fails every audit at
    gamma = 1/2 at the empty X."""
    f = make_square_cardinality(3)
    for alpha in (HALF, 1, 2):
        report = check_gamma_alpha_augmentable(f, HALF, alpha)
        if report.member:
            return f"accepted at alpha={alpha}"
        if report.witness.x_set != 0:
            return "expected the empty set as the violating X"
    ratio, _ = approximation_ratio(f)
    if ratio != 1:
        return f"greedy is supposed to be optimal, measured ratio {ratio}"
    return ""


def two_sink_case() -> str:
    """two_sink(2) has values 0/2/2/3 and is augmentable at its commodity count."""
    inst = flows.make_two_sink_instance(2)
    f = flows.objective_oracle(inst)
    values = [f.value(m) for m in range(4)]
    if values != [0, 2, 2, 3]:
        return f"values {values} != [0, 2, 2, 3]"
    # No weight assignment reproduces these values additively or by max.
    if values[3] in (values[1] + values[2], max(values[1], values[2])):
        return "values would admit a weighted rank representation"
    if not check_alpha_augmentable(f, inst.commodities).member:
        return "not augmentable at the instance's commodity count"
    return ""


def zero_ratio_case() -> str:
    """zero_ratio(2): first pick t2, weak ratio 0, augmentable at its commodity
    count but not at one commodity."""
    inst = flows.make_zero_ratio_instance(2)
    f = flows.objective_oracle(inst)
    trace = greedy_adaptive(f, 1)
    if f.ground.label(trace.picks[0]) != "t2":
        return f"first pick {f.ground.label(trace.picks[0])} != t2"
    ratio = weak_submodularity_ratio(f)
    if ratio.value != 0:
        return f"weak ratio {ratio.value} != 0"
    if not check_alpha_augmentable(f, inst.commodities).member:
        return "rejected at the instance's commodity count"
    if check_alpha_augmentable(f, 1).member:
        return "accepted at one commodity; separation lost"
    return ""


def staircase_case(alpha: int, k: int) -> str:
    """gk(alpha, k): greedy walks t1..t_{alpha*k}; its value, the optimum,
    their quotient and the full ratio sweep match the closed forms; and the
    capacities obey the geometric identity."""
    steps = alpha * k
    inst = flows.make_lower_bound_instance(alpha, k)
    f = flows.objective_oracle(inst)
    trace = greedy_adaptive(f, steps)
    picks = [f.ground.label(p) for p in trace.picks]
    if picks != [f"t{j}" for j in range(1, steps + 1)]:
        return f"pick order {picks}"
    scale = flows.capacity_scale(k)
    if trace.values[steps] != k * (scale ** steps - 1):
        return f"greedy value {trace.values[steps]}"
    best = optimum_value(f, steps, upper_bound=flows.excess_upper_bound(inst))
    if best != steps * scale ** steps:
        return f"optimum {best}"
    measured = best / trace.values[steps]
    closed = flows.lower_bound_ratio_closed_form(alpha, k)
    if measured != closed:
        return f"ratio {measured} != closed form {closed}"
    swept = approximation_ratio(f)
    if swept != (closed, steps):
        return f"approximation_ratio {swept} != ({closed}, {steps})"
    for n in range(1, 2 * steps + 1):
        if 1 + sum(scale ** j for j in range(1, n + 1)) / k != scale ** n:
            return f"geometric capacity identity fails at n={n}"
    return ""


def small_corpus():
    """Named (oracle, backing independence system or None) triples, built afresh."""
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


def containment_case(name: str, f: SetFunctionOracle, system) -> str:
    """Class containments: strong alpha implies weak 1-alpha; weak ratio g
    implies weak g-g; rank quotient q > 0 implies weak gamma-(gamma/q)."""
    for alpha in (1, 2):
        if check_alpha_augmentable(f, alpha).member:
            if not check_gamma_alpha_augmentable(f, 1, alpha, scope="weak").member:
                return f"{name}: strong alpha={alpha} but weak 1-{alpha} fails"
    g = weak_submodularity_ratio(f).value
    if g > 0 and not check_gamma_alpha_augmentable(f, g, g, scope="weak").member:
        return f"{name}: weak ratio {g} but weak {g}-{g} fails"
    if system is not None:
        q = rank_quotient(system).quotient
        if q <= 0:
            return f"{name}: rank quotient {q} is not positive"
        for gamma in (HALF, Fraction(1)):
            if not check_gamma_alpha_augmentable(f, gamma, gamma / q, scope="weak").member:
                return f"{name}: quotient {q} but weak {gamma}-{gamma / q} fails"
    return ""


def independence_bound_case(system, gamma) -> str:
    """On a weighted rank function the class guarantee strengthens to
    gamma/alpha at every cardinality, at the tightest weak alpha and one above
    it, and the greedy chain satisfies the extension equivalences step by step."""
    f = weighted_rank_oracle(system)
    tight = min_alpha_for(f, gamma)
    if tight == math.inf:
        return f"{system.name}: no finite alpha at gamma={gamma}"
    walk = _greedy_against_optimum(f, "low")
    for alpha in (tight, tight + 1):
        if not check_gamma_alpha_augmentable(f, gamma, alpha, scope="weak").member:
            return f"{system.name}: audit fails at gamma={gamma}, alpha={alpha}"
        for k, greedy, _, opt, _ in walk:
            if alpha * greedy < gamma * opt:
                return f"{system.name}: k={k} greedy {greedy} below {gamma}*{opt}/{alpha}"
    report = check_exchange_equivalences(system)
    if not report.ok:
        return f"{system.name}: exchange equivalence broken at step {report.violations[0].step}"
    return ""


def _independence_cases():
    rng = random.Random(20240817)
    systems = [random_downward_closed_system(6, rng) for _ in range(4)]
    systems.append(make_rank_separator(HALF, 1, 1, 2)[0])
    return [(system, 1) for system in systems]


def _check(check_id: str, case: Callable[..., str], cases: Callable[[], Iterable[tuple]]):
    """Registry entry: ``case`` over the argument tuples ``cases()`` builds;
    the first non-empty detail fails the check."""

    def run() -> CheckResult:
        for args in cases():
            detail = case(*args)
            if detail:
                return CheckResult(check_id, False, detail)
        return CheckResult(check_id, True)

    return check_id, run


CHECKS: list[tuple[str, Callable[[], CheckResult]]] = [
    _check("critical-ratio-tightness", critical_ratio_case,
           lambda: [(1, 1, 3), (HALF, 1, 3), (1, 2, 3), (HALF, HALF, 2)]),
    _check("critical-pick-order", critical_pick_order_case, lambda: [()]),
    _check("critical-weak-membership", critical_weak_case,
           lambda: [(1, 1, 3), (HALF, 1, 4), (Fraction(1, 4), 2, 3)]),
    _check("critical-strong-separation", critical_strong_case,
           lambda: [(1, 1, 2, 1), (1, 2, 3, 2), (HALF, 1, 3, 1), (HALF, 1, 3, 2)]),
    _check("ratio-separator", ratio_separator_case, lambda: [(HALF,), (Fraction(3, 4),)]),
    _check("rank-separator", rank_separator_case, lambda: [()]),
    _check("square-escapes-classes", square_case, lambda: [()]),
    _check("two-sink-values", two_sink_case, lambda: [()]),
    _check("zero-ratio-instance", zero_ratio_case, lambda: [()]),
    _check("staircase-family", staircase_case, lambda: [(1, 2)]),
    _check("containment-implications", containment_case, small_corpus),
    _check("independence-bound", independence_bound_case, _independence_cases),
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
