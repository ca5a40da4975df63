"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is either a frozen closed form, a brute-force
recomputation, or an exhaustive audit; all comparisons of rationals are exact.
Where ``verify-paper`` checks the same result, the test calls its per-case
function from ``greedyaug.verify`` over a wider grid instead of a copy of it.
"""

import random
import time
from fractions import Fraction

import greedyaug as ga
from greedyaug import verify

F = Fraction
HALF = F(1, 2)

CRITICAL_GRID = [
    (gamma, alpha, k)
    for gamma in (F(1), HALF, F(1, 4))
    for alpha in sorted({gamma, F(1), F(2)})
    for k in range(2, 7)
    if k > alpha
]


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_critical_ratio_tightness():
    start = time.time()
    for gamma, alpha, k in CRITICAL_GRID:
        assert verify.critical_ratio_case(gamma, alpha, k) == ""
    elapsed = time.time() - start
    report(
        "1 critical-ratio-tightness",
        elapsed < 10,
        f"{len(CRITICAL_GRID)} instances exactly tight in {elapsed:.2f}s",
    )


def test_criterion_2_limit_convergence():
    targets = {1: 1.58198, 2: 2.31304}
    for alpha in (1, 2):
        limit = ga.limit_ratio(1, alpha)
        assert abs(limit - targets[alpha]) < 1e-5
        closed = float(ga.critical_ratio_closed_form(1, alpha, 64))
        assert abs(closed - limit) <= 2e-2, (alpha, closed, limit)
        staircase = float(ga.lower_bound_ratio_closed_form(alpha, 64))
        assert abs(staircase - limit) <= 2e-2, (alpha, staircase, limit)
    report("2 limit-convergence", True, "closed forms at k=64 within 2e-2 of the limits")


def test_criterion_3_class_membership_matrix():
    timings = []

    def timed(label, case, *args):
        start = time.time()
        assert case(*args) == ""
        elapsed = time.time() - start
        timings.append((label, elapsed))
        assert elapsed < 60, f"{label} took {elapsed:.1f}s"

    # critical family is weakly gamma-alpha-augmentable across the grid
    for gamma, alpha, k in CRITICAL_GRID:
        timed(f"weak({gamma},{alpha},{k})", verify.critical_weak_case, gamma, alpha, k)

    # unit-gamma instances survive the strong audit
    for alpha in (1, 2):
        for k in (2, 3, 4, 5):
            if k > alpha:
                timed(f"strong(1,{alpha},{k})", verify.critical_strong_case, 1, alpha, k, alpha)

    # half-gamma instances fail the strong audit at every tested alpha
    for alpha, k in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)):
        for probe in (F(1), F(3, 2), F(2), F(4)):
            timed(
                f"strong-fail({alpha},{k})@{probe}",
                verify.critical_strong_case, HALF, alpha, k, probe,
            )

    for gamma in (HALF, F(1, 4), F(3, 4)):
        assert verify.ratio_separator_case(gamma) == ""
    assert verify.rank_separator_case() == ""
    assert verify.square_case() == ""

    slowest = max(timings, key=lambda t: t[1])
    report(
        "3 class-membership-matrix",
        True,
        f"{len(timings)} audits, slowest {slowest[0]} at {slowest[1]:.2f}s",
    )


def test_criterion_4_flow_objective_correctness():
    assert verify.two_sink_case() == ""
    assert verify.zero_ratio_case() == ""
    report("4 flow-objective-correctness", True, "values 0/2/2/3, ratio 0, first pick t2, audits pass")


def test_criterion_5_staircase_reproduction():
    start = time.time()
    for alpha, k in ((1, 2), (1, 3), (2, 2)):
        assert verify.staircase_case(alpha, k) == ""
    elapsed = time.time() - start
    report("5 staircase-reproduction", elapsed < 120, f"three instances in {elapsed:.2f}s")


def test_criterion_6_independence_system_bound(rank_separator_half):
    rng = random.Random(20240816)
    systems = [ga.random_downward_closed_system(n, rng) for n in (6, 7, 8, 8, 9, 9, 10, 10, 7, 6)]
    systems.append(rank_separator_half[0])
    for system in systems:
        for gamma in (HALF, F(1)):
            assert verify.independence_bound_case(system, gamma) == ""
    report(
        "6 independence-system-bound",
        True,
        f"{len(systems)} systems, {4 * len(systems)} passing audits all satisfy the "
        "gamma/alpha bound",
    )


def test_criterion_7_containments(corpus):
    for name, oracle, system in corpus:
        assert verify.containment_case(name, oracle, system) == ""
    report(
        "7 containment-properties",
        True,
        f"every implication holds on the {len(corpus)}-entry corpus",
    )


def test_criterion_8_cross_oracle_equivalence(staircase_a1k2, staircase_a1k3, two_sink1):
    for gamma, alpha, k in ((F(1), F(1), 2), (HALF, F(1), 2), (F(1), F(2), 3), (HALF, F(2), 3)):
        closed = ga.make_critical_function(gamma, alpha, k)
        exhaustive = ga.make_critical_function(gamma, alpha, k, method="exhaustive")
        for mask in range(1 << (2 * k)):
            assert closed.value(mask) == exhaustive.value(mask), (gamma, alpha, k, mask)
    for inst, oracle in (staircase_a1k2, staircase_a1k3, two_sink1):
        assert inst.commodities == 1
        for mask in range(1 << len(inst.sinks)):
            assert oracle.value(mask) == ga.max_flow(inst, 0, mask), (inst.name, mask)
    report(
        "8 cross-oracle-equivalence",
        True,
        "closed evaluator matches exhaustive; LP matches max-flow on single-commodity corpus",
    )
