"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is either a frozen closed form, a brute-force
recomputation, or an exhaustive audit; all comparisons of rationals are exact.
"""

import random
import time
from fractions import Fraction

import greedyaug as ga

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
        f = ga.make_critical_function(gamma, alpha, k)
        ratio, witness_k = ga.approximation_ratio(f)
        closed = ga.critical_ratio_closed_form(gamma, alpha, k)
        assert ratio == closed, (gamma, alpha, k, ratio, closed)
        assert witness_k == k, (gamma, alpha, k, witness_k)
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

    def timed(label, fn):
        start = time.time()
        result = fn()
        elapsed = time.time() - start
        timings.append((label, elapsed))
        assert elapsed < 60, f"{label} took {elapsed:.1f}s"
        return result

    # critical family is weakly gamma-alpha-augmentable across the grid
    for gamma, alpha, k in CRITICAL_GRID:
        f = ga.make_critical_function(gamma, alpha, k)
        rep = timed(
            f"weak({gamma},{alpha},{k})",
            lambda f=f, g=gamma, a=alpha: ga.check_gamma_alpha_augmentable(f, g, a, scope="weak"),
        )
        assert rep.member, (gamma, alpha, k)

    # unit-gamma instances survive the strong audit
    for alpha in (1, 2):
        for k in (2, 3, 4, 5):
            if k <= alpha:
                continue
            f = ga.make_critical_function(1, alpha, k)
            rep = timed(
                f"strong(1,{alpha},{k})",
                lambda f=f, a=alpha: ga.check_alpha_augmentable(f, a),
            )
            assert rep.member, (alpha, k)

    # half-gamma instances fail the strong audit at every tested alpha
    for alpha, k in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)):
        f = ga.make_critical_function(HALF, alpha, k)
        for alpha_probe in (F(1), F(3, 2), F(2), F(4)):
            rep = timed(
                f"strong-fail({alpha},{k})@{alpha_probe}",
                lambda f=f, a=alpha_probe: ga.check_alpha_augmentable(f, a),
            )
            assert not rep.member, (alpha, k, alpha_probe)
            w = rep.witness
            fx = f.value(w.x_set)
            best = max(
                f.value(w.x_set | (1 << y)) - fx
                for y in ga.indices_of(w.y_set)
                if not w.x_set >> y & 1
            )
            assert best == w.lhs and best < w.rhs  # witness re-verifies

    # two-element plateau: exact weak ratio, no augmentability parameter
    for gamma in (HALF, F(1, 4), F(3, 4)):
        f = ga.make_ratio_separator(gamma)
        assert ga.weak_submodularity_ratio(f).value == gamma
        for alpha in (1, 2, 4):
            assert not ga.check_alpha_augmentable(f, alpha).member

    # rank separator: quotient 1/2, weak ratio 0 through the saturating chain
    system, f_rank = ga.make_rank_separator(HALF, 1, 1, 2)
    assert ga.rank_quotient(system).quotient == HALF
    ratio = ga.weak_submodularity_ratio(f_rank, tie="high")
    assert ratio.value == 0
    assert [f_rank.ground.label(i) for i in ga.indices_of(ratio.x_set)] == ["c"]
    assert [f_rank.ground.label(i) for i in ga.indices_of(ratio.y_set)] == ["b1", "b2"]

    # squared cardinality: greedy-optimal but rejected at every alpha
    f_sq = ga.make_square_cardinality(3)
    for alpha in (HALF, F(1), F(2)):
        rep = ga.check_gamma_alpha_augmentable(f_sq, HALF, alpha)
        assert not rep.member and rep.witness.x_set == 0
    ratio_sq, _ = ga.approximation_ratio(f_sq)
    assert ratio_sq == 1

    slowest = max(timings, key=lambda t: t[1])
    report(
        "3 class-membership-matrix",
        True,
        f"{len(timings)} audits, slowest {slowest[0]} at {slowest[1]:.2f}s",
    )


def test_criterion_4_flow_objective_correctness(two_sink2, zero_ratio2):
    two_inst, two_oracle = two_sink2
    assert [two_oracle.value(m) for m in range(4)] == [0, 2, 2, 3]
    zero_inst, zero_oracle = zero_ratio2
    assert ga.weak_submodularity_ratio(zero_oracle).value == 0
    first_pick = ga.greedy_adaptive(zero_oracle, 1).picks[0]
    assert zero_oracle.ground.label(first_pick) == "t2"
    assert ga.check_alpha_augmentable(two_oracle, two_inst.commodities).member
    assert ga.check_alpha_augmentable(zero_oracle, zero_inst.commodities).member
    report("4 flow-objective-correctness", True, "values 0/2/2/3, ratio 0, first pick t2, audits pass")


def test_criterion_5_staircase_reproduction(staircase_a1k2, staircase_a1k3, staircase_a2k2):
    start = time.time()
    for (inst, oracle), (alpha, k) in (
        (staircase_a1k2, (1, 2)),
        (staircase_a1k3, (1, 3)),
        (staircase_a2k2, (2, 2)),
    ):
        steps = alpha * k
        scale = ga.capacity_scale(k)
        trace = ga.greedy_adaptive(oracle, steps)
        assert [oracle.ground.label(p) for p in trace.picks] == [
            f"t{j}" for j in range(1, steps + 1)
        ]
        greedy_value = trace.values[steps]
        assert greedy_value == k * (scale ** steps - 1), (alpha, k)
        best = ga.optimum_value(oracle, steps, upper_bound=ga.excess_upper_bound(inst))
        assert best == steps * scale ** steps, (alpha, k)
        assert best / greedy_value == ga.lower_bound_ratio_closed_form(alpha, k)
        assert ga.approximation_ratio(oracle) == (
            ga.lower_bound_ratio_closed_form(alpha, k),
            steps,
        )
    elapsed = time.time() - start
    report("5 staircase-reproduction", elapsed < 120, f"three instances in {elapsed:.2f}s")


def test_criterion_6_independence_system_bound(rank_separator_half):
    rng = random.Random(20240816)
    systems = [ga.random_downward_closed_system(n, rng) for n in (6, 7, 8, 8, 9, 9, 10, 10, 7, 6)]
    bundles = [(system, ga.weighted_rank_oracle(system)) for system in systems]
    bundles.append(rank_separator_half)
    audited = 0
    for system, oracle in bundles:
        trace = ga.greedy_adaptive(oracle, oracle.n)
        profile = ga.optimum_profile(oracle)
        for gamma in (HALF, F(1)):
            tight = ga.min_alpha_for(oracle, gamma)
            assert tight != float("inf"), system.name
            for alpha in (tight, tight + 1):
                assert ga.check_gamma_alpha_augmentable(oracle, gamma, alpha, scope="weak").member
                audited += 1
                for k in range(1, oracle.n + 1):
                    assert alpha * trace.values[k] >= gamma * profile[k].best_value, (
                        system.name,
                        gamma,
                        alpha,
                        k,
                    )
        exchange = ga.check_exchange_equivalences(system)
        assert exchange.ok, (system.name, exchange.violations[:1])
    report(
        "6 independence-system-bound",
        True,
        f"{len(bundles)} systems, {audited} passing audits all satisfy the gamma/alpha bound",
    )


def test_criterion_7_containments(corpus):
    checked = 0
    for name, oracle, system in corpus:
        for alpha in (1, 2):
            if ga.check_alpha_augmentable(oracle, alpha).member:
                assert ga.check_gamma_alpha_augmentable(oracle, 1, alpha, scope="weak").member, (
                    name,
                    alpha,
                )
                checked += 1
        g = ga.weak_submodularity_ratio(oracle).value
        if g > 0:
            assert ga.check_gamma_alpha_augmentable(oracle, g, g, scope="weak").member, name
            checked += 1
        if system is not None:
            q = ga.rank_quotient(system).quotient
            assert q > 0
            for gamma in (HALF, F(1)):
                assert ga.check_gamma_alpha_augmentable(
                    oracle, gamma, gamma / q, scope="weak"
                ).member, (name, gamma)
                checked += 1
    report("7 containment-properties", True, f"{checked} implications verified on the corpus")


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
