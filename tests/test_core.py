from fractions import Fraction
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedyaug as ga
from conftest import build_monotone_oracle

F = Fraction


def test_greedy_on_critical_instance(f112):
    trace = ga.greedy_adaptive(f112, 2)
    assert trace.picks == (0, 1)  # a1 then a2
    assert trace.gains == (F(1, 2), F(1, 4))
    assert trace.values[-1] == F(3, 4)
    assert trace.tie_log[0] == (0, 2)  # a1 ties b1 at every a-step


def test_greedy_zero_cardinality(f112):
    trace = ga.greedy_adaptive(f112, 0)
    assert trace.chain == (0,)
    assert trace.picks == ()
    assert trace.values == (f112.value(0),)


def test_greedy_modular_sorts_by_weight():
    f = ga.make_modular([3, 1, 2])
    trace = ga.greedy_adaptive(f, 2)
    assert trace.picks == (0, 2)
    assert trace.values[1:] == (F(3), F(5))


def test_greedy_rejects_bad_cardinality(f112):
    with pytest.raises(ga.InvalidCardinality):
        ga.greedy_adaptive(f112, 5)
    with pytest.raises(ga.InvalidCardinality):
        ga.greedy_adaptive(f112, -1)


def test_explicit_priority_tie_policy():
    f = ga.make_modular([1, 1, 1])
    assert ga.greedy_adaptive(f, 2, tie=[2, 0, 1]).picks == (2, 0)
    with pytest.raises(ga.ParameterError):
        ga.greedy_adaptive(f, 1, tie=[0, 0, 1])


def test_nonadaptive_stops_at_saturation():
    f = ga.SetFunctionOracle(ga.GroundSet(3), lambda m: F(min(m.bit_count(), 1)))
    trace = ga.greedy_nonadaptive(f, 3)
    assert len(trace) == 1
    assert ga.saturation_cardinality(f) == 1


def test_nonadaptive_equals_adaptive_when_gains_positive(f112):
    assert ga.greedy_nonadaptive(f112, 4) == ga.greedy_adaptive(f112, 4)


def test_nonadaptive_on_flow_objective(zero_ratio2):
    _, oracle = zero_ratio2
    trace = ga.greedy_nonadaptive(oracle, 3)
    assert len(trace) == 1
    assert oracle.ground.label(trace.picks[0]) == "t2"


def test_saturation_examples(f112):
    counting = ga.make_modular([1] * 5)
    assert ga.saturation_cardinality(counting) == 5
    assert ga.saturation_cardinality(f112) == 4


def test_brute_force_optimum(f112):
    record = ga.brute_force_optimum(f112, 2)
    assert record.best_set == ga.mask_of([2, 3])  # the b block
    assert record.best_value == 1
    full = ga.brute_force_optimum(f112, 4)
    assert full.best_set == f112.ground.full_mask()
    assert full.best_value == f112.value(f112.ground.full_mask())


def test_brute_force_lexicographic_ties():
    f = ga.SetFunctionOracle(ga.GroundSet(3), lambda m: F(1) if m else F(0))
    record = ga.brute_force_optimum(f, 2)
    assert record.best_set == ga.mask_of([0])


def test_brute_force_guard():
    f = ga.make_modular([1] * 25)
    with pytest.raises(ga.GroundSetTooLarge):
        ga.brute_force_optimum(f, 2)


def _counting_oracle(n, calls):
    def evaluate(mask):
        calls.append(mask)
        return F(mask.bit_count())

    return ga.SetFunctionOracle(ga.GroundSet(n), evaluate)


def _counting_system(n, calls):
    def independent(mask):
        calls.append(mask)
        return True

    system = ga.IndependenceSystem(ga.GroundSet(n), independent, [1] * n)
    calls.clear()  # the constructor asks about the empty set
    return system


# (sweep, its step count at n, the first n whose count exceeds core.MAX_STEPS)
SWEEPS = [
    pytest.param(ga.optimum_profile, lambda n: 2**n, 25, id="optimum_profile"),
    pytest.param(lambda f: ga.brute_force_optimum(f, 1), lambda n: 2**n, 25,
                 id="brute_force_optimum"),
    pytest.param(lambda f: ga.optimum_value(f, 1), lambda n: 2**n, 25, id="optimum_value"),
    pytest.param(lambda f: ga.optimum_value(f, 1, upper_bound=lambda m: F(m.bit_count())),
                 lambda n: 2**n, 25, id="optimum_value-bounded"),
    pytest.param(ga.approximation_ratio, lambda n: 2**n, 25, id="approximation_ratio"),
    pytest.param(lambda f: ga.certify_greedy_bound(f, 1, 1), lambda n: 2**n, 25,
                 id="certify_greedy_bound"),
    pytest.param(lambda f: ga.check_alpha_augmentable(f, 1), lambda n: 4**n, 13,
                 id="alpha-strong"),
    pytest.param(lambda f: ga.check_gamma_alpha_augmentable(f, 1, 1, scope="strong"),
                 lambda n: 4**n, 13, id="gamma-alpha-strong"),
    pytest.param(lambda f: ga.min_alpha_for(f, 1, scope="strong"), lambda n: 4**n, 13,
                 id="min-alpha-strong"),
    pytest.param(lambda f: ga.check_alpha_augmentable(f, 1, scope="weak"),
                 lambda n: (n + 1) * 2**n, 20, id="alpha-weak"),
    pytest.param(lambda f: ga.check_gamma_alpha_augmentable(f, 1, 1), lambda n: (n + 1) * 2**n,
                 20, id="gamma-alpha-weak"),
    pytest.param(lambda f: ga.min_alpha_for(f, 1), lambda n: (n + 1) * 2**n, 20,
                 id="min-alpha-weak"),
    pytest.param(ga.weak_submodularity_ratio, lambda n: (n + 1) * 2**n, 20,
                 id="weak_submodularity_ratio"),
    pytest.param(ga.weighted_rank_oracle, lambda n: n * 2**n, 20, id="weighted_rank_oracle"),
    pytest.param(ga.check_exchange_equivalences, lambda n: n * 2**n, 20,
                 id="check_exchange_equivalences"),
    pytest.param(ga.rank_quotient, lambda n: n * 3**n, 13, id="rank_quotient"),
]
SYSTEM_SWEEPS = {ga.weighted_rank_oracle, ga.check_exchange_equivalences, ga.rank_quotient}


@pytest.mark.parametrize("sweep, steps, n", SWEEPS)
def test_sweep_refused_past_budget_before_evaluating(sweep, steps, n):
    assert steps(n - 1) <= ga.core.MAX_STEPS < steps(n)
    calls = []
    build = _counting_system if sweep in SYSTEM_SWEEPS else _counting_oracle
    with pytest.raises(ga.GroundSetTooLarge) as excinfo:
        sweep(build(n, calls))
    assert calls == []
    assert f"n={n}: {steps(n)} steps exceed the budget of {ga.core.MAX_STEPS}" in str(
        excinfo.value
    )


def test_unknown_scope_refused_before_budget():
    calls = []
    with pytest.raises(ga.ParameterError, match="unknown scope"):
        ga.check_alpha_augmentable(_counting_oracle(13, calls), 1, scope="bogus")
    assert calls == []


def test_optimum_profile_matches_brute(f112):
    profile = ga.optimum_profile(f112)
    for k in range(5):
        record = ga.brute_force_optimum(f112, k)
        assert profile[k].best_value == record.best_value
        assert profile[k].best_set == record.best_set


def test_optimum_value_pruning_agrees(f112):
    top = f112.value(f112.ground.full_mask())
    for k in range(5):
        expected = ga.brute_force_optimum(f112, k).best_value
        assert ga.optimum_value(f112, k) == expected
        assert ga.optimum_value(f112, k, upper_bound=lambda m: top) == expected


def test_ratio_critical(f112):
    assert ga.approximation_ratio(f112) == (F(4, 3), 2)


def test_ratio_modular_is_one():
    assert ga.approximation_ratio(ga.make_modular([3, 1, 2]))[0] == 1


def test_ratio_nonadaptive_variant(zero_ratio2):
    _, oracle = zero_ratio2
    # the non-adaptive value freezes at the saturation plateau, the adaptive
    # one climbs past it with a zero-gain pick; the worst ratio agrees here
    assert ga.approximation_ratio(oracle, variant="nonadaptive") == (F(2), 2)
    assert ga.approximation_ratio(oracle, variant="adaptive") == (F(2), 2)
    with pytest.raises(ga.ParameterError):
        ga.approximation_ratio(oracle, variant="lazy")


def test_ratio_constant_zero_convention():
    f = ga.SetFunctionOracle(ga.GroundSet(2), lambda m: F(0))
    assert ga.approximation_ratio(f) == (F(1), 1)


def test_ratio_infinite_under_adversarial_ties():
    pair = ga.mask_of([0, 1])
    f = ga.SetFunctionOracle(ga.GroundSet(3), lambda m: F(1) if m & pair == pair else F(0))
    ratio, witness = ga.approximation_ratio(f, tie="high")
    assert ratio == math.inf and witness == 2
    assert ga.approximation_ratio(f, tie="low")[0] == 1


def test_format_parse_rationals():
    assert ga.format_rational(F(3, 2)) == "3/2"
    assert ga.format_rational(F(4, 2)) == "2"
    assert ga.format_rational(math.inf) == "inf"
    assert ga.parse_rational("3/2") == F(3, 2)
    assert ga.parse_rational(7) == F(7)
    for refused in (True, 0.1):
        with pytest.raises(ga.ParameterError, match="JSON integer"):
            ga.parse_rational(refused)


def test_oracle_rejects_negative_values():
    f = ga.SetFunctionOracle(ga.GroundSet(1), lambda m: F(-1) if m else F(0))
    with pytest.raises(ValueError):
        f.value(1)


small_oracles = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n),
    )
)


@settings(max_examples=60, deadline=None)
@given(small_oracles, st.sampled_from(["low", "high"]))
def test_trace_telescoping_and_dominance(data, tie):
    n, increments = data
    f = build_monotone_oracle(n, increments)
    trace = ga.greedy_adaptive(f, n, tie=tie)
    total = trace.values[0]
    for i, gain in enumerate(trace.gains):
        total += gain
        assert trace.values[i + 1] == total
        assert gain >= 0
        prev = trace.chain[i]
        for x in range(n):
            if not prev >> x & 1:
                assert trace.values[i + 1] >= f.value(prev | (1 << x))


@settings(max_examples=60, deadline=None)
@given(small_oracles, st.sampled_from(["low", "high"]))
def test_nonadaptive_is_prefix_of_adaptive(data, tie):
    n, increments = data
    f = build_monotone_oracle(n, increments)
    full = ga.greedy_adaptive(f, n, tie=tie)
    for k in range(n + 1):
        short = ga.greedy_nonadaptive(f, k, tie=tie)
        assert short.chain == full.chain[: len(short) + 1]


@settings(max_examples=60, deadline=None)
@given(small_oracles)
def test_optimum_sandwich(data):
    n, increments = data
    f = build_monotone_oracle(n, increments)
    trace = ga.greedy_adaptive(f, n)
    profile = ga.optimum_profile(f)
    top = f.value(f.ground.full_mask())
    for k in range(1, n + 1):
        assert trace.values[k] <= profile[k].best_value <= top
