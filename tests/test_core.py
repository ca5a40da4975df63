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


def test_greedy_extends_the_kept_chain():
    """One chain per oracle and tie policy: a longer run reads f only for the
    picks past the kept chain, a shorter one reads nothing."""
    weights = [3, 1, 2, 5, 4]
    f, calls = ga.make_modular(weights), []
    value = f.value
    f.value = lambda mask: calls.append(mask) or value(mask)
    ga.greedy_adaptive(f, 2)
    assert len(calls) == 1 + 5 + 4
    assert ga.greedy_adaptive(f, 1) == ga.greedy_adaptive(ga.make_modular(weights), 1)
    assert len(calls) == 10
    assert ga.greedy_adaptive(f, 4) == ga.greedy_adaptive(ga.make_modular(weights), 4)
    assert len(calls) == 10 + 3 + 2
    assert ga.greedy_adaptive(f, 5).prefix(4) == ga.greedy_adaptive(f, 4)
    assert list(f.chains) == ["low"]
    assert ga.greedy_adaptive(f, 5, "high") == ga.greedy_adaptive(ga.make_modular(weights), 5, "high")
    assert ga.greedy_adaptive(f, 2, [3, 4, 0, 1, 2]) == ga.greedy_adaptive(f, 2, (3, 4, 0, 1, 2))
    assert list(f.chains) == ["low", "high", (3, 4, 0, 1, 2)]


def test_greedy_checks_every_call_before_the_kept_chain():
    f = ga.make_modular([1, 1, 1])
    ga.greedy_adaptive(f, 3, tie=[2, 0, 1])
    with pytest.raises(ga.ParameterError):
        ga.greedy_adaptive(f, 1, tie=[0, 0, 1])
    with pytest.raises(ga.InvalidCardinality):
        ga.greedy_adaptive(f, 4, tie=[2, 0, 1])
    big = ga.make_square_cardinality(4097)
    assert ga.greedy_adaptive(big, 1).picks == (0,)
    with pytest.raises(ga.GroundSetTooLarge, match="greedy of k=4097 picks over n=4097"):
        ga.greedy_adaptive(big, 4097)


def test_greedy_interrupted_mid_chain_starts_over():
    table = {0: 0, 1: 3, 2: 1, 4: 2}

    def evaluate(mask):
        if mask not in table:
            raise KeyboardInterrupt
        return F(table[mask])

    f = ga.SetFunctionOracle(ga.GroundSet(3), evaluate)
    with pytest.raises(KeyboardInterrupt):
        ga.greedy_adaptive(f, 2)
    assert f.chains == {}
    table.update({3: 4, 5: 5, 6: 3, 7: 6})
    assert ga.greedy_adaptive(f, 3).picks == (0, 2, 1)


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


def test_optimum_profile_tie_is_lexicographic_not_mask_order():
    # {1, 2} (0b0110) comes first in mask order, but (0, 3) < (1, 2) wins the tie
    top = {0b0110: F(3, 2), 0b1001: F(3, 2)}
    f = ga.SetFunctionOracle(ga.GroundSet(4), lambda m: top.get(m, F(m.bit_count(), 3)))
    record = ga.optimum_profile(f)[2]
    assert (record.best_set, record.best_value) == (0b1001, F(3, 2))
    assert type(record.best_value) is F


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


BOUNDED = []  # every mask the bounded sweep below asked its upper bound about


def _recording_bound(mask):
    BOUNDED.append(mask)
    return F(mask.bit_count())


# (sweep, its step count at n, the first n whose count exceeds core.MAX_STEPS)
SWEEPS = [
    pytest.param(ga.optimum_profile, lambda n: 2**n, 25, id="optimum_profile"),
    pytest.param(lambda f: ga.brute_force_optimum(f, 1), lambda n: 2**n, 25,
                 id="brute_force_optimum"),
    pytest.param(lambda f: ga.optimum_value(f, 1), lambda n: 2**n, 25, id="optimum_value"),
    pytest.param(lambda f: ga.optimum_value(f, 1, upper_bound=_recording_bound),
                 lambda n: 2**n, 25, id="optimum_value-bounded"),
    pytest.param(ga.approximation_ratio, lambda n: 2**n, 25, id="approximation_ratio"),
    pytest.param(lambda f: ga.certify_greedy_bound(f, 1, 1), lambda n: 2**n, 25,
                 id="certify_greedy_bound"),
    pytest.param(lambda f: ga.check_alpha_augmentable(f, 1), lambda n: 3**n + n * 2**n, 16,
                 id="alpha-strong"),
    pytest.param(lambda f: ga.check_gamma_alpha_augmentable(f, 1, 1, scope="strong"),
                 lambda n: 3**n + n * 2**n, 16, id="gamma-alpha-strong"),
    pytest.param(lambda f: ga.min_alpha_for(f, 1, scope="strong"),
                 lambda n: 3**n + n * 2**n, 16, id="min-alpha-strong"),
    pytest.param(lambda f: ga.check_alpha_augmentable(f, 1, scope="weak"),
                 lambda n: (n + 2) * 2**n, 20, id="alpha-weak"),
    pytest.param(lambda f: ga.check_gamma_alpha_augmentable(f, 1, 1), lambda n: (n + 2) * 2**n,
                 20, id="gamma-alpha-weak"),
    pytest.param(lambda f: ga.min_alpha_for(f, 1), lambda n: (n + 2) * 2**n, 20,
                 id="min-alpha-weak"),
    pytest.param(ga.weak_submodularity_ratio, lambda n: (n + 2) * 2**n, 20,
                 id="weak_submodularity_ratio"),
    pytest.param(ga.weighted_rank_oracle, lambda n: n * 2**n, 20, id="weighted_rank_oracle"),
    pytest.param(ga.check_exchange_equivalences, lambda n: n * 2**n, 20,
                 id="check_exchange_equivalences"),
    pytest.param(ga.rank_quotient, lambda n: 3**n + 2 * n * 2**n, 16, id="rank_quotient"),
    pytest.param(lambda f: ga.greedy_adaptive(f, f.n), lambda n: n * n, 4097,
                 id="greedy_adaptive"),
]
SYSTEM_SWEEPS = {ga.weighted_rank_oracle, ga.check_exchange_equivalences, ga.rank_quotient}


@pytest.mark.parametrize("sweep, steps, n", SWEEPS)
def test_sweep_refused_past_budget_before_evaluating(sweep, steps, n):
    assert steps(n - 1) <= ga.core.MAX_STEPS < steps(n)
    calls = []
    BOUNDED.clear()
    build = _counting_system if sweep in SYSTEM_SWEEPS else _counting_oracle
    with pytest.raises(ga.GroundSetTooLarge) as excinfo:
        sweep(build(n, calls))
    assert calls == [] == BOUNDED
    assert f"n={n}: {steps(n)} steps exceed the budget of {ga.core.MAX_STEPS}" in str(
        excinfo.value
    )


def test_blocks_least_masks_and_representatives():
    blocks = ga.Blocks([(1, 3, 4), (2, 5)], 6)
    assert blocks == ((1, 3, 4), (2, 5))
    assert blocks.least(ga.mask_of([0, 4, 5])) == ga.mask_of([0, 1, 2])
    assert blocks.least(ga.mask_of([3, 4, 5, 2])) == ga.mask_of([1, 3, 2, 5])
    reps = blocks.representatives()
    assert reps == sorted({blocks.least(mask) for mask in range(64)})
    assert len(reps) == 2 * 4 * 3
    for mask in range(64):  # the least mask is also the lexicographically smallest
        rep = blocks.least(mask)
        assert rep <= mask and ga.indices_of(rep) <= ga.indices_of(mask)
    assert ga.Blocks((), 3).representatives() == range(8)


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
    """Also on oracles that declare blocks, whose bound is read on orbit
    representatives of size <= k only."""
    for f in (f112, ga.make_square_cardinality(5), ga.make_critical_function(F(1, 2), 1, 4)):
        top = f.value(f.ground.full_mask())
        reps = list(f.blocks.representatives())
        assert f is f112 or len(reps) < 2**f.n
        for k in range(f.n + 1):
            bounded = []

            def bound(mask):
                bounded.append(mask)
                return top

            expected = ga.brute_force_optimum(f, k).best_value
            assert ga.optimum_value(f, k) == expected
            assert ga.optimum_value(f, k, upper_bound=bound) == expected
            assert sorted(bounded) == [mask for mask in reps if mask.bit_count() <= k]


@st.composite
def bounded_tables(draw):
    """(n, blocks, values, bounds): a monotone int table over n <= 7 elements,
    unblocked or with one declared block, and a valid upper bound, f plus a
    drawn nonnegative slack at each mask.

    A blocked table is built from block counts: each mask is worth the largest
    value one element below it plus an increment drawn for its least mask, so
    masks with the same free part and the same count of block members are
    worth the same, and the declaration is true."""
    n = draw(st.integers(1, 7))
    blocked = n > 1 and draw(st.booleans())
    blocks = [tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=2))))] if blocked else []
    least = ga.Blocks(blocks, n).least
    increments = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    slack = draw(st.lists(st.sampled_from([0, 0, 1, 2, 10]), min_size=1 << n, max_size=1 << n))
    values = []
    for mask in range(1 << n):
        below = [values[mask ^ 1 << e] for e in range(n) if mask >> e & 1]
        values.append(max(below, default=0) + increments[least(mask)])
    return n, blocks, values, [v + s for v, s in zip(values, slack)]


@settings(max_examples=80, deadline=None)
@given(bounded_tables())
def test_bound_pruned_rows_are_the_full_sweeps(table):
    """Pruning by a valid bound changes no row of the sweep, ``best_set``
    included, and ``optimum_value`` reads row k of it at every k."""
    n, blocks, values, bounds = table

    def oracle():
        return ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__, blocks=blocks)

    profile = ga.optimum_profile(oracle())
    assert profile == ga.optimum_profile(ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__))
    assert list(ga.core._optima(oracle(), bounds.__getitem__)) == profile
    for k in range(n + 1):
        assert ga.optimum_value(oracle(), k, bounds.__getitem__) == profile[k].best_value


def test_bound_below_f_is_refused_at_the_mask_it_is_read():
    f = ga.make_modular([3, 1, 2])
    with pytest.raises(ga.ParameterError, match=r"upper bound 1 is below f = 3 at \(0,\)"):
        ga.optimum_value(f, 2, upper_bound=lambda mask: F(1))
    with pytest.raises(ga.ParameterError, match=r"upper bound 4 is below f = 5 at \(0, 2\)"):
        ga.optimum_value(f, 2, upper_bound=lambda mask: F(min(4, f.value(mask))))
    assert ga.optimum_value(f, 2, upper_bound=f.value) == 5


def test_float_bound_is_refused():
    with pytest.raises(TypeError, match="refusing float->Fraction coercion"):
        ga.optimum_value(ga.make_modular([3, 1, 2]), 2, upper_bound=lambda mask: 5.5)


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


def test_indices_of_refuses_negative_mask():
    assert ga.indices_of(0b1011) == (0, 1, 3)
    with pytest.raises(ValueError, match="mask must be >= 0, got -1"):
        ga.indices_of(-1)


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


@pytest.mark.parametrize("blocks", [(), [(0, 2)]], ids=["unblocked", "blocked"])
def test_value_refuses_masks_outside_the_ground_set(blocks):
    f = ga.SetFunctionOracle(ga.GroundSet(3), lambda m: F(m.bit_count()), blocks=blocks)
    for _ in range(2):  # a refused mask leaves nothing in the memo to hit
        for mask in (-1, 8):
            with pytest.raises(ValueError, match=f"mask {mask:#x} outside ground set of 3 elements"):
                f.value(mask)
    assert f.value(7) == 3


def test_optima_refuse_k_outside_0_to_n(f112):
    for k in (-1, f112.n + 1):
        with pytest.raises(ga.InvalidCardinality, match=f"k={k} outside 0..{f112.n}"):
            ga.brute_force_optimum(f112, k)
        with pytest.raises(ga.InvalidCardinality, match=f"k={k} outside 0..{f112.n}"):
            ga.optimum_value(f112, k, upper_bound=lambda mask: F(1))


def test_trace_prefix_refused_past_its_end(f112):
    trace = ga.greedy_adaptive(f112, 2)
    assert trace.prefix(2) == trace
    with pytest.raises(ga.InvalidCardinality, match="trace has only 2 steps"):
        trace.prefix(3)


def test_malformed_ground_set_and_float_refused():
    with pytest.raises(ga.ParameterError, match="ground set needs n >= 1, got 0"):
        ga.GroundSet(0)
    with pytest.raises(ga.ParameterError, match="labels length must equal n"):
        ga.GroundSet(2, ("a",))
    with pytest.raises(TypeError, match="refusing float->Fraction coercion"):
        ga.core.as_fraction(0.5)
