import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greedyaug as ga
from greedyaug.families import FAMILIES, CriticalParams

F = Fraction
HALF = F(1, 2)

GRID = [
    (gamma, alpha, k)
    for gamma in (F(1), HALF, F(1, 4))
    for alpha in sorted({gamma, F(1), F(2)})
    for k in range(2, 7)
    if k > alpha
]


@st.composite
def critical_parameters(draw):
    """(gamma, alpha, k): gamma = u/v <= 1, u > 1 allowed, k = 2..4 and gamma <= alpha < k."""
    v = draw(st.integers(1, 7))
    gamma = F(draw(st.integers(1, v)), v)
    k = draw(st.integers(2, 4))
    q = draw(st.integers(1, 3))
    alpha = F(draw(st.integers(math.ceil(gamma * q), k * q - 1)), q)
    return gamma, alpha, k


class TestCriticalParams:
    def test_gain_prefix_sums_match_closed_form(self):
        for gamma, alpha, k in GRID:
            params = CriticalParams(gamma, alpha, k)
            gains = params.step_gains()
            running = F(0)
            for m in range(k + 1):
                assert running == params.gain_prefix_sum(m)
                if m < k:
                    running += gains[m]
            assert all(gains[i] > gains[i + 1] for i in range(k - 1))

    def test_curve_interpolation(self):
        for gamma, alpha, k in GRID:
            params = CriticalParams(gamma, alpha, k)
            assert params.curve(0) == 0
            assert params.curve(1) == 1
            assert params.curve(k) == k / gamma
            # convexity on the integers
            diffs = [params.curve(i + 1) - params.curve(i) for i in range(k)]
            assert all(diffs[i] <= diffs[i + 1] for i in range(k - 1))

    def test_parameter_validation(self):
        with pytest.raises(ga.ParameterError):
            CriticalParams(F(0), F(1), 3)
        with pytest.raises(ga.ParameterError):
            CriticalParams(F(1), HALF, 3)  # alpha below gamma
        with pytest.raises(ga.ParameterError):
            CriticalParams(F(1), F(3), 3)  # k must exceed alpha
        with pytest.raises(ga.ParameterError):
            CriticalParams(F(1), F(1), 1)  # curve needs k >= 2


class TestCriticalFunction:
    def test_block_values(self, f112):
        a_block = ga.mask_of([0, 1])
        b_block = ga.mask_of([2, 3])
        assert f112.value(0) == 0
        assert f112.value(a_block) == F(3, 4)
        assert f112.value(b_block) == 1

    def test_second_b_element_alone_is_worthless(self):
        for gamma, alpha, k in ((F(1), F(1), 2), (HALF, F(1), 3), (F(1, 4), F(2), 4)):
            f = ga.make_critical_function(gamma, alpha, k)
            assert f.value(1 << (k + 1)) == 0

    def test_b_block_value_scales_with_inverse_gamma(self):
        f = ga.make_critical_function(HALF, 1, 2)
        assert f.value(ga.mask_of([2, 3])) == 2

    def test_pick_order_across_grid(self):
        for gamma, alpha, k in GRID:
            f = ga.make_critical_function(gamma, alpha, k)
            trace = ga.greedy_adaptive(f, 2 * k)
            assert trace.picks == tuple(range(2 * k)), (gamma, alpha, k)
            assert trace.gains[:k] == tuple(CriticalParams(gamma, alpha, k).step_gains())

    def test_closed_matches_exhaustive_up_to_k4(self):
        for gamma, alpha, k in ((F(1), F(1), 4), (HALF, F(2), 4), (F(1, 4), F(1), 3),
                                (F(1), F(4, 3), 4), (HALF, F(3, 2), 4)):
            closed = ga.make_critical_function(gamma, alpha, k)
            exhaustive = ga.make_critical_function(gamma, alpha, k, method="exhaustive")
            for mask in range(1 << (2 * k)):
                assert closed.value(mask) == exhaustive.value(mask), (gamma, alpha, k, mask)

    @settings(max_examples=20, deadline=None)
    @given(critical_parameters())
    @example((F(1, 4), F(1), 3))  # k*gamma < 1, so k*u - v is negative
    @example((F(2, 7), F(2, 7), 3))  # u > 1 and k*gamma < 1
    @example((F(1, 5), F(3, 2), 4))
    @example((F(2, 3), F(1), 2))
    @example((F(3, 4), F(5, 2), 4))
    def test_closed_matches_exhaustive_on_every_mask(self, params):
        gamma, alpha, k = params
        closed = ga.make_critical_function(gamma, alpha, k)
        exhaustive = ga.make_critical_function(gamma, alpha, k, method="exhaustive")
        for mask in range(1 << (2 * k)):
            assert closed.value(mask) == exhaustive.value(mask), (gamma, alpha, k, mask)

    def test_trace_at_large_k_builds_nothing_of_size_two_to_the_k(self):
        tracemalloc.start()
        try:
            trace = ga.greedy_adaptive(ga.make_critical_function(1, 1, 60), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.picks == (0, 1, 2)
        assert trace.gains == tuple(CriticalParams(F(1), F(1), 60).step_gains()[:3])
        assert peak < 1 << 20  # a few hundred memoized values, not 2**60 of anything

    def test_measured_ratio_equals_closed_form_sample(self):
        for gamma, alpha, k in ((F(1), F(1), 2), (HALF, F(1), 3), (F(1), F(2), 4)):
            f = ga.make_critical_function(gamma, alpha, k)
            assert ga.approximation_ratio(f) == (
                ga.critical_ratio_closed_form(gamma, alpha, k),
                k,
            )


class TestClosedForms:
    def test_ratio_values(self):
        assert ga.critical_ratio_closed_form(1, 1, 2) == F(4, 3)
        assert ga.critical_ratio_closed_form(HALF, 1, 2) == F(8, 3)
        assert ga.critical_ratio_closed_form(1, 2, 4) == F(32, 15)

    def test_limit_values(self):
        assert abs(ga.limit_ratio(1, 1) - 1.581976706) < 1e-8
        assert abs(ga.limit_ratio(1, 2) - 2.313035285) < 1e-8
        assert abs(ga.limit_ratio(HALF, 1) - 2 * 1.581976706) < 1e-7

    @pytest.mark.parametrize("gamma, alpha, fragment", [
        (0, 1, "gamma must be > 0"),
        (1, F(-1, 2), "alpha must be > 0"),
        (F(1, 10**400), 1, "outside the float range"),  # alpha/gamma overflows a float
        (1, F(1, 10**20), "outside the float range"),  # e**alpha - 1 rounds to 0
    ])
    def test_limit_refuses_what_floats_cannot_compute(self, gamma, alpha, fragment):
        with pytest.raises(ga.ParameterError, match=fragment):
            ga.limit_ratio(gamma, alpha)

    def test_limit_computed_where_alpha_over_gamma_times_e_to_alpha_overflows(self):
        # e**-alpha is far below float precision here, so the limit is alpha/gamma
        assert ga.limit_ratio(1, 705) == 705.0
        assert ga.limit_ratio(HALF, 800) == 1600.0
        assert ga.limit_ratio(F(1, 10**300), 30) == pytest.approx(3e301 / (1 - math.exp(-30)))


class TestSeparators:
    def test_ratio_separator_values(self):
        f = ga.make_ratio_separator(HALF)
        assert [f.value(m) for m in range(4)] == [0, 1, 1, 4]
        with pytest.raises(ga.ParameterError):
            ga.make_ratio_separator(F(1))
        with pytest.raises(ga.ParameterError):
            ga.make_ratio_separator(F(0))

    def test_rank_separator_preconditions(self):
        with pytest.raises(ga.ParameterError):
            ga.make_rank_separator(F(3, 4), 1, 1, 2)  # q above m/n
        with pytest.raises(ga.ParameterError):
            ga.make_rank_separator(HALF, HALF, 1, 2)  # alpha below 1
        with pytest.raises(ga.ParameterError):
            ga.make_rank_separator(HALF, 1, 2, 2)  # m/n not below 1

    def test_rank_separator_ceiling_of_alpha(self):
        system, oracle = ga.make_rank_separator(HALF, F(3, 2), 1, 2)
        assert system.n == 2 * 2 * 2 + 1  # ceil(3/2) = 2 doubles the blocks
        a_block = ga.mask_of(range(4))
        assert oracle.value(a_block) == 4
        assert oracle.value(system.ground.full_mask()) == 4 * 3  # 2*(2-1)+1 = 3 each

    def test_square_cardinality(self):
        f = ga.make_square_cardinality(3)
        assert f.value(0) == 0
        assert f.value(0b111) == 9


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: ga.make_critical_function(1, 1, 3, method="fast"), ga.ParameterError,
                 "unknown evaluation method 'fast'", id="critical-method"),
    pytest.param(lambda: ga.make_rank_separator(1, 1, 1, 2), ga.ParameterError,
                 "q must lie in (0,1), got 1", id="rank-separator-q"),
    pytest.param(lambda: ga.make_rank_separator(HALF, 1, 0, 2), ga.ParameterError,
                 "m and n must be positive integers", id="rank-separator-m"),
    pytest.param(lambda: ga.make_modular([3, -1]), ga.MalformedSystem,
                 "weights must be nonnegative", id="modular-negative-weight"),
])
def test_malformed_family_parameters_refused(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


class TestDescriptors:
    def test_critical_descriptor(self):
        bundle = ga.oracle_from_descriptor(
            {"family": "critical", "gamma": "1/2", "alpha": "1", "k": 2}
        )
        assert bundle.oracle.value(ga.mask_of([2, 3])) == 2

    def test_rank_descriptor_carries_system(self):
        bundle = ga.oracle_from_descriptor(
            {"family": "rank_separator", "q": "1/2", "alpha": "1", "m": 1, "n": 2}
        )
        assert bundle.system is not None
        assert ga.rank_quotient(bundle.system).quotient == HALF

    def test_flow_descriptor(self):
        inst = ga.make_two_sink_instance(2)
        descriptor = {"family": "flow", "instance": inst.to_json_dict()}
        assert ga.oracle_from_descriptor(descriptor).oracle.value(0b11) == 3
        assert FAMILIES["flow"].flow(descriptor) == inst

    def test_unknown_family(self):
        with pytest.raises(ga.ParameterError):
            ga.oracle_from_descriptor({"family": "mystery"})


@pytest.mark.parametrize("alpha", [F(4, 3), F(3, 2), F(5, 2)], ids=str)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_critical_tight_at_non_integer_alpha(alpha, k):
    """critical(1, alpha, k) needs exactly alpha, passes the strong audit at
    alpha, and greedy meets the closed-form ratio, for alpha off the integers."""
    f = ga.make_critical_function(1, alpha, k)
    assert ga.min_alpha_for(f, 1, scope="strong") == alpha
    assert ga.check_alpha_augmentable(f, alpha).verdict == "member"
    ratio, _ = ga.approximation_ratio(f)
    assert ratio == ga.critical_ratio_closed_form(1, alpha, k)
