from fractions import Fraction
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedyaug as ga
from conftest import build_monotone_oracle

F = Fraction
HALF = F(1, 2)


def recheck_witness(f, report):
    """Re-derive both sides of a non-member witness straight from the oracle."""
    w = report.witness
    fx = f.value(w.x_set)
    candidates = []
    probe = w.y_set
    while probe:
        low = probe & -probe
        y = low.bit_length() - 1
        if report.existential == "full" or not w.x_set >> y & 1:
            candidates.append(f.value(w.x_set | low) - fx)
        probe ^= low
    best = max(candidates)
    rhs = (report.gamma * f.value(w.x_set | w.y_set) - report.alpha * fx) / w.y_set.bit_count()
    assert best == w.lhs and rhs == w.rhs and best < rhs


class TestWeakRatio:
    def test_ratio_separator_values(self):
        for gamma in (HALF, F(1, 4), F(3, 4)):
            result = ga.weak_submodularity_ratio(ga.make_ratio_separator(gamma))
            assert result.value == gamma
            assert result.x_set == 0 and result.y_set == 0b11

    def test_modular_ratio_is_one(self):
        assert ga.weak_submodularity_ratio(ga.make_modular([3, 1, 2])).value == 1

    def test_flow_ratio_zero_with_witness(self, zero_ratio2):
        _, oracle = zero_ratio2
        result = ga.weak_submodularity_ratio(oracle)
        assert result.value == 0
        assert ga.indices_of(result.x_set) == (0,)  # the first pick, t2
        labels = [oracle.ground.label(i) for i in ga.indices_of(result.y_set)]
        assert labels == ["t1", "t3"]

    def test_guard(self):
        f = ga.make_modular([1] * 20)
        with pytest.raises(ga.GroundSetTooLarge):
            ga.weak_submodularity_ratio(f)


class TestAlphaAugmentable:
    def test_critical_unit_gamma_member(self):
        assert ga.check_alpha_augmentable(ga.make_critical_function(1, 2, 3), 2).member

    def test_critical_unit_gamma_tightness(self):
        f = ga.make_critical_function(1, 2, 3)
        report = ga.check_alpha_augmentable(f, F(3, 2))
        assert not report.member
        recheck_witness(f, report)

    def test_ratio_separator_never_member(self):
        f = ga.make_ratio_separator(HALF)
        for alpha in (1, 2, 4):
            report = ga.check_alpha_augmentable(f, alpha)
            assert not report.member
            assert report.witness.x_set == 0 and report.witness.y_set == 0b11
            recheck_witness(f, report)

    def test_two_sink_member_exactly_at_two(self, two_sink2):
        _, oracle = two_sink2
        assert ga.check_alpha_augmentable(oracle, 2).member
        assert ga.check_alpha_augmentable(oracle, 1).member  # this instance is easy

    def test_alpha_below_one_rejected(self, f112):
        with pytest.raises(ga.ParameterError):
            ga.check_alpha_augmentable(f112, HALF)


class TestGammaAlphaAugmentable:
    def test_critical_weak_member(self):
        f = ga.make_critical_function(HALF, 1, 4)
        assert ga.check_gamma_alpha_augmentable(f, HALF, 1, scope="weak").member

    def test_square_never_member(self):
        f = ga.make_square_cardinality(3)
        for alpha in (HALF, 1, 2):
            report = ga.check_gamma_alpha_augmentable(f, HALF, alpha)
            assert not report.member
            assert report.witness.x_set == 0
            assert report.witness.y_set.bit_count() == 3
            recheck_witness(f, report)

    def test_weak_ratio_implies_gamma_gamma(self, corpus):
        for name, oracle, _ in corpus:
            g = ga.weak_submodularity_ratio(oracle).value
            if g > 0:
                assert ga.check_gamma_alpha_augmentable(oracle, g, g, scope="weak").member, name

    def test_parameter_domain(self, f112):
        with pytest.raises(ga.ParameterError):
            ga.check_gamma_alpha_augmentable(f112, 0, 1)
        with pytest.raises(ga.ParameterError):
            ga.check_gamma_alpha_augmentable(f112, 1, HALF)

    def test_difference_existential_implies_full(self, corpus):
        # A witness from Y \ X is in particular a witness from Y.
        for name, oracle, _ in corpus:
            if oracle.n > 5:
                continue
            strict = ga.check_gamma_alpha_augmentable(
                oracle, 1, 2, scope="weak", existential="difference"
            )
            if strict.member:
                assert ga.check_gamma_alpha_augmentable(oracle, 1, 2, scope="weak").member, name

    def test_report_json_shape(self):
        report = ga.check_gamma_alpha_augmentable(ga.make_square_cardinality(3), HALF, 1)
        d = report.to_json_dict()
        assert d["verdict"] == "non-member"
        assert d["witness"]["X"] == []
        assert set(d) >= {"gamma", "alpha", "scope", "tie", "checked_pairs"}


class TestMinAlpha:
    def test_modular(self):
        assert ga.min_alpha_for(ga.make_modular([3, 1, 2]), 1) == 1

    def test_two_sink(self, two_sink2):
        _, oracle = two_sink2
        assert ga.min_alpha_for(oracle, 1, scope="strong") == 1

    def test_rank_separator_policy_dependence(self, rank_separator_half):
        _, oracle = rank_separator_half
        assert ga.min_alpha_for(oracle, 1, tie="high") == 2  # gamma / quotient
        assert ga.min_alpha_for(oracle, 1, tie="low") == 1

    def test_critical_instance_needs_its_own_alpha(self):
        assert ga.min_alpha_for(ga.make_critical_function(1, 2, 5), 1) == 2

    def test_result_is_tight(self, corpus):
        for name, oracle, _ in corpus:
            if oracle.n > 5:
                continue
            alpha = ga.min_alpha_for(oracle, 1)
            if alpha == math.inf:
                continue
            assert ga.check_gamma_alpha_augmentable(oracle, 1, alpha, scope="weak").member, name
            shaved = alpha - F(1, 1000)
            if shaved >= 1:
                assert not ga.check_gamma_alpha_augmentable(
                    oracle, 1, shaved, scope="weak"
                ).member, name

    def test_infinite_when_zero_value_pair_unsatisfiable(self, zero_ratio2):
        _, oracle = zero_ratio2
        # After picking t2, {t1, t3} jumps from a zero-gain plateau: the chain
        # contains X with f-gap no alpha can pay for only if f(X) = 0; here
        # f({t2}) = 1 > 0, so a finite alpha exists.
        assert ga.min_alpha_for(oracle, 1) < math.inf
        # A genuinely unsatisfiable zero-value pair: f(singletons) = 0 but a pair pays.
        pair = ga.mask_of([0, 1])
        f = ga.SetFunctionOracle(ga.GroundSet(2), lambda m: F(1) if m == pair else F(0))
        assert ga.min_alpha_for(f, 1) == math.inf

    def test_unknown_existential_rejected(self):
        with pytest.raises(ga.ParameterError, match="existential"):
            ga.min_alpha_for(ga.make_modular([3, 1, 2]), 1, existential="bogus")


class TestCertifiedBound:
    @pytest.mark.parametrize("gamma, alpha", [(1, 0), (2, 2), (0, 1), (1, HALF)])
    def test_parameter_domain(self, gamma, alpha):
        with pytest.raises(ga.ParameterError):
            ga.certify_greedy_bound(ga.make_modular([1, 2]), gamma, alpha)

    def test_critical_equality_at_k(self, f112):
        records = ga.certify_greedy_bound(f112, 1, 1)
        by_k = {r.k: r for r in records}
        assert by_k[2].slack == 0
        assert by_k[2].greedy_value == F(3, 4)
        assert all(r.ok for r in records)

    def test_modular_never_negative(self):
        records = ga.certify_greedy_bound(ga.make_modular([3, 1, 2, 5]), 1, 1)
        assert all(r.ok for r in records)

    def test_staircase_certificate(self, staircase_a1k2):
        _, oracle = staircase_a1k2
        records = ga.certify_greedy_bound(oracle, 1, 1)
        by_k = {r.k: r for r in records}
        assert all(r.ok for r in records)
        assert by_k[2].slack == 0  # tight at the designed cardinality
        assert by_k[1].slack == 0  # first pick is optimal

    def test_measured_ratio_within_certified_bound(self, corpus):
        """The measured ratio never exceeds the class bound at its witness
        cardinality, for members audited at their own tightest alpha."""
        for name, oracle, _ in corpus:
            if oracle.n > 6:
                continue
            alpha = ga.min_alpha_for(oracle, 1)
            if alpha == math.inf:
                continue
            ratio, witness_k = ga.approximation_ratio(oracle)
            sat = ga.saturation_cardinality(oracle)
            if witness_k > sat or witness_k < alpha:
                continue
            factor = 1 - (1 - alpha / witness_k) ** witness_k
            assert ratio * factor <= alpha, (name, ratio, alpha, witness_k)


small_oracles = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n),
    )
)


@settings(max_examples=40, deadline=None)
@given(small_oracles, st.sampled_from([F(1, 2), F(1)]), st.sampled_from([F(1), F(2)]))
def test_parameter_lattice_monotone(data, gamma, alpha):
    """Passing at (gamma, alpha) implies passing at smaller gamma, larger alpha."""
    n, increments = data
    f = build_monotone_oracle(n, increments)
    if alpha < gamma:
        return
    if ga.check_gamma_alpha_augmentable(f, gamma, alpha, scope="weak").member:
        assert ga.check_gamma_alpha_augmentable(f, gamma / 2, alpha, scope="weak").member
        assert ga.check_gamma_alpha_augmentable(f, gamma, alpha + 1, scope="weak").member


@settings(max_examples=40, deadline=None)
@given(small_oracles)
def test_non_member_witnesses_reverify(data):
    n, increments = data
    f = build_monotone_oracle(n, increments)
    report = ga.check_gamma_alpha_augmentable(f, 1, 1, scope="strong")
    if not report.member:
        recheck_witness(f, report)


def naive_best_gain(f, x_set, y_set, existential):
    return max(
        f.value(x_set | (1 << y)) - f.value(x_set)
        for y in ga.indices_of(y_set)
        if existential == "full" or not x_set >> y & 1
    )


def naive_pairs(f, x_sets):
    """In-scope pairs (X, Y) with Y not inside X, in mask order."""
    for x_set in x_sets:
        for y_set in range(1, 1 << f.n):
            if y_set & ~x_set:
                yield x_set, y_set


def naive_augmentability(f, gamma, alpha, x_sets, existential):
    """Reference evaluation of the quantified property by direct loops.

    Returns (member, X, Y, pairs examined up to and including the witness).
    """
    checked = 0
    for x_set, y_set in naive_pairs(f, x_sets):
        checked += 1
        best = naive_best_gain(f, x_set, y_set, existential)
        needed = gamma * f.value(x_set | y_set) - alpha * f.value(x_set)
        if best * y_set.bit_count() < needed:
            return False, x_set, y_set, checked
    return True, None, None, checked


def naive_min_alpha(f, gamma, x_sets, existential):
    """Least alpha >= gamma satisfying every pair, or +inf, by direct loops."""
    needed = gamma
    for x_set, y_set in naive_pairs(f, x_sets):
        best = naive_best_gain(f, x_set, y_set, existential)
        shortfall = gamma * f.value(x_set | y_set) - best * y_set.bit_count()
        if f.value(x_set) == 0:
            if shortfall > 0:
                return math.inf
        else:
            needed = max(needed, shortfall / f.value(x_set))
    return needed


def scope_sets(f, scope):
    if scope == "strong":
        return range(1 << f.n)
    trace = ga.greedy_adaptive(f, f.n)
    return trace.chain[: ga.saturation_cardinality(f) + 1]


def naive_weak_ratio(f, tie):
    trace = ga.greedy_adaptive(f, f.n, tie=tie)
    chain = trace.chain[: ga.saturation_cardinality(f, tie=tie) + 1]
    best = F(1)
    for x_set in chain:
        for y_set in range(1 << f.n):
            if y_set & x_set:
                continue
            joint = f.value(x_set | y_set) - f.value(x_set)
            if joint == 0:
                continue
            total = sum(
                (f.value(x_set | (1 << y)) - f.value(x_set) for y in ga.indices_of(y_set)),
                F(0),
            )
            best = min(best, total / joint)
    return best


@settings(max_examples=30, deadline=None)
@given(
    small_oracles,
    st.sampled_from([F(1, 2), F(1)]),
    st.sampled_from([F(1), F(3, 2), F(2)]),
    st.sampled_from(["weak", "strong"]),
    st.sampled_from(["full", "difference"]),
)
def test_audit_engine_matches_naive_reference(data, gamma, alpha, scope, existential):
    n, increments = data
    f = build_monotone_oracle(n, increments)
    report = ga.check_gamma_alpha_augmentable(
        f, gamma, alpha, scope=scope, existential=existential
    )
    member, x_set, y_set, checked = naive_augmentability(
        f, gamma, alpha, scope_sets(f, scope), existential
    )
    assert report.member == member
    assert report.checked_pairs == checked
    if not member:
        assert (report.witness.x_set, report.witness.y_set) == (x_set, y_set)
        recheck_witness(f, report)


@settings(max_examples=40, deadline=None)
@given(
    small_oracles,
    st.sampled_from([F(1, 2), F(1)]),
    st.sampled_from(["weak", "strong"]),
    st.sampled_from(["full", "difference"]),
)
def test_min_alpha_matches_naive_reference(data, gamma, scope, existential):
    n, increments = data
    f = build_monotone_oracle(n, increments)
    least = ga.min_alpha_for(f, gamma, scope=scope, existential=existential)
    assert least == naive_min_alpha(f, gamma, scope_sets(f, scope), existential)
    for alpha in (gamma, F(1), F(3, 2), F(2)):
        if alpha >= gamma:
            report = ga.check_gamma_alpha_augmentable(
                f, gamma, alpha, scope=scope, existential=existential
            )
            assert report.member == (least <= alpha)


@settings(max_examples=30, deadline=None)
@given(small_oracles, st.sampled_from(["low", "high"]))
def test_weak_ratio_matches_naive_reference(data, tie):
    n, increments = data
    f = build_monotone_oracle(n, increments)
    assert ga.weak_submodularity_ratio(f, tie=tie).value == naive_weak_ratio(f, tie)
