from fractions import Fraction
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedyaug as ga
from greedyaug import audit, cli
from conftest import build_monotone_oracle
from test_orbits import symmetric_tables

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


def _non_monotone():
    """f(0) = 0, f({0}) = f({1}) = 2, f({0,1}) = 1: adding 0 to {1} lowers f."""
    values = [F(0), F(2), F(2), F(1)]
    return ga.SetFunctionOracle(ga.GroundSet(2), values.__getitem__, name="dip")


NON_MONOTONE_AUDITS = [
    pytest.param(lambda f: ga.check_alpha_augmentable(f, 1), id="alpha-strong"),
    pytest.param(lambda f: ga.check_alpha_augmentable(f, 1, scope="weak"), id="alpha-weak"),
    pytest.param(lambda f: ga.check_gamma_alpha_augmentable(f, HALF, 1), id="gamma-alpha-weak"),
    pytest.param(lambda f: ga.check_gamma_alpha_augmentable(f, HALF, 1, scope="strong"),
                 id="gamma-alpha-strong"),
    pytest.param(lambda f: ga.min_alpha_for(f, 1), id="min-alpha-weak"),
    pytest.param(lambda f: ga.min_alpha_for(f, 1, scope="strong"), id="min-alpha-strong"),
    pytest.param(ga.weak_submodularity_ratio, id="weak-ratio"),
]


class TestMonotonicityPrecondition:
    @pytest.mark.parametrize("audit", NON_MONOTONE_AUDITS)
    def test_non_monotone_refused_with_witness(self, audit):
        with pytest.raises(ga.ParameterError, match=r"adding element 0 to X=\[1\] lowers"):
            audit(_non_monotone())

    def test_non_monotone_refused_on_every_call(self):
        f = _non_monotone()
        for audit in (ga.weak_submodularity_ratio, lambda f: ga.min_alpha_for(f, 1),
                      lambda f: ga.check_alpha_augmentable(f, 1)):
            with pytest.raises(ga.ParameterError, match=r"adding element 0 to X=\[1\] lowers"):
                audit(f)

    def test_one_table_and_one_monotonicity_check_per_bundle(self, monkeypatch, capsys):
        builds, checks = [], []
        scaled_reps, first_decrease = ga.SetFunctionOracle.scaled_reps, ga.core._first_decrease

        def counted_build(f):
            builds.append(scaled_reps(f))
            return builds[-1]

        def counted_check(values, n, reps):
            checks.append(n)
            return first_decrease(values, n, reps)

        monkeypatch.setattr(ga.SetFunctionOracle, "scaled_reps", counted_build)
        monkeypatch.setattr(ga.core, "_first_decrease", counted_check)
        params = '{"gamma": "1/2", "alpha": "1", "k": 6}'
        assert cli.main(["audit", "--family", "critical", "--params", params, "--scope", "weak"]) == 0
        assert '"min_alpha": "1"' in capsys.readouterr().out
        assert builds and all(build is builds[0] for build in builds) and checks == [12]

    def test_parameters_checked_before_monotonicity(self):
        f = _non_monotone()
        with pytest.raises(ga.ParameterError, match="existential"):
            ga.min_alpha_for(f, 1, existential="bogus")
        with pytest.raises(ga.ParameterError, match="unknown scope"):
            ga.check_alpha_augmentable(f, 1, scope="bogus")


class TestResumableScan:
    """Audits and ``min_alpha_for`` on one oracle share one least-alpha scan
    per gamma and scope (and tie policy, in weak scope)."""

    @staticmethod
    def spy(monkeypatch):
        started = []
        scan = audit._scan

        def counted(blocks, x_sets, table, scale, gamma):
            started.append(gamma)
            return scan(blocks, x_sets, table, scale, gamma)

        monkeypatch.setattr(audit, "_scan", counted)
        return started

    def test_strong_audit_bundle_starts_one_scan_per_gamma(self, monkeypatch, capsys):
        started = self.spy(monkeypatch)
        params = '{"gamma": "1/2", "alpha": "1", "k": 4}'
        assert cli.main(["audit", "--family", "critical", "--params", params,
                         "--scope", "strong"]) == 0
        assert '"min_alpha": "1"' in capsys.readouterr().out
        assert started == [1, HALF]

    def test_audits_and_min_alpha_share_one_scan(self, monkeypatch):
        started = self.spy(monkeypatch)
        n = 4
        f = ga.make_modular([3, 1, 2, 5])
        first, second = ga.check_alpha_augmentable(f, 1), ga.check_alpha_augmentable(f, 2)
        assert ga.min_alpha_for(f, 1, scope="strong") == 1
        assert started == [1]
        assert first.member and second.member
        assert first.checked_pairs == second.checked_pairs == 4**n - 3**n

    def test_weak_scans_are_keyed_by_tie_order(self, monkeypatch):
        started = self.spy(monkeypatch)
        f = ga.make_modular([3, 1, 2])
        for tie in ([2, 0, 1], (2, 0, 1), "high", [2, 0, 1]):
            ga.min_alpha_for(f, 1, tie=tie)
        ga.min_alpha_for(f, 1, scope="strong", tie="high")
        ga.min_alpha_for(f, 1, scope="strong", tie="low")
        assert started == [1, 1, 1]

    def test_finished_scan_keeps_only_its_records(self):
        f = ga.make_critical_function(1, 2, 3)
        assert not ga.check_alpha_augmentable(f, F(3, 2)).member  # stops early
        records, pending = f.scans[(1, "strong")]
        assert pending is not None and records[-1][0] > F(3, 2)
        assert ga.min_alpha_for(f, 1, scope="strong") == 2
        records, pending = f.scans[(1, "strong")]
        assert pending is None and records[-1][1:] == ((1 << f.n) - 1, None, None)
        assert ga.check_alpha_augmentable(f, 2).checked_pairs == 4**f.n - 3**f.n

    def test_interrupted_scan_starts_over(self, monkeypatch):
        scan = audit._scan

        def interrupted(*args):
            yield next(scan(*args))
            raise KeyboardInterrupt

        f = ga.make_critical_function(1, 2, 3)
        monkeypatch.setattr(audit, "_scan", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ga.min_alpha_for(f, 1, scope="strong")
        monkeypatch.setattr(audit, "_scan", scan)
        assert ga.min_alpha_for(f, 1, scope="strong") == 2

    def test_non_monotone_refused_again_without_a_scan(self, monkeypatch):
        started = self.spy(monkeypatch)
        f = _non_monotone()
        for _ in range(2):
            with pytest.raises(ga.ParameterError, match=r"adding element 0 to X=\[1\] lowers"):
                ga.check_alpha_augmentable(f, 1)
        assert started == [] and f.scans == {}


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


def scope_sets(f, scope, tie="low"):
    if scope == "strong":
        return range(1 << f.n)
    trace = ga.greedy_adaptive(f, f.n, tie)
    return trace.chain[: ga.saturation_cardinality(f, tie=tie) + 1]


def naive_weak_ratio(f, tie):
    """(ratio, X, Y, pairs): the first strict minimum below 1 in scan order
    (X = Y = {} when there is none) and the number of nonempty Y disjoint
    from a chain prefix X."""
    trace = ga.greedy_adaptive(f, f.n, tie=tie)
    chain = trace.chain[: ga.saturation_cardinality(f, tie=tie) + 1]
    best, x_best, y_best, pairs = F(1), 0, 0, 0
    for x_set in chain:
        for y_set in range(1, 1 << f.n):
            if y_set & x_set:
                continue
            pairs += 1
            joint = f.value(x_set | y_set) - f.value(x_set)
            if joint == 0:
                continue
            total = sum(
                (f.value(x_set | (1 << y)) - f.value(x_set) for y in ga.indices_of(y_set)),
                F(0),
            )
            if total / joint < best:
                best, x_best, y_best = total / joint, x_set, y_set
    return best, x_best, y_best, pairs


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
    result = ga.weak_submodularity_ratio(f, tie=tie)
    assert (result.value, result.x_set, result.y_set, result.checked_pairs) == naive_weak_ratio(
        f, tie
    )


@settings(max_examples=40, deadline=None)
@given(
    symmetric_tables(),
    st.sampled_from([F(1, 2), F(1)]),
    st.sampled_from(["weak", "strong"]),
    st.sampled_from(["low", "high"]),
)
def test_blocked_audits_match_naive_reference(table, gamma, scope, tie):
    """Oracles that declare blocks visit one pair per orbit; the references
    visit every pair of an oracle that declares none."""
    n, blocks, values = table
    f = ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__, blocks=blocks)
    plain = ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__)
    x_sets = scope_sets(plain, scope, tie)
    assert ga.min_alpha_for(f, gamma, scope, tie) == naive_min_alpha(plain, gamma, x_sets, "full")
    for alpha in (gamma, F(1), F(3, 2), F(2)):
        if alpha < gamma:
            continue
        report = ga.check_gamma_alpha_augmentable(f, gamma, alpha, scope, tie)
        member, x_set, y_set, checked = naive_augmentability(plain, gamma, alpha, x_sets, "full")
        assert (report.member, report.checked_pairs) == (member, checked)
        if not member:
            assert (report.witness.x_set, report.witness.y_set) == (x_set, y_set)
            recheck_witness(f, report)
    if scope == "weak":
        result = ga.weak_submodularity_ratio(f, tie)
        assert (result.value, result.x_set, result.y_set, result.checked_pairs) == naive_weak_ratio(
            plain, tie
        )


AUDIT_CALLS = {
    "alpha": lambda f, gamma, alpha, scope, tie: ga.check_alpha_augmentable(
        f, alpha + 1 - gamma, scope=scope, tie=tie),
    "gamma-alpha": lambda f, gamma, alpha, scope, tie: ga.check_gamma_alpha_augmentable(
        f, gamma, alpha, scope=scope, tie=tie),
    "min-alpha": lambda f, gamma, alpha, scope, tie: ga.min_alpha_for(
        f, gamma, scope=scope, tie=tie),
}


@st.composite
def audit_call_sequences(draw):
    """A monotone int table at n <= 7 and a sequence of audit calls on it.

    The calls draw from a small pool of gammas and tie policies, so that
    several of them hit one scan."""
    n = draw(st.integers(1, 7))
    increments = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    gammas = draw(st.lists(st.sampled_from([F(1), F(1, 2), F(1, 3)]), min_size=1, max_size=2))
    tie = st.one_of(st.sampled_from(["low", "high"]), st.permutations(range(n)))
    ties = draw(st.lists(tie, min_size=1, max_size=3))
    call = st.tuples(
        st.sampled_from(sorted(AUDIT_CALLS)),
        st.sampled_from(gammas),
        st.sampled_from([F(0), F(1, 2), F(1), F(2)]),  # alpha - gamma
        st.sampled_from(["weak", "strong"]),
        st.sampled_from(ties),
    )
    return n, increments, draw(st.lists(call, min_size=1, max_size=10))


@settings(max_examples=100, deadline=None)
@given(audit_call_sequences())
def test_shared_scan_matches_fresh_oracle(drawn):
    """Every audit on an oracle that earlier calls have scanned reports what the
    same call reports on a fresh oracle: verdict, witness, pairs, least alpha."""
    n, increments, calls = drawn
    shared = build_monotone_oracle(n, increments)
    for kind, gamma, step, scope, tie in calls:
        args = (gamma, gamma + step, scope, tie)
        fresh = build_monotone_oracle(n, increments)
        assert AUDIT_CALLS[kind](shared, *args) == AUDIT_CALLS[kind](fresh, *args)


def count_pairs(n, x_sets, y_set):
    """The pairs (X', Y'), Y' not inside X', of a scan over every mask that
    runs X' along ``x_sets`` and stops at (last X, Y), or after the last X when
    Y is None: each counted directly."""
    *before, x_set = x_sets
    checked = sum(1 for x in before for y in range(1 << n) if y & ~x)
    return checked + sum(1 for y in range(1 << n if y_set is None else y_set + 1) if y & ~x_set)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1), st.permutations(range(n)),
    st.integers(0, n))))
def test_checked_pairs_closed_forms_match_direct_counts(drawn):
    """``checked_pairs`` in each scope, and the weak ratio's count, against a
    count of the pairs a scan over every mask checks."""
    n, x_set, y_set, order, s = drawn
    y_set &= ~x_set
    for y in (y_set or None, None):
        assert audit._checked_pairs(n, "strong", x_set, y) == count_pairs(n, range(x_set + 1), y)
    chain = [ga.mask_of(order[:j]) for j in range(n + 1)]
    y_set &= ~chain[s]
    for y in (y_set or None, None):
        assert audit._checked_pairs(n, "weak", chain[s], y) == count_pairs(n, chain[:s + 1], y)
    # The weak ratio counts the nonempty Y disjoint from each prefix up to saturation s.
    ratio = ga.weak_submodularity_ratio(ga.make_modular([1] * s + [0] * (n - s)))
    assert ratio.checked_pairs == sum((1 << n - j) - 1 for j in range(s + 1))
