import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedyaug as ga
from conftest import replace

F = Fraction


def triangle_matching_system():
    # Elements are the three edges of a triangle; any two edges share a vertex,
    # so the matchings are exactly the empty set and the singletons.
    return ga.IndependenceSystem(
        ga.GroundSet(3, ("e01", "e12", "e02")),
        lambda mask: mask.bit_count() <= 1,
        [1, 1, 1],
        name="triangle-matchings",
    )


class TestSystems:
    def test_free_system_rank_is_modular(self):
        f = ga.weighted_rank_oracle(ga.free_system([3, 1, 2]))
        assert f.value(0b111) == 6
        assert f.value(0b101) == 5

    def test_triangle_matching_rank(self):
        f = ga.weighted_rank_oracle(triangle_matching_system())
        assert f.value(0b111) == 1

    def test_validate_detects_closure_violation(self):
        bad = ga.IndependenceSystem(
            ga.GroundSet(2), lambda mask: mask != 0b01, [1, 1], name="bad"
        )
        with pytest.raises(ga.MalformedSystem):
            bad.validate()

    def test_validate_detects_missing_empty_set(self):
        bad = ga.IndependenceSystem(ga.GroundSet(2), lambda mask: mask != 0, [1, 1])
        with pytest.raises(ga.MalformedSystem):
            bad.validate()

    def test_validate_is_exhaustive_above_sixteen_elements(self):
        bad = ga.IndependenceSystem(ga.GroundSet(17), lambda mask: mask != 0b1, [1] * 17)
        with pytest.raises(ga.MalformedSystem):
            ga.weighted_rank_oracle(bad)

    def test_validate_keeps_its_verdict(self, monkeypatch):
        """The rank oracle validates; rank_quotient on the same system then looks up
        only what its own sweep needs, as on a fresh system minus the closure scan."""

        def counted(system):
            lookups = [0]
            lookup = system.independent

            def independent(mask):
                lookups[0] += 1
                return lookup(mask)

            monkeypatch.setattr(system, "independent", independent)
            return lookups

        system = ga.uniform_matroid(6, 3)
        lookups = counted(system)
        ga.weighted_rank_oracle(system)
        scan = lookups[0]
        assert scan > 1 << system.n
        system.validate()
        assert lookups[0] == scan
        result = ga.rank_quotient(system)
        fresh = ga.uniform_matroid(6, 3)
        fresh_lookups = counted(fresh)
        assert ga.rank_quotient(fresh) == result
        assert lookups[0] - scan == fresh_lookups[0] - scan

    def test_malformed_system_is_refused_on_every_call(self):
        bad = ga.IndependenceSystem(ga.GroundSet(3), lambda mask: mask != 0b10, [1, 1, 1])
        messages = []
        for call in (bad.validate, bad.validate, lambda: ga.weighted_rank_oracle(bad),
                     lambda: ga.weighted_rank_oracle(bad), lambda: ga.rank_quotient(bad)):
            with pytest.raises(ga.MalformedSystem) as refusal:
                call()
            messages.append(str(refusal.value))
        assert messages == ["system: (0, 1) independent but (1,) is not"] * 5

    def test_negative_weights_rejected(self):
        with pytest.raises(ga.MalformedSystem):
            ga.free_system([1, -1])

    def test_weight_mask_validated(self):
        system = ga.free_system([3, 1, 2])
        assert system.weight(0b111) == 6
        for mask in (-1, 1 << system.n):
            with pytest.raises(ga.ParameterError, match="outside ground set of 3 elements"):
                system.weight(mask)

    def test_rank_oracle_guard(self):
        with pytest.raises(ga.GroundSetTooLarge):
            ga.weighted_rank_oracle(ga.free_system([1] * 20))


def reference_rank(system, mask):
    """The largest weight over the independent submasks of mask, summed in Fractions."""
    return max(sum((system.weights[i] for i in ga.indices_of(sub)), F(0))
               for sub in ga.core.iter_submasks(mask) if system.independent(sub))


# zero weights and mixed denominators, so the int weights share a scale of up to 30
mixed_weights = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3, 5]))


@st.composite
def downward_closed_systems(draw):
    n = draw(st.integers(1, 6))
    generators = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=4))
    weights = draw(st.lists(mixed_weights, min_size=n, max_size=n))
    return ga.downward_closure_system(n, generators, weights, name="drawn")


@st.composite
def blocked_uniform_matroids(draw):
    """Uniform matroids over a few weight values, so the equal-weight classes are blocks."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.sampled_from([F(0), F(1, 2), F(1), F(5, 3)]),
                            min_size=n, max_size=n))
    return ga.uniform_matroid(n, draw(st.integers(0, n)), weights)


@pytest.mark.parametrize("weights", [[1], [1, 2, 3]], ids=["short", "long"])
def test_weights_of_another_length_refused(weights):
    with pytest.raises(ga.MalformedSystem) as excinfo:
        ga.IndependenceSystem(ga.GroundSet(2), lambda mask: True, weights)
    assert str(excinfo.value) == "weights length must equal ground set size"


class TestRankOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(downward_closed_systems(), blocked_uniform_matroids()))
    def test_rank_equals_the_brute_force_reference_on_every_mask(self, system):
        f = ga.weighted_rank_oracle(system)
        for mask in range(1 << system.n):
            assert f.value(mask) == reference_rank(system, mask), (system.name, mask)

    def test_one_oracle_per_system_checked_on_every_call(self, monkeypatch):
        budgets, validations = [], []
        require_budget, validate = ga.independence.require_budget, ga.IndependenceSystem.validate
        monkeypatch.setattr(ga.independence, "require_budget",
                            lambda *args: budgets.append(args) or require_budget(*args))
        monkeypatch.setattr(ga.IndependenceSystem, "validate",
                            lambda self: validations.append(self) or validate(self))
        system, twin = (ga.uniform_matroid(4, 2, [3, 1, 2, 2]) for _ in range(2))
        f = ga.weighted_rank_oracle(system)
        assert ga.weighted_rank_oracle(system) is f
        assert ga.weighted_rank_oracle(twin) is not f
        assert len(budgets) == 3 and validations == [system, system, twin]

    @pytest.mark.parametrize("tie", ["low", "high"])
    def test_exchange_check_reuses_the_system_oracle(self, tie):
        """After a full greedy chain on the system's oracle, the exchange check
        reads only values that chain has evaluated: neither the oracle's evaluator
        nor a second oracle's weighs a mask."""
        rng = random.Random(11)
        systems = [ga.random_downward_closed_system(6, rng) for _ in range(4)]
        systems += [ga.make_rank_separator(F(1, 2), 1, 1, 2)[0], ga.uniform_matroid(5, 2)]
        for system in systems:
            f = ga.weighted_rank_oracle(system)
            ga.greedy_adaptive(f, f.n, tie)
            evaluate, weigh, calls = f._fn, system.weight, []
            f._fn = lambda mask: calls.append(mask) or evaluate(mask)
            system.weight = lambda mask: calls.append(mask) or weigh(mask)
            report = ga.check_exchange_equivalences(system, tie)
            assert report.ok and calls == [], system.name


def reference_bases_of(system, mask):
    """All inclusion-maximal independent subsets of mask, in decreasing submask order."""
    out = []
    for sub in ga.core.iter_submasks(mask):
        if system.independent(sub) and not any(
            system.independent(sub | 1 << e) for e in ga.indices_of(mask & ~sub)
        ):
            out.append(sub)
    return out


def reference_rank_quotient(system):
    """The per-X scan over every submask: first-met bases win size ties, first X wins."""
    best = ga.RankQuotientResult(F(1), 0, 0, 0, 0)
    for mask in range(1 << system.n):
        bases = reference_bases_of(system, mask)
        small = min(bases, key=int.bit_count)
        large = max(bases, key=int.bit_count)
        if large and F(small.bit_count(), large.bit_count()) < best.quotient:
            q = F(small.bit_count(), large.bit_count())
            best = ga.RankQuotientResult(q, mask, small, large, 0)
    return replace(best, checked_sets=1 << system.n)


closure_systems = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5),
    )
)


class TestRankQuotient:
    @settings(max_examples=80, deadline=None)
    @given(closure_systems)
    def test_matches_per_set_scan_on_closure_systems(self, data):
        n, generators = data
        system = ga.downward_closure_system(n, generators, [1] * n)
        assert ga.rank_quotient(system) == reference_rank_quotient(system)

    def test_matches_per_set_scan_on_matroids_and_separators(self):
        systems = [ga.uniform_matroid(n, r) for n in range(1, 7) for r in range(n + 1)]
        systems += [ga.make_rank_separator(F(1, 2), 1, 1, 2)[0],
                    ga.make_rank_separator(F(1, 2), 1, 3, 5)[0]]
        for system in systems:
            assert ga.rank_quotient(system) == reference_rank_quotient(system), system.name

    def test_size_ties_keep_the_larger_mask(self):
        # the full set has bases 0b111110, 0b011111 (size 5) and 0b101001, 0b100101 (size 3)
        system = ga.downward_closure_system(6, [0b011111, 0b100101, 0b101001, 0b111110], [1] * 6)
        assert ga.rank_quotient(system) == ga.RankQuotientResult(F(3, 5), 0b111111, 0b101001,
                                                                 0b111110, 64)

    def test_uniform_matroid_quotient_one(self):
        assert ga.rank_quotient(ga.uniform_matroid(5, 2)).quotient == 1

    def test_rank_separator_quotient(self, rank_separator_half):
        system = rank_separator_half[0]
        result = ga.rank_quotient(system)
        assert result.quotient == F(1, 2)

    def test_two_block_closure_example(self):
        system = ga.downward_closure_system(3, [0b001, 0b110], [1, 1, 1])
        result = ga.rank_quotient(system)
        assert result.quotient == F(1, 2)
        assert result.witness_set == 0b111
        assert result.small_basis == 0b001
        assert result.large_basis == 0b110

    def test_malformed_system_raises(self):
        bad = ga.IndependenceSystem(ga.GroundSet(3), lambda mask: mask != 0b001, [1, 1, 1])
        with pytest.raises(ga.MalformedSystem):
            ga.rank_quotient(bad)


class TestExchangeEquivalences:
    def test_uniform_matroid(self):
        report = ga.check_exchange_equivalences(ga.uniform_matroid(4, 2, [3, 1, 2, 2]))
        assert report.ok and report.steps_checked > 0

    def test_free_system(self):
        report = ga.check_exchange_equivalences(ga.free_system([3, 1, 2]))
        assert report.ok

    def test_rank_separator_both_policies(self, rank_separator_half):
        system, _ = rank_separator_half
        assert ga.check_exchange_equivalences(system, tie="low").ok
        assert ga.check_exchange_equivalences(system, tie="high").ok

    def test_random_systems(self):
        rng = random.Random(5)
        for _ in range(6):
            system = ga.random_downward_closed_system(7, rng)
            report = ga.check_exchange_equivalences(system)
            assert report.ok, report.violations[:1]


class TestRankSeparatorValues:
    def test_block_values(self, rank_separator_half):
        system, oracle = rank_separator_half
        a_block = ga.mask_of([0, 1])
        b_block = ga.mask_of([2, 3])
        assert oracle.value(a_block) == 2
        assert oracle.value(b_block) == 4
        assert oracle.value(a_block | b_block) == 4
        assert oracle.value(system.ground.full_mask()) == 4

    def test_weights(self, rank_separator_half):
        system, _ = rank_separator_half
        assert system.weights == (F(1), F(1), F(2), F(2), F(2))
