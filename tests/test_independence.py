import random
from fractions import Fraction

import pytest

import greedyaug as ga

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


class TestRankQuotient:
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
