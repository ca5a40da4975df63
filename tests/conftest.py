import random
from fractions import Fraction

import pytest

import greedyaug as ga
from greedyaug import verify


def replace(record, **changes):
    """A new record of ``record``'s type: its fields, with ``changes``, through the constructor."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def build_monotone_oracle(n, increments, name="table"):
    """Monotone oracle from nonnegative per-subset join increments.

    table[X] = increments[X] + max over single-element removals, which is
    monotone for any nonnegative increment assignment and can realize any
    monotone function.
    """
    size = 1 << n
    assert len(increments) == size
    table = [Fraction(0)] * size
    for mask in range(size):
        best = Fraction(0)
        probe = mask
        while probe:
            low = probe & -probe
            prev = table[mask ^ low]
            if prev > best:
                best = prev
            probe ^= low
        table[mask] = best + Fraction(increments[mask])
    return ga.SetFunctionOracle(ga.GroundSet(n), lambda m: table[m], name=name)


def random_monotone_oracle(n, seed, density=0.6, max_num=6):
    rng = random.Random(seed)
    increments = [
        Fraction(rng.randint(1, max_num), rng.choice([1, 2, 3])) if rng.random() < density else 0
        for _ in range(1 << n)
    ]
    return build_monotone_oracle(n, increments, name=f"random(n={n},seed={seed})")


@pytest.fixture(scope="session")
def f112():
    return ga.make_critical_function(1, 1, 2)


@pytest.fixture(scope="session")
def two_sink2():
    inst = ga.make_two_sink_instance(2)
    return inst, ga.objective_oracle(inst)


@pytest.fixture(scope="session")
def two_sink1():
    inst = ga.make_two_sink_instance(1)
    return inst, ga.objective_oracle(inst)


@pytest.fixture(scope="session")
def zero_ratio2():
    inst = ga.make_zero_ratio_instance(2)
    return inst, ga.objective_oracle(inst)


@pytest.fixture(scope="session")
def staircase_a1k2():
    inst = ga.make_lower_bound_instance(1, 2)
    return inst, ga.objective_oracle(inst)


@pytest.fixture(scope="session")
def staircase_a1k3():
    inst = ga.make_lower_bound_instance(1, 3)
    return inst, ga.objective_oracle(inst)


@pytest.fixture(scope="session")
def staircase_a2k2():
    inst = ga.make_lower_bound_instance(2, 2)
    return inst, ga.objective_oracle(inst)


@pytest.fixture(scope="session")
def rank_separator_half():
    system, oracle = ga.make_rank_separator(Fraction(1, 2), 1, 1, 2)
    return system, oracle


@pytest.fixture(scope="session")
def corpus(two_sink1, staircase_a1k2):
    """verify-paper's corpus plus the entries only the tests audit: named
    oracles, with backing systems where applicable."""
    uniform = ga.uniform_matroid(5, 2, [3, 1, 2, 2, 5])
    closure = ga.random_downward_closed_system(5, random.Random(7))
    return verify.small_corpus() + [
        ("critical-1-2-3", ga.make_critical_function(1, 2, 3), None),
        ("ratio-sep-3q", ga.make_ratio_separator(Fraction(3, 4)), None),
        ("uniform-5-2", ga.weighted_rank_oracle(uniform), uniform),
        ("closure-5", ga.weighted_rank_oracle(closure), closure),
        ("two-sink-a1", two_sink1[1], None),
        ("staircase-1-2", staircase_a1k2[1], None),
        ("random-4-a", random_monotone_oracle(4, 11), None),
        ("random-4-b", random_monotone_oracle(4, 12), None),
        ("random-5-c", random_monotone_oracle(5, 13), None),
    ]
