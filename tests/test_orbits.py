"""Block-symmetric oracles against unreduced oracles over the same values.

A family that declares ``blocks`` of interchangeable elements evaluates one
least mask per orbit and sweeps optima over those representatives alone.
Every result must be the one of an oracle that declares nothing and
evaluates every mask itself.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import greedyaug as ga
from greedyaug.families import CriticalParams, _closed_eval
from conftest import every_value
from test_flows import plain_oracle

F = Fraction
HALF = F(1, 2)


def plain_critical(gamma, alpha, k):
    """The closed critical evaluator on every mask, with no blocks."""
    params = CriticalParams(F(gamma), F(alpha), k)
    return ga.SetFunctionOracle(ga.families._critical_ground(k),
                                _closed_eval(params, params.step_gains()))


def plain_system(system):
    """The same predicate and weights with no blocks declared."""
    return ga.IndependenceSystem(system.ground, system.independent, system.weights,
                                 name=system.name)


def audits(f, gamma, alphas, scope, tie):
    """Weak ratio (weak scope), audit reports and least alpha of f, in one order."""
    out = [ga.weak_submodularity_ratio(f, tie)] if scope == "weak" else []
    for alpha in alphas:
        if alpha >= 1:
            out.append(ga.check_alpha_augmentable(f, alpha, scope, tie).to_json_dict())
        if alpha >= gamma:
            out.append(ga.check_gamma_alpha_augmentable(f, gamma, alpha, scope, tie).to_json_dict())
    return out + [ga.min_alpha_for(f, gamma, scope, tie)]


def assert_same_results(reduced, plain, gamma, alphas, strong=True, upper_bound=None):
    """Tables, optima (bound-pruned too), ratios, audits and least alphas agree.

    ``upper_bound`` defaults to f(full), which bounds every value of a monotone f."""
    assert every_value(reduced) == every_value(plain)
    profile = ga.optimum_profile(plain)
    assert ga.optimum_profile(reduced) == profile
    if upper_bound is None:
        top = plain.value(plain.ground.full_mask())
        upper_bound = lambda mask: top
    for k in range(plain.n + 1):
        assert (ga.optimum_value(reduced, k, upper_bound=upper_bound)
                == ga.optimum_value(plain, k, upper_bound=upper_bound) == profile[k].best_value)
    for variant in ("adaptive", "nonadaptive"):
        for tie in ("low", "high"):
            assert (ga.approximation_ratio(reduced, tie, variant)
                    == ga.approximation_ratio(plain, tie, variant))
    scopes = [("weak", "low"), ("weak", "high")] + ([("strong", "low")] if strong else [])
    for scope, tie in scopes:
        assert (audits(reduced, gamma, alphas, scope, tie)
                == audits(plain, gamma, alphas, scope, tie))


@pytest.mark.parametrize("gamma, alpha, k", [
    (1, 1, 2), (HALF, 1, 3), (1, 2, 4), (HALF, F(3, 2), 5), (1, F(4, 3), 6),
])
def test_critical_matches_unreduced(gamma, alpha, k):
    reduced = ga.make_critical_function(gamma, alpha, k)
    assert reduced.blocks == ((tuple(range(k + 1, 2 * k)),) if k >= 3 else ())
    assert_same_results(reduced, plain_critical(gamma, alpha, k), gamma,
                        [gamma, alpha, F(9, 10) * alpha, 2], strong=k <= 5)


def test_critical_matches_unreduced_in_strong_scope_at_n12():
    reduced, plain = ga.make_critical_function(HALF, 1, 6), plain_critical(HALF, 1, 6)
    alphas = [HALF, F(9, 10), 1]
    assert (audits(reduced, HALF, alphas, "strong", "low")
            == audits(plain, HALF, alphas, "strong", "low"))


@pytest.mark.parametrize("n", [2, 5, 8])
def test_square_matches_unreduced(n):
    reduced = ga.make_square_cardinality(n)
    assert reduced.blocks == (tuple(range(n)),)
    plain = ga.SetFunctionOracle(ga.GroundSet(n), lambda m: F(m.bit_count()) ** 2)
    assert_same_results(reduced, plain, HALF, [HALF, 1, 2])


@pytest.mark.parametrize("n, rank, weights", [
    (7, 3, [1, 2, 1, 2, 1, 3, 1]),
    (6, 2, [HALF, HALF, 2, 2, 2, 1]),
    (5, 5, [1] * 5),
])
def test_uniform_matroid_matches_unreduced(n, rank, weights):
    system = ga.uniform_matroid(n, rank, weights)
    plain = plain_system(system)
    assert system.blocks == tuple(
        tuple(i for i in range(n) if weights[i] == w)
        for w in dict.fromkeys(weights) if weights.count(w) > 1)
    assert_same_results(ga.weighted_rank_oracle(system), ga.weighted_rank_oracle(plain), 1,
                        [1, F(3, 2), 2])
    assert ga.rank_quotient(system) == ga.rank_quotient(plain)


@pytest.mark.parametrize("q, alpha, m, n", [(HALF, 1, 1, 2), (HALF, 1, 3, 5),
                                            (F(1, 3), F(3, 2), 1, 3)])
def test_rank_separator_matches_unreduced(q, alpha, m, n):
    system, reduced = ga.make_rank_separator(q, alpha, m, n)
    block = len(system.blocks[0])
    assert system.blocks == (tuple(range(block)), tuple(range(block, 2 * block)))
    assert reduced.blocks == system.blocks
    plain = plain_system(system)
    assert_same_results(reduced, ga.weighted_rank_oracle(plain), 1, [1, 2, 3],
                        strong=system.n <= 9)
    assert ga.rank_quotient(system) == ga.rank_quotient(plain)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.integers(0, n),
    st.lists(st.sampled_from([F(1), F(2), HALF]), min_size=n, max_size=n))))
def test_uniform_matroid_with_repeated_weights_matches_unreduced(data):
    rank, weights = data
    system = ga.uniform_matroid(len(weights), rank, weights)
    plain = plain_system(system)
    assert_same_results(ga.weighted_rank_oracle(system), ga.weighted_rank_oracle(plain), 1,
                        [1, 2])
    assert ga.rank_quotient(system) == ga.rank_quotient(plain)


@pytest.mark.parametrize("build, blocks", [
    (lambda: ga.make_lower_bound_instance(1, 3), ((3, 4, 5),)),
    (lambda: ga.make_lower_bound_instance(2, 2), ((4, 5), (6, 7))),
    (lambda: ga.make_two_sink_instance(2), ((0, 1),)),
], ids=["gk(1,3)", "gk(2,2)", "two_sink(2)"])
def test_flow_objective_matches_unreduced(build, blocks):
    """The flow oracle declares its twin sinks as blocks; one LP per orbit gives
    every result of one LP per mask, the sweep pruned by the excess bound too."""
    reduced = ga.objective_oracle(build())
    assert reduced.blocks == blocks
    inst = build()
    assert_same_results(reduced, plain_oracle(inst), 1, [1, F(3, 2), 2, 3],
                        upper_bound=ga.excess_upper_bound(inst))


def spied(fn, seen):
    def evaluate(mask):
        seen.append(mask)
        return fn(mask)

    return evaluate


def test_fn_sees_only_least_masks_once_each():
    k = 5
    params = CriticalParams(HALF, F(3, 2), k)
    seen = []
    blocks = (tuple(range(k + 1, 2 * k)),)
    f = ga.SetFunctionOracle(ga.families._critical_ground(k),
                             spied(_closed_eval(params, params.step_gains()), seen), blocks=blocks)
    ga.greedy_adaptive(f, f.n, "high")
    profile = ga.optimum_profile(f)
    reps = f.blocks.representatives()
    assert len(reps) == 2 ** (k + 1) * k  # A and b_1 free, 0..k-1 of b_2..b_k
    assert sorted(seen) == sorted(set(seen)) and set(seen) <= set(reps)
    ga.check_alpha_augmentable(f, 2, "weak", "high")
    ga.min_alpha_for(f, HALF, "strong")
    assert sorted(seen) == reps
    assert profile == ga.optimum_profile(plain_critical(HALF, F(3, 2), k))


def test_rank_recursion_reads_only_least_masks():
    system, f = ga.make_rank_separator(HALF, 1, 3, 5)
    seen, independent = [], system.independent
    system.independent = spied(independent, seen)  # validate has run: only f reads it now
    every_value(f)
    assert seen and all(system.blocks.least(mask) == mask for mask in seen)
    assert len(set(seen)) == len(system.blocks.representatives())


def test_optimum_sweep_reads_representatives_only():
    seen = []
    f = ga.SetFunctionOracle(ga.GroundSet(10), spied(lambda m: F(m.bit_count()) ** 2, seen),
                             blocks=[range(10)])
    profile = ga.optimum_profile(f)
    assert sorted(seen) == [(1 << c) - 1 for c in range(11)]
    assert [(r.best_set, r.best_value) for r in profile] == [
        ((1 << c) - 1, c * c) for c in range(11)]


def test_greedy_memoizes_one_entry_per_orbit():
    """Greedy on square(50) reads masks of every size; the memo keeps only the
    least mask of each of the 51 orbits."""
    f = ga.make_square_cardinality(50)
    assert ga.greedy_adaptive(f, 50).values[-1] == 2500
    assert sorted(f._cache) == [(1 << c) - 1 for c in range(51)]


def test_orbit_bookkeeping_is_built_once_per_oracle(monkeypatch):
    """A strong audit bundle and an optimum sweep on one blocked oracle share
    one list of representatives and one scaled build: one value table with
    one entry per orbit."""
    expected = ga.optimum_profile(plain_critical(HALF, 1, 5))
    reps, builds, tables = [], [], []
    representatives, scaled_reps = ga.Blocks.representatives, ga.SetFunctionOracle.scaled_reps
    table = ga.Blocks.table

    def counted(calls, fn):
        def call(self, *args):
            calls.append(fn(self, *args))
            return calls[-1]
        return call

    monkeypatch.setattr(ga.Blocks, "representatives", counted(reps, representatives))
    monkeypatch.setattr(ga.SetFunctionOracle, "scaled_reps", counted(builds, scaled_reps))
    monkeypatch.setattr(ga.Blocks, "table", counted(tables, table))
    f = ga.make_critical_function(HALF, 1, 5)
    audits(f, HALF, [HALF, 1, 2], "strong", "low")
    assert ga.optimum_profile(f) == expected
    assert len(reps) >= 4 and all(r is reps[0] for r in reps)
    assert len(builds) >= 2 and all(build is builds[0] for build in builds)
    assert builds[0][0] is reps[0] and len(tables) == 1 and builds[0][1] is tables[0]
    assert type(tables[0]) is dict and list(tables[0]) == reps[0] and len(reps[0]) < 1 << f.n


def test_blocked_value_table_is_a_dict_of_the_least_masks():
    """A blocked oracle's value table is a plain dict keyed by exactly its
    representatives, so any read at another mask would raise ``KeyError``.
    The weak bundle under tie "high", whose greedy chain leaves the least
    masks, reads it at keys alone and equals the bundle of the unblocked
    twin."""
    f = ga.make_critical_function(HALF, 1, 5)
    reps, table, _ = f.scaled_reps()
    assert type(table) is dict and list(table) == reps and len(reps) < 1 << f.n
    chain = ga.greedy_adaptive(f, f.n, "high").chain
    assert any(f.blocks.least(x_set) != x_set for x_set in chain)
    assert audits(f, HALF, [HALF, 1, 2], "weak", "high") == audits(
        plain_critical(HALF, 1, 5), HALF, [HALF, 1, 2], "weak", "high")


def test_strong_scan_reads_least_masks_only():
    """With X a least mask, every X + Y a strong audit reads is one too: the
    value table is a dict of the least masks alone, so any other read would
    be a ``KeyError``, and the bundle equals the unblocked twin's."""
    f = ga.make_critical_function(HALF, 1, 5)
    assert audits(f, HALF, [HALF, 1, 2], "strong", "low") == audits(
        plain_critical(HALF, 1, 5), HALF, [HALF, 1, 2], "strong", "low")
    table = f.scaled_reps()[1]
    assert 1 << 6 in table and 1 << 9 not in table  # b_2 is least, b_5 is not
    with pytest.raises(KeyError):
        table[1 << 9]


def test_orbit_table_refuses_a_least_mask_it_does_not_hold():
    """A value table holds the least masks alone: a mask outside the ground
    set is a ``KeyError``, and so is a mask of the ground set that is not
    the least mask of its orbit."""
    table = ga.Blocks([(0, 1)], 3).table([10, 11, 12, 13, 14, 15])
    assert [table[mask] for mask in (0, 1, 3, 4, 5, 7)] == [10, 11, 12, 13, 14, 15]
    for mask in (0b1000, 0b1001, 0b0010, 0b0110):
        with pytest.raises(KeyError):
            table[mask]


def test_blocked_weak_audit_allocates_no_table_of_every_mask():
    """square(16) has 17 orbits; a weak least-alpha scan on it allocates
    nothing the size of its 2**16 masks."""
    tracemalloc.start()
    try:
        assert ga.min_alpha_for(ga.make_square_cardinality(16), 1, scope="weak") == math.inf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zero_value_x_stops_the_scan_at_its_first_passing_pair():
    """f reads whether X holds both 0 and 1, how many members of the block
    (2, 3), and 4.  At X = {} with f(X) = 0 the scan stops at the first
    passing Y = {0, 1}, before the Ys that hold a block member."""
    def value(mask):
        return F((mask & 0b11 == 0b11) + (mask & 0b1100).bit_count() + (mask >> 4 & 1))

    reduced = ga.SetFunctionOracle(ga.GroundSet(5), value, blocks=[(2, 3)])
    plain = ga.SetFunctionOracle(ga.GroundSet(5), value)
    for scope, tie in [("strong", "low"), ("weak", "low"), ("weak", "high")]:
        assert (audits(reduced, HALF, [HALF, 1, 2], scope, tie)
                == audits(plain, HALF, [HALF, 1, 2], scope, tie))
    report = ga.check_alpha_augmentable(reduced, 1)
    assert report.witness.x_set == 0 and ga.indices_of(report.witness.y_set) == (0, 1)
    assert report.checked_pairs == 3
    assert ga.min_alpha_for(reduced, 1, "strong") == math.inf


class TestBadDeclarations:
    def test_asymmetric_predicate_refused_naming_block_and_mask(self):
        # independent iff inside {0, 1}: swapping 1 and 2 changes {1} into {2}
        system = ga.IndependenceSystem(ga.GroundSet(3), lambda m: m & ~0b011 == 0, [1, 1, 1],
                                       name="lopsided", blocks=[(1, 2)])
        message = r"lopsided: block \(1, 2\) is not interchangeable: \(2,\) and \(1,\)"
        with pytest.raises(ga.MalformedSystem, match=message):
            ga.weighted_rank_oracle(system)
        with pytest.raises(ga.MalformedSystem, match=message):
            ga.rank_quotient(system)

    def test_unequal_weights_in_a_block_refused(self):
        system = ga.IndependenceSystem(ga.GroundSet(3), lambda m: m.bit_count() <= 1, [1, 2, 2],
                                       name="uneven", blocks=[(0, 1)])
        with pytest.raises(ga.MalformedSystem, match=r"uneven: block \(0, 1\) has unequal weights"):
            ga.weighted_rank_oracle(system)

    def test_certified_blocks_pass(self):
        system = ga.IndependenceSystem(ga.GroundSet(3), lambda m: m.bit_count() <= 1, [1, 2, 2],
                                       blocks=[(1, 2)])
        assert every_value(ga.weighted_rank_oracle(system)) == [0, 1, 2, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("blocks, message", [
        ([(0, 1), (1, 2)], r"block \(1, 2\) overlaps an earlier block"),
        ([(2, 4)], r"block \(2, 4\) is not inside 0..3"),
        ([(-1, 0)], r"block \(-1, 0\) is not inside 0..3"),
        ([(2, 1)], r"block \(2, 1\) is not strictly ascending"),
        ([(1, 1)], r"block \(1, 1\) is not strictly ascending"),
        ([(3,)], r"block \(3,\) needs at least two elements"),
    ])
    def test_malformed_blocks_refused_at_construction(self, blocks, message):
        with pytest.raises(ga.ParameterError, match=message):
            ga.SetFunctionOracle(ga.GroundSet(4), lambda m: F(0), blocks=blocks)
        with pytest.raises(ga.ParameterError, match=message):
            ga.IndependenceSystem(ga.GroundSet(4), lambda m: True, [1] * 4, blocks=blocks)


@pytest.mark.parametrize("q, alpha, m, n", [
    (HALF, 1, 1, 2), (F(1, 3), 1, 1, 3), (HALF, 1, 2, 3), (HALF, 1, 3, 5), (F(2, 3), 1, 2, 3),
    (F(1, 3), F(3, 2), 1, 3), (HALF, 2, 1, 2), (F(1, 4), 1, 1, 4),
])
def test_blocked_rank_quotient_on_rank_separator_grid(q, alpha, m, n):
    system, _ = ga.make_rank_separator(q, alpha, m, n)
    assert system.blocks
    assert ga.rank_quotient(system) == ga.rank_quotient(plain_system(system))


@pytest.mark.parametrize("weights", [
    [1] * 7, [1, 1, 1, 2, 2, 2, 3], [HALF, 2, HALF, 2, HALF, 2], [1, 2, 3, 1, 2, 3, 1, 2],
])
def test_blocked_rank_quotient_on_uniform_matroid_grid(weights):
    n = len(weights)
    for rank in range(n + 1):
        system = ga.uniform_matroid(n, rank, weights)
        assert system.blocks
        assert ga.rank_quotient(system) == ga.rank_quotient(plain_system(system))


def test_non_monotone_block_symmetric_oracle_refused_as_its_plain_twin():
    """f reads elements 1..3 only through how many it holds, and adding a
    second one lowers it.  The least refused pair is (X = {2}, e = 1), whose X
    is not the least mask of its orbit: the refusal still names it."""
    def value(mask):
        return F((0, 2, 1, 3)[(mask & 0b1110).bit_count()] + (mask & 1) + (mask >> 4 & 1))

    reduced = ga.SetFunctionOracle(ga.GroundSet(5), value, name="dip", blocks=[(1, 2, 3)])
    plain = ga.SetFunctionOracle(ga.GroundSet(5), value, name="dip")
    message = r"dip is not monotone: adding element 1 to X=\[2\] lowers its value"
    for audit in (ga.weak_submodularity_ratio, lambda f: ga.min_alpha_for(f, 1, "strong"),
                  lambda f: ga.check_alpha_augmentable(f, 1, "weak"),
                  lambda f: ga.check_gamma_alpha_augmentable(f, HALF, 1, "strong")):
        for f in (reduced, plain):
            with pytest.raises(ga.ParameterError, match=message):
                audit(f)
    assert reduced.first_decrease() == plain.first_decrease() == (0b100, 1)


@st.composite
def symmetric_tables(draw):
    """(n, blocks, values): a random partition of 0..n-1 into blocks and free
    elements, and a monotone table that reads a mask only through its free
    part and how many members of each block it holds.

    Each orbit takes its value at its least mask, the first of its masks in
    ascending order: the largest value one element below it plus a drawn
    increment.  The masks one element below any mask of the orbit are moved
    onto those below the least mask, so the table is monotone."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    parts = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    blocks = sorted(tuple(sorted(part)) for part in parts if len(part) > 1)
    increments = draw(st.lists(st.sampled_from([F(0), F(1), F(2), HALF, F(5, 3)]),
                               min_size=1 << n, max_size=1 << n))
    least = ga.Blocks(blocks, n).least
    values = []
    for mask in range(1 << n):
        rep = least(mask)
        if rep < mask:
            values.append(values[rep])
            continue
        below = [values[mask ^ 1 << e] for e in range(n) if mask >> e & 1]
        values.append(max(below, default=F(0)) + increments[mask])
    return n, blocks, values


@settings(max_examples=60, deadline=None)
@given(symmetric_tables(), st.sampled_from([1, HALF, F(2, 3)]))
def test_audits_on_symmetric_tables_match_unreduced(table, gamma):
    n, blocks, values = table
    alphas = [gamma, 1, F(3, 2), 2]
    for scope, tie in [("weak", "low"), ("weak", "high"), ("strong", "low"), ("strong", "high")]:
        reduced = ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__, blocks=blocks)
        plain = ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__)
        assert (audits(reduced, gamma, alphas, scope, tie)
                == audits(plain, gamma, alphas, scope, tie))


def first_lowering(f):
    """The least e, then the least X without e, with f(X + e) < f(X), by
    reading f at every mask; None when there is none."""
    return next(((x, e) for e in range(f.n) for x in range(1 << f.n)
                 if not x >> e & 1 and f.value(x | 1 << e) < f.value(x)), None)


@settings(max_examples=60, deadline=None)
@given(symmetric_tables(), st.data())
@pytest.mark.parametrize("dip", ["none", "count", "free", "anywhere"])
def test_first_decrease_is_the_least_lowering_pair(dip, table, data):
    """``first_decrease`` read at the least masks equals a scan of every mask,
    and its plain twin's.  Over a monotone table g that reads a mask through
    its free part and its block counts, the table dips by more than any rise
    of g: ``count`` when a block's count goes from c >= 1 to c + 1, so the
    least X skips the block's lowest member; ``free`` when a new top element,
    free and above every block, joins a mask holding c of a block; ``none``
    keeps g; ``anywhere`` raises a drawn set of orbits, so it dips wherever an
    element leads out of that set."""
    n, blocks, values = table
    top = 1 + max(values)
    expected = None
    if dip == "free":  # a new element n, free and above every block, that g ignores
        values, n = values + values, n + 1
    if dip in ("count", "free"):
        assume(blocks or dip == "free")
        block = data.draw(st.sampled_from(blocks or [()]))
        held = [(mask & ga.mask_of(block)).bit_count() for mask in range(1 << n)]
        if dip == "count":
            c = data.draw(st.integers(1, len(block) - 1))
            values = [v + top * (held[mask] <= c) for mask, v in enumerate(values)]
            expected = ga.mask_of(block[1:c + 1]), block[0]
        else:
            c = data.draw(st.integers(0, len(block)))
            values = [v + top * (not mask >> n - 1 & 1 and held[mask] >= c)
                      for mask, v in enumerate(values)]
            expected = ga.mask_of(block[:c]), n - 1
    elif dip == "anywhere":
        drawn = data.draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
        least = ga.Blocks(blocks, n).least
        values = [v + top * (drawn[least(mask)] == 3) for mask, v in enumerate(values)]
    reduced = ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__, blocks=blocks)
    plain = ga.SetFunctionOracle(ga.GroundSet(n), values.__getitem__)
    brute = first_lowering(plain)
    assert reduced.first_decrease() == brute == plain.first_decrease()
    if dip != "anywhere":
        assert brute == expected


@st.composite
def blocks_and_masks(draw):
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    parts = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    blocks = [tuple(sorted(part)) for part in parts if len(part) > 1]
    return ga.Blocks(sorted(blocks), n), draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))


@settings(max_examples=100, deadline=None)
@given(blocks_and_masks())
def test_least_masks_are_each_blocks_lowest_members(drawn):
    """``least`` keeps, in each block, as many members as the mask holds, at
    the block's lowest indices; ``representatives`` lists the same least
    masks, and a table over them is the values list itself without blocks,
    else a plain dict keyed by them alone."""
    blocks, masks = drawn
    for mask in masks:
        expected = mask
        for block in blocks:
            count = sum(mask >> i & 1 for i in block)
            expected = expected & ~ga.mask_of(block) | ga.mask_of(block[:count])
        assert blocks.least(mask) == expected
    least = [blocks.least(mask) for mask in range(1 << blocks.n)]
    reps = blocks.representatives()
    assert list(reps) == sorted(set(least))
    values = [-mask for mask in reps]
    table = blocks.table(values)
    assert [table[mask] for mask in least] == [-mask for mask in least]
    if blocks:
        assert type(table) is dict and list(table) == reps
    else:
        assert table is values


def test_orbit_scans_visit_one_pair_per_orbit():
    """The pairs the audits visit on the paper's blocked instances: for each
    X, the nonempty Ys that ``_orbit_subsets`` lists."""
    def pairs(f, x_sets):
        table = f.scaled_reps()[1]
        return sum(len(ga.audit._orbit_subsets(f.blocks, x_set, table)) - 1 for x_set in x_sets)

    critical = ga.make_critical_function(HALF, 1, 6)
    _, separator = ga.make_rank_separator(HALF, 1, 3, 5)
    assert pairs(critical, ga.audit._audit_table(critical, "weak", "low")[0]) == 1532
    assert pairs(separator, ga.audit._audit_table(separator, "weak", "high")[0]) == 158
    strong = ga.make_critical_function(1, 1, 4)
    assert pairs(strong, ga.audit._audit_table(strong, "strong", "low")[0]) == 2302


@st.composite
def blocks_tables_and_sets(draw):
    """Random blocks, a monotone int table that respects them, and any X,
    least mask of its orbit or not.  The table is ``blocks.table`` of the
    values at the least masks, as every caller's is, so a read at any other
    mask is a ``KeyError``.  Each mask takes its least mask's value, which
    keeps it monotone, since adding an element to a mask adds one to its
    least mask."""
    blocks, _ = draw(blocks_and_masks())
    n = blocks.n
    increments = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    table = []
    for mask in range(1 << n):
        below = [table[mask ^ 1 << e] for e in range(n) if mask >> e & 1]
        table.append(max(below, default=0) + increments[mask])
    table = blocks.table([table[mask] for mask in blocks.representatives()])
    return blocks, table, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=100, deadline=None)
@given(blocks_tables_and_sets())
def test_orbit_subsets_are_the_least_set_of_each_stabiliser_orbit(drawn):
    """The Ys ascend strictly, and they are the least Y of each orbit of X's
    stabiliser, one each: orbits grouped by swapping two members of a block
    that both lie outside X, which generate every permutation inside the
    blocks that fixes X, read on the subsets of X's complement.  Each Y
    carries least(X + Y), and its best gain and sum of gains equal the ones
    read off the table at least masks, for X as drawn and for least(X)."""
    blocks, table, x_set = drawn
    comp = (1 << blocks.n) - 1 ^ x_set
    subsets = ga.audit._orbit_subsets(blocks, x_set, table)
    masks = [y_set for y_set, _, _, _ in subsets]
    assert masks[0] == 0 and all(a < b for a, b in zip(masks, masks[1:]))

    orbit = {}  # subset of comp -> a root of its orbit (union-find)
    def root(y_set):
        while orbit.setdefault(y_set, y_set) != y_set:
            y_set = orbit[y_set]
        return y_set
    swaps = [(1 << i, 1 << j) for block in blocks for i in block for j in block
             if i < j and comp >> i & comp >> j & 1]
    for y_set in ga.core.iter_submasks(comp):
        for i, j in swaps:
            if bool(y_set & i) != bool(y_set & j):
                orbit[root(y_set ^ i ^ j)] = root(y_set)
    least = {}
    for y_set in ga.core.iter_submasks(comp):
        least[root(y_set)] = min(least.get(root(y_set), y_set), y_set)
    assert masks == sorted(least.values())

    for x_set in (x_set, blocks.least(x_set)):  # as drawn, then its orbit's least mask
        fx = table[blocks.least(x_set)]
        for y_set, z_set, best, total in ga.audit._orbit_subsets(blocks, x_set, table):
            assert z_set == blocks.least(x_set | y_set)
            gains = [table[blocks.least(x_set | 1 << e)] - fx for e in ga.indices_of(y_set)]
            assert (best, total) == (max(gains, default=0), sum(gains))


def test_oracles_keep_the_blocks_they_are_given(monkeypatch):
    """A rank oracle shares its system's ``Blocks`` and a flow oracle its
    instance's twin sinks, so the representatives are built once for both
    ``rank_quotient`` and the optimum sweep."""
    inst = ga.make_lower_bound_instance(2, 2)
    assert ga.objective_oracle(inst).blocks is inst.twin_sinks
    system, f = ga.make_rank_separator(HALF, 1, 3, 5)
    assert ga.weighted_rank_oracle(system).blocks is f.blocks is system.blocks
    plain = plain_system(system)
    quotient, profile = ga.rank_quotient(plain), ga.optimum_profile(ga.weighted_rank_oracle(plain))
    built, representatives = [], ga.Blocks.representatives

    def counted(self):
        built.append(representatives(self))
        return built[-1]

    monkeypatch.setattr(ga.Blocks, "representatives", counted)
    assert ga.rank_quotient(system) == quotient
    assert ga.optimum_profile(f) == profile
    assert len(built) >= 2 and all(reps is built[0] for reps in built)
