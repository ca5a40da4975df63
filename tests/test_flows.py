import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import greedyaug as ga
from greedyaug import exactlp
from conftest import every_value, replace
from test_exactlp import sparse

F = Fraction
INF = ga.flows.INF


class TestTwoSink:
    def test_objective_values(self, two_sink2):
        _, oracle = two_sink2
        assert [oracle.value(m) for m in range(4)] == [0, 2, 2, 3]

    def test_single_commodity_variant(self, two_sink1):
        inst, oracle = two_sink1
        assert [oracle.value(m) for m in range(4)] == [0, 2, 2, 3]
        for mask in range(4):
            assert ga.max_flow(inst, 0, mask) == oracle.value(mask)

    def test_max_flow_examples(self, two_sink2):
        inst, _ = two_sink2
        assert ga.max_flow(inst, 0, 0b01) == 2
        assert ga.max_flow(inst, 1, 0b11) == 3
        assert ga.max_flow(inst, 0, 0) == 0

    def test_selection_arguments_validated(self, two_sink2):
        inst, _ = two_sink2
        with pytest.raises(ga.ParameterError):
            ga.max_flow(inst, 2, 0b01)
        for mask in (-1, 1 << len(inst.sinks)):
            with pytest.raises(ga.ParameterError, match="sink mask outside the sink set"):
                ga.max_flow(inst, 0, mask)
            with pytest.raises(ga.ParameterError, match="sink mask outside the sink set"):
                ga.evaluate_objective(inst, mask)

    def test_values_are_not_weight_representable(self, two_sink2):
        _, oracle = two_sink2
        v1, v2, both = oracle.value(0b01), oracle.value(0b10), oracle.value(0b11)
        assert both not in (v1 + v2, max(v1, v2))

    def test_brute_force_pair_value(self, two_sink2):
        _, oracle = two_sink2
        assert ga.brute_force_optimum(oracle, 2).best_value == 3


class TestZeroRatioInstance:
    def test_values(self, zero_ratio2):
        _, oracle = zero_ratio2
        by_labels = {
            tuple(oracle.ground.label(i) for i in ga.indices_of(mask)): oracle.value(mask)
            for mask in range(8)
        }
        assert by_labels[()] == 0
        assert by_labels[("t2",)] == 1 and by_labels[("t1",)] == 1 and by_labels[("t3",)] == 1
        assert by_labels[("t2", "t1")] == 1 and by_labels[("t2", "t3")] == 1
        assert by_labels[("t1", "t3")] == 2
        assert by_labels[("t2", "t1", "t3")] == 2

    def test_first_pick_and_saturation(self, zero_ratio2):
        _, oracle = zero_ratio2
        trace = ga.greedy_adaptive(oracle, 3)
        assert oracle.ground.label(trace.picks[0]) == "t2"
        assert ga.saturation_cardinality(oracle) == 1
        # adding both remaining sinks gains exactly 1 past the plateau
        assert oracle.value(0b111) - oracle.value(0b001) == 1

    def test_requires_two_commodities(self):
        with pytest.raises(ga.ParameterError):
            ga.make_zero_ratio_instance(1)

    def test_generalizes_to_more_commodities(self):
        oracle = ga.objective_oracle(ga.make_zero_ratio_instance(3))
        assert ga.weak_submodularity_ratio(oracle).value == 0


class TestStaircase:
    def test_construction_counts_and_caps(self):
        inst = ga.make_lower_bound_instance(1, 2)
        assert inst.num_vertices == 1 + 2 + 4
        assert len(inst.sinks) == 4
        x = ga.capacity_scale(2)
        first_arc = inst.arcs.index((0, 1))  # source to first intermediate
        assert inst.capacities[0][first_arc] == x ** 2 == 4

    def test_geometric_capacity_identity(self):
        for k in (2, 3, 4):
            x = ga.capacity_scale(k)
            for n in range(1, 3 * k):
                assert 1 + sum(x ** j for j in range(1, n + 1)) / k == x ** n

    def test_decoy_arcs_single_commodity(self):
        inst = ga.make_lower_bound_instance(2, 2)
        # every decoy sink has a unit direct arc for its owner, unlimited for the other
        for r in range(5, 9):
            e = inst.arcs.index((0, 4 + r))
            caps = [inst.capacities[i][e] for i in range(2)]
            assert F(1) in caps and ga.flows.INF in caps

    def test_greedy_trace_and_gains(self, staircase_a1k2):
        _, oracle = staircase_a1k2
        trace = ga.greedy_adaptive(oracle, 2)
        assert [oracle.ground.label(p) for p in trace.picks] == ["t1", "t2"]
        assert trace.gains == (F(4), F(2))

    def test_ratio_matches_closed_form(self, staircase_a1k2):
        _, oracle = staircase_a1k2
        assert ga.approximation_ratio(oracle) == (ga.lower_bound_ratio_closed_form(1, 2), 2)

    def test_closed_form_values(self):
        assert ga.lower_bound_ratio_closed_form(1, 2) == F(4, 3)
        assert ga.lower_bound_ratio_closed_form(2, 2) == F(32, 15)
        assert abs(float(ga.lower_bound_ratio_closed_form(1, 64)) - ga.limit_ratio(1, 1)) < 0.01

    def test_epsilon_mode_makes_order_policy_free(self):
        for alpha, k in ((1, 2), (1, 3)):
            inst = ga.make_lower_bound_instance(alpha, k, ga.default_tie_epsilon(alpha, k))
            want = [f"t{j}" for j in range(1, alpha * k + 1)]
            for tie in ("low", "high"):
                oracle = ga.objective_oracle(inst)
                trace = ga.greedy_adaptive(oracle, alpha * k, tie=tie)
                assert [oracle.ground.label(p) for p in trace.picks] == want
                assert all(len(t) == 1 for t in trace.tie_log)

    def test_parameters(self):
        with pytest.raises(ga.ParameterError):
            ga.make_lower_bound_instance(0, 2)
        with pytest.raises(ga.ParameterError):
            ga.make_lower_bound_instance(1, 1)

    def test_oversize_instance_refused_before_it_is_built(self):
        """alpha*k*(alpha*k + 3) arcs x alpha commodities + 2*alpha*k sinks columns,
        counted before any arc is built, so k = 1000 (1,005,000 columns) fails at once."""
        inst = ga.make_lower_bound_instance(1, 68)
        assert len(inst.arcs) * inst.commodities + len(inst.sinks) == 4964
        with pytest.raises(ga.LPSizeError, match="5106 variables exceed guard 5000"):
            ga.make_lower_bound_instance(1, 69)
        started = time.perf_counter()
        with pytest.raises(ga.LPSizeError, match="1005000 variables exceed guard 5000"):
            ga.make_lower_bound_instance(1, 1000)
        assert time.perf_counter() - started < 0.5

    def test_objective_is_augmentable_at_its_commodity_count(
        self, staircase_a1k2, staircase_a2k2
    ):
        for (inst, oracle), alpha in ((staircase_a1k2, 1), (staircase_a2k2, 2)):
            assert ga.check_alpha_augmentable(oracle, alpha).member

    def test_two_commodity_objective_needs_both(self, staircase_a2k2):
        _, oracle = staircase_a2k2
        report = ga.check_alpha_augmentable(oracle, 1)
        assert not report.member

    def test_pick_order_two_commodities_k3(self):
        oracle = ga.objective_oracle(ga.make_lower_bound_instance(2, 3))
        trace = ga.greedy_adaptive(oracle, 6)
        assert [oracle.ground.label(p) for p in trace.picks] == [f"t{j}" for j in range(1, 7)]
        x = ga.capacity_scale(3)
        assert trace.values[6] == 3 * (x ** 6 - 1)


class TestObjectiveEvaluation:
    def test_empty_selection_is_zero(self, two_sink2):
        inst, _ = two_sink2
        assert ga.evaluate_objective(inst, 0) == 0

    def test_monotone_in_selection(self, two_sink2, zero_ratio2, staircase_a1k2, staircase_a2k2):
        for inst, oracle in (two_sink2, zero_ratio2, staircase_a1k2, staircase_a2k2):
            n = len(inst.sinks)
            for mask in range(1 << n):
                for x in range(n):
                    if not mask >> x & 1:
                        assert oracle.value(mask) <= oracle.value(mask | (1 << x))

    def test_lp_agrees_with_max_flow_single_commodity(self, staircase_a1k2, staircase_a1k3):
        for inst, oracle in (staircase_a1k2, staircase_a1k3):
            for mask in range(1 << len(inst.sinks)):
                assert oracle.value(mask) == ga.max_flow(inst, 0, mask)

    def test_commodity_max_flows_bound_objective(self, zero_ratio2, staircase_a2k2):
        for inst, oracle in (zero_ratio2, staircase_a2k2):
            for mask in range(1 << len(inst.sinks)):
                bound = min(ga.max_flow(inst, i, mask) for i in range(inst.commodities))
                assert oracle.value(mask) <= bound

    def test_isolated_vertices_cost_nothing(self):
        """Neither the LP model nor max_flow allocates per vertex: one arc among
        10**9 vertices has two rows and evaluates at once."""
        inst = ga.FlowInstance(num_vertices=10**9, arcs=((0, 1),), source=0, sinks=(1,),
                               capacities=((1,),))
        started = time.perf_counter()
        assert ga.evaluate_objective(inst, 1) == 1
        assert ga.max_flow(inst, 0, 1) == 1
        assert time.perf_counter() - started < 0.5
        assert inst.lp_model == (({0: 1}, {0: -1, 1: 1}), (1, 0), 1)

    def test_size_guard(self):
        # One arc carrying 5000 commodities, plus one demand column: 5001 columns.
        inst = ga.FlowInstance(
            num_vertices=2, arcs=((0, 1),), source=0, sinks=(1,), capacities=((1,),) * 5000
        )
        with pytest.raises(ga.LPSizeError):
            ga.evaluate_objective(inst, 0b1)

    def test_unbounded_detected(self):
        inst = ga.FlowInstance(
            num_vertices=2,
            arcs=((0, 1),),
            source=0,
            sinks=(1,),
            capacities=((ga.flows.INF,),),
        )
        with pytest.raises(exactlp.Unbounded):
            ga.evaluate_objective(inst, 0b1)

    def test_excess_upper_bound_is_valid(self, staircase_a2k2):
        inst, oracle = staircase_a2k2
        bound = ga.excess_upper_bound(inst)
        for mask in (0b1111, 0b11110000, 0b10011):
            assert oracle.value(mask) <= bound(mask)
        for mask in (-1, 1 << len(inst.sinks)):
            with pytest.raises(ga.ParameterError, match="sink mask outside the sink set"):
                bound(mask)


class TestInstanceValidation:
    def test_source_cannot_be_sink(self):
        with pytest.raises(ga.ParameterError):
            ga.FlowInstance(2, ((0, 1),), 0, (0,), ((F(1),),))

    def test_duplicate_arcs_rejected(self):
        with pytest.raises(ga.ParameterError):
            ga.FlowInstance(2, ((0, 1), (0, 1)), 0, (1,), ((F(1), F(1)),))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ga.ParameterError):
            ga.FlowInstance(2, ((0, 1),), 0, (1,), ((F(-1),),))

    def test_capacity_row_alignment(self):
        with pytest.raises(ga.ParameterError):
            ga.FlowInstance(3, ((0, 1), (0, 2)), 0, (1,), ((F(1),),))


class TestSerialization:
    def test_round_trip_identity(self, staircase_a2k2, zero_ratio2, two_sink2):
        for inst, _ in (staircase_a2k2, zero_ratio2, two_sink2):
            again = ga.FlowInstance.from_json(inst.to_json())
            assert again == inst
            assert again.to_json() == inst.to_json()

    def test_infinite_token(self, staircase_a2k2):
        inst, _ = staircase_a2k2
        assert '"inf"' in inst.to_json()


def reference_objective(inst, sink_mask):
    """The per-mask LP: demand columns only for the chosen sinks, conservation
    at internal vertices as two rows, and excess >= demand (or >= 0) at sinks."""
    chosen = ga.indices_of(sink_mask)
    if not chosen:
        return F(0)
    flow = [(i, e) for i in range(inst.commodities) for e in range(len(inst.arcs))
            if inst.capacities[i][e] != 0]
    demand = {inst.sinks[j]: len(flow) + r for r, j in enumerate(chosen)}
    width = len(flow) + len(demand)
    rows, rhs = [], []
    for var, (i, e) in enumerate(flow):
        if inst.capacities[i][e] != INF:
            rows.append([F(0)] * width)
            rows[-1][var] = F(1)
            rhs.append(inst.capacities[i][e])
    for i in range(inst.commodities):
        for v in range(inst.num_vertices):
            if v == inst.source:
                continue
            inflow = [F(0)] * width
            for var, (c, e) in enumerate(flow):
                if c == i:
                    inflow[var] += (inst.arcs[e][1] == v) - (inst.arcs[e][0] == v)
            outflow = [-a for a in inflow]
            if v in inst.sinks:
                if v in demand:
                    outflow[demand[v]] = F(1)
                rows.append(outflow)
                rhs.append(F(0))
            else:
                rows += [inflow, outflow]
                rhs += [F(0), F(0)]
    objective = [F(0)] * len(flow) + [F(1)] * len(demand)
    return exactlp.maximize(objective, sparse(rows), rhs).value


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except exactlp.Unbounded:
        return "unbounded"


@st.composite
def flow_instances(draw, max_commodities=3,
                   capacities=(F(0), F(1), F(2), F(1, 2), F(5, 3), INF)):
    n = draw(st.integers(3, 7))
    source = draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != source]
    sinks = draw(st.lists(st.sampled_from(others), min_size=1, max_size=min(4, n - 1),
                          unique=True))
    pairs = [(u, w) for u in range(n) for w in range(n) if u != w]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True))
    capacity = st.sampled_from(capacities)
    rows = [draw(st.lists(capacity, min_size=len(arcs), max_size=len(arcs)))
            for _ in range(draw(st.integers(1, max_commodities)))]
    return ga.FlowInstance(n, tuple(arcs), source, tuple(sinks), tuple(map(tuple, rows)))


@settings(max_examples=40, deadline=None)
@given(flow_instances())
def test_objective_matches_per_mask_reference(inst):
    for mask in range(1 << len(inst.sinks)):
        assert outcome(ga.evaluate_objective, inst, mask) == outcome(reference_objective, inst, mask)


def cold_objective(inst, sink_mask):
    """``evaluate_objective``'s LP for one mask, solved cold from the all-slack basis."""
    rows, rhs, first_demand = inst.lp_model
    objective = [F(0)] * first_demand + [F(sink_mask >> j & 1) for j in range(len(inst.sinks))]
    return exactlp.maximize(objective, rows, rhs).value


@settings(max_examples=60, deadline=None)
@given(flow_instances(capacities=(F(0), F(1, 2), F(5, 3), INF)), st.data())
def test_warm_started_values_match_cold_solves(inst, data):
    """Masks in random order with repeats through one instance, so every solve after
    the first starts from a kept optimum, across unbounded masks too."""
    masks = data.draw(st.lists(st.integers(1, (1 << len(inst.sinks)) - 1),
                               min_size=2, max_size=24))
    for mask in masks:
        assert outcome(ga.evaluate_objective, inst, mask) == outcome(cold_objective, inst, mask)


@settings(max_examples=40, deadline=None)
@given(flow_instances(capacities=(F(0), F(1, 2), F(5, 3), INF)), st.data())
def test_masks_in_any_order_equal_cold_solves_on_a_fresh_instance(inst, data):
    """Every nonempty mask once, in a random order, through one instance, each solve
    starting from the kept optimum nearest it: each value equals the solve of that
    mask on a fresh copy of the instance, which keeps nothing and so starts cold."""
    for mask in data.draw(st.permutations(range(1, 1 << len(inst.sinks)))):
        fresh = replace(inst)
        assert outcome(ga.evaluate_objective, inst, mask) == outcome(
            ga.evaluate_objective, fresh, mask)


def test_each_solve_starts_from_the_nearest_kept_optimum(monkeypatch):
    # sinks 1, 2 and 3 are fed through capacity 1, sink 4 without limit
    inst = ga.FlowInstance(5, ((0, 1), (0, 2), (0, 3), (0, 4)), 0, (1, 2, 3, 4),
                           ((F(1), F(1), F(1), INF),))
    solve, starts, solutions = exactlp.maximize, [], []

    def spy(objective, rows, rhs, start=None):
        starts.append(start)
        solutions.append(None)
        solutions[-1] = solve(objective, rows, rhs, start=start)
        return solutions[-1]

    monkeypatch.setattr(exactlp, "maximize", spy)
    masks = (0b0001, 0b0010, 0b0011, 0b0100, 0b0001, 0b1110, 0b0110)
    assert [outcome(ga.evaluate_objective, inst, mask) for mask in masks] == [
        1, 1, 2, 1, 1, "unbounded", 2]
    # 0b0011 ties at one sink from 0b0001 and 0b0010 and takes the later; the second
    # 0b0001 takes 0b0011, one sink away, over the later 0b0100, two away; 0b0110
    # takes 0b0100, as the unbounded 0b1110, later and as near, was not kept
    index = {id(solution): i for i, solution in enumerate(solutions) if solution is not None}
    assert [index.get(id(start)) for start in starts] == [None, 0, 1, 2, 2, 3, 3]
    assert solutions[5] is None and sorted(inst._lp_starts) == [0, 1, 2]


def count_solves(monkeypatch):
    """[solves, pivots] so far, counted through a spy on ``exactlp.maximize``."""
    solve, counts = exactlp.maximize, [0, 0]

    def spy(objective, rows, rhs, start=None):
        solution = solve(objective, rows, rhs, start=start)
        counts[0] += 1
        counts[1] += solution.iterations
        return solution

    monkeypatch.setattr(exactlp, "maximize", spy)
    return counts


def plain_oracle(inst):
    """One LP per mask: the objective without ``objective_oracle``'s twin-sink reduction."""
    return ga.SetFunctionOracle(inst.sink_ground(), lambda m: ga.evaluate_objective(inst, m))


@pytest.mark.parametrize("alpha, k, run, expected, solves, pivots, reduced", [
    (2, 2, lambda f: ga.approximation_ratio(f), (F(32, 15), 4), 255, 136, [143, 64]),
    (2, 3, lambda f: ga.greedy_adaptive(f, f.n).values[-1], F(2187, 32), 78, 255, [44, 90]),
    (2, 4, lambda f: ga.greedy_adaptive(f, f.n).values[-1], F(524288, 6561), 136, 561,
     [67, 137]),
], ids=["gk(2,2)-approximation-ratio", "gk(2,3)-greedy-adaptive", "gk(2,4)-greedy-adaptive"])
def test_staircase_pivot_path_is_pinned(monkeypatch, alpha, k, run, expected, solves, pivots,
                                        reduced):
    """Bland's rule fixes the pivot sequence of every warm solve, so a change to it
    fails here even when every value still agrees: [solves, pivots] on one LP per
    mask, then on one LP per orbit of twin sinks, each on a fresh instance."""
    counts = count_solves(monkeypatch)
    assert run(plain_oracle(ga.make_lower_bound_instance(alpha, k))) == expected
    assert counts == [solves, pivots]
    counts[:] = [0, 0]
    assert run(ga.objective_oracle(ga.make_lower_bound_instance(alpha, k))) == expected
    assert counts == reduced


@pytest.mark.parametrize("alpha, k, solves", [(1, 3, 4), (2, 2, 6)])
def test_excess_upper_bound_solves_one_singleton_per_twin_class(monkeypatch, alpha, k, solves):
    """gk(1,3) has 6 sinks and gk(2,2) 8, and their decoy classes leave 4 and 6
    distinct singletons; the bound still equals the sum of per-sink solves."""
    fresh = ga.make_lower_bound_instance(alpha, k)
    n = len(fresh.sinks)
    singles = [ga.evaluate_objective(fresh, 1 << i) for i in range(n)]
    counts = count_solves(monkeypatch)
    bound = ga.excess_upper_bound(ga.make_lower_bound_instance(alpha, k))
    assert counts[0] == solves
    assert [bound(1 << i) for i in range(n)] == singles
    assert bound((1 << n) - 1) == sum(singles)


@pytest.mark.parametrize("alpha, k, best, counts", [
    (1, 3, F(81, 8), [8, 24]), (2, 2, F(64), [19, 69]), (2, 3, F(2187, 32), [35, 152]),
])
def test_bound_pruned_sweep_is_pinned(monkeypatch, alpha, k, best, counts):
    """The staircase optimum at alpha*k, pruned by ``excess_upper_bound`` over the
    orbit representatives, one size at a time: [solves, pivots] of the bound's
    singletons and the selections it cannot rule out.  The bound reads the
    instance's one oracle, so every selection is solved once: one solve per
    memo entry but the empty selection's, which needs no LP."""
    solved = count_solves(monkeypatch)
    inst = ga.make_lower_bound_instance(alpha, k)
    f = ga.objective_oracle(inst)
    assert ga.optimum_value(f, alpha * k, upper_bound=ga.excess_upper_bound(inst)) == best
    assert solved == counts
    assert ga.objective_oracle(inst) is f and solved[0] == len(f._cache) - 1


class TestTwinSinks:
    def test_built_families(self):
        assert ga.make_two_sink_instance(2).twin_sinks == ((0, 1),)
        assert ga.make_lower_bound_instance(2, 3).twin_sinks == ((6, 7, 8), (9, 10, 11))
        eps = ga.default_tie_epsilon(2, 3)
        assert ga.make_lower_bound_instance(2, 3, eps).twin_sinks == ()
        assert ga.make_zero_ratio_instance(3).twin_sinks == ()

    def test_sink_with_an_out_arc_is_refused(self):
        arcs = ((0, 1), (0, 2))
        assert ga.FlowInstance(4, arcs, 0, (1, 2), ((1, 1),)).twin_sinks == ((0, 1),)
        inst = ga.FlowInstance(4, arcs + ((2, 3),), 0, (1, 2), ((1, 1, 1),))
        assert inst.twin_sinks == ()

    def test_in_arcs_differing_in_one_commodity_are_refused(self):
        inst = ga.FlowInstance(3, ((0, 1), (0, 2)), 0, (1, 2), ((1, 1), (1, 2)))
        assert inst.twin_sinks == ()
        inst = ga.FlowInstance(3, ((0, 1), (0, 2)), 0, (1, 2), ((INF, INF), (1, 1)))
        assert inst.twin_sinks == ((0, 1),)

    def test_zero_capacity_arcs_count_as_absent(self):
        # (3, 2) is a zero-capacity in-arc of sink 2, and (1, 3) a zero-capacity
        # out-arc of sink 1; neither is in the LP, so the sinks stay twins
        arcs = ((0, 1), (0, 2), (3, 2), (1, 3), (0, 3))
        inst = ga.FlowInstance(4, arcs, 0, (1, 2), ((1, 1, 0, 0, 2), (2, 2, 0, 0, 1)))
        assert inst.twin_sinks == ((0, 1),)

    def test_only_least_masks_of_orbits_are_solved(self, monkeypatch):
        """gk(2,2) has classes (4, 5) and (6, 7): 2^4 * 3 * 3 = 144 orbits, the
        empty mask included, and the oracle declares them as its blocks."""
        inst = ga.make_lower_bound_instance(2, 2)
        solved, evaluate = [], ga.flows.evaluate_objective

        def spy(inst, mask):
            solved.append(mask)
            return evaluate(inst, mask)

        monkeypatch.setattr(ga.flows, "evaluate_objective", spy)
        oracle = ga.objective_oracle(inst)
        assert oracle.blocks == inst.twin_sinks
        assert every_value(oracle) == every_value(plain_oracle(ga.make_lower_bound_instance(2, 2)))
        assert inst.twin_sinks == ((4, 5), (6, 7))
        assert len(solved) == len(set(solved)) == 144
        for mask in solved:
            assert mask >> 5 & 1 <= mask >> 4 & 1 and mask >> 7 & 1 <= mask >> 6 & 1


@st.composite
def instances_with_twins(draw):
    """A ``flow_instances()`` draw plus one or two twins of a sink no arc leaves, if
    there is one: new vertices with copies of its in-arcs, placed anywhere in the
    sink order."""
    inst = draw(flow_instances())
    leaves = {u for u, _ in inst.arcs}
    candidates = [t for t in inst.sinks if t not in leaves]
    if not candidates:
        return inst
    twin_of = draw(st.sampled_from(candidates))
    arcs, rows, sinks = list(inst.arcs), [list(row) for row in inst.capacities], list(inst.sinks)
    for v in range(inst.num_vertices, inst.num_vertices + draw(st.integers(1, 2))):
        for e, (u, w) in enumerate(inst.arcs):
            if w == twin_of:
                arcs.append((u, v))
                for row in rows:
                    row.append(row[e])
        sinks.insert(draw(st.integers(0, len(sinks))), v)
    twinned = ga.FlowInstance(v + 1, tuple(arcs), inst.source, tuple(sinks),
                              tuple(map(tuple, rows)))
    assert any(sinks.index(twin_of) in c and sinks.index(v) in c for c in twinned.twin_sinks)
    return twinned


@settings(max_examples=60, deadline=None)
@given(instances_with_twins(), st.data())
def test_reduced_oracle_matches_direct_solves(inst, data):
    """Every mask, in shuffled order, read through the orbit-reduced oracle equals a
    direct solve on a fresh copy of the instance, an unbounded outcome included."""
    oracle = ga.objective_oracle(inst)
    direct = replace(inst)
    for mask in data.draw(st.permutations(range(1 << len(inst.sinks)))):
        assert outcome(oracle.value, mask) == outcome(ga.evaluate_objective, direct, mask)


@settings(max_examples=60, deadline=None)
@given(st.one_of(flow_instances(), instances_with_twins()))
def test_objective_is_augmentable_at_its_commodity_count_on_random_instances(inst):
    """The class claim beyond the built families: the c-commodity objective is
    strongly alpha-augmentable at alpha = c, and greedy meets the bound of that
    class.  Only bounded draws: values grow with the selection, so a bounded
    full selection bounds every other one."""
    f = ga.objective_oracle(inst)
    assume(outcome(f.value, f.ground.full_mask()) != "unbounded")
    c = inst.commodities
    assert ga.min_alpha_for(f, 1, scope="strong") <= c
    assert all(record.ok for record in ga.certify_greedy_bound(f, 1, c))


@settings(max_examples=40, deadline=None)
@given(flow_instances(max_commodities=1))
def test_lp_agrees_with_max_flow_on_random_single_commodity(inst):
    finite_total = sum(c for c in inst.capacities[0] if c != INF)
    for mask in range(1 << len(inst.sinks)):
        value = outcome(ga.evaluate_objective, inst, mask)
        flow = ga.max_flow(inst, 0, mask)
        if value == "unbounded":
            # an uncapacitated path reaches a chosen sink; max_flow's finite
            # stand-in for inf then exceeds every finite capacity total
            assert flow > finite_total
        else:
            assert value == flow


def test_max_flow_on_mixed_denominators_and_an_unlimited_arc():
    """Capacities over 2, 3 and 6 and an inf arc behind a finite one: max_flow
    equals the one-commodity LP and returns a Fraction in lowest terms."""
    arcs = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3))
    inst = ga.FlowInstance(4, arcs, 0, (2, 3), ((F(1, 2), INF, F(1, 3), F(1, 6), F(1, 2)),))
    flows = [ga.max_flow(inst, 0, mask) for mask in range(4)]
    assert flows == [0, F(5, 6), F(2, 3), 1]
    for mask, flow in enumerate(flows):
        assert type(flow) is Fraction and math.gcd(flow.numerator, flow.denominator) == 1
        if mask:
            assert flow == cold_objective(inst, mask) == ga.evaluate_objective(inst, mask)


def test_unlimited_arcs_stand_in_for_the_finite_total_of_every_commodity():
    """An inf arc carries 1 + (sinks) * (the finite capacity of all commodities),
    here 1 + 2 * 17/6 = 20/3, in each commodity; every value holds on a second
    pass through the same instance."""
    arcs = ((0, 1), (0, 2), (1, 2))
    inst = ga.FlowInstance(3, arcs, 0, (1, 2), ((INF, F(1, 2), F(1, 3)), (F(2), INF, F(0))))
    expected = {(0, 0b01): F(20, 3), (0, 0b10): F(5, 6), (0, 0b11): F(43, 6),
                (1, 0b01): F(2), (1, 0b10): F(20, 3), (1, 0b11): F(26, 3)}
    for _ in range(2):
        assert {key: ga.max_flow(inst, *key) for key in expected} == expected


@settings(max_examples=60, deadline=None)
@given(flow_instances(capacities=(F(0), F(1, 2), F(5, 3), INF)), st.data())
def test_repeated_max_flows_equal_a_fresh_instance(inst, data):
    """Every (commodity, mask) twice, in a random order, through one instance that
    keeps its int networks: each value equals max_flow on a fresh copy, which
    builds them anew."""
    pairs = [(c, mask) for c in range(inst.commodities) for mask in range(1 << len(inst.sinks))]
    for c, mask in data.draw(st.permutations(pairs * 2)):
        assert ga.max_flow(inst, c, mask) == ga.max_flow(replace(inst), c, mask)


def test_every_model_row_has_a_nonzero():
    """Balance rows exist only where a flow column or a sink demand touches the
    vertex; zero_ratio's commodities each leave some vertices untouched."""
    for alpha, count in ((2, 16), (3, 24)):
        rows, rhs, _ = ga.make_zero_ratio_instance(alpha).lp_model
        assert len(rows) == len(rhs) == count
        assert all(any(row.values()) for row in rows)
    for inst in (ga.make_two_sink_instance(2), ga.make_lower_bound_instance(2, 2)):
        assert all(any(row.values()) for row in inst.lp_model[0])


def test_zero_ratio_sweep_keeps_its_pivot_path(monkeypatch):
    """A (commodity, vertex) row that no arc touches would be all zero, and its slack
    would never pivot, so leaving such rows out keeps Bland's path.  zero_ratio(3)
    has three; its sweep's totals are pinned."""
    counts = count_solves(monkeypatch)
    oracle = ga.objective_oracle(ga.make_zero_ratio_instance(3))
    assert ga.approximation_ratio(oracle) == (2, 2)
    assert counts == [7, 17]
