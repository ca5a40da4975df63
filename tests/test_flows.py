from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedyaug as ga
from greedyaug import exactlp

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
        with pytest.raises(ga.ParameterError):
            ga.max_flow(inst, 0, 0b100)
        with pytest.raises(ga.ParameterError):
            ga.evaluate_objective(inst, 0b100)

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
    return exactlp.maximize(objective, rows, rhs).value


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except exactlp.Unbounded:
        return "unbounded"


@st.composite
def flow_instances(draw, max_commodities=3):
    n = draw(st.integers(3, 7))
    source = draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != source]
    sinks = draw(st.lists(st.sampled_from(others), min_size=1, max_size=min(4, n - 1),
                          unique=True))
    pairs = [(u, w) for u in range(n) for w in range(n) if u != w]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True))
    capacity = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(5, 3), INF])
    rows = [draw(st.lists(capacity, min_size=len(arcs), max_size=len(arcs)))
            for _ in range(draw(st.integers(1, max_commodities)))]
    return ga.FlowInstance(n, tuple(arcs), source, tuple(sinks), tuple(map(tuple, rows)))


@settings(max_examples=40, deadline=None)
@given(flow_instances())
def test_objective_matches_per_mask_reference(inst):
    for mask in range(1 << len(inst.sinks)):
        assert outcome(ga.evaluate_objective, inst, mask) == outcome(reference_objective, inst, mask)


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
