"""Multi-sink commodity-flow instances and their sink-selection objective.

An instance is a digraph with one source, a set of sinks, and one capacity
function per commodity.  A feasible flow for a commodity respects its
capacities, conserves flow at internal vertices, and may leave nonnegative
excess at any sink.  Selecting a sink subset X is worth the largest total of
per-sink demands d_t such that every commodity can simultaneously deliver
excess at least d_t to each chosen t.  That maximum is computed here as one
exact-rational LP over all commodity flows plus the demands; a commodity-wise
max-flow is not enough because the demands couple the commodities.

Each instance builds that LP once (``FlowInstance.lp_model``), with a demand
column for every sink; a selection only sets the objective to 1 on the chosen
sinks' demands.  An unchosen demand can drop to 0 at no cost, so it changes
no optimum.  The model lets every non-source vertex absorb flow (excess >= 0)
rather than conserve it, which changes no optimum either: such a preflow
decomposes into paths from the source, and dropping the paths that end at
internal vertices only lowers flows and leaves every sink's excess as it was.

Capacities may be infinite.  The LP simply omits capacity rows for such arcs
(the objective stays bounded whenever the instance is well-posed, and the
solver raises if not); the combinatorial max-flow routine replaces them with
a provably sufficient finite stand-in instead.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exactlp
from .core import (
    GroundSet,
    ParameterError,
    SetFunctionOracle,
    as_fraction,
    format_rational,
    indices_of,
    parse_rational,
    require_int,
)

INF = math.inf
MAX_LP_COLUMNS = 5000


class LPSizeError(ValueError):
    """The objective LP would have more than ``MAX_LP_COLUMNS`` columns."""


def _parse_capacity(token):
    """A JSON capacity: "inf", or a rational as ``parse_rational`` reads it."""
    if token == "inf":
        return INF
    try:
        return parse_rational(token, "capacity")
    except ParameterError:
        raise ParameterError(
            f'capacity must be a "p/q" string, a JSON integer or "inf", got {token!r}'
        ) from None


def _check_capacity(value):
    if value == INF:
        return INF
    value = as_fraction(value)
    if value < 0:
        raise ParameterError("capacities must be nonnegative")
    return value


@dataclass(frozen=True)
class FlowInstance:
    """Digraph + source + ordered sinks + per-commodity arc capacities.

    ``sinks`` fixes the element order of the selection ground set, so tie
    policies act on that order.  ``capacities[i][e]`` is the capacity of arc
    ``arcs[e]`` for commodity ``i`` (Fraction, or math.inf).
    """

    num_vertices: int
    arcs: tuple[tuple[int, int], ...]
    source: int
    sinks: tuple[int, ...]
    capacities: tuple[tuple, ...]
    labels: tuple[str, ...] | None = None
    name: str = "flow"

    def __post_init__(self):
        v = self.num_vertices
        if not 0 <= self.source < v:
            raise ParameterError("source outside vertex range")
        if self.source in self.sinks:
            raise ParameterError("source cannot be a sink")
        if len(set(self.sinks)) != len(self.sinks) or not self.sinks:
            raise ParameterError("sinks must be distinct and nonempty")
        if any(not 0 <= t < v for t in self.sinks):
            raise ParameterError("sink outside vertex range")
        if len(set(self.arcs)) != len(self.arcs):
            raise ParameterError("duplicate arcs; merge capacities instead")
        for u, w in self.arcs:
            if not (0 <= u < v and 0 <= w < v) or u == w:
                raise ParameterError(f"bad arc ({u},{w})")
        if not self.capacities:
            raise ParameterError("need at least one commodity")
        checked = tuple(
            tuple(_check_capacity(c) for c in per_commodity) for per_commodity in self.capacities
        )
        if any(len(row) != len(self.arcs) for row in checked):
            raise ParameterError("capacity rows must align with arcs")
        object.__setattr__(self, "capacities", checked)
        if self.labels is not None and len(self.labels) != v:
            raise ParameterError("labels length must equal vertex count")

    @property
    def commodities(self) -> int:
        return len(self.capacities)

    @cached_property
    def lp_model(self) -> tuple[tuple, tuple, int]:
        """``(rows, rhs, first_demand)`` of ``rows . x <= rhs``, shared by every selection.

        Columns: one flow per (commodity, arc) with positive capacity, then one
        demand per sink in sink order, from column ``first_demand``.  Rows: one
        capacity row per finite-capacity flow column, then per commodity and
        non-source vertex v, ``outflow(v) - inflow(v) + d_v <= 0`` (d_v only
        when v is a sink).
        """
        flow = [
            (i, e) for i, row in enumerate(self.capacities) for e, c in enumerate(row) if c != 0
        ]
        width = len(flow) + len(self.sinks)
        rows, rhs = [], []
        for var, (i, e) in enumerate(flow):
            if self.capacities[i][e] != INF:
                rows.append([exactlp.ZERO] * width)
                rows[-1][var] = exactlp.ONE
                rhs.append(self.capacities[i][e])
        balance = [
            [[exactlp.ZERO] * width for _ in range(self.num_vertices)]
            for _ in range(self.commodities)
        ]
        for var, (i, e) in enumerate(flow):
            u, v = self.arcs[e]
            balance[i][u][var] += exactlp.ONE
            balance[i][v][var] -= exactlp.ONE
        for j, t in enumerate(self.sinks):
            for per_vertex in balance:
                per_vertex[t][len(flow) + j] = exactlp.ONE
        for per_vertex in balance:
            for v, row in enumerate(per_vertex):
                if v != self.source:
                    rows.append(row)
                    rhs.append(exactlp.ZERO)
        return tuple(map(tuple, rows)), tuple(rhs), len(flow)

    def vertex_label(self, v: int) -> str:
        return self.labels[v] if self.labels else f"v{v}"

    def sink_ground(self) -> GroundSet:
        return GroundSet(len(self.sinks), tuple(self.vertex_label(t) for t in self.sinks))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "labels": list(self.labels) if self.labels else None,
            "source": self.source,
            "sinks": list(self.sinks),
            "commodities": self.commodities,
            "arcs": [[u, v] for u, v in self.arcs],
            "capacities": [
                [format_rational(c) for c in row] for row in self.capacities
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "FlowInstance":
        caps = tuple(tuple(_parse_capacity(c) for c in row) for row in d["capacities"])
        if len(caps) != require_int(d.get("commodities", len(caps)), "commodities"):
            raise ParameterError("commodity count disagrees with capacity rows")
        labels = d.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(s, str) for s in labels)
        ):
            raise ParameterError(f"labels must be a JSON list of strings, got {labels!r}")
        return cls(
            num_vertices=require_int(d["vertices"], "vertices"),
            arcs=tuple(
                (require_int(u, "arc endpoint"), require_int(v, "arc endpoint"))
                for u, v in d["arcs"]
            ),
            source=require_int(d["source"], "source"),
            sinks=tuple(require_int(t, "sink") for t in d["sinks"]),
            capacities=caps,
            labels=tuple(labels) if labels else None,
            name=d.get("name", "flow"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FlowInstance":
        return cls.from_json_dict(json.loads(text))


def evaluate_objective(inst: FlowInstance, sink_mask: int) -> Fraction:
    """Exact value of selecting the sinks in ``sink_mask`` (bitmask over sink order).

    Solves the instance's one ``lp_model`` with objective 1 on the demand
    columns of the chosen sinks and 0 elsewhere.  ``MAX_LP_COLUMNS`` bounds
    the column count as (arcs x commodities) + a demand column for every sink,
    chosen or not.
    """
    chosen = indices_of(sink_mask)
    if any(i >= len(inst.sinks) for i in chosen):
        raise ParameterError("sink mask outside the sink set")
    if not chosen:
        return Fraction(0)
    columns = len(inst.arcs) * inst.commodities + len(inst.sinks)
    if columns > MAX_LP_COLUMNS:
        raise LPSizeError(f"{columns} variables exceed guard {MAX_LP_COLUMNS}")
    rows, rhs, first_demand = inst.lp_model
    objective = [exactlp.ZERO] * first_demand + [
        exactlp.ONE if sink_mask >> j & 1 else exactlp.ZERO for j in range(len(inst.sinks))
    ]
    try:
        solution = exactlp.maximize(objective, rows, rhs)
    except exactlp.Unbounded as exc:
        raise exactlp.Unbounded(
            f"{inst.name}: unbounded objective (every commodity has unlimited capacity "
            f"into some selected sink)"
        ) from exc
    return solution.value


def objective_oracle(inst: FlowInstance) -> SetFunctionOracle:
    """Wrap the LP evaluation as a cached oracle over the sink ground set."""
    return SetFunctionOracle(
        inst.sink_ground(), lambda mask: evaluate_objective(inst, mask), name=inst.name
    )


def excess_upper_bound(inst: FlowInstance):
    """Callable mask -> sum of singleton optima, a valid bound on the objective.

    Any feasible flow assignment gives each selected sink at most its
    singleton optimum, so the sum bounds every subset's value.  Useful for
    pruning brute-force sweeps over expensive LP evaluations.
    """
    singles = [evaluate_objective(inst, 1 << i) for i in range(len(inst.sinks))]

    def bound(mask: int) -> Fraction:
        total = Fraction(0)
        for i in indices_of(mask):
            total += singles[i]
        return total

    return bound


def max_flow(inst: FlowInstance, commodity: int, sink_mask: int) -> Fraction:
    """Exact max flow from the source to the chosen sinks for one commodity.

    Shortest-augmenting-path search on the residual network with a super
    sink.  Infinite capacities are replaced by one plus the total finite
    capacity over all commodities and sinks, which no single commodity's
    useful flow can exceed in a well-posed instance.
    """
    if not 0 <= commodity < inst.commodities:
        raise ParameterError(f"commodity {commodity} outside 0..{inst.commodities - 1}")
    chosen = indices_of(sink_mask)
    if any(i >= len(inst.sinks) for i in chosen):
        raise ParameterError("sink mask outside the sink set")
    if not chosen:
        return Fraction(0)

    finite_total = Fraction(0)
    for row in inst.capacities:
        for c in row:
            if c != INF:
                finite_total += c
    big = 1 + len(inst.sinks) * finite_total

    nodes = inst.num_vertices + 1
    super_sink = inst.num_vertices
    residual: list[dict[int, Fraction]] = [dict() for _ in range(nodes)]

    def add(u, v, cap):
        residual[u][v] = residual[u].get(v, Fraction(0)) + cap
        residual[v].setdefault(u, Fraction(0))

    for e, (u, v) in enumerate(inst.arcs):
        cap = inst.capacities[commodity][e]
        if cap == 0:
            continue
        add(u, v, big if cap == INF else cap)
    super_cap = 1 + sum(
        (big if c == INF else c)
        for row in [inst.capacities[commodity]]
        for c in row
        if c != 0
    )
    for i in chosen:
        add(inst.sinks[i], super_sink, super_cap)

    total = Fraction(0)
    while True:
        parent = {inst.source: None}
        queue = deque([inst.source])
        while queue and super_sink not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if super_sink not in parent:
            return total
        path = []
        v = super_sink
        while parent[v] is not None:
            u = parent[v]
            path.append((u, v))
            v = u
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        total += bottleneck


def capacity_scale(k: int) -> Fraction:
    if k < 2:
        raise ParameterError(f"capacity scale needs k >= 2, got {k}")
    return Fraction(k, k - 1)


def lower_bound_ratio_closed_form(alpha: int, k: int) -> Fraction:
    """Exact greedy ratio of the staircase instance: alpha*x**(alpha*k)/(x**(alpha*k)-1)."""
    if alpha < 1:
        raise ParameterError(f"alpha must be a positive integer, got {alpha}")
    power = capacity_scale(k) ** (alpha * k)
    return alpha * power / (power - 1)


def default_tie_epsilon(alpha: int, k: int) -> Fraction:
    """A perturbation small enough to break ties without reordering gains."""
    x = capacity_scale(k)
    return x * (x - 1) / (8 * alpha * k)


def make_lower_bound_instance(alpha: int, k: int, epsilon=None) -> FlowInstance:
    """Staircase worst-case instance with capacity scale x = k/(k-1).

    Sinks t_1..t_{alpha*k} are fed through private intermediate vertices with
    geometrically falling capacities x**(alpha*k-j+1); decoy sinks
    t_{alpha*k+1}..t_{2*alpha*k} each collect one unit directly plus a 1/k
    share of every intermediate vertex for exactly one commodity (unlimited
    capacity for the others).  Greedy with lowest-index ties walks
    t_1..t_{alpha*k} while the decoys form the optimum.

    ``epsilon`` switches on a strict-preference perturbation: the finite
    capacities feeding sink t_j grow by epsilon*(2*alpha*k - j), which makes
    the intended pick order strict so that every tie policy produces it.
    """
    if alpha < 1 or k < 2:
        raise ParameterError(f"need alpha >= 1 and k >= 2, got alpha={alpha}, k={k}")
    x = capacity_scale(k)
    eps = as_fraction(epsilon) if epsilon is not None else Fraction(0)
    if eps < 0:
        raise ParameterError("epsilon must be nonnegative")
    ak = alpha * k
    num_vertices = 1 + ak + 2 * ak
    source = 0

    def mid(j):  # intermediate vertex for sink t_j, j = 1..ak
        return j

    def sink(r):  # vertex of sink t_r, r = 1..2ak
        return ak + r

    labels = ["s"] + [f"v{j}" for j in range(1, ak + 1)] + [f"t{r}" for r in range(1, 2 * ak + 1)]
    sinks = tuple(sink(r) for r in range(1, 2 * ak + 1))

    arcs: list[tuple[int, int]] = []
    caps: list[list] = [[] for _ in range(alpha)]

    def add(u, v, per_commodity):
        arcs.append((u, v))
        for i in range(alpha):
            caps[i].append(per_commodity(i))

    for j in range(1, ak + 1):
        feed = x ** (ak - j + 1) + eps * (2 * ak - j)
        add(source, mid(j), lambda i, c=feed: c)
        add(mid(j), sink(j), lambda i, c=feed: c)
    for r in range(ak + 1, 2 * ak + 1):
        owner = math.ceil(Fraction(r, k)) - alpha - 1  # 0-based commodity index
        direct = 1 + eps * (2 * ak - r)
        add(source, sink(r), lambda i, o=owner, c=direct: c if i == o else INF)
        for j in range(1, ak + 1):
            share = x ** (ak - j + 1) / k
            add(mid(j), sink(r), lambda i, o=owner, c=share: c if i == o else Fraction(0))

    return FlowInstance(
        num_vertices=num_vertices,
        arcs=tuple(arcs),
        source=source,
        sinks=sinks,
        capacities=tuple(tuple(row) for row in caps),
        labels=tuple(labels),
        name=f"staircase(alpha={alpha},k={k})" + (f"+eps" if eps else ""),
    )


def make_two_sink_instance(alpha: int = 2) -> FlowInstance:
    """One bottleneck vertex feeding two sinks: values 0/2/2/3.

    The objective is worth 2 for either single sink but only 3 for both,
    which no weighted rank function can reproduce; it still passes the
    augmentability audit at the instance's commodity count.
    """
    if alpha < 1:
        raise ParameterError(f"alpha must be a positive integer, got {alpha}")
    arcs = ((0, 1), (1, 2), (1, 3))
    caps = tuple((Fraction(3), Fraction(2), Fraction(2)) for _ in range(alpha))
    return FlowInstance(
        num_vertices=4,
        arcs=arcs,
        source=0,
        sinks=(2, 3),
        capacities=caps,
        labels=("s", "v", "t1", "t2"),
        name=f"two_sink(alpha={alpha})",
    )


def make_zero_ratio_instance(alpha: int = 2) -> FlowInstance:
    """Two crossing commodities whose weak submodularity ratio collapses to zero.

    Every single sink is worth 1, so the first greedy pick is a tie; the sink
    order places t2 first so that lowest-index tie-breaking selects it.  After
    t2 no single sink adds value, yet adding t1 and t3 together gains 1.
    """
    if alpha < 2:
        raise ParameterError(f"needs at least two commodities, got {alpha}")
    s, v1, v2, t1, t2, t3 = range(6)
    arcs = ((s, v1), (s, v2), (s, t1), (s, t3), (v1, t1), (v1, t2), (v2, t2), (v2, t3))
    first_commodity = {(s, v1), (s, t3), (v1, t1), (v1, t2)}
    caps = []
    for i in range(alpha):
        row = []
        for arc in arcs:
            in_first = arc in first_commodity
            row.append(Fraction(1) if in_first == (i == 0) else Fraction(0))
        caps.append(tuple(row))
    return FlowInstance(
        num_vertices=6,
        arcs=arcs,
        source=s,
        sinks=(t2, t1, t3),
        capacities=tuple(caps),
        labels=("s", "v1", "v2", "t1", "t2", "t3"),
        name=f"zero_ratio(alpha={alpha})",
    )
