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
The rows are built from the arcs, and a vertex that no arc or sink demand
touches has none, so isolated vertices cost nothing.

As a selection changes only the objective, every optimal basis of the model
stays feasible for every selection.  Each instance keeps at most one optimum
per sink, the latest whose selection held it, and each solve warm-starts from
the kept optimum whose selection differs from its own in the fewest sinks.

Twin sinks cut the solves.  Two sinks are twins when no arc leaves either and
their in-arcs agree in tail and in every commodity's capacity, an arc whose
capacities are all zero counting as absent (the LP and the max-flow routine
both leave such arcs out).  Swapping two twins maps the digraph onto itself,
fixes the source and keeps every capacity, so it carries each feasible flow
and demand vector for X to one for the swapped X: f(X) = f(sigma X) for every
permutation sigma inside a class of twins, an unbounded X included.
``FlowInstance.twin_sinks`` finds the classes in one pass over the arcs, with
no check over the 2^n values, and ``objective_oracle`` declares them as its
``blocks`` (``core.Blocks``), so it solves only the least mask of each orbit:
per class, the same count of members at its lowest sink indices.  The
staircase's decoy sinks form one class per commodity.

The class claim: the c-commodity objective is alpha-augmentable at alpha = c,
and the staircase attains it: the integer-alpha half of closing the gap
left in [Math. Prog., 2020].

Capacities may be infinite.  The LP simply omits capacity rows for such arcs
(the objective stays bounded whenever the instance is well-posed, and the
solver raises if not); the combinatorial max-flow routine replaces them with
a provably sufficient finite stand-in instead.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict, deque
from fractions import Fraction
from functools import cached_property

from . import exactlp
from .core import (
    Blocks,
    GroundSet,
    ParameterError,
    Record,
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


def _check_lp_size(arcs, commodities, sinks):
    columns = arcs * commodities + sinks
    if columns > MAX_LP_COLUMNS:
        raise LPSizeError(f"{columns} variables exceed guard {MAX_LP_COLUMNS}")


def _parse_capacity(token):
    """A JSON capacity: "inf", or a rational as ``parse_rational`` reads it."""
    if token == "inf":
        return INF
    try:
        return parse_rational(token, "capacity")
    except ParameterError:
        if isinstance(token, str):  # a "p/q" string with q = 0
            raise
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


class FlowInstance(Record):
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
        demand per sink in sink order, from column ``first_demand``.  Rows, each
        a ``{column: coefficient}`` mapping of its nonzeros: ``{var: 1}`` per
        finite-capacity flow column, then per commodity and non-source vertex v
        that a flow column or a sink demand touches (and no other),
        ``outflow(v) - inflow(v) + d_v <= 0`` (d_v only when v is a sink).
        ``evaluate_objective`` keeps optimal solutions over these rows beside
        them, in ``_lp_starts``.
        """
        flow = [
            (i, e) for i, row in enumerate(self.capacities) for e, c in enumerate(row) if c != 0
        ]
        rows, rhs, balance = [], [], {}  # balance: (commodity, vertex) -> row
        for var, (i, e) in enumerate(flow):
            if self.capacities[i][e] != INF:
                rows.append({var: 1})
                rhs.append(self.capacities[i][e])
            for v, a in zip(self.arcs[e], (1, -1)):
                if v != self.source:
                    balance.setdefault((i, v), {})[var] = a
        for j, t in enumerate(self.sinks):
            for i in range(self.commodities):
                balance.setdefault((i, t), {})[len(flow) + j] = 1
        rows += (balance[key] for key in sorted(balance))  # commodity, then vertex
        return tuple(rows), tuple(rhs) + (0,) * len(balance), len(flow)

    @cached_property
    def _lp_starts(self) -> dict:
        """Sink index -> ``(mask, solution)``, the latest optimum whose selection
        held that sink, least recently solved first; at most one per sink.

        ``evaluate_objective`` warm-starts from the kept selection nearest its
        own and files each bounded optimum here under every sink it selects.
        """
        return {}

    @cached_property
    def twin_sinks(self) -> Blocks:
        """Classes of two or more interchangeable sinks, as ascending sink indices.

        Sinks are twins when no arc leaves either and their in-arcs agree in
        tail and in every commodity's capacity, an arc whose capacities are
        all zero counting as absent.  One pass over the arcs.
        """
        leaves, into = set(), defaultdict(list)
        for (u, w), caps in zip(self.arcs, zip(*self.capacities)):
            if any(caps):
                leaves.add(u)
                into[w].append((u, caps))
        classes = defaultdict(list)
        for j, t in enumerate(self.sinks):
            if t not in leaves:
                classes[tuple(sorted(into[t]))].append(j)
        return Blocks((c for c in classes.values() if len(c) > 1), len(self.sinks))

    @cached_property
    def _objective_oracle(self) -> SetFunctionOracle:
        """The one objective oracle of this instance (``objective_oracle``)."""
        return SetFunctionOracle(self.sink_ground(), lambda mask: evaluate_objective(self, mask),
                                 name=self.name, blocks=self.twin_sinks)

    @cached_property
    def _flow_networks(self) -> tuple:
        """Per commodity ``(scale, super_cap, residual)``, the int network that
        ``max_flow`` copies on every call.

        Infinite capacities are replaced by one plus the total finite
        capacity over all commodities and sinks, and the commodity's
        capacities, that stand-in included, are scaled by the lcm of their
        denominators.  ``residual`` maps each vertex an arc with positive
        capacity touches to its residual arcs, inserted in arc order;
        ``super_cap`` is the capacity of each arc into the super sink.
        """
        finite_total = sum((c for row in self.capacities for c in row if c != INF), Fraction(0))
        big = 1 + len(self.sinks) * finite_total
        networks = []
        for caps in self.capacities:
            caps = [big if c == INF else c for c in caps]
            scale = math.lcm(*(c.denominator for c in caps))
            caps = [c.numerator * (scale // c.denominator) for c in caps]
            residual: dict[int, dict[int, int]] = {}
            for (u, v), cap in zip(self.arcs, caps):
                if cap:
                    out = residual.setdefault(u, {})
                    out[v] = out.get(v, 0) + cap
                    residual.setdefault(v, {}).setdefault(u, 0)
            networks.append((scale, scale + sum(caps), residual))
        return tuple(networks)

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
        if not isinstance(d, dict):
            raise ParameterError(f"a flow instance must be a JSON object, got {type(d).__name__}")
        rows = d["capacities"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ParameterError(f"capacities must be a JSON list of JSON lists, got {rows!r}")
        caps = tuple(tuple(_parse_capacity(c) for c in row) for row in rows)
        if len(caps) != require_int(d.get("commodities", len(caps)), "commodities"):
            raise ParameterError("commodity count disagrees with capacity rows")
        labels = d.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(s, str) for s in labels)
        ):
            raise ParameterError(f"labels must be a JSON list of strings, got {labels!r}")
        arcs, sinks, name = d["arcs"], d["sinks"], d.get("name", "flow")
        if not (isinstance(arcs, list) and all(isinstance(a, list) and len(a) == 2 for a in arcs)):
            raise ParameterError(f"arcs must be a JSON list of [tail, head] lists, got {arcs!r}")
        if not isinstance(sinks, list):
            raise ParameterError(f"sinks must be a JSON list, got {sinks!r}")
        if not isinstance(name, str):
            raise ParameterError(f"name must be a JSON string, got {name!r}")
        return cls(
            num_vertices=require_int(d["vertices"], "vertices"),
            arcs=tuple(
                (require_int(u, "arc endpoint"), require_int(v, "arc endpoint")) for u, v in arcs
            ),
            source=require_int(d["source"], "source"),
            sinks=tuple(require_int(t, "sink") for t in sinks),
            capacities=caps,
            labels=tuple(labels) if labels else None,
            name=name,
        )

    @classmethod
    def from_json(cls, text: str) -> "FlowInstance":
        return cls.from_json_dict(json.loads(text))


def evaluate_objective(inst: FlowInstance, sink_mask: int) -> Fraction:
    """Exact value of selecting the sinks in ``sink_mask`` (bitmask over sink order).

    Solves the instance's one ``lp_model`` with objective 1 on the demand
    columns of the chosen sinks and 0 elsewhere.  Any optimal basis of the
    model stays primal feasible for every selection, which changes only the
    objective, so a solve warm-starts from one kept in ``inst._lp_starts``: the
    kept selection that differs from ``sink_mask`` in the fewest sinks, the
    most recent among equals, and a cold start only when none is kept.  The
    optimum is then kept under each chosen sink; an ``Unbounded`` selection
    keeps nothing.  Greedy's candidate X + x is one sink away from X' + x,
    solved a step earlier, where the last solve, X + x_prev, is two away.
    Each value is certified by ``exactlp`` and is the LP's unique optimum, so
    it does not depend on the order in which masks are evaluated; only x, y
    and the pivot count can.  ``MAX_LP_COLUMNS`` bounds the column count as
    (arcs x commodities) + a demand column for every sink, chosen or not.
    """
    if not 0 <= sink_mask < 1 << len(inst.sinks):
        raise ParameterError("sink mask outside the sink set")
    if not sink_mask:
        return Fraction(0)
    _check_lp_size(len(inst.arcs), inst.commodities, len(inst.sinks))
    rows, rhs, first_demand = inst.lp_model
    kept = inst._lp_starts
    # latest first, so that min breaks ties in favour of the most recent solve
    _, start = min(reversed(kept.values()), key=lambda pair: (pair[0] ^ sink_mask).bit_count(),
                   default=(0, None))
    objective = [0] * first_demand + [sink_mask >> j & 1 for j in range(len(inst.sinks))]
    try:
        solution = exactlp.maximize(objective, rows, rhs, start=start)
    except exactlp.Unbounded as exc:
        raise exactlp.Unbounded(
            f"{inst.name}: unbounded objective (every commodity has unlimited capacity "
            f"into some selected sink)"
        ) from exc
    for j in indices_of(sink_mask):
        kept.pop(j, None)  # re-inserted last: the dict's order is the order of solves
        kept[j] = sink_mask, solution
    return solution.value


def objective_oracle(inst: FlowInstance) -> SetFunctionOracle:
    """Wrap the LP evaluation as a cached oracle over the sink ground set, one LP
    per orbit of twin sinks.

    Twin sinks (``FlowInstance.twin_sinks``) have no out-arcs and the same
    in-arcs, tail and every commodity's capacity alike, so swapping two of
    them maps the digraph onto itself, fixes the source and keeps every
    capacity: it maps each feasible flow and demand vector of X onto one of
    the swapped X, and f(X) = f(sigma X) for every permutation sigma inside a
    class, an unbounded X included.  So f(X) depends only on how many members
    of each class X holds, and the oracle declares the classes as its
    ``blocks``: only least masks reach ``evaluate_objective``, and the optimum
    sweep reads one mask per orbit.  The classes are found when the oracle
    is built.

    The instance keeps one oracle: every call returns the same object, built
    on the first call, so its memo and greedy chains serve every caller,
    ``excess_upper_bound`` included.
    """
    return inst._objective_oracle


def excess_upper_bound(inst: FlowInstance):
    """Callable mask -> sum of singleton optima, a valid bound on the objective.

    Any feasible flow assignment gives each selected sink at most its
    singleton optimum, so the sum bounds every subset's value: the bound
    ``optimum_value`` prunes its sweep with, and refuses should it ever fall
    below f at a mask it reads.  The singletons are read through the
    instance's one ``objective_oracle``, so twin sinks share one LP and the
    sweep finds every singleton in the memo, none solved twice.
    """
    single = objective_oracle(inst).value
    singles = [single(1 << i) for i in range(len(inst.sinks))]

    def bound(mask: int) -> Fraction:
        if not 0 <= mask < 1 << len(singles):
            raise ParameterError("sink mask outside the sink set")
        total = Fraction(0)
        for i in indices_of(mask):
            total += singles[i]
        return total

    return bound


def max_flow(inst: FlowInstance, commodity: int, sink_mask: int) -> Fraction:
    """Exact max flow from the source to the chosen sinks for one commodity.

    Shortest-augmenting-path search on the residual network with a super
    sink.  The search runs on ints, on a copy of the commodity's network that
    the instance keeps (``FlowInstance._flow_networks``), whose stand-in for
    an infinite capacity no single commodity's useful flow can exceed in a
    well-posed instance.  Only the returned total is a Fraction,
    ``Fraction(total, scale)``.
    """
    if not 0 <= commodity < inst.commodities:
        raise ParameterError(f"commodity {commodity} outside 0..{inst.commodities - 1}")
    if not 0 <= sink_mask < 1 << len(inst.sinks):
        raise ParameterError("sink mask outside the sink set")
    if not sink_mask:
        return Fraction(0)

    scale, super_cap, network = inst._flow_networks[commodity]
    super_sink = inst.num_vertices
    residual: defaultdict[int, dict[int, int]] = defaultdict(dict)  # only the touched vertices
    for u, out in network.items():
        residual[u] = out.copy()
    for i in indices_of(sink_mask):
        t = inst.sinks[i]
        residual[t][super_sink] = super_cap
        residual[super_sink][t] = 0

    total = 0
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
            return Fraction(total, scale)
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
    _check_lp_size(ak * (ak + 3), alpha, 2 * ak)  # refuse before building any arc
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
