"""Workload inputs, jobs and output checks.

Every workload pass starts with the same small layer probe (see ``probe_jobs``)
and then runs its own jobs one after another.  ``make_inputs`` turns the seed
into plain data; ``build`` turns that data into jobs through the public
greedyaug constructors, which is the set-up the benchmark times.

Each job returns its raw result; ``canon`` renders the exact outputs that must
not change (verdicts, witnesses, values, CLI stdout) for comparison with the
recorded outputs, and ``check`` applies the closed forms, theory-backed
expectations and re-verifications that hold on every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("audit-strong", "lp-flow", "paper-cli")
HALF = Fraction(1, 2)
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    # check(result, results of earlier jobs in this pass) -> problems found
    check: Callable[[object, dict], list]
    seeded: bool = False  # the output depends on the seed


@dataclass
class Instance:
    """A benchmark-side description of an audited set function."""

    name: str
    n: int
    raw: Callable[[int], Fraction]  # value computed without the oracle cache
    oracle: object
    submodular: bool = False


# ---------------------------------------------------------------- inputs


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs: the fixed part is seed-independent."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "audit-strong":
        return {
            "fixed": {"critical": [(1, 1, 4), (1, 2, 4), (HALF, 1, 4)]},
            "random": {
                "coverage": _coverage_table(rng, 8),
                "matroid": _matroid_weights(rng, 7),
                "tables": [_monotone_table(rng, 8) for _ in range(4)] + [_monotone_table(rng, 9)],
            },
        }
    if workload == "lp-flow":
        return {
            "fixed": {"greedy": [(2, 3), (2, 4)], "ratio": [(2, 2)], "optimum": [(1, 3)]},
            "random": {"flows": [_flow_data(rng, c) for c in (1, 1, 2, 3)]},
        }
    return {"fixed": {"commands": PAPER_COMMANDS}, "random": {}}


def _coverage_table(rng, n, items=12):
    weights = [rng.randint(1, 5) for _ in range(items)]
    covers = []
    for _ in range(n):
        cover = sum(1 << i for i in range(items) if rng.random() < 0.3) or 1 << rng.randrange(items)
        covers.append(cover)
    table = []
    for mask in range(1 << n):
        union = 0
        for i in range(n):
            if mask >> i & 1:
                union |= covers[i]
        table.append(Fraction(sum(w for i, w in enumerate(weights) if union >> i & 1)))
    return table


def _matroid_weights(rng, n):
    rank = rng.randint(3, 5)
    return rank, [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(n)]


def _monotone_table(rng, n):
    # f(X) = max over one-element removals + a random nonnegative increment.
    table = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        base = max(table[mask ^ (1 << i)] for i in range(n) if mask >> i & 1)
        table[mask] = base + Fraction(rng.randint(0, 6), rng.choice((1, 2, 4)))
    return table


def _flow_data(rng, commodities, mids=3):
    sinks = rng.randint(5, 6)
    num_vertices = 1 + mids + sinks
    sink_vertices = list(range(1 + mids, num_vertices))
    arcs = [(0, 1 + j) for j in range(mids)]
    arcs += [(1 + j, t) for j in range(mids) for t in sink_vertices if rng.random() < 0.5]
    arcs += [(0, t) for t in sink_vertices if rng.random() < 0.3]
    caps = [[Fraction(rng.randint(0, 6)) for _ in arcs] for _ in range(commodities)]
    return num_vertices, arcs, sink_vertices, caps


# ---------------------------------------------------------------- checks


def canon(result):
    """Exact, JSON-ready rendering of a job result."""
    if isinstance(result, Fraction):
        return str(result)
    if isinstance(result, float):
        return repr(result)
    if isinstance(result, (bool, int, str)) or result is None:
        return result
    if isinstance(result, (list, tuple)):
        return [canon(x) for x in result]
    if isinstance(result, dict):
        return {str(k): canon(v) for k, v in result.items()}
    if hasattr(result, "member"):  # audit report; checked_pairs is a work count
        w = result.witness
        return {"member": result.member,
                "witness": None if w is None else [w.x_set, w.y_set, str(w.lhs), str(w.rhs)]}
    if hasattr(result, "tie_log"):  # greedy trace
        return {"picks": list(result.picks), "values": canon(result.values),
                "ties": canon(result.tie_log)}
    raise TypeError(f"no canonical form for {type(result).__name__}")


def digest(result) -> str:
    text = json.dumps(canon(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def verify_witness(report, raw, gamma, alpha, existential) -> list:
    """Re-derive a reported violation from values computed without the oracle."""
    w = report.witness
    if report.member:
        return [] if w is None else ["member verdict carries a witness"]
    if w is None:
        return ["non-member verdict without a witness"]
    x, y = w.x_set, w.y_set
    if y & ~x == 0:
        return ["witness Y lies inside X"]
    fx = raw(x)
    gains = []
    for e in range(y.bit_length()):
        if y >> e & 1:
            if not x >> e & 1:
                gains.append(raw(x | 1 << e) - fx)
            elif existential == "full":
                gains.append(Fraction(0))
    best = max(gains)
    rhs = (gamma * raw(x | y) - alpha * fx) / y.bit_count()
    if (best, rhs) != (w.lhs, w.rhs) or not best < rhs:
        return [f"witness X={x} Y={y} does not re-verify: lhs={w.lhs} rhs={w.rhs}, "
                f"recomputed {best} < {rhs} is {best < rhs}"]
    return []


def _expect(actual, expected, what) -> list:
    return [] if actual == expected else [f"{what}: got {actual}, expected {expected}"]


# ---------------------------------------------------------------- probe


STAR_SINKS = 16


def probe_jobs(ga) -> list:
    """A fixed, small job set that touches every layer, run in every pass.

    It keeps each per-layer metric measured on every workload, and serves as
    the untimed warm-up of each process.
    """
    star = _star_instance(ga)
    small_critical = ga.families.make_critical_function(1, 1, 2)
    commands = [
        ("probe.verify-paper", ["verify-paper"]),
        ("probe.trace", ["trace", "--family", "critical",
                         "--params", '{"gamma": "1", "alpha": "1", "k": 2}']),
        ("probe.audit", ["audit", "--family", "ratio_separator",
                         "--params", '{"gamma": "1/2"}', "--scope", "strong"]),
        ("probe.ratio-table", ["ratio-table", "--family", "critical", "--k", "2,3"]),
        ("probe.gen-instance", ["gen-instance", "--family", "two_sink"]),
    ]
    jobs = [_cli_job(ga, key, argv) for key, argv in commands]
    jobs.append(Job("probe.star-lp", lambda: _star_run(ga, star), _star_check))
    jobs.append(Job("probe.min-alpha",
                    lambda: ga.audit.min_alpha_for(small_critical, 1, scope="strong"),
                    lambda r, done: _expect(r, 1, "min alpha of critical(1,1,2)")))
    return jobs


def _star_instance(ga):
    # Source feeds each sink directly (capacity 1 + i % 4) and through a shared
    # hub (capacity 10, then 2 per sink), so a chosen set X is worth
    # sum of direct capacities + min(10, 2|X|) in closed form.
    sinks = list(range(2, 2 + STAR_SINKS))
    arcs = [(0, 1)] + [(0, t) for t in sinks] + [(1, t) for t in sinks]
    caps = [Fraction(10)] + [Fraction(1 + i % 4) for i in range(STAR_SINKS)] \
        + [Fraction(2)] * STAR_SINKS
    return ga.flows.FlowInstance(num_vertices=2 + STAR_SINKS, arcs=tuple(arcs), source=0,
                                 sinks=tuple(sinks), capacities=(tuple(caps),), name="star")


def _star_run(ga, inst):
    out = []
    for size in range(1, STAR_SINKS + 1):
        mask = (1 << size) - 1
        out.append((ga.flows.evaluate_objective(inst, mask), ga.flows.max_flow(inst, 0, mask)))
    return out


def _star_check(result, done) -> list:
    problems = []
    for size, (lp, flow) in enumerate(result, start=1):
        closed = sum(1 + i % 4 for i in range(size)) + min(10, 2 * size)
        problems += _expect((lp, flow), (closed, closed), f"star LP/max-flow at {size} sinks")
    return problems


# ---------------------------------------------------------------- audit-strong


def _audit_jobs(ga, inp) -> list:
    instances = []
    for gamma, alpha, k in inp["fixed"]["critical"]:
        f = ga.families.make_critical_function(gamma, alpha, k)
        instances.append(Instance(f"critical({gamma},{alpha},{k})", 2 * k,
                                  _exhaustive(ga, gamma, alpha, k), f))
    rnd = inp["random"]
    coverage = rnd["coverage"]
    n = (len(coverage) - 1).bit_length()
    instances.append(Instance("coverage", n, coverage.__getitem__,
                              _table_oracle(ga, coverage, n, "coverage"), submodular=True))
    rank, weights = rnd["matroid"]
    system = ga.independence.uniform_matroid(len(weights), rank, weights)
    instances.append(Instance("uniform-rank", len(weights), _top_weights(weights, rank),
                              ga.independence.weighted_rank_oracle(system), submodular=True))
    for i, table in enumerate(rnd["tables"]):
        n = (len(table) - 1).bit_length()
        instances.append(Instance(f"table{i}", n, table.__getitem__,
                                  _table_oracle(ga, table, n, f"table{i}")))

    jobs = []
    for inst in instances:
        f = inst.oracle
        seeded = not inst.name.startswith("critical")
        for alpha in (1, 2):
            jobs.append(Job(f"{inst.name}.alpha{alpha}",
                            lambda f=f, a=alpha: ga.audit.check_alpha_augmentable(f, a),
                            _audit_check(inst, Fraction(1), Fraction(alpha), "difference"),
                            seeded))
        jobs.append(Job(f"{inst.name}.gamma-alpha",
                        lambda f=f: ga.audit.check_gamma_alpha_augmentable(
                            f, HALF, 1, scope="strong"),
                        _audit_check(inst, HALF, Fraction(1), "full"), seeded))
        jobs.append(Job(f"{inst.name}.min-alpha",
                        lambda f=f: ga.audit.min_alpha_for(f, 1, scope="strong"),
                        _min_alpha_check(inst), seeded))
    return jobs


def _exhaustive(ga, gamma, alpha, k):
    # The family's reference evaluator, built on first use so that set-up
    # time only counts the oracles the jobs use.
    built = []

    def raw(mask):
        if not built:
            built.append(ga.families.make_critical_function(gamma, alpha, k, method="exhaustive"))
        return built[0].value(mask)

    return raw


def _table_oracle(ga, table, n, name):
    return ga.core.SetFunctionOracle(ga.core.GroundSet(n), table.__getitem__, name=name)


def _top_weights(weights, rank):
    def value(mask):
        chosen = sorted((w for i, w in enumerate(weights) if mask >> i & 1), reverse=True)
        return sum(chosen[:rank], Fraction(0))
    return value


def _audit_check(inst, gamma, alpha, existential):
    def check(report, done):
        problems = verify_witness(report, inst.raw, gamma, alpha, existential)
        if inst.submodular and not report.member:
            problems.append(f"{inst.name} is submodular but the audit rejects it")
        return problems

    return check


def _min_alpha_check(inst):
    def check(value, done):
        problems = []
        if inst.submodular:
            problems += _expect(value, 1, f"min alpha of submodular {inst.name}")
        # For monotone f the two witness conventions agree at gamma = 1, so the
        # alpha audits must accept exactly the alphas at or above this value.
        for alpha in (1, 2):
            report = done.get(f"{inst.name}.alpha{alpha}")
            if report is not None and report.member != (value <= alpha):
                problems.append(f"{inst.name}: min alpha {value} disagrees with the "
                                f"alpha={alpha} verdict {report.member}")
        return problems

    return check


# ---------------------------------------------------------------- lp-flow


def _flow_jobs(ga, inp) -> list:
    flows, core = ga.flows, ga.core
    jobs = []
    for alpha, k in inp["fixed"]["greedy"]:
        f = flows.objective_oracle(flows.make_lower_bound_instance(alpha, k))
        jobs.append(Job(f"greedy-gk({alpha},{k})", lambda f=f: core.greedy_adaptive(f, f.n),
                        _staircase_greedy_check(alpha, k)))
    for alpha, k in inp["fixed"]["ratio"]:
        f = flows.objective_oracle(flows.make_lower_bound_instance(alpha, k))
        closed = (flows.lower_bound_ratio_closed_form(alpha, k), alpha * k)
        jobs.append(Job(f"ratio-gk({alpha},{k})", lambda f=f: core.approximation_ratio(f),
                        lambda r, done, c=closed: _expect(tuple(r), c, "staircase ratio")))
    for alpha, k in inp["fixed"]["optimum"]:
        inst = flows.make_lower_bound_instance(alpha, k)
        f = flows.objective_oracle(inst)
        best = alpha * k * Fraction(k, k - 1) ** (alpha * k)
        jobs.append(Job(f"optimum-gk({alpha},{k})",
                        lambda f=f, inst=inst, ak=alpha * k: core.optimum_value(
                            f, ak, upper_bound=flows.excess_upper_bound(inst)),
                        lambda r, done, b=best: _expect(r, b, "staircase optimum")))
    for i, (num_vertices, arcs, sinks, caps) in enumerate(inp["random"]["flows"]):
        inst = flows.FlowInstance(num_vertices=num_vertices, arcs=tuple(arcs), source=0,
                                  sinks=tuple(sinks), capacities=tuple(map(tuple, caps)),
                                  name=f"random{i}")
        f = flows.objective_oracle(inst)
        jobs.append(Job(f"random{i}-c{len(caps)}", lambda f=f, inst=inst: _greedy_and_flows(
            ga, f, inst), _random_flow_check, seeded=True))
    return jobs


def _greedy_and_flows(ga, f, inst):
    trace = ga.core.greedy_adaptive(f, f.n)
    flow = [[ga.flows.max_flow(inst, c, mask) for c in range(inst.commodities)]
            for mask in trace.chain]
    return trace, flow


def _staircase_greedy_check(alpha, k):
    ak = alpha * k
    x = Fraction(k, k - 1)

    def check(trace, done):
        return (_expect(list(trace.picks[:ak]), list(range(ak)), "staircase pick order")
                + _expect(trace.values[ak], k * (x ** ak - 1), "greedy value at alpha*k")
                + _expect(trace.values[-1], ak * x ** ak, "value of all sinks"))

    return check


def _random_flow_check(result, done) -> list:
    trace, flow = result
    problems = []
    for i, (value, per_commodity) in enumerate(zip(trace.values, flow)):
        if len(per_commodity) == 1:
            problems += _expect(value, per_commodity[0], f"LP vs max-flow at chain step {i}")
        elif value > min(per_commodity):
            problems.append(f"LP value {value} exceeds a commodity's max flow {per_commodity}")
        if i and value < trace.values[i - 1]:
            problems.append(f"greedy values decrease at step {i}")
    return problems


# ---------------------------------------------------------------- paper-cli


PAPER_COMMANDS = (
    ("verify-paper", ["verify-paper"]),
    ("audit-strong-critical", ["audit", "--family", "critical", "--params",
                               '{"gamma": "1", "alpha": "1", "k": 4}', "--scope", "strong"]),
    ("audit-weak-critical", ["audit", "--family", "critical", "--params",
                             '{"gamma": "1/2", "alpha": "1", "k": 6}', "--scope", "weak"]),
    ("audit-weak-rank-separator", ["audit", "--family", "rank_separator", "--params",
                                   '{"q": "1/2", "alpha": "1", "m": 3, "n": 5}',
                                   "--scope", "weak", "--tie", "high"]),
    ("ratio-table-critical", ["ratio-table", "--family", "critical",
                              "--k", "2,3,4,5,6,7", "--max-measure", "14"]),
    ("ratio-table-gk", ["ratio-table", "--family", "gk", "--params", '{"alpha": 1}',
                        "--k", "2,3"]),
)


def _paper_jobs(ga, inp) -> list:
    jobs = [_cli_job(ga, key, argv) for key, argv in inp["fixed"]["commands"]]
    jobs.append(Job("gen-instance-then-trace-gk", lambda: _gen_then_trace(ga),
                    lambda results, done: _cli_check(results[0], done)
                    + _cli_check(results[1], done)))
    return jobs


def _gen_then_trace(ga):
    generated = _run_cli(ga, ["gen-instance", "--family", "gk",
                              "--params", '{"alpha": 1, "k": 3}'])
    path = OUT_DIR / "gk-instance.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(generated["stdout"])
    return [generated, _run_cli(ga, ["trace", "--instance", str(path)])]


def _cli_job(ga, key, argv) -> Job:
    return Job(key, lambda: _run_cli(ga, argv), _cli_check)


def _run_cli(ga, argv) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = ga.cli.main(list(argv))
    return {"rc": code, "stdout": buffer.getvalue()}


def _cli_check(result, done) -> list:
    problems = _expect(result["rc"], 0, "exit code")
    lines = result["stdout"].splitlines()
    if lines and lines[0].startswith("k,measured,closed_form"):
        for line in lines[1:]:  # ratio tables: measured ratio equals the closed form
            k, measured, closed = line.split(",")[:3]
            if measured:
                problems += _expect(measured, closed, f"ratio-table row k={k}")
    problems += [f"verify-paper: {line}" for line in lines if line.startswith("FAIL ")]
    return problems


# ---------------------------------------------------------------- entry


def build(workload: str, ga, inp) -> list:
    """Probe jobs followed by the workload's own jobs, oracles freshly built."""
    own = {"audit-strong": _audit_jobs, "lp-flow": _flow_jobs, "paper-cli": _paper_jobs}
    return probe_jobs(ga) + own[workload](ga, inp)
