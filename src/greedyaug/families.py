"""Constructors for objective families with known exact greedy behavior.

The centerpiece is the ratio-critical objective over two blocks of k elements
each.  Block A carries geometrically shrinking standalone gains

    step_gain(i) = (1/k) * ((k - alpha)/k)**(i-1),        i = 1..k,

whose prefix sums collapse to (1 - ((k-alpha)/k)**m) / alpha.  Block B is
valued through a convex quadratic ``curve`` interpolating curve(0)=0,
curve(1)=1, curve(k)=k/gamma; the block only counts when its first element is
present, and it is scaled by the A-capacity left unused.  Greedy with
lowest-index ties walks a_1..a_k then b_1..b_k, so its value at cardinality k
misses the best k-set (all of B) by exactly

    (alpha/gamma) / (1 - (1 - alpha/k)**k),

which is what makes the family the extremal instance for the audited classes.

The closed evaluator reads a mask through its A-part and, when b_1 is in it,
the size of its B-block, so b_2..b_k are interchangeable: its oracle declares
them one block (``core.Blocks``) and evaluates one least mask per orbit.  It
compares its three candidate values in ints over one unit and builds one
``Fraction`` per distinct (A-part, block size) key.  The exhaustive
evaluator declares nothing and stays the unreduced reference.

The remaining constructors are small single-purpose separators: a two-element
plateau objective whose weak submodularity ratio is a chosen gamma while no
augmentability parameter fits it; a weighted rank system whose rank quotient
is m/n while its weak ratio collapses to zero; and the square-of-cardinality
objective, which greedy maximizes exactly yet which escapes every audited
class.  The square objective declares its whole ground set one block, and
the rank separator declares A and B, which its independence system certifies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .core import (
    GroundSet,
    ParameterError,
    Record,
    SetFunctionOracle,
    as_fraction,
    iter_submasks,
    parse_rational,
    require_int,
)
from .independence import IndependenceSystem, uniform_matroid, weighted_rank_oracle
from . import flows


class CriticalParams(Record):
    """Validated parameters of the ratio-critical objective."""

    gamma: Fraction
    alpha: Fraction
    k: int

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ParameterError(f"gamma must lie in (0,1], got {self.gamma}")
        if self.alpha < self.gamma:
            raise ParameterError(f"alpha must be >= gamma, got {self.alpha}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ParameterError(f"k must be an integer >= 2, got {self.k}")
        if self.k <= self.alpha:
            raise ParameterError(f"k must exceed alpha, got k={self.k}, alpha={self.alpha}")

    def step_gains(self) -> list[Fraction]:
        shrink = (self.k - self.alpha) / Fraction(self.k)
        return [shrink ** i / self.k for i in range(self.k)]

    def gain_prefix_sum(self, m: int) -> Fraction:
        """Closed form for the sum of the first m step gains."""
        shrink = (self.k - self.alpha) / Fraction(self.k)
        return (1 - shrink ** m) / self.alpha

    def curve_coefficients(self) -> tuple[Fraction, Fraction]:
        """(quadratic, linear) coefficients of the B-block value curve."""
        inv_gamma = 1 / self.gamma
        quad = (inv_gamma - 1) / (self.k - 1)
        lin = (self.k - inv_gamma) / (self.k - 1)
        return quad, lin

    def curve(self, x) -> Fraction:
        quad, lin = self.curve_coefficients()
        x = as_fraction(x)
        return quad * x * x + lin * x


def _critical_ground(k: int) -> GroundSet:
    labels = tuple(f"a{i}" for i in range(1, k + 1)) + tuple(f"b{i}" for i in range(1, k + 1))
    return GroundSet(2 * k, labels)


def _closed_eval(params: CriticalParams, gains: list[Fraction]):
    # Inner maximization over X' <= X reduced to three candidates: all of the
    # A-part alone, the B-block alone, or both together.  For a fixed B-block
    # the value is linear in the A-sum (its slope has a fixed sign), and for a
    # fixed A-sum it increases with the block size, so nothing else can win.
    # The B-block contributes only when b_1 is included.
    #
    # So the value reads two things from a mask: its A-part, and the B-block
    # size when b_1 is present (0 otherwise; with b_1 it is at least 1).  Each
    # (A-part, size) key is evaluated once into a dict filled lazily: a full
    # table costs at most 2**k * (k+1) evaluations for its 4**k masks, and a
    # greedy trace at large k builds nothing of size 2**k.
    #
    # The three candidates are compared in ints over one unit, 1/(d*q*s) with
    # s the lcm of the gain denominators, alpha = p/q, gamma = u/v and
    # d = u*k*(k-1).  A block of c elements is worth curve(c)/k, which is
    #
    #     ((v - u)*c**2 + (k*u - v)*c) / (u*k*(k-1)),
    #
    # so its value in units of 1/d is the int c*((v - u)*c + k*u - v); at
    # c >= 1 that is at least u*(k-1) > 0.  An A-sum A/s is A*d*q units, a
    # block value B/d is B*q*s units, and the pair B/d * (1 - alpha*A/s) + A/s
    # is B*q*s - B*p*A + A*d*q units.  Each A-part's sum is computed once, and
    # each key builds one Fraction.
    k, p, q = params.k, params.alpha.numerator, params.alpha.denominator
    u, v = params.gamma.numerator, params.gamma.denominator
    a_mask = (1 << k) - 1
    s = math.lcm(*(g.denominator for g in gains))
    dq = u * k * (k - 1) * q
    gain_units = [g.numerator * (s // g.denominator) for g in gains]
    blocks = [c * ((v - u) * c + k * u - v) for c in range(k + 1)]
    a_sums: dict[int, int] = {}
    memo: dict[int, Fraction] = {}

    def reduced(a_bits: int, size: int) -> Fraction:
        a_sum = a_sums.get(a_bits)
        if a_sum is None:
            a_sum, bits = 0, a_bits
            while bits:
                low = bits & -bits
                a_sum += gain_units[low.bit_length() - 1]
                bits ^= low
            a_sums[a_bits] = a_sum
        best = a_alone = a_sum * dq
        if size:
            block = blocks[size]
            alone = block * q * s
            if alone > best:
                best = alone
            combined = alone - block * p * a_sum + a_alone
            if combined > best:
                best = combined
        return Fraction(best, dq * s)

    def evaluate(mask: int) -> Fraction:
        b_part = mask >> k
        size = b_part.bit_count() if b_part & 1 else 0
        key = (mask & a_mask) | size << k
        value = memo.get(key)
        if value is None:
            value = memo[key] = reduced(mask & a_mask, size)
        return value

    return evaluate


def _exhaustive_eval(params: CriticalParams, gains: list[Fraction]):
    # Reference evaluator: maximize the defining expression over every subset.
    k, alpha = params.k, params.alpha
    a_mask = (1 << k) - 1

    def evaluate(mask: int) -> Fraction:
        best = Fraction(0)
        for sub in iter_submasks(mask):
            a_sum = Fraction(0)
            bits = sub & a_mask
            while bits:
                low = bits & -bits
                a_sum += gains[low.bit_length() - 1]
                bits ^= low
            b_part = sub >> k
            block_size = b_part.bit_count() if b_part & 1 else 0
            value = params.curve(block_size) / k * (1 - alpha * a_sum) + a_sum
            if value > best:
                best = value
        return best

    return evaluate


def make_critical_function(gamma, alpha, k: int, method: str = "closed") -> SetFunctionOracle:
    """Ratio-critical objective on 2k elements (a_1..a_k then b_1..b_k).

    ``method`` selects the reduced evaluator ("closed") or the exhaustive
    inner maximization ("exhaustive"); both must agree, and the test suite
    cross-checks them on full subset lattices.  The closed evaluator reads
    b_2..b_k only through how many of them a mask holds, so its oracle
    declares them one block (k >= 3); the exhaustive one declares none and
    stays the unreduced reference.
    """
    params = CriticalParams(as_fraction(gamma), as_fraction(alpha), k)
    return _oracle_from_parts(params, params.step_gains(), method)


def _oracle_from_parts(
    params: CriticalParams, gains: list[Fraction], method: str = "closed"
) -> SetFunctionOracle:
    # Split out so tests can inject corrupted gain tables (fault injection).
    k = params.k
    blocks = ()
    if method == "closed":
        evaluate = _closed_eval(params, gains)
        blocks = (tuple(range(k + 1, 2 * k)),) if k >= 3 else ()  # b_2..b_k
    elif method == "exhaustive":
        evaluate = _exhaustive_eval(params, gains)
    else:
        raise ParameterError(f"unknown evaluation method {method!r}")
    name = f"critical(gamma={params.gamma},alpha={params.alpha},k={k},{method})"
    return SetFunctionOracle(_critical_ground(k), evaluate, name=name, blocks=blocks)


def critical_ratio_closed_form(gamma, alpha, k: int) -> Fraction:
    """Exact greedy ratio of the critical objective: (a/g)/(1-(1-a/k)**k)."""
    params = CriticalParams(as_fraction(gamma), as_fraction(alpha), k)
    shrink = (params.k - params.alpha) / Fraction(params.k)
    return params.alpha / params.gamma / (1 - shrink ** params.k)


def limit_ratio(gamma, alpha) -> float:
    """Large-k limit of the ratio: (alpha/gamma) * e**alpha / (e**alpha - 1).

    Needs gamma > 0 and alpha > 0, and a limit that floats can compute: a tiny
    alpha makes e**alpha - 1 vanish, and a huge alpha/gamma overflows.
    """
    gamma = as_fraction(gamma)
    alpha = as_fraction(alpha)
    for name, value in (("gamma", gamma), ("alpha", alpha)):
        if value <= 0:
            raise ParameterError(f"{name} must be > 0, got {value}")
    try:
        ea = math.exp(min(float(alpha), 709))  # e**709 is about the largest float power
        limit = float(alpha / gamma) * ea / (ea - 1)
        if math.isinf(limit):  # only alpha/gamma * e**alpha overflowed: divide first
            limit = float(alpha / gamma) * (ea / (ea - 1))
    except (OverflowError, ZeroDivisionError):
        limit = math.nan
    if not math.isfinite(limit):
        raise ParameterError("gamma and alpha put the large-k limit outside the float range")
    return limit


def make_ratio_separator(gamma) -> SetFunctionOracle:
    """Two-element objective: value |X| for |X| <= 1, then a plateau at 2/gamma.

    Its weak submodularity ratio is exactly gamma, yet no augmentability
    parameter covers it (the pair jump is too large for any alpha).
    """
    gamma = as_fraction(gamma)
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must lie in the open interval (0,1), got {gamma}")
    plateau = 2 / gamma

    def evaluate(mask: int) -> Fraction:
        count = mask.bit_count()
        return Fraction(count) if count <= 1 else plateau

    return SetFunctionOracle(GroundSet(2, ("a", "b")), evaluate, name=f"ratio_separator({gamma})")


def make_rank_separator(q, alpha, m: int, n: int) -> tuple[IndependenceSystem, SetFunctionOracle]:
    """Weighted rank system with rank quotient m/n and weak ratio zero.

    Two blocks of ceil(alpha)*n elements each (unit weights on A, heavy
    weights on B) plus one heavy extra element c, independent families being
    the subsets of A, the subsets of B, and everything of size at most
    ceil(alpha)*m.  The extra element is indexed last; a tie policy that
    prefers it (e.g. "high") drives the greedy chain into the saturated set
    whose joint gains expose the zero ratio.  A and B are declared blocks,
    which ``IndependenceSystem.validate`` certifies.
    """
    q = as_fraction(q)
    alpha = as_fraction(alpha)
    if not 0 < q < 1:
        raise ParameterError(f"q must lie in (0,1), got {q}")
    if alpha < 1:
        raise ParameterError(f"alpha must be >= 1, got {alpha}")
    if not (isinstance(m, int) and isinstance(n, int) and 0 < m and 0 < n):
        raise ParameterError("m and n must be positive integers")
    if not q <= Fraction(m, n) < 1:
        raise ParameterError(f"need q <= m/n < 1, got q={q}, m/n={Fraction(m, n)}")
    ca = math.ceil(alpha)
    block = ca * n
    size_cap = ca * m
    heavy = Fraction(ca * (n - m) + 1)
    total = 2 * block + 1
    a_mask = (1 << block) - 1
    b_mask = a_mask << block
    labels = (
        tuple(f"a{i}" for i in range(1, block + 1))
        + tuple(f"b{i}" for i in range(1, block + 1))
        + ("c",)
    )
    weights = [Fraction(1)] * block + [heavy] * block + [heavy]

    def independent(mask: int) -> bool:
        return mask & ~a_mask == 0 or mask & ~b_mask == 0 or mask.bit_count() <= size_cap

    system = IndependenceSystem(
        GroundSet(total, labels), independent, weights,
        name=f"rank_separator(m={m},n={n},a={alpha})",
        blocks=(tuple(range(block)), tuple(range(block, 2 * block))),  # A and B
    )
    return system, weighted_rank_oracle(system)


def make_square_cardinality(n: int) -> SetFunctionOracle:
    """Objective |X|**2: greedy-optimal, yet outside every audited class.

    It reads a mask only through its size, so every element is in one block.
    """
    return SetFunctionOracle(
        GroundSet(n), lambda mask: Fraction(mask.bit_count()) ** 2, name=f"square(n={n})",
        blocks=(tuple(range(n)),) if n >= 2 else (),
    )


def make_modular(weights) -> SetFunctionOracle:
    """Plain weighted sum (the rank function of the free system)."""
    ws = [as_fraction(w) for w in weights]

    def evaluate(mask: int) -> Fraction:
        total = Fraction(0)
        i = 0
        while mask:
            if mask & 1:
                total += ws[i]
            mask >>= 1
            i += 1
        return total

    return SetFunctionOracle(GroundSet(len(ws)), evaluate, name="modular")


class DescribedInstance(Record):
    """An oracle built from a JSON descriptor, and its independence system if it has one."""

    oracle: SetFunctionOracle
    system: IndependenceSystem | None = None


def describe_flow(inst: flows.FlowInstance) -> DescribedInstance:
    """The sink-selection objective of a flow instance."""
    return DescribedInstance(flows.objective_oracle(inst))


class Family(Record):
    """What a family tag means: a descriptor builder and, for flow families,
    the FlowInstance builder.  Tabulable families add their ratio table:
    (gamma, alpha) read from parameters, the closed-form ratio and ground-set
    size at k, and the largest size measured exactly by default.
    """

    build: Callable[[dict], DescribedInstance]
    flow: Callable[[dict], flows.FlowInstance] | None = None
    shape: Callable[[dict], tuple] | None = None
    ratio: Callable[..., Fraction] | None = None
    size: Callable[..., int] | None = None
    measure_limit: int | None = None


def _flow_family(flow, **table) -> Family:
    return Family(lambda d: describe_flow(flow(d)), flow=flow, **table)


def _system_described(system: IndependenceSystem, oracle=None) -> DescribedInstance:
    oracle = weighted_rank_oracle(system) if oracle is None else oracle
    return DescribedInstance(oracle, system=system)


def _int(d: dict, key: str, default=None) -> int:
    """A parameter that must be a JSON integer: no int() of floats, bools or strings."""
    return require_int(d[key] if default is None else d.get(key, default), key)


def _rationals(d: dict, key: str) -> list[Fraction]:
    """A parameter that must be a JSON list of rationals."""
    if not isinstance(d[key], list):
        raise ParameterError(f"{key} must be a JSON list, got {d[key]!r}")
    return [parse_rational(v, f"{key} entry") for v in d[key]]


# Builders call constructors by module-global name at call time, so a
# constructor replaced on its module (e.g. by a tracing wrapper) is the one run.
FAMILIES: dict[str, Family] = {
    "critical": Family(
        lambda d: DescribedInstance(make_critical_function(
            parse_rational(d["gamma"], "gamma"), parse_rational(d["alpha"], "alpha"), _int(d, "k"),
            method=d.get("method", "closed"),
        )),
        shape=lambda p: (
            parse_rational(p.get("gamma", 1), "gamma"), parse_rational(p.get("alpha", 1), "alpha")
        ),
        ratio=critical_ratio_closed_form,
        size=lambda alpha, k: 2 * k,
        measure_limit=12,
    ),
    "ratio_separator": Family(
        lambda d: DescribedInstance(make_ratio_separator(parse_rational(d["gamma"], "gamma")))
    ),
    "rank_separator": Family(lambda d: _system_described(*make_rank_separator(
        parse_rational(d["q"], "q"), parse_rational(d["alpha"], "alpha"), _int(d, "m"), _int(d, "n")
    ))),
    "square": Family(lambda d: DescribedInstance(make_square_cardinality(_int(d, "n")))),
    "modular": Family(lambda d: DescribedInstance(make_modular(_rationals(d, "weights")))),
    "uniform_matroid": Family(lambda d: _system_described(uniform_matroid(
        _int(d, "n"), _int(d, "rank"), _rationals(d, "weights") if "weights" in d else None,
    ))),
    "gk": _flow_family(
        lambda d: flows.make_lower_bound_instance(
            _int(d, "alpha"), _int(d, "k"),
            parse_rational(d["epsilon"], "epsilon") if "epsilon" in d else None,
        ),
        shape=lambda p: (1, _int(p, "alpha", 1)),
        ratio=lambda gamma, alpha, k: flows.lower_bound_ratio_closed_form(alpha, k),
        size=lambda alpha, k: 2 * alpha * k,
        measure_limit=6,
    ),
    "two_sink": _flow_family(lambda d: flows.make_two_sink_instance(_int(d, "alpha", 2))),
    "zero_ratio": _flow_family(lambda d: flows.make_zero_ratio_instance(_int(d, "alpha", 2))),
    "flow": _flow_family(lambda d: flows.FlowInstance.from_json_dict(d["instance"])),
}
FAMILIES["staircase"] = FAMILIES["gk"]


def family_entry(tag) -> Family:
    """The registry entry of a family tag."""
    entry = FAMILIES.get(tag)
    if entry is None:
        raise ParameterError(f"unknown family tag {tag!r}")
    return entry


def oracle_from_descriptor(descriptor: dict) -> DescribedInstance:
    """Build an oracle from a family descriptor (the CLI's instance format).

    ``descriptor["family"]`` is a tag of ``FAMILIES``; the other keys are the
    family's parameters.
    """
    return family_entry(descriptor.get("family")).build(descriptor)
