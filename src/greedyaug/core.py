"""Ground sets, set-function oracles, greedy chains, and exact optima/ratios.

Subsets are plain ints used as bitmasks over element indices 0..n-1: element
``i`` belongs to mask ``X`` iff ``(X >> i) & 1``.  Objective values are
``fractions.Fraction`` throughout, so tie detection, audit verdicts and
measured approximation ratios are exact rather than floating-point guesses.

Greedy tie policies:

* ``"low"``  - among maximum-gain candidates pick the smallest element index,
* ``"high"`` - pick the largest,
* a sequence of element indices - an explicit priority order, earlier wins.

The adaptive greedy solver performs exactly ``k`` picks, even when the best
available gain is zero; the non-adaptive variant stops at the saturation
cardinality, the first chain length at which no remaining element improves
the value.

Every exhaustive sweep passes its step count from n (2**n subsets for the
optima here) to ``require_budget`` before its first oracle evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence, Union

TiePolicy = Union[str, Sequence[int]]

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_STEPS = 1 << 24


class InvalidCardinality(ValueError):
    """Requested cardinality is outside 0..n."""


class GroundSetTooLarge(ValueError):
    """An exhaustive sweep would take more than ``MAX_STEPS`` steps."""


class ParameterError(ValueError):
    """A family or audit parameter violates its precondition."""


def as_fraction(value) -> Fraction:
    """Coerce to Fraction, refusing floats (exactness is load-bearing)."""
    if isinstance(value, float):
        raise TypeError("refusing float->Fraction coercion; pass int/str/Fraction")
    return value if isinstance(value, Fraction) else Fraction(value)


def require_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be a JSON integer, got {value!r} (no int() coercion)")
    return value


def require_budget(steps: int, what: str) -> None:
    """Refuse a sweep of more than ``MAX_STEPS`` steps; ``what`` names it and its n."""
    if steps > MAX_STEPS:
        raise GroundSetTooLarge(f"{what}: {steps} steps exceed the budget of {MAX_STEPS}")


def parse_rational(value, name: str = "value") -> Fraction:
    """A "p/q" string, a JSON integer or a Fraction; bools and floats are refused."""
    if isinstance(value, (str, Fraction)) or isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ParameterError(f'{name} must be a "p/q" string or a JSON integer, got {value!r}')


def format_rational(value) -> str:
    """Render a value exactly: "p/q", "p", or "inf"."""
    if value == math.inf:
        return "inf"
    f = as_fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted element indices of a mask (the JSON form of a subset)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_submasks(mask: int):
    """Yield every submask of ``mask``, including ``mask`` itself and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class GroundSet:
    """A finite universe of selectable elements, identified by 0..n-1."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"ground set needs n >= 1, got {self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ParameterError("labels length must equal n")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i}"

    def full_mask(self) -> int:
        return (1 << self.n) - 1


class SetFunctionOracle:
    """A deterministic nonnegative set function, queried by bitmask.

    Results are memoized, which doubles as the purity contract: two queries
    for the same subset return the identical Fraction.  Monotonicity is
    assumed, not checked: neither this type nor the auditors verify it.
    """

    def __init__(self, ground: GroundSet, fn: Callable[[int], Fraction], name: str = "f"):
        self.ground = ground
        self.name = name
        self._fn = fn
        self._cache: dict[int, Fraction] = {}

    @property
    def n(self) -> int:
        return self.ground.n

    def value(self, mask: int) -> Fraction:
        cached = self._cache.get(mask)
        if cached is None:
            if mask < 0 or mask > self.ground.full_mask():
                raise ValueError(f"mask {mask:#x} outside ground set of {self.n} elements")
            cached = self._fn(mask)
            if not isinstance(cached, Fraction):
                cached = as_fraction(cached)
            if cached < 0:
                raise ValueError(f"{self.name}: negative value {cached} on {indices_of(mask)}")
            self._cache[mask] = cached
        return cached

    __call__ = value

    def __repr__(self):
        return f"SetFunctionOracle({self.name}, n={self.n})"


def tie_preference(tie: TiePolicy, n: int) -> list[int]:
    """Per-element rank under a tie policy; the smallest rank wins."""
    if tie == "low":
        return list(range(n))
    if tie == "high":
        return [n - 1 - i for i in range(n)]
    order = list(tie)
    if sorted(order) != list(range(n)):
        raise ParameterError(f"explicit tie order must be a permutation of 0..{n - 1}")
    rank = [0] * n
    for pos, element in enumerate(order):
        rank[element] = pos
    return rank


@dataclass(frozen=True)
class GreedyTrace:
    """The chain S_0 = {} through S_k with picks, exact gains, and tie records.

    ``values[i]`` is the objective at ``chain[i]``; telescoping holds by
    construction: values[i] = values[0] + sum(gains[:i]).
    """

    chain: tuple[int, ...]
    picks: tuple[int, ...]
    gains: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    tie_log: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.picks)

    def prefix(self, steps: int) -> "GreedyTrace":
        if steps > len(self.picks):
            raise InvalidCardinality(f"trace has only {len(self.picks)} steps")
        return GreedyTrace(
            self.chain[: steps + 1],
            self.picks[:steps],
            self.gains[:steps],
            self.values[: steps + 1],
            self.tie_log[:steps],
        )

    def rows(self, ground: GroundSet | None = None) -> list[tuple[str, str, str, str, str]]:
        """CSV-ready rows: (step, pick, gain, value, tie_count)."""
        out = []
        for i, pick in enumerate(self.picks):
            label = ground.label(pick) if ground else str(pick)
            out.append(
                (
                    str(i + 1),
                    label,
                    format_rational(self.gains[i]),
                    format_rational(self.values[i + 1]),
                    str(len(self.tie_log[i])),
                )
            )
        return out


def greedy_adaptive(f: SetFunctionOracle, k: int, tie: TiePolicy = "low") -> GreedyTrace:
    """Run the adaptive greedy algorithm for exactly ``k`` picks.

    At every step the pick maximizes f(S + {x}) over x not in S; ties are
    resolved by the policy and all tied candidates are logged.
    """
    n = f.n
    if not 0 <= k <= n:
        raise InvalidCardinality(f"k={k} outside 0..{n}")
    pref = tie_preference(tie, n)
    current = 0
    chain = [0]
    picks: list[int] = []
    gains: list[Fraction] = []
    values = [f.value(0)]
    tie_log: list[tuple[int, ...]] = []
    for _ in range(k):
        best_val = None
        tied: list[int] = []
        for x in range(n):
            if current >> x & 1:
                continue
            v = f.value(current | (1 << x))
            if best_val is None or v > best_val:
                best_val = v
                tied = [x]
            elif v == best_val:
                tied.append(x)
        pick = min(tied, key=lambda x: pref[x])
        gains.append(best_val - values[-1])
        current |= 1 << pick
        chain.append(current)
        picks.append(pick)
        values.append(best_val)
        tie_log.append(tuple(tied))
    return GreedyTrace(tuple(chain), tuple(picks), tuple(gains), tuple(values), tuple(tie_log))


def saturation_point(trace: GreedyTrace) -> int:
    """First chain length in a full trace after which no pick improves."""
    for i, gain in enumerate(trace.gains):
        if gain <= 0:
            return i
    return len(trace.picks)


def saturation_cardinality(f: SetFunctionOracle, tie: TiePolicy = "low") -> int:
    """Least chain length at which every remaining element has zero gain."""
    return saturation_point(greedy_adaptive(f, f.n, tie))


def greedy_nonadaptive(f: SetFunctionOracle, k: int, tie: TiePolicy = "low") -> GreedyTrace:
    """Adaptive greedy truncated at the saturation cardinality."""
    trace = greedy_adaptive(f, k, tie)
    return trace.prefix(min(k, saturation_point(trace)))


@dataclass(frozen=True)
class OptimumRecord:
    """Exact maximizer over subsets of cardinality <= k."""

    k: int
    best_set: int
    best_value: Fraction


def _better(value, mask, best_value, best_mask):
    # Larger value wins; ties go to the lexicographically smallest index tuple.
    if best_value is None or value > best_value:
        return True
    return value == best_value and indices_of(mask) < indices_of(best_mask)


def optimum_profile(f: SetFunctionOracle) -> list[OptimumRecord]:
    """Exact optima for every cardinality bound 0..n in one sweep of 2**n subsets."""
    n = f.n
    require_budget(1 << n, f"optimum sweep over n={n}")
    by_size: list[tuple[Fraction, int] | None] = [None] * (n + 1)
    for mask in range(1 << n):
        c = mask.bit_count()
        entry = by_size[c]
        if entry is None or _better(f.value(mask), mask, entry[0], entry[1]):
            by_size[c] = (f.value(mask), mask)
    profile = [OptimumRecord(0, 0, by_size[0][0])]
    best_value, best_mask = by_size[0]
    for k in range(1, n + 1):
        v, m = by_size[k]
        if _better(v, m, best_value, best_mask):
            best_value, best_mask = v, m
        profile.append(OptimumRecord(k, best_mask, best_value))
    return profile


def brute_force_optimum(f: SetFunctionOracle, k: int) -> OptimumRecord:
    """Exact best subset of cardinality <= k, read off ``optimum_profile``.

    The sweep evaluates all 2**n subsets whatever k is.
    """
    if not 0 <= k <= f.n:
        raise InvalidCardinality(f"k={k} outside 0..{f.n}")
    return optimum_profile(f)[k]


def optimum_value(
    f: SetFunctionOracle,
    k: int,
    upper_bound: Callable[[int], Fraction] | None = None,
) -> Fraction:
    """Exact optimum value at cardinality <= k, optionally bound-pruned.

    ``upper_bound(mask)`` must be a provable upper bound on f(mask); subsets
    whose bound cannot beat the incumbent are skipped without evaluation.
    Use when single evaluations are expensive (e.g. LP-backed objectives).
    Without a bound this is ``brute_force_optimum(f, k).best_value``.
    """
    if upper_bound is None:
        return brute_force_optimum(f, k).best_value
    n = f.n
    if not 0 <= k <= n:
        raise InvalidCardinality(f"k={k} outside 0..{n}")
    require_budget(1 << n, f"optimum sweep over n={n}")
    candidates = [mask_of(c) for size in range(k + 1) for c in combinations(range(n), size)]
    bounds = {mask: upper_bound(mask) for mask in candidates}
    candidates.sort(key=lambda m: (bounds[m], m), reverse=True)
    best = None
    for mask in candidates:
        if best is not None and bounds[mask] <= best:
            continue
        v = f.value(mask)
        if best is None or v > best:
            best = v
    return best


def approximation_ratio(
    f: SetFunctionOracle,
    tie: TiePolicy = "low",
    variant: str = "adaptive",
) -> tuple[Fraction | float, int]:
    """Worst ratio optimum/greedy over all cardinalities 1..n.

    Returns ``(ratio, witness_k)`` with the smallest maximizing k.  Uses the
    0/0 := 1 convention; a zero greedy value against a positive optimum is
    reported as ``math.inf``.  The non-adaptive variant freezes the greedy
    value at the saturation cardinality.
    """
    if variant not in ("adaptive", "nonadaptive"):
        raise ParameterError(f"unknown greedy variant {variant!r}")
    n = f.n
    profile = optimum_profile(f)  # first, so an oversize f is refused before any evaluation
    trace = greedy_adaptive(f, n, tie)
    sat = saturation_point(trace)
    best_ratio: Fraction | float | None = None
    witness = 1
    for k in range(1, n + 1):
        opt = profile[k].best_value
        greedy_value = trace.values[k if variant == "adaptive" else min(k, sat)]
        if greedy_value == 0:
            ratio: Fraction | float = ONE if opt == 0 else math.inf
        else:
            ratio = opt / greedy_value
        if best_ratio is None or ratio > best_ratio:
            best_ratio = ratio
            witness = k
    return best_ratio, witness
