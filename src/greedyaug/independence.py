"""Independence systems, weighted rank oracles, and rank-quotient measurement.

An independence system is a subset-closed family over the ground set that
contains the empty set.  Its weighted rank function values a subset X by the
heaviest independent subset of X; with nonnegative weights this collapses to
``w(X)`` whenever X itself is independent, otherwise the best single-element
removal, which is what the memoized evaluator exploits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    GroundSet,
    SetFunctionOracle,
    TiePolicy,
    as_fraction,
    greedy_adaptive,
    indices_of,
    require_budget,
    saturation_point,
)


class MalformedSystem(ValueError):
    """The independence predicate is not subset-closed (or rejects the empty set)."""


class IndependenceSystem:
    """Ground set + independence predicate on bitmasks + nonnegative weights."""

    def __init__(
        self,
        ground: GroundSet,
        predicate: Callable[[int], bool],
        weights: Sequence,
        name: str = "system",
    ):
        if len(weights) != ground.n:
            raise MalformedSystem("weights length must equal ground set size")
        self.ground = ground
        self.name = name
        self.weights = tuple(as_fraction(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise MalformedSystem("weights must be nonnegative")
        self._predicate = predicate
        self._cache: dict[int, bool] = {0: bool(predicate(0))}

    @property
    def n(self) -> int:
        return self.ground.n

    def independent(self, mask: int) -> bool:
        cached = self._cache.get(mask)
        if cached is None:
            cached = bool(self._predicate(mask))
            self._cache[mask] = cached
        return cached

    def weight(self, mask: int) -> Fraction:
        total = Fraction(0)
        for i in indices_of(mask):
            total += self.weights[i]
        return total

    def validate(self) -> None:
        """Check the empty set and subset closure; raise MalformedSystem on failure.

        Exhaustive over all 2**n masks, O(n * 2**n) predicate lookups: no more
        than the rank oracle and ``rank_quotient`` that call it already cost.
        """
        if not self.independent(0):
            raise MalformedSystem(f"{self.name}: empty set must be independent")
        for mask in range(1, 1 << self.n):
            if not self.independent(mask):
                continue
            probe = mask
            while probe:
                low = probe & -probe
                if not self.independent(mask ^ low):
                    raise MalformedSystem(
                        f"{self.name}: {indices_of(mask)} independent but "
                        f"{indices_of(mask ^ low)} is not"
                    )
                probe ^= low

    def bases_of(self, mask: int) -> list[int]:
        """All inclusion-maximal independent subsets of ``mask``."""
        out = []
        sub = mask
        while True:
            if self.independent(sub):
                rest = mask & ~sub
                maximal = True
                while rest:
                    low = rest & -rest
                    if self.independent(sub | low):
                        maximal = False
                        break
                    rest ^= low
                if maximal:
                    out.append(sub)
            if sub == 0:
                return out
            sub = (sub - 1) & mask


def free_system(weights: Sequence, name: str = "free") -> IndependenceSystem:
    """Every subset independent; the rank function is the modular sum."""
    ground = GroundSet(len(weights))
    return IndependenceSystem(ground, lambda mask: True, weights, name=name)


def uniform_matroid(n: int, rank: int, weights: Sequence | None = None) -> IndependenceSystem:
    """Independent iff cardinality <= rank."""
    if weights is None:
        weights = [1] * n
    ground = GroundSet(n)
    return IndependenceSystem(
        ground, lambda mask: mask.bit_count() <= rank, weights, name=f"uniform(n={n},r={rank})"
    )


def downward_closure_system(
    n: int, generators: Sequence[int], weights: Sequence, name: str = "closure"
) -> IndependenceSystem:
    """Independence = containment in one of the generator masks (plus the empty set)."""
    gens = tuple(set(generators) | {0})
    ground = GroundSet(n)

    def independent(mask: int) -> bool:
        return any(mask & ~g == 0 for g in gens)

    return IndependenceSystem(ground, independent, weights, name=name)


def random_downward_closed_system(
    n: int, rng: random.Random, max_generators: int = 4, max_weight: int = 8
) -> IndependenceSystem:
    """Reproducible small test instance: random generators, random rational weights."""
    generators = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, max_generators))]
    weights = [Fraction(rng.randint(0, max_weight), rng.choice([1, 2, 3])) for _ in range(n)]
    return downward_closure_system(n, generators, weights, name=f"random(n={n})")


def weighted_rank_oracle(sys: IndependenceSystem) -> SetFunctionOracle:
    """Oracle for max weight of an independent subset of X (exhaustive, exact)."""
    require_budget(sys.n << sys.n, f"rank oracle over n={sys.n}")  # the cost of validate
    sys.validate()
    memo: dict[int, Fraction] = {0: Fraction(0)}

    def rank(mask: int) -> Fraction:
        known = memo.get(mask)
        if known is not None:
            return known
        if sys.independent(mask):
            value = sys.weight(mask)
        else:
            value = Fraction(0)
            probe = mask
            while probe:
                low = probe & -probe
                sub = rank(mask ^ low)
                if sub > value:
                    value = sub
                probe ^= low
        memo[mask] = value
        return value

    return SetFunctionOracle(sys.ground, rank, name=f"rank[{sys.name}]")


@dataclass(frozen=True)
class RankQuotientResult:
    quotient: Fraction
    witness_set: int
    small_basis: int
    large_basis: int
    checked_sets: int


def rank_quotient(sys: IndependenceSystem) -> RankQuotientResult:
    """Exact min over X of (smallest basis of X) / (largest basis of X), 0/0 := 1."""
    n = sys.n
    require_budget(n * 3**n, f"rank quotient over n={n}")  # the bases of every subset
    sys.validate()
    best = RankQuotientResult(Fraction(1), 0, 0, 0, 0)
    checked = 0
    for mask in range(1 << n):
        checked += 1
        small = large = None
        for basis in sys.bases_of(mask):
            c = basis.bit_count()
            if small is None or c < small[0]:
                small = (c, basis)
            if large is None or c > large[0]:
                large = (c, basis)
        if large[0] == 0:
            continue  # only the empty basis: 0/0 counts as 1
        q = Fraction(small[0], large[0])
        if q < best.quotient:
            best = RankQuotientResult(q, mask, small[1], large[1], 0)
    return RankQuotientResult(best.quotient, best.witness_set, best.small_basis, best.large_basis, checked)


@dataclass(frozen=True)
class ExchangeViolation:
    step: int
    element: int
    extends_independent: bool
    marginal: Fraction
    weight: Fraction


@dataclass(frozen=True)
class ExchangeReport:
    """Per-step equivalence check for weighted rank functions along the greedy chain.

    For every prefix S of the greedy chain up to saturation and every
    positive-weight element x outside S, the three statements
    (S + {x} independent), (marginal gain equals w(x)), (marginal gain > 0)
    must agree.
    """

    ok: bool
    violations: tuple[ExchangeViolation, ...]
    steps_checked: int
    saturation: int
    tie: TiePolicy


def check_exchange_equivalences(sys: IndependenceSystem, tie: TiePolicy = "low") -> ExchangeReport:
    f = weighted_rank_oracle(sys)
    trace = greedy_adaptive(f, f.n, tie)
    sat = saturation_point(trace)
    violations = []
    checked = 0
    for k in range(1, sat + 1):
        prefix = trace.chain[k]
        f_prefix = f.value(prefix)
        for x in range(sys.n):
            if prefix >> x & 1 or sys.weights[x] == 0:
                continue
            checked += 1
            extended = prefix | (1 << x)
            marginal = f.value(extended) - f_prefix
            statements = (
                sys.independent(extended),
                marginal == sys.weights[x],
                marginal > 0,
            )
            if len(set(statements)) != 1:
                violations.append(
                    ExchangeViolation(k, x, statements[0], marginal, sys.weights[x])
                )
    return ExchangeReport(not violations, tuple(violations), checked, sat, tie)
