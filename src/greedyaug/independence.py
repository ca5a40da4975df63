"""Independence systems, weighted rank oracles, and rank-quotient measurement.

An independence system is a subset-closed family over the ground set that
contains the empty set.  Its weighted rank function values a subset X by the
heaviest independent subset of X; with nonnegative weights this collapses to
``w(X)`` whenever X itself is independent, otherwise the best single-element
removal, which is what the memoized evaluator exploits.

A system may declare ``blocks`` of interchangeable elements (``core.Blocks``):
equal weights inside each block, and an independence predicate that a
permutation inside a block cannot change.  ``validate`` certifies both
against the data: equal weights, and independent(X) == independent(least(X))
on every mask, read from the predicate values its closure check has cached.
A false declaration is a ``MalformedSystem``, never a silent fallback.  The
weighted rank function of a certified system is then unchanged by those
permutations too, so its oracle carries the same blocks and evaluates least
masks only.

The weights are read once, when the system is built, as ints over one scale
(the lcm of their denominators), so ``weight`` sums ints and builds one
``Fraction``.  A system keeps one rank oracle, built by the first call of
``weighted_rank_oracle``: every later call returns that same object, so the
callers that evaluate one system share its memo and its greedy chains.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .core import (
    Blocks,
    GroundSet,
    ParameterError,
    Record,
    SetFunctionOracle,
    TiePolicy,
    _scaled_ints,
    _tie_key,
    as_fraction,
    greedy_adaptive,
    indices_of,
    iter_submasks,
    mask_of,
    require_budget,
    saturation_point,
)


class MalformedSystem(ValueError):
    """The independence predicate is not subset-closed (or rejects the empty
    set), or a declared block is not interchangeable."""


class IndependenceSystem:
    """Ground set + independence predicate on bitmasks + nonnegative weights,
    and optionally ``blocks`` of interchangeable elements that ``validate``
    certifies."""

    def __init__(
        self,
        ground: GroundSet,
        predicate: Callable[[int], bool],
        weights: Sequence,
        name: str = "system",
        *,
        blocks=(),
    ):
        if len(weights) != ground.n:
            raise MalformedSystem("weights length must equal ground set size")
        self.ground = ground
        self.name = name
        self.blocks = Blocks(blocks, ground.n)
        self.weights = tuple(as_fraction(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise MalformedSystem("weights must be nonnegative")
        self._units, self._scale = _scaled_ints(self.weights)
        self._predicate = predicate
        self._cache: dict[int, bool] = {0: bool(predicate(0))}
        self._verdict: str | None = None  # validate's finding: "" if well formed

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
        if not 0 <= mask < 1 << self.n:
            raise ParameterError(f"mask {mask:#x} outside ground set of {self.n} elements")
        units = self._units
        total = 0
        while mask:
            low = mask & -mask
            total += units[low.bit_length() - 1]
            mask ^= low
        return Fraction(total, self._scale)

    def validate(self) -> None:
        """Check the empty set, subset closure and the declared blocks; raise
        MalformedSystem on failure.

        Exhaustive over all 2**n masks, O(n * 2**n) predicate lookups: no more
        than the rank oracle and ``rank_quotient`` that call it already cost.
        The blocks are then checked on the cached predicate values.  The
        verdict is kept, so a repeat call makes no lookup, and a malformed
        system is refused with the same message on every call.
        """
        if self._verdict is None:
            self._verdict = self._closure_violation() or self._block_violation()
        if self._verdict:
            raise MalformedSystem(self._verdict)

    def _block_violation(self) -> str:
        for block in self.blocks:
            if len({self.weights[i] for i in block}) > 1:
                return f"{self.name}: block {block} has unequal weights"
        for mask in range(1 << self.n):
            least = self.blocks.least(mask)
            if self._cache[mask] != self._cache[least]:
                block = next(b for b in self.blocks if mask_of(b) & (mask ^ least))
                return (f"{self.name}: block {block} is not interchangeable: "
                        f"{indices_of(mask)} and {indices_of(least)} differ in independence")
        return ""

    def _closure_violation(self) -> str:
        if not self.independent(0):
            return f"{self.name}: empty set must be independent"
        for mask in range(1, 1 << self.n):
            if not self.independent(mask):
                continue
            probe = mask
            while probe:
                low = probe & -probe
                if not self.independent(mask ^ low):
                    return (f"{self.name}: {indices_of(mask)} independent but "
                            f"{indices_of(mask ^ low)} is not")
                probe ^= low
        return ""

    @cached_property
    def _rank_oracle(self) -> SetFunctionOracle:
        """The one rank oracle of this system; ``weighted_rank_oracle`` checks
        the budget and the system before it hands it out."""

        def rank(mask: int) -> Fraction:
            if self.independent(mask):
                return self.weight(mask)
            value = Fraction(0)
            probe = mask
            while probe:
                low = probe & -probe
                sub = oracle.value(mask ^ low)
                if sub > value:
                    value = sub
                probe ^= low
            return value

        oracle = SetFunctionOracle(self.ground, rank, name=f"rank[{self.name}]", blocks=self.blocks)
        return oracle


def free_system(weights: Sequence, name: str = "free") -> IndependenceSystem:
    """Every subset independent; the rank function is the modular sum."""
    ground = GroundSet(len(weights))
    return IndependenceSystem(ground, lambda mask: True, weights, name=name)


def uniform_matroid(n: int, rank: int, weights: Sequence | None = None) -> IndependenceSystem:
    """Independent iff cardinality <= rank.

    The predicate reads only the size, so each class of two or more elements
    of equal weight is declared a block.
    """
    if weights is None:
        weights = [1] * n
    ground = GroundSet(n)
    classes: dict[Fraction, list[int]] = {}
    for i, w in enumerate(weights):
        classes.setdefault(as_fraction(w), []).append(i)
    return IndependenceSystem(
        ground, lambda mask: mask.bit_count() <= rank, weights, name=f"uniform(n={n},r={rank})",
        blocks=[c for c in classes.values() if len(c) > 1],
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


def random_downward_closed_system(n: int, rng: random.Random) -> IndependenceSystem:
    """Reproducible small test instance: 1-4 random generators, weights p/q, p <= 8, q <= 3."""
    generators = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
    weights = [Fraction(rng.randint(0, 8), rng.choice([1, 2, 3])) for _ in range(n)]
    return downward_closure_system(n, generators, weights, name=f"random(n={n})")


def weighted_rank_oracle(sys: IndependenceSystem) -> SetFunctionOracle:
    """Oracle for max weight of an independent subset of X (exhaustive, exact).

    It carries the system's certified blocks, and the rank recursion reads
    each single-element removal through the oracle, so every mask it needs
    is evaluated once, as its least mask.  An independent X is valued by
    ``sys.weight``, a sum of the int weights.

    The system keeps one oracle: every call checks the budget and validates
    the system, then returns the same object, built on the first call, with
    its memo and greedy chains.
    """
    require_budget(sys.n << sys.n, f"rank oracle over n={sys.n}")  # the cost of validate
    sys.validate()
    return sys._rank_oracle


class RankQuotientResult(Record):
    quotient: Fraction
    witness_set: int
    small_basis: int
    large_basis: int
    checked_sets: int


def rank_quotient(sys: IndependenceSystem) -> RankQuotientResult:
    """Exact min over X of (smallest basis of X) / (largest basis of X), 0/0 := 1.

    The sweep enumerates bases, not the submasks of every X.  Let ext(I) be
    the set of e outside I with I + e independent.  An independent I is a
    basis of X exactly when I <= X <= I | D(I), where D(I) is the complement
    of I | ext(I):

    * if I is a basis of X, then I <= X, and every e in X \\ I has I + e
      dependent (I is maximal in X), so X \\ I avoids ext(I);
    * conversely, if I <= X and X \\ I avoids ext(I), then I is an
      independent subset of X that no element of X extends: a basis of X.

    So each independent I takes its probes for ext(I), then one step for
    each of the sets X it is a basis of.  I and D(I) are disjoint, so there
    are at most 3**n (basis, X) pairs in all.

    One pair per orbit of the certified blocks: the quotient of X is its
    orbit's, and every basis of a least mask X is moved, by a permutation
    that fixes X, onto a least mask that is a basis of X of the same size.
    So both sizes of each least X are read from the least bases I, and only
    least X = I + extra are visited.  The members of a block outside a least
    I all extend it or none does, so one probe decides each block, and the
    extras are the representative subsets of D(I) (``Blocks.choices``).
    The sizes are kept in two tables keyed by the least masks
    (``Blocks.table``), one entry per orbit.  Without blocks every mask is
    least, every subset of D(I) an extra, and each table a list of 2**n.

    The witness is the first X in mask order with the least quotient, the
    least mask of its orbit.  Ties: among its smallest (and among its
    largest) bases of equal size, the larger mask is reported, read from the
    submasks of that one X.  ``checked_sets`` is 2**n.

    The budget counts 3**n pairs, n*2**n probes and the n*2**n lookups of
    ``validate``, before the first predicate call.
    """
    n = sys.n
    require_budget(3**n + (n << n + 1), f"rank quotient over n={n}")
    sys.validate()
    blocks = sys.blocks
    full = (1 << n) - 1
    reps = blocks.representatives()
    small = blocks.table([n + 1] * len(reps))  # size of the smallest basis of X found so far
    large = blocks.table([-1] * len(reps))  # every X has a basis: the empty set is independent
    for basis in reps:
        if not sys.independent(basis):
            continue
        c = basis.bit_count()
        blocked = 0  # D(I): the elements outside I that I + e rejects
        for choice in blocks.choices(full ^ basis):
            if not sys.independent(basis | choice[0]):
                blocked |= choice[-1]
        x_sets = [basis]
        for choice in blocks.choices(blocked):
            x_sets += [x_set | extra for extra in choice for x_set in x_sets]
        for x_set in x_sets:
            if c < small[x_set]:
                small[x_set] = c
            if c > large[x_set]:
                large[x_set] = c
    num, den, witness = 1, 1, 0
    for x_set in reps:  # an X with only the empty basis reads 0 < 0: 0/0 is 1
        if small[x_set] * den < num * large[x_set]:
            num, den, witness = small[x_set], large[x_set], x_set
    return RankQuotientResult(
        Fraction(num, den), witness, _largest_basis(sys, witness, small[witness]),
        _largest_basis(sys, witness, large[witness]), 1 << n,
    )


def _largest_basis(sys: IndependenceSystem, x_set: int, size: int) -> int:
    """The largest mask among the bases of X with ``size`` elements, which
    the sweep has found."""
    return next(
        basis for basis in iter_submasks(x_set)  # in decreasing order
        if basis.bit_count() == size and sys.independent(basis)
        and not any(sys.independent(basis | 1 << e) for e in indices_of(x_set ^ basis))
    )


class ExchangeViolation(Record):
    step: int
    element: int
    extends_independent: bool
    marginal: Fraction
    weight: Fraction


class ExchangeReport(Record):
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
    """The ``ExchangeReport`` of the system's greedy chain under ``tie``.

    It reads the system's one rank oracle, so the chain and the values that
    an earlier caller evaluated on that oracle are not computed again.  The
    tie policy is checked first, and the report holds its key
    (``core._tie_key``).
    """
    tie = _tie_key(tie, sys.n)
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
