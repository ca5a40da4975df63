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
optima here) to ``require_budget`` before its first oracle evaluation, and so
does greedy: k picks over n elements are k*n steps.

Interchangeable elements.  An oracle may declare ``blocks`` of elements that
any permutation inside a block leaves f unchanged on (``Blocks``).  Such a
permutation moves a mask around its orbit, and the orbit's least mask keeps,
in each block, the same count of members at the block's lowest indices.
That least mask is the orbit's smallest, and its sorted index tuple is the
orbit's lexicographically smallest too: it takes each member from no higher
an index than any other mask of the orbit.  The oracle hands its evaluator
least masks only, memoizes one value per orbit, and keeps f at the least
masks, the orbit representatives, as ints in one table keyed by them alone
(``scaled_reps``, ``Blocks.table``): every reader of the table reads it at
least masks, and any other mask is a ``KeyError``.
The one optimum sweep (``_optima``) reads the representatives alone: every
value is its representative's, and the representative wins every tie its
orbit could, so the profile is the one of the sweep over all 2**n masks.
Given an upper bound, the sweep skips the representatives whose bound falls
strictly below the best value so far and refuses a bound below f at any mask
it reads; the rows are those of the unpruned sweep.  Blocks come from a
proof about the family or from a check against its data, never from the
caller's say-so.  The monotonicity check (``first_decrease``) probes each
least mask X with its free elements and the lowest member of each block
outside it, since (X, e) and its image under a permutation inside the blocks
compare the same two values, and the same probes name a refusal: the least e
is a free element or the lowest member of its block, and the least X is read
off the least masks that e lowers f on (``_first_decrease``).
The audits visit one pair per orbit too (see ``audit``).  No blocked sweep
builds a list of all 2**n masks, and no audit reads past the least masks.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

TiePolicy = Union[str, Sequence[int]]

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_STEPS = 1 << 24
_UNDECIDED = object()


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


_setattr = object.__setattr__


class Record:
    """Base of the toolkit's result and parameter types: immutable records
    that compare by value.

    A subclass lists its fields as class annotations, in order, and gives a
    field its default as a class attribute.  The names are read once, when
    the subclass is created, into ``_fields``.  The methods are plain code,
    written once here: ``__init__`` binds positional arguments, then
    keywords, then defaults, raises ``TypeError`` naming a missing or unknown
    argument, and then calls ``__post_init__`` if the class has one;
    ``__eq__`` and ``__hash__`` compare and hash the field values as one
    tuple; ``__repr__`` prints ``Name(field=value, ...)`` as ``dataclasses``
    does.  Frozen: its fields cannot be reassigned or deleted
    (``AttributeError``); a ``__post_init__`` that normalises a field writes
    it with ``object.__setattr__``.  Instances keep a ``__dict__``, where
    ``functools.cached_property`` stores its values.

    Each subclass gets its own ``__init__``, a closure over its field names,
    so the common call, every field by position, reads no class attribute:
    CPython 3.11 does not specialise such reads at a call site that 16
    classes share.  It sets the fields one by one, in field order, as
    ``dataclasses`` does; an instance whose ``__dict__`` was read holds a
    dict of its own, and CPython 3.11 then reads each field about 4x slower.

    Why not ``@dataclass(frozen=True)``: it writes each method as source and
    compiles it with ``exec`` when the class is created, and it imports
    ``inspect``.  Under CPython 3.11.7 on a 2-CPU Xeon host that took 0.2-0.9
    ms per class, 10 ms of a 39 ms fresh import of ``greedyaug.cli`` from
    source, for the 16 records.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}
        count, post_init = len(fields), hasattr(cls, "__post_init__")

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = self._bind(args, kwargs)
            for field, value in zip(fields, args):
                _setattr(self, field, value)
            if post_init:
                self.__post_init__()

        cls.__init__ = __init__

    def _bind(self, args, kwargs) -> list:
        """Every field's value from positional and keyword arguments and the defaults."""
        fields, defaults, name = self._fields, self._defaults, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        missing = [f for f in fields if f not in values and f not in defaults]
        if missing:
            raise TypeError(f"{name}() missing argument(s): {', '.join(map(repr, missing))}")
        return [values[f] if f in values else defaults[f] for f in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


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
    """A "p/q" string, a JSON integer or a Fraction; bools, floats and q = 0 are refused.

    So are exponent strings such as "1e-1000000", which ``Fraction`` would
    expand into a huge denominator before any range check could refuse them.
    """
    text = isinstance(value, str) and "e" not in value.lower()
    if text or isinstance(value, Fraction) or isinstance(value, int) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ParameterError(f"{name} has a zero denominator, got {value!r}") from None
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
    if mask < 0:
        raise ValueError(f"mask must be >= 0, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Blocks(tuple):
    """Disjoint blocks of interchangeable elements of 0..n-1: ascending index
    tuples of at least two elements each, refused with ``ParameterError``
    otherwise.  ``least`` maps a mask to the least mask of its orbit under
    permutations inside each block, ``representatives`` lists those least
    masks in ascending order (built once and kept), ``table`` keys values
    by them and by nothing else, ``free`` is the mask of the elements in no
    block, and ``block_of`` maps each member of a block to that block's mask.

    Each block keeps its mask and its members followed by n, so the lowest c
    members are ``block & (1 << ends[c]) - 1``: memory linear in the block.
    A ``Blocks`` over the same n is returned as it is, so every oracle and
    system built from it shares its representatives.
    """

    def __new__(cls, blocks, n: int):
        if isinstance(blocks, Blocks) and blocks.n == n:
            return blocks
        self = super().__new__(cls, (tuple(block) for block in blocks))
        used, ends, block_of = 0, [], {}
        for block in self:
            if len(block) < 2:
                raise ParameterError(f"block {block} needs at least two elements")
            if not all(isinstance(i, int) and 0 <= i < n for i in block):
                raise ParameterError(f"block {block} is not inside 0..{n - 1}")
            if any(a >= b for a, b in zip(block, block[1:])):
                raise ParameterError(f"block {block} is not strictly ascending")
            mask = mask_of(block)
            if used & mask:
                raise ParameterError(f"block {block} overlaps an earlier block")
            used |= mask
            ends.append((mask, block + (n,)))
            block_of.update(dict.fromkeys(block, mask))
        self.n = n
        self.free = (1 << n) - 1 & ~used
        self.block_of = block_of
        self._ends = tuple(ends)  # per block: its mask, then its members and n
        self._reps = None if self else range(1 << n)  # representatives(), once built
        return self

    def least(self, mask: int) -> int:
        for block, ends in self._ends:
            mask = mask & ~block | block & (1 << ends[(mask & block).bit_count()]) - 1
        return mask

    def choices(self, mask: int) -> list[tuple[int, ...]]:
        """What a representative subset of ``mask`` may add, one pick per
        entry: each free element of mask alone, and for each block that meets
        mask, the lowest 1, 2, ... of its members inside mask.

        The permutations that move the members of each block inside mask
        among themselves map a subset of mask to one whose every block part is
        such a prefix, and that subset is the least mask of its orbit, so the
        products of the picks (none from an entry included) are one subset per
        orbit.  Each entry's first mask is one element.
        """
        free = mask & self.free
        out = [(1 << i,) for i in range(free.bit_length()) if free >> i & 1]
        for block, _ in self._ends:
            inside, prefix, prefixes = block & mask, 0, []
            while inside:
                low = inside & -inside
                prefix |= low
                prefixes.append(prefix)
                inside ^= low
            if prefixes:
                out.append(tuple(prefixes))
        return out

    def representatives(self):
        """The least masks in ascending order, built on first use and kept:
        every mask when there is no block."""
        if self._reps is None:
            masks = [0]
            for choice in self.choices((1 << self.n) - 1):
                masks += [mask | pick for pick in choice for mask in masks]
            self._reps = sorted(masks)
        return self._reps

    def table(self, values):
        """``values`` at the ``representatives()``: ``values`` itself when
        there is no block (every mask is least, so the index is the mask),
        else a dict keyed by the least masks.  Only least masks are read: any
        other mask is a ``KeyError``, as is a mask outside the ground set."""
        return dict(zip(self.representatives(), values)) if self else values


def iter_submasks(mask: int):
    """Yield every submask of ``mask``, including ``mask`` itself and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class GroundSet(Record):
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
    for the same subset return the identical Fraction.

    ``scaled_reps()`` holds f at the orbit representatives as ints over one
    scale, the lcm of their denominators, in one table keyed by them
    (``Blocks.table``), built on first use and kept for the optimum sweep
    and the audits.
    ``first_decrease()`` decides monotonicity once on that table and keeps
    the verdict; this type refuses nothing itself, the augmentability audits
    refuse non-monotone input on every call.  ``scans`` holds the audits'
    resumable least-alpha scans (``audit._least_alpha``), and ``chains`` the
    greedy chain of each tie policy (``greedy_adaptive``).

    ``blocks`` declares elements that f cannot tell apart (see ``Blocks``); it
    must come from a proof or a certificate, as nothing here checks it.
    Every mask is read through the least mask of its orbit, the only key of
    the memo, so ``fn`` only sees least masks and the memo holds one entry
    per orbit; a mask outside the ground set is refused when it misses.
    """

    def __init__(
        self, ground: GroundSet, fn: Callable[[int], Fraction], name: str = "f", *, blocks=()
    ):
        self.ground = ground
        self.name = name
        self.blocks = Blocks(blocks, ground.n)
        self._fn = fn
        self._full = ground.full_mask()
        self._cache: dict[int, Fraction] = {}
        self._reps_scaled = None  # scaled_reps(), once built
        self._decrease = _UNDECIDED  # then (X, e) or None, see first_decrease
        self.scans: dict = {}  # (gamma, scope[, tie]) -> [records, suspended scan or None]
        self.chains: dict = {}  # tie -> (chain, picks, gains, values, tie_log) so far

    @property
    def n(self) -> int:
        return self.ground.n

    def value(self, mask: int) -> Fraction:
        least = self.blocks.least(mask)
        cached = self._cache.get(least)
        if cached is None:
            if not 0 <= mask <= self._full:
                raise ValueError(f"mask {mask:#x} outside ground set of {self.n} elements")
            cached = self._fn(least)
            if not isinstance(cached, Fraction):
                cached = as_fraction(cached)
            if cached.numerator < 0:
                raise ValueError(f"{self.name}: negative value {cached} on {indices_of(least)}")
            self._cache[least] = cached
        return cached

    __call__ = value

    def scaled_reps(self) -> tuple[Sequence[int], Sequence[int], int]:
        """(representatives, table, scale): the least masks in ascending
        order, ``table[mask]`` = f(mask) * scale as an int at each of them
        (``Blocks.table``: a list indexed by mask without blocks, else a dict
        that holds no other mask), and scale, the lcm of the denominators of
        the values at the representatives; built once and kept."""
        if self._reps_scaled is None:
            reps = self.blocks.representatives()
            values = [self.value(mask) for mask in reps]
            scale = math.lcm(*(v.denominator for v in values))
            table = self.blocks.table([v.numerator * (scale // v.denominator) for v in values])
            self._reps_scaled = reps, table, scale
        return self._reps_scaled

    def first_decrease(self) -> tuple[int, int] | None:
        """(X, e) with f(X + e) < f(X), for the least such e and then the least
        X, or None when f is monotone; decided once, on ``scaled_reps()``."""
        if self._decrease is _UNDECIDED:
            self._decrease = _first_decrease(self.scaled_reps()[1], self.n, self.blocks)
        return self._decrease

    def __repr__(self):
        return f"SetFunctionOracle({self.name}, n={self.n})"


def _first_decrease(table, n: int, blocks) -> tuple[int, int] | None:
    """The least e, then the least X without e, with f(X + e) < f(X), or None
    when f is monotone, read from ``table`` at the representatives r alone.

    A free e is fixed by every permutation inside the blocks, so the X that
    e lowers f on form whole orbits, and the least of them is the least r
    without e with table[r + e] < table[r].  For e in a block b with members
    m_0 < ... < m_{s-1}, and X without e holding c < s of them, least(X + e)
    is least(X) + m_c: (X, e) lowers f exactly when r = least(X) has
    table[r + m_c] < table[r], whichever member e is.  So every member of b
    lowers f somewhere when one does, and the least such e is m_0; a member
    above it is never probed.  The least mask of r's orbit without m_0 is r
    when c = 0 and r - m_0 + m_c otherwise, and the least X is the least of
    these.  With m = m_c, or m = e for a free e, that mask is r ^ e ^ m.
    The r holding c members of b are those whose part of b is the members
    below m_c, so each r is probed once per block, at its own c, and once
    per free element it lacks: the probes that prove f monotone.
    """
    reps = blocks.representatives()
    for e in range(n):
        bit = 1 << e
        block = blocks.block_of.get(e, bit)
        if block & bit - 1:
            continue
        x, below = 1 << n, 0  # above every mask until a lowering X is met
        for i in indices_of(block):
            m = 1 << i
            for r in reps:
                if r & block == below and table[r | m] < table[r]:
                    x = min(x, r ^ bit ^ m)
            below |= m
        if x < 1 << n:
            return x, e
    return None


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


class GreedyTrace(Record):
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
    resolved by the policy and all tied candidates are logged.  The k*n steps
    pass ``require_budget`` before the first evaluation.

    The first k picks do not depend on k, so the oracle keeps one chain per
    tie policy (``f.chains``): a call returns the first k steps of the kept
    chain and runs only the picks past its end.  Every call checks k, the
    budget and the tie order first.
    """
    n = f.n
    if not 0 <= k <= n:
        raise InvalidCardinality(f"k={k} outside 0..{n}")
    require_budget(k * n, f"greedy of k={k} picks over n={n}")
    pref = tie_preference(tie, n)
    key = tie if isinstance(tie, str) else tuple(tie)
    kept = f.chains.get(key)
    if kept is None:
        kept = f.chains[key] = ([0], [], [], [f.value(0)], [])
    chain, picks, gains, values, tie_log = kept
    try:
        while len(picks) < k:
            current = chain[-1]
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
            chain.append(current | 1 << pick)
            picks.append(pick)
            values.append(best_val)
            tie_log.append(tuple(tied))
    except BaseException:  # an interrupted step may be half kept: the next call starts over
        del f.chains[key]
        raise
    return GreedyTrace(tuple(chain[: k + 1]), tuple(picks[:k]), tuple(gains[:k]),
                       tuple(values[: k + 1]), tuple(tie_log[:k]))


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


class OptimumRecord(Record):
    """Exact maximizer over subsets of cardinality <= k."""

    k: int
    best_set: int
    best_value: Fraction


def _optima(f: SetFunctionOracle, upper_bound: Callable[[int], Fraction] | None = None):
    """The one optimum sweep: yields ``OptimumRecord`` k for k = 0..n in turn,
    walking the orbit representatives (all 2**n subsets when f declares no
    blocks) one size at a time.  A row is the best subset of size <= k: the
    larger value wins, a tie goes to the lexicographically smallest index
    tuple.  The budget counts 2**n steps before anything is read.

    Without a bound every value comes from ``scaled_reps()``.  With one,
    ``upper_bound(mask)`` must be at least f(mask), as an exact rational (a
    float is a ``TypeError``).  The representatives of each size are bounded
    and read through ``f.value`` in descending order of bound, and the size
    stops at the first bound strictly below the best value so far, which no
    later mask of the size can tie: ties are read, so each row, ``best_set``
    included, is the unpruned one.  A consumer that stops after row k leaves
    every larger mask unbounded and unread.  Each mask read is checked
    against its bound, and a bound below f is refused with ``ParameterError``.
    """
    n = f.n
    require_budget(1 << n, f"optimum sweep over n={n}")
    bounded = upper_bound is not None
    if bounded:
        masks, read, scale = f.blocks.representatives(), f.value, 1
    else:
        masks, table, scale = f.scaled_reps()  # ints over one scale compare as values do
        read = table.__getitem__
    sizes = [array("Q") for _ in range(n + 1)]  # 8 bytes a mask
    for mask in masks:
        sizes[mask.bit_count()].append(mask)
    best_value = best_mask = None
    for c, masks in enumerate(sizes):
        if bounded:
            bounds = {mask: as_fraction(upper_bound(mask)) for mask in masks}
            masks = sorted(masks, key=bounds.__getitem__, reverse=True)
        for mask in masks:
            if bounded and best_mask is not None and bounds[mask] < best_value:
                break
            value = read(mask)
            if bounded and bounds[mask] < value:
                raise ParameterError(f"upper bound {format_rational(bounds[mask])} is below "
                                     f"f = {format_rational(value)} at {indices_of(mask)}")
            if best_mask is None or value > best_value or (
                    value == best_value and indices_of(mask) < indices_of(best_mask)):
                best_value, best_mask = value, mask
        yield OptimumRecord(c, best_mask, Fraction(best_value, scale))


def optimum_profile(f: SetFunctionOracle) -> list[OptimumRecord]:
    """Exact optima for every cardinality bound 0..n: every row of ``_optima``."""
    return list(_optima(f))


def brute_force_optimum(f: SetFunctionOracle, k: int) -> OptimumRecord:
    """Exact best subset of cardinality <= k, row k of ``_optima``.

    The sweep evaluates all 2**n subsets whatever k is.
    """
    if not 0 <= k <= f.n:
        raise InvalidCardinality(f"k={k} outside 0..{f.n}")
    return next(row for row in _optima(f) if row.k == k)


def optimum_value(
    f: SetFunctionOracle,
    k: int,
    upper_bound: Callable[[int], Fraction] | None = None,
) -> Fraction:
    """Exact optimum value at cardinality <= k, optionally bound-pruned.

    ``upper_bound(mask)`` must be a provable upper bound on f(mask); ``_optima``
    skips the representatives whose bound cannot reach the best value so
    far, and refuses a bound it finds below f.  Use it when single
    evaluations are expensive (e.g. LP-backed objectives).  The sweep stops
    at row k, so no mask larger than k is bounded or evaluated.  Without a
    bound this is ``brute_force_optimum(f, k).best_value``.
    """
    if not 0 <= k <= f.n:
        raise InvalidCardinality(f"k={k} outside 0..{f.n}")
    return next(row for row in _optima(f, upper_bound) if row.k == k).best_value


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
