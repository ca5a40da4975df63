"""Exhaustive, witness-producing auditors for greedy-approximability classes.

Three quantified properties of a monotone objective f are checked here, each
with exact rational arithmetic:

* weak submodularity ratio: minimum over greedy-chain prefixes X (up to the
  saturation cardinality) and Y disjoint from X of
  (sum of singleton gains) / (joint gain), with 0/0 := 1;
* alpha-augmentability: for every in-scope X and every Y not contained in X,
  some y in Y \\ X has gain at least (f(X+Y) - alpha*f(X)) / |Y|;
* gamma-alpha-augmentability: same shape with numerator
  gamma*f(X+Y) - alpha*f(X), and the witness element drawn from all of Y.

The two augmentability definitions deliberately differ in where the witness
element may come from; ``existential`` exposes that choice.  For monotone f
it cannot change a result: the elements of Y inside X add gain 0, and every
gain is >= 0.  "weak" scope restricts X to the greedy chain under the
configured tie policy (the weak classes are tie-policy-dependent, so reports
record the policy); "strong" scope ranges over every subset.

Both augmentability audits and ``min_alpha_for`` read one scan: pair (X, Y)
needs alpha >= (gamma*f(X+Y) - |Y|*best_gain) / f(X), ``min_alpha_for`` is the
largest need, and an audit at alpha fails at the first pair needing more.
The running least alpha only rises, so the scan records each rise with its
pair; the first record above alpha is that failing pair.  The oracle keeps
the records and the suspended scan for each gamma and scope (and tie policy
in weak scope), so the calls of an ``audit`` bundle share one scan per gamma:
a call reads the kept records and resumes the scan only past them.
That scan and the weak ratio read the oracle's one int value table
(``SetFunctionOracle.scaled_reps``) from one preamble, ``_audit_table``,
which refuses non-monotone f with a ``ParameterError``: the
weak ratio is defined for monotone f only, and both visit only the pairs with
Y disjoint from X (see ``_least_alpha``).

One pair per orbit.  When f declares ``blocks`` (``core.Blocks``), a
permutation sigma inside the blocks preserves f, so (X, Y) and
(sigma X, sigma Y) need the same alpha and have the same ratio.  Scan order
is X, then Y, by mask, and within an orbit the least pair comes first: X
the least mask of its orbit, then Y the least mask of its orbit under X's
stabiliser, which keeps the free elements of Y and, per block, takes the
lowest c members outside X.  Each record, each first minimum of the weak
ratio and the first violating pair is the first pair in scan order to pass
a bar that depends only on earlier pairs, so it is the least pair of its
orbit, and each earlier pair's orbit has its least pair earlier still: a
scan over those least pairs alone, in the same order, meets the same bars
and stops at the same pairs (the method of canonical orbit
representatives; B. D. McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  The argument needs only that order.  So strong
scope runs X over the least masks; weak scope keeps the greedy chain, where
X is given and only its stabiliser moves Y.  For each X, both the scan and
the weak ratio read Y from one enumeration, ``_orbit_subsets``: the least Y
of each orbit of X's stabiliser in ascending mask order, with its best gain
and its sum of gains at X, and each is one loop over that list against a
running bar.  The members of a block outside X share one gain, read once per
block.  Each Y also carries least(X + Y), so both kernels read f(X) at
least(X) and f(X + Y) at that mask, in either scope and whether or not the
greedy chain leaves the least masks: every read is a key of the oracle's
table (``core.Blocks.table``), and no blocked audit builds a list of all
2**n masks.  With no blocks every mask is least, the table is a list indexed
by mask, and the scan is the plain walk over all pairs.

Pruning by f(N).  Since f is monotone (checked first), f(X + Y) <= f(N) and
every gain is >= 0, so ``_scan`` rules pairs out against the running least
alpha a/b before it builds them.  It skips an X with
gamma*f(N) <= (a/b)*f(X): no Y there can pass.  At any other X it caps the
enumeration at c, the least int (in the table's scaled units) with
gamma*f(N) - c <= (a/b)*f(X).  A Y with |Y|*best gain >= c fails the bar,
and so does every Y' that ``_orbit_subsets`` would build from it, whose best
gain is no lower and whose size is larger.  The bar only rises, so a cap
taken at the start of X holds for all of X, and for a scan resumed from
``f.scans``.  The records are those of the unpruned scan: no pair the cuts
drop could pass.  ``checked_pairs`` (below) still counts the unpruned pairs.

``checked_pairs`` is not the number of pairs a scan visits: it counts the
pairs (X, Y), Y not inside X, that a scan over every in-scope mask would
check up to the report's last pair, an X skipped for its orbit still
counting its 2**n - 2**|X| pairs.  The scans carry no count; a report reads
it from its last pair by one closed form per scope (``_checked_pairs``).

Before evaluating f, the preamble passes the step count to ``require_budget``:
n*2**n for the monotonicity check, plus 3**n disjoint pairs for strong scope
or at most 2**(n+1) over the greedy chain for weak scope, the weak ratio
included.  The budget counts every pair, reduced by orbits or not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .core import (
    ParameterError,
    Record,
    SetFunctionOracle,
    TiePolicy,
    _greedy_against_optimum,
    _tie_key,
    as_fraction,
    format_rational,
    greedy_adaptive,
    indices_of,
    require_budget,
    saturation_point,
)


class Witness(Record):
    """A violated instance of an audited inequality; lhs < rhs exactly."""

    x_set: int
    y_set: int
    lhs: Fraction
    rhs: Fraction


class AuditReport(Record):
    member: bool
    gamma: Fraction
    alpha: Fraction
    scope: str
    tie: TiePolicy
    existential: str
    witness: Witness | None
    checked_pairs: int

    @property
    def verdict(self) -> str:
        return "member" if self.member else "non-member"

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "gamma": format_rational(self.gamma),
            "alpha": format_rational(self.alpha),
            "scope": self.scope,
            "tie": self.tie if isinstance(self.tie, str) else list(self.tie),
            "existential": self.existential,
            "checked_pairs": self.checked_pairs,
        }
        if self.witness is not None:
            out["witness"] = {
                "X": list(indices_of(self.witness.x_set)),
                "Y": list(indices_of(self.witness.y_set)),
                "lhs": format_rational(self.witness.lhs),
                "rhs": format_rational(self.witness.rhs),
            }
        return out


def _parameters(gamma, alpha=None) -> tuple[Fraction, Fraction]:
    """(gamma, alpha) as Fractions, gamma in (0,1] and alpha >= gamma; alpha defaults to gamma."""
    gamma = as_fraction(gamma)
    if not 0 < gamma <= 1:
        raise ParameterError(f"gamma must lie in (0,1], got {gamma}")
    alpha = gamma if alpha is None else as_fraction(alpha)
    if alpha < gamma:
        raise ParameterError(f"alpha must be >= gamma, got alpha={alpha}, gamma={gamma}")
    return gamma, alpha


def _audit_table(f: SetFunctionOracle, scope: str, tie: TiePolicy):
    """(in-scope X sets, f's value table scaled to ints by the LCM of its
    denominators and keyed by the least masks, that LCM), once the sweep's
    steps are within budget.

    In strong scope the X sets are the least masks of their orbits
    (``Blocks.representatives``), in weak scope the greedy chain up to
    saturation, each in the order the scans visit them.

    The table and the monotonicity verdict are the oracle's own, built on its
    first use and kept (``SetFunctionOracle.scaled_reps``).  Non-monotone f
    is refused on every call, with a set X and an element e that lowers f(X).
    """
    n = f.n
    if scope not in ("weak", "strong"):
        raise ParameterError(f"unknown scope {scope!r}")
    steps = 3**n + (n << n) if scope == "strong" else (n + 2) << n
    require_budget(steps, f"{scope}-scope audit over n={n}")
    if scope == "strong":
        x_sets = f.blocks.representatives()
    else:
        trace = greedy_adaptive(f, n, tie)
        x_sets = trace.chain[: saturation_point(trace) + 1]
    _, table, scale = f.scaled_reps()
    decrease = f.first_decrease()
    if decrease is not None:
        x_set, e = decrease
        raise ParameterError(
            f"{f.name} is not monotone: adding element {e} to X={list(indices_of(x_set))} "
            f"lowers its value; the audits need monotone f"
        )
    return x_sets, table, scale


def _checked_pairs(n, scope, x_set, y_set):
    """The pairs (X', Y'), Y' not inside X', that a scan over every in-scope
    mask checks up to (X, Y), or up to the last Y at X when Y is None.

    The X' before X add 2**n - 2**|X'| each.  In weak scope the j-th chain
    prefix has j elements, so they add j * 2**n - 2**j + 1.  In strong scope
    they add X * 2**n minus 2**|X'| summed over the X' < X: those X' that first
    differ from X, from the top, at its element i keep X's h elements above i
    and any of the 2**i subsets below it, and add up to 3**i * 2**h.  At X, Y
    (disjoint from X) adds the Y' <= Y less the subsets of X below top(Y)."""
    if scope == "weak":
        j = x_set.bit_count()
        checked = (j << n) - (1 << j) + 1
    else:
        checked = (x_set << n) - sum(3**i << (x_set >> i + 1).bit_count()
                                     for i in range(n) if x_set >> i & 1)
    if y_set is None:
        return checked + (1 << n) - (1 << x_set.bit_count())
    top = 1 << y_set.bit_length() - 1
    return checked + y_set - (1 << (x_set & top - 1).bit_count()) + 1


def _orbit_subsets(blocks, x_set, table, cap=math.inf) -> list[tuple[int, int, int, int]]:
    """The subsets Y of X's complement, one per orbit of X's stabiliser, in
    ascending mask order with {} first, each as (Y, least(X + Y), best gain,
    sum of gains) at X on the scaled ``table``; the first is
    (0, least(X), 0, 0).

    The stabiliser permutes the members of each block outside X among
    themselves, so the least Y of an orbit keeps its free elements and, per
    block, the lowest c members outside X, which all have the gain of the
    lowest one: f is read once per block.  The list grows one element e of
    the complement at a time, lowest first: a free e extends every Y so far,
    and a block member only the Ys that hold its block's previous member
    outside X, all of them at or after the index where that member's
    extensions start.  Every new Y holds e and so exceeds every earlier Y,
    which keeps the list in mask order.

    Per block, least(X) holds as many of the lowest members as X holds, so
    when Y holds the lowest j members of a block outside X, least(X + Y)
    holds the block's part of least(X) and its lowest j members outside
    least(X).  So each new least mask is one OR: by e when e is free, and by
    the j-th member of e's block outside least(X) when e is the j-th outside
    X.  A block's gain is read at least(X) plus its lowest member outside
    least(X), so the table is read at least masks only.

    With a ``cap`` (``_scan``'s, see "Pruning by f(N)" in the module
    docstring) a new Y is kept only when |Y| * best gain < cap.  A dropped Y
    fails the scan's bar, and so does each Y' the list would have built from
    it: Y' holds Y, so its best gain is no lower and it is larger.  Without a
    cap every Y is kept."""
    least, free = blocks.least(x_set), blocks.free
    fx, subsets, rest = table[least], [(0, least, 0, 0)], (1 << blocks.n) - 1 ^ x_set
    last = {}  # block -> (latest member outside X, where the Ys holding it start, gain, spare)
    while rest:
        bit = rest & -rest
        rest ^= bit
        if free & bit:
            twin, prev, g = bit, 0, table[least | bit] - fx
        else:
            block = blocks.block_of[bit.bit_length() - 1]
            prev, start, g, spare = last.get(block) or (0, 0, None, block & ~least)
            twin = spare & -spare  # spare: its members outside least(X) and not yet added
            g = table[least | twin] - fx if g is None else g
            last[block] = bit, len(subsets), g, spare ^ twin
        if prev:
            subsets += [(y_set | bit, z_set | twin, most, total + g)
                        for y_set, z_set, best, total in islice(subsets, start, None)
                        if y_set & prev
                        and (most := best if best > g else g) * (y_set.bit_count() + 1) < cap]
        else:
            subsets += [(y_set | bit, z_set | twin, most, total + g)
                        for y_set, z_set, best, total in subsets
                        if (most := best if best > g else g) * (y_set.bit_count() + 1) < cap]
    return subsets


def _least_alpha(f, gamma, scope, tie, existential, cap=math.inf):
    """(alpha, X, Y, best gain): the first record of the scan of in-scope
    pairs (X, Y), Y not inside X, in mask order whose alpha exceeds ``cap``,
    else the scan's final record.

    A record is written each time the running least alpha >= gamma rises, at
    the pair (X, Y) that raised it; with f(X) = 0 no finite alpha suffices, the
    record reads inf and ends the scan.  Otherwise the final record (least
    alpha, the last in-scope X, None, None) ends it.  The first pair needing
    more than some alpha >= gamma is where the running value first exceeds
    it, so that pair is a record: the records answer every cap, and an audit
    at alpha stops where a scan capped at alpha would.

    The scan is kept on the oracle (``f.scans``), keyed by gamma and scope,
    and in weak scope by the tie policy's key (``core._tie_key``, which the
    caller passes as ``tie``), which fixes the greedy chain; strong scope
    does not read it.  A call reads the kept records and resumes the
    suspended scan only when they run out, so no pair is visited twice for a
    key.  A finished scan keeps only its records.  ``_audit_table`` runs first
    on every call, so the budget and the monotonicity refusal still hold.

    ``existential`` is validated but not keyed: it cannot change a record.
    Only the pairs with Y disjoint from X are visited, which decides every
    pair because f is monotone (checked first): if (X, Y) needs more than some
    alpha, so does (X, Y \\ X).  f(X + Y) is the same; the candidates outside
    X are the same and those inside X (``existential="full"``) add gain 0, so
    with every gain >= 0 the best gain is the same under both conventions; and
    |Y \\ X| <= |Y|.  Y \\ X is also the smaller mask, so the first pair
    needing more than any bar is disjoint and the largest need is reached on a
    disjoint pair: the verdict, the witness and the least alpha are those of
    the scan over all pairs.  Of the disjoint pairs, ``_scan`` visits the
    least of each orbit of the blocks (see the module docstring).  The
    records carry no pair count: a report reads its ``checked_pairs`` from
    the record's X and Y (``_checked_pairs``).
    """
    if existential not in ("full", "difference"):
        raise ParameterError(f"unknown existential scope {existential!r}")
    x_sets, table, scale = _audit_table(f, scope, tie)
    key = (gamma, scope) + ((tie,) if scope == "weak" else ())
    kept = f.scans.get(key)
    if kept is None:
        kept = f.scans[key] = [[], _scan(f.blocks, x_sets, table, scale, gamma)]
    records, i = kept[0], 0
    while True:
        if i == len(records):
            try:
                records.append(next(kept[1]))
            except BaseException:  # an interrupted scan cannot resume: the next call starts over
                del f.scans[key]
                raise
        record = records[i]
        if record[2] is None or record[0] == math.inf:
            kept[1] = None  # finished: drop the suspended scan
            return record
        if record[0] > cap:
            return record
        i += 1


def _scan(blocks, x_sets, table, scale, gamma):
    """Yield the records (alpha, X, Y, best gain) of ``_least_alpha`` for
    the scope sets ``x_sets``, visiting one pair per orbit of the oracle's
    ``blocks``: for each X, the Ys of ``_orbit_subsets`` in mask order (see
    the module docstring).  The final record names the last X, with Y None.

    It runs on the int table of ``_audit_table``: with gamma = p/q and the
    running least alpha a/b, the pair needs more when
    b*(p*T - q*|Y|*G) > a*q*F, for the scaled values T = f(X+Y) and F = f(X),
    read at the least masks that ``_orbit_subsets`` carries, and best gain G.
    Y = {} needs only alpha = gamma, so it never passes.

    With top = f(N) scaled, T <= top, so no pair at X passes when
    p*b*top <= a*q*F, and X is skipped.  Else a Y with q*b*G*|Y| >= p*b*top -
    a*q*F fails, and so does every Y' that ``_orbit_subsets`` would build
    from it, since G' >= G and |Y'| > |Y|: the least int G*|Y| that fails is
    its cap.  The cap is taken at the start of X and a record only raises the
    bar, so it holds to the end of X, across a suspended and resumed scan.
    """
    p, q = gamma.numerator, gamma.denominator
    a, b = p, q  # the least alpha so far, a/b
    top = table[(1 << blocks.n) - 1]
    for x_set in x_sets:
        fx = table[blocks.least(x_set)]
        pb, qb, bar = p * b, q * b, a * q * fx
        if pb * top <= bar:
            continue
        cap = (pb * top - bar - 1) // qb + 1  # the least c with qb * c >= pb * top - bar
        for y_set, z_set, g, _ in _orbit_subsets(blocks, x_set, table, cap):
            if pb * table[z_set] - qb * g * y_set.bit_count() <= bar:
                continue
            if fx == 0:
                yield math.inf, x_set, y_set, Fraction(g, scale)
                return
            a, b = p * table[z_set] - q * g * y_set.bit_count(), q * fx
            pb, qb, bar = p * b, q * b, a * q * fx
            yield Fraction(a, b), x_set, y_set, Fraction(g, scale)
    yield Fraction(a, b), x_set, None, None


def _augmentability_audit(f, gamma, alpha, scope, tie, existential):
    tie = _tie_key(tie, f.n)
    _, x_set, y_set, best = _least_alpha(f, gamma, scope, tie, existential, cap=alpha)
    witness = None
    if y_set is not None:
        rhs = (gamma * f.value(x_set | y_set) - alpha * f.value(x_set)) / y_set.bit_count()
        witness = Witness(x_set, y_set, best, rhs)
    checked = _checked_pairs(f.n, scope, x_set, y_set)
    return AuditReport(witness is None, gamma, alpha, scope, tie, existential, witness, checked)


def check_alpha_augmentable(
    f: SetFunctionOracle,
    alpha,
    scope: str = "strong",
    tie: TiePolicy = "low",
    existential: str = "difference",
) -> AuditReport:
    """Audit alpha-augmentability (witness element from Y \\ X by default)."""
    gamma, alpha = _parameters(1, alpha)
    return _augmentability_audit(f, gamma, alpha, scope, tie, existential)


def check_gamma_alpha_augmentable(
    f: SetFunctionOracle,
    gamma,
    alpha,
    scope: str = "weak",
    tie: TiePolicy = "low",
    existential: str = "full",
) -> AuditReport:
    """Audit gamma-alpha-augmentability (witness element from all of Y by default)."""
    gamma, alpha = _parameters(gamma, alpha)
    return _augmentability_audit(f, gamma, alpha, scope, tie, existential)


class RatioResult(Record):
    value: Fraction
    x_set: int
    y_set: int
    checked_pairs: int
    tie: TiePolicy


def weak_submodularity_ratio(f: SetFunctionOracle, tie: TiePolicy = "low") -> RatioResult:
    """Exact minimum of (sum of singleton gains)/(joint gain) over the greedy chain.

    X ranges over chain prefixes up to saturation, Y over nonempty subsets
    disjoint from X, in increasing order; the witness is the first pair that
    reaches the minimum (X = Y = {} when it is 1).  Pairs with zero joint gain
    count as 1 when the singleton sum is zero too and are excluded (treated as
    +inf) otherwise.  On the int table of ``_audit_table`` (its scale cancels)
    sum/joint < num/den is decided as sum*den < num*joint, with f(X) and
    f(X + Y) read at their least masks.  Y runs over ``_orbit_subsets``, one
    subset per orbit of X's stabiliser in mask order, against a running bar
    that only falls (see the module docstring).
    """
    tie = _tie_key(tie, f.n)
    x_sets, table, _ = _audit_table(f, "weak", tie)
    num, den, x_best, y_best = 1, 1, 0, 0
    for x_set in x_sets:
        subsets = _orbit_subsets(f.blocks, x_set, table)
        fx = table[subsets[0][1]]
        for y_set, z_set, _, total in subsets:
            joint = table[z_set] - fx
            if total * den < num * joint:  # never at joint 0: 0/0 is 1, positive/0 +inf
                num, den, x_best, y_best = total, joint, x_set, y_set
    s = len(x_sets) - 1  # the saturation point: 2**(n - j) - 1 nonempty Ys at prefix j <= s
    return RatioResult(Fraction(num, den), x_best, y_best, (2 << f.n) - (1 << f.n - s) - s - 1, tie)


def min_alpha_for(
    f: SetFunctionOracle,
    gamma,
    scope: str = "weak",
    tie: TiePolicy = "low",
    existential: str = "full",
) -> Fraction | float:
    """Least alpha >= gamma making the gamma-alpha audit pass, or +inf.

    The maximum over in-scope pairs with f(X) > 0 of
    (gamma*f(X+Y) - |Y|*best_gain) / f(X): the final record of the scan that
    also decides the audits, resumed where earlier calls on f left it; a pair
    with f(X) = 0 that the best gain leaves short makes every alpha fail.
    """
    gamma, _ = _parameters(gamma)
    return _least_alpha(f, gamma, scope, _tie_key(tie, f.n), existential)[0]


class BoundRecord(Record):
    k: int
    regime: str
    greedy_value: Fraction
    optimum_value: Fraction
    bound: Fraction
    slack: Fraction

    @property
    def ok(self) -> bool:
        return self.slack >= 0


def certify_greedy_bound(
    f: SetFunctionOracle, gamma, alpha, tie: TiePolicy = "low"
) -> list[BoundRecord]:
    """Per-cardinality certificates of the class guarantee, with exact slack.

    For k up to the saturation cardinality the guarantee is
    (gamma/alpha) * (1 - (1 - alpha/k)**k) * optimum_k, afterwards the plain
    (gamma/alpha) * optimum_k: a fold over ``core._greedy_against_optimum``.
    Violations simply show up as negative slack; whether f actually belongs
    to the audited class is the caller's business, but gamma must lie in
    (0,1] and alpha must be >= gamma.
    """
    gamma, alpha = _parameters(gamma, alpha)
    records = []
    for k, greedy_value, _, opt, before_saturation in _greedy_against_optimum(f, tie):
        if before_saturation:
            factor = 1 - (1 - alpha / k) ** k
            bound = gamma / alpha * factor * opt
            regime = "pre-saturation"
        else:
            bound = gamma / alpha * opt
            regime = "post-saturation"
        records.append(BoundRecord(k, regime, greedy_value, opt, bound, greedy_value - bound))
    return records
