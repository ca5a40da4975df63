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
element may come from; ``existential`` exposes that choice so either
convention can be forced in cross-experiments.  "weak" scope restricts X to
the greedy chain under the configured tie policy (the weak classes are
tie-policy-dependent, so reports record the policy); "strong" scope ranges
over every subset.

Both augmentability audits and ``min_alpha_for`` read one scan: pair (X, Y)
needs alpha >= (gamma*f(X+Y) - |Y|*best_gain) / f(X), ``min_alpha_for`` is the
largest need, and an audit at alpha fails at the first pair needing more.

Before evaluating f, every audit passes its pair count to ``require_budget``:
4**n for strong scope, (n+1)*2**n for weak scope (at most n+1 chain prefixes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ParameterError,
    SetFunctionOracle,
    TiePolicy,
    ZERO,
    as_fraction,
    format_rational,
    greedy_adaptive,
    indices_of,
    optimum_profile,
    require_budget,
    saturation_point,
)


@dataclass(frozen=True)
class Witness:
    """A violated instance of an audited inequality; lhs < rhs exactly."""

    x_set: int
    y_set: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class AuditReport:
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


def _scope_sets(f: SetFunctionOracle, scope: str, tie: TiePolicy) -> list[int]:
    """The in-scope X sets, once the scope's pair count is within budget."""
    n = f.n
    if scope not in ("weak", "strong"):
        raise ParameterError(f"unknown scope {scope!r}")
    require_budget((n + 1) << n if scope == "weak" else 4**n, f"{scope}-scope audit over n={n}")
    if scope == "strong":
        return list(range(1 << n))
    trace = greedy_adaptive(f, n, tie)
    return list(trace.chain[: saturation_point(trace) + 1])


def _singleton_gains(f, x_set, inside=None):
    """f(X) and the gain of each element at X; elements of X get ``inside``."""
    fx = f.value(x_set)
    gains = [inside if x_set >> y & 1 else f.value(x_set | (1 << y)) - fx for y in range(f.n)]
    return fx, gains


def _least_alpha(f, gamma, scope, tie, existential, cap=None):
    """(alpha, X, Y, best gain, pairs checked): the least alpha >= gamma over
    in-scope pairs (X, Y), Y not inside X, in mask order.  X and Y name the pair
    that stopped the scan, by needing more than ``cap`` or, with f(X) = 0, any
    finite alpha (then alpha = inf); they are None when the scan completes.
    """
    if existential not in ("full", "difference"):
        raise ParameterError(f"unknown existential scope {existential!r}")
    inside = ZERO if existential == "full" else None  # adding an element of X changes nothing
    x_sets = _scope_sets(f, scope, tie)
    size = 1 << f.n
    best = [None] * size  # best[Y] = best gain of a witness candidate in Y, or None
    needed = gamma
    checked = 0
    for x_set in x_sets:
        fx, gains = _singleton_gains(f, x_set, inside)
        bar = needed * fx
        for y_set in range(1, size):
            low = y_set & -y_set
            g, prev = gains[low.bit_length() - 1], best[y_set ^ low]
            if prev is not None and (g is None or prev >= g):
                g = prev
            best[y_set] = g
            if y_set & ~x_set == 0:
                continue  # Y inside X is vacuous
            checked += 1
            shortfall = gamma * f.value(x_set | y_set) - g * y_set.bit_count()
            if shortfall > bar:
                if fx == 0:
                    return math.inf, x_set, y_set, g, checked
                needed, bar = shortfall / fx, shortfall
                if cap is not None and needed > cap:
                    return needed, x_set, y_set, g, checked
    return needed, None, None, None, checked


def _augmentability_audit(f, gamma, alpha, scope, tie, existential):
    _, x_set, y_set, best, checked = _least_alpha(f, gamma, scope, tie, existential, cap=alpha)
    witness = None
    if x_set is not None:
        rhs = (gamma * f.value(x_set | y_set) - alpha * f.value(x_set)) / y_set.bit_count()
        witness = Witness(x_set, y_set, best, rhs)
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


@dataclass(frozen=True)
class RatioResult:
    value: Fraction
    x_set: int
    y_set: int
    checked_pairs: int
    tie: TiePolicy


def weak_submodularity_ratio(f: SetFunctionOracle, tie: TiePolicy = "low") -> RatioResult:
    """Exact minimum of (sum of singleton gains)/(joint gain) over the greedy chain.

    X ranges over chain prefixes up to saturation, Y over subsets disjoint
    from X.  Pairs with zero joint gain count as 1 when the singleton sum is
    zero too and are excluded (treated as +inf) otherwise.
    """
    x_sets = _scope_sets(f, "weak", tie)
    size = 1 << f.n
    sums: list[Fraction | None] = [None] * size
    best = RatioResult(Fraction(1), 0, 0, 0, tie)
    checked = 0
    for x_set in x_sets:
        fx, gain = _singleton_gains(f, x_set)
        sums[0] = ZERO
        for y_set in range(1, size):
            if y_set & x_set:
                continue
            low = y_set & -y_set
            sums[y_set] = sums[y_set ^ low] + gain[low.bit_length() - 1]
            checked += 1
            joint = f.value(x_set | y_set) - fx
            if joint == 0:
                continue  # 0/0 counts as 1; positive/0 is +inf, never minimal
            ratio = sums[y_set] / joint
            if ratio < best.value:
                best = RatioResult(ratio, x_set, y_set, 0, tie)
    return RatioResult(best.value, best.x_set, best.y_set, checked, tie)


def min_alpha_for(
    f: SetFunctionOracle,
    gamma,
    scope: str = "weak",
    tie: TiePolicy = "low",
    existential: str = "full",
) -> Fraction | float:
    """Least alpha >= gamma making the gamma-alpha audit pass, or +inf.

    The maximum over in-scope pairs with f(X) > 0 of
    (gamma*f(X+Y) - |Y|*best_gain) / f(X), from the scan that also decides
    the audits; a pair with f(X) = 0 that the best gain leaves short makes
    every alpha fail.
    """
    gamma, _ = _parameters(gamma)
    return _least_alpha(f, gamma, scope, tie, existential)[0]


@dataclass(frozen=True)
class BoundRecord:
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
    (gamma/alpha) * optimum_k.  Violations simply show up as negative slack;
    whether f actually belongs to the audited class is the caller's business,
    but gamma must lie in (0,1] and alpha must be >= gamma.
    """
    gamma, alpha = _parameters(gamma, alpha)
    n = f.n
    profile = optimum_profile(f)  # first, so an oversize f is refused before any evaluation
    trace = greedy_adaptive(f, n, tie)
    sat = saturation_point(trace)
    records = []
    for k in range(1, n + 1):
        opt = profile[k].best_value
        greedy_value = trace.values[k]
        if k <= sat:
            factor = 1 - (1 - alpha / k) ** k
            bound = gamma / alpha * factor * opt
            regime = "pre-saturation"
        else:
            bound = gamma / alpha * opt
            regime = "post-saturation"
        records.append(BoundRecord(k, regime, greedy_value, opt, bound, greedy_value - bound))
    return records
