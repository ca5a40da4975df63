"""Sparse, warm-startable, certified exact simplex: max c.x s.t. Ax <= b, x >= 0.

Requires b >= 0, so the all-slack basis is feasible and no phase 1 is needed
(the flow objective always builds such programs).  The tableau
B^-1 [A | I | b] keeps one dict of nonzeros per row, with b in column n + m;
the flow models have about 2.5% nonzero entries.  Pivoting is Fraction
arithmetic and follows Bland's rule: the entering column is the first one
with a negative reduced cost, and the ratio test breaks ties on the smallest
basis index, which guarantees termination from any feasible basis (Bland,
Math. Oper. Res. 1977).  A cold start is a start from the all-slack basis.

Warm start: ``maximize(..., start=previous)`` continues from the optimal
basis of an earlier solve over the same ``rows`` and ``rhs``.  Only the
objective differs, and the constraints alone decide which bases are primal
feasible, so the solve recomputes the reduced-cost row for the new objective
from that basis and pivots on.  A start's tableau is copied, never changed,
so one solution can seed any number of later solves.

Certificate: before returning, every solve checks, on an integer copy of A
(row i times the lcm L_i of its denominators, built once at the cold start
and shared along the chain of warm starts) and independently of the
tableau, that x >= 0, Ax <= b, the duals y (the slack columns' reduced
costs) satisfy y >= 0 and A^T y >= c, and b.y = c.x = value.  By weak
duality the value is then the optimum.  The optimum of an LP is unique, so a
value cannot depend on the basis a solve started from; only x, y and the
pivot count can.  ``Unbounded`` is checked the same way, with a ray d >= 0,
Ad <= 0, c.d > 0 (x = 0 is feasible as b >= 0).  A failed check raises
``CertificateError``: an uncertified result is never returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

ZERO = Fraction(0)
ONE = Fraction(1)


class Unbounded(ArithmeticError):
    """The objective increases without limit along a feasible ray."""


class CertificateError(ArithmeticError):
    """A solve's exact optimality or unboundedness certificate did not hold."""


class _Program(NamedTuple):
    """The constraints of a chain of solves, row i scaled to integers by L_i > 0."""

    rows: object  # the caller's rows object; a start must come with the same one
    rhs: tuple[Fraction, ...]
    width: int
    scales: tuple[int, ...]  # L_i, the lcm of the denominators in row i and b_i
    scaled: tuple[tuple[tuple[int, int], ...], ...]  # (column, L_i A_ij) nonzeros
    scaled_rhs: tuple[int, ...]  # L_i b_i


@dataclass
class LPSolution:
    """An optimum with its certificate (x, y), and the basis a later solve may start from."""

    value: Fraction
    x: list[Fraction]
    iterations: int
    y: list[Fraction]
    basis: tuple[int, ...]  # basic column per row; column n + i is row i's slack
    tableau: tuple[dict, ...]  # B^-1 [A | I | b], nonzeros only
    program: _Program


def maximize(objective, rows, rhs, start=None) -> LPSolution:
    """max objective.x s.t. rows.x <= rhs, x >= 0, certified; ``start`` is an
    earlier solution over the same ``rows`` object and ``rhs`` to continue from."""
    n, m = len(objective), len(rows)
    if start is None:
        program = _program(rows, rhs, n)
        basis = list(range(n, n + m))
        tableau = [{j: a for j, a in enumerate(row) if a} for row in rows]
        for i, b in enumerate(program.rhs):
            tableau[i][n + i] = ONE
            if b:
                tableau[i][n + m] = b
    else:
        program = start.program
        if program.rows is not rows or program.rhs != tuple(rhs):
            raise ValueError("start comes from a solve over other rows")
        if n != program.width:
            raise ValueError("objective length must match row width")
        basis = list(start.basis)
        tableau = [dict(row) for row in start.tableau]

    end = n + m  # the b column
    cost = {j: c for j, c in enumerate(objective) if c}
    z = {j: -c for j, c in cost.items()}
    for var, row in zip(basis, tableau):
        if var in cost:
            for j, a in row.items():
                z[j] = z.get(j, ZERO) + cost[var] * a

    iterations = 0
    while True:
        col = min((j for j, v in z.items() if v < 0 and j < end), default=None)
        if col is None:
            break
        pivot_row = None
        for i, row in enumerate(tableau):
            a = row.get(col)
            if a is not None and a > 0:
                ratio = row.get(end, ZERO) / a
                if (
                    pivot_row is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
        if pivot_row is None:
            ray = {col: ONE} if col < n else {}
            for var, row in zip(basis, tableau):
                if var < n and row.get(col):
                    ray[var] = -row[col]
            _certify_ray(program, cost, ray)
            raise Unbounded(f"column {col} has no limiting row")
        _pivot(tableau, z, pivot_row, col)
        basis[pivot_row] = col
        iterations += 1

    primal = {var: row[end] for var, row in zip(basis, tableau) if var < n and end in row}
    duals = {j - n: v for j, v in z.items() if n <= j < end and v}
    value = z.get(end, ZERO)
    _certify_optimum(program, cost, primal, duals, value)
    x = [primal.get(j, ZERO) for j in range(n)]
    y = [duals.get(i, ZERO) for i in range(m)]
    return LPSolution(value, x, iterations, y, tuple(basis), tuple(tableau), program)


def _program(rows, rhs, n) -> _Program:
    rhs = tuple(rhs)
    if len(rhs) != len(rows):
        raise ValueError("rhs length must match row count")
    if any(b < 0 for b in rhs):
        raise ValueError("this solver requires b >= 0")
    if any(len(row) != n for row in rows):
        raise ValueError("row width must match objective length")
    scales = tuple(
        math.lcm(b.denominator, *(a.denominator for a in row if a))
        for row, b in zip(rows, rhs)
    )
    scaled = tuple(
        tuple((j, int(a * scale)) for j, a in enumerate(row) if a)
        for row, scale in zip(rows, scales)
    )
    scaled_rhs = tuple(int(b * scale) for b, scale in zip(rhs, scales))
    return _Program(rows, rhs, n, scales, scaled, scaled_rhs)


def _pivot(tableau, z, pr, pc):
    prow = tableau[pr]
    pivot = prow[pc]
    if pivot != 1:
        inv = ONE / pivot
        for j, v in prow.items():
            prow[j] = v * inv
    entries = list(prow.items())
    for i, row in enumerate(tableau):
        factor = row.get(pc)
        if factor and i != pr:
            _subtract(row, factor, entries)
    factor = z.get(pc)
    if factor:
        _subtract(z, factor, entries)


def _subtract(row, factor, entries):
    """row -= factor * (the pivot row's nonzero ``entries``), dropping zeros."""
    for j, v in entries:
        new = row.get(j, ZERO) - factor * v
        if new:
            row[j] = new
        else:
            del row[j]


def _over_common_denominator(values):
    """``(D, {key: v * D})`` for a dict of nonzero rationals, D the lcm of their denominators."""
    d = math.lcm(*(v.denominator for v in values.values()))
    return d, {key: v.numerator * (d // v.denominator) for key, v in values.items()}


def _row_products(program, ints):
    """L_i (A v)_i for every row i, where ``ints`` holds the nonzeros of v * D."""
    return [sum(a * ints[j] for j, a in row if j in ints) for row in program.scaled]


def _certify_optimum(program, cost, primal, duals, value):
    """Weak duality in integers: x and y feasible, with c.x = b.y = value."""
    d, xs = _over_common_denominator(primal)
    e = math.lcm(*(v.denominator * program.scales[i] for i, v in duals.items()))
    us = {i: v.numerator * (e // (v.denominator * program.scales[i])) for i, v in duals.items()}
    dual = {}  # e * A^T y, as us[i] = e * y_i / L_i
    for i, u in us.items():
        for j, a in program.scaled[i]:
            dual[j] = dual.get(j, 0) + u * a
    if not (
        all(v > 0 for v in xs.values())
        and all(u > 0 for u in us.values())
        and all(ax <= b * d for ax, b in zip(_row_products(program, xs), program.scaled_rhs))
        and all(dual.get(j, 0) * c.denominator >= c.numerator * e for j, c in cost.items())
        and all(v >= 0 for j, v in dual.items() if j not in cost)
        and sum(c * primal[j] for j, c in cost.items() if j in primal) == value
        and Fraction(sum(u * program.scaled_rhs[i] for i, u in us.items()), e) == value
    ):
        raise CertificateError(f"value {value} failed its optimality certificate")


def _certify_ray(program, cost, ray):
    """x = 0 is feasible (b >= 0), so a ray d >= 0 with Ad <= 0 and c.d > 0 proves it."""
    _, ds = _over_common_denominator(ray)
    if not (
        all(v > 0 for v in ds.values())
        and all(ad <= 0 for ad in _row_products(program, ds))
        and sum(c * ray[j] for j, c in cost.items() if j in ray) > 0
    ):
        raise CertificateError("an unboundedness ray failed its certificate")
