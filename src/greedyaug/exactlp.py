"""Sparse, warm-startable, certified exact simplex: max c.x s.t. Ax <= b, x >= 0.

Requires b >= 0, so the all-slack basis is feasible and no phase 1 is needed
(the flow objective always builds such programs).  The tableau
B^-1 [A | I | b] keeps one dict of nonzeros per row, with b in column n + m;
the flow models have about 2.5% nonzero entries.

Pivoting is in integers (Edmonds 1967, Bareiss 1968): every row, the
reduced-cost row included, is a dict of int numerators N_i over one int
denominator d_i > 0, kept in lowest terms (gcd(d_i, N_i) = 1).  A cold row
is L_i [A_i | e_i | b_i] over L_i, L_i the lcm of the row's denominators.
A pivot on (r, c) makes the pivot row N_r over p = N_r[c] > 0 (in lowest
terms, as N_r holds d_r at its basic column), and each row with
f = N_i[c] != 0 becomes (p N_i - f N_r) over d_i p, reduced by one gcd;
other rows are not touched.  Fractions are built only for the returned
value, x and y.

The pivots follow Bland's rule: the entering column is the first one with a
negative reduced cost, and the ratio test (b_i/a_i, compared by
cross-multiplying numerators) breaks ties on the smallest basis index, which
guarantees termination from any feasible basis (Bland, Math. Oper. Res.
1977).  A cold start is a start from the all-slack basis.

Warm start: ``maximize(..., start=previous)`` continues from the optimal
basis of an earlier solve over the same ``rows`` and ``rhs``.  Only the
objective differs, and the constraints alone decide which bases are primal
feasible, so the solve recomputes the reduced-cost row for the new objective
from that basis and pivots on.  A start's tableau is copied, never changed,
so one solution can seed any number of later solves.  A start whose rows
hold entries that are not ints (only an edited solution has them) has those
rows rescaled to ints over a larger denominator as it is copied, and the
certificate below then judges whatever the solve finds.

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
from itertools import chain
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
    tableau: tuple[dict, ...]  # B^-1 [A | I | b], row i as int nonzeros over denominators[i]
    denominators: tuple[int, ...]
    program: _Program


def maximize(objective, rows, rhs, start=None) -> LPSolution:
    """max objective.x s.t. rows.x <= rhs, x >= 0, certified; ``start`` is an
    earlier solution over the same ``rows`` object and ``rhs`` to continue from."""
    n, m = len(objective), len(rows)
    end = n + m  # the b column
    if start is None:
        program = _program(rows, rhs, n)
        basis = list(range(n, end))
        tableau, dens = [dict(row) for row in program.scaled], list(program.scales)
        for i, (row, b) in enumerate(zip(tableau, program.scaled_rhs)):
            row[n + i] = dens[i]
            if b:
                row[end] = b
    else:
        program = start.program
        if program.rows is not rows or program.rhs != tuple(rhs):
            raise ValueError("start comes from a solve over other rows")
        if n != program.width:
            raise ValueError("objective length must match row width")
        basis = list(start.basis)
        tableau, dens = list(map(dict, start.tableau)), list(start.denominators)
        if not {int}.issuperset(map(type, chain.from_iterable(map(dict.values, tableau)))):
            for i, row in enumerate(tableau):
                tableau[i], dens[i] = _integral(row, dens[i])

    cost = {j: c for j, c in enumerate(objective) if c}
    costed = [(cost[var], row, d) for var, row, d in zip(basis, tableau, dens) if var in cost]
    zden = math.lcm(*(c.denominator for c in cost.values()),
                    *(c.denominator * d for c, _, d in costed))
    z = {j: -c.numerator * (zden // c.denominator) for j, c in cost.items()}
    for c, row, d in costed:
        factor = c.numerator * (zden // (c.denominator * d))
        for j, a in row.items():
            z[j] = z.get(j, 0) + factor * a
    z, zden = _lowest({j: v for j, v in z.items() if v}, zden)

    iterations = 0
    while True:
        col = min((j for j, v in z.items() if v < 0 and j < end), default=None)
        if col is None:
            break
        pivot_row = None  # Bland's ratio test: b_i / a_i compared by cross-multiplying
        for i, row in enumerate(tableau):
            a = row.get(col)
            if a is not None and a > 0:
                b = row.get(end, 0)
                if (
                    pivot_row is None
                    or b * best_a < best_b * a
                    or (b * best_a == best_b * a and basis[i] < basis[pivot_row])
                ):
                    best_a, best_b, pivot_row = a, b, i
        if pivot_row is None:
            ray = {col: ONE} if col < n else {}
            for var, row, d in zip(basis, tableau, dens):
                if var < n and row.get(col):
                    ray[var] = Fraction(-row[col], d)
            _certify_ray(program, cost, ray)
            raise Unbounded(f"column {col} has no limiting row")
        z, zden = _pivot(tableau, dens, z, zden, pivot_row, col)
        basis[pivot_row] = col
        iterations += 1

    primal = {var: Fraction(row[end], d)
              for var, row, d in zip(basis, tableau, dens) if var < n and end in row}
    duals = {j - n: Fraction(v, zden) for j, v in z.items() if n <= j < end}
    value = Fraction(z.get(end, 0), zden)
    _certify_optimum(program, cost, primal, duals, value)
    x = [primal.get(j, ZERO) for j in range(n)]
    y = [duals.get(i, ZERO) for i in range(m)]
    return LPSolution(value, x, iterations, y, tuple(basis), tuple(tableau), tuple(dens), program)


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


def _integral(row, d):
    """An edited start's row over d, whose entries are not all ints, rescaled
    to int numerators; the certificate then judges the solve's result."""
    row = {j: Fraction(v) for j, v in row.items() if v}
    scale = math.lcm(*(v.denominator for v in row.values()))
    return _lowest({j: int(v * scale) for j, v in row.items()}, d * scale)


def _lowest(row, d):
    """Numerators ``row`` over d > 0, divided by the gcd of d and all of them."""
    g = math.gcd(d, *row.values())
    if g == 1:
        return row, d
    return {j: v // g for j, v in row.items()}, d // g


def _pivot(tableau, dens, z, zden, pr, pc):
    """Pivot on (pr, pc) in place; returns the new reduced-cost row and its denominator.

    The pivot row N_r becomes N_r over p = N_r[pc], and every row i with
    f = N_i[pc] != 0 becomes (p N_i - f N_r) over d_i p.  N_r holds d_r at its
    basic column, so gcd(p, N_r) = gcd(d_r, N_r) = 1 keeps the pivot row in
    lowest terms."""
    entries = list(tableau[pr].items())
    p = dens[pr] = tableau[pr][pc]
    for i, row in enumerate(tableau):
        factor = row.get(pc)
        if factor and i != pr:
            tableau[i], dens[i] = _eliminate(row, dens[i], factor, entries, p)
    factor = z.get(pc)
    if factor:
        return _eliminate(z, zden, factor, entries, p)
    return z, zden


def _eliminate(row, d, factor, entries, p):
    """(p * row - factor * pivot row ``entries``) over d * p, zeros dropped, in lowest terms."""
    if p != 1:
        row = {j: p * v for j, v in row.items()}
    for j, v in entries:
        new = row.get(j, 0) - factor * v
        if new:
            row[j] = new
        else:
            del row[j]
    return _lowest(row, d * p)


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
