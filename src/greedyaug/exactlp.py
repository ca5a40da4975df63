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
f = N_i[c] != 0 becomes a new dict (p N_i - f N_r) over d_i p, reduced by
one gcd; other rows are not touched.  Between its inputs and its returned
value a solve is integer-only: it builds one Fraction, the value, and a
solution's x and y are built from the stored numerators when first read.

The pivots follow Bland's rule: the entering column is the first one with a
negative reduced cost, and the ratio test (b_i/a_i, compared by
cross-multiplying numerators) breaks ties on the smallest basis index, which
guarantees termination from any feasible basis (Bland, Math. Oper. Res.
1977).  A cold start is a start from the all-slack basis.

Warm start: ``maximize(..., start=previous)`` continues from the optimal
basis of an earlier solve over the same ``rows`` and ``rhs``.  Only the
objective differs, and the constraints alone decide which bases are primal
feasible, so the solve recomputes the reduced-cost row for the new objective
from that basis and pivots on.  The solve shares the start's row dicts
rather than copying them: a pivot builds a new dict for each row it
eliminates in (the pivot row keeps its dict, over its new denominator), and
no solve ever changes a row it did not create, so one solution can seed any
number of later solves.  A start is a solution that ``maximize`` returned,
unmodified; anything else either raises or is judged by the certificate
below.

Certificate: before returning, every solve checks weak duality in integers,
on the numerators the tableau already holds, against an integer copy of A
(row i times the lcm L_i of its denominators, with a column index, built
once at the cold start and shared along the chain of warm starts) and
independently of the rest of the tableau.  x_j = N_i[b] / d_i for the basic
columns, over the lcm of those d_i; y_i = z[n + i] / zden, the slack columns'
reduced costs over the reduced-cost row's denominator.  The checks are
x >= 0; Ax <= b on the rows a basic column meets, and b >= 0 on the others
(where Ax = 0); y >= 0; A^T y >= c; and c.x = b.y = value.  By weak duality
the value is then the optimum.  The optimum of an LP is unique, so a value
cannot depend on the basis a solve started from; only x, y and the pivot
count can.  ``Unbounded`` is checked the same way, with a ray d >= 0,
Ad <= 0, c.d > 0 (x = 0 is feasible as b >= 0).  A failed check raises
``CertificateError``: an uncertified result is never returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    columns: tuple[tuple[tuple[int, int], ...], ...]  # column j's (row i, L_i A_ij) nonzeros


@dataclass(frozen=True)
class LPSolution:
    """An optimum with its certificate (x, y), and the basis a later solve may start from.

    Frozen: its fields cannot be reassigned.  ``x`` and ``y`` are built from
    the stored numerators when first read.  A warm-started solution shares
    rows with its start: each row dict that its pivots did not rebuild is the
    start's own object, and no solve changes it.
    """

    value: Fraction
    iterations: int
    basis: tuple[int, ...]  # basic column per row; column n + i is row i's slack
    tableau: tuple[dict, ...]  # B^-1 [A | I | b], row i as int nonzeros over denominators[i]
    denominators: tuple[int, ...]
    reduced: dict  # the reduced-cost row's int nonzeros over reduced_denominator
    reduced_denominator: int
    program: _Program

    @cached_property
    def x(self) -> list[Fraction]:
        n, end = self.program.width, self.program.width + len(self.basis)
        x = [ZERO] * n
        for var, row, d in zip(self.basis, self.tableau, self.denominators):
            if var < n and end in row:
                x[var] = Fraction(row[end], d)
        return x

    @cached_property
    def y(self) -> list[Fraction]:
        n, m = self.program.width, len(self.basis)
        y = [ZERO] * m
        for j, v in self.reduced.items():
            if n <= j < n + m:
                y[j - n] = Fraction(v, self.reduced_denominator)
        return y


def maximize(objective, rows, rhs, start=None) -> LPSolution:
    """max objective.x s.t. rows.x <= rhs, x >= 0, certified; ``start`` is a
    solution that ``maximize`` returned over the same ``rows`` object and ``rhs``."""
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
        tableau, dens = list(start.tableau), list(start.denominators)

    cost = {j: c for j, c in enumerate(objective) if c}
    cden = math.lcm(*(c.denominator for c in cost.values()))
    cost = {j: c.numerator * (cden // c.denominator) for j, c in cost.items()}  # c = cost / cden
    costed = [(cost[var], row, d) for var, row, d in zip(basis, tableau, dens) if var in cost]
    zden = cden * math.lcm(*(d for _, _, d in costed))
    z = {j: -c * (zden // cden) for j, c in cost.items()}
    for c, row, d in costed:
        factor = c * (zden // (cden * d))
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
            steps = [(var, -row[col], d)
                     for var, row, d in zip(basis, tableau, dens) if var < n and row.get(col)]
            rden = math.lcm(*(d for _, _, d in steps))
            ray = {var: v * (rden // d) for var, v, d in steps}  # the ray's numerators over rden
            if col < n:
                ray[col] = rden
            _certify_ray(program, cost, ray)
            raise Unbounded(f"column {col} has no limiting row")
        z, zden = _pivot(tableau, dens, z, zden, pivot_row, col)
        basis[pivot_row] = col
        iterations += 1

    primal = [(var, row[end], d)
              for var, row, d in zip(basis, tableau, dens) if var < n and end in row]
    _certify_optimum(program, cost, cden, primal, z, zden)
    return LPSolution(Fraction(z.get(end, 0), zden), iterations, tuple(basis), tuple(tableau),
                      tuple(dens), z, zden, program)


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
    columns = [[] for _ in range(n)]
    for i, row in enumerate(scaled):
        for j, a in row:
            columns[j].append((i, a))
    return _Program(rows, rhs, n, scales, scaled, scaled_rhs, tuple(map(tuple, columns)))


def _lowest(row, d):
    """Numerators ``row`` over d > 0, divided by the gcd of d and all of them."""
    g = math.gcd(d, *row.values())
    if g == 1:
        return row, d
    return {j: v // g for j, v in row.items()}, d // g


def _pivot(tableau, dens, z, zden, pr, pc):
    """Pivot on (pr, pc), replacing the entries of ``tableau`` and ``dens`` it changes;
    returns the new reduced-cost row and its denominator.  No row dict is changed.

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
    """A new dict (p * row - factor * pivot row ``entries``) over d * p, zeros dropped,
    in lowest terms; ``row`` itself is not changed, as it may be shared."""
    row = {j: p * v for j, v in row.items()} if p != 1 else dict(row)
    for j, v in entries:
        new = row.get(j, 0) - factor * v
        if new:
            row[j] = new
        else:
            del row[j]
    return _lowest(row, d * p)


def _column_products(program, ints):
    """L_i (A v)_i for every row i, where ``ints`` holds the nonzeros of v times
    one positive denominator; only the rows that a column of v meets are visited."""
    products = [0] * len(program.scales)
    for j, v in ints.items():
        for i, a in program.columns[j]:
            products[i] += a * v
    return products


def _certify_optimum(program, cost, cden, primal, z, zden):
    """Weak duality in integers: x and y feasible, with c.x = b.y = value.

    ``cost`` holds the objective's nonzeros times ``cden``; ``primal`` holds
    (j, N_i[b], d_i) for each basic column j < n with x_j != 0; ``z`` is the
    reduced-cost row over ``zden``, so y_i = z[n + i] / zden and the value is
    z[b] / zden."""
    n, m = program.width, len(program.scales)
    scales, rhs = program.scales, program.scaled_rhs
    value = z.get(n + m, 0)
    xden = math.lcm(*(d for _, _, d in primal))
    xs = {j: v * (xden // d) for j, v, d in primal}  # x = xs / xden
    duals = {j - n: v for j, v in z.items() if n <= j < n + m}  # y = duals / zden
    yden = math.lcm(*(scales[i] for i in duals))
    by = 0  # yden * zden * b.y
    excess = [0] * n  # cden * yden * zden * (A^T y - c)
    for i, y in duals.items():
        u = y * (yden // scales[i])  # yden * zden * y_i / L_i
        by += u * rhs[i]
        u *= cden
        for j, a in program.scaled[i]:
            excess[j] += u * a
    for j, c in cost.items():
        excess[j] -= c * yden * zden
    if not (
        min(xs.values(), default=0) >= 0
        # a row that x misses has Ax = 0 <= b, as long as b >= 0
        and all(ax <= b * xden for ax, b in zip(_column_products(program, xs), rhs))
        and min(duals.values(), default=0) >= 0
        and min(excess, default=0) >= 0
        and sum(c * xs[j] for j, c in cost.items() if j in xs) * zden == value * cden * xden
        and by == value * yden
    ):
        raise CertificateError(
            f"value {Fraction(value, zden)} failed its optimality certificate")


def _certify_ray(program, cost, ray):
    """x = 0 is feasible (b >= 0), so a ray d >= 0 with Ad <= 0 and c.d > 0 proves
    it; ``ray`` holds d's nonzeros times one positive denominator."""
    if not (
        all(v > 0 for v in ray.values())
        and max(_column_products(program, ray), default=0) <= 0
        and min(program.scaled_rhs, default=0) >= 0
        and sum(c * ray[j] for j, c in cost.items() if j in ray) > 0
    ):
        raise CertificateError("an unboundedness ray failed its certificate")
