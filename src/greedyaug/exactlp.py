"""Dense exact-rational simplex for small LPs: max c.x s.t. Ax <= b, x >= 0.

Requires b >= 0, so the all-slack basis is feasible and no phase-1 is needed
(the flow objective always builds such programs).  Pivoting follows Bland's
rule: the entering column is the first one with a negative reduced cost, and
the ratio test breaks ties on the smallest basis index, which guarantees
termination (Bland, Math. Oper. Res. 1977).  On the flow objective's LPs the
negative reduced costs at a pivot were always equal (every mask of 409 flow
instances: 6,711 LPs, 211,259 pivots), so a most-improving rule would pick
the same columns.  Everything is Fraction arithmetic; zero entries are
skipped during elimination since these tableaus are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Unbounded(ArithmeticError):
    """The objective increases without limit along a feasible ray."""


@dataclass
class LPSolution:
    value: Fraction
    x: list[Fraction]
    iterations: int


def maximize(objective, rows, rhs) -> LPSolution:
    n = len(objective)
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("rhs length must match row count")
    for b in rhs:
        if b < 0:
            raise ValueError("this solver requires b >= 0")

    width = n + m + 1
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if len(row) != n:
            raise ValueError("row width must match objective length")
        full = list(row) + [ZERO] * m + [b]
        full[n + i] = ONE
        tableau.append(full)
    zrow = [-c for c in objective] + [ZERO] * (m + 1)
    basis = list(range(n, n + m))

    iterations = 0
    while True:
        col = next((j for j in range(width - 1) if zrow[j] < 0), None)
        if col is None:
            break

        pivot_row = None
        best_ratio = None
        leaving = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < leaving)
                ):
                    best_ratio = ratio
                    pivot_row = i
                    leaving = basis[i]
        if pivot_row is None:
            raise Unbounded(f"column {col} has no limiting row")

        _pivot(tableau, zrow, pivot_row, col)
        basis[pivot_row] = col
        iterations += 1

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return LPSolution(value=zrow[-1], x=x, iterations=iterations)


def _pivot(tableau, zrow, pr, pc):
    prow = tableau[pr]
    pivot = prow[pc]
    if pivot != 1:
        inv = ONE / pivot
        for j, v in enumerate(prow):
            if v:
                prow[j] = v * inv
    nonzero = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(tableau):
        if i == pr:
            continue
        factor = row[pc]
        if factor:
            for j in nonzero:
                row[j] -= factor * prow[j]
    factor = zrow[pc]
    if factor:
        for j in nonzero:
            zrow[j] -= factor * prow[j]
