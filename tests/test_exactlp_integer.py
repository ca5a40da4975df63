"""The exact LP's integer tableau: every row, int numerators over one positive denominator."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import greedyaug as ga
from greedyaug import exactlp
from test_exactlp import bounded_lps, entries, outcome, sparse

F = Fraction


def assert_integer_rows(sol):
    """Int nonzeros over an int d > 0 in lowest terms; row i is 1 at its basic column
    and 0 at every other basic column (the rows are B^-1 [A | I | b])."""
    assert len(sol.tableau) == len(sol.denominators) == len(sol.basis)
    for i, (row, d) in enumerate(zip(sol.tableau, sol.denominators)):
        assert type(d) is int and d > 0
        assert all(type(v) is int and v != 0 for v in row.values())
        assert math.gcd(d, *row.values()) == 1
        assert row[sol.basis[i]] == d
        assert not any(var in row for var in sol.basis if var != sol.basis[i])


@settings(max_examples=150, deadline=None)
@given(bounded_lps(), st.data())
def test_every_solve_of_a_warm_chain_keeps_integer_rows(lp, data):
    objective, rows, rhs = lp
    width, rows = len(objective), sparse(rows)
    objectives = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                                    min_size=1, max_size=5))
    start = None
    for objective in objectives:
        sol = outcome(objective, rows, rhs, start)
        if sol is not None:
            assert_integer_rows(sol)
            start = sol


def test_cold_rows_are_the_scaled_constraints():
    rows, rhs = sparse([[F(1, 2), F(1, 3)], [F(2), F(0)]]), [F(1), F(4)]
    sol = exactlp.maximize([F(0), F(0)], rows, rhs)  # no pivots: the all-slack tableau
    assert sol.tableau == ({0: 3, 1: 2, 2: 6, 4: 6}, {0: 2, 3: 1, 4: 4})
    assert sol.denominators == (6, 1)


def test_staircase_sweep_keeps_integer_rows(monkeypatch):
    solve, solutions = exactlp.maximize, []

    def spy(objective, rows, rhs, start=None):
        solutions.append(solve(objective, rows, rhs, start=start))
        return solutions[-1]

    monkeypatch.setattr(exactlp, "maximize", spy)
    inst = ga.make_lower_bound_instance(2, 2)
    for mask in range(1, 1 << len(inst.sinks)):  # the empty selection needs no solve
        ga.evaluate_objective(inst, mask)
    assert len(solutions) == (1 << len(inst.sinks)) - 1
    for sol in solutions:
        assert_integer_rows(sol)
