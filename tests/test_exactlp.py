import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedyaug import exactlp

F = Fraction


def test_basic_two_variable_lp():
    sol = exactlp.maximize(
        [F(3), F(2)],
        [[F(1), F(1)], [F(1), F(0)]],
        [F(4), F(2)],
    )
    assert sol.value == 10
    assert sol.x == [F(2), F(2)]


def test_zero_objective_is_immediate():
    sol = exactlp.maximize([F(0)], [[F(1)]], [F(5)])
    assert sol.value == 0 and sol.iterations == 0


def test_fractional_optimum_is_exact():
    sol = exactlp.maximize(
        [F(1), F(1)],
        [[F(3), F(1)], [F(1), F(3)]],
        [F(1), F(1)],
    )
    assert sol.value == F(1, 2)
    assert sol.x == [F(1, 4), F(1, 4)]


def test_degenerate_cycling_instance_terminates():
    # Classic degenerate instance on which naive most-improving pivoting cycles.
    sol = exactlp.maximize(
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ],
        [F(0), F(0), F(1)],
    )
    assert sol.value == F(1, 20)


def test_unbounded_raises():
    with pytest.raises(exactlp.Unbounded):
        exactlp.maximize([F(1)], [[F(-1)]], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        exactlp.maximize([F(1)], [[F(1)]], [F(-1)])


def test_equalities_as_inequality_pairs():
    # max x1 + x2 subject to x1 = x2 (two rows) and x1 + x2 <= 3
    sol = exactlp.maximize(
        [F(1), F(1)],
        [[F(1), F(-1)], [F(-1), F(1)], [F(1), F(1)]],
        [F(0), F(0), F(3)],
    )
    assert sol.value == 3
    assert sol.x == [F(3, 2), F(3, 2)]


def _solve_square(matrix, rhs):
    """x with matrix . x == rhs by Fraction Gaussian elimination, or None if singular."""
    size = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * p for a, p in zip(aug[r], aug[col])]
    return [aug[r][-1] / aug[r][r] for r in range(size)]


def vertex_enumeration_optimum(objective, rows, rhs):
    """max c.x over Ax <= b, x >= 0 as the best basic feasible solution of [A | I].

    Tries every choice of m basic columns; needs a bounded, nonempty region.
    """
    n, m = len(objective), len(rows)
    columns = [[row[j] for row in rows] for j in range(n)]
    columns += [[F(int(i == s)) for i in range(m)] for s in range(m)]
    best = None
    for basic in itertools.combinations(range(n + m), m):
        values = _solve_square([[columns[j][i] for j in basic] for i in range(m)], rhs)
        if values is None or any(v < 0 for v in values):
            continue
        value = sum(objective[j] * v for j, v in zip(basic, values) if j < n)
        best = value if best is None else max(best, value)
    return best


entries = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(3, 2), F(2)])


@st.composite
def bounded_lps(draw):
    """At most 3 columns and 4 rows, b >= 0 with zeros, and a bounding sum-of-x row."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
    rows.insert(draw(st.integers(0, len(rows))), [F(1)] * n)
    rhs = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(5, 2), F(4)]),
                        min_size=len(rows), max_size=len(rows)))
    objective = draw(st.lists(entries, min_size=n, max_size=n))
    return objective, rows, rhs


@settings(max_examples=300, deadline=None)
@given(bounded_lps())
# Degenerate: x1 enters at ratio 0, and the optimum x = (0, 1) needs the
# second row's slack to re-enter the basis; random draws rarely need that.
@example(([F(3, 2), F(2)], [[F(1), F(1)], [F(2), F(-2)]], [F(1), F(0)]))
def test_matches_vertex_enumeration(lp):
    objective, rows, rhs = lp
    sol = exactlp.maximize(objective, rows, rhs)
    assert sol.value == vertex_enumeration_optimum(objective, rows, rhs)
    assert len(sol.x) == len(objective) and all(v >= 0 for v in sol.x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, sol.x)) <= b
    assert sum(c * v for c, v in zip(objective, sol.x)) == sol.value
