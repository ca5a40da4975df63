import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedyaug import exactlp
from conftest import replace

F = Fraction


def sparse(rows):
    """The ``{column: coefficient}`` nonzeros of dense rows, as ``maximize`` takes them."""
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def assert_certified(objective, rows, rhs, sol):
    """Re-check x and y with dense sums over rows, rhs and objective alone."""
    x, y = sol.x, sol.y
    assert len(x) == len(objective) and len(y) == len(rows)
    assert all(v >= 0 for v in x) and all(v >= 0 for v in y)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) <= b
    for j, c in enumerate(objective):
        assert sum(row[j] * v for row, v in zip(rows, y)) >= c
    assert sum(c * v for c, v in zip(objective, x)) == sol.value
    assert sum(b * v for b, v in zip(rhs, y)) == sol.value


def test_basic_two_variable_lp():
    objective, rows, rhs = [F(3), F(2)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)]
    sol = exactlp.maximize(objective, sparse(rows), rhs)
    assert sol.value == 10
    assert sol.x == [F(2), F(2)]
    assert sol.y == [F(2), F(1)]
    assert_certified(objective, rows, rhs, sol)


def test_zero_objective_is_immediate():
    sol = exactlp.maximize([F(0)], sparse([[F(1)]]), [F(5)])
    assert sol.value == 0 and sol.iterations == 0


def test_fractional_optimum_is_exact():
    sol = exactlp.maximize(
        [F(1), F(1)],
        sparse([[F(3), F(1)], [F(1), F(3)]]),
        [F(1), F(1)],
    )
    assert sol.value == F(1, 2)
    assert sol.x == [F(1, 4), F(1, 4)]


def test_degenerate_cycling_instance_terminates():
    # Classic degenerate instance on which naive most-improving pivoting cycles.
    sol = exactlp.maximize(
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        sparse([
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ]),
        [F(0), F(0), F(1)],
    )
    assert sol.value == F(1, 20)


def test_unbounded_raises():
    with pytest.raises(exactlp.Unbounded):
        exactlp.maximize([F(1)], sparse([[F(-1)]]), [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        exactlp.maximize([F(1)], [[F(1)]], [F(-1)])


def test_equalities_as_inequality_pairs():
    # max x1 + x2 subject to x1 = x2 (two rows) and x1 + x2 <= 3
    sol = exactlp.maximize(
        [F(1), F(1)],
        sparse([[F(1), F(-1)], [F(-1), F(1)], [F(1), F(1)]]),
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
    sol = exactlp.maximize(objective, sparse(rows), rhs)
    assert sol.value == vertex_enumeration_optimum(objective, rows, rhs)
    assert_certified(objective, rows, rhs, sol)


def outcome(objective, rows, rhs, start=None):
    try:
        return exactlp.maximize(objective, rows, rhs, start=start)
    except exactlp.Unbounded:
        return None


@settings(max_examples=200, deadline=None)
@given(bounded_lps(), st.booleans(), st.data())
def test_warm_chain_matches_cold_solves(lp, keep_bounding_row, data):
    """Objectives in sequence, each solve warm from the last optimum; some LPs are unbounded."""
    _, rows, rhs = lp
    if not keep_bounding_row:
        bound = rows.index([F(1)] * len(rows[0]))
        rows, rhs = rows[:bound] + rows[bound + 1:], rhs[:bound] + rhs[bound + 1:]
    width, lp_rows = len(lp[0]), sparse(rows)
    objectives = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                                    min_size=1, max_size=5))
    start, chain = None, []
    for objective in objectives:
        cold, warm = outcome(objective, lp_rows, rhs), outcome(objective, lp_rows, rhs, start)
        assert (cold is None) == (warm is None)
        if warm is not None:
            assert warm.value == cold.value
            assert_certified(objective, rows, rhs, cold)
            assert_certified(objective, rows, rhs, warm)
            if start is not None and not warm.iterations:  # x inherited, not proved again
                assert warm.primal is start.primal and warm.x == start.x
            start = warm
            chain.append((warm, snapshot(warm)))
    for solution, before in chain:  # rows are shared along the chain, never changed
        assert snapshot(solution) == before


def snapshot(solution):
    """Copies of the stored rows, and x and y built afresh from them."""
    fresh = replace(solution)  # x and y are built when first read
    return ([dict(row) for row in solution.tableau], solution.denominators, fresh.x, fresh.y)


def test_warm_solves_share_rows_and_change_none():
    """Pivots with p == 1 and with p != 1: a warm solve replaces each row it
    eliminates in and shares every other row dict, the pivot row's included."""
    rows, rhs = sparse([[F(1), F(1)], [F(1), F(0)], [F(0), F(2)]]), [F(4), F(2), F(3)]
    chain = [exactlp.maximize([F(0), F(0)], rows, rhs)]  # the all-slack tableau
    before = [snapshot(chain[0])]
    # x0 enters at row 1 (p = 1), then x1 enters at row 2 (p = 2); row 0 meets both
    for objective, (pivot_row, col, p) in (([F(1), F(0)], (1, 0, 1)),
                                           ([F(0), F(1)], (2, 1, 2))):
        start = chain[-1]
        warm = exactlp.maximize(objective, rows, rhs, start=start)
        assert (warm.iterations, warm.basis[pivot_row], warm.denominators[pivot_row]) == (1, col, p)
        replaced = [i for i, (new, old) in enumerate(zip(warm.tableau, start.tableau))
                    if new is not old]
        assert replaced == [0]
        chain.append(warm)
        before.append(snapshot(warm))
    assert [snapshot(solution) for solution in chain] == before
    assert [solution.value for solution in chain] == [0, 2, F(3, 2)]


def test_resolving_from_own_optimum_takes_no_pivots():
    objective, rows, rhs = [F(1), F(1)], sparse([[F(3), F(1)], [F(1), F(3)]]), [F(1), F(1)]
    cold = exactlp.maximize(objective, rows, rhs)
    warm = exactlp.maximize(objective, rows, rhs, start=cold)
    assert cold.iterations > 0 and warm.iterations == 0
    assert (warm.value, warm.x, warm.y) == (cold.value, cold.x, cold.y)


BOXED_ROWS, BOXED_RHS = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]], [F(2), F(3), F(4)]


def test_zero_pivot_solve_reuses_its_starts_proved_x():
    """A warm solve that makes no pivot ends on its start's basis and rows, so
    it shares the start's proved x; a solve that pivots proves its own."""
    rows, rhs = sparse(BOXED_ROWS), BOXED_RHS
    cold = exactlp.maximize([F(1), F(1)], rows, rhs)
    same = exactlp.maximize([F(1), F(0)], rows, rhs, start=cold)
    moved = exactlp.maximize([F(0), F(0)], rows, rhs)  # the all-slack basis, x = 0
    moved = exactlp.maximize([F(1), F(0)], rows, rhs, start=moved)
    assert (cold.iterations, same.iterations, moved.iterations) == (2, 0, 1)
    assert same.primal is cold.primal and same.x == cold.x == [F(2), F(2)]
    assert moved.primal is not cold.primal and moved.x == [F(2), F(0)]
    assert same.value == moved.value == 2


def test_edited_start_row_on_a_zero_cost_column_cannot_move_x():
    """The b entry of x1's row is edited after the solve; x1 has zero cost in
    the next objective, so neither value equality can see the edit.  The
    zero-pivot warm solve must raise or return an x that is feasible and
    attains its value, never the edited x = (2, 102)."""
    rows, rhs = sparse(BOXED_ROWS), BOXED_RHS
    sol = exactlp.maximize([F(1), F(1)], rows, rhs)
    assert sol.x == [F(2), F(2)]
    row = sol.basis.index(1)
    sol.tableau[row][2 + len(rows)] += 100 * sol.denominators[row]
    try:
        warm = exactlp.maximize([F(1), F(0)], rows, rhs, start=sol)
    except exactlp.CertificateError:
        return
    assert warm.iterations == 0 and warm.value == 2
    assert warm.x != [F(2), F(102)]
    assert_certified([F(1), F(0)], BOXED_ROWS, rhs, warm)


def test_start_from_other_rows_refused():
    rows, rhs = sparse([[F(1), F(1)], [F(1), F(0)]]), [F(4), F(2)]
    sol = exactlp.maximize([F(3), F(2)], rows, rhs)
    equal_copy = [dict(row) for row in rows]  # same entries, another object
    for other_rows, other_rhs in ((equal_copy, rhs), (rows, [F(5), F(2)])):
        with pytest.raises(ValueError, match="other rows"):
            exactlp.maximize([F(1), F(1)], other_rows, other_rhs, start=sol)
    with pytest.raises(ValueError, match="objective length"):
        exactlp.maximize([F(1)], rows, rhs, start=sol)
    assert exactlp.maximize([F(1), F(1)], rows, rhs, start=sol).value == 4


@pytest.mark.parametrize("edits", [
    {(0, 4): 3}, {(1, 4): 3},  # b column: x moves off the optimum
    {(0, 2): 2}, {(1, 3): 2},  # slack columns: y no longer matches
    {(0, 2): 0, (0, 3): 1},  # y = (0, 5): b.y = c.x = 10, but A^T y < c
], ids=["b-row0", "b-row1", "slack-row0", "slack-row1", "dual-infeasible"])
def test_tampered_start_raises_instead_of_returning_a_wrong_value(edits):
    objective, rows, rhs = [F(3), F(2)], sparse([[F(1), F(1)], [F(1), F(0)]]), [F(4), F(2)]
    sol = exactlp.maximize(objective, rows, rhs)
    assert sol.basis == (1, 0) and sol.y == [F(2), F(1)]
    for (row, column), entry in edits.items():
        sol.tableau[row][column] = entry
    with pytest.raises(exactlp.CertificateError):
        exactlp.maximize(objective, rows, rhs, start=sol)


def test_tampered_start_cannot_fake_unboundedness():
    rows, rhs = sparse([[F(1), F(1)], [F(1), F(0)]]), [F(4), F(2)]
    sol = exactlp.maximize([F(0), F(0)], rows, rhs)  # all-slack basis, no pivots
    for row in sol.tableau:
        row[0] = -1  # column 0 now looks unlimited by every row
    with pytest.raises(exactlp.CertificateError):
        exactlp.maximize([F(1), F(0)], rows, rhs, start=sol)


def test_start_edited_to_hold_a_fraction_raises():
    """A start holds int numerators only: one edited to hold a Fraction makes
    the solve raise rather than return a value."""
    objective, rows, rhs = [F(3), F(2)], sparse([[F(1), F(1)], [F(1), F(0)]]), [F(4), F(2)]
    sol = exactlp.maximize(objective, rows, rhs)
    sol.tableau[0][4] = F(3)
    with pytest.raises((TypeError, exactlp.CertificateError)):
        exactlp.maximize(objective, rows, rhs, start=sol)


def certify(x, y, value, objective=(F(1), F(1)), rows=((F(1), F(1)), (F(0), F(1))),
            rhs=(F(2), F(3)), scaled_rhs=None):
    """Run the optimality certificate on a hand-set x, y and value, as the
    numerators a solve would hand it; ``scaled_rhs`` replaces the program's L_i b_i."""
    n, m = len(objective), len(rows)
    program = exactlp._program(sparse(rows), rhs, n)
    if scaled_rhs is not None:
        program = program._replace(scaled_rhs=scaled_rhs)
    cden = math.lcm(*(c.denominator for c in objective))
    cost = {j: int(c * cden) for j, c in enumerate(objective) if c}
    primal = [(j, v.numerator, v.denominator) for j, v in enumerate(x) if v]
    zden = math.lcm(value.denominator, *(v.denominator for v in y))
    z = {n + i: int(v * zden) for i, v in enumerate(y) if v}
    z[n + m] = int(value * zden)
    proved = exactlp._certify_primal(program, primal)
    exactlp._certify_optimum(program, cost, cden, proved, z, zden)


UNCOSTED = dict(objective=(F(1), F(0)), rows=((F(1), F(-1)), (F(1), F(1))), rhs=(F(1), F(3)))


@pytest.mark.parametrize("x, y, value, lp", [
    ((F(2), F(0)), (F(1), F(0)), F(2), {}),
    ((F(1), F(1)), (F(1), F(0)), F(2), {}),
    ((F(2), F(1)), (F(1, 2), F(1, 2)), F(2), UNCOSTED),
])
def test_optimum_certificate_passes(x, y, value, lp):
    certify(x, y, value, **lp)


@pytest.mark.parametrize("x, y, value, lp", [
    ((F(3), F(-1)), (F(1), F(0)), F(2), {}),  # only x1 < 0 fails
    ((F(2), F(1)), (F(1), F(1, 3)), F(3), {}),  # x0 + x1 = 3 > 2 is the only failure
    # x1 = 0, so no basic column meets row 1; there b = -1 < 0 = Ax
    ((F(2), F(0)), (F(1), F(0)), F(2), dict(scaled_rhs=(2, -1))),
    ((F(2), F(0)), (F(2), F(-2, 3)), F(2), {}),  # A^T y >= c and b.y = 2 hold
    ((F(2), F(0)), (F(1, 2), F(1, 3)), F(2), {}),  # A^T y = (1/2, 5/6) < c
    ((F(1), F(0)), (F(1), F(0)), F(1), UNCOSTED),  # (A^T y)_1 = -1 < 0 on a zero cost
    ((F(1), F(0)), (F(1), F(0)), F(2), {}),  # c.x = 1, though b.y = 2
    ((F(2), F(0)), (F(1), F(1)), F(2), {}),  # b.y = 5, though c.x = 2
], ids=["x>=0", "Ax<=b", "Ax<=b-row-no-basic-column-meets", "y>=0", "ATy>=c",
        "ATy>=c-zero-cost", "cx=value", "by=value"])
def test_optimum_certificate_catches_each_clause(x, y, value, lp):
    with pytest.raises(exactlp.CertificateError):
        certify(x, y, value, **lp)


@pytest.mark.parametrize("rhs", [[F(1)], [F(1), F(1), F(1)]], ids=["short", "long"])
def test_rhs_of_another_length_refused(rhs):
    with pytest.raises(ValueError) as excinfo:
        exactlp.maximize([F(1), F(1)], [{0: F(1)}, {1: F(1)}], rhs)
    assert str(excinfo.value) == "rhs length must match row count"


@pytest.mark.parametrize("column", [2, -1], ids=["column-n", "column-minus-1"])
def test_row_naming_a_column_outside_the_objective_is_refused(column):
    with pytest.raises(ValueError, match=r"column outside 0\.\.1"):
        exactlp._program([{0: F(1)}, {column: F(1)}], [F(1), F(1)], 2)
