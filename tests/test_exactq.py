import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dense
import rref_oracle
from catrank import ratio
from catrank.exactq import _rref, rat_str, solve_linear, sum_ratios
from dense import QMatrix, QVector
from rref_oracle import mat_invert


def _integral(a: QMatrix, b: QVector) -> tuple[list[list[int]], list[int]]:
    """Each row of [a | b] times the lcm of its denominators: a system on
    integers with the same solutions and kernel."""
    rows, rhs = [], []
    for i in range(a.rows):
        row = a.row(i) + (b[i],)
        den = math.lcm(*(v.denominator for v in row))
        *ints, last = (int(v * den) for v in row)
        rows.append(ints)
        rhs.append(last)
    return rows, rhs


def _solve(a: QMatrix, b: QVector):
    return solve_linear(*_integral(a, b), a.cols)


def test_rat_str_round_trip():
    cases = [Fraction(1, 2), Fraction(-1, 2), Fraction(5), Fraction(0), Fraction(-7, 3),
             Fraction(100, 4)]
    for q in cases:
        s = rat_str(q)
        assert Fraction(s) == q
        if q.denominator == 1:
            assert "/" not in s
        else:
            assert s.endswith(f"/{q.denominator}")


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**4))
def test_ratio_is_rat_str_of_the_fraction(p, q):
    assert ratio(p, q) == rat_str(Fraction(p, q))
    assert sum_ratios([p, 1], [q, 3]) == Fraction(p, q) + Fraction(1, 3)


def test_is_identity():
    assert QMatrix.identity(0).is_identity() and QMatrix.identity(3).is_identity()
    for rows in ([[1, 0], [0, 2]], [[1, 1], [0, 1]], [[1, 0], [Fraction(1, 2), 1]],
                 [[0, 1], [1, 0]], [[1, 0, 0], [0, 1, 0]], [[1], [0]]):
        assert not QMatrix.from_rows(rows).is_identity(), rows


def test_mat_invert_2x2():
    a = QMatrix.from_rows([[2, 1], [1, 2]])
    b = mat_invert(a)
    assert b == QMatrix.from_rows(
        [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]]
    )
    assert a.mul(b).is_identity()
    assert b.mul(a).is_identity()


def test_mat_invert_identity():
    for n in range(4):
        i_n = QMatrix.identity(n)
        assert mat_invert(i_n) == i_n


def test_mat_invert_singular():
    a = QMatrix.from_rows([[1, 1], [1, 1]])
    assert mat_invert(a) == "singular"


def test_mat_invert_empty():
    a = QMatrix(0, 0, [])
    inv = mat_invert(a)
    assert isinstance(inv, QMatrix)
    assert inv.rows == 0 and inv.cols == 0


def test_mat_invert_non_square():
    with pytest.raises(ValueError):
        mat_invert(QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_solve_weighting_section8_shape():
    rep = solve_linear([[2, 1], [1, 2]], [1, 1], 2)
    assert rep.consistent
    assert rep.kernel_dim == 0
    assert (rep.solution, rep.dens) == ([1, 1], [3, 3])
    assert sum_ratios(rep.solution, rep.dens) == Fraction(2, 3)


def test_solve_identity():
    # x = (5, -1/2, 0): the second row scaled by 2 to stay on integers
    rep = solve_linear([[1, 0, 0], [0, 2, 0], [0, 0, 1]], [5, -1, 0], 3)
    assert rep.consistent and (rep.solution, rep.dens) == ([5, -1, 0], [1, 2, 1])


def test_solution_denominators_are_positive_and_lowest():
    # pivots that reduce to negative values: -2 x = 4, -6 y = -4
    rep = solve_linear([[-2, 0], [0, -6]], [4, -4], 2)
    assert (rep.solution, rep.dens) == ([-2, 2], [1, 3])


def test_rref_stays_on_integers():
    rows, pivots = _rref([[2, 1, 1], [1, 2, 1], [3, 3, 2]], 2)
    assert pivots == [0, 1]
    assert all(type(v) is int for row in rows for v in row)
    # pivot row r is the rational RREF row times its pivot
    for r, c in enumerate(pivots):
        assert [Fraction(v, rows[r][c]) for v in rows[r]] == \
            [Fraction(int(j == c)) for j in range(2)] + [Fraction(1, 3)]


def test_solve_inconsistent_zeta_A():
    # the four-object category whose weighting system has no solution:
    # rows force k4 = 0 (row2 - row1) and k4 = 1 (row 4) simultaneously
    zeta = [
        [2, 2, 1, 1],
        [2, 2, 1, 2],
        [1, 1, 1, 1],
        [0, 0, 0, 1],
    ]
    rep = solve_linear(zeta, [1, 1, 1, 1], 4)
    assert not rep.consistent
    assert rep.solution is None and rep.dens is None


def test_solve_underdetermined_free_vars_zeroed():
    # x + y = 1 with one free column: particular solution must zero the free var
    rep = solve_linear([[1, 1]], [1], 2)
    assert rep.consistent
    assert rep.kernel_dim == 1
    assert (rep.solution, rep.dens) == ([1, 0], [1, 1])
    assert rep.kernel == [[-1, 1]]


def test_solve_empty_system():
    rep = solve_linear([], [], 0)
    assert rep.consistent
    assert rep.kernel_dim == 0
    assert rep.solution == []


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1]], [1, 2, 3], 2)


def test_matrix_reorder_round_trip():
    a = QMatrix.from_rows([[1, 2], [3, 4]], row_labels=["r0", "r1"], col_labels=["c0", "c1"])
    b = rref_oracle.reorder(a, ["r1", "r0"], ["c1", "c0"])
    assert b.get(0, 0) == 4 and b.get(1, 1) == 1
    assert rref_oracle.reorder(b, ["r0", "r1"], ["c0", "c1"]) == a


def test_labels_validated():
    with pytest.raises(ValueError):
        QVector([1, 2], labels=["a"])
    with pytest.raises(ValueError):
        QMatrix(2, 2, [1, 2, 3])


rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@given(st.integers(min_value=1, max_value=5), st.data())
def test_random_invertible_round_trip(n, data):
    # random integer matrices; skip the singular ones
    ent = data.draw(
        st.lists(
            st.integers(min_value=-6, max_value=6), min_size=n * n, max_size=n * n
        )
    )
    a = QMatrix(n, n, ent)
    inv = mat_invert(a)
    if inv == "singular":
        rep = solve_linear([ent[i * n:(i + 1) * n] for i in range(n)], [0] * n, n)
        assert rep.kernel_dim > 0
    else:
        assert a.mul(inv).is_identity()
        assert inv.mul(a).is_identity()


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4), st.data())
def test_solve_consistency_property(rows, cols, data):
    ent = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    a = QMatrix(rows, cols, ent)
    bvals = data.draw(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=rows, max_size=rows)
    )
    rep = solve_linear([ent[i * cols:(i + 1) * cols] for i in range(rows)], bvals, cols)
    if rep.consistent:
        assert a.mul_vec(dense.solution(rep)).entries == QVector(bvals).entries
    else:
        assert rep.solution is None


def _random_system(rng):
    """A seeded rows x cols system: small integers or rationals with mixed
    denominators, often with rows copied as combinations of earlier rows so
    that singular, rank-deficient and inconsistent systems turn up.  The
    solver gets it through ``_integral``, the oracle as it is."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    rational = rng.random() < 0.5

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        if rational:
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 10)))
        return Fraction(rng.randint(-3, 3))

    data = []
    for _ in range(rows):
        if data and rng.random() < 0.35:
            f, g = entry(), entry()
            r1, r2 = rng.choice(data), rng.choice(data)
            data.append([f * x + g * y for x, y in zip(r1, r2)])
        else:
            data.append([entry() for _ in range(cols)])
    a = QMatrix(rows, cols, [v for row in data for v in row],
                [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)])
    return a, QVector([entry() for _ in range(rows)], [f"r{i}" for i in range(rows)])


def test_elimination_matches_rational_oracle():
    rng = random.Random(1968)
    seen = {"inconsistent": 0, "kernel": 0, "singular": 0, "inverse": 0,
            "rectangular": 0, "empty": 0, "mixed denominators": 0}
    for _ in range(600):
        a, b = _random_system(rng)
        rep, ref = _solve(a, b), rref_oracle.solve_linear(a, b)
        assert rep.consistent == ref.consistent
        assert dense.solution(rep, a.col_labels) == ref.solution
        assert rep.kernel == [dense.primitive(v) for v in rref_oracle.kernel_basis(a)]
        assert rep.kernel_dim == ref.kernel_dim
        for v in rep.kernel:
            assert math.gcd(*v) == 1
            assert not any(a.mul_vec(QVector(v)))
        if rep.consistent:
            assert a.mul_vec(dense.solution(rep)).entries == b.entries
        seen["inconsistent"] += not rep.consistent
        seen["kernel"] += rep.kernel_dim > 0
        seen["rectangular"] += a.rows != a.cols
        seen["mixed denominators"] += any(
            len({v.denominator for v in a.row(i)} - {1}) > 1 for i in range(a.rows))
        if a.rows == a.cols:
            seen["empty"] += a.rows == 0
            seen["singular" if rep.kernel_dim else "inverse"] += 1
    assert min(seen.values()) >= 5, seen


def test_elimination_keeps_large_entries_exact():
    # Hilbert matrices: every entry a rational with its own denominator;
    # solving H x = e_j for every j, each row scaled to integers, gives the
    # columns of the integral inverse
    for n in (1, 4, 8):
        h = QMatrix.from_rows([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
        columns = []
        for j in range(n):
            e_j = QVector([int(i == j) for i in range(n)])
            rep, ref = _solve(h, e_j), rref_oracle.solve_linear(h, e_j)
            assert rep.consistent and ref.consistent and rep.kernel == []
            assert dense.solution(rep) == ref.solution
            columns.append(dense.solution(rep).entries)
        inv = QMatrix.from_rows(list(zip(*columns)))
        assert inv == mat_invert(h)
        assert inv.is_integral() and h.mul(inv).is_identity()
