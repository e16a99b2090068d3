import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import rref_oracle
from catrank.exactq import (
    QMatrix,
    QVector,
    rat_str,
    solve_linear,
)
from rref_oracle import mat_invert


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
    a = QMatrix.from_rows([[2, 1], [1, 2]])
    rep = solve_linear(a, QVector([1, 1]))
    assert rep.consistent
    assert rep.kernel_dim == 0
    assert rep.solution.entries == (Fraction(1, 3), Fraction(1, 3))
    assert rep.solution.sum() == Fraction(2, 3)


def test_solve_identity():
    a = QMatrix.identity(3)
    b = QVector([5, Fraction(-1, 2), 0])
    rep = solve_linear(a, b)
    assert rep.consistent and rep.solution.entries == b.entries


def test_solve_inconsistent_zeta_A():
    # the four-object category whose weighting system has no solution:
    # rows force k4 = 0 (row2 - row1) and k4 = 1 (row 4) simultaneously
    zeta = QMatrix.from_rows(
        [
            [2, 2, 1, 1],
            [2, 2, 1, 2],
            [1, 1, 1, 1],
            [0, 0, 0, 1],
        ]
    )
    rep = solve_linear(zeta, QVector([1, 1, 1, 1]))
    assert not rep.consistent
    assert rep.solution is None


def test_solve_underdetermined_free_vars_zeroed():
    # x + y = 1 with one free column: particular solution must zero the free var
    a = QMatrix.from_rows([[1, 1]])
    rep = solve_linear(a, QVector([1]))
    assert rep.consistent
    assert rep.kernel_dim == 1
    assert rep.solution.entries == (Fraction(1), Fraction(0))
    basis = rep.kernel
    assert len(basis) == 1
    assert a.mul_vec(basis[0]).entries == (Fraction(0),)


def test_solve_empty_system():
    rep = solve_linear(QMatrix(0, 0, []), QVector([]))
    assert rep.consistent
    assert rep.kernel_dim == 0
    assert rep.solution.entries == ()


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(QMatrix.identity(2), QVector([1, 2, 3]))


def test_matrix_reorder_round_trip():
    a = QMatrix.from_rows([[1, 2], [3, 4]], row_labels=["r0", "r1"], col_labels=["c0", "c1"])
    b = rref_oracle.reorder(a, ["r1", "r0"], ["c1", "c0"])
    assert b.get(0, 0) == 4 and b.get(1, 1) == 1
    assert rref_oracle.reorder(b, ["r0", "r1"], ["c0", "c1"]) == a


def test_labels_validated():
    with pytest.raises(ValueError):
        QVector([1, 2], labels=["a"])
    with pytest.raises(ValueError):
        QVector([1, 2], labels=["a", "a"])
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
        rep = solve_linear(a, QVector([0] * n))
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
    b = QVector(bvals)
    rep = solve_linear(a, b)
    if rep.consistent:
        assert a.mul_vec(rep.solution).entries == b.entries
    else:
        assert rep.solution is None


def _random_system(rng):
    """A seeded rows x cols system: small integers or rationals with mixed
    denominators, often with rows copied as combinations of earlier rows so
    that singular, rank-deficient and inconsistent systems turn up."""
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
        rep, ref = solve_linear(a, b), rref_oracle.solve_linear(a, b)
        assert rep.consistent == ref.consistent
        assert rep.solution == ref.solution
        assert rep.kernel == rref_oracle.kernel_basis(a)
        assert rep.kernel_dim == ref.kernel_dim
        for v in rep.kernel:
            assert not any(a.mul_vec(v))
        if rep.consistent:
            assert a.mul_vec(rep.solution).entries == b.entries
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
    # solving H x = e_j for every j gives the columns of the integral inverse
    for n in (1, 4, 8):
        h = QMatrix.from_rows([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
        columns = []
        for j in range(n):
            e_j = QVector([int(i == j) for i in range(n)])
            rep, ref = solve_linear(h, e_j), rref_oracle.solve_linear(h, e_j)
            assert rep.consistent and ref.consistent and rep.kernel == []
            assert rep.solution == ref.solution
            columns.append(rep.solution.entries)
        inv = QMatrix.from_rows(list(zip(*columns)))
        assert inv == mat_invert(h)
        assert inv.is_integral() and h.mul(inv).is_identity()
