"""Exact rational scalars, dense matrices/vectors, and one exact solver.

Every invariant in this package is an exact rational; there is no floating
point mode. Scalars are fractions.Fraction (arbitrary precision, reduced,
positive denominator) and matrices are dense and row-major. Every linear
system is eliminated once, on Python integers (after Bareiss 1968), to its
reduced row echelon form, which is unique: solutions and kernels do not
depend on the order of the elimination.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence, Union

RatLike = Union[int, Fraction]


def rat_str(q: RatLike) -> str:
    """Canonical serialization: "p/q" in lowest terms with q > 0, "p" if q == 1."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _as_frac_row(row: Sequence[RatLike]) -> tuple[Fraction, ...]:
    """The entries as Fractions; entries that already are one are kept."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in row)


class QVector:
    """Immutable labeled vector of exact rationals."""

    __slots__ = ("entries", "labels")

    def __init__(self, entries: Sequence[RatLike], labels: Sequence | None = None):
        self.entries: tuple[Fraction, ...] = _as_frac_row(entries)
        if labels is None:
            labels = range(len(self.entries))
        self.labels: tuple = tuple(labels)
        if len(self.labels) != len(self.entries):
            raise ValueError("label count does not match entry count")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def at(self, label) -> Fraction:
        return self.entries[self.labels.index(label)]

    def sum(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QVector)
            and self.entries == other.entries
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{l}: {rat_str(v)}" for l, v in zip(self.labels, self.entries))
        return f"QVector({body})"

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.entries)


class QMatrix:
    """Immutable labeled dense matrix of exact rationals (row-major)."""

    __slots__ = ("rows", "cols", "entries", "row_labels", "col_labels")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Sequence[RatLike],
        row_labels: Sequence | None = None,
        col_labels: Sequence | None = None,
    ):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        self.entries: tuple[Fraction, ...] = _as_frac_row(entries)
        if len(self.entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        self.row_labels: tuple = tuple(row_labels) if row_labels is not None else tuple(range(rows))
        self.col_labels: tuple = tuple(col_labels) if col_labels is not None else tuple(range(cols))
        if len(self.row_labels) != rows or len(self.col_labels) != cols:
            raise ValueError("label count does not match dimension")
        if len(set(self.row_labels)) != rows or len(set(self.col_labels)) != cols:
            raise ValueError("duplicate labels")

    @classmethod
    def from_rows(
        cls,
        data: Sequence[Sequence[RatLike]],
        row_labels: Sequence | None = None,
        col_labels: Sequence | None = None,
    ) -> "QMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat: list[RatLike] = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat, row_labels, col_labels)

    @classmethod
    def identity(cls, n: int, labels: Sequence | None = None) -> "QMatrix":
        ent = [Fraction(int(i == j)) for i in range(n) for j in range(n)]
        return cls(n, n, ent, labels, labels)

    def get(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self.entries[i * self.cols + j]

    def at(self, row_label, col_label) -> Fraction:
        return self.get(self.row_labels.index(row_label), self.col_labels.index(col_label))

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        out = [sum(map(operator.mul, self.row(i), col), Fraction(0))
               for i in range(self.rows) for col in columns]
        return QMatrix(self.rows, other.cols, out, self.row_labels, other.col_labels)

    def mul_vec(self, v: QVector) -> QVector:
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matrix-vector product")
        out = [sum(map(operator.mul, self.row(i), v.entries), Fraction(0))
               for i in range(self.rows)]
        return QVector(out, self.row_labels)

    def is_identity(self) -> bool:
        # the diagonal is every (n + 1)-th entry; n nonzero entries leave
        # none off it
        n, e = self.rows, self.entries
        return n == self.cols and all(v == 1 for v in e[::n + 1]) and sum(map(bool, e)) == n

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(v) for v in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


class SolutionReport:
    """Outcome of solve_linear, read off one elimination: consistency, one
    particular solution and a kernel basis.

    The particular solution sets every free variable (non-pivot column of the
    RREF) to zero, and the kernel has one vector per free column, so both are
    deterministic for a given system.
    """

    __slots__ = ("consistent", "solution", "kernel", "kernel_dim")

    def __init__(self, consistent: bool, solution: QVector | None, kernel: list[QVector]):
        self.consistent = consistent
        self.solution = solution
        self.kernel = kernel
        self.kernel_dim = len(kernel)

    def __repr__(self) -> str:
        return f"SolutionReport(consistent={self.consistent}, solution={self.solution}, kernel_dim={self.kernel_dim})"


def _rref(data: list[list[RatLike]], ncols_reduce: int) -> tuple[list[list[Fraction]], list[int]]:
    """RREF over the first ncols_reduce columns; returns (rows, pivot cols).

    Rows are cleared of denominators, combined as p*row_i - a*row_r and
    divided by their gcd, so each stays a positive multiple of the row a
    rational elimination would hold; pivot rows are divided by their pivots
    at the end.
    """
    rows = []
    for row in data:
        den = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (den // v.denominator) for v in row])
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols_reduce):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(nrows):
            a = rows[i][c]
            if i != r and a:
                row = [p * x - a * y for x, y in zip(rows[i], pivot_row)]
                d = math.gcd(*row)
                rows[i] = [x // d for x in row] if d > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(x, rows[i][c]) for x in rows[i]] for i, c in enumerate(pivots)]
    return out + [[Fraction(x) for x in row] for row in rows[r:]], pivots


def solve_linear(a: QMatrix, b: QVector) -> SolutionReport:
    """Solve a x = b exactly in one elimination of [a | b]: consistency, a
    particular solution and a basis of the kernel of a."""
    if a.rows != len(b):
        raise ValueError("solve_linear: right-hand side length does not match row count")
    n = a.cols
    aug, pivots = _rref([list(a.row(i)) + [b[i]] for i in range(a.rows)], n)
    row_of = {c: r for r, c in enumerate(pivots)}
    kernel = [QVector([-aug[row_of[c]][f] if c in row_of else Fraction(c == f) for c in range(n)],
                      a.col_labels) for f in range(n) if f not in row_of]
    # inconsistent iff a row reduces to (0 ... 0 | nonzero)
    if any(row[n] for row in aug[len(pivots):]):
        return SolutionReport(False, None, kernel)
    x = [aug[row_of[c]][n] if c in row_of else Fraction(0) for c in range(n)]
    return SolutionReport(True, QVector(x, a.col_labels), kernel)
