"""Exact rational scalars, dense matrices/vectors, and Gaussian elimination.

Every invariant in this package is an exact rational; there is no floating
point mode. Scalars are fractions.Fraction (arbitrary precision, reduced,
positive denominator), matrices are dense and row-major, and elimination
pivots on the first nonzero entry in column order so results are
deterministic across runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

RatLike = Union[int, Fraction]


def rat(num: int, den: int = 1) -> Fraction:
    """Reduced rational with positive denominator; raises on den == 0."""
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    return Fraction(num, den)


def rat_str(q: RatLike) -> str:
    """Canonical serialization: "p/q" in lowest terms with q > 0, "p" if q == 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return rat(int(num), int(den))
    return Fraction(int(s))


def _as_frac_row(row: Sequence[RatLike]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in row)


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

    @property
    def length(self) -> int:
        return len(self.entries)

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

    def __hash__(self):
        return hash((self.entries, self.labels))

    def __repr__(self) -> str:
        body = ", ".join(f"{l}: {rat_str(v)}" for l, v in zip(self.labels, self.entries))
        return f"QVector({body})"

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.entries)

    def reorder(self, new_labels: Sequence) -> "QVector":
        idx = [self.labels.index(l) for l in new_labels]
        return QVector([self.entries[i] for i in idx], new_labels)


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
        out: list[Fraction] = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.get(k, j) for k in range(self.cols)), Fraction(0)))
        return QMatrix(self.rows, other.cols, out, self.row_labels, other.col_labels)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            return self.mul(other)
        if isinstance(other, QVector):
            return self.mul_vec(other)
        return NotImplemented

    def mul_vec(self, v: QVector) -> QVector:
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matrix-vector product")
        out = [
            sum((self.get(i, k) * v[k] for k in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        ]
        return QVector(out, self.row_labels)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.get(i, j) == int(i == j) for i in range(self.rows) for j in range(self.cols)
        )

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.entries)

    def reorder(self, new_row_labels: Sequence, new_col_labels: Sequence) -> "QMatrix":
        """Same matrix with rows/columns permuted into the given label order."""
        ri = [self.row_labels.index(l) for l in new_row_labels]
        ci = [self.col_labels.index(l) for l in new_col_labels]
        ent = [self.get(i, j) for i in ri for j in ci]
        return QMatrix(len(ri), len(ci), ent, new_row_labels, new_col_labels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries, self.row_labels, self.col_labels))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(v) for v in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


class SolutionReport:
    """Outcome of solve_linear: consistency, one particular solution, kernel size.

    The particular solution fixes all free variables (non-pivot columns of the
    RREF) to zero, so it is deterministic for a given system.
    """

    __slots__ = ("consistent", "solution", "kernel_dim")

    def __init__(self, consistent: bool, solution: QVector | None, kernel_dim: int):
        self.consistent = consistent
        self.solution = solution
        self.kernel_dim = kernel_dim

    def __repr__(self) -> str:
        return f"SolutionReport(consistent={self.consistent}, solution={self.solution}, kernel_dim={self.kernel_dim})"


def _rref(data: list[list[Fraction]], ncols_reduce: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place RREF over the first ncols_reduce columns; returns (data, pivot cols).

    Pivot choice: first row (top to bottom) with a nonzero entry in the current
    column. Exact arithmetic, so no stability concern; the rule is fixed for
    determinism only.
    """
    nrows = len(data)
    pivots: list[int] = []
    r = 0
    for c in range(ncols_reduce):
        pr = None
        for i in range(r, nrows):
            if data[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        pv = data[r][c]
        data[r] = [v / pv for v in data[r]]
        for i in range(nrows):
            if i != r and data[i][c] != 0:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return data, pivots


def mat_invert(a: QMatrix):
    """Exact inverse of a square matrix, or the string "singular"."""
    if a.rows != a.cols:
        raise ValueError("mat_invert requires a square matrix")
    n = a.rows
    if n == 0:
        return QMatrix(0, 0, [], a.col_labels, a.row_labels)
    aug = [list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    aug, pivots = _rref(aug, n)
    if len(pivots) < n:
        return "singular"
    inv = [row[n:] for row in aug]
    # inverse maps the row space back: labels swap
    return QMatrix(n, n, [v for row in inv for v in row], a.col_labels, a.row_labels)


def solve_linear(a: QMatrix, b: QVector) -> SolutionReport:
    """Solve a x = b exactly; report consistency, a particular solution, kernel dim."""
    if a.rows != len(b):
        raise ValueError("solve_linear: right-hand side length does not match row count")
    aug = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    aug, pivots = _rref(aug, a.cols)
    rank = len(pivots)
    # inconsistent iff a row reduces to (0 ... 0 | nonzero)
    for i in range(rank, a.rows):
        if aug[i][a.cols] != 0:
            return SolutionReport(False, None, a.cols - rank)
    x = [Fraction(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][a.cols]
    return SolutionReport(True, QVector(x, a.col_labels), a.cols - rank)


def kernel_basis(a: QMatrix) -> list[QVector]:
    """Basis of the right kernel, one vector per free column of the RREF."""
    aug = [list(a.row(i)) for i in range(a.rows)]
    aug, pivots = _rref(aug, a.cols)
    free = [c for c in range(a.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -aug[r][fc]
        basis.append(QVector(v, a.col_labels))
    return basis
