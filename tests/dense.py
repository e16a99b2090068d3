"""Dense Fraction vectors and matrices, the reference form for tests.

catrank holds every exact vector as integer numerators over one positive
denominator per entry, and every matrix as a ``catrank.Rows`` (integer
rows, one denominator per row).  The oracles and the tests that compare
against them work on the dense form instead: ``QVector`` and ``QMatrix``
hold one ``Fraction`` per entry, and the readers below expand catrank's
results into them (``matrix``, ``vector``, ``solution``, ``chi_f``,
``chi_f2``, ``mu_bar2``).  Nothing here is imported by catrank.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence


def _fractions(entries) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in entries)


class QVector:
    """Immutable labeled vector of exact rationals."""

    __slots__ = ("entries", "labels")

    def __init__(self, entries: Sequence, labels: Sequence | None = None):
        self.entries: tuple[Fraction, ...] = _fractions(entries)
        self.labels: tuple = tuple(range(len(self.entries)) if labels is None else labels)
        if len(self.labels) != len(self.entries):
            raise ValueError("label count does not match entry count")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def at(self, label) -> Fraction:
        return self.entries[self.labels.index(label)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QVector) and self.entries == other.entries
                and self.labels == other.labels)

    def __repr__(self) -> str:
        return f"QVector({', '.join(f'{l}: {v}' for l, v in zip(self.labels, self.entries))})"


class QMatrix:
    """Immutable labeled dense matrix of exact rationals (row-major)."""

    __slots__ = ("rows", "cols", "entries", "row_labels", "col_labels")

    def __init__(self, rows: int, cols: int, entries: Sequence,
                 row_labels: Sequence | None = None, col_labels: Sequence | None = None):
        self.rows = rows
        self.cols = cols
        self.entries: tuple[Fraction, ...] = _fractions(entries)
        if len(self.entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        self.row_labels: tuple = tuple(range(rows) if row_labels is None else row_labels)
        self.col_labels: tuple = tuple(range(cols) if col_labels is None else col_labels)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], row_labels=None, col_labels=None) -> "QMatrix":
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), cols, [v for r in data for v in r], row_labels, col_labels)

    @classmethod
    def identity(cls, n: int, labels: Sequence | None = None) -> "QMatrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)], labels, labels)

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def at(self, row_label, col_label) -> Fraction:
        return self.get(self.row_labels.index(row_label), self.col_labels.index(col_label))

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "QMatrix") -> "QMatrix":
        assert self.cols == other.rows, "dimension mismatch in matrix product"
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        out = [sum(map(operator.mul, self.row(i), col), Fraction(0))
               for i in range(self.rows) for col in columns]
        return QMatrix(self.rows, other.cols, out, self.row_labels, other.col_labels)

    def mul_vec(self, v: QVector) -> QVector:
        assert self.cols == len(v), "dimension mismatch in matrix-vector product"
        return QVector([sum(map(operator.mul, self.row(i), v.entries), Fraction(0))
                        for i in range(self.rows)], self.row_labels)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.entries == QMatrix.identity(self.rows).entries

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries
                and (self.row_labels, self.col_labels) == (other.row_labels, other.col_labels))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def matrix(m) -> QMatrix:
    """The dense matrix of a ``catrank.Rows``, labelled by its labels."""
    n = len(m.rows)
    return QMatrix(n, n, [Fraction(m.get(i, j), q) for i, q in enumerate(m.dens)
                          for j in range(n)], m.labels, m.labels)


def vector(nums, dens, labels=None) -> QVector:
    """The vector nums[i] / dens[i]."""
    return QVector(list(map(Fraction, nums, dens)), labels)


def solution(rep, labels=None) -> QVector | None:
    """The particular solution of a solver report, or None."""
    return None if rep.solution is None else vector(rep.solution, rep.dens, labels)


def primitive(v) -> list[int]:
    """The rational vector v scaled to a primitive integer vector by a
    positive factor."""
    den = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    d = math.gcd(*ints) or 1
    return [x // d for x in ints]


def chi_f(rep) -> QVector:
    return QVector(rep.orbits, rep.labels)


def chi_f2(rep) -> QVector:
    return vector(rep.fixed, rep.sizes, rep.labels)


def mu_bar2(rep) -> QMatrix:
    return matrix(rep.mu_bar2)
