"""Rational Gauss-Jordan elimination, the reference for catrank.exactq.

Every operation is done in Fraction arithmetic and every pivot row is
normalised as soon as it is chosen, so this shares no code with the integer
route in ``catrank.exactq._rref``; its containers are the dense ``QMatrix``
and ``QVector`` of the test helper ``dense``.  ``reorder`` permutes a
matrix into another label order for tests that compare matrices indexed
differently.
"""

from __future__ import annotations

from fractions import Fraction

from dense import QMatrix, QVector


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


def reorder(m: QMatrix, row_labels, col_labels) -> QMatrix:
    """m with its rows and columns permuted into the given label order."""
    ri = [m.row_labels.index(l) for l in row_labels]
    ci = [m.col_labels.index(l) for l in col_labels]
    return QMatrix(len(ri), len(ci), [m.get(i, j) for i in ri for j in ci],
                   row_labels, col_labels)
