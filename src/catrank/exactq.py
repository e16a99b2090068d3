"""Exact rationals as integers over positive denominators, and one exact
solver.

Every invariant in this package is an exact rational; there is no floating
point mode.  A scalar is a fractions.Fraction (arbitrary precision, reduced,
positive denominator).  A vector is its integer numerators with one positive
denominator per entry, and a matrix is a ``catrank.Rows``: integer rows,
one denominator per row.  ``catrank.ratio`` writes one entry in lowest
terms, and ``rat_str`` a scalar.  Every linear system is integral here and
is eliminated once, on Python integers (after Bareiss 1968), to its reduced
row echelon form, which is unique: solutions and kernels do not depend on
the order of the elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import ratio


def rat_str(q) -> str:
    """``catrank.ratio`` of an int or a Fraction."""
    return ratio(q.numerator, q.denominator)


def sum_ratios(nums: Sequence[int], dens: Sequence[int]) -> Fraction:
    """The sum of nums[i] / dens[i], over one common denominator."""
    den = math.lcm(*dens)
    return Fraction(sum(p * (den // q) for p, q in zip(nums, dens)), den)


class SolutionReport:
    """Outcome of solve_linear, read off one elimination: consistency, one
    particular solution x[c] = solution[c] / dens[c] in lowest terms and a
    kernel basis of primitive integer vectors.

    The particular solution sets every free variable (non-pivot column of the
    RREF) to zero, and the kernel has one vector per free column, positive
    there, so both are deterministic for a given system.
    """

    __slots__ = ("consistent", "solution", "dens", "kernel", "kernel_dim")

    def __init__(self, consistent: bool, solution: list[int] | None,
                 dens: list[int] | None, kernel: list[list[int]]):
        self.consistent = consistent
        self.solution = solution
        self.dens = dens
        self.kernel = kernel
        self.kernel_dim = len(kernel)

    def __repr__(self) -> str:
        return f"SolutionReport(consistent={self.consistent}, kernel_dim={self.kernel_dim})"


def _rref(rows: list[list[int]], ncols_reduce: int) -> tuple[list[list[int]], list[int]]:
    """RREF over the first ncols_reduce columns, on integers; returns (rows,
    pivot cols).

    Rows are combined as p*row_i - a*row_r and divided by their gcd, so
    each stays a multiple of the row a rational elimination would hold:
    pivot row r is that row times its pivot, rows[r][pivots[r]], and the
    rows past the pivots are zero in the reduced columns.
    """
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
    return rows, pivots


def solve_linear(a: Sequence[Sequence[int]], b: Sequence[int], cols: int) -> SolutionReport:
    """Solve a x = b exactly, a given as integer rows of cols entries, in one
    elimination of [a | b]: consistency, a particular solution and a basis
    of the kernel of a."""
    if len(a) != len(b):
        raise ValueError("solve_linear: right-hand side length does not match row count")
    aug, pivots = _rref([list(row) + [v] for row, v in zip(a, b)], cols)
    row_of = {c: r for r, c in enumerate(pivots)}
    scale = math.lcm(*(aug[r][c] for r, c in enumerate(pivots)))
    kernel = []
    for f in range(cols):
        if f not in row_of:
            # x[c] = -aug[r][f] / aug[r][c] at each pivot c, 1 at f, times scale
            v = [-aug[row_of[c]][f] * (scale // aug[row_of[c]][c]) if c in row_of
                 else scale * (c == f) for c in range(cols)]
            d = math.gcd(*v)
            kernel.append([x // d for x in v])
    # inconsistent iff a row reduces to (0 ... 0 | nonzero)
    if any(row[cols] for row in aug[len(pivots):]):
        return SolutionReport(False, None, None, kernel)
    x, dens = [0] * cols, [1] * cols
    for r, c in enumerate(pivots):
        p, q = aug[r][cols], aug[r][c]  # x[c] = p / q, put in lowest terms
        d = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
        x[c], dens[c] = p // d, q // d
    return SolutionReport(True, x, dens, kernel)
