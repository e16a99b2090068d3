"""Weightings, coweightings, and the Euler characteristic they agree on.

A weighting solves zeta k = 1 and a coweighting solves its transpose, zeta
the hom-count matrix (Leinster 2008, The Euler characteristic of a
category).  Two routes:

  - EI: zeta on the class representatives, in iso order, is triangular
    with diagonal |aut x|, so one back-substitution solves it, from the top
    class down for the weighting and from the bottom class up for the
    coweighting.  Members of a class have equal rows and columns, so the
    report is the one ``exactq.solve_linear`` would give, written down;
  - any other category: ``exactq.solve_linear`` on zeta or its transpose.
"""

from __future__ import annotations

from fractions import Fraction

from .exactq import QMatrix, QVector, SolutionReport, solve_linear
from .fincat import FiniteCategory, ei_witness
from .moebius import iso_order


def zeta_matrix(cat: FiniteCategory) -> QMatrix:
    """Hom-count matrix: entry (x, y) = |mor(x, y)| in object order, rows
    indexed by the source object."""
    n = cat.n_objects
    entries = [Fraction(len(cat.hom(i, j))) for i in range(n) for j in range(n)]
    labels = [str(o) for o in cat.objects]
    return QMatrix(n, n, entries, row_labels=labels, col_labels=labels)


def _ei(cat: FiniteCategory, columns: bool) -> SolutionReport:
    """``solve_linear``'s report on zeta k = 1 (or on its transpose) of an
    EI category, without eliminating.

    Each class representative (its least-index object) is a pivot, since
    the representatives' columns are independent and every other member's
    column repeats its representative's.  The pivots carry the unique
    solution of the system on the representatives, the class table
    ``iso_order(cat).homs``, upper triangular with diagonal |aut i|: its
    rows from the top class down, or its columns from the bottom class up,
    on Python integers while each division by |aut i| is exact.  Every
    other member m is a free variable set to 0, with kernel vector
    e_m - e_rep."""
    poset = iso_order(cat)
    k, homs = poset.size, poset.homs
    table = list(zip(*homs)) if columns else homs
    w: list = [0] * k
    for i in (range(k) if columns else reversed(range(k))):
        # every t related to i is solved before it; w[i] itself is still 0
        rest = 1 - sum(h * wt for h, wt in zip(table[i], w) if h)
        d = homs[i][i]
        w[i] = rest // d if rest % d == 0 else Fraction(rest, d)
    n = cat.n_objects
    x, rep_of = [0] * n, list(range(n))
    for r, wi, members in zip(poset.reps, w, poset.members):
        x[r] = wi
        for o in members:
            rep_of[cat.obj_index(o)] = r
    labels = [str(o) for o in cat.objects]
    zeros, kernel = [Fraction(0)] * n, []
    for m, r in enumerate(rep_of):
        if m != r:
            v = zeros.copy()
            v[m], v[r] = Fraction(1), Fraction(-1)
            kernel.append(QVector(v, labels))
    return SolutionReport(True, QVector(x, labels), kernel)


def _solve(cat: FiniteCategory, columns: bool) -> SolutionReport:
    if ei_witness(cat) is None:
        return _ei(cat, columns)
    z = zeta_matrix(cat)
    if columns:
        # the zeta matrix of the opposite category
        z = QMatrix.from_rows(list(zip(*z.to_lists())), z.col_labels, z.row_labels)
    return solve_linear(z, QVector([Fraction(1)] * cat.n_objects))


def weighting(cat: FiniteCategory) -> SolutionReport:
    """A weighting assigns k^y to each object with sum_y |mor(x,y)| k^y = 1
    for every x; solved exactly, inconsistency reported in-band."""
    return _solve(cat, columns=False)


def coweighting(cat: FiniteCategory) -> SolutionReport:
    """A weighting of the opposite category."""
    return _solve(cat, columns=True)


def chi_L(cat: FiniteCategory, w: SolutionReport | None = None,
          cw: SolutionReport | None = None):
    """Common sum of a weighting and a coweighting; the string "undefined"
    when either fails to exist.  The value does not depend on which solution
    the solver picked: both sums agree and every kernel vector sums to 0,
    as asserted here.  A caller that has already solved for the weighting w
    or the coweighting cw of cat passes it in, so nothing is solved again."""
    if w is None:
        w = weighting(cat)
    if cw is None:
        cw = coweighting(cat)
    if not w.consistent or not cw.consistent:
        return "undefined"
    total = w.solution.sum()
    assert total == cw.solution.sum()
    assert all(v.sum() == 0 for v in w.kernel + cw.kernel)
    return total


def _iter_cells(cells):
    if isinstance(cells, dict):
        cells = cells["cells"]
    for cell in cells:
        if isinstance(cell, dict):
            yield cell["dim"], cell["base"]
        else:
            dim, base = cell
            yield dim, base


def weighting_from_cells(cat: FiniteCategory, cells) -> tuple[QVector, bool]:
    """Candidate weighting from a cell census: k^y = sum over cells based at y
    of (-1)^dim.  Returns the vector and whether zeta . k = 1 holds.

    cells: {"cells": [{"dim": n, "base": object}, ...]} or (dim, base) pairs.
    """
    n = cat.n_objects
    k = [Fraction(0)] * n
    index = {str(o): i for i, o in enumerate(cat.objects)}
    for dim, base in _iter_cells(cells):
        if str(base) not in index:
            raise ValueError(f"cell based at unknown object: {base!r}")
        k[index[str(base)]] += Fraction(-1) ** dim
    vec = QVector(k, labels=[str(o) for o in cat.objects])
    z = zeta_matrix(cat)
    image = z.mul_vec(vec)
    ok = all(image[i] == 1 for i in range(n))
    return vec, ok
