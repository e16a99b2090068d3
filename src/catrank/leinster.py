"""Weightings, coweightings, and the Euler characteristic they agree on.

A weighting solves zeta k = 1 and a coweighting solves its transpose, zeta
the hom-count matrix (Leinster 2008, The Euler characteristic of a
category).  Two routes:

  - skeletal EI: zeta in iso order is triangular with diagonal |aut x|, so
    the weighting and coweighting are unique.  On a free category they are
    the row and column sums of mu_bar2 scaled by the automorphism orders,
    read off the rows of ``moebius.class_sums`` that
    ``euler_characteristics`` shares; otherwise one back-substitution gives
    them, from the top class down for the weighting and from the bottom
    class up for the coweighting;
  - any other category: ``exactq.solve_linear``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactq import QMatrix, QVector, SolutionReport, solve_linear
from .fincat import FiniteCategory, _once, free_witness, opposite
from .moebius import class_sums, iso_order


def zeta_matrix(cat: FiniteCategory) -> QMatrix:
    """Hom-count matrix: entry (x, y) = |mor(x, y)| in object order, rows
    indexed by the source object."""
    n = cat.n_objects
    entries = [Fraction(len(cat.hom(i, j))) for i in range(n) for j in range(n)]
    labels = [str(o) for o in cat.objects]
    return QMatrix(n, n, entries, row_labels=labels, col_labels=labels)


def _skeletal_ei(cat: FiniteCategory, columns: bool) -> SolutionReport | None:
    """The unique solution of zeta k = 1 (or of its transpose) in object
    order, when cat is skeletal EI; None otherwise.

    In iso order hom(i, t) is empty unless t = i or t lies above i, so zeta
    is upper triangular with diagonal |aut i|.  It is D omega_bar2 with
    D = diag(|aut i|).  On a free category mu_bar2 = omega_bar2^-1, with
    entries h_i(1)[j] / |aut i| from ``moebius.class_sums``, so
    k_i = sum over j of h_i(1)[j] / (|aut i| |aut j|) and the transpose's
    solution is c_j = sum over i of the same terms.  Otherwise mu_bar2 is
    not the inverse, and zeta's system is solved from the top class down,
    the transpose's from the bottom class up."""
    n = cat.n_objects
    if not all(cat.is_iso(e) for x in range(n) for e in cat.hom(x, x)):
        return None
    poset = _once(cat, "iso_order", iso_order)
    if poset.size != n:
        return None
    reps = poset.reps
    if _once(cat, "free_witness", free_witness) is None:
        f, rows = class_sums(cat)
        orders = [len(fi) for fi in f]
        lcm = math.lcm(*orders)
        acc = [0] * n
        for i, hi in enumerate(rows):
            scale = lcm // orders[i]
            for j, v in hi.items():
                acc[j if columns else i] += scale * (lcm // orders[j]) * v
        w = [Fraction(v, lcm * lcm) for v in acc]
    else:
        z = [[len(cat.hom(a, b)) for b in reps] for a in reps]
        if columns:
            z = [list(col) for col in zip(*z)]
        w = [Fraction(0)] * n
        for i in (range(n) if columns else reversed(range(n))):
            # z[i][t] is 0 wherever w[t] is not solved yet
            solved = sum(z[i][t] * w[t] for t in range(n) if z[i][t] and t != i)
            w[i] = (1 - solved) / Fraction(z[i][i])
    k = [Fraction(0)] * n
    for i, x in enumerate(reps):
        k[x] = w[i]
    return SolutionReport(True, QVector(k, [str(o) for o in cat.objects]), [])


def _solve(cat: FiniteCategory) -> SolutionReport:
    return solve_linear(zeta_matrix(cat), QVector([Fraction(1)] * cat.n_objects))


def weighting(cat: FiniteCategory) -> SolutionReport:
    """A weighting assigns k^y to each object with sum_y |mor(x,y)| k^y = 1
    for every x; solved exactly, inconsistency reported in-band."""
    found = _skeletal_ei(cat, columns=False)
    return found if found is not None else _solve(cat)


def coweighting(cat: FiniteCategory) -> SolutionReport:
    """A weighting of the opposite category."""
    # skeletal and EI each hold for both or neither of cat and its opposite
    found = _skeletal_ei(cat, columns=True)
    return found if found is not None else _solve(opposite(cat))


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
