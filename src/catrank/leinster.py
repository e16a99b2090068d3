"""Weightings, coweightings, and the Euler characteristic they agree on.

A weighting solves zeta k = 1 and a coweighting solves its transpose, zeta
the hom-count matrix (Leinster 2008, The Euler characteristic of a
category).  Two routes:

  - EI: zeta on the class representatives is the class table's ``homs``
    (``fincat.iso_order``), triangular with diagonal |aut x|, so one
    back-substitution solves it (``moebius._ei``), from the top class down
    for the weighting and from the bottom class up for the coweighting.
    Members of a class have equal rows and columns, so the report is the
    one ``exactq.solve_linear`` would give, written down;
  - any other category: ``exactq.solve_linear`` on zeta or its transpose.
"""

from __future__ import annotations

import operator

from . import Rows, _once
from .exactq import SolutionReport, solve_linear, sum_ratios
from .fincat import FiniteCategory, _name, ei_witness, iso_order
from .moebius import _ei


def zeta_matrix(cat: FiniteCategory) -> Rows:
    """Hom-count matrix: entry (x, y) = |mor(x, y)| in object order, rows
    indexed by the source object, labelled by str of the objects."""
    n = cat.n_objects
    rows = [tuple(len(cat.hom(i, j)) for j in range(n)) for i in range(n)]
    return Rows([str(o) for o in cat.objects], rows, [1] * n)


def _solve(cat: FiniteCategory, columns: bool) -> SolutionReport:
    """``solve_linear``'s report on zeta k = 1 (or on its transpose), for an
    EI category written down: each class representative (its least-index
    object) is a pivot carrying ``_ei``'s value, as the representatives'
    columns are independent and each other member's repeats its class's;
    each other member m is free, set to 0, with kernel vector e_m - e_rep."""
    n = cat.n_objects
    if ei_witness(cat) is not None:
        z = zeta_matrix(cat).rows
        if columns:
            z = list(zip(*z))  # the zeta matrix of the opposite category
        return solve_linear(z, [1] * n, n)
    poset = iso_order(cat)
    x, dens, rep_of = [0] * n, [1] * n, list(range(n))
    for r, wi, qi, members in zip(poset.reps, *_ei(poset, columns), poset.members):
        x[r], dens[r] = wi, qi
        for o in members:
            rep_of[cat.obj_index(o)] = r
    kernel = []
    for m, r in enumerate(rep_of):
        if m != r:
            v = [0] * n
            v[m], v[r] = 1, -1
            kernel.append(v)
    return SolutionReport(True, x, dens, kernel)


@_once
def weighting(cat: FiniteCategory) -> SolutionReport:
    """A weighting assigns k^y to each object with sum_y |mor(x,y)| k^y = 1
    for every x; solved exactly, once per category, inconsistency in-band."""
    return _solve(cat, columns=False)


@_once
def coweighting(cat: FiniteCategory) -> SolutionReport:
    """A weighting of the opposite category, solved once per category."""
    return _solve(cat, columns=True)


def chi_L(cat: FiniteCategory):
    """Common sum of a weighting and a coweighting; the string "undefined"
    when either fails to exist.  The value does not depend on which solution
    the solver picked: both sums agree and every kernel vector sums to 0,
    as asserted here.  Both reports are read from the category's memo."""
    w, cw = weighting(cat), coweighting(cat)
    if not w.consistent or not cw.consistent:
        return "undefined"
    total = sum_ratios(w.solution, w.dens)
    assert total == sum_ratios(cw.solution, cw.dens)
    assert all(sum(v) == 0 for v in w.kernel + cw.kernel)
    return total


def _iter_cells(cells):
    """(dim, object id) of each cell record; a record is refused, by name,
    unless it is a dict or a (dim, base) pair, its dim a nonnegative int
    (not a bool), as ``GCWComplex`` asks, and its base an object id as
    ``from_json`` reads one.  The census is a list (or tuple) of records or
    a dict document holding their list under "cells"."""
    if isinstance(cells, dict) and isinstance(cells.get("cells"), list):
        cells = cells["cells"]
    elif isinstance(cells, dict) or not isinstance(cells, (list, tuple)):
        raise ValueError("cell census must be a list of records or a dict with "
                         f'their list under "cells": {cells!r}')
    for cell in cells:
        pair = (cell.get("dim"), cell.get("base")) if isinstance(cell, dict) else cell
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ValueError(f"cell record must be a dict or a (dim, base) pair: {cell!r}")
        dim, base = pair
        if type(dim) is not int or dim < 0:
            raise ValueError(f"cell dimension must be a nonnegative integer: {cell!r}")
        if (name := _name(base)) is None:
            raise ValueError(f"cell base must be a string or a finite number: {cell!r}")
        yield dim, name


def weighting_from_cells(cat: FiniteCategory, cells) -> tuple[list[int], bool]:
    """Candidate weighting from a cell census: k^y = sum over cells based at y
    of (-1)^dim, in object order.  Returns k and whether zeta . k = 1 holds,
    checked on integers.

    cells: {"cells": [{"dim": n, "base": object}, ...]} or (dim, base) pairs.
    """
    k = [0] * cat.n_objects
    index = {str(o): i for i, o in enumerate(cat.objects)}
    for dim, base in _iter_cells(cells):
        if base not in index:
            raise ValueError(f"cell based at unknown object: {base!r}")
        k[index[base]] += -1 if dim % 2 else 1
    ok = all(sum(map(operator.mul, row, k)) == 1 for row in zeta_matrix(cat).rows)
    return k, ok
