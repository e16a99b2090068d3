"""Weightings, coweightings, and the Euler characteristic they agree on."""

from __future__ import annotations

from fractions import Fraction

from .exactq import QMatrix, QVector, kernel_basis, solve_linear
from .fincat import FiniteCategory, opposite


def zeta_matrix(cat: FiniteCategory) -> QMatrix:
    """Hom-count matrix: entry (x, y) = |mor(x, y)| in object order, rows
    indexed by the source object."""
    n = cat.n_objects
    entries = [Fraction(len(cat.hom(i, j))) for i in range(n) for j in range(n)]
    labels = [str(o) for o in cat.objects]
    return QMatrix(n, n, entries, row_labels=labels, col_labels=labels)


class WeightingResult:
    """Solvability of zeta . k = 1 together with one particular solution.

    The solution zeroes every free variable, so it is deterministic; kernel_dim
    counts the remaining degrees of freedom (solutions form an affine space)."""

    __slots__ = ("exists", "weighting", "kernel_dim")

    def __init__(self, exists: bool, weighting: QVector | None, kernel_dim: int):
        self.exists = exists
        self.weighting = weighting
        self.kernel_dim = kernel_dim

    def __repr__(self) -> str:
        return f"WeightingResult(exists={self.exists}, kernel_dim={self.kernel_dim})"


def weighting(cat: FiniteCategory) -> WeightingResult:
    """A weighting assigns k^y to each object with sum_y |mor(x,y)| k^y = 1
    for every x; solved exactly, inconsistency reported in-band."""
    z = zeta_matrix(cat)
    ones = QVector([Fraction(1)] * cat.n_objects)
    rep = solve_linear(z, ones)
    if not rep.consistent:
        return WeightingResult(False, None, rep.kernel_dim)
    w = QVector(list(rep.solution), labels=z.col_labels)
    return WeightingResult(True, w, rep.kernel_dim)


def coweighting(cat: FiniteCategory) -> WeightingResult:
    return weighting(opposite(cat))


def chi_L(cat: FiniteCategory, w: WeightingResult | None = None,
          cw: WeightingResult | None = None):
    """Common sum of a weighting and a coweighting; the string "undefined"
    when either fails to exist.  The value does not depend on which solution
    the solver picked, which is asserted here two ways.  A caller that has
    already solved for the weighting w or the coweighting cw of cat passes
    it in, so the system is not solved again."""
    if w is None:
        w = weighting(cat)
    if cw is None:
        cw = coweighting(cat)
    if not w.exists or not cw.exists:
        return "undefined"
    total = w.weighting.sum()
    assert total == cw.weighting.sum()
    if w.kernel_dim > 0:
        # shifting along any kernel vector must not move the sum
        z = zeta_matrix(cat)
        for v in kernel_basis(z):
            shifted = sum(w.weighting[i] + v[i] for i in range(len(v)))
            assert shifted == total
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
    for dim, base in _iter_cells(cells):
        if str(base) not in map(str, cat.objects):
            raise ValueError(f"cell based at unknown object: {base!r}")
        k[cat.obj_index(base)] += Fraction(-1) ** dim
    vec = QVector(k, labels=[str(o) for o in cat.objects])
    z = zeta_matrix(cat)
    image = z.mul_vec(vec)
    ok = all(image[i] == 1 for i in range(n))
    return vec, ok
