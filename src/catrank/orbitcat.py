"""Equivariant cell censuses: chi_G, fixed-point Euler characteristics and
the omega relation of the orbit category, all read off the subgroup lattice,
the table of marks and the hom-set sizes of ``grouptheory._maps``, each
built once per group by ``_once``.  No category is built here;
``fincat.orbit_category`` builds Or(G) itself."""

from __future__ import annotations

from . import DEFAULT_CAP, _once
from .grouptheory import (
    FiniteGroup,
    SubgroupClass,
    _is_int,
    _maps,
    build_group,
    marks,
    subgroup_classes,
)


@_once
def _class_of(g: FiniteGroup) -> dict[frozenset[int], int]:
    """The class index of every subgroup of g, read off the lattice once."""
    return {c: i for i, cls in enumerate(subgroup_classes(g)) for c in cls.conjugates}


class GCWComplex:
    """A finite equivariant cell census: dimensions and stabilizer classes.

    Attaching maps are irrelevant to every invariant computed here, so only
    the list of (dim, stabilizer class index) pairs is kept, with the signed
    cell count per stabilizer class, taken once."""

    __slots__ = ("group", "classes", "cells", "counts")

    def __init__(self, group: FiniteGroup, cells):
        self.group = group
        self.classes = subgroup_classes(group)
        norm = []
        for dim, stab in cells:
            if not _is_int(dim) or dim < 0:
                raise ValueError(f"cell dimension must be a nonnegative integer: {dim!r}")
            norm.append((dim, self._class_index(stab)))
        self.cells = tuple(norm)
        counts = [0] * len(self.classes)
        for dim, ci in self.cells:
            counts[ci] += -1 if dim & 1 else 1
        self.counts: tuple[int, ...] = tuple(counts)

    def _class_index(self, stab) -> int:
        i = _class_of(self.group).get(frozenset(stab))
        if i is None:
            raise ValueError(f"stabilizer is not a subgroup: {sorted(stab)!r}")
        return i

    def __repr__(self) -> str:
        return f"GCWComplex(|G|={self.group.order}, {len(self.cells)} cells)"


def gcw_from_json(doc: dict, cap: int = DEFAULT_CAP) -> GCWComplex:
    """Parse {"group": spec, "cells": [{"dim": n, "stabilizer": [elements]}]}.

    Raises CapExceeded, before any subgroup is computed, when the group's
    order is above cap."""
    if not isinstance(doc, dict) or "group" not in doc or "cells" not in doc:
        raise ValueError("cell complex document needs 'group' and 'cells'")
    group = build_group(doc["group"], cap)
    if not isinstance(doc["cells"], list):
        raise ValueError("cells must be a JSON array")
    cells = []
    for rec in doc["cells"]:
        if not isinstance(rec, dict) or "dim" not in rec or "stabilizer" not in rec:
            raise ValueError(f"malformed cell record: {rec!r}")
        stab = rec["stabilizer"]
        if not isinstance(stab, list) or not all(_is_int(e) for e in stab):
            raise ValueError(f"stabilizer must be a list of element indices: {stab!r}")
        cells.append((rec["dim"], stab))
    return GCWComplex(group, cells)


def chi_G(x: GCWComplex) -> tuple[int, ...]:
    """Signed count of cells per stabilizer class, in class order."""
    return x.counts


def _marks_times_counts(x: GCWComplex, rows) -> list[int]:
    """sum_K c_K |(G/K)^H| for each given marks row (H), c the signed counts."""
    support = [(j, c) for j, c in enumerate(x.counts) if c]
    return [sum(c * row[j] for j, c in support) for row in rows]


def fixed_point_euler(x: GCWComplex, h) -> int:
    """Euler characteristic of the H-fixed subcomplex, for h a subgroup class,
    a class index or a subgroup: each cell with stabilizer class (K)
    contributes (-1)^dim |(G/K)^H|, read off the group's table of marks
    against the census's signed counts."""
    if isinstance(h, SubgroupClass):
        h = h.representative
    i = h if isinstance(h, int) else x._class_index(h)
    return _marks_times_counts(x, [marks(x.group)[i]])[0]


def verify_omega_relation(x: GCWComplex):
    """Check omega_bar2(Or(G)) applied to chi_G(X) against the vector of
    fixed-point Euler characteristics divided by Weyl group orders.

    The two sides share only the census counts c.  The left side,
    sum_K |hom(G/H, G/K)| c_K / |aut(G/H)|, counts the hom sets of Or(G)
    as ``_maps`` enumerates them, without composing any; the right side,
    sum_K c_K |(G/K)^H| / |W_G H|, reads the marks formula and the lattice's
    Weyl orders.  Each entry is summed on integers and kept over its
    denominator, and the sides are compared crosswise on integers.

    Returns (equal, left side, right side), each side a pair (numerators,
    denominators) in subgroup class order."""
    maps = _maps(x.group)[1]
    support = [(j, c) for j, c in enumerate(x.counts) if c]
    # every endomorphism in Or(G) is invertible, so aut(G/H) = hom(G/H, G/H)
    lhs = ([sum(c * len(row[j]) for j, c in support) for row in maps],
           [len(row[i]) for i, row in enumerate(maps)])
    rhs = (_marks_times_counts(x, marks(x.group)), [cls.weyl_order for cls in x.classes])
    equal = all(p * s == r * q for p, q, r, s in zip(*lhs, *rhs))
    return equal, lhs, rhs
