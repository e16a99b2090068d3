"""Subgroup lists, normalizers and Weyl groups for test fixtures.

The library keeps the subgroup lattice up to conjugacy and only the orders of
the Weyl groups; the tests also need every subgroup and N_G(H)/H as a group.
They are built here from ``subgroup_classes``, ``conjugate_subgroup`` and
``left_cosets``.  The library walks cosets once, by ``grouptheory._least``,
which names each coset by its least element and keeps no coset as a set;
``left_cosets`` keeps them as frozensets, for the fixtures and as the oracle
of that walk.
"""

from catrank.grouptheory import (
    FiniteGroup,
    closure,
    conjugate_subgroup,
    subgroup_classes,
)


def left_cosets(g: FiniteGroup, h) -> list[frozenset[int]]:
    """Left cosets xh as frozensets, sorted by least element."""
    seen: set[int] = set()
    cosets = []
    for x in range(g.order):
        if x not in seen:
            coset = frozenset(g.table[x][e] for e in h)
            seen |= coset
            cosets.append(coset)
    return sorted(cosets, key=min)


def subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups, ascending |H| with ties broken by sorted elements: the
    union of the conjugates of every class from ``subgroup_classes``."""
    subs = [h for cls in subgroup_classes(g) for h in cls.conjugates]
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def normalizer(g: FiniteGroup, h) -> frozenset[int]:
    hs = frozenset(h)
    return frozenset(x for x in range(g.order) if conjugate_subgroup(g, hs, x) == hs)


def weyl_group_with_cosets(g: FiniteGroup, h) -> tuple[FiniteGroup, list[frozenset[int]]]:
    """N_G(h)/h as a Cayley table; cosets sorted by least element, so h itself is index 0."""
    if closure(g, h) != frozenset(h):
        raise ValueError("not a subgroup")
    n = normalizer(g, h)
    cosets = [c for c in left_cosets(g, h) if c <= n]
    lookup = {e: i for i, c in enumerate(cosets) for e in c}
    table = [[lookup[g.table[min(ci)][min(cj)]] for cj in cosets] for ci in cosets]
    assert cosets[0] == frozenset(h)
    return FiniteGroup(table, [str(min(c)) for c in cosets]), cosets


def weyl_group(g: FiniteGroup, h) -> FiniteGroup:
    return weyl_group_with_cosets(g, h)[0]
