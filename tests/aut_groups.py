"""Automorphism groups of category objects as Cayley tables (test helper)."""

from catrank.fincat import FiniteCategory
from catrank.grouptheory import FiniteGroup

from assembly_oracle import table_of


class CayleyGroupRef:
    """An automorphism group extracted from a category object, with the
    morphism id carried by each group element (element 0 = identity)."""

    __slots__ = ("group", "morphism_ids", "object")

    def __init__(self, group: FiniteGroup, morphism_ids: tuple[int, ...], obj):
        self.group = group
        self.morphism_ids = morphism_ids
        self.object = obj


def aut_group(cat: FiniteCategory, obj) -> CayleyGroupRef:
    i = cat.obj_index(obj)
    auts = list(cat.aut(i))
    auts.remove(cat.identity[i])
    ids = [cat.identity[i]] + auts
    index = {m: k for k, m in enumerate(ids)}
    comp = table_of(cat)
    table = [[index[comp[(a, b)]] for b in ids] for a in ids]
    return CayleyGroupRef(FiniteGroup(table), tuple(ids), obj)
