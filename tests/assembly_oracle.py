"""All-pairs assembly and the dict-keyed loader, kept as test oracles for
``fincat``.

These are the earlier, independent routes: every composition table here is
filled by testing all m^2 morphism pairs, ``from_json`` reads the records
into a dict keyed by (g, f), and ``validate`` scans that dict, building its
composable set the same way.  ``biset_law`` and ``poset_law`` check the
inputs of ``fincat.biset_category`` and ``fincat.poset_category`` with loops
of their own, where the library builds the category and lets ``_build`` and
``validate`` decide.  They share no code with ``fincat._build``, with the
row loader or with ``fincat.validate``.
"""

from catrank.fincat import FiniteCategory, FunctorData, _pairs, iso_classes


def from_table(objects, dom, cod, identity, table):
    """The category whose composition is the dict table keyed by (g, f)."""
    return FiniteCategory(objects, dom, cod, identity,
                          ((g, f, c) for (g, f), c in table.items()))


def table_of(cat):
    """The composition of cat as a dict keyed by (g, f), in (g, f) order;
    the records whose endpoints do not meet come last."""
    table = {(g, f): c for g, f, c in _pairs(cat)}
    table.update(cat._extra)
    return table


def ids_reversed(cat) -> FiniteCategory:
    """cat with its morphism ids in reverse order, so that every identity
    comes after the other endomorphisms of its object."""
    last = cat.n_morphisms - 1
    return from_table(
        cat.objects, cat.dom[::-1], cat.cod[::-1], [last - m for m in cat.identity],
        {(last - g, last - f): last - c for (g, f), c in table_of(cat).items()})


class DictCategory(FiniteCategory):
    """A category that keeps the composition dict it was given, for
    ``validate`` below to scan."""

    __slots__ = ("table",)

    def __init__(self, objects, dom, cod, identity, table):
        super().__init__(objects, dom, cod, identity,
                         ((g, f, c) for (g, f), c in table.items()))
        self.table = dict(table)


def build(objects, morphs, identity_of, compose):
    """``fincat._build``'s contract, (category, descriptors in id order), by
    testing every descriptor pair for composability."""
    ids = [identity_of(i) for i in range(len(objects))]
    rest = [d for d in morphs if d not in ids]
    ordered = ids + rest
    index = {d: i for i, d in enumerate(ordered)}
    dom = [d[0] for d in ordered]
    cod = [d[1] for d in ordered]
    table = {}
    for gi, gd in enumerate(ordered):
        for fi, fd in enumerate(ordered):
            if fd[1] == gd[0]:
                table[(gi, fi)] = index[compose(gd, fd)]
    return from_table(objects, dom, cod, [index[d] for d in ids], table), ordered


def full_subcategory(cat, objs):
    keep = [cat.obj_index(o) for o in objs]
    keep_set = set(keep)
    old_ids = [cat.identity[i] for i in keep]
    old_rest = [
        m
        for m in range(cat.n_morphisms)
        if cat.dom[m] in keep_set and cat.cod[m] in keep_set and m not in set(old_ids)
    ]
    ordered = old_ids + old_rest
    new_of_old = {old: new for new, old in enumerate(ordered)}
    obj_new = {i: k for k, i in enumerate(keep)}
    dom = [obj_new[cat.dom[m]] for m in ordered]
    cod = [obj_new[cat.cod[m]] for m in ordered]
    comp = table_of(cat)
    table = {}
    for gi, g_old in enumerate(ordered):
        for fi, f_old in enumerate(ordered):
            if cod[fi] == dom[gi]:
                table[(gi, fi)] = new_of_old[comp[(g_old, f_old)]]
    sub = from_table([cat.objects[i] for i in keep], dom, cod,
                     list(range(len(keep))), table)
    inc = FunctorData(sub, cat, {cat.objects[i]: cat.objects[i] for i in keep},
                      {new: old for old, new in new_of_old.items()})
    return sub, inc


def skeleton(cat):
    reps = [cls[0] for cls in iso_classes(cat)]
    reps.sort(key=cat.obj_index)
    return full_subcategory(cat, reps)


def fiber_category(p, b_obj):
    tgt = p.target
    bi = tgt.obj_index(b_obj)
    objs = [o for o in p.source.objects if p.object_map[o] == b_obj]
    src = p.source
    keep_obj = {src.obj_index(o) for o in objs}
    id_b = tgt.identity[bi]
    keep = [
        m
        for m in range(src.n_morphisms)
        if src.dom[m] in keep_obj and src.cod[m] in keep_obj and p.morphism_map[m] == id_b
    ]
    ids = [src.identity[src.obj_index(o)] for o in objs]
    ordered = ids + [m for m in keep if m not in set(ids)]
    new_of_old = {old: new for new, old in enumerate(ordered)}
    obj_new = {src.obj_index(o): k for k, o in enumerate(objs)}
    dom = [obj_new[src.dom[m]] for m in ordered]
    cod = [obj_new[src.cod[m]] for m in ordered]
    comp = table_of(src)
    table = {}
    for gi, go in enumerate(ordered):
        for fi, fo in enumerate(ordered):
            if cod[fi] == dom[gi]:
                table[(gi, fi)] = new_of_old[comp[(go, fo)]]
    return from_table(objs, dom, cod, list(range(len(objs))), table)


def _is_id(v) -> bool:
    """A string or a finite number: v - v is 0 for no NaN or infinity."""
    return type(v) in (str, int) or type(v) is float and v - v == 0


def from_json(doc: dict) -> DictCategory:
    """The category schema read into a (g, f) dict, raising ValueError with
    the message ``fincat.from_json`` gives for the first format problem."""
    if not isinstance(doc, dict):
        raise ValueError("category document must be a JSON object")
    for key in ("objects", "morphisms", "identities", "composition"):
        if key not in doc:
            raise ValueError(f"missing key: {key}")
    for key in ("objects", "morphisms", "composition"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a JSON array")
    if not isinstance(doc["identities"], dict):
        raise ValueError("identities must be a JSON object")
    objects = list(doc["objects"])
    if not all(map(_is_id, objects)):
        raise ValueError("object ids must be strings or numbers")
    if len(set(map(str, objects))) != len(objects):
        raise ValueError("duplicate object ids")
    obj_index = {str(o): i for i, o in enumerate(objects)}
    morphs = doc["morphisms"]
    m = len(morphs)
    dom = [0] * m
    cod = [0] * m
    seen = set()
    for rec in morphs:
        if not isinstance(rec, dict) or not {"id", "dom", "cod"} <= set(rec):
            raise ValueError(f"malformed morphism record: {rec!r}")
        mid = rec["id"]
        if type(mid) is not int or not (0 <= mid < m) or mid in seen:
            raise ValueError(f"morphism ids must be exactly 0..{m-1}: got {mid!r}")
        seen.add(mid)
        if (not _is_id(rec["dom"]) or not _is_id(rec["cod"])
                or str(rec["dom"]) not in obj_index or str(rec["cod"]) not in obj_index):
            raise ValueError(f"morphism {mid} references unknown object")
        dom[mid] = obj_index[str(rec["dom"])]
        cod[mid] = obj_index[str(rec["cod"])]
    identities = doc["identities"]
    if set(identities) != set(map(str, objects)):
        raise ValueError("identities must cover exactly the objects")
    identity = [0] * len(objects)
    for o, mid in identities.items():
        if type(mid) is not int or not (0 <= mid < m):
            raise ValueError(f"identity of {o!r} references unknown morphism")
        identity[obj_index[o]] = mid
    table: dict[tuple[int, int], int] = {}
    for rec in doc["composition"]:
        if not (isinstance(rec, (list, tuple)) and len(rec) == 3):
            raise ValueError(f"malformed composition record: {rec!r}")
        g, f, c = rec
        if not (type(g) is int and type(f) is int and type(c) is int
                and 0 <= g < m and 0 <= f < m and 0 <= c < m):
            raise ValueError(f"composition record references unknown morphism: {rec!r}")
        if (g, f) in table:
            raise ValueError(f"duplicate composition record for pair ({g},{f})")
        table[(g, f)] = c
    return DictCategory(objects, dom, cod, identity, table)


def validate(cat):
    """Every violation, scanning the dict a ``DictCategory`` keeps (any other
    category's ``table_of``) in its item order."""
    out = []
    m = cat.n_morphisms
    table = cat.table if isinstance(cat, DictCategory) else table_of(cat)
    for x in range(cat.n_objects):
        e = cat.identity[x]
        if cat.dom[e] != x or cat.cod[e] != x:
            out.append({"kind": "identity_endpoints", "object": cat.objects[x], "morphism": e})
    composable = {(g, f) for f in range(m) for g in range(m) if cat.cod[f] == cat.dom[g]}
    for key in table:
        if key not in composable:
            out.append({"kind": "extra_composite", "pair": list(key)})
    for key in sorted(composable):
        if key not in table:
            out.append({"kind": "missing_composite", "pair": list(key)})
    if out:
        return out
    for (g, f), c in sorted(table.items()):
        if cat.dom[c] != cat.dom[f] or cat.cod[c] != cat.cod[g]:
            out.append({"kind": "composite_endpoints", "pair": [g, f], "composite": c})
    if out:
        return out
    for f in range(m):
        if table[(cat.identity[cat.cod[f]], f)] != f:
            out.append({"kind": "identity_law", "side": "left", "morphism": f})
        if table[(f, cat.identity[cat.dom[f]])] != f:
            out.append({"kind": "identity_law", "side": "right", "morphism": f})
    for (g, f), gf in table.items():
        for h in range(m):
            if cat.dom[h] == cat.cod[g]:
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    out.append({"kind": "associativity", "triple": [h, g, f]})
    return out


def biset_law(g, h, left, right):
    """The message ``fincat.biset_category`` raises for action tables of the
    right shape, with entries in S, or None when they are commuting
    actions: the first law that fails, in the order identity, G-action,
    H-action, commuting, each checked on every element of S."""
    size = len(right)
    for s in range(size):
        if left[0][s] != s or right[s][0] != s:
            return "identity must act trivially"
    for a1 in range(g.order):
        for a2 in range(g.order):
            prod = g.table[a1][a2]
            for s in range(size):
                if left[a1][left[a2][s]] != left[prod][s]:
                    return "left table is not a G-action"
    for b1 in range(h.order):
        for b2 in range(h.order):
            prod = h.table[b1][b2]
            for s in range(size):
                if right[right[s][b1]][b2] != right[s][prod]:
                    return "right table is not an H-action"
    for a in range(g.order):
        for b in range(h.order):
            for s in range(size):
                if left[a][right[s][b]] != right[left[a][s]][b]:
                    return "biset actions do not commute"
    return None


def poset_law(elements, pairs):
    """The message ``fincat.poset_category`` raises for the (x, y) pairs
    over elements, with the identities added, or None when they form a
    partial order: antisymmetry first, then transitivity, found by scanning
    every pair (i, j) of the relation, in set order, against every k."""
    elems = list(elements)
    n = len(elems)
    byidx = {e: i for i, e in enumerate(elems)}
    rel = {(byidx[a], byidx[b]) for a, b in pairs}
    rel |= {(i, i) for i in range(n)}
    for i, j in rel:
        if (j, i) in rel and i != j:
            return f"relation is not antisymmetric at {elems[i]}, {elems[j]}"
    for i, j in list(rel):
        for k in range(n):
            if (j, k) in rel and (i, k) not in rel:
                return f"relation is not transitive at {elems[i]}, {elems[j]}, {elems[k]}"
    return None
