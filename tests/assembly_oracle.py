"""All-pairs assembly, kept as a test oracle for ``fincat``.

These are the earlier, independent routes: every composition table here is
filled by testing all m^2 morphism pairs, and ``validate`` builds its
composable set the same way. They share no code with ``fincat._build`` or
with ``fincat.validate``'s composable-pair walk.
"""

from catrank.fincat import FiniteCategory, FunctorData, iso_classes


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
    return FiniteCategory(objects, dom, cod, [index[d] for d in ids], table), ordered


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
    table = {}
    for gi, g_old in enumerate(ordered):
        for fi, f_old in enumerate(ordered):
            if cod[fi] == dom[gi]:
                table[(gi, fi)] = new_of_old[cat.compose_table[(g_old, f_old)]]
    sub = FiniteCategory([cat.objects[i] for i in keep], dom, cod,
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
    table = {}
    for gi, go in enumerate(ordered):
        for fi, fo in enumerate(ordered):
            if cod[fi] == dom[gi]:
                table[(gi, fi)] = new_of_old[src.compose_table[(go, fo)]]
    return FiniteCategory(objs, dom, cod, list(range(len(objs))), table)


def validate(cat):
    out = []
    m = cat.n_morphisms
    for x in range(cat.n_objects):
        e = cat.identity[x]
        if cat.dom[e] != x or cat.cod[e] != x:
            out.append({"kind": "identity_endpoints", "object": cat.objects[x], "morphism": e})
    composable = {(g, f) for f in range(m) for g in range(m) if cat.cod[f] == cat.dom[g]}
    for key in cat.compose_table:
        if key not in composable:
            out.append({"kind": "extra_composite", "pair": list(key)})
    for key in sorted(composable):
        if key not in cat.compose_table:
            out.append({"kind": "missing_composite", "pair": list(key)})
    if out:
        return out
    for (g, f), c in sorted(cat.compose_table.items()):
        if cat.dom[c] != cat.dom[f] or cat.cod[c] != cat.cod[g]:
            out.append({"kind": "composite_endpoints", "pair": [g, f], "composite": c})
    if out:
        return out
    for f in range(m):
        if cat.compose_table[(cat.identity[cat.cod[f]], f)] != f:
            out.append({"kind": "identity_law", "side": "left", "morphism": f})
        if cat.compose_table[(f, cat.identity[cat.dom[f]])] != f:
            out.append({"kind": "identity_law", "side": "right", "morphism": f})
    for (g, f), gf in cat.compose_table.items():
        for h in range(m):
            if cat.dom[h] == cat.cod[g]:
                if cat.compose_table[(h, gf)] != cat.compose_table[(cat.compose_table[(h, g)], f)]:
                    out.append({"kind": "associativity", "triple": [h, g, f]})
    return out
