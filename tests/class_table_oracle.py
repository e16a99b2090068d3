"""The class table by the dense route, the reference for
catrank.fincat.iso_order: one ``len(cat.hom(rep i, rep j))`` per pair of
classes, the down-sets and the antisymmetry check read off the full k x k
table, and the actions by brute force: for every b in A_i and every x in
hom(rep i, rep t), the a in A_t with a o x = x o b, each composite taken
through ``cat.compose``, with no orbit walk."""

from catrank import IsoPoset
from catrank.fincat import ei_witness, iso_classes


def lengths(poset: IsoPoset) -> tuple[int, ...]:
    """Per class, the longest chain of classes strictly below it, read off
    homs (the classes below i come before it in the table)."""
    out: list[int] = []
    for j in range(poset.size):
        below = [out[i] for i in range(j) if poset.homs[i][j]]
        out.append(1 + max(below) if below else 0)
    return tuple(out)


def fixed_sets(cat, hom, at, b) -> tuple[tuple[int, ...], ...]:
    """C(x, b) = {positions p : at[p] o x = x o b} for the first element x,
    in id order, of each at-orbit on hom, where it is nonempty."""
    orbit_of = {x: min(cat.compose(a, x) for a in at) for x in hom}
    out = []
    for x in sorted(hom):
        if orbit_of[x] == x:
            c = tuple(p for p, a in enumerate(at) if cat.compose(a, x) == cat.compose(x, b))
            if c:
                out.append(c)
    return tuple(out)


def iso_order(cat) -> IsoPoset:
    m = ei_witness(cat)
    if m is not None:
        raise ValueError(
            "iso class order needs an EI category; "
            f"morphism {m} is a non-invertible endomorphism"
        )
    classes = iso_classes(cat)
    reps = [cat.obj_index(c[0]) for c in classes]
    k = len(classes)
    homs = [[len(cat.hom(reps[i], reps[j])) for j in range(k)] for i in range(k)]
    assert not any(homs[i][j] and homs[j][i] for i in range(k) for j in range(i)), \
        "EI forces antisymmetry"
    below = [[j for j in range(k) if j != i and homs[j][i]] for i in range(k)]
    depth = [0] * k
    for i in sorted(range(k), key=lambda i: len(below[i])):
        depth[i] = 1 + max(depth[j] for j in below[i]) if below[i] else 0
    order = sorted(range(k), key=lambda i: (depth[i], reps[i]))
    reps = [reps[i] for i in order]
    auts = [tuple(sorted(cat.hom(r, r), key=cat.identity[r].__ne__)) for r in reps]
    acts = []
    for i, r in enumerate(reps):
        act = {}
        for t in range(i + 1, k):
            hom = cat.hom(r, reps[t])
            if hom:
                act[t] = tuple(fixed_sets(cat, hom, auts[t], b) for b in auts[i])
        acts.append(act)
    return IsoPoset(
        tuple(cat.objects[r] for r in reps),
        tuple(tuple(classes[i]) for i in order),
        tuple(reps),
        tuple(tuple(homs[i][j] for j in order) for i in order),
        tuple(acts),
    )
