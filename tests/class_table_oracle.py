"""The class table by the dense route, the reference for
catrank.moebius.iso_order: one ``len(cat.hom(rep i, rep j))`` per pair of
classes, the down-sets and the antisymmetry check read off the full k x k
table."""

from catrank.fincat import ei_witness, iso_classes
from catrank.moebius import IsoPoset


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
    lengths = [0] * k
    for i in sorted(range(k), key=lambda i: len(below[i])):
        lengths[i] = 1 + max(lengths[j] for j in below[i]) if below[i] else 0
    order = sorted(range(k), key=lambda i: (lengths[i], reps[i]))
    auts = [tuple(sorted(cat.hom(r, r), key=cat.identity[r].__ne__)) for r in reps]
    return IsoPoset(
        tuple(cat.objects[reps[i]] for i in order),
        tuple(tuple(classes[i]) for i in order),
        tuple(reps[i] for i in order),
        tuple(tuple(homs[i][j] for j in order) for i in order),
        tuple(auts[i] for i in order),
        tuple(lengths[i] for i in order),
    )
