"""Named example categories shipped with the command line tool.

The category engine and the group layer are bound as deferred modules
(``catrank._lazy``) and run when an example is built, so listing the names
runs neither.
"""

from __future__ import annotations

from . import _lazy

fincat = _lazy("catrank.fincat")
grouptheory = _lazy("catrank.grouptheory")


def span() -> fincat.FiniteCategory:
    """One source object with a single arrow into each of two sinks."""
    return fincat.poset_category(["a", "x", "y"], [("a", "x"), ("a", "y")])


def parallel_pair() -> fincat.FiniteCategory:
    """Two objects joined by two parallel arrows u, v: x -> y."""
    morphs = [(0, 0, "id"), (1, 1, "id"), (0, 1, "u"), (0, 1, "v")]

    def compose(gd, fd):
        if fd[2] == "id":
            return gd
        assert gd[2] == "id"
        return fd

    return fincat._build(["x", "y"], morphs, morphs[:2], compose)[0]


def subsets(q: int = 1) -> fincat.FiniteCategory:
    """Nonempty subsets of {0,...,q}, with one arrow J -> K whenever K is
    contained in J.  Objects are named by their sorted digit strings."""
    if not 0 <= q <= 8:
        raise ValueError("q must be between 0 and 8")
    masks = sorted(range(1, 1 << (q + 1)), key=lambda m: (bin(m).count("1"), m))
    label = {m: "".join(str(i) for i in range(q + 1) if m >> i & 1) for m in masks}
    pairs = [
        (label[j], label[k])
        for j in masks
        for k in masks
        if j != k and j & k == k
    ]
    return fincat.poset_category([label[m] for m in masks], pairs)


def retract_pair() -> fincat.FiniteCategory:
    """Two objects x, y with arrows u: x -> y and v: y -> x subject to
    uvu = u and vuv = v, so vu and uv are nonidentity idempotents."""

    def reduce_word(w):
        while "uvu" in w or "vuv" in w:
            w = w.replace("uvu", "u").replace("vuv", "v")
        return w

    # a word alternates u/v; dom and cod are determined by its ends
    words = ["", "!", "u", "v", "vu", "uv"]  # "" = id_x, "!" = id_y
    ends = {"": (0, 0), "!": (1, 1), "u": (0, 1), "v": (1, 0), "vu": (0, 0), "uv": (1, 1)}
    morphs = [(ends[w][0], ends[w][1], w) for w in words]

    def compose(gd, fd):
        w = reduce_word((gd[2] + fd[2]).replace("!", ""))
        if w == "":
            w = "" if fd[0] == 0 else "!"
        return (fd[0], gd[1], w)

    return fincat._build(["x", "y"], morphs, morphs[:2], compose)[0]


def no_weighting() -> fincat.FiniteCategory:
    """A four object category with no weighting: hom counts put inconsistent
    constraints on any solution of zeta . k = 1, while a coweighting still
    exists.  Every idempotent splits but vu = id does not force uv = id."""
    objs = ["1", "2", "3", "4"]
    hom_names = {
        (1, 1): ["f11"], (1, 2): ["f12", "g12"], (1, 3): ["f13"], (1, 4): ["f14"],
        (2, 1): ["f21", "g21"], (2, 2): ["f22"], (2, 3): ["f23"], (2, 4): ["f24", "g24"],
        (3, 1): ["f31"], (3, 2): ["f32"], (3, 4): ["f34"],
    }
    morphs = [(i - 1, i - 1, "id") for i in (1, 2, 3, 4)]
    for (i, j), names in hom_names.items():
        morphs += [(i - 1, j - 1, nm) for nm in names]

    def compose(gd, fd):
        if fd[2] == "id":
            return gd
        if gd[2] == "id":
            return fd
        # any nonidentity composite i -> j -> k collapses onto the f route
        i, k = fd[0], gd[1]
        if i == k and i in (2, 3):
            return (i, i, "id")
        return (i, k, f"f{i + 1}{k + 1}")

    return fincat._build(objs, morphs, morphs[:4], compose)[0]


def indiscrete_pair() -> fincat.FiniteCategory:
    """Two objects with exactly one morphism in each direction; a connected
    groupoid with trivial automorphism groups."""
    morphs = [(0, 0, "id"), (1, 1, "id"), (0, 1, "s"), (1, 0, "t")]

    def compose(gd, fd):
        return (fd[0], gd[1], "id" if fd[0] == gd[1] else ("s" if fd[0] == 0 else "t"))

    return fincat._build(["0", "1"], morphs, morphs[:2], compose)[0]


def _biset_regular_c2() -> fincat.FiniteCategory:
    g = grouptheory.build_group("cyclic:2")
    h = grouptheory.build_group("trivial")
    left = [[g.table[a][s] for s in range(2)] for a in range(2)]
    right = [[s] for s in range(2)]
    return fincat.biset_category(g, h, left, right)


def _biset_point(n: int) -> fincat.FiniteCategory:
    g = grouptheory.build_group(f"cyclic:{n}")
    h = grouptheory.build_group("trivial")
    return fincat.biset_category(g, h, [[0]] * n, [[0]])


def _biset_trivial_c2_c2() -> fincat.FiniteCategory:
    # both actions trivial on a two point set: the left action is not free
    g = grouptheory.build_group("cyclic:2")
    return fincat.biset_category(g, g, [[0, 1], [0, 1]], [[0, 0], [1, 1]])


PRESETS = {
    "span": span,
    "parallel-pair": parallel_pair,
    "subsets-q": subsets,
    "section8": retract_pair,
    "leinster-A": no_weighting,
    "indiscrete-2": indiscrete_pair,
    "biset-regular-c2": _biset_regular_c2,
    "biset-point-c2": lambda: _biset_point(2),
    "biset-point-c3": lambda: _biset_point(3),
    "biset-trivial-c2-c2": _biset_trivial_c2_c2,
    "delooping-c2": lambda: fincat.delooping(grouptheory.build_group("cyclic:2")),
    "delooping-c3": lambda: fincat.delooping(grouptheory.build_group("cyclic:3")),
    "delooping-s3": lambda: fincat.delooping(grouptheory.build_group("symmetric:3")),
}


def names() -> list[str]:
    return list(PRESETS)


def build(name: str, q: int = 1) -> fincat.FiniteCategory:
    if name not in PRESETS:
        raise ValueError(f"unknown example: {name}")
    if name == "subsets-q":
        return subsets(q)
    return PRESETS[name]()
