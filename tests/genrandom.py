"""Builders and random generators shared by the test suite.

Everything here is deliberately independent of the library internals it is
used to test: categories are assembled from raw dom/cod/composition data so
that library bugs cannot leak into the expected values.
"""

import random

from catrank.fincat import (
    FiniteCategory,
    FunctorData,
    coproduct,
    delooping,
    full_subcategory,
    poset_category,
    product,
)
from catrank.grouptheory import (
    FiniteGroup,
    build_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    product_group,
)
from assembly_oracle import from_table, table_of
from subgroup_helpers import left_cosets, subgroups, weyl_group_with_cosets


# ---------------------------------------------------------------- groupoids


def action_groupoid(g: FiniteGroup, h) -> tuple[FiniteCategory, FunctorData]:
    """Translation groupoid of G acting on the coset space G/H, with the
    projection functor onto the one-object groupoid of G.

    Objects are cosets aH; the morphisms aH -> bH are the group elements u
    with u a H = b H, composed by multiplication.  The projection sends a
    morphism to its group element; its star at any object is all of G.
    """
    hs = frozenset(h)
    cosets = left_cosets(g, hs)
    lookup = {}
    for i, c in enumerate(cosets):
        for e in c:
            lookup[e] = i
    objects = [f"c{min(c)}" for c in cosets]
    descr = []
    for i, ci in enumerate(cosets):
        a = min(ci)
        for u in range(g.order):
            j = lookup[g.table[u][a]]
            descr.append((i, j, u))
    ids = [(i, i, 0) for i in range(len(cosets))]
    rest = [d for d in descr if d[2] != 0]
    ordered = ids + rest
    index = {d: k for k, d in enumerate(ordered)}
    dom = [d[0] for d in ordered]
    cod = [d[1] for d in ordered]
    table = {}
    for gi, gd in enumerate(ordered):
        for fi, fd in enumerate(ordered):
            if fd[1] == gd[0]:
                table[(gi, fi)] = index[(fd[0], gd[1], g.table[gd[2]][fd[2]])]
    cat = from_table(objects, dom, cod, [index[d] for d in ids], table)
    base = delooping(g)
    p = FunctorData(cat, base, {o: "*" for o in objects},
                    {index[d]: d[2] for d in ordered})
    return cat, p


def quotient_group(g: FiniteGroup, n) -> tuple[FiniteGroup, dict[int, int]]:
    """G/N together with the projection map element -> coset index."""
    q, cosets = weyl_group_with_cosets(g, frozenset(n))
    assert q.order * len(frozenset(n)) == g.order, "subgroup is not normal"
    proj = {}
    for i, c in enumerate(cosets):
        for e in c:
            proj[e] = i
    return q, proj


def quotient_delooping_functor(g: FiniteGroup, n) -> FunctorData:
    """delooping(G) -> delooping(G/N) induced by the quotient map."""
    q, proj = quotient_group(g, n)
    src, tgt = delooping(g), delooping(q)
    return FunctorData(src, tgt, {"*": "*"}, {m: proj[m] for m in range(g.order)})


def action_groupoid_to_quotient(g: FiniteGroup, h, n) -> FunctorData:
    """G/H translation groupoid -> delooping(G/N), morphism u |-> uN."""
    cat, p = action_groupoid(g, h)
    q, proj = quotient_group(g, n)
    tgt = delooping(q)
    return FunctorData(cat, tgt, {o: "*" for o in cat.objects},
                       {m: proj[p.morphism_map[m]] for m in range(cat.n_morphisms)})


# -------------------------------------------------------------- group pools


def small_group_pool() -> list[FiniteGroup]:
    return [
        build_group("trivial"),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        build_group("klein"),
        cyclic_group(6),
        symmetric_group(3),
        dihedral_group(4),
        build_group("q8"),
        build_group("a4"),
        dihedral_group(6),
        product_group(cyclic_group(2), cyclic_group(4)),
    ]


def random_group(rng: random.Random, max_order: int = 12) -> FiniteGroup:
    pool = [g for g in small_group_pool() if g.order <= max_order]
    return rng.choice(pool)


def random_loop_table(rng: random.Random, n: int) -> list[list[int]]:
    """A random reduced Latin square of order n, row and column 0 in
    natural order, so 0 is a two-sided identity; most are not associative.
    The other cells are filled row by row, each with its unused values in a
    random order, backtracking from a cell that has none left."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        for v in rng.sample([v for v in range(n) if v not in used], n - len(used)):
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


# ------------------------------------------------------- random DAG categories


def random_dag_category(rng: random.Random, max_nodes: int = 6, cap: int = 70) -> FiniteCategory:
    """Free category on a random DAG: morphisms are edge paths."""
    n = rng.randint(1, max_nodes)
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        paths = [((), i, i) for i in range(n)]
        frontier = list(paths)
        ok = True
        while frontier and ok:
            nxt = []
            for path, s, t in frontier:
                for (a, b) in edges:
                    if a == t:
                        p2 = (path + ((a, b),), s, b)
                        paths.append(p2)
                        nxt.append(p2)
                        if len(paths) > cap:
                            ok = False
                            break
                if not ok:
                    break
            frontier = nxt
        if ok:
            break
        if edges:
            edges.pop(rng.randrange(len(edges)))

    ids = [((), i, i) for i in range(n)]
    rest = [p for p in paths if p[0]]
    rest.sort()
    ordered = ids + rest
    index = {p: k for k, p in enumerate(ordered)}
    dom = [p[1] for p in ordered]
    cod = [p[2] for p in ordered]
    table = {}
    for gi, gp in enumerate(ordered):
        for fi, fp in enumerate(ordered):
            if fp[2] == gp[1]:
                table[(gi, fi)] = index[(fp[0] + gp[0], fp[1], gp[2])]
    return from_table([str(i) for i in range(n)], dom, cod, list(range(n)), table)


def random_poset_category(rng: random.Random, max_nodes: int = 7) -> FiniteCategory:
    n = rng.randint(1, max_nodes)
    rel = {(i, i) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rel.add((i, j))
    # transitive closure; pairs only point upward so this stays a partial order
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for c in range(n):
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return poset_category([str(i) for i in range(n)], [(str(a), str(b)) for a, b in rel])


# ------------------------------------------------- free EI category generators


def poset_of_groups(rng: random.Random, max_nodes: int = 4) -> FiniteCategory:
    """A poset with a group at each element; mor(x,y) = G_y for x <= y,
    composition beta o alpha = beta * phi(alpha) with phi collapsing strictly
    increasing steps to the identity.  EI, free, skeletal by construction.
    """
    n = rng.randint(1, max_nodes)
    rel = {(i, i) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rel.add((i, j))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for c in range(n):
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    groups = [random_group(rng, max_order=6) for _ in range(n)]

    descr = []
    for (i, j) in sorted(rel):
        for e in range(groups[j].order):
            descr.append((i, j, e))
    ids = [(i, i, 0) for i in range(n)]
    rest = [d for d in descr if d not in set(ids)]
    ordered = ids + rest
    index = {d: k for k, d in enumerate(ordered)}
    table = {}
    for gi, gd in enumerate(ordered):
        for fi, fd in enumerate(ordered):
            if fd[1] == gd[0]:
                x, y, a = fd
                _, z, b = gd
                if y == z:
                    e = groups[z].table[b][a]
                else:
                    e = b
                table[(gi, fi)] = index[(x, z, e)]
    return from_table([str(i) for i in range(n)],
                      [d[0] for d in ordered], [d[1] for d in ordered],
                      [index[d] for d in ids], table)


def random_orbit_subcategory(rng: random.Random, max_order: int = 12) -> FiniteCategory:
    from catrank.fincat import orbit_category

    g = random_group(rng, max_order=max_order)
    cat = orbit_category(g)
    k = rng.randint(1, cat.n_objects)
    objs = sorted(rng.sample(list(cat.objects), k))
    sub, _ = full_subcategory(cat, objs)
    return sub


def random_free_ei_category(rng: random.Random) -> FiniteCategory:
    kind = rng.randrange(5)
    if kind == 0:
        return delooping(random_group(rng))
    if kind == 1:
        return poset_of_groups(rng)
    if kind == 2:
        return random_orbit_subcategory(rng)
    if kind == 3:
        a = poset_of_groups(rng, max_nodes=2)
        b = delooping(random_group(rng, max_order=4))
        return product(a, b) if a.n_morphisms * b.n_morphisms <= 60 else a
    return coproduct(poset_of_groups(rng, max_nodes=3),
                     delooping(random_group(rng, max_order=6)))


def random_inflation(rng: random.Random, cat: FiniteCategory, max_copies: int = 2):
    """Duplicate objects along a surjection; hom sets are copied verbatim.

    Returns (inflated, projection functor inflated -> cat).  Every copy of an
    object is isomorphic to the original's other copies, so the skeleton of
    the result recovers a category equivalent to the input.
    """
    copies = [rng.randint(1, max_copies) for _ in range(cat.n_objects)]
    objs = []
    back = []
    for i in range(cat.n_objects):
        for c in range(copies[i]):
            objs.append(f"{cat.objects[i]}#{c}")
            back.append(i)
    descr = []
    for oi, i in enumerate(back):
        for oj, j in enumerate(back):
            for m in range(cat.n_morphisms):
                if cat.dom[m] == i and cat.cod[m] == j:
                    descr.append((oi, oj, m))
    ids = [(oi, oi, cat.identity[i]) for oi, i in enumerate(back)]
    rest = [d for d in descr if d not in set(ids)]
    ordered = ids + rest
    index = {d: k for k, d in enumerate(ordered)}
    comp = table_of(cat)
    table = {}
    for gi, gd in enumerate(ordered):
        for fi, fd in enumerate(ordered):
            if fd[1] == gd[0]:
                table[(gi, fi)] = index[(fd[0], gd[1], comp[(gd[2], fd[2])])]
    infl = from_table(objs, [d[0] for d in ordered], [d[1] for d in ordered],
                      [index[d] for d in ids], table)
    proj = FunctorData(infl, cat,
                       {objs[k]: cat.objects[back[k]] for k in range(len(objs))},
                       {index[d]: d[2] for d in ordered})
    return infl, proj


# ----------------------------------------------------------------- bisets


def random_biset(rng: random.Random):
    """A disjoint union of pieces (G/K) x (L\\H) with the evident actions.

    Returns (g, h, left, right, stats) where stats carries independently
    computed counts: size, g_orbits (= |G\\S|), double_orbits (= |G\\S/H|).
    """
    g = random_group(rng, max_order=8)
    h = random_group(rng, max_order=8)
    pieces = []
    n_pieces = rng.randint(1, 3)
    for _ in range(n_pieces):
        k = rng.choice(subgroups(g))
        l = rng.choice(subgroups(h))
        pieces.append((k, l))

    elems = []  # (piece, coset-of-K index, right-coset-of-L index)
    g_cosets = []
    h_cosets = []
    for pi, (k, l) in enumerate(pieces):
        gk = left_cosets(g, k)
        # right cosets L b, indexed by representative
        seen = set()
        lb = []
        for b in range(h.order):
            if b in seen:
                continue
            coset = frozenset(h.table[e][b] for e in l)
            seen |= coset
            lb.append(coset)
        g_cosets.append(gk)
        h_cosets.append(lb)
        for ci in range(len(gk)):
            for di in range(len(lb)):
                elems.append((pi, ci, di))
    index = {e: i for i, e in enumerate(elems)}

    def g_coset_lookup(pi, x):
        for ci, c in enumerate(g_cosets[pi]):
            if x in c:
                return ci
        raise AssertionError

    def h_coset_lookup(pi, x):
        for di, c in enumerate(h_cosets[pi]):
            if x in c:
                return di
        raise AssertionError

    left = [[0] * len(elems) for _ in range(g.order)]
    for a in range(g.order):
        for (pi, ci, di), s in index.items():
            rep = min(g_cosets[pi][ci])
            left[a][s] = index[(pi, g_coset_lookup(pi, g.table[a][rep]), di)]
    right = [[0] * h.order for _ in range(len(elems))]
    for (pi, ci, di), s in index.items():
        rep = min(h_cosets[pi][di])
        for b in range(h.order):
            right[s][b] = index[(pi, ci, h_coset_lookup(pi, h.table[rep][b]))]

    stats = {
        "size": len(elems),
        "g_orbits": sum(len(h_cosets[pi]) for pi in range(n_pieces)),
        "double_orbits": n_pieces,
    }
    return g, h, left, right, stats


# ------------------------------------------------------------ cell structures


def random_gcw(rng: random.Random, g: FiniteGroup, max_cells: int = 6):
    """Random equivariant cell list [(dim, stabilizer subgroup elements)]."""
    subs = subgroups(g)
    cells = []
    for _ in range(rng.randint(1, max_cells)):
        dim = rng.randint(0, 3)
        stab = rng.choice(subs)
        cells.append((dim, tuple(sorted(stab))))
    return cells
