"""Slow, independent subgroup lattice used as a test oracle.

This is the all-pairs route the library used before it built the lattice up
to conjugacy: closure multiplies every element seen so far by every new one,
the lattice is the join-closure of the cyclic subgroups, every subgroup's
class is found by conjugating it, and marks count fixed cosets one by one.
``nu_matrix_via_chains`` sums over chains of subgroup classes instead of
inverting the marks.

Three later routes the library replaced are kept here too:
``cyclic_join_classes`` joins every class representative with every cyclic
subgroup and conjugates every new subgroup by every element,
``table_by_all_pairs`` multiplies every pair of permutations, and
``right_generators`` grows the generators of a Latin square's left-normed
products by one incremental search.

The module reads only the Cayley table and inverses of a group and shares
no code with catrank; its matrices are the dense ``QMatrix`` of the test
helper ``dense``.
"""

from fractions import Fraction

from dense import QMatrix


def right_generators(table):
    """Elements whose left-normed products ((g1 g2) g3)... reach every
    element of a Latin square with identity 0: a breadth-first search from 0
    under right multiplication by those kept, keeping, in index order, each
    element it has not reached yet."""
    n = len(table)
    reached = [False] * n
    reached[0] = True
    seen = [0]
    gens = []
    for s in range(1, n):
        if reached[s]:
            continue
        gens.append(s)
        frontier = [table[x][s] for x in seen]
        while frontier:
            y = frontier.pop()
            if not reached[y]:
                reached[y] = True
                seen.append(y)
                frontier += [table[y][t] for t in gens]
    return gens


def closure(g, elems):
    """Smallest subgroup containing elems, closing under all products."""
    seen = set(elems)
    seen.add(0)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in tuple(seen):
            for b in frontier:
                for c in (g.table[a][b], g.table[b][a]):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def subgroups(g):
    """All subgroups by join-closure from the cyclic ones, sorted by
    (order, sorted elements)."""
    cyclics = {closure(g, [x]) for x in range(g.order)}
    subs = {frozenset([0])} | cyclics
    work = list(subs)
    while work:
        h = work.pop()
        for c in cyclics:
            if c <= h:
                continue
            j = closure(g, h | c)
            if j not in subs:
                subs.add(j)
                work.append(j)
    return sorted(subs, key=lambda s: (len(s), tuple(sorted(s))))


def _conjugate(g, h, x):
    """x h x^-1."""
    xi = g.inv[x]
    return frozenset(g.table[g.table[x][e]][xi] for e in h)


def classes(g):
    """One record per conjugacy class, in the library's canonical order:
    (conjugates sorted by sorted elements, normalizer of the least one,
    Weyl order)."""
    found = {}
    for h in subgroups(g):
        conjugates = tuple(sorted({_conjugate(g, h, x) for x in range(g.order)},
                                  key=lambda s: tuple(sorted(s))))
        rep = conjugates[0]
        if rep in found:
            continue
        norm = frozenset(x for x in range(g.order) if _conjugate(g, rep, x) == rep)
        found[rep] = (conjugates, norm, len(norm) // len(rep))
    return [found[rep] for rep in sorted(found, key=lambda s: (len(s), tuple(sorted(s))))]


def fixed_point_count(g, h, k):
    """|(G/K)^H|: the left cosets xK with x^-1 H x inside K, counted one by one."""
    k = frozenset(k)
    seen = set()
    count = 0
    for x in range(g.order):
        if x in seen:
            continue
        seen.update(g.table[x][e] for e in k)
        if all(_conjugate(g, [e], g.inv[x]) <= k for e in h):
            count += 1
    return count


def marks(g):
    """|(G/K)^H| for class representatives H (row) and K (column)."""
    reps = [c[0][0] for c in classes(g)]
    return [[fixed_point_count(g, h, k) for k in reps] for h in reps]


def _left_cosets(g, k):
    """The set of left cosets xK."""
    return {frozenset(g.table[x][e] for e in k) for x in range(g.order)}


def coset_maps(g):
    """maps[i][j]: the least elements, ascending, of the left cosets xK of
    K = K_j with x^-1 H x inside K for H = H_i, each element of H
    conjugated by the coset's least element and looked up in K."""
    reps = [c[0][0] for c in classes(g)]
    return [[sorted(min(c) for c in _left_cosets(g, k)
                    if all(_conjugate(g, [e], g.inv[min(c)]) <= k for e in h))
             for k in reps] for h in reps]


def nu_matrix_via_chains(g):
    """nu by alternating sums over chains of subgroup classes.

    Entry (row (K), col (H)) = sum over l >= 0 of (-1)^l times the
    number-of-orbit products Prod_{t=1..l} |W(H_t) \\ mor(G/H_{t-1}, G/H_t)|
    over chains (K) = (H_0) < ... < (H_l) = (H).  Orbit counts are computed
    directly from coset actions, not by dividing cardinalities."""
    found = classes(g)
    reps = [c[0][0] for c in found]
    labels = [tuple(sorted(r)) for r in reps]
    k = len(found)
    # strict subconjugacy: (A) < (B) iff A is conjugate into B and (A) != (B)
    less = [[i != j and fixed_point_count(g, reps[i], reps[j]) > 0 for j in range(k)]
            for i in range(k)]
    orbit_counts = {}

    def orbit_count(i, j):
        # cosets xB fixed by A, modulo right translation by N_G(B)
        if (i, j) in orbit_counts:
            return orbit_counts[i, j]
        a, b, norm = reps[i], reps[j], sorted(found[j][1])
        fixed = {c for c in _left_cosets(g, b)
                 if all(_conjugate(g, [e], g.inv[min(c)]) <= b for e in a)}
        seen = set()
        orbits = 0
        for c in fixed:
            if c in seen:
                continue
            orbits += 1
            seen.add(c)
            stack = [c]
            while stack:
                x = min(stack.pop())
                for n in norm:
                    img = frozenset(g.table[g.table[x][n]][e] for e in b)
                    assert img in fixed
                    if img not in seen:
                        seen.add(img)
                        stack.append(img)
        orbit_counts[i, j] = orbits
        return orbits

    ent = [[Fraction(0)] * k for _ in range(k)]
    for start in range(k):
        # depth-first over strictly increasing chains from (K) = start
        stack = [(start, 1, 0)]
        while stack:
            cur, prod, length = stack.pop()
            ent[start][cur] += (-1) ** length * prod
            for nxt in range(k):
                if less[cur][nxt]:
                    stack.append((nxt, prod * orbit_count(cur, nxt), length + 1))
    return QMatrix.from_rows(ent, labels, labels)


def _bfs_closure(g, gens):
    """<gens>, by a breadth-first search from the identity under right
    multiplication by gens."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = g.table[a][b]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def cyclic_join_classes(g):
    """The lattice up to conjugacy by joining every class representative
    with every cyclic subgroup, each new subgroup conjugated by every element.

    One record per class in the canonical order: (conjugates sorted by
    sorted elements, generators of the least conjugate, its normalizer).
    The generators are the discovering join's, conjugated onto the least
    conjugate by the least element that does so."""
    cyclic = {}
    for x in range(1, g.order):
        cyclic.setdefault(_bfs_closure(g, (x,)), x)

    def conjugacy_class(j, gens):
        first = {}
        stab = []
        for y in range(g.order):
            c = _conjugate(g, j, y)
            if c == j:
                stab.append(y)
            first.setdefault(c, y)
        conjugates = tuple(sorted(first, key=lambda s: tuple(sorted(s))))
        y, yi = first[conjugates[0]], g.inv[first[conjugates[0]]]
        return (conjugates, tuple(g.table[g.table[y][x]][yi] for x in gens),
                frozenset(g.table[g.table[y][n]][yi] for n in stab))

    found = [conjugacy_class(frozenset([0]), ())]
    known = set(found[0][0])
    for conjugates, gens, _ in found:  # grows while it is walked
        for x in cyclic.values():
            if x in conjugates[0]:
                continue
            j = _bfs_closure(g, gens + (x,))
            if j not in known:
                found.append(conjugacy_class(j, gens + (x,)))
                known.update(found[-1][0])
    return sorted(found, key=lambda c: (len(c[0][0]), tuple(sorted(c[0][0]))))


def marks_by_formula(g, found):
    """|(G/K)^H| = |N_G(H)| #{H' ~ H : H' inside K} / |K| over the records
    of ``cyclic_join_classes``."""
    reps = [conjugates[0] for conjugates, _, _ in found]
    return [[len(norm) * sum(1 for c in conjugates if c <= k) // len(k) for k in reps]
            for conjugates, _, norm in found]


def table_by_all_pairs(elems):
    """The Cayley table of the permutations elems, (p q)(i) = p(q(i)), by
    multiplying every pair."""
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[i]] for i in range(len(p)))] for q in elems] for p in elems]
