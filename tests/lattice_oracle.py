"""Slow, independent subgroup lattice used as a test oracle.

This is the all-pairs route the library used before it built the lattice up
to conjugacy: closure multiplies every element seen so far by every new one,
the lattice is the join-closure of the cyclic subgroups, every subgroup's
class is found by conjugating it, and marks count fixed cosets one by one.
It reads only the Cayley table and inverses of a group and shares no code
with ``catrank.grouptheory``.
"""


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


def marks(g):
    """|(G/K)^H| for class representatives H (row) and K (column): the left
    cosets xK with x^-1 H x inside K, counted one by one."""
    reps = [c[0][0] for c in classes(g)]
    rows = []
    for h in reps:
        row = []
        for k in reps:
            seen = set()
            count = 0
            for x in range(g.order):
                if x in seen:
                    continue
                seen.update(g.table[x][e] for e in k)
                if all(_conjugate(g, [e], g.inv[x]) <= k for e in h):
                    count += 1
            row.append(count)
        rows.append(row)
    return rows
