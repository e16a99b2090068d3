"""Chain sums by enumerating chains, the references for
catrank.moebius.euler_characteristics.

``chain_sums`` is the brute force: every chain of iso classes is enumerated
on its own and its set S(c) is built as the full product hom x ... x hom,
then merged under every interior automorphism by union-find.  It is slow but
shares no code with the library, which is what makes it a useful oracle.
Both oracles take the class order from ``iso_order`` but read the relation
between classes and their automorphism groups off the category's own hom
sets (``class_relation``, ``cat.aut``), never off the class table under test.

``walk_sums`` is the fast oracle: one depth-first walk over the chains out
of each class builds every S(c) incrementally with its actions, so it reaches
categories the brute force cannot.  Both take a bound on the chain length
and report whether it cut a chain.

``chi_f2_via_eta`` reads mu_bar2 off these sums, and ``integral_moebius``
inverts the hom-count matrix by summing its powers.

``nerve_by_listing_chains`` counts the nondegenerate simplices of the nerve
one by one, the reference for the ``chi_nerve`` that ``catrank euler``
prints.
"""

import itertools
import operator
from fractions import Fraction

from catrank import IsoPoset
from catrank.fincat import classify, iso_order

from assembly_oracle import table_of
from dense import QVector


class Chain:
    """A strictly increasing tuple of class indices in an IsoPoset."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        self.classes = tuple(classes)

    @property
    def length(self) -> int:
        return len(self.classes) - 1

    def __repr__(self) -> str:
        return f"Chain{self.classes}"


def class_relation(cat, poset: IsoPoset) -> list[list[bool]]:
    """leq[a][b]: is there a morphism from the representative of class a to
    that of class b, read off cat's hom sets rather than the class table
    under test."""
    return [[bool(cat.hom(x, y)) for y in poset.reps] for x in poset.reps]


def enumerate_chains(cat, poset: IsoPoset, start: int, end=None, max_length=None):
    """All strictly increasing chains from start (to end, if given)."""
    cap = poset.size - 1 if max_length is None else max_length
    leq = class_relation(cat, poset)

    def walk(prefix):
        last = prefix[-1]
        if end is None or last == end:
            yield Chain(prefix)
        if len(prefix) - 1 >= cap:
            return
        for j in range(poset.size):
            if j != last and leq[last][j]:
                if end is not None and not (j == end or leq[j][end]):
                    continue
                yield from walk(prefix + (j,))

    if end is not None and not (start == end or leq[start][end]):
        return
    yield from walk((start,))


class ChainBiset:
    """S(c) for a chain c: tuples (f_l, ..., f_1) of morphisms between the
    class representatives, modulo the interior automorphism actions, with the
    residual left aut(top) and right aut(bottom) actions."""

    def __init__(self, cat, poset: IsoPoset, chain: Chain):
        self.cat = cat
        self.chain = chain
        reps = [poset.reps[c] for c in chain.classes]
        l = chain.length
        if l == 0:
            raw = [(m,) for m in cat.hom(reps[0], reps[0])]
        else:
            slots = [cat.hom(reps[i - 1], reps[i]) for i in range(l, 0, -1)]
            raw = list(itertools.product(*slots))

        parent = {t: t for t in raw}

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo

        for t in raw:
            for i in range(1, l):
                hi = l - i - 1  # slot of f_{i+1}
                lo = l - i      # slot of f_i
                for a in cat.aut(reps[i]):
                    ainv = cat.inverse(a)
                    t2 = list(t)
                    t2[hi] = cat.compose(t[hi], a)
                    t2[lo] = cat.compose(ainv, t[lo])
                    union(t, tuple(t2))

        self._find = {t: find(t) for t in raw}
        self.elements = tuple(sorted(set(self._find.values())))
        self._left = tuple(cat.aut(reps[-1]))
        self._right = tuple(cat.aut(reps[0]))

    @property
    def size(self) -> int:
        return len(self.elements)

    def act_left(self, a: int, elem: tuple) -> tuple:
        return self._find[(self.cat.compose(a, elem[0]),) + elem[1:]]

    def act_right(self, elem: tuple, b: int) -> tuple:
        return self._find[elem[:-1] + (self.cat.compose(elem[-1], b),)]

    def left_orbit_count(self) -> int:
        return self._orbit_count(use_right=False)

    def double_orbit_count(self) -> int:
        return self._orbit_count(use_right=True)

    def _orbit_count(self, use_right: bool) -> int:
        todo = set(self.elements)
        count = 0
        while todo:
            count += 1
            frontier = [todo.pop()]
            while frontier:
                e = frontier.pop()
                nbrs = [self.act_left(a, e) for a in self._left]
                if use_right:
                    nbrs += [self.act_right(e, b) for b in self._right]
                for n in nbrs:
                    if n in todo:
                        todo.remove(n)
                        frontier.append(n)
        return count


def chain_sums(cat, max_chain_length=None):
    """(chi_f, chi_f2, mu_bar2 rows, truncated) by enumerating every chain out
    of every class and building each S(c) from scratch; rows and vectors are
    lists of Fractions in the poset's class order."""
    poset = iso_order(cat)
    k = poset.size
    chi_f, chi_f2, mu_rows = [], [], []
    for i in range(k):
        ai = len(cat.aut(poset.reps[i]))
        f = f2 = 0
        row = [0] * k
        for chain in enumerate_chains(cat, poset, i, max_length=max_chain_length):
            b = ChainBiset(cat, poset, chain)
            sign = (-1) ** chain.length
            f += sign * b.double_orbit_count()
            f2 += sign * b.left_orbit_count()
            row[chain.classes[-1]] += sign * b.size
        chi_f.append(Fraction(f))
        chi_f2.append(Fraction(f2, ai))
        mu_rows.append([Fraction(v, ai) for v in row])
    truncated = max_chain_length is not None and any(
        chain.length > max_chain_length
        for i in range(k)
        for chain in enumerate_chains(cat, poset, i, max_length=max(max_chain_length, 0) + 1)
    )
    return chi_f, chi_f2, mu_rows, truncated


def _orbit_count(n: int, tables) -> int:
    """Orbits of 0..n-1 under the maps tables[a][t]."""
    seen = bytearray(n)
    count = 0
    for t in range(n):
        if seen[t]:
            continue
        count += 1
        seen[t] = 1
        todo = [t]
        while todo:
            u = todo.pop()
            for tab in tables:
                v = tab[u]
                if not seen[v]:
                    seen[v] = 1
                    todo.append(v)
    return count


def _extend(left, right, hom_size, inner, outer):
    """Tables of hom(top, y) x_{aut top} S from those of S.

    A pair (g, s) stands for hom element g and element s of S, at index
    g * |S| + s; the aut(top)-orbit of (g, s) is {(g a^-1, a s)}, read off
    inner[a] (g -> g a^-1) and left[a].  The quotient's left action is
    aut(y) acting on g (outer), its right action that of aut(bottom) on s."""
    n = len(left[0])
    ids = [-1] * (hom_size * n)
    members = []
    for g in range(hom_size):
        for s in range(n):
            if ids[g * n + s] < 0:
                t = len(members)
                members.append((g, s))
                for ia, la in zip(inner, left):
                    ids[ia[g] * n + la[s]] = t
    return ([[ids[o[g] * n + s] for g, s in members] for o in outer],
            [[ids[g * n + r[s]] for g, s in members] for r in right])


def walk_sums(cat, max_chain_length=None):
    """(chi_f, chi_f2, mu_bar2 rows, truncated) as ``chain_sums`` returns
    them, by one depth-first walk over the chains out of each class.

    A node of the walk is a chain c with its set S(c), stored as index
    tables of the left aut(top) and right aut(bottom) actions;
    S((x,)) = aut(x), and S(c + y) = hom(top, y) x_{aut top} S(c).  Each
    node adds (-1)^length times |S(c)| to mu_bar2 at (bottom, top), times its
    left-orbit count to chi_f2 of the bottom class and times its
    double-orbit count to chi_f; mu_bar2 and chi_f2 are divided by
    |aut bottom|.  Chains longer than max_chain_length are cut, which sets
    truncated."""
    poset = iso_order(cat)
    k = poset.size
    cap = k if max_chain_length is None else max_chain_length
    comp = table_of(cat)
    auts = [cat.aut(r) for r in poset.reps]
    leq = class_relation(cat, poset)
    above = [[j for j in range(k) if j != i and leq[i][j]] for i in range(k)]
    steps = {}

    def step(i, j):
        if (i, j) not in steps:
            hom = cat.hom(poset.reps[i], poset.reps[j])
            at = {h: t for t, h in enumerate(hom)}
            steps[i, j] = (
                len(hom),
                [[at[comp[h, cat.inverse(a)]] for h in hom] for a in auts[i]],
                [[at[comp[a, h]] for h in hom] for a in auts[j]],
            )
        return steps[i, j]

    truncated = False
    chi_f, chi_f2, mu_rows = [], [], []
    for i in range(k):
        aut = auts[i]
        at = {m: t for t, m in enumerate(aut)}
        nodes = [(i, 0, [[at[comp[a, m]] for m in aut] for a in aut],
                  [[at[comp[m, b]] for m in aut] for b in aut])]
        f = f2 = 0
        row = [0] * k
        while nodes:
            top, length, left, right = nodes.pop()
            size = len(left[0])
            sign = -1 if length % 2 else 1
            row[top] += sign * size
            f2 += sign * _orbit_count(size, left)
            f += sign * _orbit_count(size, left + right)
            if length >= cap:
                truncated = truncated or bool(above[top])
                continue
            for j in above[top]:
                nodes.append((j, length + 1, *_extend(left, right, *step(top, j))))
        ai = len(aut)
        chi_f.append(Fraction(f))
        chi_f2.append(Fraction(f2, ai))
        mu_rows.append([Fraction(v, ai) for v in row])
    return chi_f, chi_f2, mu_rows, truncated


def chi_f2_via_eta(cat) -> QVector:
    """The rank-weighted functorial values as mu_bar2 applied to the vector
    1/|aut|, with mu_bar2 from ``chain_sums``; agrees with chi_f2 for free EI
    categories."""
    rep = classify(cat)
    if not rep["is_ei"]:
        raise ValueError("requires an EI category")
    if not rep["is_free"]:
        raise ValueError("requires a free EI category")
    poset = iso_order(cat)
    eta = [Fraction(1, len(cat.aut(r))) for r in poset.reps]
    mu_rows = chain_sums(cat)[2]
    return QVector([sum(map(operator.mul, row, eta), Fraction(0)) for row in mu_rows],
                   poset.labels)


def integral_moebius(cat):
    """(A, B) for a skeletal category with trivial endomorphisms by matrix
    powers: A[i][j] = |hom(j, i)| = I + N, and B = sum over n of (-N)^n, the
    alternating count of paths of nonidentity morphisms; as nested lists of
    ints in the poset's class order, with the class labels."""
    rep = classify(cat)
    if not (rep["is_skeletal"] and rep["has_trivial_endomorphisms"]):
        raise ValueError("needs a skeletal category with trivial endomorphisms")
    poset = iso_order(cat)
    k, reps = poset.size, poset.reps
    a = [[len(cat.hom(reps[j], reps[i])) for j in range(k)] for i in range(k)]
    n = [[a[i][j] - (i == j) for j in range(k)] for i in range(k)]
    b = [[int(i == j) for j in range(k)] for i in range(k)]
    power, sign = n, -1
    while any(any(row) for row in power):
        for i in range(k):
            for j in range(k):
                b[i][j] += sign * power[i][j]
        power = [[sum(n[i][t] * power[t][j] for t in range(k)) for j in range(k)]
                 for i in range(k)]
        sign = -sign
    return a, b, poset.labels


def nerve_by_listing_chains(cat):
    """Alternating count of the chains of composable nonidentity morphisms,
    listed one by one; None when a chain is longer than an acyclic category
    allows (then the nonidentity morphisms form a cycle)."""
    ids = set(cat.identity)
    nonid = [m for m in range(cat.n_morphisms) if m not in ids]
    chi = cat.n_objects
    chains = [(m,) for m in nonid]
    sign = -1
    while chains:
        if len(chains[0]) >= cat.n_objects:
            return None
        chi += sign * len(chains)
        chains = [c + (g,) for c in chains for g in nonid if cat.dom[g] == cat.cod[c[-1]]]
        sign = -sign
    return chi
