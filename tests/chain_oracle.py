"""Brute-force chain sums, the reference for catrank.moebius.euler_characteristics.

Every chain of iso classes is enumerated on its own and its set S(c) is built
as the full product hom x ... x hom, then merged under every interior
automorphism by union-find.  This is slow but shares no code with the
library's incremental walk, which is what makes it a useful oracle.

``chi_f2_via_eta`` reads mu_bar2 off these sums, and ``integral_moebius``
inverts the hom-count matrix by summing its powers, the reference for the
library's back-substitution.
"""

import itertools
import operator
from fractions import Fraction

from catrank.exactq import QVector
from catrank.fincat import classify
from catrank.moebius import IsoPoset, iso_order


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


def enumerate_chains(poset: IsoPoset, start: int, end=None, max_length=None):
    """All strictly increasing chains from start (to end, if given)."""
    cap = poset.size - 1 if max_length is None else max_length

    def walk(prefix):
        last = prefix[-1]
        if end is None or last == end:
            yield Chain(prefix)
        if len(prefix) - 1 >= cap:
            return
        for j in range(poset.size):
            if j != last and poset.leq[last][j]:
                if end is not None and not (j == end or poset.leq[j][end]):
                    continue
                yield from walk(prefix + (j,))

    if end is not None and not (start == end or poset.leq[start][end]):
        return
    yield from walk((start,))


class ChainBiset:
    """S(c) for a chain c: tuples (f_l, ..., f_1) of morphisms between the
    class representatives, modulo the interior automorphism actions, with the
    residual left aut(top) and right aut(bottom) actions."""

    def __init__(self, poset: IsoPoset, chain: Chain):
        self.poset = poset
        self.chain = chain
        cat = poset.cat
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
        cat = self.poset.cat
        return self._find[(cat.compose(a, elem[0]),) + elem[1:]]

    def act_right(self, elem: tuple, b: int) -> tuple:
        cat = self.poset.cat
        return self._find[elem[:-1] + (cat.compose(elem[-1], b),)]

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
        ai = poset.aut_order(i)
        f = f2 = 0
        row = [0] * k
        for chain in enumerate_chains(poset, i, max_length=max_chain_length):
            b = ChainBiset(poset, chain)
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
        for chain in enumerate_chains(poset, i, max_length=max(max_chain_length, 0) + 1)
    )
    return chi_f, chi_f2, mu_rows, truncated


def chi_f2_via_eta(cat) -> QVector:
    """The rank-weighted functorial values as mu_bar2 applied to the vector
    1/|aut|, with mu_bar2 from ``chain_sums``; agrees with chi_f2 for free EI
    categories."""
    rep = classify(cat)
    if not rep.is_ei:
        raise ValueError("requires an EI category")
    if not rep.is_free:
        raise ValueError("requires a free EI category")
    poset = iso_order(cat)
    eta = [Fraction(1, poset.aut_order(i)) for i in range(poset.size)]
    mu_rows = chain_sums(cat)[2]
    return QVector([sum(map(operator.mul, row, eta), Fraction(0)) for row in mu_rows],
                   poset.labels)


def integral_moebius(cat):
    """(A, B) for a skeletal category with trivial endomorphisms by matrix
    powers: A[i][j] = |hom(j, i)| = I + N, and B = sum over n of (-N)^n, the
    alternating count of paths of nonidentity morphisms; as nested lists of
    ints in the poset's class order, with the class labels."""
    rep = classify(cat)
    if not (rep.is_skeletal and rep.has_trivial_endomorphisms):
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
