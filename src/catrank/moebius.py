"""Rank-valued Moebius inversion and Euler characteristics for finite EI
categories.

The isomorphism classes of an EI category are partially ordered by
"there is a morphism from here to there".  Strictly increasing chains of
classes carry a set S(c): tuples (f_l, ..., f_1) of morphisms along the chain,
divided by the automorphism groups of the interior objects acting between
consecutive slots.  The automorphisms of the two endpoint objects still act on
the quotient, and all the invariants below are signed sums of orbit counts of
those actions:

  - omega_bar2: |mor(y, x)| / |aut y|, unit upper triangular.
  - euler_characteristics: the per-class functorial values (double orbits of
    S(c), integers), their rank-weighted counterparts (left orbits /
    |aut y|), the totals, and mu_bar2 (sum over chains of +/- |S(c)| /
    |aut y|, inverse to omega_bar2 whenever the category is free).  One
    integer back-substitution from the top class down computes them for
    every EI category, no chain is visited (``_back_substitute``): per class
    i a class function f_i on aut(i), whose average is chi_f (Burnside's
    lemma) and whose value at 1 over |aut i| is chi_f2, and a sparse row
    h_i(1) that is |aut i| times the row i of mu_bar2.  A free category is
    its special case in which every automorphism group acts freely, so only
    the values at 1 of the rows are needed; when every endomorphism is an
    identity the rows are the classical Moebius function of the class poset
    (Rota 1964).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactq import QMatrix, QVector
from .fincat import FiniteCategory, _once, ei_witness, iso_classes


class IsoPoset(namedtuple("IsoPoset", "labels members reps homs auts lengths")):
    """The class table of an EI category, which every class-level invariant
    reads: the iso classes in canonical order, ascending by (longest chain
    strictly below, representative = least-index object), homs[i][j] =
    |hom(rep i, rep j)|, nonzero exactly when class i lies at or below
    class j, and auts[i] = aut(rep i) with the identity first."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"IsoPoset({self.size} classes)"


@_once
def iso_order(cat: FiniteCategory) -> IsoPoset:
    m = ei_witness(cat)
    if m is not None:
        raise ValueError(
            "iso class order needs an EI category; "
            f"morphism {m} is a non-invertible endomorphism"
        )
    classes = iso_classes(cat)
    reps = [cat.obj_index(c[0]) for c in classes]
    k = len(classes)
    # the nonzero entries only: per class i, {j: |hom(rep i, rep j)|}, read
    # off the morphisms out of rep i
    class_of = dict(zip(reps, range(k)))
    counts: list[dict[int, int]] = []
    for r in reps:
        row: dict[int, int] = {}
        for f in cat.morphisms_from(r):
            j = class_of.get(cat.cod[f])
            if j is not None:
                row[j] = row.get(j, 0) + 1
        counts.append(row)
    below: list[list[int]] = [[] for _ in range(k)]
    for i, row in enumerate(counts):
        for j in row:
            if j != i:
                assert i not in counts[j], "EI forces antisymmetry"
                below[j].append(i)

    # j < i implies down(j) is strictly inside down(i), so visiting classes by
    # the size of their down-set fills every class after all classes below it
    lengths = [0] * k
    for i in sorted(range(k), key=lambda i: len(below[i])):
        lengths[i] = 1 + max(lengths[j] for j in below[i]) if below[i] else 0
    order = sorted(range(k), key=lambda i: (lengths[i], reps[i]))
    place = [0] * k
    for p, i in enumerate(order):
        place[i] = p
    homs = [[0] * k for _ in range(k)]
    for i, row in enumerate(counts):
        for j, n in row.items():
            homs[place[i]][place[j]] = n
    # EI: the endomorphisms are the automorphisms; a stable sort puts 1 first
    auts = [tuple(sorted(cat.hom(r, r), key=cat.identity[r].__ne__)) for r in reps]
    return IsoPoset(
        tuple(cat.objects[reps[i]] for i in order),
        tuple(tuple(classes[i]) for i in order),
        tuple(reps[i] for i in order),
        tuple(map(tuple, homs)),
        tuple(auts[i] for i in order),
        tuple(lengths[i] for i in order),
    )


def _orbits(cat: FiniteCategory, hom, auts
            ) -> tuple[list[int], dict[int, tuple[int, tuple[int, ...]]]]:
    """The auts-orbits on hom: their first elements x, and for each y in hom
    the x of its orbit with the positions in auts of the a with a o x = y.

    For b in the automorphisms of the source, C(x, b) = {a : a o x = x o b}
    is then the positions at x o b when x o b lies in the orbit of x, and
    empty otherwise: a coset of the stabiliser of x, of size s_x."""
    xs = []
    fibre = {}
    places = [cat.at[a] for a in auts]
    for x in hom:
        if x not in fibre:
            xs.append(x)
            row = cat.rows[x]
            for p, q in enumerate(places):
                y = row[q]
                fibre[y] = (x, fibre[y][1] + (p,) if y in fibre else (p,))
    return xs, fibre


def _average(rows: dict[int, dict[int, int]], c: tuple[int, ...], label) -> dict[int, int]:
    """The sparse row (1/|c|) sum over a in c of rows[a], asserted integral."""
    if len(c) == 1:
        return rows[c[0]]
    total: dict[int, int] = {}
    for a in c:
        for j, v in rows[a].items():
            total[j] = total.get(j, 0) + v
    for j, v in total.items():
        total[j], r = divmod(v, len(c))
        assert r == 0, f"h not integral at class {label}"
    return total


@_once
def _back_substitute(cat: FiniteCategory) -> tuple[list[list[int]], list[dict[int, int]]]:
    """(f, rows) of an EI category, filled from the top class down.

    With A_i = aut(rep i), listed with the identity first, x running over
    representatives of the A_t-orbits on hom(i, t) for a class t above i,
    and C(x, b) = {a in A_t : a o x = x o b} of size s_x when nonempty:

      f_i(b) = 1 - sum over t, x with C(x, b) nonempty of
               (1/s_x) sum over a in C(x, b) of f_t(a),
      h_i(b) = |A_i| [b = 1] e_i - the same sum over h_t,

    f_i on all of A_i, h_i a sparse row over the classes j on a demand set
    D_i only: 1 is in D_i, and D_t contains C(x, b) for every b in D_i and x
    in hom(i, t), so the sets are grown from the bottom class up.

    f_i(b) is the signed count, over the chains c out of i, of the points of
    A_top \\ S(c) that b fixes, and h_i(b)[j] the signed count of the
    points of S(c) that b fixes, over the chains from i to j.  Both are
    class functions, which is why the sum over A_t can be grouped by
    A_t-orbits on hom(i, t); each (t, x) term is an integer (the orbits of
    the stabiliser of x that the coset fixes), and that is asserted.  The
    orbits and demand sets stay local; rows[i] is h_i(1).

    On a free category every s_x is 1 and D_i = {1}, so h_i(1)[j] is |A_j|
    times the signed count of A_j \\ S(c) over the chains from i to j."""
    poset = iso_order(cat)
    k, reps, homs, auts, labels = poset.size, poset.reps, poset.homs, poset.auts, poset.labels
    rows, at = cat.rows, cat.at
    orbits: list[dict[int, tuple]] = [{} for _ in range(k)]
    demand = [{0} for _ in range(k)]
    for i in range(k):
        # every class below i comes before it, so D_i is complete here
        for t in range(i + 1, k):
            if homs[i][t]:
                xs, fibre = orbits[i][t] = _orbits(cat, cat.hom(reps[i], reps[t]), auts[t])
                for b in demand[i]:
                    after_b = rows[auts[i][b]]
                    for x in xs:
                        y, c = fibre[after_b[at[x]]]
                        if y == x:
                            demand[t].update(c)
    f: list[list[int]] = [[]] * k
    h: list[dict[int, dict[int, int]]] = [{}] * k
    for i in reversed(range(k)):
        fi = [1] * len(auts[i])
        hi = {b: {} for b in demand[i]}
        hi[0][i] = len(auts[i])
        for t, (xs, fibre) in orbits[i].items():
            ft, ht = f[t], h[t]
            for b, m in enumerate(auts[i]):
                row = hi.get(b)
                after_m = rows[m]
                cosets: dict[tuple[int, ...], int] = {}
                for x in xs:
                    y, c = fibre[after_m[at[x]]]
                    if y != x:
                        continue
                    if len(c) == 1:  # a free orbit, where the average is one value
                        fi[b] -= ft[c[0]]
                    else:
                        q, r = divmod(sum(ft[a] for a in c), len(c))
                        assert r == 0, f"f not integral at class {labels[i]}"
                        fi[b] -= q
                    if row is not None:
                        cosets[c] = cosets.get(c, 0) + 1
                for c, n in cosets.items():
                    for j, v in _average(ht, c, labels[i]).items():
                        row[j] = row.get(j, 0) - n * v
        f[i] = fi
        h[i] = {b: {j: v for j, v in row.items() if v} for b, row in hi.items()}
    return f, [hi[0] for hi in h]


# ------------------------------------------------------------------ matrices


def omega_bar2(cat: FiniteCategory) -> QMatrix:
    """Entry at (row y-class, column x-class): |mor(y, x)| / |aut y|, read
    off the class table (|aut y| = |hom(y, y)| in an EI category)."""
    poset = iso_order(cat)
    zero = Fraction(0)
    rows = [[Fraction(h, row[i]) if h else zero for h in row]
            for i, row in enumerate(poset.homs)]
    return QMatrix.from_rows(rows, poset.labels, poset.labels)


# --------------------------------------------------------------------- euler


class EulerReport:
    """chi_f, chi, chi_f2, chi2 and mu_bar2 of an EI category (see
    ``euler_characteristics``)."""

    __slots__ = ("labels", "chi_f", "chi", "chi_f2", "chi2", "mu_bar2")

    def __init__(self, labels, chi_f: QVector, chi, chi_f2: QVector, chi2, mu_bar2: QMatrix):
        self.labels = labels
        self.chi_f = chi_f
        self.chi = chi
        self.chi_f2 = chi_f2
        self.chi2 = chi2
        self.mu_bar2 = mu_bar2

    def __repr__(self) -> str:
        return f"EulerReport(chi={self.chi}, chi2={self.chi2})"


def euler_characteristics(cat: FiniteCategory) -> EulerReport:
    """Functorial and rank-weighted Euler characteristics of a finite EI
    category, and mu_bar2, read off (f, rows) of ``_back_substitute``:
    chi_f[i] = sum over b of f_i(b) / |A_i| (Burnside's lemma),
    chi_f2[i] = f_i(1) / |A_i| and mu_bar2[i][j] = h_i(1)[j] / |A_i|.  One
    integer back-substitution from the top class down, free or not; no
    chain is visited."""
    labels = iso_order(cat).labels
    f, rows = _back_substitute(cat)
    zero = Fraction(0)
    chi_f, chi_f2, mu_rows = [], [], []
    for i, (fi, hi) in enumerate(zip(f, rows)):
        ai = len(fi)
        orbits, rest = divmod(sum(fi), ai)
        assert rest == 0, f"chi_f not integral at class {labels[i]}: {Fraction(sum(fi), ai)}"
        chi_f.append(Fraction(orbits))
        chi_f2.append(Fraction(fi[0], ai))
        row = [zero] * len(f)
        for j, v in hi.items():
            row[j] = Fraction(v, ai)
        mu_rows.append(row)
    return EulerReport(labels, QVector(chi_f, labels), sum(chi_f, zero),
                       QVector(chi_f2, labels), sum(chi_f2, zero),
                       QMatrix.from_rows(mu_rows, labels, labels))
