"""Rank-valued Moebius inversion and Euler characteristics for finite EI
categories.

The isomorphism classes of an EI category are partially ordered by
"there is a morphism from here to there".  Strictly increasing chains of
classes carry a set S(c): tuples (f_l, ..., f_1) of morphisms along the chain,
divided by the automorphism groups of the interior objects acting between
consecutive slots.  The automorphisms of the two endpoint objects still act on
the quotient, and all the invariants below are signed sums of orbit counts of
those actions:

  - omega_bar2: |mor(y, x)| / |aut y|, unit upper triangular: the class
    table's integer rows over its diagonal, as a ``catrank.Rows``.
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
    (Rota 1964).  The report keeps these integers, and mu_bar2 is its rows
    over |A_i|, a ``catrank.Rows``; no rational vector or matrix is built.
  - _ei: the weighting and the coweighting on the class representatives.

Each reads only the class table, a ``catrank.IsoPoset``, which
``iso_order`` builds in the category layer; nothing of that layer is imported.
"""

from __future__ import annotations

import math

from . import IsoPoset, Rows, ratio
from .exactq import sum_ratios


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


def _back_substitute(poset: IsoPoset) -> tuple[list[list[int]], list[dict[int, int]]]:
    """(f, rows) of an EI category's class table, filled from the top class
    down, with C running over acts[i][t][b] for the classes t above i:

      f_i(b) = 1 - sum over t, C of (1/|C|) sum over a in C of f_t(a),
      h_i(b) = |A_i| [b = 1] e_i - the same sum over h_t,

    f_i on all of A_i, h_i a sparse row over the classes j on a demand set
    D_i only: 1 is in D_i, and D_t contains each C in acts[i][t][b] for
    every b in D_i, so the sets are grown from the bottom class up.

    f_i(b) is the signed count, over the chains c out of i, of the points of
    A_top \\ S(c) that b fixes, and h_i(b)[j] the signed count of the
    points of S(c) that b fixes, over the chains from i to j.  Both are
    class functions, which is why the sum over A_t can be grouped by
    A_t-orbits on hom(i, t); each (t, x) term is an integer (the orbits of
    the stabiliser of x that the coset C(x, b) fixes), and that is asserted.
    The demand sets stay local; rows[i] is h_i(1).

    On a free category every C is one automorphism and D_i = {1}, so
    h_i(1)[j] is |A_j| times the signed count of A_j \\ S(c) over the
    chains from i to j."""
    k, homs, acts, labels = poset.size, poset.homs, poset.acts, poset.labels
    demand = [{0} for _ in range(k)]
    for i in range(k):
        # every class below i comes before it, so D_i is complete here
        for t, cs in acts[i].items():
            for b in demand[i]:
                for c in cs[b]:
                    demand[t].update(c)
    f: list[list[int]] = [[]] * k
    h: list[dict[int, dict[int, int]]] = [{}] * k
    for i in reversed(range(k)):
        fi = [1] * homs[i][i]
        hi = {b: {} for b in demand[i]}
        hi[0][i] = homs[i][i]
        for t, cs in acts[i].items():
            ft, ht = f[t], h[t]
            for b, fixed in enumerate(cs):
                row = hi.get(b)
                cosets: dict[tuple[int, ...], int] = {}
                for c in fixed:
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


def _ei(poset: IsoPoset, columns: bool) -> tuple[list[int], list[int]]:
    """The solution w[i] / q[i], in lowest terms, of zeta k = 1 (or of its
    transpose) on the class representatives: the class table's ``homs``,
    upper triangular with diagonal |aut i|, by its rows from the top class
    down or its columns from the bottom class up, each value the rest
    1 - sum h w_t over the lcm of the w_t's denominators, over |aut i|."""
    k, homs = poset.size, poset.homs
    table = list(zip(*homs)) if columns else homs
    w, q = [0] * k, [1] * k  # w[i] / q[i]
    for i in (range(k) if columns else reversed(range(k))):
        # every t related to i is solved before it; w[i] itself is still 0
        related = [(t, h) for t, h in enumerate(table[i]) if h]
        den = math.lcm(*(q[t] for t, _ in related))
        rest = den - sum(h * w[t] * (den // q[t]) for t, h in related)
        den *= homs[i][i]
        d = math.gcd(rest, den)
        w[i], q[i] = rest // d, den // d
    return w, q


# ------------------------------------------------------------------ matrices


def omega_bar2(poset: IsoPoset) -> Rows:
    """Entry at (row y-class, column x-class): |mor(y, x)| / |aut y|, the
    class table's rows over its diagonal (|aut y| = |hom(y, y)| in an EI
    category)."""
    homs = poset.homs
    return Rows(poset.labels, homs, [row[i] for i, row in enumerate(homs)])


# --------------------------------------------------------------------- euler


class EulerReport:
    """chi_f, chi, chi_f2, chi2 and mu_bar2 of an EI category (see
    ``euler_characteristics``), kept as integers per class i: the orbit
    count chi_f[i] (``orbits``), f_i(1) (``fixed``), the sparse row h_i(1)
    (``rows``) and |A_i| (``sizes``).  chi_f2[i] is fixed[i] / sizes[i],
    and mu_bar2 the rows over the sizes."""

    __slots__ = ("labels", "orbits", "fixed", "rows", "sizes", "chi", "chi2")

    def __init__(self, labels, orbits: list[int], fixed: list[int],
                 rows: list[dict[int, int]], sizes: list[int]):
        self.labels = labels
        self.orbits = orbits
        self.fixed = fixed
        self.rows = rows
        self.sizes = sizes
        self.chi = sum(orbits)
        self.chi2 = sum_ratios(fixed, sizes)

    @property
    def mu_bar2(self) -> Rows:
        """mu_bar2[i][j] = h_i(1)[j] / |A_i|."""
        return Rows(self.labels, self.rows, self.sizes)

    def __repr__(self) -> str:
        return f"EulerReport(chi={self.chi}, chi2={self.chi2})"


def euler_characteristics(poset: IsoPoset) -> EulerReport:
    """Functorial and rank-weighted Euler characteristics of a finite EI
    category, and mu_bar2, from its class table: read off (f, rows) of
    ``_back_substitute``:
    chi_f[i] = sum over b of f_i(b) / |A_i| (Burnside's lemma),
    chi_f2[i] = f_i(1) / |A_i| and mu_bar2[i][j] = h_i(1)[j] / |A_i|.  One
    integer back-substitution from the top class down, free or not; no
    chain is visited, and no rational vector or matrix is built."""
    f, rows = _back_substitute(poset)
    orbits = []
    for i, fi in enumerate(f):
        n, rest = divmod(sum(fi), len(fi))
        assert rest == 0, f"chi_f not integral at class {poset.labels[i]}: {ratio(sum(fi), len(fi))}"
        orbits.append(n)
    return EulerReport(poset.labels, orbits, [fi[0] for fi in f], rows, [len(fi) for fi in f])
