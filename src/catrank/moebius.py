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
    |aut y|, inverse to omega_bar2 whenever the category is free).  Two
    routes compute them:
      * on a free EI category with no chain cut, one integer
        back-substitution from the top class down (``_back_substitute``):
        per class i a class function f_i on aut(i), whose average is chi_f
        (Burnside's lemma) and whose value at 1 over |aut i| is chi_f2, and
        a sparse row g_i that is mu_bar2 up to the automorphism orders.  When
        every endomorphism is an identity g is the classical Moebius
        function of the class poset (Rota 1964), read by ``moebius_rows``;
      * otherwise (a non-free EI category, or a cut) one depth-first walk
        over the chains builds every S(c) with its actions.  It is also the
        oracle of the back-substitution.
  - integral_moebius: the integer zeta/Moebius pair (A, B) for skeletal
    categories with trivial endomorphisms; B is the transpose of
    ``moebius_rows``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactq import QMatrix, QVector
from .fincat import FiniteCategory, iso_classes


class IsoPoset:
    """Iso classes of an EI category, in canonical order: ascending by
    (longest chain strictly below, representative object index).  The
    representative of a class is its least-index object."""

    __slots__ = ("cat", "labels", "members", "reps", "leq", "lengths")

    def __init__(self, cat, labels, members, reps, leq, lengths):
        self.cat = cat
        self.labels = labels
        self.members = members
        self.reps = reps
        self.leq = leq
        self.lengths = lengths

    @property
    def size(self) -> int:
        return len(self.labels)

    def aut_order(self, i: int) -> int:
        return len(self.cat.aut(self.reps[i]))

    def __repr__(self) -> str:
        return f"IsoPoset({self.size} classes)"


def iso_order(cat: FiniteCategory) -> IsoPoset:
    for m in range(cat.n_morphisms):
        if cat.dom[m] == cat.cod[m] and not cat.is_iso(m):
            raise ValueError(
                "iso class order needs an EI category; "
                f"morphism {m} is a non-invertible endomorphism"
            )
    classes = iso_classes(cat)
    reps = [cat.obj_index(c[0]) for c in classes]
    k = len(classes)
    leq = [[bool(cat.hom(reps[i], reps[j])) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                assert not (leq[i][j] and leq[j][i]), "EI forces antisymmetry"

    # j < i implies down(j) is strictly inside down(i), so visiting classes by
    # the size of their down-set fills every class after all classes below it
    below = [[j for j in range(k) if j != i and leq[j][i]] for i in range(k)]
    lengths = [0] * k
    for i in sorted(range(k), key=lambda i: len(below[i])):
        lengths[i] = 1 + max(lengths[j] for j in below[i]) if below[i] else 0
    order = sorted(range(k), key=lambda i: (lengths[i], reps[i]))
    return IsoPoset(
        cat,
        tuple(cat.objects[reps[i]] for i in order),
        tuple(tuple(classes[i]) for i in order),
        tuple(reps[i] for i in order),
        tuple(tuple(leq[i][j] for j in order) for i in order),
        tuple(lengths[i] for i in order),
    )


def _once(cat: FiniteCategory, key: str, build):
    """build(cat), computed once per category and kept on it."""
    memo = cat._memo
    if key not in memo:
        memo[key] = build(cat)
    return memo[key]


def _back_substitute(cat: FiniteCategory) -> tuple[list[list[int]], list[dict[int, int]]] | None:
    """(f, g) of a free EI category, filled from the top class down; None as
    soon as some aut(t) has an orbit shorter than |aut t| on some hom(i, t),
    i.e. when the category is not free.

    With A_i = aut(rep i), R_it a set of representatives of the A_t-orbits on
    hom(i, t) and, for x in R_it and b in A_i, a_x(b) the unique a in A_t with
    x o b = a o x (when there is one):

      f_i(b) = 1 - sum over t above i, x in R_it with x o b in A_t o x of
               f_t(a_x(b)),
      g_i    = e_i - sum over t above i of |R_it| g_t.

    f_i(b) is the signed count, over the chains c out of i, of the points of
    A_top \\ S(c) that b fixes, as a list over the positions of cat.aut(rep i);
    g_i(j) is the signed count of A_j \\ S(c) over the chains from i to j, as a
    sparse dict.  Freeness makes S(c) = S(c_t) x_{A_t} hom(i, t) a product
    S(c_t) x R_it, which is what both recurrences read; at b = 1 they agree,
    so f_i(1) is the sum of the row g_i.  Every endomorphism an identity is
    the case |A| = 1: g is then the Moebius function of the class poset
    (Rota 1964)."""
    poset = _once(cat, "iso_order", iso_order)
    k, reps, leq = poset.size, poset.reps, poset.leq
    comp = cat.compose_table
    auts = [cat.aut(r) for r in reps]
    f: list[list[int]] = [[]] * k
    g: list[dict[int, int]] = [{}] * k
    for i in reversed(range(k)):
        fi = [1] * len(auts[i])
        gi = {i: 1}
        for t in range(i + 1, k):
            if not leq[i][t]:
                continue
            hom = cat.hom(reps[i], reps[t])
            at, ft = auts[t], f[t]
            where = {}  # h -> (x, position of a in at) with h = a o x, x in R_it
            orbit_reps = []
            for x in hom:
                if x not in where:
                    orbit_reps.append(x)
                    for ai, a in enumerate(at):
                        where[comp[a, x]] = (x, ai)
            if len(orbit_reps) * len(at) != len(hom):
                return None
            for x in orbit_reps:
                for bi, b in enumerate(auts[i]):
                    y, ai = where[comp[x, b]]
                    if y == x:
                        fi[bi] -= ft[ai]
            n = len(orbit_reps)
            for j, v in g[t].items():
                gi[j] = gi.get(j, 0) - n * v
        f[i] = fi
        g[i] = {j: v for j, v in gi.items() if v}
    return f, g


def free_sums(cat: FiniteCategory) -> tuple[list[list[int]], list[dict[int, int]]] | None:
    """(f, g) of ``_back_substitute`` for an EI category, None when it is not
    free; computed once per category and shared by ``moebius_rows``,
    ``euler_characteristics`` and the weightings of ``leinster``."""
    return _once(cat, "moebius", _back_substitute)


def moebius_rows(cat: FiniteCategory) -> tuple[IsoPoset, list[dict[int, int]]] | None:
    """mu_bar2 = omega_bar2^-1 of a category whose endomorphisms are all
    identities, as sparse integer rows {class: entry} in iso order, with the
    class poset; None for any other category.

    These are the rows g of ``_back_substitute``, read from the memo that
    ``euler_characteristics`` shares, so the recurrence runs once per
    category.  With trivial automorphism groups they are
    mu[i] = e_i - sum over the classes t above i of |hom(i, t)| mu[t]."""
    if any(len(cat.hom(x, x)) != 1 for x in range(cat.n_objects)):
        return None
    return _once(cat, "iso_order", iso_order), free_sums(cat)[1]


# ------------------------------------------------------------------ matrices


def omega_bar2(cat: FiniteCategory) -> QMatrix:
    """Entry at (row y-class, column x-class): |mor(y, x)| / |aut y|."""
    poset = _once(cat, "iso_order", iso_order)
    reps = poset.reps
    zero = Fraction(0)
    rows = []
    for i, y in enumerate(reps):
        a = poset.aut_order(i)
        rows.append([Fraction(len(cat.hom(y, x)), a) if leq else zero
                     for x, leq in zip(reps, poset.leq[i])])
    return QMatrix.from_rows(rows, poset.labels, poset.labels)


def integral_moebius(cat: FiniteCategory) -> tuple[QMatrix, QMatrix]:
    """The integer incidence pair (A, B) for a skeletal category with trivial
    endomorphisms, rows indexed by the target class: A counts morphisms,
    A[i][j] = |hom(j, i)|, and B = A^-1 is the transpose of ``moebius_rows``."""
    found = moebius_rows(cat)
    if found is None or found[0].size != cat.n_objects:
        raise ValueError(
            "integral Moebius inversion needs a skeletal category with "
            "trivial endomorphisms"
        )
    poset, rows = found
    reps, labels, k = poset.reps, poset.labels, poset.size
    a = [[len(cat.hom(reps[j], reps[i])) for j in range(k)] for i in range(k)]
    b = [[rows[j].get(i, 0) for j in range(k)] for i in range(k)]
    return QMatrix.from_rows(a, labels, labels), QMatrix.from_rows(b, labels, labels)


# --------------------------------------------------------------------- euler


class EulerReport:
    """Chain sums of an EI category, from the back-substitution or the walk
    (see ``euler_characteristics``).  When truncated is true the depth bound
    cut at least one chain, so chi_f, chi, chi_f2, chi2 and mu_bar2 are
    partial sums, not the invariants."""

    __slots__ = ("labels", "chi_f", "chi", "chi_f2", "chi2", "mu_bar2", "truncated")

    def __init__(self, labels, chi_f: QVector, chi, chi_f2: QVector, chi2,
                 mu_bar2: QMatrix, truncated: bool):
        self.labels = labels
        self.chi_f = chi_f
        self.chi = chi
        self.chi_f2 = chi_f2
        self.chi2 = chi2
        self.mu_bar2 = mu_bar2
        self.truncated = truncated

    def __repr__(self) -> str:
        return f"EulerReport(chi={self.chi}, chi2={self.chi2}, truncated={self.truncated})"


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


def _report(poset: IsoPoset, chi_f: list[Fraction], chi_f2: list[Fraction],
            mu_rows: list[list[Fraction]], truncated: bool) -> EulerReport:
    labels = poset.labels
    return EulerReport(labels, QVector(chi_f, labels), sum(chi_f, Fraction(0)),
                       QVector(chi_f2, labels), sum(chi_f2, Fraction(0)),
                       QMatrix.from_rows(mu_rows, labels, labels), truncated)


def _euler_from_sums(poset: IsoPoset, f: list[list[int]], g: list[dict[int, int]]) -> EulerReport:
    """The report of a free EI category from (f, g) of ``_back_substitute``:
    chi_f[i] = sum over b of f_i(b) / |A_i| (Burnside's lemma),
    chi_f2[i] = f_i(1) / |A_i| = sum over j of g_i(j) / |A_i|, and
    mu_bar2[i][j] = |A_j| g_i(j) / |A_i|, A_j acting freely on every S(c)."""
    orders = [len(fi) for fi in f]
    zero = Fraction(0)
    chi_f, chi_f2, mu_rows = [], [], []
    for i, (fi, gi) in enumerate(zip(f, g)):
        ai = orders[i]
        orbits, rest = divmod(sum(fi), ai)
        assert rest == 0, (f"chi_f not integral at class {poset.labels[i]}: "
                           f"{Fraction(sum(fi), ai)}")
        chi_f.append(Fraction(orbits))
        chi_f2.append(Fraction(sum(gi.values()), ai))
        row = [zero] * len(f)
        for j, v in gi.items():
            row[j] = Fraction(orders[j] * v, ai)
        mu_rows.append(row)
    return _report(poset, chi_f, chi_f2, mu_rows, False)


def euler_characteristics(cat: FiniteCategory, max_chain_length: int | None = None) -> EulerReport:
    """Functorial and rank-weighted Euler characteristics of a finite EI
    category, and mu_bar2.

    When the category is free and max_chain_length is None or at least the
    longest chain, they are read off the class functions of
    ``_back_substitute``: one integer back-substitution from the top class
    down, no chain is visited.

    Otherwise (a non-free EI category, or a cut) one depth-first walk over
    the chains out of each class computes them.  A node of the walk is a
    chain c with its set S(c), stored as index tables of the left aut(top)
    and right aut(bottom) actions; S((x,)) = aut(x), and
    S(c + y) = hom(top, y) x_{aut top} S(c).  Each node adds (-1)^length
    times |S(c)| to mu_bar2 at (bottom, top), times its left-orbit count to
    chi_f2 of the bottom class and times its double-orbit count to chi_f;
    mu_bar2 and chi_f2 are divided by |aut bottom|.  Chains longer than
    max_chain_length are cut, which sets the report's truncated flag.  The
    walk is also the oracle of the back-substitution."""
    poset = _once(cat, "iso_order", iso_order)
    if max_chain_length is None or max_chain_length >= max(poset.lengths, default=0):
        sums = free_sums(cat)
        if sums is not None:
            return _euler_from_sums(poset, *sums)
    k = poset.size
    cap = k if max_chain_length is None else max_chain_length
    comp = cat.compose_table
    auts = [cat.aut(r) for r in poset.reps]
    above = [[j for j in range(k) if j != i and poset.leq[i][j]] for i in range(k)]
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
    return _report(poset, chi_f, chi_f2, mu_rows, truncated)


def nerve_euler_characteristic(cat: FiniteCategory) -> int:
    """Alternating count of nondegenerate simplex chains of the nerve.

    Defined only when chains of nonidentity morphisms cannot cycle; a category
    with a loop of nonidentity morphisms has simplices in every dimension.
    """
    nonid = [m for m in range(cat.n_morphisms) if not cat.is_identity(m)]
    adj = {x: set() for x in range(cat.n_objects)}
    for m in nonid:
        adj[cat.dom[m]].add(cat.cod[m])
    # iterative depth-first search; grey objects are on the current path
    color = [0] * cat.n_objects
    for root in range(cat.n_objects):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(adj[root]))]
        while stack:
            x, succ = stack[-1]
            for y in succ:
                if color[y] == 1:
                    raise ValueError("nerve is infinite: nonidentity morphisms form a cycle")
                if color[y] == 0:
                    color[y] = 1
                    stack.append((y, iter(adj[y])))
                    break
            else:
                color[x] = 2
                stack.pop()

    # counts[g]: chains of nonidentity morphisms of the current length ending in g
    chi = cat.n_objects
    counts = {m: 1 for m in nonid}
    sign = -1
    while counts:
        chi += sign * sum(counts.values())
        into = [0] * cat.n_objects
        for f, c in counts.items():
            into[cat.cod[f]] += c
        counts = {g: into[cat.dom[g]] for g in nonid if into[cat.dom[g]]}
        sign = -sign
    return chi
