"""Finite groups as Cayley tables: subgroup lattice, conjugacy classes of
subgroups, Weyl group orders, table of marks, nu matrix and Burnside congruences.

Elements are integers 0..n-1 with 0 the identity. Subgroups are frozensets of
element indices. The canonical order on subgroup classes is ascending |H| with
ties broken by the lexicographically least sorted conjugate; that order makes
the marks matrix upper-triangular.

The lattice is built up to conjugacy, one class at a time (Pfeiffer 1997, The
subgroups of M24, or how to compute the table of marks of a finite group):

- ``closure`` is a breadth-first search from the identity under right
  multiplication by the generators, O(|H| * |generators|).
- Every class keeps a short generator tuple; the join of a representative H
  with a cyclic subgroup <x> closes over H's generators plus x.
- Only class representatives are joined with the cyclic subgroups, and each
  representative H with one cyclic subgroup per N_G(H)-orbit. A new
  subgroup's normalizer is found by conjugating its generators, and
  ``_conjugacy_class`` conjugates the subgroup once per left coset of the
  normalizer, by the coset's name from ``_least``, which gives its
  conjugates and the generators of the representative.
- Each mark is |(G/K)^H| = |N_G(H)| * #{H' ~ H : H' inside K} / |K|.
- ``_maps`` lists, for the orbit category, the cosets xK with x^-1 H x
  inside K, that is with H inside x K x^-1: K is conjugated once per coset.
  ``_least``, the one coset walk, names every coset by its least element
  in one ascending scan; ``fincat.orbit_category``, which reaches the maps
  through ``FiniteGroup._coset_maps``, composes them through its table per
  class, and the omega relation counts them.

Permutation groups get their Cayley table from one right-multiplication map
per generator, not from all |G|^2 permutation products.

The nu matrix D mu_bar2 D^-1, D = diag(|W_G H|), is D M^-1 for the table of
marks M, so no orbit category is built for it.

The package's ``_once`` builds each table derived from a group once and
keeps it on the group; strings that parse alike share one group per cap.

Group orders are capped, and the cap is the only limit: ``build_group``
raises ``CapExceeded`` (a ValueError) above its ``cap``, before any lattice
work and, where the order is known from the spec (``symmetric:n`` for any
n >= 1 among them), before any table is built.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from functools import lru_cache
from typing import Iterable, Sequence

from . import DEFAULT_CAP, Rows, _once, ratio


class CapExceeded(ValueError):
    """The group is larger than the accepted order."""


class FiniteGroup:
    """A group given by its Cayley table; the constructor checks every group
    axiom and raises ValueError on the first that fails."""

    __slots__ = ("order", "table", "names", "inv", "_memo")

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        self._fill(table, names)
        _check_associative(self)

    @classmethod
    def _associative(cls, table: Sequence[Sequence[int]],
                     names: Sequence[str] | None = None) -> "FiniteGroup":
        """For the builders, whose tables are associative by construction
        (permutation composition, integers mod n, products and quotients of
        groups): every check but associativity."""
        g = cls.__new__(cls)
        g._fill(table, names)
        return g

    def _fill(self, table: Sequence[Sequence[int]], names: Sequence[str] | None) -> None:
        self.order = len(table)
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in table)
        if names is None:
            names = [str(i) for i in range(self.order)]
        self.names: tuple[str, ...] = tuple(names)
        if len(self.names) != self.order:
            raise ValueError("names length does not match order")
        _check_latin_with_identity(self.table)
        # a Latin row holds the identity once, at the inverse
        self.inv: tuple[int, ...] = tuple(row.index(0) for row in self.table)
        self._memo: dict[str, object] = {}  # derived tables, kept by ``_once``

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inv[g]]

    def _coset_maps(self):
        """``_maps(self)``, the coset names and the maps of Or(G): the orbit
        category reaches them through the group it is given, so ``fincat``
        imports no group layer."""
        return _maps(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _check_latin_with_identity(table: tuple[tuple[int, ...], ...]) -> None:
    n = len(table)
    if n == 0:
        raise ValueError("empty table; the trivial group has order 1")
    full = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has wrong length")
        if set(row) != full:
            raise ValueError(f"row {i} is not a permutation of 0..{n-1}")
    for j, column in enumerate(zip(*table)):
        if set(column) != full:
            raise ValueError(f"column {j} is not a permutation of 0..{n-1}")
    ident = tuple(range(n))
    if table[0] != ident or tuple(row[0] for row in table) != ident:
        raise ValueError("element 0 is not a two-sided identity")


def _check_associative(g: FiniteGroup) -> None:
    """Light's test (Clifford & Preston 1961, section 1.2): the elements c
    with (a b) c = a (b c) for all a, b are closed under products and hold
    the identity, so checking c on a generating set decides associativity,
    in O(n^2 |generators|).  On a failure the full O(n^3) scan names the
    lexicographically first failing triple."""
    table = g.table
    n = g.order
    if not all(table[table[a][b]][c] == table[a][table[b][c]]
               for c in _right_generators(g) for a in range(n) for b in range(n)):
        for a in range(n):
            ta = table[a]
            for b in range(n):
                tab = table[ta[b]]
                tb = table[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")


def _right_generators(g: FiniteGroup) -> list[int]:
    """Elements whose left-normed products ((g1 g2) g3)... reach every
    element: in index order, each element that ``closure`` of those kept
    has not reached.  Its search from the identity under right
    multiplication reaches exactly those products, so a table that is not
    yet known to be associative may be passed."""
    gens: list[int] = []
    reached = closure(g, gens)
    for s in range(1, g.order):
        if s not in reached:
            gens.append(s)
            reached = closure(g, gens)
    return gens


# ---------------------------------------------------------------- builders


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    return FiniteGroup._associative([[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n; element s*n + i stands for r^i s^(s in {0,1}); s r s = r^-1."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")

    def idx(i, s):
        return s * n + i

    table = [[0] * (2 * n) for _ in range(2 * n)]
    names = [f"r{i}" for i in range(n)] + [f"sr{i}" for i in range(n)]
    for i1 in range(n):
        for s1 in range(2):
            for i2 in range(n):
                for s2 in range(2):
                    i = (i1 + (i2 if s1 == 0 else -i2)) % n
                    table[idx(i1, s1)][idx(i2, s2)] = idx(i, s1 ^ s2)
    return FiniteGroup._associative(table, names)


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    elems = sorted(itertools.permutations(range(n)))
    # an n-cycle and a transposition generate S_n; for n <= 2 the cycle alone
    gens = [tuple(range(1, n)) + (0,)]
    if n > 2:
        gens.append((1, 0) + tuple(range(2, n)))
    return _group_from_perms(elems, gens)


def _group_from_perms(elems: list[tuple[int, ...]],
                      gens: Sequence[tuple[int, ...]]) -> FiniteGroup:
    """The Cayley table of the sorted permutations elems (identity first),
    which gens generate.

    Right multiplication by a generator s is one map R_s on indices, |G|
    permutation products each.  If p_j = p_j' s then p_i p_j = (p_i p_j') s,
    so column j is R_s applied to column j'; the columns are filled
    breadth-first from the identity's, by n^2 list lookups."""
    n = len(elems)
    index = {p: i for i, p in enumerate(elems)}
    right = [[index[_perm_mul(p, s)] for p in elems] for s in gens]
    columns: list[list[int] | None] = [None] * n
    columns[0] = list(range(n))
    frontier = [0]
    while frontier:
        nxt = []
        for j in frontier:
            column = columns[j]
            for r in right:
                k = r[j]
                if columns[k] is None:
                    columns[k] = list(map(r.__getitem__, column))
                    nxt.append(k)
        frontier = nxt
    names = ["".join(map(str, p)) for p in elems]
    return FiniteGroup._associative(list(zip(*columns)), names)


def perm_group(generators: Iterable[Sequence[int]], cap: int = DEFAULT_CAP) -> FiniteGroup:
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    deg = len(gens[0])
    for g in gens:
        if len(g) != deg or sorted(g) != list(range(deg)):
            raise ValueError(f"not a permutation of 0..{deg-1}: {g}")
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > cap:
                        raise CapExceeded(f"group order exceeds cap {cap}")
        frontier = nxt
    # identity is lexicographically least, so sorting puts it at index 0
    return _group_from_perms(sorted(seen), gens)


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order

    def idx(a, b):
        return a * n2 + b

    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(g1.table[a1][a2], g2.table[b1][b2])
    names = [f"{g1.names[a]}|{g2.names[b]}" for a in range(n1) for b in range(n2)]
    return FiniteGroup._associative(table, names)


_ALIASES = {
    "trivial": {"kind": "cyclic", "n": 1},
    "klein": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]},
    "a4": {"kind": "perm", "generators": [[1, 2, 0, 3], [1, 0, 3, 2]]},
    "q8": {"kind": "perm", "generators": [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]},
}


def build_group(spec, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Build a group from a dict spec or the CLI string mini-language.

    Raises CapExceeded when the group's order is above cap, and ValueError
    when the spec is malformed.

    Dict kinds: cyclic / dihedral / symmetric / product / table / perm.
    Strings: "cyclic:N", "dihedral:N", "sym:N", "product:SPEC+SPEC",
    "perm:[[...],[...]]", plus the aliases trivial, klein, a4, q8.
    """
    if isinstance(spec, str):
        return _built(json.dumps(_parse_group_string(spec)), cap)
    return _from_spec(spec, cap)


@lru_cache(maxsize=8)
def _built(spec: str, cap: int) -> FiniteGroup:
    """The group of the dict spec whose JSON text is spec: one per (spec, cap)."""
    return _from_spec(json.loads(spec), cap)


def _from_spec(spec, cap: int) -> FiniteGroup:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"malformed group spec: {spec!r}")
    kind = spec["kind"]
    # the order is checked before a table is built wherever it is known
    if kind == "cyclic":
        n = _spec_int(spec, "n")
        _check_cap(n, cap)
        g = cyclic_group(n)
    elif kind == "dihedral":
        n = _spec_int(spec, "n")
        _check_cap(2 * n, cap)
        g = dihedral_group(n)
    elif kind == "symmetric":
        n = _spec_int(spec, "n")
        # n! = 2*3*...*n is multiplied out only until it passes the cap, so a
        # huge n is refused at once; never stopped before 5!, so degrees up
        # to 5 always name their order in the message
        order, k = 1, 1
        while k < n and (order <= cap or k < 5):
            k += 1
            order *= k
        if k < n:
            raise CapExceeded(f"group order exceeds cap {cap}")
        _check_cap(order, cap)
        g = symmetric_group(n)
    elif kind == "product":
        if not isinstance(spec.get("factors"), list) or not spec["factors"]:
            raise ValueError("product needs a nonempty list of factors")
        # a dict factor is built in place, one frame less per level of nesting
        factors = [build_group(f, cap) if isinstance(f, str) else _from_spec(f, cap)
                   for f in spec["factors"]]
        _check_cap(math.prod(f.order for f in factors), cap)
        g = factors[0]
        for f in factors[1:]:
            g = product_group(g, f)
    elif kind == "table":
        table = _int_rows(spec.get("table"), "table")
        _check_cap(len(table), cap)
        names = spec.get("names")
        if names is not None and not (isinstance(names, list)
                                      and all(isinstance(x, str) for x in names)):
            raise ValueError("names must be a list of strings")
        g = FiniteGroup(table, names)
    elif kind == "perm":
        g = perm_group(_int_rows(spec.get("generators"), "generators"), cap)
    else:
        raise ValueError(f"unknown group kind: {kind!r}")
    _check_cap(g.order, cap)
    return g


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _spec_int(spec: dict, key: str) -> int:
    if not _is_int(spec.get(key)):
        raise ValueError(f"group spec needs an integer {key!r}, got {spec.get(key)!r}")
    return spec[key]


def _int_rows(rows, what: str) -> list[list[int]]:
    """rows as a list of lists of integers, or ValueError naming what."""
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and all(_is_int(v) for v in r) for r in rows)):
        raise ValueError(f"{what} must be a list of lists of integers")
    return rows


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceeded(f"group order {order} exceeds cap {cap}")


def _parse_group_string(s: str) -> dict:
    s = s.strip()
    if s in _ALIASES:
        return _ALIASES[s]
    if ":" not in s:
        raise ValueError(f"malformed group spec string: {s!r}")
    kind, rest = s.split(":", 1)
    kind = kind.strip().lower()
    if kind in ("cyclic", "c"):
        return {"kind": "cyclic", "n": int(rest)}
    if kind in ("dihedral", "d"):
        return {"kind": "dihedral", "n": int(rest)}
    if kind in ("sym", "symmetric", "s"):
        return {"kind": "symmetric", "n": int(rest)}
    if kind in ("product", "prod"):
        return {"kind": "product", "factors": [_parse_group_string(p) for p in rest.split("+")]}
    if kind == "perm":
        return {"kind": "perm", "generators": json.loads(rest)}
    raise ValueError(f"unknown group kind in spec string: {s!r}")


# ---------------------------------------------------------- subgroup lattice


def closure(g: FiniteGroup, elems: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing elems.

    Breadth-first search from the identity under right multiplication by the
    given elements: in a finite group the monoid they generate is already a
    subgroup, so this costs O(|H| * |elems|)."""
    gens = [x for x in set(elems) if x != 0]
    table = g.table
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            row = table[a]
            for b in gens:
                c = row[b]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def _subgroup_key(s: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(s))


def conjugate_subgroup(g: FiniteGroup, h: Iterable[int], x: int) -> frozenset[int]:
    return frozenset(g.conj(x, e) for e in h)


class SubgroupClass:
    """One conjugacy class of subgroups: its conjugates sorted by their sorted
    elements, the least of them as representative, a generator tuple and the
    normalizer of the representative."""

    __slots__ = ("representative", "generators", "conjugates", "normalizer", "weyl_order")

    def __init__(self, conjugates: tuple[frozenset[int], ...], generators: tuple[int, ...],
                 normalizer: frozenset[int]):
        self.conjugates = conjugates
        self.representative: frozenset[int] = conjugates[0]
        self.generators = generators
        self.normalizer = normalizer
        assert len(normalizer) % len(self.representative) == 0
        self.weyl_order: int = len(normalizer) // len(self.representative)

    @property
    def label(self) -> tuple[int, ...]:
        return tuple(sorted(self.representative))

    def __repr__(self) -> str:
        return f"SubgroupClass(rep={self.label}, weyl={self.weyl_order})"


def _conjugacy_class(g: FiniteGroup, j: frozenset[int], gens: tuple[int, ...]) -> SubgroupClass:
    """The class of J, which gens generate.

    y normalises J iff y s y^-1 is in J for each generator s, since
    conjugation is injective.  y J y^-1 depends only on the left coset
    y N_G(J), so J is conjugated once per coset, by the y that ``_least``
    names it by, the least y giving that conjugate; the least conjugate
    takes over J's normaliser and generators, conjugated by its y."""
    norm = frozenset(y for y in range(g.order) if all(g.conj(y, s) in j for s in gens))
    first = {conjugate_subgroup(g, j, y): y for y, lo in enumerate(_least(g, norm)) if y == lo}
    conjugates = tuple(sorted(first, key=_subgroup_key))
    y = first[conjugates[0]]
    return SubgroupClass(conjugates, tuple(g.conj(y, x) for x in gens),
                         frozenset(g.conj(y, n) for n in norm))


@_once
def subgroup_classes(g: FiniteGroup) -> tuple[SubgroupClass, ...]:
    """The lattice up to conjugacy, class by class (after Pfeiffer 1997).

    Every subgroup is reached by a chain of joins with cyclic subgroups;
    conjugating the chain puts each step's left factor on a class
    representative, so joining only the representatives with the cyclic
    subgroups finds every class.  Joins of H with N_G(H)-conjugate cyclic
    subgroups are conjugate, so H is joined with one cyclic subgroup per
    N_G(H)-orbit, the one with the least generator.  A join closes over the
    representative's generators plus that generator."""
    table = g.table
    # cyc_of[x]: the least generator of <x>.  The generators of <x> are its
    # x^k with k prime to |<x>|, and the least of them is met first.
    cyc_of = [0] * g.order
    for x in range(1, g.order):
        if not cyc_of[x]:
            powers = [x]
            while powers[-1]:
                powers.append(table[powers[-1]][x])
            for k, p in enumerate(powers, 1):
                if math.gcd(k, len(powers)) == 1:
                    cyc_of[p] = x
    cyclic = [x for x in range(1, g.order) if cyc_of[x] == x]
    classes = [_conjugacy_class(g, frozenset([0]), ())]
    known = set(classes[0].conjugates)
    for cls in classes:  # grows while it is walked
        rep = cls.representative
        joined = set()
        for x in cyclic:
            if x in joined or x in rep:
                continue
            joined.update(cyc_of[g.conj(n, x)] for n in cls.normalizer)
            gens = cls.generators + (x,)
            j = closure(g, gens)
            if j not in known:
                new = _conjugacy_class(g, j, gens)
                known.update(new.conjugates)
                classes.append(new)
    return tuple(sorted(classes, key=lambda c: (len(c.representative), c.label)))


def _least(g: FiniteGroup, k: frozenset[int]) -> list[int]:
    """Entry x: the least element of the left coset x*k, which names that
    coset.  x ascending meets each coset first at its least element."""
    row = [-1] * g.order
    for x, tx in enumerate(g.table):
        if row[x] < 0:
            for e in k:
                row[tx[e]] = x
    return row


@_once
def _maps(g: FiniteGroup) -> tuple[list[list[int]], list[list[list[int]]]]:
    """(least, maps): least[j][x], the least element of the left coset
    x*K_j of the representative K_j of class j, which names that coset;
    and maps[i][j], the names, ascending, of the cosets x*K_j that qualify
    as maps G/H_i -> G/K_j in the orbit category.

    A coset x*K qualifies iff x^-1 H x is inside K, that is iff H is inside
    x K x^-1, which depends on the coset alone, and only when |H| divides
    |K|.  So K is conjugated once per coset, and each representative H is
    tested against each distinct conjugate by one subset test.  The marks
    count the conjugates of H inside K; these lists, the conjugates of K
    over H: the omega relation compares the two."""
    reps = [c.representative for c in subgroup_classes(g)]
    least = [_least(g, k) for k in reps]
    maps: list[list[list[int]]] = [[[] for _ in reps] for _ in reps]
    for j, k in enumerate(reps):
        conj = {x: conjugate_subgroup(g, k, x) for x, lo in enumerate(least[j]) if x == lo}
        distinct = set(conj.values())
        for i, h in enumerate(reps):
            if len(k) % len(h) == 0:
                over = {c for c in distinct if h <= c}
                maps[i][j] = [lo for lo, c in conj.items() if c in over]
    return least, maps


class MarksMatrix:
    """Fixed-point counts |(G/K)^H|: row (H), column (K), canonical class
    order, as a ``catrank.Rows`` of integer rows over ones, labelled by the
    classes."""

    __slots__ = ("matrix",)

    def __init__(self, rows: tuple[tuple[int, ...], ...], classes: tuple[SubgroupClass, ...]):
        self.matrix = Rows([c.label for c in classes], rows, (1,) * len(rows))

    def __repr__(self) -> str:
        return f"MarksMatrix({self.matrix!r})"


def mark(h: SubgroupClass, k: frozenset[int]) -> int:
    """|(G/K)^H| = |N_G(H)| * #{H' ~ H : H' inside K} / |K|: the elements x
    with x^-1 H x inside K, counted through the conjugates they produce."""
    count, rest = divmod(len(h.normalizer) * sum(1 for c in h.conjugates if c <= k), len(k))
    assert rest == 0, f"mark not integral at ({h.label}, {_subgroup_key(k)})"
    return count


@_once
def table_of_marks(g: FiniteGroup) -> MarksMatrix:
    """Marks |(G/K)^H| over the subgroup classes, from ``mark``.  Below the
    diagonal they vanish: a class later in the canonical order is never
    subconjugate to an earlier one."""
    classes = subgroup_classes(g)
    rows = tuple((0,) * i + tuple(mark(ch, ck.representative) for ck in classes[i:])
                 for i, ch in enumerate(classes))
    return MarksMatrix(rows, classes)


def marks(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The integer rows of ``table_of_marks``."""
    return table_of_marks(g).matrix.rows


# ------------------------------------------------------- nu and congruences


@_once
def _nu_rows(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """nu = D M^-1 as integer rows, by back-substitution on ints.  The marks
    M are upper triangular in class order with diagonal |W_G H|, so nu M = D
    gives, row by row, nu[i][i] = 1 and
    nu[i][k] = -(sum over i <= j < k of nu[i][j] M[j][k]) / M[k][k].
    Non-integrality would mean the marks are wrong, so it is an internal
    assertion, not an input error."""
    m = marks(g)
    n = len(m)
    above = [[(k, v) for k, v in enumerate(row) if k > j and v] for j, row in enumerate(m)]
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        acc = [0] * n  # acc[k]: sum of nu[i][j] M[j][k] over the j < k filled so far
        for k in range(i, n):
            if k > i and acc[k]:
                row[k], r = divmod(-acc[k], m[k][k])
                assert r == 0, (f"nu matrix entry not integral at {(i, k)}: "
                                f"{ratio(-acc[k], m[k][k])}")
            if row[k]:
                for t, entry in above[k]:
                    acc[t] += row[k] * entry
        rows.append(tuple(row))
    return tuple(rows)


def nu_matrix(g: FiniteGroup) -> Rows:
    """Integer matrix nu = D M^-1 = D mu_bar2 D^-1 over subgroup classes, M the
    table of marks and D = diag(|W_G H|): omega_bar2(Or G) = D^-1 M.  Its
    rows are over ones."""
    rows = _nu_rows(g)
    return Rows([c.label for c in subgroup_classes(g)], rows, (1,) * len(rows))


def burnside_congruences(g: FiniteGroup, xi: Sequence[int]) -> tuple[list[int], bool]:
    """nu(xi), one integer entry per subgroup class, and whether
    it vanishes mod |W_G H| at every class (H).  The dot products and the
    congruences are taken on Python integers, against the rows of nu built
    once per group."""
    classes = subgroup_classes(g)
    if len(xi) != len(classes):
        raise ValueError(f"xi needs {len(classes)} entries, got {len(xi)}")
    try:
        if any(isinstance(v, bool) for v in xi):
            raise TypeError
        xs = [operator.index(v) for v in xi]
    except TypeError:
        raise ValueError(f"xi entries must be integers, got {list(xi)!r}") from None
    image = [sum(map(operator.mul, row, xs)) for row in _nu_rows(g)]
    satisfied = all(v % c.weyl_order == 0 for v, c in zip(image, classes))
    return image, satisfied


def burnside_check(g: FiniteGroup, xi: Sequence[int]) -> bool:
    """True iff nu(xi) vanishes mod |W_G H| at every class (H)."""
    return burnside_congruences(g, xi)[1]
