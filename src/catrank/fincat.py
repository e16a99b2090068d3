"""Finite categories as explicit tables: validation, classification predicates
(``classify``'s dict of eight flags; ``is_free`` read off ``aut_orbits``, the
one walk of the aut(y)-orbits on the hom sets, which ``iso_order`` reads too),
the iso classes (``iso_classes``: each object's class is named by the least
domain of an isomorphism into it, in one pass over the morphisms), the class
table of an EI category (``iso_order``, the ``catrank.IsoPoset`` that
``moebius`` reads), constructions (opposite, product, coproduct,
delooping, poset, biset, orbit category, full subcategory, skeleton), functor
data, coverings and isofibrations.

A category is stored as: a tuple of object ids (strings by convention, so JSON
round-trips), per-morphism dom/cod object indices, an identity morphism per
object, and its composition as rows: rows[f][p] is g o f for the p-th
morphism g of ``morphisms_from(cod f)``, and at[g] is that place p of g.
Morphism ids are dense 0..m-1 and constructors always put the identities
first, in object order, so golden outputs stay stable.

The constructor, ``FiniteCategory(objects, dom, cod, identity, records)``,
is the one way a category is built: one pass fills the rows from
[g, f, g o f] records and checks their type, range and uniqueness; records
whose endpoints do not meet are kept aside for ``validate``.  ``from_json``
feeds it the document's records, and ``_build`` the composable pairs of
every constructed category, given as data: the morphism descriptors, the
identities' descriptors as a list in object order, and a compose callable.
It buckets the morphisms by codomain once and composes only those pairs.
Full subcategories and fibers are restrictions through it: (new dom, new
cod, old id) descriptors composed in the parent.
``opposite`` feeds it the pairs reversed, and ``canonical_json`` streams the
rows out in (g, f) order as the JSON document.  ``compose(g, f)`` reads a
single composite.

A construction checks only the shape of its input: ``_build`` decides
closure under composition, and ``validate`` the identity and associativity
laws, for every category alike.

``validate`` checks associativity by Light's test (Clifford & Preston 1961,
The Algebraic Theory of Semigroups, vol. 1, section 1.2): only the morphisms
of a greedy generating set are checked as the right-hand factor, and the
full scan over all composable triples runs only to list the violations
when that check, or an identity law, fails.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from . import IsoPoset, _once, _write

if TYPE_CHECKING:  # the group layer is read through the groups passed in
    from .grouptheory import FiniteGroup


class FiniteCategory:
    __slots__ = ("objects", "dom", "cod", "identity", "rows", "at", "_extra",
                 "_obj_index", "_from_obj", "_memo")

    def __init__(self, objects: Sequence, dom: Sequence[int], cod: Sequence[int],
                 identity: Sequence[int], records: Iterable):
        """The category whose composition is given as [g, f, g o f] records:
        the tables are checked and the rows filled in one pass.

        Each record is checked for shape, type and range, and for repeating
        an earlier pair; a composable pair fills its slot, and a pair whose
        endpoints do not meet is kept aside, in record order, for
        ``validate`` to report."""
        self.objects: tuple = tuple(objects)
        self.dom: tuple[int, ...] = tuple(dom)
        self.cod: tuple[int, ...] = tuple(cod)
        self.identity: tuple[int, ...] = tuple(identity)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        if len(self.dom) != len(self.cod):
            raise ValueError("dom/cod length mismatch")
        m = len(self.dom)
        n = len(self.objects)
        if len(self.identity) != n:
            raise ValueError("identity map must cover every object")
        for x in self.dom + self.cod:
            if not (0 <= x < n):
                raise ValueError("morphism endpoint references unknown object")
        for mid in self.identity:
            if not (0 <= mid < m):
                raise ValueError("identity references unknown morphism")
        buckets: list[list[int]] = [[] for _ in range(n)]
        at = [0] * m
        for f, x in enumerate(self.dom):
            at[f] = len(buckets[x])
            buckets[x].append(f)
        self._from_obj = tuple(map(tuple, buckets))
        self.at: tuple[int, ...] = tuple(at)
        dom, cod = self.dom, self.cod
        rows: list[list[int | None]] = [[None] * len(buckets[y]) for y in cod]
        extra: dict[tuple[int, int], int] = {}
        for rec in records:
            if not (isinstance(rec, (list, tuple)) and len(rec) == 3):
                raise ValueError(f"malformed composition record: {rec!r}")
            g, f, c = rec
            if not (type(g) is int and type(f) is int and type(c) is int
                    and 0 <= g < m and 0 <= f < m and 0 <= c < m):
                raise ValueError(f"composition record references unknown morphism: {rec!r}")
            if cod[f] == dom[g]:
                row, p = rows[f], at[g]
                if row[p] is None:
                    row[p] = c
                    continue
            elif (g, f) not in extra:
                extra[g, f] = c
                continue
            raise ValueError(f"duplicate composition record for pair ({g},{f})")
        self.rows = rows
        self._extra = extra
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        # tables derived from this (immutable) category, kept by ``_once``
        self._memo: dict[str, Any] = {}

    # ------------------------------------------------------------- basics

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    def obj_index(self, obj) -> int:
        return self._obj_index[obj]

    def compose(self, g: int, f: int) -> int:
        """g after f; raises KeyError when the pair is not composable."""
        c = self.rows[f][self.at[g]] if self.cod[f] == self.dom[g] else None
        if c is None:
            raise KeyError((g, f))
        return c

    def hom(self, i: int, j: int) -> tuple[int, ...]:
        """Morphism ids from object index i to object index j."""
        return _hom_sets(self).get((i, j), ())

    def morphisms_from(self, i: int) -> tuple[int, ...]:
        """Morphism ids out of object index i, ascending: the slots of a row."""
        return self._from_obj[i]

    def inverse(self, m: int) -> int | None:
        return _inverses(self)[m]

    def is_iso(self, m: int) -> bool:
        return self.inverse(m) is not None

    def aut(self, i: int) -> tuple[int, ...]:
        """Automorphisms of object index i: the identity first, then id order."""
        e = self.identity[i]
        return (e,) + tuple(m for m in self.hom(i, i) if m != e and self.is_iso(m))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteCategory)
            and self.objects == other.objects
            and self.dom == other.dom
            and self.cod == other.cod
            and self.identity == other.identity
            and self.rows == other.rows
            and self._extra == other._extra
        )

    def __repr__(self) -> str:
        return f"FiniteCategory({self.n_objects} objects, {self.n_morphisms} morphisms)"


@_once
def _hom_sets(cat: FiniteCategory) -> dict[tuple[int, int], tuple[int, ...]]:
    """The morphism ids of each nonempty hom set, keyed by (dom, cod)."""
    hom: dict[tuple[int, int], list[int]] = {}
    for m in range(cat.n_morphisms):
        hom.setdefault((cat.dom[m], cat.cod[m]), []).append(m)
    return {k: tuple(v) for k, v in hom.items()}


@_once
def _inverses(cat: FiniteCategory) -> tuple[int | None, ...]:
    """The inverse of each morphism, None where it has none."""
    inv: list[int | None] = [None] * cat.n_morphisms
    rows, at, ident = cat.rows, cat.at, cat.identity
    for f in range(cat.n_morphisms):
        if inv[f] is not None:
            continue
        x, y = cat.dom[f], cat.cod[f]
        for g in cat.hom(y, x):
            if rows[f][at[g]] == ident[x] and rows[g][at[f]] == ident[y]:
                inv[f] = g
                inv[g] = f
                break
    return tuple(inv)


def _pairs(cat: FiniteCategory) -> Iterator[tuple[int, int, int]]:
    """(g, f, g o f) over the filled slots, in (g, f) order: each g, then the
    morphisms into dom g."""
    into: list[list[int]] = [[] for _ in range(cat.n_objects)]
    for f, y in enumerate(cat.cod):
        into[y].append(f)
    rows = cat.rows
    for g, (x, p) in enumerate(zip(cat.dom, cat.at)):
        for f in into[x]:
            c = rows[f][p]
            if c is not None:
                yield g, f, c


# ------------------------------------------------------------------ validate


def validate(cat: FiniteCategory) -> list[dict]:
    """All category axioms, as a list of violation records (empty iff valid).

    Records whose endpoints do not meet were kept aside when the rows were
    filled, and are reported first, in record order; coverage holds when no
    slot of the rows is empty.  The remaining checks read the rows.

    Associativity is checked by Light's test (Clifford & Preston 1961, The
    Algebraic Theory of Semigroups, vol. 1, section 1.2): once the identity
    laws hold, the morphisms f with (h g) f = h (g f) for all composable h, g
    contain the identities and are closed under composition, so checking f
    on a generating set (``_generating_set``) decides the law for every
    morphism.  When an identity law or that check fails, the full scan over
    all composable triples lists the violations in (g, f, h) order."""
    out: list[dict] = []
    m = cat.n_morphisms
    rows, at, ident = cat.rows, cat.at, cat.identity
    dom, cod = cat.dom, cat.cod
    for x in range(cat.n_objects):
        e = ident[x]
        if dom[e] != x or cod[e] != x:
            out.append({"kind": "identity_endpoints", "object": cat.objects[x], "morphism": e})
    out += [{"kind": "extra_composite", "pair": [g, f]} for g, f in cat._extra]
    missing = sorted((g, f) for f, row in enumerate(rows) if None in row
                     for g, c in zip(cat.morphisms_from(cod[f]), row) if c is None)
    out += [{"kind": "missing_composite", "pair": [g, f]} for g, f in missing]
    if out:
        # endpoint or coverage problems make the remaining checks unreliable
        return out

    misplaced = [(g, f, c) for f, row in enumerate(rows)
                 for g, c in zip(cat.morphisms_from(cod[f]), row)
                 if dom[c] != dom[f] or cod[c] != cod[g]]
    if misplaced:
        return [{"kind": "composite_endpoints", "pair": [g, f], "composite": c}
                for g, f, c in sorted(misplaced)]
    for f in range(m):
        if rows[f][at[ident[cod[f]]]] != f:
            out.append({"kind": "identity_law", "side": "left", "morphism": f})
        if rows[ident[dom[f]]][at[f]] != f:
            out.append({"kind": "identity_law", "side": "right", "morphism": f})
    if out or not _associative_at(cat, _generating_set(cat)):
        out.extend(_associativity_violations(cat))
    return out


def _generating_set(cat: FiniteCategory) -> list[int]:
    """Non-identity morphisms that generate cat under composition, for a
    category whose identity laws hold: first the indecomposable ones (no
    composite of two non-identities; every generating set holds them), then,
    in id order, each morphism that the closure of those kept so far misses.

    The closure is grown from the identities by composing kept morphisms on
    the left, breadth-first, and incrementally: a newly kept s is applied to
    every morphism reached so far, and every newly reached morphism gets
    every kept one.  The morphisms it reaches are composites of kept ones,
    so they generate; in an associative category they are all the
    composites, so nothing redundant is kept."""
    m = cat.n_morphisms
    rows, at = cat.rows, cat.at
    reached = [False] * m
    for e in cat.identity:
        reached[e] = True
    decomposable = list(reached)
    for f, row in enumerate(rows):
        if not reached[f]:
            for g, c in zip(cat.morphisms_from(cat.cod[f]), row):
                if not reached[g]:
                    decomposable[c] = True
    reached_into = [[e] for e in cat.identity]
    kept_from: list[list[int]] = [[] for _ in range(cat.n_objects)]
    kept = []
    for s in [f for f in range(m) if not decomposable[f]] + list(range(m)):
        if reached[s]:
            continue
        kept.append(s)
        kept_from[cat.dom[s]].append(s)
        stack = [rows[x][at[s]] for x in reached_into[cat.dom[s]]]
        while stack:
            y = stack.pop()
            if not reached[y]:
                reached[y] = True
                reached_into[cat.cod[y]].append(y)
                stack += [rows[y][at[t]] for t in kept_from[cat.cod[y]]]
    return kept


def _associative_at(cat: FiniteCategory, fs: Iterable[int]) -> bool:
    """(h g) f = h (g f) for every f in fs and every composable h, g.

    The rows are the table this reads: rows[u] lists h u over the morphisms
    h out of cod u, and places[u] lists, for each entry y of rows[u], the
    place at[y] of y in its own source's list.  For fixed f and g, h (g f)
    over all h is the row of g f, and (h g) f is the row of f read at the
    places of the row of g."""
    rows, at = cat.rows, cat.at
    places = [[at[y] for y in row] for row in rows]
    for f in fs:
        read_f = rows[f].__getitem__
        for g in cat.morphisms_from(cat.cod[f]):
            if list(map(read_f, places[g])) != rows[read_f(at[g])]:
                return False
    return True


def _associativity_violations(cat: FiniteCategory) -> list[dict]:
    """Every failing composable triple (h, g, f), in (g, f) order and then
    in the order of h."""
    rows, at = cat.rows, cat.at
    return [{"kind": "associativity", "triple": [h, g, f]}
            for g, f, gf in _pairs(cat)
            for h, hgf in zip(cat.morphisms_from(cat.cod[g]), rows[gf])
            if hgf != rows[f][at[rows[g][at[h]]]]]


# ---------------------------------------------------------------- predicates


@_once
def ei_witness(cat: FiniteCategory) -> int | None:
    """The first endomorphism in id order that is not invertible; None when
    the category is EI.  Memoised by ``_once``, so each category is
    scanned once."""
    dom, cod = cat.dom, cat.cod
    return next((m for m in range(cat.n_morphisms)
                 if dom[m] == cod[m] and not cat.is_iso(m)), None)


@_once
def aut_orbits(cat: FiniteCategory) -> tuple[dict[tuple[int, int], list[int]], list[tuple]]:
    """The aut(y)-orbits on every nonempty hom(x, y), walked once: per
    (x, y) the first element of each orbit, in id order, and per morphism f
    the first element x of its orbit with the positions in ``cat.aut(y)`` of
    the a with a o x = f.  The identity is at position 0, so the positions
    at x are its stabiliser and those at f a coset of it; for b in the
    automorphisms of x's source, C(x, b) = {a : a o x = x o b} is the
    positions at x o b when x o b lies in the orbit of x, and empty else."""
    rows, at = cat.rows, cat.at
    places = [[at[a] for a in cat.aut(y)] for y in range(cat.n_objects)]
    firsts: dict[tuple[int, int], list[int]] = {}
    fibre: list = [None] * cat.n_morphisms
    for (x, y), hom in _hom_sets(cat).items():
        xs = firsts[x, y] = []
        for f in hom:
            if fibre[f] is None:
                xs.append(f)
                row = rows[f]
                for p, q in enumerate(places[y]):
                    g = row[q]
                    fibre[g] = (f, (p,) if fibre[g] is None else fibre[g][1] + (p,))
    return firsts, fibre


def free_witness(cat: FiniteCategory) -> tuple[int, int] | None:
    """A nonidentity automorphism a of y and a morphism f into y with
    a o f = f: f the first element of the first orbit of ``aut_orbits``, in
    hom-set order, whose stabiliser holds more than the identity (along an
    orbit the stabilisers are conjugate), and a its first member after the
    identity; None when every aut(y) acts freely (the category is free)."""
    firsts, fibre = aut_orbits(cat)
    return next(((cat.aut(y)[fibre[f][1][1]], f) for (_, y), xs in firsts.items()
                 for f in xs if len(fibre[f][1]) > 1), None)


def classify(cat: FiniteCategory) -> dict[str, bool]:
    """The eight predicates, in the order ``euler`` prints them, each by an
    exhaustive scan for a counterexample."""

    def none(found: Iterator) -> bool:
        return next(found, None) is None

    rows, at, ident, dom, cod = cat.rows, cat.at, cat.identity, cat.dom, cat.cod
    ms, objs = range(cat.n_morphisms), range(cat.n_objects)
    is_groupoid = none(m for m in ms if not cat.is_iso(m))
    return {
        "is_ei": ei_witness(cat) is None,
        # g o f is rows[f][at[g]]
        "is_directly_finite": none(
            u for u in ms for v in cat.hom(cod[u], dom[u])
            if rows[u][at[v]] == ident[dom[u]] and rows[v][at[u]] != ident[cod[u]]),
        # an idempotent p on x splits when p = i r with r i = 1 for some z; an
        # identity splits through its own object (i = r = p), so it is not searched
        "is_cauchy_complete": none(
            p for p in ms if p != ident[dom[p]] and dom[p] == cod[p] and rows[p][at[p]] == p
            and not any(rows[i][at[r]] == ident[z] and rows[r][at[i]] == p
                        for z in objs for i in cat.hom(z, dom[p])
                        for r in cat.hom(dom[p], z))),
        "is_free": free_witness(cat) is None,
        "is_skeletal": none(m for m in ms if dom[m] != cod[m] and cat.is_iso(m)),
        "is_groupoid": is_groupoid,
        # a connected category is inhabited, so the empty one is not
        "is_connected_groupoid": is_groupoid and bool(objs) and none(
            i for i in objs for j in objs if not cat.hom(i, j)),
        "has_trivial_endomorphisms": none(x for x in objs if len(cat.hom(x, x)) != 1),
    }


# -------------------------------------------------------------- iso classes


def iso_classes(cat: FiniteCategory) -> list[list]:
    """Partition of objects by isomorphism, each class in index order and
    the classes in order of their least member.

    Isomorphisms compose, so in a category the least domain of an
    isomorphism into y is the least object isomorphic to y, and one pass
    over dom, cod and ``is_iso`` names every class.  The classes are exact
    on any category ``validate`` accepts, and a partition on any other."""
    least = list(range(cat.n_objects))
    dom, cod = cat.dom, cat.cod
    for m in range(cat.n_morphisms):
        if dom[m] < least[cod[m]] and cat.is_iso(m):
            least[cod[m]] = dom[m]
    classes: dict[int, list] = {}
    for o, x in zip(cat.objects, least):
        classes.setdefault(x, []).append(o)
    return list(classes.values())


@_once
def iso_order(cat: FiniteCategory) -> IsoPoset:
    """The class table of an EI category, once per category; a ValueError
    naming a non-invertible endomorphism on any other category."""
    m = ei_witness(cat)
    if m is not None:
        raise ValueError("iso class order needs an EI category; "
                         f"morphism {m} is a non-invertible endomorphism")
    classes = iso_classes(cat)
    reps = [cat.obj_index(c[0]) for c in classes]
    k = len(classes)
    # the nonzero entries only: per class i, {j: |hom(rep i, rep j)|}, read
    # off the nonempty hom sets
    class_of = dict(zip(reps, range(k)))
    counts: list[dict[int, int]] = [{} for _ in range(k)]
    for (x, y), hom in _hom_sets(cat).items():
        if x in class_of and y in class_of:
            counts[class_of[x]][class_of[y]] = len(hom)
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
    place = sorted(range(k), key=order.__getitem__)  # class i is row place[i]
    # C(x, b) is what aut_orbits records at x o b, if x o b is in x's orbit
    firsts, fibre = aut_orbits(cat)
    rows, at = cat.rows, cat.at
    homs = [[0] * k for _ in range(k)]
    acts: list[dict[int, tuple]] = [{} for _ in range(k)]
    for i, above in enumerate(counts):
        after = [rows[b] for b in cat.aut(reps[i])]
        for j, n in above.items():
            homs[place[i]][place[j]] = n
            if j == i:
                continue
            xs = firsts[reps[i], reps[j]]
            cs = []
            for row in after:
                fixed = []
                for x in xs:
                    y, c = fibre[row[at[x]]]
                    if y == x:
                        fixed.append(c)
                cs.append(tuple(fixed))
            acts[place[i]][place[j]] = tuple(cs)
    return IsoPoset(tuple(cat.objects[reps[i]] for i in order),
                    tuple(tuple(classes[i]) for i in order), tuple(reps[i] for i in order),
                    tuple(map(tuple, homs)), tuple(acts))


class FunctorData:
    __slots__ = ("source", "target", "object_map", "morphism_map")

    def __init__(self, source: FiniteCategory, target: FiniteCategory,
                 object_map: dict, morphism_map: dict[int, int]):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.morphism_map = dict(morphism_map)

    def __repr__(self) -> str:
        return f"FunctorData({self.source!r} -> {self.target!r})"


def validate_functor(p: FunctorData) -> list[dict]:
    out: list[dict] = []
    src, tgt = p.source, p.target
    for o in src.objects:
        if o not in p.object_map:
            out.append({"kind": "object_unmapped", "object": o})
        elif p.object_map[o] not in tgt._obj_index:
            out.append({"kind": "object_image_unknown", "object": o})
    for m in range(src.n_morphisms):
        if m not in p.morphism_map:
            out.append({"kind": "morphism_unmapped", "morphism": m})
        elif not (0 <= p.morphism_map[m] < tgt.n_morphisms):
            out.append({"kind": "morphism_image_unknown", "morphism": m})
    if out:
        return out
    omap = {src.obj_index(o): tgt.obj_index(p.object_map[o]) for o in src.objects}
    for m in range(src.n_morphisms):
        fm = p.morphism_map[m]
        if tgt.dom[fm] != omap[src.dom[m]] or tgt.cod[fm] != omap[src.cod[m]]:
            out.append({"kind": "endpoints_not_preserved", "morphism": m})
    for x in range(src.n_objects):
        if p.morphism_map[src.identity[x]] != tgt.identity[omap[x]]:
            out.append({"kind": "identity_not_preserved", "object": src.objects[x]})
    for g, f, gf in _pairs(src):
        fg, ff = p.morphism_map[g], p.morphism_map[f]
        img = tgt.rows[ff][tgt.at[fg]] if tgt.cod[ff] == tgt.dom[fg] else None
        if img != p.morphism_map[gf]:
            out.append({"kind": "composition_not_preserved", "pair": [g, f]})
    return out


# ------------------------------------------------------------- constructions


def _build(objects, morphs, identities, compose):
    """Assemble a category from morphism descriptors, identities first; the
    one place a composition table is built.

    morphs: list of hashable descriptors whose first two entries are
    (dom_idx, cod_idx); identities: the descriptor of each object's
    identity, in object order; compose: callable on a composable (g, f)
    descriptor pair. Returns the category and its descriptors in morphism id
    order. Morphisms are bucketed by codomain once, so compose runs only on
    composable pairs, visited in (g, f) id order; a composite that is no
    descriptor raises ValueError.
    """
    id_set = set(identities)
    ordered = list(identities) + [d for d in morphs if d not in id_set]
    index = {d: i for i, d in enumerate(ordered)}
    into: dict[int, list[tuple[int, Any]]] = {}
    for fi, fd in enumerate(ordered):
        into.setdefault(fd[1], []).append((fi, fd))
    records = ((gi, fi, index[compose(gd, fd)])
               for gi, gd in enumerate(ordered) for fi, fd in into.get(gd[0], ()))
    try:
        cat = FiniteCategory(objects, [d[0] for d in ordered], [d[1] for d in ordered],
                             [index[d] for d in identities], records)
    except KeyError as key:
        raise ValueError(f"not closed: the composite {key.args[0]!r} is not a morphism") from None
    return cat, ordered


def _restrict(cat: FiniteCategory, objs: Sequence[int], keep: Callable[[int], bool]):
    """The subcategory on the object indices objs and the morphisms m between
    them with keep(m) (identities always), composed in cat; returns it with
    the (new dom, new cod, old id) descriptors from ``_build``."""
    new_obj = {i: k for k, i in enumerate(objs)}
    morphs = [
        (new_obj[cat.dom[m]], new_obj[cat.cod[m]], m)
        for m in range(cat.n_morphisms)
        if cat.dom[m] in new_obj and cat.cod[m] in new_obj and keep(m)
    ]
    identities = [(k, k, cat.identity[i]) for k, i in enumerate(objs)]
    rows, at = cat.rows, cat.at

    def compose(gd, fd):
        return (fd[0], gd[1], rows[fd[2]][at[gd[2]]])

    return _build([cat.objects[i] for i in objs], morphs, identities, compose)


def opposite(cat: FiniteCategory) -> FiniteCategory:
    """Same objects and morphism ids with dom/cod and composition reversed."""
    return FiniteCategory(cat.objects, cat.cod, cat.dom, cat.identity,
                          ((f, g, c) for g, f, c in _pairs(cat)))


def full_subcategory(cat: FiniteCategory, objs: Sequence) -> tuple[FiniteCategory, FunctorData]:
    """Full subcategory on the given objects plus the inclusion functor."""
    sub, ordered = _restrict(cat, [cat.obj_index(o) for o in objs], lambda m: True)
    inc = FunctorData(sub, cat, {o: o for o in sub.objects},
                      {new: d[2] for new, d in enumerate(ordered)})
    return sub, inc


def skeleton(cat: FiniteCategory) -> tuple[FiniteCategory, FunctorData]:
    """Full subcategory on the least-id representative of each iso class."""
    return full_subcategory(cat, [cls[0] for cls in iso_classes(cat)])


def product(c1: FiniteCategory, c2: FiniteCategory) -> FiniteCategory:
    objects = [f"({o1},{o2})" for o1 in c1.objects for o2 in c2.objects]

    def oidx(i1, i2):
        return i1 * c2.n_objects + i2

    pairs = [
        (oidx(c1.dom[m1], c2.dom[m2]), oidx(c1.cod[m1], c2.cod[m2]), m1, m2)
        for m1 in range(c1.n_morphisms)
        for m2 in range(c2.n_morphisms)
    ]
    identities = [pairs[m1 * c2.n_morphisms + m2] for m1 in c1.identity for m2 in c2.identity]

    def compose(gd, fd):
        m1 = c1.rows[fd[2]][c1.at[gd[2]]]
        m2 = c2.rows[fd[3]][c2.at[gd[3]]]
        return (fd[0], gd[1], m1, m2)

    return _build(objects, pairs, identities, compose)[0]


def coproduct(c1: FiniteCategory, c2: FiniteCategory) -> FiniteCategory:
    objects = [f"L.{o}" for o in c1.objects] + [f"R.{o}" for o in c2.objects]
    n1 = c1.n_objects

    def left(m):
        return (c1.dom[m], c1.cod[m], 0, m)

    def right(m):
        return (n1 + c2.dom[m], n1 + c2.cod[m], 1, m)

    morphs = [left(m) for m in range(c1.n_morphisms)] + [right(m) for m in range(c2.n_morphisms)]
    identities = [left(e) for e in c1.identity] + [right(e) for e in c2.identity]

    def compose(gd, fd):
        assert gd[2] == fd[2]
        side = c1 if gd[2] == 0 else c2
        m = side.rows[fd[3]][side.at[gd[3]]]
        return left(m) if gd[2] == 0 else right(m)

    return _build(objects, morphs, identities, compose)[0]


def delooping(g: FiniteGroup) -> FiniteCategory:
    """One object, "*", whose endomorphisms are the group; g o f = table[g][f]."""
    def compose(gd, fd):
        return (0, 0, g.table[gd[2]][fd[2]])

    morphs = [(0, 0, a) for a in range(g.order)]
    return _build(["*"], morphs, morphs[:1], compose)[0]


def poset_category(elements: Sequence, leq: Iterable[tuple]) -> FiniteCategory:
    """At most one morphism x -> y, present iff x <= y: a pair (x, y) of leq
    or x = y.  The pairs must name elements and be antisymmetric; ``_build``
    decides transitivity, as closure under composition."""
    elems = list(elements)
    n = len(elems)
    byidx = {e: i for i, e in enumerate(elems)}
    try:
        rel = {(byidx[a], byidx[b]) for a, b in leq}
    except KeyError as unknown:
        raise ValueError(f"relation names an unknown element: {unknown.args[0]!r}") from None
    rel |= {(i, i) for i in range(n)}
    for i, j in rel:
        if (j, i) in rel and i != j:
            raise ValueError(f"relation is not antisymmetric at {elems[i]}, {elems[j]}")

    morphs = sorted(rel, key=lambda p: (p[0] != p[1], p))

    def compose(gd, fd):
        if (fd[0], gd[1]) not in rel:
            raise ValueError(f"relation is not transitive at {elems[fd[0]]}, {elems[fd[1]]}, "
                             f"{elems[gd[1]]}")
        return (fd[0], gd[1])

    return _build(elems, morphs, morphs[:n], compose)[0]


def biset_category(
    g: FiniteGroup,
    h: FiniteGroup,
    left: Sequence[Sequence[int]],
    right: Sequence[Sequence[int]],
) -> FiniteCategory:
    """Two objects x, y with end(x) = H, end(y) = G, mor(x,y) = S, mor(y,x) empty.

    left[a][s] is the left G-action, right[s][b] the right H-action, and
    composition is s o b = s.b and a o s = a.s.  The tables are commuting
    actions exactly when the category is lawful, so ``validate`` decides
    them, and the first law broken is raised: identity, G-action, H-action,
    commuting.
    """
    size = len(right)
    if len(left) != g.order or any(len(row) != size for row in left):
        raise ValueError("left action table must be |G| x |S|")
    if any(len(row) != h.order for row in right):
        raise ValueError("right action table must be |S| x |H|")
    if any(type(s) is not int or not 0 <= s < size
           for table in (left, right) for row in table for s in row):
        raise ValueError("action table entries must lie in 0..|S|-1")

    # morphism descriptors: ('h', b) endo of x, ('g', a) endo of y, ('s', s) x -> y
    objects = ["x", "y"]
    morphs = (
        [(0, 0, "h", b) for b in range(h.order)]
        + [(1, 1, "g", a) for a in range(g.order)]
        + [(0, 1, "s", s) for s in range(size)]
    )

    def compose(gd, fd):
        if gd[2] == "h" and fd[2] == "h":
            return (0, 0, "h", h.table[gd[3]][fd[3]])
        if gd[2] == "g" and fd[2] == "g":
            return (1, 1, "g", g.table[gd[3]][fd[3]])
        if gd[2] == "s" and fd[2] == "h":
            return (0, 1, "s", right[gd[3]][fd[3]])
        if gd[2] == "g" and fd[2] == "s":
            return (0, 1, "s", left[gd[3]][fd[3]])
        raise AssertionError("non-composable descriptor pair")

    cat = _build(objects, morphs, [(0, 0, "h", 0), (1, 1, "g", 0)], compose)[0]
    # rank each violation by the law it breaks: identity 0; a failing triple
    # h g f holds one element of S (the groups are associative), which as f
    # breaks the G-action 1, as h the H-action 2, and as g commuting 3
    broken = [0 if v["kind"] == "identity_law" else
              (2, 3, 1)[[cat.dom[m] != cat.cod[m] for m in v["triple"]].index(True)]
              for v in validate(cat)]
    if broken:
        raise ValueError(("identity must act trivially", "left table is not a G-action",
                          "right table is not an H-action", "biset actions do not commute")
                         [min(broken)])
    return cat


@_once
def orbit_category(g: FiniteGroup) -> FiniteCategory:
    """Build Or(G), the category of homogeneous spaces G/H with equivariant
    maps, once per group (``_once``; ``build_group`` caps the order of the
    groups it builds).  Object G/i is subgroup class i; the maps
    G/H_i -> G/K_j are the cosets x*K_j with x^-1 H_i x inside K_j, as
    ``grouptheory._maps`` enumerates them and g reaches them
    (``_coset_maps``): morphism (i, j, lo) is the coset named by its least
    element lo, in ``_build``'s order, identities (i, i, 0) first.
    Composition follows the right-translation law R_g2 o R_g1 = R_(g1 g2)."""
    least, maps = g._coset_maps()
    objects = [f"G/{i}" for i in range(len(maps))]
    morphs = [(i, j, lo) for i, row in enumerate(maps) for j, los in enumerate(row) for lo in los]

    def compose(gd, fd):
        # fd: G/H0 -> G/H1 as g1*H1, gd: G/H1 -> G/H2 as g2*H2; result g1*g2*H2
        return (fd[0], gd[1], least[gd[1]][g.table[fd[2]][gd[2]]])

    return _build(objects, morphs, [(i, i, 0) for i in range(len(maps))], compose)[0]


# ------------------------------------------------------ coverings and fibers


def _require_connected_finite_groupoid(cat: FiniteCategory, who: str) -> None:
    if not classify(cat)["is_connected_groupoid"]:
        raise ValueError(f"{who} requires connected finite groupoids")


def is_covering(p: FunctorData) -> tuple[bool, int | None]:
    """Star bijections at every object of a functor between connected groupoids.

    Returns (True, n) with the constant sheet count n, or (False, None).
    """
    _require_connected_finite_groupoid(p.source, "is_covering")
    _require_connected_finite_groupoid(p.target, "is_covering")
    bad = validate_functor(p)
    if bad:
        raise ValueError(f"not a functor: {bad[0]}")
    src, tgt = p.source, p.target
    images = {p.object_map[o] for o in src.objects}
    if images != set(tgt.objects):
        return False, None
    for e in range(src.n_objects):
        star = src.morphisms_from(e)
        image = [p.morphism_map[m] for m in star]
        target_star = tgt.morphisms_from(tgt.obj_index(p.object_map[src.objects[e]]))
        if len(set(image)) != len(star) or set(image) != set(target_star):
            return False, None
    fiber_sizes = {}
    for o in src.objects:
        fiber_sizes[p.object_map[o]] = fiber_sizes.get(p.object_map[o], 0) + 1
    counts = set(fiber_sizes.values())
    assert len(counts) == 1, "star bijections force a constant sheet count"
    return True, counts.pop()


def is_isofibration(p: FunctorData) -> bool:
    """Every iso of the target ending at p(e) lifts to an iso ending at e."""
    bad = validate_functor(p)
    if bad:
        raise ValueError(f"not a functor: {bad[0]}")
    src, tgt = p.source, p.target
    tgt_isos = [m for m in range(tgt.n_morphisms) if tgt.is_iso(m)]
    for e in range(src.n_objects):
        pe = tgt.obj_index(p.object_map[src.objects[e]])
        lifted = {
            p.morphism_map[f]
            for f in range(src.n_morphisms)
            if src.cod[f] == e and src.is_iso(f)
        }
        for m in tgt_isos:
            if tgt.cod[m] == pe and m not in lifted:
                return False
    return True


def fiber_category(p: FunctorData, b_obj) -> FiniteCategory:
    """Subcategory of the source over one target object: objects mapping to it,
    morphisms mapping to its identity (closed, since p(g o f) = id o id = id)."""
    src = p.source
    objs = [i for i, o in enumerate(src.objects) if p.object_map[o] == b_obj]
    id_b = p.target.identity[p.target.obj_index(b_obj)]
    return _restrict(src, objs, lambda m: p.morphism_map[m] == id_b)[0]


# ------------------------------------------------------------------- JSON io


def _name(v) -> str | None:
    """str(v), the key object ids are looked up by, for a string or a finite
    number as JSON parses them; None else (null, bool, NaN, an infinity)."""
    ok = type(v) is str or type(v) is int or type(v) is float and math.isfinite(v)
    return str(v) if ok else None


def from_json(doc: dict) -> FiniteCategory:
    """Parse the category schema; raises ValueError naming the first format problem.

    Object ids, and the dom and cod that name them, must have a ``_name``,
    and morphism ids be of type int, as JSON parses them."""
    if not isinstance(doc, dict):
        raise ValueError("category document must be a JSON object")
    for key in ("objects", "morphisms", "identities", "composition"):
        if key not in doc:
            raise ValueError(f"missing key: {key}")
    for key in ("objects", "morphisms", "composition"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a JSON array")
    if not isinstance(doc["identities"], dict):
        raise ValueError("identities must be a JSON object")
    objects = list(doc["objects"])
    names = [_name(o) for o in objects]
    if None in names:
        raise ValueError("object ids must be strings or numbers")
    if len(set(names)) != len(objects):
        raise ValueError("duplicate object ids")
    obj_index = {k: i for i, k in enumerate(names)}
    morphs = doc["morphisms"]
    m = len(morphs)
    dom = [0] * m
    cod = [0] * m
    seen = set()
    for rec in morphs:
        if not isinstance(rec, dict) or not {"id", "dom", "cod"} <= set(rec):
            raise ValueError(f"malformed morphism record: {rec!r}")
        mid = rec["id"]
        if type(mid) is not int or not (0 <= mid < m) or mid in seen:
            raise ValueError(f"morphism ids must be exactly 0..{m-1}: got {mid!r}")
        seen.add(mid)
        d, c = obj_index.get(_name(rec["dom"])), obj_index.get(_name(rec["cod"]))
        if d is None or c is None:
            raise ValueError(f"morphism {mid} references unknown object")
        dom[mid], cod[mid] = d, c
    identities = doc["identities"]
    if identities.keys() != obj_index.keys():
        raise ValueError("identities must cover exactly the objects")
    identity = [0] * len(objects)
    for o, mid in identities.items():
        if type(mid) is not int or not (0 <= mid < m):
            raise ValueError(f"identity of {o!r} references unknown morphism")
        identity[obj_index[o]] = mid
    return FiniteCategory(objects, dom, cod, identity, doc["composition"])


def canonical_json(cat: FiniteCategory, out: IO[str]) -> None:
    """Write the category document to the text stream out, byte-identical to
    ``json.dumps(doc, indent=2) + "\n"``: each record is formatted straight
    from the tables, and the document goes through ``_write``."""
    def value(v, depth):  # json's text for v on a line indented depth levels
        return json.dumps(v, indent=2).replace("\n", "\n" + "  " * depth)

    def section(key, records, brackets="[]", lead=","):
        # each record comes with its leading ",\n"; the first one's comma goes
        first = next(records, None)
        if first is None:
            yield f'{lead}\n  "{key}": {brackets}'
            return
        yield f'{lead}\n  "{key}": {brackets[0]}{first[1:]}'
        yield from records
        yield "\n  " + brackets[1]

    names = [value(o, 3) for o in cat.objects]
    identities = {str(o): i for o, i in zip(cat.objects, cat.identity)}
    _write(out,
           section("objects", (",\n    " + value(o, 2) for o in cat.objects), lead="{"),
           section("morphisms", (',\n    {\n      "id": %d,\n      "dom": %s,\n      "cod": %s\n    }'
                                 % (m, names[d], names[c])
                                 for m, (d, c) in enumerate(zip(cat.dom, cat.cod)))),
           section("identities", (",\n    %s: %d" % (encode_basestring_ascii(k), i)
                                  for k, i in identities.items()), "{}"),
           section("composition", (",\n    [\n      %d,\n      %d,\n      %d\n    ]" % rec
                                   for rec in _pairs(cat))),
           ["\n}\n"])
