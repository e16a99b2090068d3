"""The class-function back-substitution that computes chi_f, chi_f2 and
mu_bar2 of every EI category, free or not: against the brute-force chain
sums and the chain walk oracle, on free categories (where every stabiliser is
trivial and only the rows at 1 are needed) and on non-free ones, with guards
on its assertions and on what it leaves in the category's memo."""

import random
from fractions import Fraction

import pytest

from catrank import corpus, moebius
from catrank.fincat import (
    biset_category,
    classify,
    delooping,
    full_subcategory,
    iso_order,
    opposite,
    orbit_category,
    product,
    validate,
)
from catrank.grouptheory import build_group
from catrank.leinster import coweighting, weighting
from catrank.moebius import euler_characteristics

import dense
import genrandom
from assembly_oracle import from_table, table_of
from chain_oracle import chain_sums, walk_sums
from test_grouptheory import ORACLE_GROUPS
from test_moebius import recording_memo

ORBIT_SPECS = ("symmetric:3", "symmetric:4", "dihedral:4", "q8", "product:cyclic:2+symmetric:3",
               "cyclic:12", "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2", "symmetric:5")
PROPER_SPECS = ("symmetric:4", "dihedral:6", "product:cyclic:2+symmetric:3",
                "symmetric:3", "dihedral:4", "q8", "cyclic:12")
# the brute force builds every S(c) as a full product of hom sets; above this
# many morphisms the walk alone is the oracle
BRUTE_FORCE_MORPHISMS = 300


def _proper(cat):
    """cat without its top class (G/G for an orbit category)."""
    top = iso_order(cat).labels[-1]
    return full_subcategory(cat, [o for o in cat.objects if o != top])[0]


def _cases():
    """Every EI corpus entry and its opposite; Or(G) and Or(G)^op for
    ORBIT_SPECS; Or(G) without G/G and its opposite for PROPER_SPECS; seeded
    free EI draws, every other one inflated; random bisets and their
    opposites; seeded dag and poset-of-groups draws with their opposites;
    and products with Or(S3)^op."""
    cases = []
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat)["is_ei"]:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    for spec in ORBIT_SPECS:
        cases.append((f"Or({spec})", orbit_category(build_group(spec, 120))))
    # without its terminal object G/G, the automorphisms of the lower classes
    # act on the upper chains with varying fixed points, so chi_f depends on
    # f_t(a) at every a, not on f_t(1) alone
    for spec in PROPER_SPECS[:3]:
        proper = _proper(orbit_category(build_group(spec)))
        cases += [(f"Or({spec}) proper", proper), (f"Or({spec}) proper^op", opposite(proper))]
    rng = random.Random(1989)
    for i in range(40):
        cat = genrandom.random_free_ei_category(rng)
        if i % 2:
            cases.append((f"inflated free {i}", genrandom.random_inflation(rng, cat)[0]))
        else:
            cases.append((f"free {i}", cat))
    # an opposite orbit category is not free: the Weyl groups of the upper
    # classes fix morphisms, so stabilisers and demand sets grow
    for spec in ORBIT_SPECS:
        cases.append((f"Or({spec})^op", opposite(orbit_category(build_group(spec, 120)))))
    for spec in PROPER_SPECS[3:]:
        proper = _proper(orbit_category(build_group(spec)))
        cases += [(f"Or({spec}) proper", proper), (f"Or({spec}) proper^op", opposite(proper))]
    rng = random.Random(2012)
    for i in range(30):
        biset = biset_category(*genrandom.random_biset(rng)[:4])
        cases += [(f"biset {i}", biset), (f"biset {i}^op", opposite(biset))]
    for i in range(6):
        for kind, cat in (("dag", genrandom.random_dag_category(rng)),
                          ("poset of groups", genrandom.poset_of_groups(rng))):
            cases += [(f"{kind} {i}", cat), (f"{kind} {i}^op", opposite(cat))]
    s3op = opposite(orbit_category(build_group("symmetric:3")))
    cases.append(("Or(symmetric:3)^op x Or(symmetric:3)^op", product(s3op, s3op)))
    for i in range(4):
        biset = biset_category(*genrandom.random_biset(rng)[:4])
        cases.append((f"biset {30 + i} x Or(symmetric:3)^op", product(biset, s3op)))
    return cases


CASES = _cases()


def _report_sums(rep):
    return rep.orbits, list(dense.chi_f2(rep)), dense.mu_bar2(rep).to_lists()


def test_cases_cover_both_routes_and_nontrivial_groups():
    """Free and non-free categories, skeletal and not, many with
    automorphism groups larger than C2, and enough of them under the brute
    force."""
    assert len(CASES) >= 172
    free = [classify(cat)["is_free"] for _, cat in CASES]
    assert sum(free) > 80 and len(free) - sum(free) > 70
    skeletal = [classify(cat)["is_skeletal"] for _, cat in CASES]
    assert any(skeletal) and not all(skeletal)
    assert sum(1 for _, cat in CASES
               if any(len(cat.aut(x)) > 2 for x in range(cat.n_objects))) > 10
    brute = [cat for _, cat in CASES if cat.n_morphisms <= BRUTE_FORCE_MORPHISMS]
    assert sum(1 for cat in brute if not classify(cat)["is_free"]) > 60


@pytest.mark.parametrize("name,cat", CASES, ids=[name for name, _ in CASES])
def test_route_matches_walk_and_oracle(name, cat):
    rep = euler_characteristics(iso_order(cat))
    chi_f, chi_f2, mu_rows, truncated = walk_sums(cat)
    assert _report_sums(rep) == (chi_f, chi_f2, mu_rows) and not truncated
    assert rep.chi == sum(chi_f) and rep.chi2 == sum(chi_f2)
    assert rep.labels == iso_order(cat).labels
    if cat.n_morphisms <= BRUTE_FORCE_MORPHISMS:
        assert chain_sums(cat) == (chi_f, chi_f2, mu_rows, truncated)


def test_nonfree_orbits_stay_on_the_route():
    """A biset with stabilisers has orbits shorter than |aut t|: the route
    averages over cosets of size 2 and gives the walk's numbers."""
    cat = corpus.build("biset-trivial-c2-c2")
    assert not classify(cat)["is_free"]
    poset = iso_order(cat)
    (i, t), = [(i, t) for i in range(poset.size) for t in range(poset.size)
               if i != t and cat.hom(poset.reps[i], poset.reps[t])]
    assert list(poset.acts[i]) == [t]
    cosets = {c for cs in poset.acts[i][t] for c in cs}
    assert {len(c) for c in cosets} == {2}
    assert len(poset.acts[i][t][0]) * poset.homs[t][t] > poset.homs[i][t]
    rep = euler_characteristics(poset)
    assert _report_sums(rep) == walk_sums(cat)[:3]


def test_route_asserts_integral_chi_f(monkeypatch):
    """Burnside's lemma makes sum f_i(b) a multiple of |A_i|; a wrong class
    function is an internal error, not a silent fraction."""
    cat = corpus.build("delooping-c3")
    f, rows = moebius._back_substitute(iso_order(cat))
    monkeypatch.setattr(moebius, "_back_substitute", lambda poset: ([[1, 1, 0]], rows))
    with pytest.raises(AssertionError, match="chi_f not integral"):
        euler_characteristics(iso_order(cat))
    assert f == [[1, 1, 1]] and rows == [{0: 3}]


def test_route_asserts_integral_coset_averages():
    """Each coset average is an integer; a class table whose cosets are not
    cosets of the stabiliser breaks that and is caught."""
    poset = iso_order(opposite(orbit_category(build_group("symmetric:3"))))
    skewed = [{t: tuple(tuple(c if len(c) == 1 else c + c[:1] for c in cs) for cs in by_b)
               for t, by_b in act.items()} for act in poset.acts]
    with pytest.raises(AssertionError, match="not integral at class"):
        moebius._back_substitute(poset._replace(acts=tuple(skewed)))


def test_memo_keeps_only_the_class_table():
    """The demand sets and the class functions are local to the recurrence:
    the memo holds the hom sets, the inverses, the EI verdict, the one
    orbit walk, the class table and the weightings, each built once,
    nothing per pair; f on every A_i and the sparse integer rows h_i(1)
    are computed afresh from the table."""
    cat = opposite(orbit_category(build_group("dihedral:4")))
    memo = recording_memo(cat)
    weighting(cat)
    coweighting(cat)
    euler_characteristics(iso_order(cat))
    euler_characteristics(iso_order(cat))
    assert memo.builds == ["_hom_sets", "_inverses", "ei_witness", "aut_orbits", "iso_order",
                           "weighting", "coweighting"]
    assert memo["ei_witness"] is None
    poset = memo["iso_order"]
    f, rows = moebius._back_substitute(poset)
    assert [len(fi) for fi in f] == [len(cat.aut(r)) for r in poset.reps]
    assert all(type(v) is int for fi in f for v in fi)
    assert all(type(j) is int and type(v) is int and v for hi in rows for j, v in hi.items())
    assert moebius._back_substitute(poset) == (f, rows)


# the names of the cases added where f_i is not constant on A_i begin so
VARYING = ("Or(symmetric:4) proper", "non-free biset")


def _identity_cases():
    """The EI corpus entries and their opposites, Or(G) and Or(G)^op for
    S4, D8, Q8, A4 and S5, and, where f_i is not constant on A_i, Or(S4)
    without G/G and its opposite and four seeded non-free bisets."""
    cases = []
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat)["is_ei"]:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    for spec in ("symmetric:4", "dihedral:4", "q8", "a4", "symmetric:5"):
        cat = orbit_category(build_group(spec, 120))
        cases += [(f"Or({spec})", cat), (f"Or({spec})^op", opposite(cat))]
    proper = _proper(orbit_category(build_group("symmetric:4")))
    cases += [(VARYING[0], proper), (f"{VARYING[0]}^op", opposite(proper))]
    rng = random.Random(5)
    bisets = []
    while len(bisets) < 4:
        biset = biset_category(*genrandom.random_biset(rng)[:4])
        if not classify(biset)["is_free"]:
            bisets.append(biset)
    return cases + [(f"{VARYING[1]} {i}", biset) for i, biset in enumerate(bisets)]


IDENTITY_CASES = _identity_cases()


def test_identity_cases_count_their_pairs():
    """614 pairs (i, b) of a class and one of its automorphisms on the EI
    corpus entries, their opposites and the orbit categories, and some
    cases where f_i is not constant, told apart by their names."""
    tables = {name: iso_order(cat) for name, cat in IDENTITY_CASES}
    pinned = [p for name, p in tables.items() if not name.startswith(VARYING)]
    assert sum(p.homs[i][i] for p in pinned for i in range(p.size)) == 614
    varying = [fi for name, p in tables.items() if name.startswith(VARYING)
               for fi in moebius._back_substitute(p)[0] if len(set(fi)) > 1]
    assert len(varying) >= 4


@pytest.mark.parametrize("name,cat", IDENTITY_CASES, ids=[name for name, _ in IDENTITY_CASES])
def test_class_functions_sum_to_one_over_the_classes_above(name, cat):
    """For every class i and b in A_i, the class functions f that
    _back_substitute returns satisfy
    sum over t >= i of (1/|A_t|) sum over x in hom(rep i, rep t) and a in
    A_t with a o x = x o b of f_t(a) = 1, checked over every x and every a,
    each composite through cat.compose, with no orbit walk."""
    poset = iso_order(cat)
    f, _ = moebius._back_substitute(poset)
    auts = [cat.aut(r) for r in poset.reps]
    for i, r in enumerate(poset.reps):
        # per x into a class t >= i, the positions of the a in A_t by a o x
        terms = []
        for t, s in enumerate(poset.reps):
            for x in cat.hom(r, s):
                reached = {}
                for p, a in enumerate(auts[t]):
                    reached.setdefault(cat.compose(a, x), []).append(p)
                terms.append((t, x, reached))
        for b in auts[i]:
            sums = [0] * poset.size
            for t, x, reached in terms:
                sums[t] += sum(f[t][p] for p in reached.get(cat.compose(x, b), ()))
            assert sum(Fraction(n, len(a)) for n, a in zip(sums, auts)) == 1, (name, i, b)


def test_orbit_category_only_the_route_reaches():
    """Or(C2^3 x C4), 118 classes: the walk takes about half a second, the
    back-substitution a few hundredths; both give the same report."""
    cat = orbit_category(build_group("product:cyclic:2+cyclic:2+cyclic:2+cyclic:4"))
    assert iso_order(cat).size == 118
    rep = euler_characteristics(iso_order(cat))
    chi_f, chi_f2, mu_rows, truncated = walk_sums(cat)
    assert _report_sums(rep) == (chi_f, chi_f2, mu_rows) and not truncated
    assert (rep.chi, rep.chi2) == (sum(chi_f), sum(chi_f2))


# ------------------------------------------------- transitive tops (item 14)


def _top(cat):
    """The first object u, by index, with every hom(x, u) nonempty and a
    single aut(u)-orbit, checked by the definition: hom(x, u) is the set of
    the a o f, a in aut(u), for its first element f; None when there is
    none.  A terminal object is the case aut(u) = 1."""
    objs = range(cat.n_objects)
    return next((u for u in objs if all(
        cat.hom(x, u) and set(cat.hom(x, u)) == {cat.compose(a, cat.hom(x, u)[0])
                                                 for a in cat.aut(u)}
        for x in objs)), None)


def adjoin_terminal(cat):
    """cat with a terminal object T adjoined after its objects: the identity
    of T, then one morphism t_x from each object x to T, with
    t_x o f = t_(dom f)."""
    m, n = cat.n_morphisms, cat.n_objects
    top = m  # the identity of T; t_x is m + 1 + x
    table = table_of(cat) | {(m + 1 + cat.cod[f], f): m + 1 + cat.dom[f] for f in range(m)}
    table |= {(top, m + 1 + x): m + 1 + x for x in range(n)} | {(top, top): top}
    name = "T"
    while name in cat.objects:
        name += "'"
    out = from_table(list(cat.objects) + [name], list(cat.dom) + [n] + list(range(n)),
                     list(cat.cod) + [n] * (n + 1), list(cat.identity) + [top], table)
    assert validate(out) == []
    return out


def _cone(g):
    """BG with a terminal object T adjoined: one morphism t from * to T,
    with t o a = t for every a in G."""
    return adjoin_terminal(delooping(g))


TOP_DRAWS = (genrandom.random_dag_category, genrandom.random_poset_category,
             genrandom.poset_of_groups, genrandom.random_free_ei_category,
             genrandom.random_orbit_subcategory)


def _top_cases():
    """Or(G) (a terminal object, G/G) and Or(G)^op (a transitive top, G/1,
    with aut = G) for every group of ORACLE_GROUPS and for S5; each EI
    corpus entry and its opposite that has a top; the cone over BG for C2,
    S3 and Q8; four products of these, whose top is the pair of tops; and
    seeded EI draws and their opposites, each with a terminal object
    adjoined."""
    groups = ORACLE_GROUPS + [("symmetric:5", build_group("symmetric:5", 120))]
    cases = []
    for name, g in groups:
        cat = orbit_category(g)
        cases += [(f"Or({name})", cat), (f"Or({name})^op", opposite(cat))]
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat)["is_ei"]:
            cases += [(n, c) for n, c in ((name, cat), (f"{name}^op", opposite(cat)))
                      if _top(c) is not None]
    cases += [(f"cone over B{spec}", _cone(build_group(spec)))
              for spec in ("cyclic:2", "symmetric:3", "q8")]
    s3, c2 = (orbit_category(build_group(s)) for s in ("symmetric:3", "cyclic:2"))
    cases += [("Or(S3) x Or(C2)", product(s3, c2)),
              ("Or(S3)^op x Or(C2)^op", product(opposite(s3), opposite(c2))),
              ("cone over BC2 x Or(S3)", product(_cone(build_group("cyclic:2")), s3)),
              ("cone over BQ8 x Or(C2)^op", product(_cone(build_group("q8")), opposite(c2)))]
    rng = random.Random(7)
    for k in range(8):
        for make in TOP_DRAWS:
            cat = make(rng)
            assert classify(cat)["is_ei"], make.__name__
            cases += [(f"{make.__name__}-{k} + T", adjoin_terminal(cat)),
                      (f"{make.__name__}-{k}^op + T", adjoin_terminal(opposite(cat)))]
    return cases


TOP_CASES = _top_cases()


def test_top_cases_cover_both_theorems():
    """Terminal objects and transitive tops with aut(u) > 1, skeletal
    categories and not, on 60 orbit categories, corpus entries, cones,
    products and 80 seeded draws with a terminal object adjoined."""
    sizes = [len(cat.aut(_top(cat))) for _, cat in TOP_CASES]
    assert len(TOP_CASES) >= 60 + 3 + 10 + 4 + 80
    assert sizes.count(1) > 30 and sum(n > 1 for n in sizes) > 30
    assert not all(classify(cat)["is_skeletal"] for _, cat in TOP_CASES)


@pytest.mark.parametrize("name,cat", TOP_CASES, ids=[name for name, _ in TOP_CASES])
def test_a_transitive_top_carries_the_whole_obstruction(name, cat):
    """If every hom(x, u) is one nonempty aut(u)-orbit, the constant functor
    is Q hom(-, u) tensored over Q aut(u) with the trivial module, so f_u is
    the trivial character of A_u = aut(u) and every other f_x is 0: chi_f
    is e_u, chi = 1 and chi2 = 1/|A_u| (with a terminal object, A_u = 1)."""
    u = _top(cat)
    poset = iso_order(cat)
    top = next(i for i, members in enumerate(poset.members) if cat.objects[u] in members)
    f, _ = moebius._back_substitute(poset)
    assert f[top] == [1] * len(cat.aut(u)), name
    assert all(not any(fi) for i, fi in enumerate(f) if i != top), name
    rep = euler_characteristics(poset)
    assert rep.orbits == [int(i == top) for i in range(poset.size)], name
    assert (rep.chi, rep.chi2) == (1, Fraction(1, len(cat.aut(u)))), name
