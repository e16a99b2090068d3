"""The composable-pair assembler and validator against the all-pairs oracle.

Every category built through ``fincat._build`` (constructions, the corpus,
orbit categories, full subcategories, skeletons and fibers) must equal the
oracle's, down to morphism numbering; ``validate`` on the rows must report
the same violations as the oracle's scan of the composition dict.
"""

import random

import pytest

import assembly_oracle as oracle
import genrandom
from catrank import corpus, fincat
from catrank.fincat import (FiniteCategory, biset_category, fiber_category, full_subcategory,
                            poset_category, skeleton, validate)
from catrank.grouptheory import build_group, cyclic_group, subgroup_classes


def assert_same(cat: FiniteCategory, ref: FiniteCategory):
    assert cat == ref


def corpus_entries():
    entries = [(name, corpus.build(name)) for name in corpus.names() if name != "subsets-q"]
    return entries + [(f"subsets-q {q}", corpus.subsets(q)) for q in range(5)]


def test_corpus_matches_oracle(monkeypatch):
    new = corpus_entries()
    monkeypatch.setattr(fincat, "_build", oracle.build)  # corpus calls fincat._build
    for (_, cat), (_, ref) in zip(new, corpus_entries()):
        assert_same(cat, ref)


GROUPS = ["symmetric:3", "symmetric:4", "dihedral:4", "q8",
          "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2", "product:cyclic:2+symmetric:3"]


@pytest.mark.parametrize("spec", GROUPS)
def test_orbit_category_matches_oracle(monkeypatch, spec):
    g = build_group(spec)
    cat = fincat.orbit_category.__wrapped__(g)
    monkeypatch.setattr(fincat, "_build", oracle.build)
    assert_same(cat, fincat.orbit_category.__wrapped__(g))


def random_categories(rng: random.Random, count: int):
    for _ in range(count):
        base = genrandom.random_free_ei_category(rng)
        yield base
        yield genrandom.random_inflation(rng, base)[0]
        yield genrandom.random_dag_category(rng)
        yield genrandom.random_poset_category(rng)


def test_full_subcategory_and_skeleton_match_oracle():
    rng = random.Random(404)
    for cat in random_categories(rng, 15):
        objs = rng.sample(list(cat.objects), rng.randint(1, cat.n_objects))
        sub, inc = full_subcategory(cat, objs)
        ref, ref_inc = oracle.full_subcategory(cat, objs)
        assert_same(sub, ref)
        assert inc.object_map == ref_inc.object_map
        assert inc.morphism_map == ref_inc.morphism_map
        sk, sk_inc = skeleton(cat)
        ref, ref_inc = oracle.skeleton(cat)
        assert_same(sk, ref)
        assert sk_inc.morphism_map == ref_inc.morphism_map


def fiber_fixtures():
    yield genrandom.quotient_delooping_functor(cyclic_group(6), (0, 2, 4))
    yield genrandom.action_groupoid(cyclic_group(4), (0, 2))[1]
    yield genrandom.action_groupoid_to_quotient(cyclic_group(4), (0, 2), (0, 2))
    yield genrandom.action_groupoid(build_group("symmetric:3"), (0, 1))[1]
    for spec in ("symmetric:3", "dihedral:4", "q8"):
        g = build_group(spec)
        normal = next(c.representative for c in subgroup_classes(g)
                      if 1 < len(c.representative) < g.order and len(c.conjugates) == 1)
        yield genrandom.quotient_delooping_functor(g, normal)
    rng = random.Random(405)
    for _ in range(10):
        yield genrandom.random_inflation(rng, genrandom.random_free_ei_category(rng))[1]


def test_fiber_category_matches_oracle():
    for p in fiber_fixtures():
        for b in p.target.objects:
            assert_same(fiber_category(p, b), oracle.fiber_category(p, b))


def mutate(rng: random.Random, cat: FiniteCategory) -> oracle.DictCategory:
    """Drop, add or redirect a few composites, or move an identity."""
    table = oracle.table_of(cat)
    identity = list(cat.identity)
    m = cat.n_morphisms
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0 and table:
            del table[rng.choice(list(table))]
        elif kind == 1:
            table[(rng.randrange(m), rng.randrange(m))] = rng.randrange(m)
        elif kind == 2 and table:
            table[rng.choice(list(table))] = rng.randrange(m)
        else:
            identity[rng.randrange(cat.n_objects)] = rng.randrange(m)
    return oracle.DictCategory(cat.objects, cat.dom, cat.cod, identity, table)


def test_validate_matches_oracle_on_mutations():
    rng = random.Random(406)
    cats = [cat for _, cat in corpus_entries()] + list(random_categories(rng, 10))
    kinds = set()
    for cat in cats:
        assert validate(cat) == oracle.validate(cat) == []
        for _ in range(8):
            bad = mutate(rng, cat)
            found = validate(bad)
            assert found == oracle.validate(bad)
            kinds.update(v["kind"] for v in found)
    # the mutations reach every check
    assert kinds == {"identity_endpoints", "extra_composite", "missing_composite",
                     "composite_endpoints", "identity_law", "associativity"}


def redirect_within_hom(rng: random.Random, cat: FiniteCategory) -> oracle.DictCategory | None:
    """Send one composite of two non-identities to another morphism of the
    same hom-set.  Endpoints and identity laws still hold, so only the
    associativity check can see it.  None when no such composite has a hom-set
    with a second morphism (posets)."""
    ids = set(cat.identity)
    table = oracle.table_of(cat)
    keys = [key for key, c in table.items()
            if ids.isdisjoint(key) and len(cat.hom(cat.dom[c], cat.cod[c])) > 1]
    if not keys:
        return None
    key = rng.choice(keys)
    c = table[key]
    table[key] = rng.choice([x for x in cat.hom(cat.dom[c], cat.cod[c]) if x != c])
    return oracle.DictCategory(cat.objects, cat.dom, cat.cod, cat.identity, table)


def light_cases():
    """Orbit categories, posets and the draws of
    test_validate_matches_oracle_on_mutations."""
    cases = [(f"Or({spec})", fincat.orbit_category(build_group(spec)))
             for spec in ("symmetric:3", "symmetric:4", "dihedral:4")]
    cases += [(f"subsets-q {q}", corpus.subsets(q)) for q in (3, 4, 5)]
    cases += [(f"draw {i}", cat) for i, cat in enumerate(random_categories(random.Random(406), 10))]
    return cases


def test_validate_matches_oracle_on_associativity_mutations():
    rng = random.Random(407)
    caught = 0
    for name, cat in light_cases():
        for _ in range(4):
            bad = redirect_within_hom(rng, cat)
            if bad is None:
                break
            found = validate(bad)
            assert found == oracle.validate(bad), name
            assert {v["kind"] for v in found} <= {"associativity"}
            caught += bool(found)
    assert caught >= 80


def test_valid_categories_skip_the_full_associativity_scan(monkeypatch):
    calls = []
    full_scan = fincat._associativity_violations

    def counted(cat):
        calls.append(cat)
        return full_scan(cat)

    monkeypatch.setattr(fincat, "_associativity_violations", counted)
    cats = [cat for _, cat in corpus_entries() + light_cases()]
    cats += [fincat.orbit_category(build_group(spec)) for spec in GROUPS]
    for cat in cats:
        assert validate(cat) == []
    assert calls == []
    bad = redirect_within_hom(random.Random(1), cats[-1])
    assert validate(bad) and calls == [bad]


def _closure(cat: FiniteCategory, gens) -> set[int]:
    """The identities and gens closed under composition, by repeated passes
    over the whole composition table."""
    got = set(cat.identity) | set(gens)
    table = oracle.table_of(cat)
    while True:
        new = {c for (g, f), c in table.items() if g in got and f in got} - got
        if not new:
            return got
        got |= new


def test_generating_set_is_the_greedy_one():
    """Indecomposables first, then each morphism, in id order, that the
    closure of those kept before it misses; together they generate."""
    cases = light_cases() + [(spec, fincat.orbit_category(build_group(spec)))
                             for spec in ("q8", "product:cyclic:2+symmetric:3")]
    for name, cat in cases:
        ids = set(cat.identity)
        composite = {c for (g, f), c in oracle.table_of(cat).items()
                     if g not in ids and f not in ids}
        everything = list(range(cat.n_morphisms))
        expected: list[int] = []
        got = _closure(cat, expected)
        for f in [f for f in everything if f not in ids | composite] + everything:
            if f not in got:
                expected.append(f)
                got = _closure(cat, expected)
        assert got == set(everything), name
        assert fincat._generating_set(cat) == expected, name


def test_poset_generators_are_the_hasse_edges():
    cat = corpus.subsets(6)
    kept = fincat._generating_set(cat)
    hasse = [f for f in range(cat.n_morphisms)
             if len(cat.objects[cat.dom[f]]) == len(cat.objects[cat.cod[f]]) + 1]
    assert (len(kept), cat.n_morphisms) == (441, 2059)
    assert kept == hasse


def biset_draws(rng: random.Random, count: int):
    """count (g, h, left, right) inputs of the right shape, entries in S, in
    turn: random tables (each element acting by a permutation of S or by
    any map, the identities mostly by the identity), a
    ``genrandom.random_biset`` draw with entries set anew, and such a draw
    with its right action conjugated by a random permutation of S, which
    keeps it an H-action but seldom one that commutes."""
    for k in range(count):
        if k % 3 == 0:
            g, h = genrandom.random_group(rng, 4), genrandom.random_group(rng, 4)
            size = rng.randint(1, 4)

            def maps(order):
                return [list(range(size)) if x == 0 and rng.random() < 0.9
                        else rng.sample(range(size), size) if rng.random() < 0.5
                        else [rng.randrange(size) for _ in range(size)] for x in range(order)]

            left = maps(g.order)
            right = [list(col) for col in zip(*maps(h.order))]
        else:
            g, h, left, right, _ = genrandom.random_biset(rng)
            size = len(right)
            if k % 3 == 1:
                row = rng.choice(rng.choice((left, right)))
                row[:] = [rng.randrange(size) if rng.random() < 0.3 else s for s in row]
            else:
                sigma = rng.sample(range(size), size)
                inv = {t: s for s, t in enumerate(sigma)}
                right = [[sigma[t] for t in right[inv[s]]] for s in range(size)]
        yield g, h, left, right


def test_biset_category_gives_the_oracle_verdict():
    """Each draw is refused with the oracle's message, law by law, or built
    when the oracle finds commuting actions; the draws reach every law."""
    rng = random.Random(407)
    reached = set()
    for g, h, left, right in biset_draws(rng, 1200):
        want = oracle.biset_law(g, h, left, right)
        reached.add(want)
        if want is None:
            assert validate(biset_category(g, h, left, right)) == []
            continue
        with pytest.raises(ValueError) as err:
            biset_category(g, h, left, right)
        assert str(err.value) == want
    assert len(reached) == 5


def relation_draws(rng: random.Random, count: int):
    """count (elements, pairs): up to 7 letters in a random order, pairs
    drawn upward in a second random order of them, so antisymmetric; in
    turn left as drawn, closed transitively with one pair then dropped, or
    joined by one pair in any direction."""
    for k in range(count):
        elements = rng.sample("abcdefg", rng.randint(1, 7))
        up = rng.sample(elements, len(elements))
        pairs = {(a, b) for i, a in enumerate(up) for b in up[i + 1:] if rng.random() < 0.4}
        if k % 3 == 1:
            pairs |= {(a, a) for a in elements}
            while True:
                more = {(a, c) for a, b in pairs for b2, c in pairs if b == b2} - pairs
                if not more:
                    break
                pairs |= more
            pairs.discard(rng.choice(sorted(pairs)))
        elif k % 3 == 2:
            pairs.add((rng.choice(elements), rng.choice(elements)))
        yield elements, rng.sample(sorted(pairs), len(pairs))


def test_poset_category_gives_the_oracle_verdict():
    """Each relation is built when the oracle finds a partial order, and
    refused with its antisymmetry message; a transitivity failure may name
    another triple than the oracle's scan, but always a real one."""
    rng = random.Random(408)
    reached = set()
    for elements, pairs in relation_draws(rng, 1200):
        want = oracle.poset_law(elements, pairs)
        reached.add(want and want.split(" at ")[0])
        if want is None:
            cat = poset_category(elements, pairs)
            assert cat.n_morphisms == len(set(pairs) | {(a, a) for a in elements})
            continue
        with pytest.raises(ValueError) as err:
            poset_category(elements, pairs)
        if want.startswith("relation is not antisymmetric"):
            assert str(err.value) == want
            continue
        head, triple = str(err.value).split(" at ")
        a, b, c = triple.split(", ")
        rel = set(pairs) | {(e, e) for e in elements}
        assert head == "relation is not transitive"
        assert (a, b) in rel and (b, c) in rel and (a, c) not in rel
    assert reached == {None, "relation is not antisymmetric", "relation is not transitive"}
