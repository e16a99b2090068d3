"""The composable-pair assembler and validator against the all-pairs oracle.

Every category built through ``fincat._build`` (constructions, the corpus,
orbit categories, full subcategories, skeletons and fibers) must equal the
oracle's, down to morphism numbering and the insertion order of the
composition table; ``validate`` must report the same violations.
"""

import random

import pytest

import assembly_oracle as oracle
import genrandom
from catrank import corpus, fincat, orbitcat
from catrank.fincat import FiniteCategory, fiber_category, full_subcategory, skeleton, validate
from catrank.grouptheory import build_group, cyclic_group, subgroup_classes


def assert_same(cat: FiniteCategory, ref: FiniteCategory):
    assert cat == ref
    assert list(cat.compose_table.items()) == list(ref.compose_table.items())


def corpus_entries():
    entries = [(name, corpus.build(name)) for name in corpus.names() if name != "subsets-q"]
    return entries + [(f"subsets-q {q}", corpus.subsets(q)) for q in range(5)]


def test_corpus_matches_oracle(monkeypatch):
    new = corpus_entries()
    for mod in (fincat, corpus):
        monkeypatch.setattr(mod, "_build", oracle.build)
    for (_, cat), (_, ref) in zip(new, corpus_entries()):
        assert_same(cat, ref)


GROUPS = ["symmetric:3", "symmetric:4", "dihedral:4", "q8",
          "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2", "product:cyclic:2+symmetric:3"]


@pytest.mark.parametrize("spec", GROUPS)
def test_orbit_category_matches_oracle(monkeypatch, spec):
    g = build_group(spec)
    oc = orbitcat.orbit_category.__wrapped__(g)
    monkeypatch.setattr(orbitcat, "_build", oracle.build)
    ref = orbitcat.orbit_category.__wrapped__(g)
    assert_same(oc.category, ref.category)
    assert oc.coset_of_morphism == ref.coset_of_morphism


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


def mutate(rng: random.Random, cat: FiniteCategory) -> FiniteCategory:
    """Drop, add or redirect a few composites, or move an identity."""
    table = dict(cat.compose_table)
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
    return FiniteCategory(cat.objects, cat.dom, cat.cod, identity, table)


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
