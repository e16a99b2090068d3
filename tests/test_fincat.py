"""Category representation, axioms, predicates, constructions, functors."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from catrank import corpus
from catrank.fincat import (
    FiniteCategory,
    FunctorData,
    aut_orbits,
    biset_category,
    classify,
    coproduct,
    delooping,
    ei_witness,
    fiber_category,
    free_witness,
    from_json,
    full_subcategory,
    is_covering,
    is_isofibration,
    iso_classes,
    opposite,
    orbit_category,
    poset_category,
    product,
    skeleton,
    validate,
    validate_functor,
)
from catrank.grouptheory import build_group, cyclic_group, symmetric_group

import genrandom
from assembly_oracle import from_table, ids_reversed, table_of
from aut_groups import aut_group
from json_oracle import emitted, to_json
from test_grouptheory import ORACLE_GROUPS


# the walking retract pair: u: x -> y, v: y -> x with nontrivial idempotents
# vu and uv.  Not EI, not Cauchy complete, but directly finite.
RETRACT_PAIR_DOC = {
    "objects": ["x", "y"],
    "morphisms": [
        {"id": 0, "dom": "x", "cod": "x"},
        {"id": 1, "dom": "y", "cod": "y"},
        {"id": 2, "dom": "x", "cod": "y"},
        {"id": 3, "dom": "y", "cod": "x"},
        {"id": 4, "dom": "x", "cod": "x"},
        {"id": 5, "dom": "y", "cod": "y"},
    ],
    "identities": {"x": 0, "y": 1},
    "composition": [
        [0, 0, 0], [2, 0, 2], [4, 0, 4],
        [1, 1, 1], [3, 1, 3], [5, 1, 5],
        [1, 2, 2], [3, 2, 4], [5, 2, 2],
        [0, 3, 3], [2, 3, 5], [4, 3, 3],
        [0, 4, 4], [2, 4, 2], [4, 4, 4],
        [1, 5, 5], [3, 5, 3], [5, 5, 5],
    ],
}


def retract_pair() -> FiniteCategory:
    return from_json(RETRACT_PAIR_DOC)


def indiscrete_pair() -> FiniteCategory:
    # two objects, exactly one morphism in every hom set
    return from_table(
        ["0", "1"],
        [0, 1, 0, 1],
        [0, 1, 1, 0],
        [0, 1],
        {
            (0, 0): 0, (1, 1): 1,
            (2, 0): 2, (1, 2): 2, (3, 1): 3, (0, 3): 3,
            (3, 2): 0, (2, 3): 1,
        },
    )


def divisor_poset(n: int) -> FiniteCategory:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return poset_category([str(d) for d in divs],
                          [(str(a), str(b)) for a in divs for b in divs if b % a == 0])


def has_nonidentity_idempotent(cat: FiniteCategory) -> bool:
    """Direct search for an endomorphism p != id with p p = p, the oracle for
    the EI lemma."""
    return any(
        cat.dom[p] == cat.cod[p]
        and cat.compose(p, p) == p
        and p != cat.identity[cat.dom[p]]
        for p in range(cat.n_morphisms)
    )


class TestValidate:
    def test_valid_examples(self):
        for cat in (retract_pair(), indiscrete_pair(), divisor_poset(12),
                    delooping(symmetric_group(3))):
            assert validate(cat) == []

    def test_missing_composite(self):
        doc = {k: (list(v) if isinstance(v, list) else v) for k, v in RETRACT_PAIR_DOC.items()}
        doc["composition"] = [r for r in RETRACT_PAIR_DOC["composition"] if r != [3, 2, 4]]
        bad = from_json(doc)
        kinds = {v["kind"] for v in validate(bad)}
        assert kinds == {"missing_composite"}

    def test_extra_composite(self):
        doc = dict(RETRACT_PAIR_DOC)
        doc["composition"] = RETRACT_PAIR_DOC["composition"] + [[2, 2, 4]]
        bad = from_json(doc)
        kinds = {v["kind"] for v in validate(bad)}
        assert "extra_composite" in kinds

    def test_identity_law_broken(self):
        # id_x o (vu) rerouted to id_x: endpoints still agree, law does not
        doc = dict(RETRACT_PAIR_DOC)
        doc["composition"] = [([0, 4, 0] if r == [0, 4, 4] else r)
                              for r in RETRACT_PAIR_DOC["composition"]]
        bad = from_json(doc)
        kinds = {v["kind"] for v in validate(bad)}
        assert "identity_law" in kinds

    def test_composite_endpoints_broken(self):
        doc = dict(RETRACT_PAIR_DOC)
        doc["composition"] = [([2, 0, 4] if r == [2, 0, 2] else r)
                              for r in RETRACT_PAIR_DOC["composition"]]
        bad = from_json(doc)
        kinds = {v["kind"] for v in validate(bad)}
        assert kinds == {"composite_endpoints"}

    def test_associativity_broken(self):
        # composition of the indiscrete pair rerouted: (3 o 2) no longer id
        cat = indiscrete_pair()
        table = table_of(cat)
        table[(3, 2)] = 0
        table[(2, 3)] = 1
        # make it still total but associativity must now fail somewhere:
        bad = from_table(cat.objects, cat.dom, cat.cod, cat.identity, table)
        assert validate(bad) == []  # this particular reroute is still lawful
        table2 = table_of(cat)
        table2[(0, 3)] = 0  # wrong endpoints
        bad2 = from_table(cat.objects, cat.dom, cat.cod, cat.identity, table2)
        assert any(v["kind"] == "composite_endpoints" for v in validate(bad2))

    def test_identity_endpoints(self):
        bad = from_table(["a", "b"], [0, 1, 0], [0, 1, 1], [0, 2],
                         {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2})
        assert any(v["kind"] == "identity_endpoints" for v in validate(bad))

    def test_real_associativity_violation(self):
        # three parallel endos with a non-associative table
        table = {
            (0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
            (1, 1): 2, (1, 2): 0, (2, 1): 1, (2, 2): 0,
        }
        bad = from_table(["x"], [0, 0, 0], [0, 0, 0], [0], table)
        assert any(v["kind"] == "associativity" for v in validate(bad))


class TestConstructor:
    def test_records_are_the_one_form(self):
        records = [(g, f, c) for (g, f), c in table_of(indiscrete_pair()).items()]
        cat = FiniteCategory(["0", "1"], [0, 1, 0, 1], [0, 1, 1, 0], [0, 1], records)
        assert cat == indiscrete_pair() and validate(cat) == []

    def test_a_dict_is_refused(self):
        # a (g, f) dict iterates as its (g, f) keys, pairs and not records
        table = table_of(indiscrete_pair())
        with pytest.raises(ValueError, match=r"malformed composition record: \(0, 0\)"):
            FiniteCategory(["0", "1"], [0, 1, 0, 1], [0, 1, 1, 0], [0, 1], table)

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(indiscrete_pair())


class TestJson:
    def test_round_trip(self):
        for cat in (retract_pair(), divisor_poset(12), delooping(build_group("klein"))):
            doc = to_json(cat)
            again = from_json(json.loads(json.dumps(doc)))
            assert again == cat
            assert emitted(again) == emitted(cat)

    @pytest.mark.parametrize("bad", [None, True, False, ["a"], {"a": 1}])
    def test_object_id_types(self, bad):
        doc = {"objects": ["x", bad], "morphisms": [{"id": 0, "dom": "x", "cod": "x"},
                                                    {"id": 1, "dom": str(bad), "cod": str(bad)}],
               "identities": {"x": 0, str(bad): 1}, "composition": [[0, 0, 0], [1, 1, 1]]}
        with pytest.raises(ValueError, match="^object ids must be strings or numbers$"):
            from_json(doc)
        doc["objects"][1] = 1.5 if bad is None else 7
        doc["morphisms"][1].update(dom=str(doc["objects"][1]), cod=str(doc["objects"][1]))
        doc["identities"] = {"x": 0, str(doc["objects"][1]): 1}
        assert validate(from_json(doc)) == []

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            from_json({"objects": [], "morphisms": [], "identities": {}})

    def test_sparse_ids(self):
        doc = dict(RETRACT_PAIR_DOC)
        doc["morphisms"] = [dict(m) for m in RETRACT_PAIR_DOC["morphisms"]]
        doc["morphisms"][5]["id"] = 7
        with pytest.raises(ValueError, match="ids must be exactly"):
            from_json(doc)

    def test_unknown_object(self):
        doc = dict(RETRACT_PAIR_DOC)
        doc["morphisms"] = [dict(m) for m in RETRACT_PAIR_DOC["morphisms"]]
        doc["morphisms"][2]["cod"] = "z"
        with pytest.raises(ValueError, match="unknown object"):
            from_json(doc)

    def test_duplicate_composition(self):
        doc = dict(RETRACT_PAIR_DOC)
        doc["composition"] = RETRACT_PAIR_DOC["composition"] + [[0, 0, 0]]
        with pytest.raises(ValueError, match="duplicate composition"):
            from_json(doc)

    def test_identities_cover(self):
        doc = dict(RETRACT_PAIR_DOC)
        doc["identities"] = {"x": 0}
        with pytest.raises(ValueError, match="identities"):
            from_json(doc)


class TestClassify:
    def test_retract_pair(self):
        rep = classify(retract_pair())
        assert not rep["is_ei"]
        assert rep["is_directly_finite"]
        assert not rep["is_cauchy_complete"]
        assert rep["is_free"]  # only trivial automorphisms
        assert rep["is_skeletal"]
        assert not rep["is_groupoid"]
        assert ei_witness(retract_pair()) in (4, 5)

    def test_poset(self):
        rep = classify(divisor_poset(12))
        assert rep["is_ei"] and rep["is_directly_finite"] and rep["is_cauchy_complete"]
        assert rep["is_free"] and rep["is_skeletal"]
        assert rep["has_trivial_endomorphisms"]
        assert not rep["is_groupoid"]

    def test_group_delooping(self):
        rep = classify(delooping(symmetric_group(3)))
        assert rep["is_ei"] and rep["is_groupoid"] and rep["is_connected_groupoid"]
        assert rep["is_free"] and rep["is_skeletal"]
        assert not rep["has_trivial_endomorphisms"]

    def test_indiscrete(self):
        rep = classify(indiscrete_pair())
        assert rep["is_groupoid"] and rep["is_connected_groupoid"]
        assert not rep["is_skeletal"]
        assert rep["has_trivial_endomorphisms"]

    def test_empty_category(self):
        cat = FiniteCategory([], [], [], [], [])
        flags = classify(cat)
        # a connected category is inhabited; every other flag holds vacuously
        assert flags.pop("is_connected_groupoid") is False
        assert all(flags.values())
        assert validate(cat) == []
        assert iso_classes(cat) == []

    def test_ei_lemma(self):
        # EI == no nonidentity idempotent == directly finite + Cauchy complete
        rng = random.Random(7)
        cats = [
            retract_pair(), indiscrete_pair(), divisor_poset(12),
            delooping(build_group("q8")),
            product(retract_pair(), divisor_poset(4)),
            coproduct(retract_pair(), delooping(cyclic_group(2))),
        ]
        cats += [genrandom.random_dag_category(rng) for _ in range(5)]
        cats += [genrandom.poset_of_groups(rng) for _ in range(5)]
        for cat in cats:
            rep = classify(cat)
            no_idem = not has_nonidentity_idempotent(cat)
            assert rep["is_ei"] == no_idem
            assert rep["is_ei"] == (rep["is_directly_finite"] and rep["is_cauchy_complete"])


class TestConstructions:
    def test_opposite_involution(self):
        for cat in (retract_pair(), divisor_poset(12), delooping(symmetric_group(3))):
            op = opposite(cat)
            assert validate(op) == []
            assert opposite(op) == cat

    def test_opposite_reverses(self):
        cat = divisor_poset(4)
        op = opposite(cat)
        i1, i4 = cat.obj_index("1"), cat.obj_index("4")
        assert cat.hom(i1, i4) and not cat.hom(i4, i1)
        assert op.hom(i4, i1) and not op.hom(i1, i4)

    def test_delooping_matches_table(self):
        g = symmetric_group(3)
        cat = delooping(g)
        for a in range(6):
            for b in range(6):
                assert cat.compose(a, b) == g.table[a][b]
        assert validate(cat) == []

    def test_product_of_deloopings(self):
        cat = product(delooping(cyclic_group(2)), delooping(cyclic_group(3)))
        assert validate(cat) == []
        assert cat.n_objects == 1 and cat.n_morphisms == 6
        ref = aut_group(cat, cat.objects[0])
        assert ref.group.order == 6

    def test_product_of_posets(self):
        cat = product(divisor_poset(4), divisor_poset(4))
        assert validate(cat) == []
        assert cat.n_objects == 9 and cat.n_morphisms == 36
        assert classify(cat)["is_ei"]

    def test_coproduct(self):
        cat = coproduct(retract_pair(), delooping(cyclic_group(2)))
        assert validate(cat) == []
        assert cat.n_objects == 3 and cat.n_morphisms == 8
        assert len(iso_classes(cat)) == 3

    def test_poset_category_rejects_bad_relations(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            poset_category(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="transitive"):
            poset_category(["a", "b", "c"], [("a", "b"), ("b", "c")])

    def test_poset_category_rejects_unknown_elements(self):
        with pytest.raises(ValueError, match="relation names an unknown element: 'z'"):
            poset_category(["a"], [("a", "z")])
        with pytest.raises(ValueError, match="relation names an unknown element: 'y'"):
            poset_category(["a", "b"], [("a", "b"), ("y", "a")])

    def test_aut_group_delooping(self):
        g = symmetric_group(3)
        ref = aut_group(delooping(g), "*")
        assert ref.group.table == g.table
        assert ref.morphism_ids == tuple(range(6))

    def test_full_subcategory(self):
        cat = retract_pair()
        sub, inc = full_subcategory(cat, ["x"])
        assert sub.n_objects == 1 and sub.n_morphisms == 2
        assert validate(sub) == []
        assert validate_functor(inc) == []


class TestSkeleton:
    def test_indiscrete_collapses(self):
        sk, inc = skeleton(indiscrete_pair())
        assert sk.n_objects == 1 and sk.n_morphisms == 1
        assert validate_functor(inc) == []

    def test_inclusion_full_faithful_ess_surjective(self):
        cat = product(indiscrete_pair(), retract_pair())
        assert validate(cat) == []
        sk, inc = skeleton(cat)
        assert sk.n_objects == 2
        assert validate_functor(inc) == []
        # faithful: morphism map injective
        vals = list(inc.morphism_map.values())
        assert len(set(vals)) == len(vals)
        # full: hom sets between kept objects have matching sizes
        for a in sk.objects:
            for b in sk.objects:
                ia, ib = sk.obj_index(a), sk.obj_index(b)
                ja, jb = cat.obj_index(a), cat.obj_index(b)
                assert len(sk.hom(ia, ib)) == len(cat.hom(ja, jb))
        # essentially surjective: every iso class meets the skeleton
        kept = set(sk.objects)
        for cls in iso_classes(cat):
            assert kept & set(cls)

    def test_inflation_skeleton(self):
        rng = random.Random(3)
        base = genrandom.poset_of_groups(rng)
        infl, proj = genrandom.random_inflation(rng, base)
        assert validate(infl) == []
        assert validate_functor(proj) == []
        sk, _ = skeleton(infl)
        assert sk.n_objects == base.n_objects


class TestBiset:
    def test_regular_biset(self):
        g = cyclic_group(2)
        left = [[0, 1], [1, 0]]
        right = [[0, 1], [1, 0]]
        cat = biset_category(g, g, left, right)
        assert validate(cat) == []
        assert cat.n_objects == 2 and cat.n_morphisms == 6
        rep = classify(cat)
        assert rep["is_ei"] and rep["is_free"] and rep["is_skeletal"]

    def test_generated_bisets_are_categories(self):
        rng = random.Random(11)
        for _ in range(6):
            g, h, left, right, stats = genrandom.random_biset(rng)
            cat = biset_category(g, h, left, right)
            assert validate(cat) == []
            assert cat.n_morphisms == g.order + h.order + stats["size"]
            assert classify(cat)["is_ei"]

    def test_noncommuting_rejected(self):
        g = cyclic_group(2)
        left = [[0, 1, 2], [1, 0, 2]]
        right = [[0, 0], [1, 2], [2, 1]]
        with pytest.raises(ValueError, match="commute"):
            biset_category(g, g, left, right)

    def test_nonaction_rejected(self):
        g = cyclic_group(2)
        with pytest.raises(ValueError, match="act trivially"):
            biset_category(g, g, [[1, 0], [0, 1]], [[0, 1], [1, 0]])

    def test_entries_out_of_range_rejected(self):
        g, h = cyclic_group(2), build_group("trivial")
        for left, right in (([[0, 1], [5, 0]], [[0], [1]]), ([[0, 1], [-1, 0]], [[0], [1]]),
                            ([[0, 1], [1, 0]], [[0], [2]])):
            with pytest.raises(ValueError, match=r"entries must lie in 0\.\.\|S\|-1"):
                biset_category(g, h, left, right)

    def test_entries_that_are_not_integers_rejected(self):
        g, h = cyclic_group(2), build_group("trivial")
        for left, right in (([[0, 1], [1, 0]], [[0], [True]]), ([[0, 1], [1, 0]], [[False], [1]]),
                            ([[0, 1], [1.0, 0]], [[0], [1]])):
            with pytest.raises(ValueError, match=r"entries must lie in 0\.\.\|S\|-1"):
                biset_category(g, h, left, right)


class TestFunctors:
    def test_validate_functor_catches_breakage(self):
        g = cyclic_group(4)
        q = genrandom.quotient_delooping_functor(g, (0, 2))
        assert validate_functor(q) == []
        broken = FunctorData(q.source, q.target, q.object_map,
                             {**q.morphism_map, 1: 0})
        kinds = {v["kind"] for v in validate_functor(broken)}
        assert "composition_not_preserved" in kinds

    def test_identity_not_preserved(self):
        c = delooping(cyclic_group(2))
        bad = FunctorData(c, c, {"*": "*"}, {0: 1, 1: 0})
        kinds = {v["kind"] for v in validate_functor(bad)}
        assert "identity_not_preserved" in kinds


class TestCoverings:
    def test_action_groupoid_is_covering(self):
        g = symmetric_group(3)
        for h in ((0,), (0, 1), (0, 3, 4), tuple(range(6))):
            cat, p = genrandom.action_groupoid(g, h)
            assert validate(cat) == []
            assert validate_functor(p) == []
            ok, n = is_covering(p)
            assert ok and n == g.order // len(h)

    def test_quotient_is_not_covering(self):
        q = genrandom.quotient_delooping_functor(cyclic_group(4), (0, 2))
        ok, n = is_covering(q)
        assert not ok and n is None

    def test_non_surjective_is_not_covering(self):
        tgt = delooping(cyclic_group(2))
        src = delooping(cyclic_group(1))
        inc = FunctorData(src, tgt, {"*": "*"}, {0: 0})
        assert is_covering(inc) == (False, None)

    def test_rejects_non_groupoid(self):
        cat = retract_pair()
        ident = FunctorData(cat, cat, {o: o for o in cat.objects},
                            {m: m for m in range(cat.n_morphisms)})
        with pytest.raises(ValueError, match="groupoid"):
            is_covering(ident)

    def test_rejects_empty_groupoid(self):
        """The empty category is no connected groupoid, so the guard refuses
        it before any sheet is counted."""
        e = FiniteCategory([], [], [], [], [])
        with pytest.raises(ValueError, match="connected finite groupoids"):
            is_covering(FunctorData(e, e, {}, {}))

    def test_identity_covering(self):
        c = delooping(build_group("q8"))
        ident = FunctorData(c, c, {"*": "*"}, {m: m for m in range(8)})
        assert is_covering(ident) == (True, 1)


class TestIsofibrations:
    def test_quotient_is_isofibration(self):
        q = genrandom.quotient_delooping_functor(cyclic_group(4), (0, 2))
        assert is_isofibration(q)

    def test_coverings_are_isofibrations(self):
        cat, p = genrandom.action_groupoid(symmetric_group(3), (0, 1))
        assert is_isofibration(p)

    def test_inclusion_is_not_isofibration(self):
        src = delooping(cyclic_group(2))
        tgt = delooping(cyclic_group(4))
        inc = FunctorData(src, tgt, {"*": "*"}, {0: 0, 1: 2})
        assert validate_functor(inc) == []
        assert not is_isofibration(inc)

    def test_fiber_of_quotient(self):
        g = cyclic_group(6)
        q = genrandom.quotient_delooping_functor(g, (0, 2, 4))
        fib = fiber_category(q, "*")
        assert fib.n_objects == 1 and fib.n_morphisms == 3
        assert classify(fib)["is_connected_groupoid"]

    def test_covering_fibers_are_discrete(self):
        cat, p = genrandom.action_groupoid(cyclic_group(4), (0, 2))
        fib = fiber_category(p, "*")
        assert fib.n_objects == 2 and fib.n_morphisms == 2

    def test_fiber_of_a_non_functor_is_refused(self):
        # 1 maps to the identity but 1 o 1 = 2 does not: the morphisms over
        # the identity are not closed under composition
        c3 = delooping(cyclic_group(3))
        p = FunctorData(c3, c3, {"*": "*"}, {0: 0, 1: 0, 2: 1})
        with pytest.raises(ValueError, match=r"the composite \(0, 0, 2\) is not a morphism"):
            fiber_category(p, "*")

    def test_quotient_of_action_groupoid(self):
        # C4 acting on C4/H, pushed down to C4/N: fiber has both objects and
        # the kernel's worth of morphisms at each
        p = genrandom.action_groupoid_to_quotient(cyclic_group(4), (0, 2), (0, 2))
        assert validate_functor(p) == []
        assert is_isofibration(p)
        fib = fiber_category(p, "*")
        assert fib.n_objects == 2 and fib.n_morphisms == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_categories_are_lawful(seed):
    rng = random.Random(seed)
    cat = rng.choice([
        genrandom.random_dag_category,
        genrandom.random_poset_category,
        genrandom.poset_of_groups,
    ])(rng)
    assert validate(cat) == []
    assert opposite(opposite(cat)) == cat
    rep = classify(cat)
    assert rep["is_ei"] == (rep["is_directly_finite"] and rep["is_cauchy_complete"])
    doc = json.loads(emitted(cat))
    assert from_json(doc) == cat


def _first_counterexamples(cat) -> dict:
    """Each predicate's first counterexample in index order, by brute force
    over the composition table (is_free's is left to ``free_witness``)."""
    comp, ident, dom, cod = table_of(cat), cat.identity, cat.dom, cat.cod
    ms, objs = range(cat.n_morphisms), range(cat.n_objects)

    def iso(m):
        return any(comp[g, m] == ident[dom[m]] and comp[m, g] == ident[cod[m]]
                   for g in ms if dom[g] == cod[m] and cod[g] == dom[m])

    def splits(p):
        return any(comp[r, i] == ident[dom[i]] and comp[i, r] == p
                   for i in ms for r in ms
                   if cod[i] == dom[p] and dom[r] == dom[p] and cod[r] == dom[i])

    found = {
        "is_ei": [(m,) for m in ms if dom[m] == cod[m] and not iso(m)],
        "is_directly_finite": [(u, v) for u in ms for v in ms
                               if dom[v] == cod[u] and cod[v] == dom[u]
                               and comp[v, u] == ident[dom[u]] and comp[u, v] != ident[cod[u]]],
        "is_cauchy_complete": [(p,) for p in ms if dom[p] == cod[p] and comp[p, p] == p
                               and not splits(p)],
        "is_skeletal": [(m,) for m in ms if dom[m] != cod[m] and iso(m)],
        "is_groupoid": [(m,) for m in ms if not iso(m)],
        "has_trivial_endomorphisms": [(m,) for m in ms if dom[m] == cod[m] and m != ident[dom[m]]],
    }
    found["is_connected_groupoid"] = found["is_groupoid"] or [
        (cat.objects[i], cat.objects[j]) for i in objs for j in objs
        if not any(dom[m] == i and cod[m] == j for m in ms)]
    return {name: c[0] for name, c in found.items() if c}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_witnesses_are_first_counterexamples(seed):
    rng = random.Random(seed)
    cat = rng.choice([
        genrandom.random_dag_category,
        genrandom.random_poset_category,
        genrandom.poset_of_groups,
        lambda r: retract_pair(),
        lambda r: genrandom.action_groupoid(genrandom.random_group(r, 8), (0,))[0],
        lambda r: opposite(genrandom.random_free_ei_category(r)),
    ])(rng)
    rep = classify(cat)
    expected = _first_counterexamples(cat)
    free = free_witness(cat)
    assert rep["is_free"] == (free is None)
    if free is not None:
        a, f = free
        assert a in cat.aut(cat.cod[f]) and a != cat.identity[cat.cod[f]]
        assert cat.compose(a, f) == f
    assert ei_witness(cat) == expected.get("is_ei", (None,))[0]
    assert {k for k, v in rep.items() if not v} == set(expected) | (
        {"is_free"} if free else set())


def _cauchy_by_full_scan(cat) -> bool:
    """classify's is_cauchy_complete flag with every idempotent searched for
    a splitting, identities included."""
    rows, at, ident, dom, cod = cat.rows, cat.at, cat.identity, cat.dom, cat.cod
    return not any(dom[p] == cod[p] and rows[p][at[p]] == p
                   and not any(rows[i][at[r]] == ident[z] and rows[r][at[i]] == p
                               for z in range(cat.n_objects) for i in cat.hom(z, dom[p])
                               for r in cat.hom(dom[p], z))
                   for p in range(cat.n_morphisms))


def _cauchy_cases():
    yield from ((name, corpus.build(name)) for name in corpus.names())
    yield "retract-pair", retract_pair()
    draws = [genrandom.random_dag_category, genrandom.random_poset_category,
             genrandom.poset_of_groups, genrandom.random_free_ei_category,
             genrandom.random_orbit_subcategory,
             lambda r: genrandom.random_inflation(r, genrandom.random_poset_category(r))[0],
             lambda r: genrandom.action_groupoid(genrandom.random_group(r, 8), (0,))[0]]
    rng = random.Random(11)
    for k in range(12):
        for i, make in enumerate(draws):
            yield f"random-{k}-{i}", make(rng)
    for name, g in ORACLE_GROUPS:
        yield f"Or({name})", orbit_category(g)


def test_cauchy_scan_skips_identities_without_changing_the_verdict():
    seen = set()
    for name, cat in _cauchy_cases():
        for c in (cat, opposite(cat)):
            flag = _cauchy_by_full_scan(c)
            assert classify(c)["is_cauchy_complete"] == flag, name
            seen.add(flag)
    assert seen == {True, False}


# ------------------------------------------------- the one orbit walk, by scan


def _scan(cat):
    """The nonempty hom sets by (dom, cod) and the automorphisms of each
    object, found by a scan for two-sided inverses through ``compose``."""
    homs: dict[tuple[int, int], list[int]] = {}
    for m in range(cat.n_morphisms):
        homs.setdefault((cat.dom[m], cat.cod[m]), []).append(m)
    auts = []
    for y in range(cat.n_objects):
        endos, e = homs[y, y], cat.identity[y]
        auts.append([a for a in endos
                     if any(cat.compose(a, b) == e == cat.compose(b, a) for b in endos)])
    return homs, auts


def assert_orbit_walk(cat):
    """classify's is_free is the scan's verdict over every object pair,
    automorphism and morphism, ``free_witness`` names one, and each entry of
    ``aut_orbits`` partitions its hom set into aut(y)-orbits, each listed
    from its least element, with orbit size x stabiliser size = |aut(y)|
    and the positions of every a o x within ``cat.aut(y)``."""
    homs, auts = _scan(cat)
    free = all(cat.compose(a, f) != f for (_, y), hom in homs.items() for f in hom
               for a in auts[y] if a != cat.identity[y])
    rep = classify(cat)
    assert rep["is_free"] == free
    if not free:
        a, f = free_witness(cat)
        y = cat.cod[f]
        assert a in auts[y] and a != cat.identity[y] and cat.compose(a, f) == f
    firsts, fibre = aut_orbits(cat)
    assert list(firsts) == list(homs)
    for (x, y), hom in homs.items():
        order = cat.aut(y)
        assert order[0] == cat.identity[y] and sorted(order) == auts[y]
        assert firsts[x, y] == sorted(firsts[x, y])
        covered = []
        for first in firsts[x, y]:
            reached = [cat.compose(a, first) for a in order]
            orbit = sorted(set(reached))
            assert orbit[0] == first
            assert len(orbit) * reached.count(first) == len(order)
            for f in orbit:
                assert fibre[f] == (first, tuple(p for p, g in enumerate(reached) if g == f))
            covered += orbit
        assert sorted(covered) == hom


def _opposite_too(cases):
    return [(f"{name}{op}", build) for name, build in cases
            for op, build in (("", build), ("^op", lambda b=build: opposite(b())))]


ORBIT_WALK_CASES = _opposite_too(
    [(name, lambda n=name: corpus.build(n)) for name in corpus.names()]
    + [("subsets-q 3", lambda: corpus.build("subsets-q", q=3))]
    + [(f"Or({name})", lambda g=g: orbit_category(g)) for name, g in ORACLE_GROUPS])


@pytest.mark.parametrize("build", [b for _, b in ORBIT_WALK_CASES],
                         ids=[name for name, _ in ORBIT_WALK_CASES])
def test_orbit_walk_matches_the_scan(build):
    assert_orbit_walk(build())


def test_orbit_walk_matches_the_scan_on_random_categories():
    """Seeded draws of every kind: free and non-free EI, skeletal or not,
    groupoids, and non-EI categories, half with their ids reversed."""
    rng = random.Random(20261021)
    kinds = [
        genrandom.random_dag_category,
        genrandom.random_poset_category,
        genrandom.poset_of_groups,
        genrandom.random_free_ei_category,
        lambda r: genrandom.random_inflation(r, genrandom.random_free_ei_category(r))[0],
        lambda r: biset_category(*genrandom.random_biset(r)[:4]),
        lambda r: genrandom.action_groupoid(genrandom.random_group(r, 8), (0,))[0],
        lambda r: product(retract_pair(), delooping(genrandom.random_group(r, 4))),
    ]
    seen = {"free": 0, "non-free EI": 0, "non-EI": 0}
    for _ in range(150):
        cat = rng.choice(kinds)(rng)
        if rng.random() < 0.5:  # every identity after the other endomorphisms
            cat = ids_reversed(cat)
        for c in (cat, opposite(cat)):
            assert_orbit_walk(c)
            rep = classify(c)
            seen["non-EI" if not rep["is_ei"] else "free" if rep["is_free"] else "non-free EI"] += 1
    assert min(seen.values()) >= 20, seen
