"""Shipped example categories: validity, shape, and byte-stable serialization."""

import json

from catrank import corpus
from catrank.fincat import classify, from_json, skeleton, validate

from json_oracle import emitted
from test_fincat import RETRACT_PAIR_DOC


def test_every_preset_is_valid():
    for name in corpus.names():
        cat = corpus.build(name)
        assert validate(cat) == [], name


def test_round_trip_is_byte_identical():
    for name in corpus.names():
        cat = corpus.build(name)
        text = emitted(cat)
        again = emitted(from_json(json.loads(text)))
        assert again == text, name


def test_names_cover_the_contract():
    names = corpus.names()
    for required in ("span", "parallel-pair", "subsets-q", "section8",
                     "leinster-A", "indiscrete-2"):
        assert required in names
    assert any(n.startswith("biset") for n in names)
    assert any(n.startswith("delooping") for n in names)


def test_unknown_name_rejected():
    try:
        corpus.build("moebius-strip")
        assert False
    except ValueError as e:
        assert "unknown example" in str(e)


def test_span_shape():
    cat = corpus.build("span")
    assert cat.n_objects == 3 and cat.n_morphisms == 5
    rep = classify(cat)
    assert rep["is_ei"] and rep["has_trivial_endomorphisms"] and rep["is_skeletal"]


def test_parallel_pair_shape():
    cat = corpus.build("parallel-pair")
    assert cat.n_objects == 2 and cat.n_morphisms == 4
    i, j = cat.obj_index("x"), cat.obj_index("y")
    assert len(cat.hom(i, j)) == 2 and len(cat.hom(j, i)) == 0


def test_subsets_counts():
    assert corpus.build("subsets-q", q=1).n_objects == 3
    assert corpus.build("subsets-q", q=2).n_objects == 7
    cat = corpus.subsets(2)
    # arrow J -> K iff K is a subset of J
    assert len(cat.hom(cat.obj_index("012"), cat.obj_index("01"))) == 1
    assert len(cat.hom(cat.obj_index("01"), cat.obj_index("012"))) == 0
    # morphism count = number of subset pairs = 3^(q+1) - 2^(q+2) + 1 + objects?  just count
    assert cat.n_morphisms == sum(
        1 for a in range(1, 8) for b in range(1, 8) if a & b == b
    )


def test_subsets_q_out_of_range():
    for bad in (-1, 9):
        try:
            corpus.subsets(bad)
            assert False
        except ValueError:
            pass


def test_section8_matches_hand_built_table():
    # same object names and morphism numbering as the hand-written document
    ours = corpus.build("section8")
    assert emitted(ours) == emitted(from_json(RETRACT_PAIR_DOC))
    rep = classify(ours)
    assert rep["is_directly_finite"] and not rep["is_cauchy_complete"] and not rep["is_ei"]


def test_leinster_A_shape_and_predicates():
    cat = corpus.build("leinster-A")
    assert cat.n_objects == 4 and cat.n_morphisms == 18
    sizes = [[len(cat.hom(i, j)) for j in range(4)] for i in range(4)]
    assert sizes == [[2, 2, 1, 1], [2, 2, 1, 2], [1, 1, 1, 1], [0, 0, 0, 1]]
    rep = classify(cat)
    assert rep["is_cauchy_complete"]
    assert not rep["is_directly_finite"]
    assert not rep["is_ei"]


def test_indiscrete_2_shape():
    cat = corpus.build("indiscrete-2")
    rep = classify(cat)
    assert rep["is_connected_groupoid"] and not rep["is_skeletal"]
    sk, _ = skeleton(cat)
    assert sk.n_objects == 1 and sk.n_morphisms == 1


def test_biset_presets():
    free = classify(corpus.build("biset-regular-c2"))
    assert free["is_ei"] and free["is_free"]
    nonfree = classify(corpus.build("biset-trivial-c2-c2"))
    assert nonfree["is_ei"] and not nonfree["is_free"]
    pt = corpus.build("biset-point-c3")
    assert pt.n_morphisms == 1 + 3 + 1


def test_delooping_presets():
    for name, order in (("delooping-c2", 2), ("delooping-c3", 3), ("delooping-s3", 6)):
        cat = corpus.build(name)
        assert cat.n_objects == 1 and cat.n_morphisms == order
        assert classify(cat)["is_groupoid"]
