"""Weightings, coweightings, chi_L, and cell-structure weightings."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import dense
from catrank import corpus, leinster, moebius
from catrank.exactq import solve_linear
from catrank.fincat import (classify, delooping, iso_order, opposite, orbit_category,
                            poset_category, product)
from catrank.grouptheory import build_group
from catrank.leinster import (
    chi_L,
    coweighting,
    weighting,
    weighting_from_cells,
    zeta_matrix,
)
from catrank.moebius import euler_characteristics

from genrandom import poset_of_groups, random_biset, random_free_ei_category, random_inflation
from rref_oracle import mat_invert
from test_fincat import retract_pair
from test_moebius import parallel_pair, span_category, subsets_category


def test_zeta_retract_pair():
    z = zeta_matrix(retract_pair())
    assert z.labels == ["x", "y"] and list(z.dens) == [1, 1]
    assert z.rows == [(2, 1), (1, 2)]


def test_zeta_rows_are_sources():
    z = zeta_matrix(parallel_pair())
    assert z.rows == [(1, 2), (0, 1)]


def test_retract_pair_weighting_and_chi():
    w = weighting(retract_pair())
    assert w.consistent and w.kernel_dim == 0
    assert (w.solution, w.dens) == ([1, 1], [3, 3])
    cw = coweighting(retract_pair())
    assert (cw.solution, cw.dens) == ([1, 1], [3, 3])
    assert chi_L(retract_pair()) == F(2, 3)


def test_retract_pair_mu():
    mu = mat_invert(dense.matrix(zeta_matrix(retract_pair())))
    assert mu.to_lists() == [[F(2, 3), F(-1, 3)], [F(-1, 3), F(2, 3)]]


def test_no_weighting_category():
    cat = corpus.build("leinster-A")
    w = weighting(cat)
    assert not w.consistent and w.solution is None and w.dens is None
    cw = coweighting(cat)
    assert cw.consistent and cw.kernel_dim == 1
    assert chi_L(cat) == "undefined"
    assert chi_L(opposite(cat)) == "undefined"


def test_span_weighting():
    cat = span_category()
    w = weighting(cat)
    assert w.consistent and w.kernel_dim == 0
    assert cat.objects == ("0", "1", "2")
    assert (w.solution, w.dens) == ([-1, 1, 1], [1, 1, 1])
    assert chi_L(cat) == 1


def test_parallel_pair_weighting():
    w = weighting(parallel_pair())
    assert (w.solution, w.dens) == ([-1, 1], [1, 1])
    assert chi_L(parallel_pair()) == 0


def test_subsets_weighting_alternates():
    for q in (1, 2, 3):
        cat = subsets_category(q)
        w = weighting(cat)
        assert w.consistent and w.kernel_dim == 0
        for i, obj in enumerate(cat.objects):
            size = bin(int(obj)).count("1")
            assert (w.solution[i], w.dens[i]) == ((-1) ** (size - 1), 1)
        assert chi_L(cat) == 1


def test_delooping_chi_is_reciprocal_order():
    for spec in ("cyclic:2", "cyclic:5", "symmetric:3"):
        g = build_group(spec)
        cat = delooping(g)
        w = weighting(cat)
        assert (w.solution, w.dens) == ([1], [g.order])
        assert chi_L(cat) == F(1, g.order)


def test_singular_zeta_with_consistent_system():
    cat = corpus.build("indiscrete-2")
    w = weighting(cat)
    assert w.consistent and w.kernel_dim == 1
    # free variable zeroed: particular solution is (1, 0)
    assert (w.solution, w.dens) == ([1, 0], [1, 1])
    assert chi_L(cat) == 1


def test_chi_L_invariant_under_opposite():
    cases = [
        retract_pair(),
        span_category(),
        parallel_pair(),
        subsets_category(2),
        corpus.build("biset-regular-c2"),
        corpus.build("biset-trivial-c2-c2"),
        delooping(build_group("symmetric:3")),
    ]
    for cat in cases:
        assert chi_L(cat) == chi_L(opposite(cat))


def test_chi_L_equals_chi2_on_free_skeletal_ei():
    cases = [
        span_category(),
        subsets_category(2),
        delooping(build_group("dihedral:4")),
        product(span_category(), delooping(build_group("cyclic:2"))),
    ]
    for cat in cases:
        rep = euler_characteristics(iso_order(cat))
        assert chi_L(cat) == rep.chi2


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chi_L_equals_chi2_randomized(rng):
    cat = poset_of_groups(rng)
    assert chi_L(cat) == euler_characteristics(iso_order(cat)).chi2


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_biset_chi_L_closed_form(rng):
    from catrank.fincat import biset_category

    g, h, left, right, stats = random_biset(rng)
    cat = biset_category(g, h, left, right)
    expect = F(1, h.order) + F(1, g.order) - F(stats["size"], g.order * h.order)
    assert chi_L(cat) == expect


def test_weighting_from_cells_span():
    cat = span_category()
    cells = {"cells": [{"dim": 1, "base": "0"},
                       {"dim": 0, "base": "1"},
                       {"dim": 0, "base": "2"}]}
    k, ok = weighting_from_cells(cat, cells)
    assert ok
    assert cat.objects == ("0", "1", "2") and k == [-1, 1, 1]


def test_weighting_from_cells_parallel_pair():
    k, ok = weighting_from_cells(parallel_pair(), [(1, "0"), (0, "1")])
    assert ok and k == [-1, 1]


def test_weighting_from_cells_subsets():
    for q in (1, 2, 3):
        cat = subsets_category(q)
        cells = [(bin(int(obj)).count("1") - 1, obj) for obj in cat.objects]
        k, ok = weighting_from_cells(cat, cells)
        assert ok
        assert k == [(-1) ** (bin(int(o)).count("1") - 1) for o in cat.objects]


def test_weighting_from_cells_failure_flag():
    # a single extra cell breaks zeta . k = 1 but still returns the census
    k, ok = weighting_from_cells(parallel_pair(), [(0, "0"), (0, "1")])
    assert not ok and k == [1, 1]


def test_weighting_from_cells_unknown_base():
    with pytest.raises(ValueError, match="unknown object"):
        weighting_from_cells(parallel_pair(), [(0, "z")])


def test_weighting_from_cells_integer_bases():
    # objects are the strings "0" and "1"; bases given as integers name them too
    cat = poset_category(["0", "1"], [("0", "1")])
    k, ok = weighting_from_cells(cat, [(0, 0), (0, 1), (1, 0)])
    assert ok and k == [0, 1]


MALFORMED_CELLS = [
    ({"dim": 0, "base": True}, "base"),
    ({"dim": 0, "base": None}, "base"),
    ({"dim": 0, "base": float("nan")}, "base"),
    ({"dim": 0, "base": ["1"]}, "base"),
    ({"dim": 0}, "base"),
    ({"dim": 1.5, "base": "1"}, "dimension"),
    ({"dim": "0", "base": "1"}, "dimension"),
    ({"dim": -1, "base": "1"}, "dimension"),
    ({"dim": True, "base": "1"}, "dimension"),
    ({"base": "1"}, "dimension"),
    ((1.5, "1"), "dimension"),
    ((0, None), "base"),
    ([5], "record"),
    ((0,), "record"),
    ((0, "1", 1), "record"),
    ("1", "record"),
    ("01", "record"),
    (5, "record"),
    (None, "record"),
]


@pytest.mark.parametrize("cell,field", MALFORMED_CELLS, ids=[repr(c) for c, _ in MALFORMED_CELLS])
def test_weighting_from_cells_refuses_malformed_records(cell, field):
    """A record is a dict or a (dim, base) pair; dim is a nonnegative int
    and not a bool; base is an object id, a string or a finite number, as
    in a category document.  Objects named "True", "None" and "1.5" are
    there, so no malformed record can be counted at one of them by its str."""
    cat = poset_category(["1", "True", "None", "nan", "['1']", "1.5"], [])
    with pytest.raises(ValueError, match=f"cell {field}.*" + re.escape(repr(cell))):
        weighting_from_cells(cat, {"cells": [{"dim": 0, "base": "1"}, cell]})


MALFORMED_CENSUSES = [{}, {"cell": []}, {"cells": None}, {"cells": "01"},
                      {"cells": {"dim": 0, "base": "1"}}, {"cells": ({"dim": 0, "base": "1"},)},
                      None, 5, "01"]


@pytest.mark.parametrize("doc", MALFORMED_CENSUSES, ids=repr)
def test_weighting_from_cells_refuses_a_document_without_a_cell_list(doc):
    """The census is a list or tuple of records, or a dict document that
    holds their list under "cells"."""
    cat = poset_category(["1"], [])
    with pytest.raises(ValueError, match='cell census.*"cells".*' + re.escape(repr(doc))):
        weighting_from_cells(cat, doc)


def test_weighting_from_cells_reads_well_formed_records():
    """Each id a category document may give its objects names them: an int
    or a float as its str, a string as itself; dim 0 and large dims; a pair
    as a tuple or, as a JSON document gives it, a list."""
    cat = poset_category(["1", "1.5", "x"], [])
    cells = [{"dim": 0, "base": 1}, {"dim": 3, "base": 1.5}, {"dim": 2, "base": "x"},
             {"dim": 10 ** 20 + 1, "base": "x"}, (0, "1.5"), (0, "1.5")]
    assert weighting_from_cells(cat, {"cells": cells}) == ([1, 1, 0], False)
    assert weighting_from_cells(cat, {"cells": cells + [[0, "x"]]}) == ([1, 1, 1], True)


def test_cells_accumulate_per_object():
    # two 0-cells and one 1-cell at the same base add up to k = 1
    k, ok = weighting_from_cells(
        delooping(build_group("trivial")), [(0, "*"), (0, "*"), (1, "*")]
    )
    assert ok and k == [1]


def _skeletal_ei_cases():
    """Orbit categories, their opposites and the skeletal free EI draws of a
    seeded genrandom run, all with nontrivial automorphisms somewhere."""
    cats = [orbit_category(build_group(spec))
            for spec in ("symmetric:3", "symmetric:4", "dihedral:4", "q8",
                         "product:cyclic:2+symmetric:3",
                         "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2")]
    rng = random.Random(408)
    for _ in range(30):
        cat = random_free_ei_category(rng)
        flags = classify(cat)
        if flags["is_skeletal"] and not flags["has_trivial_endomorphisms"]:
            cats.append(cat)
    assert len(cats) >= 20
    return cats + [opposite(cat) for cat in cats]


def _refuse_solver(*args):
    raise AssertionError("EI categories take the triangular route")


def test_triangular_weighting_matches_the_general_solver(monkeypatch):
    """Free or not (the opposites of Or(G)), the weightings back-substitute
    zeta itself and never run the Moebius recurrence."""
    cases = _skeletal_ei_cases()
    assert {classify(cat)["is_free"] for cat in cases} == {False, True}
    recurred = []
    inner = moebius._back_substitute

    def recorded(poset):
        recurred.append(poset)
        return inner(poset)

    monkeypatch.setattr(moebius, "_back_substitute", recorded)
    expected = [_oracle(cat) for cat in cases]
    monkeypatch.setattr(leinster, "solve_linear", _refuse_solver)
    for cat, (w, cw) in zip(cases, expected):
        for got, ref in ((weighting(cat), w), (coweighting(cat), cw)):
            assert got.consistent and ref.consistent
            assert (got.solution, got.dens) == (ref.solution, ref.dens)
            assert got.kernel == ref.kernel == []
    assert recurred == []


def _oracle(cat):
    """The general solver's reports on zeta and on the zeta of the opposite."""
    n = cat.n_objects
    return (solve_linear(zeta_matrix(cat).rows, [1] * n, n),
            solve_linear(zeta_matrix(opposite(cat)).rows, [1] * n, n))


def _same_report(got, ref):
    return ((got.consistent, got.solution, got.dens, got.kernel)
            == (ref.consistent, ref.solution, ref.dens, ref.kernel))


def _non_skeletal_ei_cases():
    """indiscrete-2, seeded inflations of free and non-free EI categories
    and products with indiscrete-2: every class past the first member adds
    a free variable and a kernel vector."""
    ind = corpus.build("indiscrete-2")
    ors3 = orbit_category(build_group("symmetric:3"))
    ord8 = orbit_category(build_group("dihedral:4"))
    bisets = [corpus.build(name) for name in corpus.names() if name.startswith("biset")]
    bisets = [cat for cat in bisets if not classify(cat)["is_free"]]
    assert len(bisets) == 3
    rng = random.Random(1403)
    inflated = [random_inflation(rng, cat)[0]
                for cat in [ors3, opposite(ors3), opposite(ord8), *bisets,
                            corpus.build("subsets-q", q=3)]
                for _ in range(2)]
    return [ind, *inflated, product(ors3, ind), product(opposite(ors3), ind)]


def test_ei_weightings_are_the_general_solvers_reports(monkeypatch):
    """On non-skeletal EI categories, free or not, the triangular route
    gives the report the general solver gives: consistency, the solution
    in lowest terms, and the kernel vectors e_m - e_rep in order."""
    cases = _non_skeletal_ei_cases()
    flags = [classify(cat) for cat in cases]
    assert all(f["is_ei"] and not f["is_skeletal"] for f in flags)
    assert {f["is_free"] for f in flags} == {False, True}
    expected = [_oracle(cat) for cat in cases]
    assert all(w.kernel and cw.kernel for w, cw in expected)
    monkeypatch.setattr(leinster, "solve_linear", _refuse_solver)
    for cat, (w, cw) in zip(cases, expected):
        assert _same_report(weighting(cat), w)
        assert _same_report(coweighting(cat), cw)


def test_ei_weightings_of_a_large_product(monkeypatch):
    """Or(C2^4) x indiscrete-2, 134 objects in 67 classes of two: the
    weighting of a product is the product of the weightings, and each
    (x, b) is a free variable with kernel vector e_(x,b) - e_(x,a)."""
    orc = orbit_category(build_group("product:cyclic:2+cyclic:2+cyclic:2+cyclic:2"))
    ind = corpus.build("indiscrete-2")
    cat = product(orc, ind)
    assert (cat.n_objects, iso_order(cat).size) == (134, 67)
    monkeypatch.setattr(leinster, "solve_linear", _refuse_solver)
    for solve in (weighting, coweighting):
        got, left, right = solve(cat), solve(orc), solve(ind)
        assert got.consistent and (right.solution, right.dens) == ([1, 0], [1, 1])
        assert list(dense.solution(got)) == [a * b for a in dense.solution(left)
                                             for b in dense.solution(right)]
        assert [[i for i, v in enumerate(k) if v] for k in got.kernel] == \
            [[2 * x, 2 * x + 1] for x in range(67)]
        assert all((k[2 * x], k[2 * x + 1]) == (-1, 1) for x, k in enumerate(got.kernel))
    assert chi_L(cat) == chi_L(orc) == euler_characteristics(iso_order(orc)).chi2


def test_non_ei_weightings_reach_the_general_solver(monkeypatch):
    """section8 and leinster-A are not EI: both solves run solve_linear,
    and the coweighting's transposed zeta gives the report of the solve on
    the opposite category."""
    for name in ("section8", "leinster-A"):
        cat = corpus.build(name)
        assert not classify(cat)["is_ei"]
        w, cw = _oracle(cat)
        calls = []

        def counted(a, b, cols):
            calls.append(a)
            return solve_linear(a, b, cols)

        monkeypatch.setattr(leinster, "solve_linear", counted)
        assert _same_report(weighting(cat), w)
        assert _same_report(coweighting(cat), cw)
        assert calls == [zeta_matrix(cat).rows, zeta_matrix(opposite(cat)).rows]
