"""Orbit categories, equivariant cell censuses, and the fixed-point relation."""

import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from catrank.fincat import classify, iso_order, orbit_category, validate
from catrank.grouptheory import (
    CapExceeded,
    build_group,
    nu_matrix,
    subgroup_classes,
    table_of_marks,
)
from catrank.moebius import euler_characteristics, omega_bar2
from catrank.orbitcat import (
    GCWComplex,
    chi_G,
    fixed_point_euler,
    gcw_from_json,
    verify_omega_relation,
)

import dense
from chain_oracle import chi_f2_via_eta
from lattice_oracle import coset_maps, fixed_point_count, nu_matrix_via_chains
from rref_oracle import reorder
from genrandom import random_gcw
from subgroup_helpers import weyl_group_with_cosets


def test_orbit_category_of_c2():
    g = build_group("cyclic:2")
    cat = orbit_category(g)
    assert validate(cat) == []
    assert [[len(cat.hom(i, j)) for j in range(2)] for i in range(2)] == [[2, 1], [0, 1]]
    assert [c.label for c in subgroup_classes(g)] == [(0,), (0, 1)]


def test_orbit_category_of_trivial_group():
    cat = orbit_category(build_group("trivial"))
    assert cat.n_objects == 1 and cat.n_morphisms == 1


def test_orbit_category_is_free_ei():
    for spec in ("cyclic:4", "klein", "symmetric:3", "dihedral:4"):
        rep = classify(orbit_category(build_group(spec)))
        assert rep["is_ei"] and rep["is_free"] and rep["is_skeletal"]


def test_orbit_category_s3_shape():
    g = build_group("symmetric:3")
    cat = orbit_category(g)
    assert cat.n_objects == 4
    auts = [len(cat.aut(i)) for i in range(4)]
    assert auts == [c.weyl_order for c in subgroup_classes(g)] == [6, 1, 2, 1]


def coset_of_morphism(g):
    """The coset x*K_j of each morphism of Or(G), by id: the morphisms in
    the documented order, the identities (i, i, 0) first, in object order,
    then each (i, j, lo) in the order of the oracle's lists, lo*K_j for
    (i, j, lo)."""
    maps = coset_maps(g)
    ids = [(i, i, 0) for i in range(len(maps))]
    ordered = ids + [(i, j, lo) for i, row in enumerate(maps) for j, los in enumerate(row)
                     for lo in los if (i, j, lo) not in ids]
    reps = [c.representative for c in subgroup_classes(g)]
    return [frozenset(g.table[lo][e] for e in reps[j]) for _, j, lo in ordered]


def test_aut_is_weyl_group_via_inverse_relabeling():
    # cosets wH in N(H)/H correspond to automorphisms R_(w^-1); on a
    # nonabelian group this must be a homomorphism, and w -> R_w must not be
    g = build_group("symmetric:3")
    cat = orbit_category(g)
    h = subgroup_classes(g)[0].representative  # trivial subgroup: W = G
    w, cosets = weyl_group_with_cosets(g, h)
    coset_of = coset_of_morphism(g)
    morph_of_coset = {coset_of[m]: m for m in cat.aut(0)}

    def r_of(elem):
        # the automorphism R_(elem^-1) as a morphism id
        return morph_of_coset[frozenset({g.inv[elem]})]

    straight_fails = False
    for a in range(w.order):
        for b in range(w.order):
            ra, rb = r_of(min(cosets[a])), r_of(min(cosets[b]))
            prod = w.table[a][b]
            assert cat.compose(ra, rb) == r_of(min(cosets[prod]))
            naive = morph_of_coset[frozenset({min(cosets[a])})]
            naive_b = morph_of_coset[frozenset({min(cosets[b])})]
            if cat.compose(naive, naive_b) != morph_of_coset[frozenset({min(cosets[prod])})]:
                straight_fails = True
    assert straight_fails


def test_composition_follows_translation_law():
    g = build_group("symmetric:3")
    cat = orbit_category(g)
    coset_of = coset_of_morphism(g)
    for f in range(cat.n_morphisms):
        for h in range(cat.n_morphisms):
            if cat.dom[h] != cat.cod[f]:
                continue
            c = cat.compose(h, f)
            g1, g2 = min(coset_of[f]), min(coset_of[h])
            prod = g.table[g1][g2]
            target_rep = subgroup_classes(g)[cat.cod[h]].representative
            assert coset_of[c] == frozenset(g.table[prod][e] for e in target_rep)


def test_cap_exceeded():
    # the cap is applied once, by build_group, before Or(G) can be asked for
    with pytest.raises(CapExceeded, match="exceeds cap 20"):
        build_group("symmetric:4", cap=20)


def test_mu_inverts_omega_on_orbit_categories():
    for spec in ("cyclic:6", "dihedral:4", "q8"):
        cat = orbit_category(build_group(spec))
        table = iso_order(cat)
        om, mu = dense.matrix(omega_bar2(table)), dense.mu_bar2(euler_characteristics(table))
        assert mu.mul(om).is_identity() and om.mul(mu).is_identity()


def test_omega_scaled_by_weyl_orders_is_table_of_marks():
    for spec in ("symmetric:3", "dihedral:4", "cyclic:6"):
        g = build_group(spec)
        cat = orbit_category(g)
        om = dense.matrix(omega_bar2(iso_order(cat)))
        order = list(cat.objects)
        om = reorder(om, order, order)
        marks = table_of_marks(g).matrix
        classes = subgroup_classes(g)
        n = len(classes)
        for i in range(n):
            w = classes[i].weyl_order
            assert [w * om.get(i, j) for j in range(n)] == list(marks.rows[i])


def test_euler_characteristics_of_orbit_category():
    cat = orbit_category(build_group("cyclic:2"))
    rep = euler_characteristics(iso_order(cat))
    assert rep.orbits == [0, 1]
    assert list(dense.chi_f2(rep)) == [0, 1]
    assert rep.chi == 1 and rep.chi2 == 1
    assert list(chi_f2_via_eta(cat)) == [0, 1]


def test_nu_routes_agree():
    for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "klein", "symmetric:3",
                 "q8", "dihedral:4", "cyclic:12"):
        g = build_group(spec)
        assert dense.matrix(nu_matrix(g)) == nu_matrix_via_chains(g), spec


def test_gcw_point():
    g = build_group("dihedral:4")
    x = GCWComplex(g, [(0, range(g.order))])
    v = chi_G(x)
    assert list(v) == [0] * (len(x.classes) - 1) + [1]
    for i, cls in enumerate(x.classes):
        assert fixed_point_euler(x, cls) == 1
    ok, lhs, rhs = verify_omega_relation(x)
    assert ok
    assert list(dense.vector(*rhs)) == [F(1, cls.weyl_order) for cls in x.classes]


def test_gcw_free_sphere_with_flip():
    x = GCWComplex(build_group("cyclic:2"), [(0, [0])])
    assert list(chi_G(x)) == [1, 0]
    assert fixed_point_euler(x, 0) == 2
    assert fixed_point_euler(x, 1) == 0
    ok, lhs, rhs = verify_omega_relation(x)
    assert ok and list(dense.vector(*lhs)) == [1, 0] == list(dense.vector(*rhs))


def test_gcw_signed_counts():
    g = build_group("cyclic:2")
    whole = [0, 1]
    # one 0-cell and two 1-cells with full stabilizer: signed count -1 there
    x = GCWComplex(g, [(0, whole), (1, whole), (1, whole)])
    assert list(chi_G(x)) == [0, -1]
    # two free 1-cells on one free 0-cell: chi of underlying space |G| - 2|G|
    y = GCWComplex(g, [(0, [0]), (1, [0]), (1, [0])])
    assert fixed_point_euler(y, 0) == g.order - 2 * g.order
    assert verify_omega_relation(y)[0]


def test_gcw_stabilizers_normalize_to_class():
    g = build_group("symmetric:3")
    classes = subgroup_classes(g)
    c2_class = next(c for c in classes if len(c.representative) == 2)
    a, b = c2_class.conjugates[0], c2_class.conjugates[1]
    xa = GCWComplex(g, [(0, a)])
    xb = GCWComplex(g, [(0, b)])
    assert xa.cells == xb.cells
    assert list(chi_G(xa)) == list(chi_G(xb))


def test_gcw_bad_input():
    g = build_group("cyclic:4")
    with pytest.raises(ValueError, match="dimension"):
        GCWComplex(g, [(-1, [0])])
    with pytest.raises(ValueError, match="not a subgroup"):
        GCWComplex(g, [(0, [0, 1])])  # {0,1} not closed under the cyclic product
    with pytest.raises(ValueError, match="'group' and 'cells'"):
        gcw_from_json({"cells": []})
    with pytest.raises(ValueError, match="malformed cell"):
        gcw_from_json({"group": "cyclic:2", "cells": [{"dim": 0}]})


def test_fixed_point_euler_refuses_a_bool_or_an_index_out_of_range():
    """A class index is an integer in 0..k-1: -1 is not the last class, True
    is not class 1, and 99 is named, not a bare IndexError."""
    g = build_group("symmetric:3")
    c2 = next(c for c in subgroup_classes(g) if len(c.representative) == 2)
    x = GCWComplex(g, [(0, [0]), (1, c2.representative)])
    assert [fixed_point_euler(x, i) for i in range(4)] == [3, -1, 0, 0]
    for h in (-1, 4, 99, True, False):
        with pytest.raises(ValueError, match=re.escape(f"in 0..3: {h!r}")):
            fixed_point_euler(x, h)


@pytest.mark.parametrize("stab", [[False], [0.0], [True, False], [0, 1.0], 5, None, "01"])
def test_gcw_refuses_a_stabilizer_that_is_not_element_indices(stab):
    """False, 0.0 and 0 hash alike, so a stabilizer of bools or floats is
    refused, not read as element indices; a non-iterable is named, not a
    bare TypeError."""
    g = build_group("cyclic:2")
    with pytest.raises(ValueError, match=re.escape(f"element indices: {stab!r}")):
        GCWComplex(g, [(0, stab)])


@pytest.mark.parametrize("h", [[False], [False, True], [0.0], 1.0, "0"])
def test_fixed_point_euler_refuses_a_subgroup_that_is_not_element_indices(h):
    x = GCWComplex(build_group("cyclic:2"), [(0, [0])])
    with pytest.raises(ValueError, match=re.escape(f"element indices: {h!r}")):
        fixed_point_euler(x, h)


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:4", "dihedral:8", "q8",
                                  "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2",
                                  "product:cyclic:2+symmetric:3"])
def test_fixed_point_euler_matches_coset_count(spec):
    """The marks route against counting fixed cosets, cell by cell."""
    g = build_group(spec)
    classes = subgroup_classes(g)
    rng = random.Random(f"fixed-point/{spec}")
    cells = [(rng.randrange(4), sorted(rng.choice(rng.choice(classes).conjugates)))
             for _ in range(40)]
    x = GCWComplex(g, cells)
    for i, cls in enumerate(x.classes):
        expected = sum((-1) ** dim * fixed_point_count(g, cls.representative, stab)
                       for dim, stab in cells)
        assert fixed_point_euler(x, cls) == expected
        assert fixed_point_euler(x, i) == expected
        assert fixed_point_euler(x, sorted(cls.conjugates[-1])) == expected


def test_gcw_json_round():
    g = build_group("symmetric:3")
    c3 = next(c for c in subgroup_classes(g) if len(c.representative) == 3)
    doc = {"group": "symmetric:3", "cells": [
        {"dim": 0, "stabilizer": sorted(c3.representative)},
        {"dim": 1, "stabilizer": [0]},
    ]}
    x = gcw_from_json(doc)
    assert len(x.cells) == 2
    assert verify_omega_relation(x)[0]


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_omega_relation_randomized(rng):
    g = build_group(rng.choice(["cyclic:2", "symmetric:3", "dihedral:4"]))
    x = GCWComplex(g, random_gcw(rng, g))
    ok, lhs, rhs = verify_omega_relation(x)
    assert ok, (list(lhs), list(rhs))


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chi_f2_eta_route_on_orbit_categories(rng):
    g = build_group(rng.choice(["cyclic:4", "cyclic:6", "klein", "symmetric:3"]))
    cat = orbit_category(g)
    er = euler_characteristics(iso_order(cat))
    assert list(dense.chi_f2(er)) == list(chi_f2_via_eta(cat))


@pytest.mark.parametrize("spec", ["symmetric:3", "cyclic:4", "klein", "dihedral:4"])
def test_census_lookup_on_every_subset(spec):
    """Every subset of the group: a subgroup lands in the class holding it
    among its conjugates, anything else is refused by the same message."""
    g = build_group(spec)
    classes = subgroup_classes(g)
    x = GCWComplex(g, [])
    for bits in range(1 << g.order):
        subset = [e for e in range(g.order) if bits >> e & 1]
        owner = [i for i, cls in enumerate(classes) if frozenset(subset) in cls.conjugates]
        if owner:
            assert x._class_index(subset) == owner[0]
        else:
            with pytest.raises(ValueError, match=r"^stabilizer is not a subgroup: "
                                                 + re.escape(repr(subset)) + "$"):
                x._class_index(subset)
    with pytest.raises(ValueError, match=r"not a subgroup: \[0, 99\]"):
        x._class_index([99, 0])


def test_group_layer_loads_no_category_engine():
    """Groups and censuses import neither the category engine nor the
    invariants computed on it, nor the exact solver, nor the command line."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, catrank.grouptheory, catrank.orbitcat\n"
                               "print(*sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert {"catrank.grouptheory", "catrank.orbitcat"} <= loaded
    assert not loaded & {"catrank.fincat", "catrank.moebius", "catrank.leinster", "catrank.cli",
                         "catrank.exactq"}
