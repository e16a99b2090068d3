"""The integer routes of the Burnside congruences and the omega relation
against the Fraction routes they replaced, plus guards that the two sides of
the omega relation stay independent and that nothing is rebuilt per call."""

import random
from fractions import Fraction

import pytest

from catrank import exactq, fincat, grouptheory, orbitcat
from catrank.grouptheory import (
    FiniteGroup,
    build_group,
    burnside_check,
    burnside_congruences,
    nu_matrix,
    subgroup_classes,
    table_of_marks,
)
from catrank.fincat import iso_order, orbit_category
from catrank.moebius import omega_bar2
from catrank.orbitcat import (
    GCWComplex,
    chi_G,
    fixed_point_euler,
    verify_omega_relation,
)

import dense
from dense import QVector
from lattice_oracle import fixed_point_count

GROUPS = [("s3", "symmetric:3", 64), ("s4", "symmetric:4", 64), ("d8", "dihedral:4", 64),
          ("d16", "dihedral:8", 64), ("c2^4", "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2", 64),
          ("c2xs3", "product:cyclic:2+symmetric:3", 64), ("c12", "cyclic:12", 64),
          ("s5", "symmetric:5", 120)]


def _xi_vectors(g, rng):
    """Random integer vectors, and combinations of marks columns (which
    satisfy the congruences) with one entry perturbed or not."""
    marks = [list(row) for row in table_of_marks(g).matrix.rows]
    n = len(marks)
    out = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(4)]
    for perturb in (False, True, True):
        coeffs = [rng.randint(-2, 3) for _ in range(n)]
        xi = [sum(marks[i][j] * coeffs[j] for j in range(n)) for i in range(n)]
        if perturb:
            xi[rng.randrange(n)] += rng.choice((-1, 1))
        out.append(xi)
    return out


@pytest.mark.parametrize("spec,cap", [(s, c) for _, s, c in GROUPS],
                         ids=[name for name, _, _ in GROUPS])
def test_burnside_matches_fraction_route(spec, cap):
    g = build_group(spec, cap)
    weyl = [c.weyl_order for c in subgroup_classes(g)]
    rng = random.Random(f"burnside/{spec}")
    for xi in _xi_vectors(g, rng):
        expected = dense.matrix(nu_matrix(g)).mul_vec(QVector(xi))
        image, satisfied = burnside_congruences(g, xi)
        assert image == list(expected)
        assert all(type(v) is int for v in image)
        assert satisfied is all(v.numerator % w == 0 for v, w in zip(expected, weyl))
        assert burnside_check(g, xi) is satisfied


def _census(g, rng, cells=30):
    classes = subgroup_classes(g)
    return [(rng.randrange(4), sorted(rng.choice(rng.choice(classes).conjugates)))
            for _ in range(cells)]


def omega_lhs_oracle(x):
    """omega_bar2 of Or(G) as a Fraction matrix in iso order, applied to
    chi_G through the translation between class order and object order."""
    cat = orbit_category(x.group)
    om = dense.matrix(omega_bar2(iso_order(cat)))
    v = chi_G(x)
    obj_order = list(cat.objects)
    v_iso = QVector([v[obj_order.index(lbl)] for lbl in om.col_labels], labels=om.col_labels)
    image = om.mul_vec(v_iso)
    return [image.at(obj) for obj in obj_order]


def omega_rhs_oracle(x):
    """Fixed cosets counted one by one, per census class, over |W_G H|."""
    g = x.group
    counts = {}
    for dim, ci in x.cells:
        counts[ci] = counts.get(ci, 0) + (-1) ** dim
    return [Fraction(sum(c * fixed_point_count(g, cls.representative,
                                               x.classes[ci].representative)
                         for ci, c in counts.items()), cls.weyl_order)
            for cls in x.classes]


@pytest.mark.parametrize("spec,cap", [(s, c) for _, s, c in GROUPS],
                         ids=[name for name, _, _ in GROUPS])
def test_omega_relation_matches_fraction_routes(spec, cap):
    g = build_group(spec, cap)
    rng = random.Random(f"omega/{spec}")
    for cells in (10, 30):
        x = GCWComplex(g, _census(g, rng, cells))
        ok, lhs, rhs = verify_omega_relation(x)
        assert ok
        assert list(dense.vector(*lhs)) == omega_lhs_oracle(x)
        assert list(dense.vector(*rhs)) == omega_rhs_oracle(x)
        assert all(type(v) is int for side in (lhs, rhs) for part in side for v in part)
        for i, cls in enumerate(x.classes):
            assert (fixed_point_euler(x, i), cls.weyl_order) == (rhs[0][i], rhs[1][i])


def test_omega_relation_on_empty_census():
    x = GCWComplex(build_group("symmetric:3"), [])
    ok, lhs, rhs = verify_omega_relation(x)
    assert ok and lhs[0] == rhs[0] == [0] * len(x.classes)


def test_omega_lhs_reads_weyl_orders_from_orbit_category(monkeypatch):
    """Wrong Weyl orders on the lattice move the right side only: the left
    side divides by |aut(G/H)| of Or(G)."""
    g = build_group("dihedral:4")
    x = GCWComplex(g, _census(g, random.Random("weyl"), 20))
    expected = omega_lhs_oracle(x)
    for cls in x.classes:
        monkeypatch.setattr(cls, "weyl_order", 2 * cls.weyl_order)
    ok, lhs, rhs = verify_omega_relation(x)
    assert list(dense.vector(*lhs)) == expected
    assert not ok


def test_omega_sides_are_independent(monkeypatch):
    """A wrong mark, as orbitcat reads the marks, breaks the relation: the
    left side does not read the marks."""
    g = build_group("symmetric:4")
    x = GCWComplex(g, [(0, range(g.order)), (1, [0])])
    assert verify_omega_relation(x)[0]
    expected = omega_lhs_oracle(x)
    true_marks = grouptheory.marks(g)

    def wrong_marks(group):
        rows = [list(r) for r in true_marks]
        rows[0][-1] += 1
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(orbitcat, "marks", wrong_marks)
    ok, lhs, _ = verify_omega_relation(x)
    assert not ok
    assert list(dense.vector(*lhs)) == expected


def test_census_is_counted_once():
    g = build_group("dihedral:4")
    x = GCWComplex(g, _census(g, random.Random("once"), 12))
    before = (list(chi_G(x)), [fixed_point_euler(x, i) for i in range(len(x.classes))],
              verify_omega_relation(x))
    x.cells = None  # every reader must use the counts
    after = (list(chi_G(x)), [fixed_point_euler(x, i) for i in range(len(x.classes))],
             verify_omega_relation(x))
    assert before[0] == after[0] and before[1] == after[1]
    assert before[2][0] == after[2][0] and list(before[2][1]) == list(after[2][1])


def test_repeated_calls_rebuild_nothing(monkeypatch):
    specs = ["symmetric:4", "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2", "dihedral:8"]
    work = []
    for spec in specs:
        g = build_group(spec)
        xi = [1] * len(subgroup_classes(g))
        x = GCWComplex(g, _census(g, random.Random(spec), 20))
        work.append((g, xi, x))
        burnside_check(g, xi)
        verify_omega_relation(x)
    calls = {"_rref": 0, "mark": 0, "_build": 0, "_least": 0}

    def counting(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(exactq, "_rref")
    counting(grouptheory, "mark")
    counting(fincat, "_build")
    counting(grouptheory, "_least")
    for _ in range(3):
        for g, xi, x in work:
            burnside_check(g, xi)
            burnside_congruences(g, xi)
            verify_omega_relation(x)
            table_of_marks(g)
            fixed_point_euler(x, 0)
    assert calls == {"_rref": 0, "mark": 0, "_build": 0, "_least": 0}
    # the wrappers see a cold enumeration: a new group, equal to the first,
    # starts with an empty memo
    g = FiniteGroup(work[0][0].table, work[0][0].names)
    burnside_check(g, work[0][1])
    verify_omega_relation(GCWComplex(g, _census(g, random.Random(specs[0]), 20)))
    # nu is a back-substitution on the integer marks: nothing is eliminated;
    # the omega relation counts the enumerated maps and composes none
    assert calls["_rref"] == 0 and calls["mark"] > 0
    assert calls["_build"] == 0 and calls["_least"] > 0


class _Six:
    def __index__(self):
        return 6


@pytest.mark.parametrize("entry", [6.9, 6.0, "6", True, None, Fraction(6)], ids=repr)
def test_burnside_refuses_entries_that_are_not_integers(entry):
    """An entry that is not an integer is refused, not truncated: 6.9 is
    not read as 6, nor True as 1."""
    g = build_group("symmetric:3")
    for check in (burnside_congruences, burnside_check):
        with pytest.raises(ValueError, match="must be integers"):
            check(g, [entry, 3, 2, 1])
    assert burnside_congruences(g, [_Six(), 3, 2, 1]) == burnside_congruences(g, [6, 3, 2, 1])
