"""Group builders, subgroup lattices, Weyl groups, marks."""

import itertools
import random
import time
from fractions import Fraction

import pytest

import dense
import genrandom
import lattice_oracle
from catrank import fincat, grouptheory, moebius
from catrank.fincat import iso_order, orbit_category
from catrank.grouptheory import (
    CapExceeded,
    FiniteGroup,
    build_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    product_group,
    perm_group,
    closure,
    subgroup_classes,
    conjugate_subgroup,
    table_of_marks,
    burnside_congruences,
    nu_matrix,
)
from catrank.moebius import euler_characteristics
from catrank.orbitcat import GCWComplex
from rref_oracle import reorder
from subgroup_helpers import left_cosets, normalizer, subgroups, weyl_group


# primitive subgroup oracle: every subset closed under the operation
def all_subgroups_bruteforce(g):
    elems = range(g.order)
    found = set()
    for r in range(1, g.order + 1):
        for sub in itertools.combinations(elems, r):
            s = set(sub)
            if 0 not in s:
                continue
            if all(g.table[a][b] in s for a in s for b in s):
                found.add(frozenset(s))
    return found


def first_associativity_failure(table):
    """The O(n^3) scan over all triples, kept as the oracle for the
    generating-set check: the message for the lexicographically first
    failing (a, b, c), or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"associativity fails at ({a},{b},{c})"
    return None


def first_latin_failure(table):
    """The entry-by-entry scan the constructor used before it checked the
    columns over zip(*table): the message for the first failing row, column
    or identity law, or None."""
    n = len(table)
    if n == 0:
        return "empty table; the trivial group has order 1"
    full = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            return f"row {i} has wrong length"
        if set(row) != full:
            return f"row {i} is not a permutation of 0..{n-1}"
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            return f"column {j} is not a permutation of 0..{n-1}"
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            return "element 0 is not a two-sided identity"
    return None


def non_associative_loops():
    """Latin squares with identity 0 made from group tables by swapping one
    intercalate (a 2x2 subsquare away from row and column 0), kept when the
    result is not associative."""
    loops = []
    for g in (cyclic_group(6), build_group("klein"), cyclic_group(8), dihedral_group(4),
              build_group("q8"), symmetric_group(3)):
        n = g.order
        squares = [(a, b, c, d) for a, b in itertools.combinations(range(1, n), 2)
                   for c, d in itertools.combinations(range(1, n), 2)
                   if g.table[a][c] == g.table[b][d] and g.table[a][d] == g.table[b][c]]
        for a, b, c, d in squares[:3]:
            t = [list(row) for row in g.table]
            t[a][c], t[a][d] = t[a][d], t[a][c]
            t[b][c], t[b][d] = t[b][d], t[b][c]
            if first_associativity_failure(t) is not None:
                loops.append(t)
    return loops


class TestBuilders:
    def test_cyclic(self):
        g = cyclic_group(6)
        assert g.order == 6
        assert g.table[2][5] == 1

    def test_cyclic_one(self):
        assert cyclic_group(1).order == 1

    def test_dihedral(self):
        g = dihedral_group(4)
        assert g.order == 8
        # reflections are involutions
        assert sum(1 for x in range(8) if x != 0 and g.table[x][x] == 0) == 5

    def test_symmetric(self):
        assert symmetric_group(3).order == 6
        assert symmetric_group(4).order == 24

    def test_product(self):
        g = product_group(cyclic_group(2), cyclic_group(3))
        assert g.order == 6
        # isomorphic to cyclic 6: has an element of order 6
        orders = set()
        for x in range(6):
            k, y = 1, x
            while y != 0:
                y = g.table[y][x]
                k += 1
            orders.add(k)
        assert 6 in orders

    def test_perm_closure(self):
        g = perm_group([(1, 2, 0)])
        assert g.order == 3

    def test_perm_cap(self):
        with pytest.raises(ValueError):
            perm_group([(1, 2, 3, 4, 0)], cap=3)

    def test_alias_klein(self):
        g = build_group("klein")
        assert g.order == 4
        assert all(g.table[x][x] == 0 for x in range(4))

    def test_alias_q8(self):
        g = build_group("q8")
        assert g.order == 8
        # quaternion group: a unique involution
        assert sum(1 for x in range(1, 8) if g.table[x][x] == 0) == 1

    def test_alias_a4(self):
        g = build_group("a4")
        assert g.order == 12
        assert len(subgroups(g)) == 10

    def test_string_specs(self):
        assert build_group("cyclic:5").order == 5
        assert build_group("dihedral:3").order == 6
        assert build_group("sym:4").order == 24
        assert build_group("product:cyclic:2+cyclic:2").order == 4
        assert build_group("trivial").order == 1

    def test_dict_specs(self):
        assert build_group({"kind": "cyclic", "n": 7}).order == 7
        g = build_group({"kind": "table", "table": [[0, 1], [1, 0]]})
        assert g.order == 2
        p = build_group({"kind": "perm", "generators": [[1, 0, 2]]})
        assert p.order == 2

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            build_group("nonsense:3")
        with pytest.raises(ValueError):
            build_group({"kind": "mystery"})
        with pytest.raises(ValueError):
            build_group({"kind": "table", "table": [[0, 1], [0, 1]]})  # not Latin

    def test_group_axioms_rejected(self):
        # associativity failure: a Latin square that is not a group table
        bad = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError):
            FiniteGroup(bad)
        with pytest.raises(ValueError, match="associativity"):
            build_group({"kind": "table", "table": bad})

    def test_associativity_message_matches_the_full_scan(self):
        bad = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        loops = [bad] + non_associative_loops()
        assert len(loops) >= 12
        for table in loops:
            expected = first_associativity_failure(table)
            assert expected is not None
            with pytest.raises(ValueError) as err:
                FiniteGroup(table)
            assert str(err.value) == expected

    def test_right_generators_match_the_incremental_search(self):
        """The generators of Light's test, closure by closure, against the
        one incremental search they replaced, on random reduced Latin
        squares and builder groups: the same lists, and the verdict and
        message of the full scan."""
        rng = random.Random(32)
        tables = [genrandom.random_loop_table(rng, rng.randint(4, 7)) for _ in range(400)]
        tables += [g.table for g in genrandom.small_group_pool() + [symmetric_group(4)]]
        failures = 0
        for table in tables:
            g = FiniteGroup._associative(table)
            assert grouptheory._right_generators(g) == lattice_oracle.right_generators(g.table)
            expected = first_associativity_failure(table)
            if expected is None:
                assert FiniteGroup(table) == g
            else:
                failures += 1
                with pytest.raises(ValueError) as err:
                    FiniteGroup(table)
                assert str(err.value) == expected
        assert failures >= 200  # most reduced Latin squares are no group tables

    def test_builder_tables_pass_the_full_check(self):
        # the builders skip the associativity check, so their tables
        # must pass it when handed to the checking constructor
        s4 = symmetric_group(4)
        groups = [cyclic_group(7), dihedral_group(5), s4, build_group("q8"),
                  product_group(cyclic_group(2), symmetric_group(3))]
        groups += [weyl_group(s4, c.representative) for c in subgroup_classes(s4)]
        for g in groups:
            assert FiniteGroup(g.table, g.names) == g
            assert first_associativity_failure(g.table) is None

    def test_inverse_and_conj(self):
        g = symmetric_group(3)
        for x in range(6):
            assert g.table[x][g.inv[x]] == 0
        assert g.conj(0, 3) == 3

    @pytest.mark.parametrize("table,message", [
        ([], "empty table; the trivial group has order 1"),
        ([[0, 1], [1]], "row 1 has wrong length"),
        ([[0, 1, 2], [1, 2], [2, 0, 1, 0]], "row 1 has wrong length"),
        ([[0, 1], [1, 1]], "row 1 is not a permutation of 0..1"),
        ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], "column 0 is not a permutation of 0..2"),
        ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 0, 1]],
         "column 2 is not a permutation of 0..3"),
        ([[1, 0], [0, 1]], "element 0 is not a two-sided identity"),
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "element 0 is not a two-sided identity"),
    ], ids=["empty", "short row", "first short row", "row", "column 0", "column 2",
            "no identity", "left identity only"])
    def test_axiom_messages(self, table, message):
        assert first_latin_failure(table) == message
        with pytest.raises(ValueError) as err:
            FiniteGroup(table)
        assert str(err.value) == message

    def test_axiom_messages_match_the_scan_on_corrupted_tables(self):
        """Group tables with an entry overwritten, two entries of a row
        swapped or two rows swapped: the first failing row, column or
        identity law is the one the entry-by-entry scan names."""
        rng = random.Random(11)
        checked = set()
        for g in (cyclic_group(5), symmetric_group(3), dihedral_group(4), build_group("a4")):
            for _ in range(60):
                t = [list(row) for row in g.table]
                a, b, c = (rng.randrange(g.order) for _ in range(3))
                kind = rng.randrange(3)
                if kind == 0:
                    t[a][b] = c
                elif kind == 1:
                    t[a][b], t[a][c] = t[a][c], t[a][b]
                else:
                    t[a], t[b] = t[b], t[a]
                expected = first_latin_failure(t)
                if expected is None:
                    continue
                checked.add(expected.split(" is")[0])
                with pytest.raises(ValueError) as err:
                    FiniteGroup(t)
                assert str(err.value) == expected
        assert {m.split()[0] for m in checked} == {"row", "column", "element"}

    def test_inverse_is_the_first_identity_in_the_row(self):
        for g in (symmetric_group(4), dihedral_group(5), build_group("q8")):
            assert g.inv == tuple(next(b for b in range(g.order) if g.table[a][b] == 0)
                                  for a in range(g.order))


class TestSubgroups:
    @pytest.mark.parametrize(
        "g",
        [cyclic_group(6), symmetric_group(3), dihedral_group(4),
         build_group("klein"), build_group("a4"), build_group("q8")],
        ids=["c6", "s3", "d4", "v4", "a4", "q8"],
    )
    def test_against_bruteforce(self, g):
        got = {frozenset(h) for h in subgroups(g)}
        assert got == all_subgroups_bruteforce(g)

    def test_s3_classes(self):
        cls = subgroup_classes(symmetric_group(3))
        assert len(cls) == 4
        assert [len(c.representative) for c in cls] == [1, 2, 3, 6]
        assert [len(c.conjugates) for c in cls] == [1, 3, 1, 1]
        assert [c.weyl_order for c in cls] == [6, 1, 2, 1]

    def test_v4_classes(self):
        cls = subgroup_classes(build_group("klein"))
        assert len(cls) == 5
        assert [c.weyl_order for c in cls] == [4, 2, 2, 2, 1]

    def test_a4_classes(self):
        cls = subgroup_classes(build_group("a4"))
        assert [c.weyl_order for c in cls] == [12, 2, 1, 3, 1]

    def test_q8_all_normal(self):
        g = build_group("q8")
        cls = subgroup_classes(g)
        assert len(cls) == 6
        assert all(len(c.conjugates) == 1 for c in cls)

    def test_conjugate_and_normalizer(self):
        g = symmetric_group(3)
        c2 = (0, 1)
        assert sorted(normalizer(g, c2)) == [0, 1]
        c3 = (0, 3, 4)
        assert sorted(normalizer(g, c3)) == list(range(6))
        moved = conjugate_subgroup(g, c2, 3)
        assert set(moved) != set(c2) and len(moved) == 2

    def test_weyl_groups(self):
        g = symmetric_group(3)
        assert weyl_group(g, (0, 1)).order == 1
        assert weyl_group(g, (0, 3, 4)).order == 2
        w = weyl_group(g, (0,))
        assert w.order == 6
        assert w.table == g.table  # singleton cosets in element order

    def test_weyl_rejects_nonsubgroup(self):
        with pytest.raises(ValueError):
            weyl_group(symmetric_group(3), (0, 3))


class TestMarks:
    def test_fixed_points_trivial_acting(self):
        g = dihedral_group(4)
        for cls in subgroup_classes(g):
            k = cls.representative
            assert lattice_oracle.fixed_point_count(g, (0,), k) == g.order // len(k)

    def test_fixed_points_self(self):
        g = symmetric_group(3)
        for cls in subgroup_classes(g):
            h = cls.representative
            assert lattice_oracle.fixed_point_count(g, h, h) == cls.weyl_order

    def test_fixed_points_incomparable(self):
        g = symmetric_group(3)
        assert lattice_oracle.fixed_point_count(g, (0, 3, 4), (0, 1)) == 0

    def test_marks_cyclic_prime(self):
        for p in (2, 3, 5):
            m = table_of_marks(cyclic_group(p)).matrix
            assert [m.rows[0], m.rows[1]] == [(p, 1), (0, 1)] and m.dens == (1, 1)

    def test_marks_v4(self):
        m = table_of_marks(build_group("klein")).matrix
        assert [m.get(i, i) for i in range(5)] == [4, 2, 2, 2, 1]
        assert m.rows[0] == (4, 2, 2, 2, 1)

    @pytest.mark.parametrize(
        "g",
        [symmetric_group(3), dihedral_group(4), build_group("a4"), build_group("q8")],
        ids=["s3", "d4", "a4", "q8"],
    )
    def test_marks_shape(self, g):
        cls = subgroup_classes(g)
        m = table_of_marks(g).matrix
        n = len(cls)
        for i in range(n):
            # diagonal counts the Weyl group; below it everything vanishes
            assert m.get(i, i) == cls[i].weyl_order
            for j in range(i):
                assert m.get(i, j) == 0
            assert m.get(0, i) == g.order // len(cls[i].representative)

    def test_marks_s3_exact(self):
        m = table_of_marks(symmetric_group(3)).matrix
        assert m.labels == [c.label for c in subgroup_classes(symmetric_group(3))]
        assert list(m.rows) == [
            (6, 3, 2, 1),
            (0, 1, 0, 1),
            (0, 0, 2, 1),
            (0, 0, 0, 1),
        ]


class TestNuChains:
    def test_cyclic_prime(self):
        for p in (2, 3, 5):
            nu = lattice_oracle.nu_matrix_via_chains(cyclic_group(p))
            assert [nu.row(0), nu.row(1)] == [(1, -1), (0, 1)]

    def test_diagonal_ones(self):
        for g in (symmetric_group(3), build_group("klein")):
            nu = lattice_oracle.nu_matrix_via_chains(g)
            assert all(nu.get(i, i) == 1 for i in range(nu.rows))


# ------------------------------------------------ lattice against the oracle

ORACLE_GROUPS = (
    [(f"cyclic:{n}", cyclic_group(n)) for n in range(1, 13)]
    + [(f"dihedral:{n}", dihedral_group(n)) for n in range(1, 9)]
    + [(f"sym:{n}", symmetric_group(n)) for n in range(1, 5)]
    + [(s, build_group(s)) for s in ("a4", "q8", "klein",
                                     "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2",
                                     "product:cyclic:2+symmetric:3")]
)


def random_perm_groups(seed=1, draws=16, max_order=24):
    """Groups generated by one or two random permutations of 4, 5 or 6
    points. Draws above max_order are dropped: the oracle closes every join
    over all pairs of elements, which takes seconds per group from order 60."""
    rng = random.Random(seed)
    groups = []
    for _ in range(draws):
        deg = rng.choice((4, 5, 6))
        gens = [rng.sample(range(deg), deg) for _ in range(rng.choice((1, 2)))]
        try:
            groups.append(perm_group(gens, cap=max_order))
        except CapExceeded:
            pass
    return groups


def test_random_perm_groups_vary():
    orders = {g.order for g in random_perm_groups()}
    assert len(orders) >= 4 and max(orders) > 8


@pytest.mark.parametrize(
    "g", [g for _, g in ORACLE_GROUPS] + random_perm_groups(),
    ids=[name for name, _ in ORACLE_GROUPS]
        + [f"perm{i}" for i in range(len(random_perm_groups()))],
)
def test_lattice_matches_oracle(g):
    assert subgroups(g) == lattice_oracle.subgroups(g)
    classes = subgroup_classes(g)
    expected = lattice_oracle.classes(g)
    assert [c.conjugates for c in classes] == [e[0] for e in expected]
    assert [c.representative for c in classes] == [e[0][0] for e in expected]
    assert [c.normalizer for c in classes] == [e[1] for e in expected]
    assert [c.weyl_order for c in classes] == [e[2] for e in expected]
    for c in classes:
        assert closure(g, c.generators) == c.representative
    m = table_of_marks(g).matrix
    n = len(classes)
    assert [[m.get(i, j) for j in range(n)] for i in range(n)] == lattice_oracle.marks(g)


@pytest.mark.parametrize(
    "g", [g for _, g in ORACLE_GROUPS] + random_perm_groups(),
    ids=[name for name, _ in ORACLE_GROUPS]
        + [f"perm{i}" for i in range(len(random_perm_groups()))],
)
def test_coset_maps_match_oracle(g):
    """``_maps`` names each coset of K by its least element and tests H
    against the conjugates of K; the oracle conjugates every element of H
    into K, coset by coset.  Each list's length is the mark, which counts
    the conjugates of H inside K instead."""
    least, maps = grouptheory._maps(g)
    classes = subgroup_classes(g)
    assert len(least) == len(classes)
    for row, cls in zip(least, classes):
        cosets = lattice_oracle._left_cosets(g, cls.representative)
        assert row == [min(c) for x in range(g.order) for c in cosets if x in c]
    assert maps == lattice_oracle.coset_maps(g)
    n = len(maps)
    m = table_of_marks(g).matrix
    assert [[len(maps[i][j]) for j in range(n)] for i in range(n)] == \
        [[m.get(i, j) for j in range(n)] for i in range(n)]


def nu_via_orbit_category(g):
    """D mu_bar2 D^-1 over subgroup classes, D = diag(|W_G H|), with mu_bar2
    from the chain walk on Or(G), reordered from object to class order."""
    cat = orbit_category(g)
    order = list(cat.objects)
    mu = reorder(dense.mu_bar2(euler_characteristics(iso_order(cat))), order, order)
    weyl = [c.weyl_order for c in subgroup_classes(g)]
    n = len(weyl)
    labels = [c.label for c in subgroup_classes(g)]
    return dense.QMatrix(n, n, [Fraction(weyl[i]) * mu.get(i, j) / weyl[j]
                                for i in range(n) for j in range(n)], labels, labels)


@pytest.mark.parametrize(
    "g", [g for _, g in ORACLE_GROUPS] + random_perm_groups(),
    ids=[name for name, _ in ORACLE_GROUPS]
        + [f"perm{i}" for i in range(len(random_perm_groups()))],
)
def test_nu_matches_orbit_category_route(g):
    assert dense.matrix(nu_matrix(g)) == nu_via_orbit_category(g)


def test_nu_needs_no_orbit_category(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nu_matrix reached the orbit category")

    monkeypatch.setattr(fincat, "orbit_category", refuse)
    monkeypatch.setattr(moebius, "euler_characteristics", refuse)
    for spec in ("symmetric:4", "dihedral:8", "q8"):
        g = build_group(spec)
        # new groups, equal to g, start with empty memos
        nu = [list(row) for row in nu_matrix(FiniteGroup(g.table, g.names)).rows]
        assert nu == lattice_oracle.nu_matrix_via_chains(g).to_lists()
        ones = burnside_congruences(FiniteGroup(g.table, g.names), [1] * len(nu))[0]
        assert ones == [sum(row) for row in nu]


def test_spec_strings_that_parse_alike_share_one_group():
    assert build_group("sym:4") is build_group("symmetric:4") is build_group(" s:4")
    assert build_group("klein") is build_group("product:cyclic:2+cyclic:2")
    assert build_group("c:3") is build_group("cyclic:3")
    assert build_group("d:4") is build_group("dihedral:4")
    assert build_group("prod:c:2+c:2") is build_group("product:cyclic:2+cyclic:2")
    assert build_group("sym:4", cap=120) is not build_group("sym:4")
    assert build_group({"kind": "symmetric", "n": 4}) is not build_group("sym:4")


def test_repeated_calls_write_each_memo_key_once():
    from test_moebius import recording_memo  # test_moebius imports this module

    g = symmetric_group(4)
    memo = recording_memo(g)
    for _ in range(3):
        subgroup_classes(g)
        table_of_marks(g)
        nu_matrix(g)
        burnside_congruences(g, [1] * len(subgroup_classes(g)))
        orbit_category(g)
        GCWComplex(g, [(0, [0])])
    assert memo.builds == ["subgroup_classes", "table_of_marks", "_nu_rows", "_maps",
                           "orbit_category", "_class_of"]


def test_a_group_from_a_table_keeps_its_own_memo():
    g = build_group("dihedral:4")
    table_of_marks(g)
    h = FiniteGroup(g.table, g.names)
    assert h == g and h._memo == {}
    assert table_of_marks(h) is not table_of_marks(g)
    assert table_of_marks(h).matrix.rows == table_of_marks(g).matrix.rows
    assert list(h._memo) == ["subgroup_classes", "table_of_marks"]
    with pytest.raises(TypeError):  # equal groups share no value-keyed cache
        hash(h)


@pytest.mark.parametrize("g", [symmetric_group(4), dihedral_group(6), build_group("q8")],
                         ids=["s4", "d6", "q8"])
def test_closure_matches_oracle(g):
    rng = random.Random(5)
    for _ in range(60):
        elems = rng.sample(range(g.order), rng.randint(0, 3))
        assert closure(g, elems) == lattice_oracle.closure(g, elems)


def test_s5_lattice():
    g = symmetric_group(5)
    classes = subgroup_classes(g)
    assert len(subgroups(g)) == 156
    assert len(classes) == 19
    assert sum(len(c.conjugates) for c in classes) == 156
    m = table_of_marks(g).matrix
    for i, c in enumerate(classes):
        assert m.get(i, i) == c.weyl_order
        assert m.get(0, i) == 120 // len(c.representative)


S5 = build_group("symmetric:5", cap=120)
S6 = build_group("symmetric:6", cap=720)
A5 = build_group("perm:[[1,2,0,3,4],[0,1,3,4,2]]", cap=120)
F20 = build_group("perm:[[1,2,3,4,0],[0,2,4,1,3]]", cap=120)
LARGER_GROUPS = [("S5", S5), ("A5", A5), ("F20", F20), ("S6", S6)]


def test_larger_groups_have_their_orders():
    assert [g.order for _, g in LARGER_GROUPS] == [120, 60, 20, 720]


@pytest.mark.parametrize("g", [g for _, g in ORACLE_GROUPS] + [S5],
                         ids=[name for name, _ in ORACLE_GROUPS] + ["S5"])
def test_least_names_each_coset_by_its_minimum(g):
    """``_least``, the one coset walk of the library, against the frozenset
    cosets of the tests: for every class representative K and its
    normaliser, it is constant on each left coset xK and equals its least
    element; the cosets partition G, K first."""
    for cls in subgroup_classes(g):
        for k in (cls.representative, cls.normalizer):
            cosets = left_cosets(g, k)
            assert cosets[0] == k and len(cosets) * len(k) == g.order
            assert sorted(x for c in cosets for x in c) == list(range(g.order))
            least = grouptheory._least(g, k)
            assert all({least[x] for x in c} == {min(c)} for c in cosets)


@pytest.mark.parametrize(
    "g", [g for _, g in ORACLE_GROUPS] + random_perm_groups() + [g for _, g in LARGER_GROUPS],
    ids=[name for name, _ in ORACLE_GROUPS]
        + [f"perm{i}" for i in range(len(random_perm_groups()))]
        + [name for name, _ in LARGER_GROUPS],
)
def test_lattice_matches_the_cyclic_join_route(g):
    """One join per normaliser orbit and one conjugation per coset of the
    normaliser find the classes that joining every cyclic subgroup and
    conjugating by every element find."""
    classes = subgroup_classes(g)
    expected = lattice_oracle.cyclic_join_classes(g)
    assert [c.conjugates for c in classes] == [e[0] for e in expected]
    assert [c.representative for c in classes] == [e[0][0] for e in expected]
    assert [c.normalizer for c in classes] == [e[2] for e in expected]
    assert [c.weyl_order for c in classes] == [len(e[2]) // len(e[0][0]) for e in expected]
    for c in classes:
        assert closure(g, c.generators) == c.representative
    assert [list(row) for row in grouptheory.marks(g)] == \
        lattice_oracle.marks_by_formula(g, expected)


def _perms(g):
    """The permutations of a group built from permutations of at most ten
    points, read back from their names."""
    return [tuple(map(int, name)) for name in g.names]


@pytest.mark.parametrize(
    "g", [symmetric_group(n) for n in range(1, 6)] + random_perm_groups()
    + [A5, F20, S6, build_group("q8"), build_group("a4")],
    ids=[f"sym:{n}" for n in range(1, 6)]
        + [f"perm{i}" for i in range(len(random_perm_groups()))]
        + ["A5", "F20", "S6", "q8", "a4"],
)
def test_table_matches_all_pairs(g):
    perms = _perms(g)
    assert perms == sorted(perms) and perms[0] == tuple(range(len(perms[0])))
    assert [list(row) for row in g.table] == lattice_oracle.table_by_all_pairs(perms)


@pytest.mark.parametrize("g,bound", [(S5, 300), (S6, 3000)], ids=["S5", "S6"])
def test_lattice_closure_count(monkeypatch, g, bound):
    """One join per normaliser orbit keeps the closures few: the route
    that joined every cyclic subgroup closed 1,198 times on S5 and 19,747
    times on S6."""
    calls = [0]
    orig = grouptheory.closure

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(grouptheory, "closure", counted)
    classes = grouptheory.subgroup_classes.__wrapped__(g)
    assert len(classes) == {120: 19, 720: 56}[g.order]
    assert 0 < calls[0] <= bound


def test_build_group_cap():
    with pytest.raises(CapExceeded, match="cap 10"):
        build_group("sym:4", cap=10)
    with pytest.raises(CapExceeded):  # before a table of 10^12 entries is built
        build_group("cyclic:1000000", cap=64)
    with pytest.raises(CapExceeded):
        build_group("product:dihedral:4+dihedral:4+dihedral:4", cap=64)
    with pytest.raises(CapExceeded):  # before the table's group axioms are checked
        build_group({"kind": "table", "table": [[0] * 65] * 65}, cap=64)
    assert build_group("symmetric:5", cap=120).order == 120


def test_symmetric_cap_before_the_table(monkeypatch):
    """symmetric:n is bounded by the cap alone, checked before any
    permutation is multiplied; n! is multiplied out only until it passes the
    cap, so a huge degree is refused at once.  A degree below 1 stays a
    malformed spec whatever the cap."""

    def refuse(elems, gens):
        raise AssertionError("the symmetric group was built")

    monkeypatch.setattr(grouptheory, "_group_from_perms", refuse)
    for spec, cap, message in (("symmetric:5", 64, "group order 120 exceeds cap 64"),
                               ("symmetric:5", 10, "group order 120 exceeds cap 10"),
                               ("symmetric:6", 64, "group order exceeds cap 64"),
                               ("symmetric:6", 719, "group order 720 exceeds cap 719"),
                               ("symmetric:7", 720, "group order 5040 exceeds cap 720"),
                               ("symmetric:1000000000", 64, "group order exceeds cap 64")):
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as err:
            build_group(spec, cap=cap)
        assert str(err.value) == message
        assert time.perf_counter() - start < 1.0
    for cap in (64, 720):
        with pytest.raises(ValueError, match="n >= 1") as err:
            build_group("symmetric:0", cap=cap)
        assert not isinstance(err.value, CapExceeded)


def test_symmetric_6_is_the_permutation_spec():
    """At cap 720 symmetric:6 builds, and its table and names are those of
    S6 generated by a transposition and a 6-cycle: both sort the 720
    permutations."""
    sym = build_group("symmetric:6", cap=720)
    perm = build_group("perm:[[1,0,2,3,4,5],[1,2,3,4,5,0]]", cap=720)
    assert sym.order == 720
    assert (sym.table, sym.names) == (perm.table, perm.names)


@pytest.mark.parametrize("spec", [
    {"kind": "dihedral", "n": 2.5},
    {"kind": "cyclic", "n": True},
    {"kind": "cyclic", "n": "3"},
    {"kind": "symmetric"},
    {"kind": "product", "factors": []},
    {"kind": "product", "factors": [5]},
    {"kind": "table", "table": [[0, 1], 5]},
    {"kind": "table", "table": [[0]], "names": 7},
    {"kind": "perm", "generators": [[1, 0.0]]},
    {"kind": "perm", "generators": None},
], ids=repr)
def test_build_group_rejects_malformed_spec(spec):
    with pytest.raises(ValueError) as exc:
        build_group(spec)
    assert not isinstance(exc.value, CapExceeded)
