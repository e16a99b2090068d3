"""Iso-class poset, chain bisets, Moebius matrices, Euler characteristics."""

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catrank import corpus
from catrank.cli import main
from catrank.exactq import QMatrix, rat_str
from catrank.fincat import (
    FiniteCategory,
    biset_category,
    classify,
    coproduct,
    delooping,
    from_json,
    opposite,
    poset_category,
    product,
    validate,
)
from catrank.grouptheory import build_group, cyclic_group, symmetric_group
from catrank.leinster import coweighting, weighting
from catrank.moebius import euler_characteristics, iso_order, omega_bar2
from catrank.orbitcat import orbit_category

import genrandom
import chain_oracle
import class_table_oracle
from chain_oracle import (
    Chain,
    ChainBiset,
    chain_sums,
    chi_f2_via_eta,
    class_relation,
    enumerate_chains,
    nerve_by_listing_chains,
    walk_sums,
)
from json_oracle import emitted
from rref_oracle import mat_invert
from test_fincat import retract_pair, indiscrete_pair, divisor_poset


def span_category() -> FiniteCategory:
    return FiniteCategory(
        ["0", "1", "2"], [0, 1, 2, 0, 0], [0, 1, 2, 1, 2], [0, 1, 2],
        {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (1, 3): 3, (4, 0): 4, (2, 4): 4},
    )


def parallel_pair() -> FiniteCategory:
    return FiniteCategory(
        ["0", "1"], [0, 1, 0, 0], [0, 1, 1, 1], [0, 1],
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 0): 3, (1, 3): 3},
    )


def subsets_category(q: int) -> FiniteCategory:
    """Nonempty subsets of {0..q}; one arrow J -> K whenever K is inside J."""
    elems = []
    for mask in range(1, 1 << (q + 1)):
        elems.append(mask)
    return poset_category([str(m) for m in elems],
                          lambda a, b: (int(a) | int(b)) == int(a))


def collapsed_action_category() -> FiniteCategory:
    """x < y < z with aut(y) of order 2 acting trivially on mor(x, y) and on
    mor(y, z): EI but not free, so chain inversion and matrix inversion of
    omega genuinely part ways."""
    return FiniteCategory(
        ["x", "y", "z"],
        [0, 1, 2, 1, 0, 1, 0],
        [0, 1, 2, 1, 1, 2, 2],
        [0, 1, 2],
        {
            (0, 0): 0, (1, 1): 1, (2, 2): 2,
            (3, 3): 1, (1, 3): 3, (3, 1): 3,
            (4, 0): 4, (1, 4): 4, (3, 4): 4,
            (5, 1): 5, (2, 5): 5, (5, 3): 5,
            (6, 0): 6, (2, 6): 6,
            (5, 4): 6,
        },
    )


def rows(m: QMatrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def integral_pair(cat) -> tuple[QMatrix, QMatrix]:
    """The integer zeta/Moebius pair (A, B) of a category as the library
    gives it, rows indexed by the target class in iso order:
    A[i][j] = |hom(rep j, rep i)| and B the transpose of mu_bar2.  For a
    skeletal category with trivial endomorphisms B = A^-1."""
    poset = iso_order(cat)
    reps, labels, k = poset.reps, poset.labels, poset.size
    a = [[len(cat.hom(reps[j], reps[i])) for j in range(k)] for i in range(k)]
    mu = euler_characteristics(cat).mu_bar2
    b = [[mu.get(j, i) for j in range(k)] for i in range(k)]
    return QMatrix.from_rows(a, labels, labels), QMatrix.from_rows(b, labels, labels)


def classical_mobius(leq_pairs, elems):
    """Recursive poset Moebius function, the textbook definition."""
    memo = {}

    def mu(x, y):
        if x == y:
            return 1
        if (x, y) not in leq_pairs:
            return 0
        if (x, y) not in memo:
            memo[(x, y)] = -sum(
                mu(x, z) for z in elems if (x, z) in leq_pairs and (z, y) in leq_pairs and z != y
            )
        return memo[(x, y)]

    return mu


class TestIsoOrder:
    def test_rejects_non_ei(self):
        with pytest.raises(ValueError, match="EI"):
            iso_order(retract_pair())
        with pytest.raises(ValueError, match="EI"):
            omega_bar2(retract_pair())
        with pytest.raises(ValueError, match="EI"):
            euler_characteristics(retract_pair())

    def test_span_order(self):
        cat = span_category()
        poset = iso_order(cat)
        assert poset.labels == ("0", "1", "2")
        assert poset.lengths == (0, 1, 1)
        leq = class_relation(cat, poset)
        assert leq[0][1] and leq[0][2]
        assert not leq[1][2] and not leq[2][1]

    def test_merges_isomorphic_objects(self):
        poset = iso_order(indiscrete_pair())
        assert poset.size == 1
        assert poset.members == (("0", "1"),)

    def test_length_orders_levels(self):
        poset = iso_order(divisor_poset(12))
        assert poset.labels == ("1", "2", "3", "4", "6", "12")
        assert poset.lengths == (0, 1, 1, 2, 2, 3)

    def test_chain_enumeration(self):
        cat = divisor_poset(12)
        poset = iso_order(cat)
        chains = list(enumerate_chains(cat, poset, 0, end=5))
        # 1<12, 1<2<12, 1<3<12, 1<4<12, 1<6<12, 1<2<4<12, 1<2<6<12, 1<3<6<12
        assert sorted(c.classes for c in chains) == sorted([
            (0, 5), (0, 1, 5), (0, 2, 5), (0, 3, 5), (0, 4, 5),
            (0, 1, 3, 5), (0, 1, 4, 5), (0, 2, 4, 5),
        ])
        assert all(ch.length <= 1 for ch in enumerate_chains(cat, poset, 0, max_length=1))


class RecordingMemo(dict):
    """A category's memo that lists, in order, the names its tables are
    stored under: one entry per build."""

    def __init__(self):
        super().__init__()
        self.builds = []

    def __setitem__(self, key, value):
        self.builds.append(key)
        super().__setitem__(key, value)


def recording_memo(cat) -> RecordingMemo:
    cat._memo = RecordingMemo()
    return cat._memo


def _ids_reversed(cat) -> FiniteCategory:
    """cat with its morphism ids in reverse order, so that every identity
    comes after the other endomorphisms of its object."""
    last = cat.n_morphisms - 1
    return FiniteCategory(
        cat.objects, cat.dom[::-1], cat.cod[::-1], [last - m for m in cat.identity],
        {(last - g, last - f): last - c for (g, f), c in cat.compose_table.items()})


def _table_cases():
    """The EI corpus entries and their opposites, subsets-q 0-5, Or(G) and
    Or(G)^op for S3, D8 and Q8, and seeded inflations (extra isomorphic
    copies of objects) of free EI draws and of bisets; the orbit categories
    and inflated bisets again with their morphism ids reversed."""
    cases = []
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat).is_ei:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    cases += [(f"subsets-q {q}", corpus.build("subsets-q", q=q)) for q in range(6)]
    for spec in ("symmetric:3", "dihedral:4", "q8"):
        cat = orbit_category(build_group(spec)).category
        cases += [(f"Or({spec})", cat), (f"Or({spec})^op", opposite(cat))]
    rng = random.Random(47)
    for i in range(6):
        free = genrandom.random_free_ei_category(rng)
        cases.append((f"inflated free {i}", genrandom.random_inflation(rng, free)[0]))
        g, h, left, right, _ = genrandom.random_biset(rng)
        biset = biset_category(g, h, left, right)
        cases.append((f"inflated biset {i}", genrandom.random_inflation(rng, biset)[0]))
    return cases + [(f"{name} ids reversed", _ids_reversed(cat))
                    for name, cat in cases if name.startswith(("Or(", "inflated biset"))]


TABLE_CASES = _table_cases()


@pytest.mark.parametrize("name,cat", TABLE_CASES, ids=[name for name, _ in TABLE_CASES])
def test_class_table_counts_the_hom_sets(name, cat):
    """homs[i][j] is |hom(rep i, rep j)| as an int, zero below the diagonal
    of the iso order; auts[i] is aut(rep i), identity first."""
    poset = iso_order(cat)
    reps = poset.reps
    for i, x in enumerate(reps):
        assert [type(h) for h in poset.homs[i]] == [int] * poset.size
        assert list(poset.homs[i]) == [len(cat.hom(x, y)) for y in reps]
        assert not any(poset.homs[i][:i])
        assert poset.auts[i][0] == cat.identity[x]
        assert len(poset.auts[i]) == len(cat.aut(x))
        assert set(poset.auts[i]) == set(cat.aut(x))


def _sparse_route_cases():
    """TABLE_CASES, subsets-q 6, Or(G) and Or(G)^op for S4 and C2^4, and
    the corpus entries that are not EI, with their opposites."""
    cases = list(TABLE_CASES) + [("subsets-q 6", corpus.build("subsets-q", q=6))]
    for spec in ("symmetric:4", "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2"):
        cat = orbit_category(build_group(spec)).category
        cases += [(f"Or({spec})", cat), (f"Or({spec})^op", opposite(cat))]
    for name in corpus.names():
        cat = corpus.build(name)
        if not classify(cat).is_ei:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    return cases


SPARSE_ROUTE_CASES = _sparse_route_cases()


@pytest.mark.parametrize("name,cat", SPARSE_ROUTE_CASES, ids=[name for name, _ in SPARSE_ROUTE_CASES])
def test_class_table_matches_the_dense_route(name, cat):
    """iso_order reads only the morphisms out of the representatives; the
    dense oracle counts every pair of classes.  A category that is not EI
    is refused with the same message on both routes."""
    try:
        expected = class_table_oracle.iso_order(cat)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            iso_order(cat)
        return
    assert iso_order(cat) == expected


def test_sparse_route_cases_cover_non_ei():
    assert sum(not classify(cat).is_ei for _, cat in SPARSE_ROUTE_CASES) >= 2


def test_table_cases_cover_inflations_and_automorphisms():
    assert any(len(members) > 1 for _, cat in TABLE_CASES for members in iso_order(cat).members)
    assert any(len(a) > 2 for _, cat in TABLE_CASES for a in iso_order(cat).auts)
    assert any(min(cat.aut(x)) != cat.identity[x]
               for _, cat in TABLE_CASES for x in range(cat.n_objects))


def test_invariants_do_not_depend_on_morphism_ids():
    for spec in ("symmetric:3", "dihedral:4"):
        cat = opposite(orbit_category(build_group(spec)).category)
        a, b = euler_characteristics(cat), euler_characteristics(_ids_reversed(cat))
        assert (a.chi_f, a.chi_f2, a.mu_bar2) == (b.chi_f, b.chi_f2, b.mu_bar2)
        assert omega_bar2(cat) == omega_bar2(_ids_reversed(cat))


def test_weightings_and_omega_count_no_hom_set_again(monkeypatch):
    """Once the class table is built, the weighting, the coweighting and
    omega_bar2 read it alone: no hom or aut set is listed again."""
    cats = [cat for _, cat in TABLE_CASES]
    expected = [(weighting(cat), coweighting(cat), omega_bar2(cat)) for cat in cats]

    def refuse(self, i, j=None):
        raise AssertionError("a hom set is counted again")

    monkeypatch.setattr(FiniteCategory, "hom", refuse)
    monkeypatch.setattr(FiniteCategory, "aut", refuse)
    for cat, (w, cw, om) in zip(cats, expected):
        got = weighting(cat), coweighting(cat), omega_bar2(cat)
        assert got[0].solution == w.solution and got[0].kernel == w.kernel
        assert got[1].solution == cw.solution and got[1].kernel == cw.kernel
        assert got[2] == om


class TestChainBiset:
    def test_singleton_chain_is_aut(self):
        cat = delooping(symmetric_group(3))
        poset = iso_order(cat)
        b = ChainBiset(cat, poset, Chain((0,)))
        assert b.size == 6
        assert b.left_orbit_count() == 1
        assert b.double_orbit_count() == 1

    def test_interior_quotient_collapses(self):
        cat = collapsed_action_category()
        poset = iso_order(cat)
        chain = Chain((0, 1, 2))
        b = ChainBiset(cat, poset, chain)
        # two raw tuples (h, f) and (h, s o f) but s acts trivially on both
        # sides, so the middle quotient identifies nothing; |S| stays 1*1 = 1
        assert b.size == 1

    def test_actions_commute(self):
        cat = delooping(build_group("q8"))
        poset = iso_order(cat)
        b = ChainBiset(cat, poset, Chain((0,)))
        for a in range(8):
            for c in range(8):
                for e in b.elements:
                    assert b.act_right(b.act_left(a, e), c) == b.act_left(a, b.act_right(e, c))


class TestMatrices:
    def test_omega_span(self):
        om = omega_bar2(span_category())
        assert [om.row(i) for i in range(3)] == [(1, 1, 1), (0, 1, 0), (0, 0, 1)]

    def test_mu_span(self):
        mu = euler_characteristics(span_category()).mu_bar2
        assert [mu.row(i) for i in range(3)] == [(1, -1, -1), (0, 1, 0), (0, 0, 1)]

    def test_omega_unit_upper_triangular(self):
        rng = random.Random(5)
        for _ in range(8):
            cat = genrandom.poset_of_groups(rng)
            om = omega_bar2(cat)
            for i in range(om.rows):
                assert om.get(i, i) == 1
                for j in range(i):
                    assert om.get(i, j) == 0

    def test_mu_inverts_omega_when_free(self):
        rng = random.Random(9)
        cats = [
            span_category(), parallel_pair(), divisor_poset(30),
            delooping(symmetric_group(3)),
            product(delooping(cyclic_group(2)), divisor_poset(4)),
            coproduct(delooping(cyclic_group(3)), span_category()),
        ] + [genrandom.poset_of_groups(rng) for _ in range(6)]
        for cat in cats:
            assert classify(cat).is_free
            om = omega_bar2(cat)
            mu = euler_characteristics(cat).mu_bar2
            assert om.mul(mu).is_identity()
            assert mu.mul(om).is_identity()
            assert mu == mat_invert(om)

    def test_mu_differs_from_inverse_when_not_free(self):
        cat = collapsed_action_category()
        rep = classify(cat)
        assert rep.is_ei and not rep.is_free
        mu = euler_characteristics(cat).mu_bar2
        inv = mat_invert(omega_bar2(cat))
        assert mu != inv
        assert mu.at("x", "z") == 0 and inv.at("x", "z") == Fraction(-1, 2)

    def test_max_chain_length_truncates(self):
        """The walk oracle under a cut: at length 0 only the one-class
        chains count; a bound at the longest chain cuts nothing and gives
        the library's mu_bar2, a shorter one cuts."""
        _, _, mu0, cut0 = walk_sums(span_category(), 0)
        assert QMatrix.from_rows(mu0).is_identity() and cut0
        full = euler_characteristics(divisor_poset(12))
        _, _, mu, cut = walk_sums(divisor_poset(12), 5)
        assert mu == rows(full.mu_bar2) and not cut
        assert walk_sums(divisor_poset(12), 3) == walk_sums(divisor_poset(12))
        assert walk_sums(divisor_poset(12), 2)[3]


class TestIntegralMoebius:
    """The pair (A, B) read off hom counts and mu_bar2 (``integral_pair``)
    against the textbook Moebius function and the matrix-power oracle."""

    def test_requires_skeletal_trivial_endos(self):
        with pytest.raises(ValueError, match="skeletal"):
            chain_oracle.integral_moebius(delooping(cyclic_group(2)))
        with pytest.raises(ValueError, match="skeletal"):
            chain_oracle.integral_moebius(indiscrete_pair())
        # with a nontrivial automorphism mu_bar2 is no integer inverse of A
        a, b = integral_pair(delooping(cyclic_group(2)))
        assert a.to_lists() == [[2]] and b.to_lists() == [[1]]

    def test_two_chain(self):
        a, b = integral_pair(divisor_poset(2))
        assert [a.row(0), a.row(1)] == [(1, 0), (1, 1)]
        assert [b.row(0), b.row(1)] == [(1, 0), (-1, 1)]

    def test_parallel_pair(self):
        a, b = integral_pair(parallel_pair())
        assert [a.row(0), a.row(1)] == [(1, 0), (2, 1)]
        assert [b.row(0), b.row(1)] == [(1, 0), (-2, 1)]

    @pytest.mark.parametrize("n", [4, 12, 30, 36])
    def test_divisor_posets_match_classical_recursion(self, n):
        cat = divisor_poset(n)
        a, b = integral_pair(cat)
        divs = [d for d in range(1, n + 1) if n % d == 0]
        leq = {(x, y) for x in divs for y in divs if y % x == 0}
        mu = classical_mobius(leq, divs)
        for i, di in enumerate(b.row_labels):
            for j, dj in enumerate(b.col_labels):
                assert b.get(i, j) == mu(int(dj), int(di))

    def test_divisor_anchor_values(self):
        _, b = integral_pair(divisor_poset(4))
        assert b.at("4", "1") == 0
        assert b.at("2", "1") == -1

    def test_mutually_inverse(self):
        rng = random.Random(21)
        for _ in range(6):
            cat = genrandom.random_dag_category(rng)
            a, b = integral_pair(cat)
            assert a.is_integral() and b.is_integral()
            assert a.mul(b).is_identity() and b.mul(a).is_identity()

    def test_matches_matrix_power_oracle(self):
        rng = random.Random(21)
        cats = [divisor_poset(n) for n in range(1, 61)]
        cats += [corpus.build("subsets-q", q=q) for q in range(6)]
        cats += [genrandom.random_dag_category(rng) for _ in range(6)]
        for cat in cats:
            a, b = integral_pair(cat)
            want_a, want_b, labels = chain_oracle.integral_moebius(cat)
            assert a.row_labels == a.col_labels == b.row_labels == b.col_labels == labels
            assert a.to_lists() == want_a
            assert b.to_lists() == want_b


class TestEuler:
    def test_span(self):
        rep = euler_characteristics(span_category())
        assert rep.chi_f.entries == (-1, 1, 1)
        assert rep.chi == 1 and rep.chi2 == 1

    def test_parallel_pair(self):
        rep = euler_characteristics(parallel_pair())
        assert rep.chi_f.entries == (-1, 1)
        assert rep.chi == 0 and rep.chi2 == 0

    def test_subsets_have_terminal_homotopy_type(self):
        for q in (1, 2):
            cat = subsets_category(q)
            rep = euler_characteristics(cat)
            assert rep.chi == 1
            assert nerve_by_listing_chains(cat) == 1

    def test_delooping(self):
        for spec in ("cyclic:2", "sym:3", "q8"):
            g = build_group(spec)
            rep = euler_characteristics(delooping(g))
            assert rep.chi_f.entries == (1,)
            assert rep.chi == 1
            assert rep.chi_f2.entries == (Fraction(1, g.order),)
            assert rep.chi2 == Fraction(1, g.order)

    def test_orbit_poset_of_order_two(self):
        cat = FiniteCategory(
            ["a", "b"], [0, 1, 0, 0], [0, 1, 0, 1], [0, 1],
            {(0, 0): 0, (1, 1): 1, (2, 2): 0, (0, 2): 2, (2, 0): 2,
             (3, 0): 3, (3, 2): 3, (1, 3): 3},
        )
        assert validate(cat) == []
        rep = euler_characteristics(cat)
        assert rep.chi_f2.entries == (0, 1)
        assert rep.chi_f.entries == (0, 1)
        assert chi_f2_via_eta(cat).entries == (0, 1)

    def test_eta_route_matches_direct(self):
        rng = random.Random(13)
        cats = [span_category(), divisor_poset(12),
                delooping(symmetric_group(3))]
        cats += [genrandom.poset_of_groups(rng) for _ in range(6)]
        for cat in cats:
            rep = euler_characteristics(cat)
            assert chi_f2_via_eta(cat) == rep.chi_f2
            # omega applied to chi_f2 recovers the 1/|aut| vector
            poset = iso_order(cat)
            eta = omega_bar2(cat).mul_vec(rep.chi_f2)
            assert eta.entries == tuple(Fraction(1, len(cat.aut(r))) for r in poset.reps)

    def test_eta_route_requires_free(self):
        with pytest.raises(ValueError, match="free"):
            chi_f2_via_eta(collapsed_action_category())

    def test_chi_f_integral(self):
        rng = random.Random(17)
        for _ in range(6):
            cat = genrandom.poset_of_groups(rng)
            rep = euler_characteristics(cat)
            assert rep.chi_f.is_integral()

    def test_invariant_under_opposite_for_groupoids(self):
        # one-object groupoids: the opposite group is isomorphic, same counts
        for spec in ("sym:3", "q8"):
            cat = delooping(build_group(spec))
            a = euler_characteristics(cat)
            b = euler_characteristics(opposite(cat))
            assert a.chi == b.chi and a.chi2 == b.chi2

    def test_max_chain_length_zero(self):
        chi_f, _, _, _ = walk_sums(span_category(), 0)
        assert chi_f == [1, 1, 1]
        assert chi_f != list(euler_characteristics(span_category()).chi_f)


class TestNerve:
    def test_discrete(self):
        cat = coproduct(
            poset_category(["a"], [("a", "a")]),
            poset_category(["b"], [("b", "b")]),
        )
        assert nerve_by_listing_chains(cat) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_chain_formula_on_one_way_categories(self, seed):
        rng = random.Random(seed)
        cat = genrandom.random_dag_category(rng)
        rep = euler_characteristics(cat)
        assert nerve_by_listing_chains(cat) == rep.chi
        assert rep.chi == rep.chi2


def test_nerve_matches_listed_chains(tmp_path, capsys):
    """catrank euler prints chi_nerve exactly on the skeletal categories
    with trivial endomorphisms, with the listed nerve count (the walked
    chi_f sum where listing is too slow), and warns of a cycle exactly when
    the listing finds one."""
    cats = [corpus.build(name) for name in corpus.names()]
    rng = random.Random(17)
    cats += [genrandom.random_dag_category(rng) for _ in range(30)]
    cats += [genrandom.random_poset_category(rng) for _ in range(30)]
    cats += [opposite(cat) for cat in cats]
    slow = corpus.build("subsets-q", q=6)  # listing its chains takes seconds
    cats += [corpus.build("subsets-q", q=q) for q in range(6)] + [slow]
    path = tmp_path / "cat.json"
    seen = {"nerve": 0, "cycle": 0, "endomorphism": 0}
    for cat in cats:
        path.write_text(emitted(cat))
        assert main(["euler", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        rep = classify(cat)
        if not rep.has_trivial_endomorphisms:
            assert "chi_nerve omitted: nontrivial endomorphism" in doc["warnings"]
            assert "chi_nerve" not in doc["invariants"]
            seen["endomorphism"] += 1
            continue
        expected = sum(walk_sums(cat)[0]) if cat is slow else nerve_by_listing_chains(cat)
        cycle = "chi_nerve omitted: nonidentity morphisms form a cycle" in doc["warnings"]
        assert cycle == (expected is None) == (not rep.is_skeletal)
        if expected is None:
            assert "chi_nerve" not in doc["invariants"]
            seen["cycle"] += 1
        else:
            assert doc["invariants"]["chi_nerve"] == rat_str(expected)
            seen["nerve"] += 1
    assert min(seen.values()) >= 2, seen  # indiscrete-2 and its opposite have a cycle


class _DescendingChain:
    """Just what iso_order reads of a category: n objects and one morphism
    i -> j exactly when i >= j, the identities being the only isomorphisms,
    so object 0 is the top of a chain of n classes and the others lie below
    it in index order."""

    def __init__(self, n):
        self.objects = list(range(n))
        self.n_objects = n
        pairs = [(i, j) for i in range(n) for j in range(i + 1)]
        self.n_morphisms = len(pairs)
        self.dom = [i for i, _ in pairs]
        self.cod = [j for _, j in pairs]
        self.identity = [i * (i + 1) // 2 + i for i in range(n)]
        self._memo = {}

    def is_iso(self, m):
        return self.dom[m] == self.cod[m]

    def obj_index(self, obj):
        return obj

    def morphisms_from(self, i):
        return range(i * (i + 1) // 2, i * (i + 1) // 2 + i + 1)

    def hom(self, i, j):
        return [i * (i + 1) // 2 + j] if i >= j else []


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_iso_order_is_not_recursive():
    old = sys.getrecursionlimit()
    limit = _stack_depth() + 100
    sys.setrecursionlimit(limit)
    try:
        poset = iso_order(_DescendingChain(2 * limit))
    finally:
        sys.setrecursionlimit(old)
    assert poset.lengths == tuple(range(2 * limit))
    assert poset.reps == tuple(reversed(range(2 * limit)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_free_ei_identities_hold_randomly(seed):
    rng = random.Random(seed)
    cat = genrandom.poset_of_groups(rng)
    om = omega_bar2(cat)
    rep = euler_characteristics(cat)
    assert om.mul(rep.mu_bar2).is_identity()
    assert chi_f2_via_eta(cat) == rep.chi_f2
    assert rep.chi_f.is_integral()


def _oracle_cases():
    cases = []
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat).is_ei:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    for spec in ("symmetric:3", "dihedral:4", "q8"):
        cases.append((f"Or({spec})", orbit_category(build_group(spec)).category))
    rng = random.Random(31)
    for i in range(12):
        base = genrandom.random_free_ei_category(rng)
        cases.append((f"free {i}", base))
        cases.append((f"inflated {i}", genrandom.random_inflation(rng, base)[0]))
        cases.append((f"dag {i}", genrandom.random_dag_category(rng)))
        # bisets with stabilizers are EI but not free; a poset factor puts
        # their automorphism groups in the interior of longer chains
        g, h, left, right, _ = genrandom.random_biset(rng)
        biset = biset_category(g, h, left, right)
        cases.append((f"biset {i}", biset))
        cases.append((f"inflated biset {i}", genrandom.random_inflation(rng, biset)[0]))
        if biset.n_morphisms <= 40:
            poset = genrandom.random_poset_category(rng, max_nodes=3)
            cases.append((f"biset x poset {i}", product(biset, poset)))
    return cases


def test_chain_walk_matches_brute_force_oracle():
    cases = _oracle_cases()
    assert any(not classify(cat).is_free for _, cat in cases)
    for name, cat in cases:
        for length in (None, 0, 1, 2):
            assert walk_sums(cat, length) == chain_sums(cat, length), (name, length)


def test_longest_chain_decides_the_cut():
    """A bound cuts a chain exactly when it is below the longest chain of
    the class poset, the test ``catrank euler`` makes instead of summing."""
    cuts = set()
    for name, cat in _oracle_cases():
        longest = max(iso_order(cat).lengths, default=0)
        for length in (0, 1, 2, 3):
            truncated = walk_sums(cat, length)[3]
            assert (longest > length) == truncated, (name, length)
            cuts.add(truncated)
    assert cuts == {False, True}
