"""Iso-class poset, chain bisets, Moebius matrices, Euler characteristics."""

import json
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catrank import corpus, moebius
from catrank.cli import main
from catrank.exactq import rat_str
from catrank.fincat import (
    FiniteCategory,
    biset_category,
    classify,
    coproduct,
    delooping,
    iso_order,
    opposite,
    orbit_category,
    poset_category,
    product,
    validate,
)
from catrank.grouptheory import build_group, cyclic_group, symmetric_group
from catrank.leinster import coweighting, weighting
from catrank.moebius import euler_characteristics, omega_bar2

import dense
import genrandom
from assembly_oracle import from_table, ids_reversed
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
from dense import QMatrix
from json_oracle import emitted
from rref_oracle import mat_invert
from test_fincat import retract_pair, indiscrete_pair, divisor_poset
from test_grouptheory import ORACLE_GROUPS


def span_category() -> FiniteCategory:
    return from_table(
        ["0", "1", "2"], [0, 1, 2, 0, 0], [0, 1, 2, 1, 2], [0, 1, 2],
        {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (1, 3): 3, (4, 0): 4, (2, 4): 4},
    )


def parallel_pair() -> FiniteCategory:
    return from_table(
        ["0", "1"], [0, 1, 0, 0], [0, 1, 1, 1], [0, 1],
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 0): 3, (1, 3): 3},
    )


def subsets_category(q: int) -> FiniteCategory:
    """Nonempty subsets of {0..q}; one arrow J -> K whenever K is inside J."""
    elems = []
    for mask in range(1, 1 << (q + 1)):
        elems.append(mask)
    return poset_category([str(m) for m in elems],
                          [(str(a), str(b)) for a in elems for b in elems if a | b == a])


def collapsed_action_category() -> FiniteCategory:
    """x < y < z with aut(y) of order 2 acting trivially on mor(x, y) and on
    mor(y, z): EI but not free, so chain inversion and matrix inversion of
    omega genuinely part ways."""
    return from_table(
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
    mu = dense.mu_bar2(euler_characteristics(poset))
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

    def test_span_order(self):
        cat = span_category()
        poset = iso_order(cat)
        assert poset.labels == ("0", "1", "2")
        assert class_table_oracle.lengths(poset) == (0, 1, 1)
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
        assert class_table_oracle.lengths(poset) == (0, 1, 1, 2, 2, 3)

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


def _table_cases():
    """The EI corpus entries and their opposites, subsets-q 0-5, Or(G) and
    Or(G)^op for S3, D8 and Q8, and seeded inflations (extra isomorphic
    copies of objects) of free EI draws and of bisets; the orbit categories
    and inflated bisets again with their morphism ids reversed."""
    cases = []
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat)["is_ei"]:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    cases += [(f"subsets-q {q}", corpus.build("subsets-q", q=q)) for q in range(6)]
    for spec in ("symmetric:3", "dihedral:4", "q8"):
        cat = orbit_category(build_group(spec))
        cases += [(f"Or({spec})", cat), (f"Or({spec})^op", opposite(cat))]
    rng = random.Random(47)
    for i in range(6):
        free = genrandom.random_free_ei_category(rng)
        cases.append((f"inflated free {i}", genrandom.random_inflation(rng, free)[0]))
        g, h, left, right, _ = genrandom.random_biset(rng)
        biset = biset_category(g, h, left, right)
        cases.append((f"inflated biset {i}", genrandom.random_inflation(rng, biset)[0]))
    return cases + [(f"{name} ids reversed", ids_reversed(cat))
                    for name, cat in cases if name.startswith(("Or(", "inflated biset"))]


TABLE_CASES = _table_cases()


@pytest.mark.parametrize("name,cat", TABLE_CASES, ids=[name for name, _ in TABLE_CASES])
def test_class_table_counts_the_hom_sets(name, cat):
    """homs[i][j] is |hom(rep i, rep j)| as an int, zero below the diagonal
    of the iso order, with |aut(rep i)| on the diagonal; acts[i] has an
    entry for each class above i, one per automorphism of rep i."""
    poset = iso_order(cat)
    reps = poset.reps
    for i, x in enumerate(reps):
        assert [type(h) for h in poset.homs[i]] == [int] * poset.size
        assert list(poset.homs[i]) == [len(cat.hom(x, y)) for y in reps]
        assert not any(poset.homs[i][:i])
        assert poset.homs[i][i] == len(cat.aut(x))
        assert sorted(poset.acts[i]) == [t for t in range(i + 1, poset.size) if poset.homs[i][t]]
        assert all(len(cs) == poset.homs[i][i] for cs in poset.acts[i].values())


def _sparse_route_cases():
    """TABLE_CASES, subsets-q 6, Or(G) and Or(G)^op for S4 and C2^4, and
    the corpus entries that are not EI, with their opposites."""
    cases = list(TABLE_CASES) + [("subsets-q 6", corpus.build("subsets-q", q=6))]
    for spec in ("symmetric:4", "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2"):
        cat = orbit_category(build_group(spec))
        cases += [(f"Or({spec})", cat), (f"Or({spec})^op", opposite(cat))]
    for name in corpus.names():
        cat = corpus.build(name)
        if not classify(cat)["is_ei"]:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    return cases


SPARSE_ROUTE_CASES = _sparse_route_cases()


def _action_cases():
    """Or(G)^op for ORACLE_GROUPS, whose Weyl groups fix morphisms, and
    seeded non-free biset draws, every other one inflated and some others
    multiplied by a small poset, with their opposites."""
    cases = [(f"ORACLE_GROUPS Or({name})^op", opposite(orbit_category(g)))
             for name, g in ORACLE_GROUPS]
    rng = random.Random(34)
    draws = []
    while len(draws) < 12:
        g, h, left, right, _ = genrandom.random_biset(rng)
        cat = biset_category(g, h, left, right)
        if classify(cat)["is_free"]:
            continue
        if len(draws) % 2:
            cat = genrandom.random_inflation(rng, cat)[0]
        elif len(draws) % 3 == 0 and cat.n_morphisms <= 40:
            cat = product(cat, genrandom.random_poset_category(rng, max_nodes=3))
        draws.append(cat)
    for i, cat in enumerate(draws):
        cases += [(f"non-free draw {i}", cat), (f"non-free draw {i}^op", opposite(cat))]
    return cases


ACTION_CASES = _action_cases()


@pytest.mark.parametrize("name,cat", SPARSE_ROUTE_CASES + ACTION_CASES,
                         ids=[name for name, _ in SPARSE_ROUTE_CASES + ACTION_CASES])
def test_class_table_matches_the_dense_route(name, cat):
    """iso_order reads only the morphisms out of the representatives and
    the one orbit walk; the dense oracle counts every pair of classes and
    composes every automorphism with every morphism.  A category that is
    not EI is refused with the same message on both routes."""
    try:
        expected = class_table_oracle.iso_order(cat)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            iso_order(cat)
        return
    assert iso_order(cat) == expected


def test_sparse_route_cases_cover_non_ei():
    assert sum(not classify(cat)["is_ei"] for _, cat in SPARSE_ROUTE_CASES) >= 2


def test_table_cases_cover_inflations_and_automorphisms():
    assert any(len(members) > 1 for _, cat in TABLE_CASES for members in iso_order(cat).members)
    assert any(h[i] > 2 for _, cat in TABLE_CASES for i, h in enumerate(iso_order(cat).homs))
    assert any(min(cat.aut(x)) != cat.identity[x]
               for _, cat in TABLE_CASES for x in range(cat.n_objects))


def test_action_cases_are_not_free():
    """Only the orbit categories of the trivial group are free."""
    free = [name for name, cat in ACTION_CASES if classify(cat)["is_free"]]
    assert free == ["ORACLE_GROUPS Or(cyclic:1)^op", "ORACLE_GROUPS Or(sym:1)^op"]
    assert any(len(c) > 1 for _, cat in ACTION_CASES for act in iso_order(cat).acts
               for cs in act.values() for fixed in cs for c in fixed)


def test_engine_reads_the_class_table_alone():
    """Build the class table, drop the category: euler_characteristics,
    omega_bar2 and the weightings' triangular solve give the same numbers
    from a copy of the table that shares no object with the category."""
    for name, cat in TABLE_CASES + ACTION_CASES:
        poset = iso_order(cat)
        rep, om = euler_characteristics(poset), dense.matrix(omega_bar2(poset))
        w, cw = weighting(cat), coweighting(cat)
        table = pickle.loads(pickle.dumps(poset))
        assert table == poset and table is not poset
        got = euler_characteristics(table)
        assert (got.labels, got.orbits, got.fixed, got.rows, got.sizes) == \
            (rep.labels, rep.orbits, rep.fixed, rep.rows, rep.sizes), name
        assert (got.chi, got.chi2) == (rep.chi, rep.chi2)
        assert dense.matrix(omega_bar2(table)) == om, name
        for columns, report in ((False, w), (True, cw)):
            x, q = moebius._ei(table, columns)
            assert x == [report.solution[r] for r in table.reps], name
            assert q == [report.dens[r] for r in table.reps], name


def test_invariants_do_not_depend_on_morphism_ids():
    for spec in ("symmetric:3", "dihedral:4"):
        cat = opposite(orbit_category(build_group(spec)))
        table, other = iso_order(cat), iso_order(ids_reversed(cat))
        a, b = euler_characteristics(table), euler_characteristics(other)
        assert (a.orbits, a.fixed, a.rows, a.sizes) == (b.orbits, b.fixed, b.rows, b.sizes)
        assert dense.matrix(omega_bar2(table)) == dense.matrix(omega_bar2(other))


def test_weightings_and_omega_count_no_hom_set_again(monkeypatch):
    """Once the class table is built, the weighting, the coweighting and
    omega_bar2 read it alone: no hom or aut set is listed again."""
    cats = [cat for _, cat in TABLE_CASES]
    expected = [(weighting(cat), coweighting(cat), dense.matrix(omega_bar2(iso_order(cat))))
                for cat in cats]

    def refuse(self, i, j=None):
        raise AssertionError("a hom set is counted again")

    monkeypatch.setattr(FiniteCategory, "hom", refuse)
    monkeypatch.setattr(FiniteCategory, "aut", refuse)
    for cat, (w, cw, om) in zip(cats, expected):
        got = weighting(cat), coweighting(cat), dense.matrix(omega_bar2(iso_order(cat)))
        assert (got[0].solution, got[0].dens, got[0].kernel) == (w.solution, w.dens, w.kernel)
        assert (got[1].solution, got[1].dens, got[1].kernel) == (cw.solution, cw.dens, cw.kernel)
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
        om = dense.matrix(omega_bar2(iso_order(span_category())))
        assert [om.row(i) for i in range(3)] == [(1, 1, 1), (0, 1, 0), (0, 0, 1)]

    def test_mu_span(self):
        mu = dense.mu_bar2(euler_characteristics(iso_order(span_category())))
        assert [mu.row(i) for i in range(3)] == [(1, -1, -1), (0, 1, 0), (0, 0, 1)]

    def test_omega_unit_upper_triangular(self):
        rng = random.Random(5)
        for _ in range(8):
            cat = genrandom.poset_of_groups(rng)
            om = dense.matrix(omega_bar2(iso_order(cat)))
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
            assert classify(cat)["is_free"]
            om = dense.matrix(omega_bar2(iso_order(cat)))
            mu = dense.mu_bar2(euler_characteristics(iso_order(cat)))
            assert om.mul(mu).is_identity()
            assert mu.mul(om).is_identity()
            assert mu == mat_invert(om)

    def test_mu_differs_from_inverse_when_not_free(self):
        cat = collapsed_action_category()
        rep = classify(cat)
        assert rep["is_ei"] and not rep["is_free"]
        mu = dense.mu_bar2(euler_characteristics(iso_order(cat)))
        inv = mat_invert(dense.matrix(omega_bar2(iso_order(cat))))
        assert mu != inv
        assert mu.at("x", "z") == 0 and inv.at("x", "z") == Fraction(-1, 2)

    def test_max_chain_length_truncates(self):
        """The walk oracle under a cut: at length 0 only the one-class
        chains count; a bound at the longest chain cuts nothing and gives
        the library's mu_bar2, a shorter one cuts."""
        _, _, mu0, cut0 = walk_sums(span_category(), 0)
        assert QMatrix.from_rows(mu0).is_identity() and cut0
        full = euler_characteristics(iso_order(divisor_poset(12)))
        _, _, mu, cut = walk_sums(divisor_poset(12), 5)
        assert mu == rows(dense.mu_bar2(full)) and not cut
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
        rep = euler_characteristics(iso_order(span_category()))
        assert dense.chi_f(rep).entries == (-1, 1, 1)
        assert rep.chi == 1 and rep.chi2 == 1

    def test_parallel_pair(self):
        rep = euler_characteristics(iso_order(parallel_pair()))
        assert dense.chi_f(rep).entries == (-1, 1)
        assert rep.chi == 0 and rep.chi2 == 0

    def test_subsets_have_terminal_homotopy_type(self):
        for q in (1, 2):
            cat = subsets_category(q)
            rep = euler_characteristics(iso_order(cat))
            assert rep.chi == 1
            assert nerve_by_listing_chains(cat) == 1

    def test_delooping(self):
        for spec in ("cyclic:2", "sym:3", "q8"):
            g = build_group(spec)
            rep = euler_characteristics(iso_order(delooping(g)))
            assert dense.chi_f(rep).entries == (1,)
            assert rep.chi == 1
            assert dense.chi_f2(rep).entries == (Fraction(1, g.order),)
            assert rep.chi2 == Fraction(1, g.order)

    def test_orbit_poset_of_order_two(self):
        cat = from_table(
            ["a", "b"], [0, 1, 0, 0], [0, 1, 0, 1], [0, 1],
            {(0, 0): 0, (1, 1): 1, (2, 2): 0, (0, 2): 2, (2, 0): 2,
             (3, 0): 3, (3, 2): 3, (1, 3): 3},
        )
        assert validate(cat) == []
        rep = euler_characteristics(iso_order(cat))
        assert dense.chi_f2(rep).entries == (0, 1)
        assert dense.chi_f(rep).entries == (0, 1)
        assert chi_f2_via_eta(cat).entries == (0, 1)

    def test_eta_route_matches_direct(self):
        rng = random.Random(13)
        cats = [span_category(), divisor_poset(12),
                delooping(symmetric_group(3))]
        cats += [genrandom.poset_of_groups(rng) for _ in range(6)]
        for cat in cats:
            poset = iso_order(cat)
            rep = euler_characteristics(poset)
            assert chi_f2_via_eta(cat) == dense.chi_f2(rep)
            # omega applied to chi_f2 recovers the 1/|aut| vector
            eta = dense.matrix(omega_bar2(poset)).mul_vec(dense.chi_f2(rep))
            assert eta.entries == tuple(Fraction(1, len(cat.aut(r))) for r in poset.reps)

    def test_eta_route_requires_free(self):
        with pytest.raises(ValueError, match="free"):
            chi_f2_via_eta(collapsed_action_category())

    def test_chi_f_integral(self):
        rng = random.Random(17)
        for _ in range(6):
            cat = genrandom.poset_of_groups(rng)
            rep = euler_characteristics(iso_order(cat))
            assert all(type(n) is int for n in rep.orbits)

    def test_invariant_under_opposite_for_groupoids(self):
        # one-object groupoids: the opposite group is isomorphic, same counts
        for spec in ("sym:3", "q8"):
            cat = delooping(build_group(spec))
            a = euler_characteristics(iso_order(cat))
            b = euler_characteristics(iso_order(opposite(cat)))
            assert a.chi == b.chi and a.chi2 == b.chi2

    def test_max_chain_length_zero(self):
        chi_f, _, _, _ = walk_sums(span_category(), 0)
        assert chi_f == [1, 1, 1]
        assert chi_f != euler_characteristics(iso_order(span_category())).orbits


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
        rep = euler_characteristics(iso_order(cat))
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
        if not rep["has_trivial_endomorphisms"]:
            assert "chi_nerve omitted: nontrivial endomorphism" in doc["warnings"]
            assert "chi_nerve" not in doc["invariants"]
            seen["endomorphism"] += 1
            continue
        expected = sum(walk_sums(cat)[0]) if cat is slow else nerve_by_listing_chains(cat)
        cycle = "chi_nerve omitted: nonidentity morphisms form a cycle" in doc["warnings"]
        assert cycle == (expected is None) == (not rep["is_skeletal"])
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
    it in index order.  Its composition rows are ranges: i -> j sits at
    place j among the morphisms out of i, and (j -> p) o (i -> j) = i -> p."""

    def __init__(self, n):
        self.objects = list(range(n))
        self.n_objects = n
        pairs = [(i, j) for i in range(n) for j in range(i + 1)]
        self.n_morphisms = len(pairs)
        self.dom = [i for i, _ in pairs]
        self.cod = [j for _, j in pairs]
        self.identity = [i * (i + 1) // 2 + i for i in range(n)]
        self.at = self.cod
        self.rows = [range(i * (i + 1) // 2, i * (i + 1) // 2 + j + 1) for i, j in pairs]
        self._memo = {}

    def is_iso(self, m):
        return self.dom[m] == self.cod[m]

    def aut(self, i):
        return (self.identity[i],)

    def obj_index(self, obj):
        return obj


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
    assert class_table_oracle.lengths(poset) == tuple(range(2 * limit))
    assert poset.reps == tuple(reversed(range(2 * limit)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_free_ei_identities_hold_randomly(seed):
    rng = random.Random(seed)
    cat = genrandom.poset_of_groups(rng)
    om = dense.matrix(omega_bar2(iso_order(cat)))
    rep = euler_characteristics(iso_order(cat))
    assert om.mul(dense.mu_bar2(rep)).is_identity()
    assert chi_f2_via_eta(cat) == dense.chi_f2(rep)
    assert all(type(n) is int for n in rep.orbits)


def _oracle_cases():
    cases = []
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat)["is_ei"]:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    for spec in ("symmetric:3", "dihedral:4", "q8"):
        cases.append((f"Or({spec})", orbit_category(build_group(spec))))
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
    assert any(not classify(cat)["is_free"] for _, cat in cases)
    for name, cat in cases:
        for length in (None, 0, 1, 2):
            assert walk_sums(cat, length) == chain_sums(cat, length), (name, length)


def test_longest_chain_decides_the_cut():
    """A bound cuts a chain exactly when it is below the longest chain of
    the class poset, the test ``catrank euler`` makes instead of summing."""
    cuts = set()
    for name, cat in _oracle_cases():
        longest = max(class_table_oracle.lengths(iso_order(cat)), default=0)
        for length in (0, 1, 2, 3):
            truncated = walk_sums(cat, length)[3]
            assert (longest > length) == truncated, (name, length)
            cuts.add(truncated)
    assert cuts == {False, True}
