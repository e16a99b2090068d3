"""The back-substitution on categories whose endomorphisms are all
identities: mu_bar2, chi_f, chi_f2, weighting and coweighting against the
brute-force chain sums, matrix inversion of omega_bar2 and the general
solver, the chain walk oracle under a cut, and guards that each route runs
exactly where it should."""

import random

import pytest

from catrank import corpus, leinster
from catrank.exactq import solve_linear
from catrank.fincat import (biset_category, classify, delooping, iso_order, opposite,
                            orbit_category, product)
from catrank.grouptheory import build_group
from catrank.leinster import coweighting, weighting, zeta_matrix
from catrank.moebius import euler_characteristics, omega_bar2

import class_table_oracle
import dense
import genrandom
from chain_oracle import chain_sums, walk_sums
from rref_oracle import mat_invert
from test_assembly import random_categories
from test_fincat import divisor_poset
from test_moebius import _oracle_cases, recording_memo


def _trivial_endos(cat) -> bool:
    return classify(cat).has_trivial_endomorphisms


def _cases():
    """Posets, their inflations, opposites and products, and every category
    with trivial endomorphisms among the chain-walk oracle cases."""
    cases = [(f"subsets-q {q}", corpus.build("subsets-q", q=q)) for q in range(6)]
    cases += [(f"divisors {n}", divisor_poset(n)) for n in (1, 2, 12, 30, 36)]
    cases.append(("indiscrete-2", corpus.build("indiscrete-2")))
    cases += [(name, cat) for name, cat in _oracle_cases() if _trivial_endos(cat)]
    # the draws of test_assembly's random_categories at its seed
    rng = random.Random(404)
    drawn = [cat for cat in random_categories(rng, 15) if _trivial_endos(cat)]
    small = [cat for cat in drawn if cat.n_objects <= 4]
    for i, cat in enumerate(drawn):
        cases.append((f"drawn {i}", cat))
        cases.append((f"drawn {i}^op", opposite(cat)))
        cases.append((f"inflated {i}", genrandom.random_inflation(rng, cat)[0]))
        other = small[i % len(small)]
        cases.append((f"drawn {i} x small", product(cat, other)))
    return cases


CASES = _cases()


def test_cases_cover_both_weighting_routes():
    skeletal = [classify(cat).is_skeletal for _, cat in CASES]
    assert any(skeletal) and not all(skeletal)
    assert len(CASES) > 100


@pytest.mark.parametrize("name,cat", CASES, ids=[name for name, _ in CASES])
def test_route_matches_oracles(name, cat):
    assert _trivial_endos(cat)
    rep = euler_characteristics(iso_order(cat))
    chi_f, chi_f2, mu_rows, truncated = chain_sums(cat)
    assert rep.orbits == chi_f
    assert list(dense.chi_f2(rep)) == chi_f2
    assert dense.mu_bar2(rep).to_lists() == mu_rows
    assert not truncated
    assert dense.mu_bar2(rep) == mat_invert(dense.matrix(omega_bar2(iso_order(cat))))
    assert rep.chi == sum(chi_f) and rep.chi2 == sum(chi_f2)

    n = cat.n_objects
    for got, zeta in ((weighting(cat), zeta_matrix(cat)),
                      (coweighting(cat), zeta_matrix(opposite(cat)))):
        ref = solve_linear(zeta.rows, [1] * n, n)
        assert got.consistent == ref.consistent
        assert (got.solution, got.dens) == (ref.solution, ref.dens)
        assert got.kernel_dim == ref.kernel_dim
        if classify(cat).is_skeletal:
            assert got.consistent and got.kernel_dim == 0


def test_indiscrete_pair_keeps_the_solver():
    cat = corpus.build("indiscrete-2")
    assert not classify(cat).is_skeletal
    w, cw = weighting(cat), coweighting(cat)
    assert w.consistent and w.kernel_dim == 1
    assert cw.consistent and cw.kernel_dim == 1


def _refuse(what):
    def refuse(*args, **kwargs):
        raise RuntimeError(f"{what} was called")
    return refuse


def _rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def test_untruncated_posets_skip_the_chain_walk():
    """On a poset a bound at or above the longest chain cuts nothing: the
    walk oracle then gives the library's report, and below it the walk
    cuts, which is when ``catrank euler`` omits the chain invariants."""
    cat = corpus.build("subsets-q", q=5)
    assert max(class_table_oracle.lengths(iso_order(cat))) == 5
    full = euler_characteristics(iso_order(cat))
    for length in (5, 50):
        chi_f, chi_f2, mu_rows, truncated = walk_sums(cat, length)
        assert not truncated
        assert chi_f == full.orbits and chi_f2 == list(dense.chi_f2(full))
        assert mu_rows == _rows(dense.mu_bar2(full))
    for length in (1, 4):
        assert walk_sums(cat, length)[3]


def test_nontrivial_automorphisms_take_the_same_route():
    """Free EI categories with nontrivial automorphisms and non-free ones
    get the report the walk oracle gives without a cut, and the walk cuts
    exactly below the longest chain."""
    free = [orbit_category(build_group("symmetric:3")),
            product(delooping(build_group("cyclic:2")), divisor_poset(4))]
    for cat in free:
        assert not _trivial_endos(cat) and classify(cat).is_free
        longest = max(class_table_oracle.lengths(iso_order(cat)))
        assert longest >= 2
        rep = euler_characteristics(iso_order(cat))
        _, _, mu_rows, truncated = walk_sums(cat, longest)
        assert mu_rows == _rows(dense.mu_bar2(rep)) and not truncated
        assert walk_sums(cat, longest - 1)[3]
    rng = random.Random(7)
    non_free = [corpus.build("biset-trivial-c2-c2")]
    non_free += [biset_category(*genrandom.random_biset(rng)[:4]) for _ in range(12)]
    non_free = [cat for cat in non_free if not classify(cat).is_free]
    assert len(non_free) > 4
    for cat in non_free:
        rep = euler_characteristics(iso_order(cat))
        chi_f, chi_f2, mu_rows, _ = walk_sums(cat)
        assert (chi_f, chi_f2, mu_rows) == (rep.orbits, list(dense.chi_f2(rep)),
                                            _rows(dense.mu_bar2(rep)))


def test_weighting_route_needs_skeletal_and_trivial_endomorphisms(monkeypatch):
    """Every EI category, skeletal or not, takes the triangular
    back-substitution; only non-EI categories reach the general solver."""
    monkeypatch.setattr(leinster, "solve_linear", _refuse("solve_linear"))
    for cat in (corpus.build("subsets-q", q=5), delooping(build_group("cyclic:2")),
                orbit_category(build_group("symmetric:3")),
                corpus.build("indiscrete-2")):
        weighting(cat)
        coweighting(cat)
    for other in (corpus.build("leinster-A"), corpus.build("section8")):
        for solve in (weighting, coweighting):
            with pytest.raises(RuntimeError, match="solve_linear"):
                solve(other)


def test_class_table_is_built_once_per_category():
    cat = corpus.build("subsets-q", q=4)
    memo = recording_memo(cat)
    weighting(cat)
    coweighting(cat)
    euler_characteristics(iso_order(cat))
    omega_bar2(iso_order(cat))
    euler_characteristics(iso_order(cat))
    assert memo.builds == ["_hom_sets", "_inverses", "ei_witness", "aut_orbits", "iso_order",
                           "weighting", "coweighting"]


def test_ei_verdict_is_scanned_once_per_category(monkeypatch):
    """classify, iso_order and both weightings read one memoised EI verdict:
    the endomorphisms of a category are scanned once, and a non-EI category
    keeps its witness, its iso_order message and the general solver."""
    cat = corpus.build("subsets-q", q=3)
    memo = recording_memo(cat)
    classify(cat)
    weighting(cat)
    coweighting(cat)
    iso_order(cat)
    euler_characteristics(iso_order(cat))
    assert memo.builds == ["_hom_sets", "_inverses", "ei_witness", "aut_orbits",
                           "iso_order", "weighting", "coweighting"]
    monkeypatch.setattr(leinster, "solve_linear", _refuse("solve_linear"))
    for name in ("section8", "leinster-A"):
        other = corpus.build(name)
        memo = recording_memo(other)
        assert classify(other).witnesses["is_ei"] == (4,)
        for solve in (weighting, coweighting):
            with pytest.raises(RuntimeError, match="solve_linear"):
                solve(other)
        with pytest.raises(ValueError) as err:
            iso_order(other)
        assert str(err.value) == ("iso class order needs an EI category; "
                                  "morphism 4 is a non-invertible endomorphism")
        assert memo.builds == ["_hom_sets", "_inverses", "ei_witness", "aut_orbits"]
