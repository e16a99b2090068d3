"""The back-substitution route for categories whose endomorphisms are all
identities: mu_bar2, chi_f, chi_f2, weighting and coweighting against the
brute-force chain sums, matrix inversion of omega_bar2 and the general
solver, and guards that each route runs exactly where it should."""

import random

import pytest

from catrank import corpus, leinster, moebius
from catrank.exactq import QVector, mat_invert, solve_linear
from catrank.fincat import biset_category, classify, delooping, opposite, product
from catrank.grouptheory import build_group
from catrank.leinster import coweighting, weighting, zeta_matrix
from catrank.moebius import euler_characteristics, moebius_rows, omega_bar2
from catrank.orbitcat import orbit_category

import genrandom
from chain_oracle import chain_sums
from test_assembly import random_categories
from test_fincat import divisor_poset
from test_moebius import _oracle_cases


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
    assert moebius_rows(cat) is not None
    rep = euler_characteristics(cat)
    chi_f, chi_f2, mu_rows, truncated = chain_sums(cat)
    assert list(rep.chi_f) == chi_f
    assert list(rep.chi_f2) == chi_f2
    assert [list(rep.mu_bar2.row(i)) for i in range(rep.mu_bar2.rows)] == mu_rows
    assert not rep.truncated and not truncated
    assert rep.mu_bar2 == mat_invert(omega_bar2(cat))
    assert rep.chi == sum(chi_f) and rep.chi2 == sum(chi_f2)

    ones = QVector([1] * cat.n_objects)
    for got, zeta in ((weighting(cat), zeta_matrix(cat)),
                      (coweighting(cat), zeta_matrix(opposite(cat)))):
        ref = solve_linear(zeta, ones)
        assert got.consistent == ref.consistent
        assert got.solution == ref.solution
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


def test_untruncated_posets_skip_the_chain_walk(monkeypatch):
    monkeypatch.setattr(moebius, "_extend", _refuse("_extend"))
    cat = corpus.build("subsets-q", q=5)
    assert max(moebius.iso_order(cat).lengths) == 5
    full = euler_characteristics(cat)
    assert euler_characteristics(cat, max_chain_length=5).mu_bar2 == full.mu_bar2
    assert euler_characteristics(cat, max_chain_length=50).chi_f == full.chi_f
    for length in (1, 4):
        with pytest.raises(RuntimeError, match="_extend"):
            euler_characteristics(cat, max_chain_length=length)


def test_nontrivial_automorphisms_keep_the_chain_walk(monkeypatch):
    """Free EI categories with nontrivial automorphisms skip the walk unless a
    chain is cut; non-free EI categories always walk."""
    monkeypatch.setattr(moebius, "_extend", _refuse("_extend"))
    free = [orbit_category(build_group("symmetric:3")).category,
            product(delooping(build_group("cyclic:2")), divisor_poset(4))]
    for cat in free:
        assert moebius_rows(cat) is None
        longest = max(moebius.iso_order(cat).lengths)
        assert longest >= 2  # a cut at length 0 stops before any extension
        assert euler_characteristics(cat, max_chain_length=longest).mu_bar2 == \
            euler_characteristics(cat).mu_bar2
        with pytest.raises(RuntimeError, match="_extend"):
            euler_characteristics(cat, max_chain_length=longest - 1)
    rng = random.Random(7)
    non_free = [corpus.build("biset-trivial-c2-c2")]
    non_free += [biset_category(*genrandom.random_biset(rng)[:4]) for _ in range(12)]
    non_free = [cat for cat in non_free if not classify(cat).is_free]
    assert len(non_free) > 4
    for cat in non_free:
        with pytest.raises(RuntimeError, match="_extend"):
            euler_characteristics(cat)


def test_weighting_route_needs_skeletal_and_trivial_endomorphisms(monkeypatch):
    """Skeletal EI categories take the mu_bar2 sums when free and the
    triangular back-substitution otherwise; only non-skeletal or non-EI
    categories reach the general solver."""
    monkeypatch.setattr(leinster, "solve_linear", _refuse("solve_linear"))
    for cat in (corpus.build("subsets-q", q=5), delooping(build_group("cyclic:2")),
                orbit_category(build_group("symmetric:3")).category):
        weighting(cat)
        coweighting(cat)
    for other in (corpus.build("indiscrete-2"), corpus.build("section8")):
        for solve in (weighting, coweighting):
            with pytest.raises(RuntimeError, match="solve_linear"):
                solve(other)


def test_back_substitution_runs_once_per_category(monkeypatch):
    calls = []
    inner = moebius._back_substitute

    def counted(cat):
        calls.append(cat)
        return inner(cat)

    monkeypatch.setattr(moebius, "_back_substitute", counted)
    cat = corpus.build("subsets-q", q=4)
    weighting(cat)
    coweighting(cat)
    euler_characteristics(cat)
    omega_bar2(cat)
    assert calls == [cat]
