"""The class-function back-substitution of free EI categories: chi_f, chi_f2
and mu_bar2 against the brute-force chain sums and the chain walk, the
freeness test that hands non-free categories to the walk, and guards that
each route runs exactly where it should."""

import random

import pytest

from catrank import corpus, moebius
from catrank.fincat import classify, full_subcategory, opposite
from catrank.grouptheory import build_group
from catrank.moebius import euler_characteristics
from catrank.orbitcat import orbit_category

import genrandom
from chain_oracle import chain_sums

ORBIT_SPECS = ("symmetric:3", "symmetric:4", "dihedral:4", "q8", "product:cyclic:2+symmetric:3",
               "cyclic:12", "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2", "symmetric:5")
PROPER_SPECS = ("symmetric:4", "dihedral:6", "product:cyclic:2+symmetric:3")


def _cases():
    """Every EI corpus entry and its opposite, Or(G) for ORBIT_SPECS, Or(G)
    without G/G for PROPER_SPECS and its opposite, and seeded free EI draws,
    every other one inflated."""
    cases = []
    for name in corpus.names():
        cat = corpus.build(name)
        if classify(cat).is_ei:
            cases += [(name, cat), (f"{name}^op", opposite(cat))]
    for spec in ORBIT_SPECS:
        cases.append((f"Or({spec})", orbit_category(build_group(spec, 120)).category))
    # without its terminal object G/G, the automorphisms of the lower classes
    # act on the upper chains with varying fixed points, so chi_f depends on
    # f_t(a_x(b)) at every a, not on f_t(1) alone
    for spec in PROPER_SPECS:
        cat = orbit_category(build_group(spec)).category
        top = moebius.iso_order(cat).labels[-1]
        proper = full_subcategory(cat, [o for o in cat.objects if o != top])[0]
        cases += [(f"Or({spec}) proper", proper), (f"Or({spec}) proper^op", opposite(proper))]
    rng = random.Random(1989)
    for i in range(40):
        cat = genrandom.random_free_ei_category(rng)
        if i % 2:
            cases.append((f"inflated free {i}", genrandom.random_inflation(rng, cat)[0]))
        else:
            cases.append((f"free {i}", cat))
    return cases


CASES = _cases()


def walk(cat):
    """euler_characteristics with the back-substitution refused, so the
    chain walk runs; the category's memo is left as it was found."""
    memo = cat._memo
    kept = memo.pop("moebius", None)
    memo["moebius"] = None
    try:
        return euler_characteristics(cat)
    finally:
        del memo["moebius"]
        if kept is not None:
            memo["moebius"] = kept


def _refuse(what):
    def refuse(*args, **kwargs):
        raise RuntimeError(f"{what} was called")
    return refuse


def test_cases_cover_both_routes_and_nontrivial_groups():
    free = [classify(cat).is_free for _, cat in CASES]
    assert any(free) and not all(free)
    skeletal = [classify(cat).is_skeletal for _, cat in CASES]
    assert any(skeletal) and not all(skeletal)
    assert sum(1 for _, cat in CASES
               if any(len(cat.aut(x)) > 2 for x in range(cat.n_objects))) > 10


@pytest.mark.parametrize("name,cat", CASES, ids=[name for name, _ in CASES])
def test_route_matches_walk_and_oracle(name, cat):
    free = classify(cat).is_free
    assert (moebius._back_substitute(cat) is not None) == free
    rep, ref = euler_characteristics(cat), walk(cat)
    chi_f, chi_f2, mu_rows, truncated = chain_sums(cat)
    for got in (rep, ref):
        assert list(got.chi_f) == chi_f
        assert list(got.chi_f2) == chi_f2
        assert [list(got.mu_bar2.row(i)) for i in range(got.mu_bar2.rows)] == mu_rows
        assert got.chi == sum(chi_f) and got.chi2 == sum(chi_f2)
        assert not got.truncated and not truncated
    assert rep.labels == ref.labels


def test_nonfree_orbits_hand_over_to_the_walk(monkeypatch):
    """A biset with stabilisers has short orbits: the back-substitution
    declines it, and the walk (here refused) must run."""
    cat = corpus.build("biset-trivial-c2-c2")
    assert not classify(cat).is_free
    assert moebius._back_substitute(cat) is None
    monkeypatch.setattr(moebius, "_extend", _refuse("_extend"))
    with pytest.raises(RuntimeError, match="_extend"):
        euler_characteristics(cat)


def test_route_asserts_integral_chi_f(monkeypatch):
    """Burnside's lemma makes sum f_i(b) a multiple of |A_i|; a wrong class
    function is an internal error, not a silent fraction."""
    cat = corpus.build("delooping-c3")
    f, g = moebius._back_substitute(cat)
    monkeypatch.setattr(moebius, "_back_substitute", lambda cat: ([[1, 1, 0]], g))
    with pytest.raises(AssertionError, match="chi_f not integral"):
        euler_characteristics(cat)
    assert f == [[1, 1, 1]]


def test_orbit_category_only_the_route_reaches(monkeypatch):
    """Or(C2^3 x C4), 118 classes: the walk takes about half a second, the
    back-substitution a few hundredths; both give the same report."""
    cat = orbit_category(build_group("product:cyclic:2+cyclic:2+cyclic:2+cyclic:4")).category
    assert moebius.iso_order(cat).size == 118
    ref = walk(cat)
    with monkeypatch.context() as m:
        m.setattr(moebius, "_extend", _refuse("_extend"))
        rep = euler_characteristics(cat)
    assert rep.chi_f == ref.chi_f and rep.chi_f2 == ref.chi_f2
    assert rep.mu_bar2 == ref.mu_bar2
    assert (rep.chi, rep.chi2, rep.truncated) == (ref.chi, ref.chi2, False)
