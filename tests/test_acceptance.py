"""Acceptance suite: one test per contract criterion, all comparisons exact.

Each test checks the library against an independent oracle: hand-computed
tables, the textbook recursive Moebius function, brute-force fixed-point
counting, or closed-form formulas, never against the code path under test.
numpy appears only for batching the exhaustive integer grids in the Burnside
test; every comparison is still exact integer arithmetic.
"""

import random
from fractions import Fraction as F

import numpy as np

from catrank import corpus
from catrank.fincat import (
    biset_category,
    classify,
    coproduct,
    fiber_category,
    is_covering,
    is_isofibration,
    iso_order,
    opposite,
    orbit_category,
    product,
    skeleton,
)
from catrank.grouptheory import (
    build_group,
    burnside_check,
    nu_matrix,
    subgroup_classes,
    table_of_marks,
)
from catrank.leinster import chi_L, weighting, weighting_from_cells, zeta_matrix
from catrank.moebius import euler_characteristics, omega_bar2
from catrank.orbitcat import GCWComplex, verify_omega_relation

import chain_oracle
import dense
from chain_oracle import chi_f2_via_eta, nerve_by_listing_chains
from genrandom import (
    action_groupoid,
    action_groupoid_to_quotient,
    quotient_delooping_functor,
    random_biset,
    random_dag_category,
    random_free_ei_category,
    random_gcw,
    random_inflation,
)
from rref_oracle import mat_invert
from test_fincat import divisor_poset
from test_moebius import classical_mobius, integral_pair, subsets_category


def chi2_of(cat) -> F:
    return euler_characteristics(iso_order(cat)).chi2


def test_01_retract_pair_regression():
    cat = corpus.build("section8")
    z = zeta_matrix(cat)
    assert z.rows == [(2, 1), (1, 2)]
    mu = mat_invert(dense.matrix(z))
    assert mu.to_lists() == [[F(2, 3), F(-1, 3)], [F(-1, 3), F(2, 3)]]
    assert chi_L(cat) == F(2, 3)


def test_02_inconsistent_weighting_regression():
    cat = corpus.build("leinster-A")
    assert not weighting(cat).consistent
    assert chi_L(cat) == "undefined"
    rep = classify(cat)
    assert rep["is_cauchy_complete"] and not rep["is_directly_finite"]


def test_03_cyclic_prime_marks_and_nu():
    for p in (2, 3, 5):
        g = build_group(f"cyclic:{p}")
        assert table_of_marks(g).matrix.rows == ((p, 1), (0, 1))
        assert nu_matrix(g).rows == ((1, -1), (0, 1))
        # the single congruence: xi_1 = xi_2 mod p
        for x1 in range(-6, 7):
            for x2 in range(-6, 7):
                assert burnside_check(g, (x1, x2)) == ((x1 - x2) % p == 0)


def test_04_burnside_soundness_and_completeness():
    rng = random.Random(40)
    groups = [build_group(s) for s in ("cyclic:6", "symmetric:3", "dihedral:4",
                                       "klein", "a4")]

    # soundness: the mark vector of an honest G-set always passes.  Build a
    # disjoint union of coset spaces and count its fixed points directly.
    for g in groups:
        classes = subgroup_classes(g)
        for _ in range(40):
            points: list[frozenset] = []
            for _ in range(rng.randint(1, 4)):
                k = rng.choice(classes).representative
                seen: set[frozenset] = set()
                for x in range(g.order):
                    cs = frozenset(g.table[x][e] for e in k)
                    if cs not in seen:
                        seen.add(cs)
                        points.append(cs)
            xi = []
            for cls in classes:
                h = cls.representative
                xi.append(sum(
                    1 for cs in points
                    if all(frozenset(g.table[e][y] for y in cs) == cs for e in h)
                ))
            assert burnside_check(g, xi)

    # completeness and soundness over the whole grid [-3,3]^classes for the
    # groups of order <= 8, against an independent integer solve of M.n = xi
    for g in groups:
        if g.order > 8:
            continue
        classes = subgroup_classes(g)
        k = len(classes)
        nu = np.array(nu_matrix(g).rows, dtype=np.int64)
        marks = np.array(table_of_marks(g).matrix.rows, dtype=np.int64)
        mod = np.array([c.weyl_order for c in classes], dtype=np.int64)
        vals = np.arange(-3, 4, dtype=np.int64)
        grid = np.meshgrid(*[vals] * k, indexing="ij")
        xi = np.stack([a.ravel() for a in grid], axis=0)

        congruent = ((nu @ xi) % mod[:, None] == 0).all(axis=0)

        # the marks matrix is upper triangular with the Weyl orders on the
        # diagonal, so xi is an integer combination of coset-space columns
        # iff back-substitution stays integral the whole way up
        solvable = np.ones(xi.shape[1], dtype=bool)
        resid = xi.copy()
        for i in range(k - 1, -1, -1):
            q, r = np.divmod(resid[i], marks[i, i])
            solvable &= r == 0
            if i:
                resid[:i] -= marks[:i, i][:, None] * q[None, :]
        assert (congruent == solvable).all()
        assert congruent.any() and not congruent.all()

        # tie the batched predicate back to the scalar entry point
        for _ in range(500):
            col = rng.randrange(xi.shape[1])
            assert burnside_check(g, [int(v) for v in xi[:, col]]) == bool(congruent[col])


def test_05_rational_moebius_inversion():
    specs = [f"cyclic:{n}" for n in range(1, 25)] + [
        "klein", "symmetric:3", "dihedral:4", "q8", "product:cyclic:2+cyclic:4",
        "a4", "dihedral:6", "product:cyclic:2+cyclic:6",
        "product:cyclic:3+cyclic:3", "dihedral:5", "dihedral:7", "dihedral:8",
        "dihedral:9", "dihedral:10", "dihedral:12", "symmetric:4",
    ]
    for spec in specs:
        g = build_group(spec)
        assert g.order <= 24
        cat = orbit_category(g)
        table = iso_order(cat)
        om, mu = dense.matrix(omega_bar2(table)), dense.mu_bar2(euler_characteristics(table))
        assert mu.mul(om).is_identity() and om.mul(mu).is_identity(), spec

    rng = random.Random(50)
    for i in range(50):
        cat = random_free_ei_category(rng)
        rep = classify(cat)
        assert rep["is_ei"] and rep["is_free"] and rep["is_skeletal"]
        table = iso_order(cat)
        om, mu = dense.matrix(omega_bar2(table)), dense.mu_bar2(euler_characteristics(table))
        assert mu.mul(om).is_identity() and om.mul(mu).is_identity(), i


def test_06_integral_moebius_inversion():
    def check(cat, leq, elems):
        a, b = integral_pair(cat)
        want_a, want_b, labels = chain_oracle.integral_moebius(cat)
        assert a.row_labels == b.row_labels == labels
        assert a.to_lists() == want_a and b.to_lists() == want_b
        assert a.is_integral() and b.is_integral()
        assert a.mul(b).is_identity() and b.mul(a).is_identity()
        mu = classical_mobius(leq, elems)
        for i, ri in enumerate(b.row_labels):
            for j, cj in enumerate(b.col_labels):
                assert b.get(i, j) == mu(int(cj), int(ri))

    for n in range(1, 61):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        leq = {(x, y) for x in divs for y in divs if y % x == 0}
        check(divisor_poset(n), leq, divs)

    for q in range(5):
        masks = list(range(1, 1 << (q + 1)))
        # arrow J -> K iff K is a subset of J
        leq = {(a, b) for a in masks for b in masks if a & b == b}
        check(subsets_category(q), leq, masks)


def test_07_chi2_equals_chi_L_with_nonfree_correction():
    rng = random.Random(70)
    for i in range(50):
        cat = random_free_ei_category(rng)
        assert chi2_of(cat) == chi_L(cat), i

    produced = 0
    while produced < 20:
        g, h, left, right, stats = random_biset(rng)
        # the left action is free iff every orbit has full size |G|
        if F(stats["size"], g.order) == stats["g_orbits"]:
            continue
        produced += 1
        cat = biset_category(g, h, left, right)
        assert not classify(cat)["is_free"]
        gap = (F(stats["g_orbits"]) - F(stats["size"], g.order)) * F(-1, h.order)
        assert gap != 0
        assert chi2_of(cat) - chi_L(cat) == gap


def test_08_biset_closed_forms():
    rng = random.Random(80)
    for _ in range(20):
        g, h, left, right, stats = random_biset(rng)
        cat = biset_category(g, h, left, right)
        rep = euler_characteristics(iso_order(cat))
        assert rep.labels == ("x", "y")
        assert rep.orbits == [1 - stats["double_orbits"], 1]
        assert rep.chi == 2 - stats["double_orbits"]
        assert rep.chi2 == F(1, h.order) + F(1, g.order) - F(stats["g_orbits"], h.order)


def test_09_coverings_and_isofibrations():
    # n-sheeted coverings: translation groupoids over the delooping
    pairs = [("cyclic:2", 1), ("cyclic:4", 2), ("cyclic:5", 1), ("cyclic:6", 2),
             ("cyclic:6", 3), ("symmetric:3", 2), ("symmetric:3", 3),
             ("dihedral:4", 4), ("q8", 4), ("cyclic:8", 4)]
    for spec, hsize in pairs:
        g = build_group(spec)
        h = next(c.representative for c in subgroup_classes(g)
                 if len(c.representative) == hsize)
        cat, p = action_groupoid(g, h)
        ok, n = is_covering(p)
        assert ok and n == g.order // hsize
        assert chi2_of(cat) == n * chi2_of(p.target)

    # isofibrations with connected fibers multiply instead
    quotients = [("cyclic:4", (0, 2)), ("cyclic:6", (0, 2, 4)), ("cyclic:6", (0, 3)),
                 ("symmetric:3", None), ("dihedral:4", None), ("q8", None)]
    for spec, nelems in quotients:
        g = build_group(spec)
        if nelems is None:  # pick a proper nontrivial normal subgroup
            nelems = next(tuple(sorted(c.representative)) for c in subgroup_classes(g)
                          if 1 < len(c.representative) < g.order
                          and len(c.conjugates) == 1)
        p = quotient_delooping_functor(g, frozenset(nelems))
        assert is_isofibration(p)
        assert not is_covering(p)[0]
        fib = fiber_category(p, "*")
        assert classify(fib)["is_connected_groupoid"]
        assert chi2_of(p.source) == chi2_of(p.target) * chi2_of(fib)

    # same formula when the total space is a translation groupoid; the fiber
    # over the point is connected because N.H exhausts G
    for spec in ("cyclic:6", "symmetric:3", "dihedral:4"):
        g = build_group(spec)
        n = next(c.representative for c in subgroup_classes(g)
                 if 2 * len(c.representative) == g.order and len(c.conjugates) == 1)
        h = next(c.representative for c in subgroup_classes(g)
                 if len(c.representative) == 2 and not c.representative <= n)
        p = action_groupoid_to_quotient(g, h, n)
        assert is_isofibration(p)
        fib = fiber_category(p, "*")
        assert classify(fib)["is_connected_groupoid"]
        assert chi2_of(p.source) == chi2_of(p.target) * chi2_of(fib)


def test_10_invariants_agree_without_endomorphisms():
    cases = [corpus.build("span"), corpus.build("parallel-pair"),
             subsets_category(1), subsets_category(2), subsets_category(3)]
    rng = random.Random(100)
    while len(cases) < 25:
        cases.append(random_dag_category(rng))
    for cat in cases:
        assert classify(cat)["has_trivial_endomorphisms"]
        rep = euler_characteristics(iso_order(cat))
        assert nerve_by_listing_chains(cat) == rep.chi == rep.chi2


def test_11_weighting_from_cells_models():
    span = corpus.build("span")
    k, ok = weighting_from_cells(span, [(1, "a"), (0, "x"), (0, "y")])
    assert ok and dict(zip(span.objects, k)) == {"a": -1, "x": 1, "y": 1}

    par = corpus.build("parallel-pair")
    k, ok = weighting_from_cells(par, [(1, "x"), (0, "y")])
    assert ok and dict(zip(par.objects, k)) == {"x": -1, "y": 1}

    for q in range(4):
        cat = corpus.subsets(q)
        cells = [(len(obj) - 1, obj) for obj in cat.objects]
        k, ok = weighting_from_cells(cat, cells)
        assert ok
        assert k == [(-1) ** (len(obj) - 1) for obj in cat.objects]


def test_12_product_coproduct_and_skeleton_invariance():
    rng = random.Random(120)
    for _ in range(12):
        c1 = random_free_ei_category(rng)
        c2 = random_free_ei_category(rng)
        if c1.n_morphisms * c2.n_morphisms > 2500:
            continue
        assert chi2_of(product(c1, c2)) == chi2_of(c1) * chi2_of(c2)
        both = coproduct(c1, c2)
        rep = euler_characteristics(iso_order(both))
        r1, r2 = euler_characteristics(iso_order(c1)), euler_characteristics(iso_order(c2))
        for lbl in r1.labels:
            assert dense.chi_f(rep).at(f"L.{lbl}") == dense.chi_f(r1).at(lbl)
        for lbl in r2.labels:
            assert dense.chi_f(rep).at(f"R.{lbl}") == dense.chi_f(r2).at(lbl)
        assert rep.chi == r1.chi + r2.chi
        assert rep.chi2 == r1.chi2 + r2.chi2

    for i in range(50):
        base = random_free_ei_category(rng)
        inflated, _ = random_inflation(rng, base)
        sk, _ = skeleton(inflated)
        assert chi2_of(inflated) == chi2_of(sk) == chi2_of(base), i
        assert chi_L(inflated) == chi_L(sk) == chi_L(base), i


def test_13_equivariant_fixed_point_relation_and_eta_route():
    rng = random.Random(130)
    groups = [build_group(s) for s in ("cyclic:2", "symmetric:3", "dihedral:4")]
    for i in range(100):
        g = groups[i % 3]
        x = GCWComplex(g, random_gcw(rng, g))
        ok, lhs, rhs = verify_omega_relation(x)
        assert ok, (i, list(lhs), list(rhs))

    for spec in ("cyclic:2", "cyclic:6", "klein", "symmetric:3", "dihedral:4", "q8"):
        cat = orbit_category(build_group(spec))
        er = euler_characteristics(iso_order(cat))
        assert list(dense.chi_f2(er)) == list(chi_f2_via_eta(cat))
    for name in corpus.names():
        cat = corpus.build(name)
        rep = classify(cat)
        if rep["is_ei"] and rep["is_free"]:
            er = euler_characteristics(iso_order(cat))
            assert list(dense.chi_f2(er)) == list(chi_f2_via_eta(cat)), name


def test_14_opposite_sensitivity():
    for name, order in (("biset-point-c2", 2), ("biset-point-c3", 3)):
        cat = corpus.build(name)
        assert chi2_of(cat) == F(1, order)
        assert chi2_of(opposite(cat)) == 1
        assert chi_L(cat) == F(1)
        assert chi_L(opposite(cat)) == F(1)
