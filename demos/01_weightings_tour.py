"""Weightings, coweightings, and the rank-style Euler characteristic.

A weighting on a finite category is a vector k with zeta . k = 1, where
zeta[x][y] = |mor(x, y)|.  When a weighting and a coweighting both exist,
their common total is chi_L, and it is the same no matter which solutions
the solver happened to pick.
"""

from catrank import corpus, ratio
from catrank.exactq import rat_str
from catrank.leinster import chi_L, coweighting, weighting, weighting_from_cells, zeta_matrix


def show(name, cat):
    z = zeta_matrix(cat)
    print(f"== {name} ({cat.n_objects} objects, {cat.n_morphisms} morphisms)")
    for lbl, row in zip(z.labels, z.rows):
        print(f"   zeta[{lbl}] = {list(row)}")
    w = weighting(cat)
    cw = coweighting(cat)
    # a solution is its numerators over one denominator per object
    if w.consistent:
        print("   weighting  ", dict(zip(z.labels, map(ratio, w.solution, w.dens))))
    else:
        print("   weighting   none: the system zeta . k = 1 is inconsistent")
    if cw.consistent:
        print("   coweighting", dict(zip(z.labels, map(ratio, cw.solution, cw.dens))))
    else:
        print("   coweighting none")
    print("   chi_L =", chi_L(cat) if chi_L(cat) == "undefined" else rat_str(chi_L(cat)))
    print()


show("span  a -> x, a -> y", corpus.build("span"))
show("parallel pair  x => y", corpus.build("parallel-pair"))

# the retract pair: an idempotent that does not split, chi_L = 2/3,
# strictly between the 0 and 1 that collapsing either way would give
show("retract pair", corpus.build("section8"))

# and a category where no weighting exists at all
show("no-weighting category", corpus.build("leinster-A"))

# when the category carries an evident cell structure, summing (-1)^dim
# over the cells based at each object is a weighting with no solving
cat = corpus.subsets(2)
cells = [(len(obj) - 1, obj) for obj in cat.objects]
k, ok = weighting_from_cells(cat, cells)
print("== nonempty subsets of {0,1,2}, weighting read off a cell model")
print("   cells:", cells)
print("   k =", {str(l): str(v) for l, v in zip(cat.objects, k)}, "valid:", ok)
assert ok and sum(k) == 1
print("   total =", sum(k), "(chi_L of a cone is 1)")
