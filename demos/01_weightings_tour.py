"""Weightings, coweightings, and the rank-style Euler characteristic.

A weighting on a finite category is a vector k with zeta . k = 1, where
zeta[x][y] = |mor(x, y)|.  When a weighting and a coweighting both exist,
their common total is chi_L, and it is the same no matter which solutions
the solver happened to pick.
"""

from fractions import Fraction

from catrank import corpus
from catrank.exactq import rat_str
from catrank.leinster import chi_L, coweighting, weighting, weighting_from_cells, zeta_matrix


def show(name, cat):
    z = zeta_matrix(cat)
    print(f"== {name} ({cat.n_objects} objects, {cat.n_morphisms} morphisms)")
    for i, lbl in enumerate(z.row_labels):
        print(f"   zeta[{lbl}] = {[int(v) for v in z.row(i)]}")
    w = weighting(cat)
    cw = coweighting(cat)
    if w.consistent:
        print("   weighting  ", {str(l): rat_str(w.solution.at(l)) for l in z.col_labels})
    else:
        print("   weighting   none: the system zeta . k = 1 is inconsistent")
    if cw.consistent:
        print("   coweighting", {str(l): rat_str(cw.solution.at(l)) for l in z.col_labels})
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
vec, ok = weighting_from_cells(cat, cells)
print("== nonempty subsets of {0,1,2}, weighting read off a cell model")
print("   cells:", cells)
print("   k =", {str(l): rat_str(vec.at(l)) for l in cat.objects}, "valid:", ok)
assert ok and sum(vec[i] for i in range(len(vec))) == Fraction(1)
print("   total =", rat_str(sum(vec[i] for i in range(len(vec)))), "(chi_L of a cone is 1)")
