"""Which integer vectors are mark vectors of honest G-sets?

A finite G-set S has a mark vector xi with xi_(H) = |S^H|.  Not every
integer vector arises this way: the image of the mark homomorphism is cut
out by congruences, one per subgroup class, with coefficients from the
integral nu matrix:

    sum_j nu[i][j] * xi_j  = 0   (mod |W(H_i)|)   for every class i.

burnside_check evaluates exactly these congruences.
"""

import random

from catrank.grouptheory import build_group, burnside_check, nu_matrix, subgroup_classes

g = build_group("cyclic:6")
classes = subgroup_classes(g)
nu = nu_matrix(g)

print("G = Z/6, subgroup classes:", [c.label for c in classes])
print("moduli |W(H)|:", [c.weyl_order for c in classes])
print("nu rows:", [list(row) for row in nu.rows])
print()

# an honest G-set: the disjoint union G/1 + G/(Z/3).  Fixed points of H
# on G/K: all |G/K| points if H <= K, none otherwise (G abelian).
xi = [6 + 2, 0 + 0, 0 + 2, 0 + 0]  # classes ordered 1, Z/2, Z/3, Z/6
print("xi of G/1 + G/(Z/3)   =", xi, "->", burnside_check(g, xi))

# tweak one coordinate and the congruences notice
bad = list(xi)
bad[1] += 1
print("same with xi_(Z/2)+1  =", bad, "->", burnside_check(g, bad))
print()

# virtual G-sets (differences of honest ones) also pass; the congruences
# characterize the image of the mark map on the whole Burnside ring
print("xi of G/1 - G/(Z/2)   =", [6 - 3, -3, 0, 0], "->",
      burnside_check(g, [3, -3, 0, 0]))
print()

rng = random.Random(4)
hits = 0
for _ in range(2000):
    v = [rng.randint(-5, 5) for _ in classes]
    hits += burnside_check(g, v)
print(f"random vectors in [-5,5]^4 passing: {hits}/2000")
print("(the congruence lattice has index prod |W(H)| =",
      "*".join(str(c.weyl_order) for c in classes), "= 36 in Z^4,",
      "so about 2000/36 =", 2000 // 36, "expected)")
