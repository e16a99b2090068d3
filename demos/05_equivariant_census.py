"""Equivariant cell censuses and fixed-point Euler characteristics.

For a finite group G acting cellularly on a finite complex, all that the
rank-level invariants see is the census: how many cell orbits of each
dimension with which stabilizer class.  chi_G packages the signed counts
per class; applying omega_bar2 of the orbit category recovers the
fixed-point Euler characteristics chi(X^H) scaled by the Weyl group
orders.
"""

from catrank.grouptheory import build_group, subgroup_classes
from catrank.orbitcat import GCWComplex, chi_G, fixed_point_euler, verify_omega_relation

g = build_group("dihedral:4")
classes = subgroup_classes(g)
print("G = D4 (order 8),", len(classes), "subgroup classes")
print()

# D4 acting on the boundary circle of the square: one orbit of 4 corners
# (each stabilized by a diagonal reflection), one orbit of 4 edge
# midpoints (stabilized by the other reflection class), and a free orbit
# of 8 half-edges connecting them.
trivial = next(c for c in classes if len(c.representative) == 1)
refl = [c for c in classes
        if len(c.representative) == 2 and len(c.conjugates) == 2]
assert len(refl) == 2
cells = [
    (0, tuple(sorted(refl[0].representative))),   # 4 corners
    (0, tuple(sorted(refl[1].representative))),   # 4 midpoints
    (1, tuple(sorted(trivial.representative))),   # 8 half-edges
]
x = GCWComplex(g, cells)

v = chi_G(x)
print("census (dim, stabilizer):", [(d, set(s)) for d, s in cells])
print("chi_G signed orbit counts per class:",
      {str(c.label): n for c, n in zip(classes, v)})
print()

print("fixed-point Euler characteristics:")
for c in classes:
    print(f"   H = {str(set(c.label)):22s} chi(X^H) = {fixed_point_euler(x, c)}")
print()
print("chi(X^1) = 4 + 4 - 8 = 0, the circle.  Each reflection fixes the")
print("two corners (or two midpoints) on its axis, chi = 2.  Rotations and")
print("the larger subgroups act without fixed points, chi = 0.")
print()

ok, lhs, rhs = verify_omega_relation(x)
print("omega_bar2 . chi_G == chi(X^H) / |W(H)| per class:", ok)
assert ok
