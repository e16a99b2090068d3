"""The orbit category of a finite group and its Moebius inversion.

Or(G) has one object per conjugacy class of subgroups and the equivariant
maps G/H -> G/K as morphisms.  Its normalized zeta matrix omega_bar2 is
unit upper triangular, and D . omega_bar2 (D = diagonal of Weyl group
orders) is the classical table of marks.
"""

from catrank.exactq import rat_str
from catrank.fincat import classify, orbit_category
from catrank.grouptheory import build_group, nu_matrix, subgroup_classes, table_of_marks
from catrank.moebius import euler_characteristics, omega_bar2

g = build_group("symmetric:3")
oc = orbit_category(g)
cat = oc.category

print("Or(S3):", cat.n_objects, "objects,", cat.n_morphisms, "morphisms")
rep = classify(cat)
print("predicates:", ", ".join(k for k, v in rep.flags().items() if v))
print()

print("subgroup classes (representative elements / Weyl order):")
for c in oc.classes:
    print(f"   {c.label!s:14s} |H| = {len(c.representative)}   |W(H)| = {c.weyl_order}")
print()

om = omega_bar2(cat)
mu = euler_characteristics(cat).mu_bar2
print("omega_bar2 rows:")
for i in range(om.rows):
    print("  ", [rat_str(v) for v in om.row(i)])
print("mu_bar2 rows (inverse, via alternating chain sums):")
for i in range(mu.rows):
    print("  ", [rat_str(v) for v in mu.row(i)])
assert om.mul(mu).is_identity() and mu.mul(om).is_identity()
print("product = identity both ways")
print()

marks = table_of_marks(g)
print("table of marks (rows: acting subgroup, cols: coset space):")
for i in range(marks.matrix.rows):
    print("  ", [int(v) for v in marks.matrix.row(i)])

# D . omega_bar2 equals the marks table after aligning the orders
weyl = [c.weyl_order for c in oc.classes]
for i in range(om.rows):
    row = [weyl[i] * v for v in om.row(i)]
    assert row == list(marks.matrix.row(i))
print("equals diag(Weyl orders) . omega_bar2, entry for entry")
print()

nu = nu_matrix(g)
print("nu matrix (integral, the Burnside congruence coefficients):")
for i in range(nu.rows):
    print("  ", [int(v) for v in nu.row(i)])
assert nu.is_integral()
