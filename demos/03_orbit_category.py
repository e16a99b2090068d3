"""The orbit category of a finite group and its Moebius inversion.

Or(G) has one object per conjugacy class of subgroups and the equivariant
maps G/H -> G/K as morphisms.  Its normalized zeta matrix omega_bar2 is
unit upper triangular, and D . omega_bar2 (D = diagonal of Weyl group
orders) is the classical table of marks.
"""

from fractions import Fraction

from catrank import ratio
from catrank.fincat import classify, iso_order, orbit_category
from catrank.grouptheory import build_group, nu_matrix, subgroup_classes, table_of_marks
from catrank.moebius import euler_characteristics, omega_bar2

g = build_group("symmetric:3")
cat = orbit_category(g)
classes = subgroup_classes(g)  # object G/i is class i

print("Or(S3):", cat.n_objects, "objects,", cat.n_morphisms, "morphisms")
rep = classify(cat)
print("predicates:", ", ".join(k for k, v in rep.flags().items() if v))
print()

print("subgroup classes (representative elements / Weyl order):")
for c in classes:
    print(f"   {c.label!s:14s} |H| = {len(c.representative)}   |W(H)| = {c.weyl_order}")
print()

# the engine reads the class table alone; each matrix is integer rows, row
# i over the denominator dens[i]
table = iso_order(cat)
om = omega_bar2(table)
mu = euler_characteristics(table).mu_bar2
n = len(om.rows)


def entries(m):
    return [[Fraction(m.get(i, j), m.dens[i]) for j in range(n)] for i in range(n)]


print("omega_bar2 rows:")
for i in range(n):
    print("  ", [ratio(om.get(i, j), om.dens[i]) for j in range(n)])
print("mu_bar2 rows (inverse, via alternating chain sums):")
for i in range(n):
    print("  ", [ratio(mu.get(i, j), mu.dens[i]) for j in range(n)])
identity = [[int(i == j) for j in range(n)] for i in range(n)]
for a, b in ((om, mu), (mu, om)):
    a, b = entries(a), entries(b)
    assert [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)] == identity
print("product = identity both ways")
print()

marks = table_of_marks(g)
print("table of marks (rows: acting subgroup, cols: coset space):")
for row in marks.matrix.rows:
    print("  ", list(row))

# D . omega_bar2 equals the marks table after aligning the orders
weyl = [c.weyl_order for c in classes]
for i, row in enumerate(entries(om)):
    assert [weyl[i] * v for v in row] == list(marks.matrix.rows[i])
print("equals diag(Weyl orders) . omega_bar2, entry for entry")
print()

nu = nu_matrix(g)
print("nu matrix (integral, the Burnside congruence coefficients):")
for row in nu.rows:
    print("  ", list(row))
assert set(nu.dens) == {1}
