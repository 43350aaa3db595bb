"""Resolution of the residue field and graded Ext between its twists."""

from bpsing.grading import LGroup
from bpsing.singcat import (
    GradedRing,
    bp_resolution,
    ext_formula,
    ext_k_k,
    index_set,
    validate_resolution,
)

p = (2, 3)
R = GradedRing(p)
L = R.L

print("graded pieces of the quotient ring by z-degree:")
for z in range(9):
    print("  z =", z, "monomials", R.monomials_of_weight(z))

cplx = bp_resolution(p, 8)
print()
print("free resolution, generator z-degrees per level:")
for i in sorted(cplx.levels(), reverse=True):
    degs = [L.z_degree(d) for d in cplx.generator_degrees(i)]
    print("  level", i, "labels", cplx.labels[i], "z-degrees", degs)

rep = validate_resolution(cplx, 12)
print("square-zero, homogeneous, exact through z = 12:", rep.ok)

print()
print("Ext table over the index set (counting route == formula route):")
twists = index_set(p)
for m in twists:
    row = ext_k_k(p, m, twists)
    assert row == ext_formula(p, m, twists)
    for t, dims in zip(twists, row):
        print("  ", m.raw(), "->", t.raw(), ":", dims)

d = L.normalize((-1, 0, 0))
print()
print("twist difference outside the monoid, Ext vanishes:",
      ext_k_k(p, d, [L.zero()])[0])
