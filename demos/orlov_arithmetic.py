"""Weight sums and component groups for small exponent sequences.

The weight-sum condition picks out the sequences whose quotient ring has
trivial canonical degree; for those the component group of the diagonal
symmetry torus is the interesting invariant.
"""

from fractions import Fraction

from bpsing.grading import LGroup, cy_check, orlov_group

candidates = [
    (2, 2),
    (2, 3),
    (3, 3),
    (3, 3, 3),
    (2, 3, 6),
    (2, 4, 4),
    (2, 3, 5),
    (2, 2, 2, 2),
]

for p in candidates:
    rep = cy_check(p)
    total = Fraction(sum(rep.weights), rep.ell)
    group = orlov_group(p)
    print(f"{str(p):14} weights {rep.weights} sum {total!s:>6}"
          f"  cy={rep.holds!s:5}  group {group}")

# the component group is the torsion of the grading group L, since the torus
# is Hom(L, G_m): this prints the same group as the (3, 3, 3) row above
print()
L = LGroup((3, 3, 3))
print("torsion subgroup of the grading group for (3, 3, 3):",
      L.torsion_subgroup())
