"""Walk through the suspension pipeline one stage at a time.

Starting from the two-object chain category, stack copies, form the cones
over the connecting morphisms, and compare the result with the tensor
model for x^2 + y^3.
"""

from bpsing.dgcat import a_category, gauge_isomorphic, tensor_bp
from bpsing.suspension import (
    connector,
    directed_extension,
    fukaya_bp,
    suspension_tower,
    verify_suspension,
)
from bpsing.twisted import cohomology, cone, hom_complex

A = a_category(2)
print("base category objects:", A.objects)

# three stacked copies, ordered top level first
E = directed_extension(A, 3)
print("stacked objects:", E.objects)
print("connector (1, 2) -> (1, 1) has degree",
      E.degree(connector(E, 1, 1)))

# the cones over the connectors are the objects of the next stage
S = {(x, j): cone(E, connector(E, x, j)) for x in (1, 2) for j in (1, 2)}
for key in sorted(S):
    ends = {d: c.dim for d, c in cohomology(hom_complex(S[key], S[key])).items() if c.dim}
    print("cone", key, "endomorphism cohomology:", ends)

# one step up gives the shifted hom, two steps give nothing
up = {d: c.dim for d, c in cohomology(hom_complex(S[(1, 1)], S[(1, 2)])).items() if c.dim}
print("one step up the stack:", up)

S3 = verify_suspension(A, 3)  # raises SuspensionError if any check fails
print("suspension of the chain category by k=3 verified, objects:", S3.objects)

print()
print("tower for x^2 + y^3 + z^4:")
for stage in suspension_tower((2, 3, 4)):
    print("  stage with", len(stage.objects), "objects")

C = fukaya_bp((2, 3, 4), verify=True)
model = tensor_bp((2, 3, 4))
match = gauge_isomorphic(C, model, {x: x for x in C.objects})
print("final stage gauge-isomorphic to the tensor model:", match.ok)
