"""Symmetrization of the magnetic boundary operator on a non-sphere.

On a perturbed sphere the magnetic operator is far from normal in the
plain coefficient inner product, but becomes self-adjoint once the
subspace Grams built from the single layer are used.  The commutation
identities that power the construction are verified on random fields.
"""

import numpy as np

from mnpspr import (
    apply_N,
    apply_Q,
    calderon_residual,
    perturbed_sphere,
    self_adjointness_residual,
)
from mnpspr.surface import TangentField, random_band_limited

L = 12
print("surface: rho = 1 + 0.05 Re Y_2^0, L =", L)
grid = perturbed_sphere(0.05, 2, 0, L)
rng = np.random.default_rng(0)

print("\ncommutation identities on random band-limited fields:")
for i in range(3):
    t = TangentField.from_potentials(V=random_band_limited(rng, 9, 2.5), L=L, flavor="curl")
    r1 = calderon_residual("curl", t, grid, L)
    t2 = TangentField.from_potentials(X=random_band_limited(rng, 9, 2.5), L=L, flavor="div")
    r2 = calderon_residual("grad", t2, grid, L)
    print(f"  field {i}: curl side {r1:.2e}   gradient side {r2:.2e}")

print("\nself-adjointness residual of the restricted magnetic operator:")
print(f"  natural Gram : {self_adjointness_residual('M_curl', grid, L):.2e}")
print(f"  identity Gram: {self_adjointness_residual('M_curl', grid, L, 'identity'):.2e}")
print("  (the weight is what makes the operator symmetric)")

print("\nkernel characterizations of the symmetrizers:")
g = TangentField.from_potentials(X=random_band_limited(rng, 9), L=L, flavor="curl")
out = apply_N(g, grid, L)
print(f"  N on a pure gradient field -> {np.max(np.abs(out.V.coeffs)):.2e}")
f = TangentField.from_potentials(V=random_band_limited(rng, 9), L=L, flavor="div")
outq = apply_Q(f, grid, L)
print(f"  Q on a pure rotational field -> {np.max(np.abs(outq.X.coeffs)):.2e}")
