"""Spectra of the boundary operators on the unit sphere.

The scalar adjoint double layer K* has eigenvalues 1/(2(2n+1)) with
multiplicity 2n+1; the magnetic operator restricted to the two Helmholtz
subspaces reproduces them with signs -/+ for the gradient/rotational
families.  This script assembles everything by quadrature and compares
against the closed forms.
"""

import numpy as np

from mnpspr import (
    mnp_spectra,
    np_spectrum,
    sphere_mnp_eigenvalue,
    sphere_surface,
)

L = 12
print(f"building the unit sphere at L = {L} and assembling S, K, K* ...")
grid = sphere_surface(1.0, L)

# both spectra read the operators and the scalar eigensolve the grid keeps
nps = np_spectrum(grid, L)
curl, grad = mnp_spectra(grid, L)

print(f"\nscalar spectrum: {len(nps)} eigenvalues, "
      f"symmetrization residual {nps.meta['sym_residual']:.2e}")
print(" n   exact 1/(2(2n+1))   computed (cluster mean)   multiplicity")
lam = np.sort(nps.eigenvalues)[::-1]
idx = 0
for n in range(0, 7):
    block = lam[idx: idx + 2 * n + 1]
    exact = 1.0 / (2 * (2 * n + 1))
    print(f"{n:2d}   {exact:.12f}      {np.mean(block):.12f}       {block.size}")
    idx += 2 * n + 1

print("\nmagnetic subspace spectra (top of each family):")
print(" family  n   closed form        computed")
for n in (1, 2, 3):
    lam2 = sorted(curl.eigenvalues, reverse=True)
    lam1 = sorted(grad.eigenvalues)
    print(f"   rot   {n}   {float(sphere_mnp_eigenvalue(2, n)):+.12f}    "
          f"{lam2[(n - 1) ** 2 + 2 * (n - 1)]:+.12f}")
    print(f"  grad   {n}   {float(sphere_mnp_eigenvalue(1, n)):+.12f}    "
          f"{lam1[(n - 1) ** 2 + 2 * (n - 1)]:+.12f}")

print("\nthe value 1/2 (constant-density mode) has no rotational eigenfield:")
print(f"  excluded modes: {curl.meta['excluded_half']}")
print(f"  largest rotational eigenvalue: {np.max(curl.eigenvalues):.6f} (= 1/6)")
