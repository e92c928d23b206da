"""Closed-form sphere actions versus direct quadrature.

The curl and double curl of the Helmholtz vector single layer act on the
tangential harmonics of a sphere through products of spherical
Bessel/Hankel functions.  This script checks all eight interior/exterior
cases against the quadrature engine, and verifies the one-sided jump of
the normal derivative of the scalar single layer by extrapolation.
"""

import numpy as np

from mnpspr import ShCoeffs, offboundary_eval, sphere_surface
from mnpspr.mie import sphere_oracle_errors
from mnpspr.sphharm import cartesian_to_angles

grid = sphere_surface(1.0, 16)
xhat = np.array([0.6, 0.64, 0.48])

print("== dual-path comparison of the eight closed forms (k = 1) ==")
print(" family  kind        side      n=1..4 worst rel err")
for (l, which, side), worst in sphere_oracle_errors(grid, 4, 1.0, 1.0, 12).items():
    print(f"   {l}     {which:<10s}  {side:<8s}  {worst:.2e}")

print("\n== jump of the normal derivative of the scalar single layer ==")
print(" n   exterior extrap   interior extrap   +-1/2 + 1/(2(2n+1))")
ts = np.array([0.1, 0.05, 0.025, 0.0125])
th, ph, _ = cartesian_to_angles(xhat)
for n in range(0, 4):
    dens = ShCoeffs.unit(n, 0, L=8)
    y = grid.values_at([dens], {"theta": th, "phi": ph})[0, 0].real
    vp, vm = [], []
    for t in ts:
        gp = offboundary_eval(dens, 0.0, (1 + t) * xhat, "gradS", grid)
        gm = offboundary_eval(dens, 0.0, (1 - t) * xhat, "gradS", grid)
        vp.append(np.dot(gp, xhat).real)
        vm.append(np.dot(gm, xhat).real)
    ext = np.polyval(np.polyfit(ts, vp, 3), 0.0) / y
    inn = np.polyval(np.polyfit(ts, vm, 3), 0.0) / y
    lam = 1.0 / (2 * (2 * n + 1))
    print(f"{n:2d}   {ext:+.8f}      {inn:+.8f}      {0.5+lam:+.8f} / {-0.5+lam:+.8f}")
