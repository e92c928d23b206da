"""Weak plasmon modes and their decay away from the boundary.

Every eigenvalue of the magnetic operator on the rotational subspace picks
a negative material contrast at which the leading-order transmission
system is singular; the associated mode fields concentrate at the surface.
On a sphere the decay is exactly geometric in the mode degree; on a
perturbed sphere the squared field norms are summable and the
density-of-exceedance statistic certifies o(j^{-1/2}) decay.
"""

import numpy as np

from mnpspr import (
    PlasmonMode,
    localization_scan,
    mnp_spectra,
    perturbed_sphere,
    plasmon_field,
)


def shell(count, radius):
    k = np.arange(count) + 0.5
    th = np.arccos(1 - 2 * k / count)
    ph = np.pi * (1 + np.sqrt(5.0)) * k
    return radius * np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    )


print("== sphere: exact geometric decay ==")
x = 2.0 * np.array([0.6, 0.64, 0.48])
print(" n    |E_n|(2r)       ratio to previous")
prev = None
for n in range(6, 13):
    mode = PlasmonMode.from_sphere(2, n, 0, 1.0, omega=1.0)
    val = np.linalg.norm(plasmon_field(mode, x)[0])
    print(f"{n:2d}   {val:.6e}   " + (f"{val/prev:.4f}" if prev else "  -"))
    prev = val
print("the ratio approaches r/|x| = 1/2")

print("\n== perturbed sphere: summability and the exceedance verdict ==")
L = 12
grid = perturbed_sphere(0.05, 2, 0, L)
curl, _ = mnp_spectra(grid, L)
modes = [PlasmonMode.from_eigenmode(j, grid, L, omega=1.0) for j in range(len(curl))]
points = np.vstack([shell(40, 3.0), shell(10, 0.25)])
report = localization_scan(modes, points, eps=0.5)

sums = report.partial_sums
print(f"modes: {len(modes)}, probe points: {points.shape[0]}")
print("partial sums of squared field norms (should plateau):")
for j in (10, 40, 80, 120, len(modes)):
    print(f"  J = {j:3d}: {sums[j-1]:.6e}")
print(f"last-quartile growth: {report.plateau_fraction:.2e}  -> plateau = {report.plateau}")
print(f"fitted log-log decay rate of |E_j|: {report.fitted_rate:.2f}")
print("exceedance fractions (sigma -> fractions over growing windows):")
for s, fr in report.statistic["fractions"].items():
    print(f"  sigma = {s}: {[round(f, 4) for f in fr]}")
print(f"verdict consistent with o(j^-1/2): {report.statistic['verdict']}")
