"""Small-particle scattering near a weak resonance.

The scaled transmission system is assembled with its delta- and
delta^2-order corrections.  At the resonant contrast tau = 1/2 of the
lowest rotational mode the residual of the candidate mode pair vanishes
linearly with the size parameter, and the solve blows up like the inverse
spectral gap as the contrast is detuned.
"""

import numpy as np

from mnpspr import (
    MaterialConfig,
    SphereMode,
    assemble_system,
    dipole_incident_trace,
    mode_tangent_field,
    solve_scatter,
    sphere_surface,
    weak_resonance_indicator,
)
from mnpspr.scatter import pair_norm, resonance_shift

grid = sphere_surface(1.0, 10)
src = np.array([0.0, 0.0, 6.0])
p = np.array([1.0, 0.5, 0.0])
candidate = mode_tangent_field(SphereMode(2, 1, 0), grid.L_quad)

print("== weak-resonance indicator at tau = 1/2, mode (2,1,0) ==")
print(" delta     indicator")
vals, deltas = [], (0.1, 0.05, 0.025)
for delta in deltas:
    mats = MaterialConfig.negative_preset(0.5, 1.0, delta)
    system = assemble_system(grid, mats, order=2)
    v = weak_resonance_indicator(system, candidate)
    vals.append(v)
    print(f" {delta:<8g} {v:.6e}")
slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
print(f"log-log slope: {slope:.3f} (the residual is first order in the size)")

print("\n== detuned contrast: the indicator stays bounded below ==")
mats = MaterialConfig.negative_preset(0.6, 1.0, 0.025)
system = assemble_system(grid, mats, order=2)
gap = abs(resonance_shift(0.6) - 1.0 / 6.0)
print(f"indicator {weak_resonance_indicator(system, candidate):.4e} vs spectral gap {gap:.4e}")

print("\n== amplification of a dipole-driven solve near resonance ==")
print(" eta        |solution|      |solution| * gap")
for eta in (1e-1, 1e-2, 1e-3):
    mats = MaterialConfig.negative_preset(0.5 + eta, 1.0, 0.02)
    system = assemble_system(grid, mats, order=0)
    rhs = dipole_incident_trace(src, p, mats, grid)
    sol, cond = solve_scatter(system, rhs)
    norm = pair_norm(sol[0], sol[1], grid)
    gap = abs(resonance_shift(0.5 + eta) - 1.0 / 6.0)
    print(f" {eta:<9g} {norm:<14.6e} {norm * gap:.6e}")
print("the product is nearly constant: the blow-up is the inverse gap")
