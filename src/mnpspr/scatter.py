"""Scaled transmission system for small particles and resonance sweeps.

The boundary system acts on stacked pairs of tangential fields written in
Helmholtz potentials.  At leading order in the size parameter delta both
diagonal blocks equal  (1-tau)/(2(1+tau)) I - M  with the static magnetic
operator M; the delta- and delta^2-order corrections couple the blocks
through the smooth kernels assembled in the potentials module.

On the potential pair [X; V] the static operator is realized through the
scalar reductions (curl block: K, gradient block: -Lap^{-1} K* Lap); the
cross coupling from gradients into the curl subspace has no scalar
reduction and vanishes on spheres, where all quantitative sweeps run.
Every system carries meta["cross_coupling"] = "dropped"; on any other
surface assemble_system also logs a warning, once per grid.

The system is affine in its material parameters.  Offline, once per grid
and degree, the grid memo keeps M and the correction kernels L1, L2 and
Mk2 at unit scale.  Online, each (tau, delta) point scales and adds those
matrices.  The two traces enter alike, so the system is [[P, Q], [Q, P]],
which the even/odd trace combinations split into P + Q and P - Q; one numpy
solve per half gives its solution and inverse, and the two half inverses the
exact 1-norm condition number.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .mie import SphereMode, mode_tangent_field
from .potentials import (
    MaterialConfig,
    ResonanceError,
    _layer_sum,
    assemble_correction,
    em_fields,
    offboundary_eval,
    scalar_operators,
)
from .sphharm import num_coeffs
from .surface import ShCoeffs, SurfaceGrid, TangentField, radial_gap
from .spectral import trace_norm

log = logging.getLogger(__name__)


class SourcePlacementError(ValueError):
    """A dipole source lies inside the sphere that bounds the particle."""


@dataclass
class RHSVector:
    """Scaled incident traces: (nu x E / (mu_e - mu_c), i nu x H / (eps_e - eps_c))."""

    first: TangentField
    second: TangentField

    def stacked(self, L):
        parts = (self.first.X, self.first.V, self.second.X, self.second.V)
        return np.concatenate([c.padded(L)[1:] for c in parts])


@dataclass
class BlockSystem:
    """Scaled boundary system [[P, Q], [Q, P]] on stacked potentials; P is `same`, Q `cross`."""

    same: np.ndarray
    cross: np.ndarray
    L: int
    grid: SurfaceGrid  # the grid it was assembled on
    materials: MaterialConfig
    meta: dict = field(default_factory=dict)


def resonance_shift(tau):
    """(1 - tau) / (2 (1 + tau)), the order-zero spectral shift."""
    return (1.0 - tau) / (2.0 * (1.0 + tau))


def static_magnetic_block(grid: SurfaceGrid, L: int):
    """Static magnetic operator on the stacked [X; V] potential pair.

    Curl block: the K coefficient matrix; gradient block: -Lap^{-1} K* Lap
    (from the divergence intertwining).  Block-diagonal: the gradient-to-
    curl coupling is dropped (exact on spheres).  Built once per grid and
    degree; the returned array is read-only.
    """

    def build():
        ops = scalar_operators(grid, L)
        d = num_coeffs(L) - 1
        D = grid.laplace_matrix(L)[1:, 1:]
        Kst = ops["Kstar"].entries[1:, 1:]
        Kc = ops["K"].entries[1:, 1:]
        M = np.zeros((2 * d, 2 * d), dtype=complex)
        M[:d, :d] = -np.linalg.solve(D, Kst @ D)
        M[d:, d:] = Kc
        M.flags.writeable = False
        return M

    return grid.cached(("magnetic", L), build)


def assemble_system(
    grid: SurfaceGrid, materials: MaterialConfig, order: int, L=None
) -> BlockSystem:
    """Scaled boundary system truncated at the requested correction order.

    L is the potential degree, at most grid.L_quad (the default).
    """
    if order not in (0, 1, 2):
        raise ValueError("correction order must be 0, 1 or 2")
    if materials.mu_e == materials.mu_c or materials.eps_e == materials.eps_c:
        raise ValueError("equal interior/exterior parameters make the scaled system singular")
    tau = materials.tau
    if tau == 1.0:
        raise ValueError("tau = 1 makes the scaled system degenerate")
    L = grid.L_quad if L is None else L
    delta = materials.delta
    M = static_magnetic_block(grid, L)
    same = resonance_shift(tau) * np.eye(len(M)) - M
    cross = np.zeros_like(same)
    if order >= 1:
        denom = materials.mu_e - materials.mu_c  # equals eps_e - eps_c here
        L1 = assemble_correction("L1", grid, materials, L).entries
        cross = (delta / denom) * L1
        if order >= 2:
            L2 = assemble_correction("L2", grid, materials, L).entries
            cross = cross + (delta**2 / denom) * L2
            M2e = assemble_correction("Mk2", grid, materials, L, "e").entries
            M2c = assemble_correction("Mk2", grid, materials, L, "c").entries
            same = same + (delta**2 / denom) * (materials.mu_c * M2c - materials.mu_e * M2e)
    if not grid.spherical:
        # a property of the grid, reported once however many points a sweep takes
        grid.cached(
            ("cross_coupling_warned",),
            lambda: log.warning(
                "non-spherical surface: the gradient-to-curl block of M is dropped, "
                "so the scattering system is approximate"
            )
            or True,
        )
    return BlockSystem(same, cross, L, grid, materials, {"cross_coupling": "dropped"})


def dipole_incident_trace(source, p, materials: MaterialConfig, grid: SurfaceGrid) -> RHSVector:
    """Scaled tangential traces of a point-dipole incident field.

    E = -(1/k_e^2) curl curl (G(delta k_e; x, s) p), which for the real
    exterior k_e is -(1/k_e^2) grad div (G p) - delta^2 G p, and
    H = (i delta/(omega mu_e)) curl (G p), both from one `_layer_sum` pass
    with the dipole as its one source; the returned pair carries the
    material denominators of the scaled system.
    """
    s = np.asarray(source, dtype=float)
    p = np.asarray(p, dtype=float)
    reach = np.max(grid.rho)
    if np.linalg.norm(s) <= reach:
        raise SourcePlacementError(
            f"dipole source must lie outside the particle, beyond radius {reach:.6g}"
        )
    delta = materials.delta
    k = delta * complex(materials.k_e).real
    curl, curlcurl = _layer_sum(
        k, grid.positions, s[None], ("curlS_vec", "curlcurlS_vec"), p[None, :, None]
    )
    E = -curlcurl[..., 0] / complex(materials.k_e) ** 2
    H = 1j * delta / (materials.omega * materials.mu_e) * curl[..., 0]
    nuE = np.cross(grid.normals, E)
    nuH = np.cross(grid.normals, H)
    first = grid.helmholtz_decompose(nuE / (materials.mu_e - materials.mu_c), flavor="curl")
    second = grid.helmholtz_decompose(1j * nuH / (materials.eps_e - materials.eps_c), flavor="curl")
    return RHSVector(first, second)


def _unstack(vec, L):
    X1, V1, X2, V2 = (ShCoeffs(L, np.concatenate([[0], a])) for a in np.split(vec, 4))
    return TangentField(X1, V1, "div"), TangentField(X2, V2, "div")


def solve_scatter(system: BlockSystem, rhs: RHSVector):
    """Solve the scaled system; returns (psi, omega*phi) densities and cond.

    With X = (P + Q)^{-1} and Y = (P - Q)^{-1} the inverse of [[P, Q], [Q, P]]
    is 1/2 [[X + Y, X - Y], [X - Y, X + Y]].  One numpy solve per sign gives a
    half solution and a half inverse; cond is the exact 1-norm condition
    number ||A||_1 ||A^{-1}||_1.  A singular half raises a resonance error
    carrying the spectral shift.
    """
    P, Q = system.same, system.cross
    b1, b2 = np.split(rhs.stacked(system.L), 2)
    eye = np.eye(len(P))
    try:
        # column 0: the half solution; the rest: the half inverse
        (u, X), (w, Y) = [
            np.split(np.linalg.solve(P + sign * Q, np.column_stack([b1 + sign * b2, eye])), [1], 1)
            for sign in (1, -1)
        ]
    except np.linalg.LinAlgError:
        raise ResonanceError(
            "scaled system singular at an exact resonance",
            eigenvalue=resonance_shift(system.materials.tau),
        ) from None
    sol = 0.5 * np.concatenate([u + w, u - w]).ravel()
    norm_A = np.max(np.abs(P).sum(axis=0) + np.abs(Q).sum(axis=0))
    norm_inv = 0.5 * np.max(np.abs(X + Y).sum(axis=0) + np.abs(X - Y).sum(axis=0))
    return _unstack(sol, system.L), float(norm_A * norm_inv)


def pair_norm(a: TangentField, b: TangentField, grid: SurfaceGrid):
    """Stacked curl-trace norm of a field pair."""
    return float(np.hypot(trace_norm(a, grid), trace_norm(b, grid)))


def weak_resonance_indicator(system: BlockSystem, density: TangentField):
    """|| A(delta) (phi, omega phi) || for a normalized candidate density.

    density is the curl-flavor candidate phi; the pair (phi, omega phi) is
    scaled to unit stacked curl-trace norm on the system's grid.
    """
    v = TangentField.from_potentials(X=density.X, V=density.V, L=system.L, flavor="div")
    omega = system.materials.omega
    scaled = TangentField(
        ShCoeffs(system.L, omega * v.X.padded(system.L)),
        ShCoeffs(system.L, omega * v.V.padded(system.L)),
        "div",
    )
    scale = pair_norm(v, scaled, system.grid)
    v1, v2 = np.split(RHSVector(v, scaled).stacked(system.L) / scale, 2)
    P, Q = system.same, system.cross
    out = np.concatenate([P @ v1 + Q @ v2, Q @ v1 + P @ v2])
    first, second = _unstack(out, system.L)
    return pair_norm(first, second, system.grid)


def eval_scattered_fields(densities, x, materials: MaterialConfig, grid: SurfaceGrid,
                          incident=None):
    """Total (E, H) from the solved densities at a point off the boundary.

    densities = (psi, phi) tangential fields (note: solve_scatter returns
    (psi, omega*phi); divide the second by omega before calling, or pass it
    through `densities_from_solution`).  incident, if given, is a callable
    x -> (E_i, H_i) added on the exterior side.
    """
    psi, phi = densities
    x = np.asarray(x, dtype=float)
    inside = radial_gap(x, grid) < 0
    delta = materials.delta
    ks = delta * materials.side(inside)[1]  # the reference geometry carries the scaled wavenumber
    curl, curlcurl = offboundary_eval([psi, phi], ks, x, ("curlS_vec", "curlcurlS_vec"), grid)
    # the trailing axis is (psi, phi)
    pairs = (np.moveaxis(curl, -1, 0), np.moveaxis(curlcurl, -1, 0))
    E, H = em_fields(materials, inside, *pairs, delta)
    if incident is not None and not inside:
        Ei, Hi = incident(x)
        E = E + Ei
        H = H + Hi
    return E, H


def densities_from_solution(solution, omega):
    """Convert (psi, omega*phi) from the solver into (psi, phi)."""
    psi, omega_phi = solution
    phi = TangentField(
        ShCoeffs(omega_phi.X.L, omega_phi.X.coeffs / omega),
        ShCoeffs(omega_phi.V.L, omega_phi.V.coeffs / omega),
        omega_phi.flavor,
    )
    return psi, phi


def resonance_sweep(grid, tau_list, delta_list, omega, order, source, p, L=None):
    """Indicator / solve sweep over (tau, delta); rows for the CSV artifact.

    Each system is assembled at degree L (default grid.L_quad).  The
    indicator is evaluated on the lowest rotational mode of the unit
    sphere, the canonical weak-resonance candidate.
    """
    L = grid.L_quad if L is None else L
    candidate = mode_tangent_field(SphereMode(2, 1, 0), L)
    rows = []
    for tau in tau_list:
        for delta in delta_list:
            mats = MaterialConfig.negative_preset(tau, omega, delta)
            # first: it rejects a source inside the particle before any assembly
            rhs = dipole_incident_trace(source, p, mats, grid)
            system = assemble_system(grid, mats, order, L)
            sol, cond = solve_scatter(system, rhs)
            sol_norm = pair_norm(sol[0], sol[1], grid)
            indicator = weak_resonance_indicator(system, candidate)
            rows.append((float(tau), float(delta), indicator, sol_norm, cond))
    return rows
