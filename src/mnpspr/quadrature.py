"""Per-target rotated polar quadrature for weakly singular surface integrals.

For each target point on the surface, the integration variable is moved to a
polar coordinate system whose pole sits at the target's parameter direction.
The surface measure contributes sin(theta'), which cancels the 1/|x-y|
singularity of the layer-potential kernels, so a Gauss-Legendre rule in the
colatitude angle times a uniform azimuth rule converges spectrally on
analytic star-shaped surfaces.  The same rule handles the |x-y|^(j-1)
correction kernels (smooth after the sin factor) and, with the pole placed
under an off-surface point, nearly singular evaluations.

`rings` walks the grid one colatitude ring at a time.  On a surface of
revolution about z the ring's targets see one patch turned about z, so its
geometry is evaluated once per ring; elsewhere it is evaluated per target.
A ring's kernel rows are projected onto the harmonics by
`sphharm.harmonic_moments`, one order m at a time, without a basis matrix,
and tested against the ring's own basis rows (`SurfaceGrid.ring_basis`).
"""

from __future__ import annotations

import numpy as np

from .sphharm import (
    cartesian_to_angles,
    harmonic_moments,
    num_coeffs,
    polar_patch_rule,
    rotation_to,
    sh_degrees,
    unit_vectors,
)
from .surface import SurfaceGrid


def default_polar_order(L: int) -> int:
    return max(L + 18, 24)


def correction_polar_order(L: int) -> int:
    """Polar order of the smooth correction kernels at degree L."""
    return max(L + 12, 22)


class PolarPatch:
    """Fixed polar rule whose pole can be moved to any parameter direction."""

    def __init__(self, grid: SurfaceGrid, n_polar=None, n_azimuth=None):
        nt = n_polar or default_polar_order(grid.L_quad)
        th, ph, self.weights = polar_patch_rule(nt, n_azimuth or 2 * nt)
        self.base_dirs, _, _ = unit_vectors(th, ph)

    def angles(self, theta, phi):
        """Parameter angles of the patch points with the pole moved to (theta, phi)."""
        th, ph, _ = cartesian_to_angles(self.base_dirs @ rotation_to(theta, phi).T)
        return th, ph


class Ring:
    """Rotated-patch geometry of the n_phi targets of one grid ring.

    Arrays over (n_t, Q) source points: frame (frame_at keys), wjac
    (weights x jacobian), rvec = target - source and r = |rvec|; normal
    (n_t, 3) is the target normal.  n_t = n_phi in general; on a surface of
    revolution n_t = 1, the first target's patch, which every other target
    sees turned about z.  index is the ring's place in the grid, theta, phi
    (Q,) the reference patch angles, nodes the ring's slice of the grid and
    phase (n_phi, nc) the azimuthal factors exp(i m phi_target) of the
    grid's phase table.
    """

    def __init__(self, index, theta, phi, nodes, frame, wjac, rvec, r, normal, phase):
        self.index = index
        self.theta, self.phi, self.nodes = theta, phi, nodes
        self.frame, self.wjac, self.rvec, self.r = frame, wjac, rvec, r
        self.normal, self.phase = normal, phase


def rings(grid: SurfaceGrid, L: int, n_polar=None):
    """Per-ring geometry of the rotated polar rule, one ring at a time.

    The grid nodes on one ring differ only by a rotation about the z axis,
    under which the harmonic basis picks up the phase exp(i m phi).  All
    n_phi targets of the ring therefore share the reference patch angles
    (theta, phi): a ring's Galerkin rows are the harmonic moments
    `harmonic_moments(kernel x wjac, theta, phi, L)` times phase.

    On a surface of revolution about z (`grid.axisymmetric`) the rotation
    also carries the surface, so every target's patch is the first one's,
    turned: the geometry is evaluated for that target only (n_t = 1).
    Kernels invariant under the turn (the scalar layers) give every
    target's rows as the first target's times phase.  The vector-valued
    correction kernels turn with the ring; their Galerkin sums over the
    ring's targets keep only equal orders m, which the first target's rows
    give alone (`potentials.correction_unit_matrices`).
    """
    patch = PolarPatch(grid, n_polar)
    nphi = grid.n_phi
    _, mslots = sh_degrees(L)
    n_t = 1 if grid.axisymmetric else nphi
    for t in range(grid.n_theta):
        nodes = slice(t * nphi, (t + 1) * nphi)
        th0, ph0 = patch.angles(grid.thetas[nodes.start], 0.0)
        phis = grid.phis[nodes]
        # the ring's points share the Q colatitudes th0: one Legendre pass
        frame = grid.frame_at(th0, ph0[None, :] + phis[:n_t, None])
        rvec = grid.positions[nodes][:n_t, None, :] - frame["position"]
        yield Ring(
            t, th0, ph0, nodes, frame, patch.weights[None, :] * frame["jacobian"],
            rvec, np.linalg.norm(rvec, axis=-1), grid.normals[nodes][:n_t],
            grid.phase[:, mslots + grid.L_quad],
        )


def assemble_scalar_values(grid: SurfaceGrid, L: int):
    """Galerkin pairings int conj(Y_i) (Op Y_j) ds of the scalar layer operators.

    Op in {S, Kstar, K} for the static kernels (G = -1/(4 pi |x-y|)):
      S     : G(x, y)
      Kstar : dG/dnu_x = nu_x . (x - y) / (4 pi |x-y|^3)
      K     : dG/dnu_y = nu_y . (y - x) / (4 pi |x-y|^3)
    Returns the pairings side by side in one complex ((L+1)^2, 3 (L+1)^2)
    array, S then Kstar then K.  The densities are the parameter-sphere
    harmonics; integration is in the surface measure.  The outer integral is
    the grid rule, accumulated one ring at a time as conj(Y_ring)^T
    (w . rows . phase): no operator's node values are held beyond one
    ring's (n_phi, 3 (L+1)^2).
    """
    kinds = ("S", "Kstar", "K")
    nc = num_coeffs(L)
    G = np.zeros((nc, len(kinds) * nc), dtype=complex)
    for ring in rings(grid, L):
        r = ring.r
        inv4pir3 = 1.0 / (4.0 * np.pi * r**3)
        kernels = (
            -1.0 / (4.0 * np.pi * r),
            np.einsum("tj,tqj->tq", ring.normal, ring.rvec) * inv4pir3,
            -np.einsum("tqj,tqj->tq", ring.frame["normal"], ring.rvec) * inv4pir3,
        )
        n_t, q = r.shape
        stacked = np.stack([ker * ring.wjac for ker in kernels], axis=1)
        rows = harmonic_moments(stacked.reshape(len(kinds) * n_t, q), ring.theta, ring.phi, L)
        rows = rows.reshape(n_t, len(kinds), nc)
        # the kernels are invariant under the ring's turns: n_t rows serve n_phi targets
        rows = rows * (grid.area_weights[ring.nodes, None] * ring.phase)[:, None, :]
        test = np.conj(grid.ring_basis(ring.index, nc))
        G += test.T @ rows.reshape(len(rows), -1)
    return G


def near_singular_eval(grid: SurfaceGrid, x, n_polar):
    """The polar rule for a surface integrand peaked under an off-surface point.

    The polar patch is centered at the parameter direction of x, where the
    nearly singular kernel concentrates.  Returns the Q patch points
    (frame_at keys plus their "theta" and "phi") and their weights w (Q,),
    the rule's weights times the surface jacobian.
    """
    th0, ph0, _ = cartesian_to_angles(np.asarray(x, dtype=float))
    patch = PolarPatch(grid, n_polar, max(2 * grid.L_quad + 16, 48))
    th, ph = patch.angles(float(th0[0]), float(ph0[0]))
    rot = dict(grid.frame_at(th, ph), theta=th, phi=ph)
    return rot, patch.weights * rot["jacobian"]
