"""Analytic sphere backend: exact layer-potential actions.

On a sphere of radius r the tangential vector harmonics diagonalize every
static boundary operator, and the Helmholtz vector single layer acts on them
through closed products of spherical Bessel/Hankel functions.  These exact
values serve as oracles for the quadrature-based machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .potentials import NearBoundaryError
from .sphharm import cartesian_to_angles, sh_index, unit_vectors, ynm_matrix
from .specfun import radial


@dataclass(frozen=True)
class SphereMode:
    """Tangential harmonic mode (family l, degree n, order m) on a sphere."""

    l: int
    n: int
    m: int
    radius: float = 1.0

    def __post_init__(self):
        if self.l not in (1, 2):
            raise ValueError("family index l must be 1 or 2")
        if self.n < 1:
            raise ValueError("degree must be >= 1")
        if abs(self.m) > self.n:
            raise ValueError("|m| must not exceed n")
        if self.radius <= 0:
            raise ValueError("radius must be positive")


def sphere_mnp_eigenvalue(l: int, n: int) -> Fraction:
    """Exact eigenvalue of the magnetic boundary operator on the sphere.

    Family 1 (gradient-type harmonics): -1/(2(2n+1)); family 2 (rotated):
    +1/(2(2n+1)).  Independent of the radius.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if l == 1:
        return Fraction(-1, 2 * (2 * n + 1))
    if l == 2:
        return Fraction(1, 2 * (2 * n + 1))
    raise ValueError("family index l must be 1 or 2")


def exact_sphere_potential(mode: SphereMode, k: float, x, which: str) -> np.ndarray:
    """Closed-form curl / double-curl of the vector single layer on a sphere.

    The density is the mode's tangential harmonic on the sphere |y| = r;
    x must satisfy |x| != r, else NearBoundaryError, and x != 0, else
    ValueError.  which in {curlS, curlcurlS}.  Outside the sphere (f, F) is
    the outgoing pair of radial() at k|x| and (g, G) the regular one at kr;
    inside the two swap, so each (kind, family) is one expression.
    """
    if which not in ("curlS", "curlcurlS"):
        raise ValueError(f"unknown kind {which!r}")
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    n, r = mode.n, mode.radius
    x = np.asarray(x, dtype=float)
    theta, phi, rp = cartesian_to_angles(x)
    rp = float(rp[0])
    if np.isclose(rp, r):
        raise NearBoundaryError(f"evaluation point at radius {rp:.6g} lies on the mode's sphere")
    f, F = radial(n, k * rp, rp > r)
    g, G = radial(n, k * r, rp < r)
    # the mode's vector harmonics phi_1 = grad_S Y / sqrt(n(n+1)), phi_2 = xhat x phi_1
    Y, Yt, Yp = (c[0, sh_index(n, mode.m)] for c in ynm_matrix(theta, phi, n, derivatives=True))
    _, that, phat = (u[0] for u in unit_vectors(theta, phi))
    scale = 1.0 / np.sqrt(n * (n + 1.0))
    a, b = Yt * scale, Yp * scale
    p1 = a * that + b * phat
    p2 = a * phat - b * that
    if which == "curlS" and mode.l == 1:
        return 1j * k * r * f * G * p2
    if which == "curlcurlS" and mode.l == 2:
        return -1j * k**3 * r**2 * f * g * p2
    # curlS of family 2 and curlcurlS of family 1 share F phi_1 + sqrt(n(n+1)) f Y xhat
    shared = F * p1 + np.sqrt(n * (n + 1.0)) * f * Y * x / rp
    if which == "curlS":
        # sign fixed against the trace jump relation: the exterior
        # tangential trace must be (-1/2 + lambda_{2,n}) phi_2
        return 1j * k * r**2 / rp * g * shared
    return -1j * k * r / rp * G * shared


def mode_tangent_field(mode: SphereMode, grid_L: int):
    """Helmholtz potentials reproducing the mode's tangential harmonic.

    On the sphere of the mode's radius, the surface gradient carries a 1/r,
    so the potential amplitude r/sqrt(n(n+1)) makes the reconstructed field
    equal phi_1 (family 1) or phi_2 (family 2) as functions of direction.
    """
    from .surface import ShCoeffs, TangentField

    amp = mode.radius / np.sqrt(mode.n * (mode.n + 1.0))
    if mode.l == 1:
        X = ShCoeffs.unit(mode.n, mode.m, L=grid_L, amplitude=amp)
        return TangentField.from_potentials(X=X, L=grid_L, flavor="curl")
    V = ShCoeffs.unit(mode.n, mode.m, L=grid_L, amplitude=-amp)
    return TangentField.from_potentials(V=V, L=grid_L, flavor="curl")
