"""Radial special functions and vector spherical harmonics.

Provides spherical Bessel/Hankel functions, the composite radial functions
f_n(z) + z f_n'(z) that appear in curl formulas of multipole fields, and
the tangential vector harmonics

    phi_1 = grad_S Y_n^m / sqrt(n(n+1)),      phi_2 = xhat x phi_1.
"""

from __future__ import annotations

import numpy as np

from .sphharm import num_coeffs, unit_vectors, ynm_matrix


def spherical_j(n, z, derivative=False):
    """Spherical Bessel function of the first kind.

    scipy.special is imported on first use here and in spherical_h1: only
    the sphere oracles need it.
    """
    from scipy.special import spherical_jn

    return spherical_jn(n, z, derivative)


def spherical_h1(n, z, derivative=False):
    """Spherical Hankel function of the first kind (outgoing branch)."""
    from scipy.special import spherical_yn

    return spherical_j(n, z, derivative) + 1j * spherical_yn(n, z, derivative)


def composite_j(n, z):
    """j_n(z) + z j_n'(z)."""
    return spherical_j(n, z) + z * spherical_j(n, z, derivative=True)


def composite_h1(n, z):
    """h1_n(z) + z h1_n'(z)."""
    return spherical_h1(n, z) + z * spherical_h1(n, z, derivative=True)


def vector_sph_matrix(theta, phi, L):
    """All phi_1 / phi_2 values at the given points.

    Returns (phi1, phi2), each (P, (L+1)^2, 3) complex; degree-0 slots are 0.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    Y, Yt, Yp = ynm_matrix(theta, phi, L, derivatives=True)
    rhat, that, phat = unit_vectors(theta, phi)
    n = np.concatenate([np.full(2 * k + 1, k) for k in range(L + 1)])
    scale = np.zeros(num_coeffs(L))
    scale[1:] = 1.0 / np.sqrt(n[1:] * (n[1:] + 1.0))
    a = Yt * scale[None, :]
    b = Yp * scale[None, :]
    phi1 = a[:, :, None] * that[:, None, :] + b[:, :, None] * phat[:, None, :]
    # xhat x theta-hat = phi-hat, xhat x phi-hat = -theta-hat
    phi2 = a[:, :, None] * phat[:, None, :] - b[:, :, None] * that[:, None, :]
    return phi1, phi2
