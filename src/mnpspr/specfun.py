"""Radial special functions and vector spherical harmonics.

Provides spherical Bessel/Hankel functions, the composite radial functions
f_n(z) + z f_n'(z) that appear in curl formulas of multipole fields, their
large-order leading terms (double factorials in log domain, stable to
n ~ 60), and the tangential vector harmonics

    phi_1 = grad_S Y_n^m / sqrt(n(n+1)),      phi_2 = xhat x phi_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphharm import cartesian_to_angles, num_coeffs, sh_index, unit_vectors, ynm_matrix
from .sphharm import ynm  # noqa: F401  (re-export)

_KINDS = ("bessel_j", "hankel1", "composite_J", "composite_H")


@dataclass(frozen=True)
class RadialKind:
    tag: str
    n: int

    def __post_init__(self):
        if self.tag not in _KINDS:
            raise ValueError(f"unknown radial kind {self.tag!r}")
        if self.n < 0:
            raise ValueError("order must be nonnegative")


@dataclass(frozen=True)
class VectorHarmonic:
    l: int
    n: int
    m: int

    def __post_init__(self):
        if self.l not in (1, 2):
            raise ValueError("family index l must be 1 or 2")
        if self.n < 1:
            raise ValueError("tangential harmonics need degree n >= 1")
        if abs(self.m) > self.n:
            raise ValueError("|m| must not exceed n")


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


def radial(kind: RadialKind, z: float) -> complex:
    """Evaluate a radial function at z > 0."""
    if z <= 0:
        raise ValueError("argument must be positive")
    n = kind.n
    if kind.tag == "bessel_j":
        return complex(spherical_j(n, z))
    if kind.tag == "hankel1":
        return complex(spherical_h1(n, z))
    if kind.tag == "composite_J":
        return complex(composite_j(n, z))
    return complex(composite_h1(n, z))


def _log_double_factorial(k: int) -> float:
    # (2p+1)!! = (2p+1)! / (2^p p!)  evaluated through log-gamma
    if k % 2 == 1:
        p = (k - 1) // 2
        return math.lgamma(k + 1) - p * np.log(2.0) - math.lgamma(p + 1)
    p = k // 2
    return p * np.log(2.0) + math.lgamma(p + 1)


def radial_leading_term(kind: RadialKind, z: float) -> complex:
    """Leading large-n term of the radial function at fixed z."""
    n = kind.n
    if kind.tag == "bessel_j":
        # z^n / (2n+1)!!
        return np.exp(n * np.log(z) - _log_double_factorial(2 * n + 1))
    if kind.tag == "composite_J":
        return (n + 1) * np.exp(n * np.log(z) - _log_double_factorial(2 * n + 1))
    if kind.tag == "hankel1":
        # (2n-1)!! / (i z^{n+1})
        return np.exp(_log_double_factorial(2 * n - 1) - (n + 1) * np.log(z)) / 1j
    return -kind.n * np.exp(
        _log_double_factorial(2 * kind.n - 1) - (kind.n + 1) * np.log(z)
    ) / 1j


def radial_asymptotic_ratio(kind: RadialKind, z: float, n: int = None) -> float:
    """Ratio of the exact value to the leading large-n term; tends to 1."""
    k = kind if n is None else RadialKind(kind.tag, n)
    if k.n < 1:
        raise ValueError("asymptotic ratio needs n >= 1")
    ratio = radial(k, z) / radial_leading_term(k, z)
    return float(np.sign(ratio.real) * abs(ratio))


def vector_sph(h: VectorHarmonic, direction) -> np.ndarray:
    """Tangential vector harmonic value at a unit direction, complex (3,)."""
    d = np.asarray(direction, dtype=float)
    theta, phi, r = cartesian_to_angles(d)
    if not np.isclose(r[0], 1.0, atol=1e-8):
        raise ValueError("direction must be a unit vector")
    p1, p2 = vector_sph_matrix(theta, phi, h.n)
    idx = sh_index(h.n, h.m)
    return (p1 if h.l == 1 else p2)[0, idx]


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
