from fractions import Fraction

import numpy as np
import pytest

from mnpspr.mie import (
    SphereMode,
    exact_sphere_potential,
    mode_tangent_field,
    sphere_mnp_eigenvalue,
)
from mnpspr.potentials import offboundary_eval
from mnpspr.sphharm import cartesian_to_angles, sh_index
from scipy.special import spherical_jn, spherical_yn

from conftest import vector_sph_matrix

PROBE = np.array([0.6, 0.64, 0.48])  # unit direction off the poles


def spherical_h1(n, z):
    """The outgoing spherical Hankel function, from scipy."""
    return spherical_jn(n, z) + 1j * spherical_yn(n, z)


def composite_j(n, z):
    """j_n(z) + z j_n'(z), from scipy."""
    return spherical_jn(n, z) + z * spherical_jn(n, z, True)


def phi2_at_probe(n, m):
    """The rotated vector harmonic phi_2 of (n, m) at PROBE."""
    theta, phi, _ = cartesian_to_angles(PROBE)
    return vector_sph_matrix(theta, phi, n)[1][0, sh_index(n, m)]


class TestEigenvalues:
    def test_rotational_dipole(self):
        assert sphere_mnp_eigenvalue(2, 1) == Fraction(1, 6)

    def test_gradient_dipole(self):
        assert sphere_mnp_eigenvalue(1, 1) == Fraction(-1, 6)

    def test_degree_ten(self):
        assert sphere_mnp_eigenvalue(2, 10) == Fraction(1, 42)

    def test_validation(self):
        with pytest.raises(ValueError):
            sphere_mnp_eigenvalue(2, 0)
        with pytest.raises(ValueError):
            sphere_mnp_eigenvalue(3, 1)

    def test_spectrum_set_relation(self):
        # the magnetic spectrum is the symmetrized scalar spectrum with the
        # accumulation value removed: exact identity over rationals
        scalar = {Fraction(1, 2 * (2 * n + 1)) for n in range(0, 30)}
        magnetic = {sphere_mnp_eigenvalue(l, n) for l in (1, 2) for n in range(1, 30)}
        union = {-s for s in scalar} | scalar
        # the extreme values +-1/2 belong only to the scalar operator: +1/2
        # is excluded by the curl reduction and -1/2 by the gradient one
        assert magnetic == union - {Fraction(1, 2), Fraction(-1, 2)}


class TestExactPotentials:
    def test_interior_double_curl_value(self):
        # closed form: -i k^3 r^2 j_n(k r') h_n(k r) phi_2 inside
        mode = SphereMode(2, 2, 1, 1.0)
        x = 0.5 * PROBE
        got = exact_sphere_potential(mode, 1.0, x, "curlcurlS")
        phi2 = phi2_at_probe(2, 1)
        expect = -1j * spherical_jn(2, 0.5) * spherical_h1(2, 1.0) * phi2
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_exterior_curl_value(self):
        mode = SphereMode(1, 1, 0, 1.0)
        x = 2.0 * PROBE
        got = exact_sphere_potential(mode, 1.0, x, "curlS")
        phi2 = phi2_at_probe(1, 0)
        expect = 1j * spherical_h1(1, 2.0) * composite_j(1, 1.0) * phi2
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_on_sphere_rejected(self):
        with pytest.raises(ValueError):
            exact_sphere_potential(SphereMode(1, 1, 0, 1.0), 1.0, PROBE, "curlS")

    def test_centre_rejected(self):
        with pytest.raises(ValueError):
            exact_sphere_potential(SphereMode(2, 1, 0, 1.0), 1.0, np.zeros(3), "curlS")

    def test_radial_decay_ratio(self):
        # exterior ratio across a radius doubling approaches 2^{-(n+1)}
        for n in (12, 16):
            mode = SphereMode(1, n, 1, 1.0)
            v2 = exact_sphere_potential(mode, 1.0, 2.0 * PROBE, "curlS")
            v4 = exact_sphere_potential(mode, 1.0, 4.0 * PROBE, "curlS")
            ratio = np.max(np.abs(v4)) / np.max(np.abs(v2))
            assert abs(ratio / 2.0 ** -(n + 1) - 1.0) < 10.0 / n

    def test_all_eight_formulas_vs_quadrature(self, sphere16):
        worst = 0.0
        for l in (1, 2):
            for n in (1, 3, 5):
                for which in ("curlS", "curlcurlS"):
                    for rfac in (2.0, 0.5):
                        mode = SphereMode(l, n, min(1, n), 1.0)
                        x = rfac * PROBE
                        dens = mode_tangent_field(mode, 12)
                        num = offboundary_eval(dens, 1.0, x, which + "_vec", sphere16)
                        ex = exact_sphere_potential(mode, 1.0, x, which)
                        worst = max(worst, float(np.max(np.abs(num - ex)) / np.max(np.abs(ex))))
        assert worst <= 1e-6

    def test_tangential_trace_continuity(self):
        # the tangential part of the double-curl trace is continuous
        mode = SphereMode(2, 3, 1, 1.0)
        eps = 1e-4
        vp = exact_sphere_potential(mode, 1.0, (1 + eps) * PROBE, "curlcurlS")
        vm = exact_sphere_potential(mode, 1.0, (1 - eps) * PROBE, "curlcurlS")
        tp = np.cross(PROBE, vp)
        tm = np.cross(PROBE, vm)
        assert np.max(np.abs(tp - tm)) < 2e-3 * np.max(np.abs(tp))
