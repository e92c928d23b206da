import numpy as np

from mnpspr.specfun import (
    composite_h1,
    composite_j,
    spherical_h1,
    spherical_j,
    vector_sph_matrix,
)
from mnpspr.sphharm import cartesian_to_angles, sh_index, ynm_matrix
from mnpspr.surface import random_band_limited, TangentField
from scipy.special import spherical_jn, spherical_yn


def at_direction(d):
    """(theta, phi) of a unit direction, as (1,) arrays."""
    theta, phi, _ = cartesian_to_angles(np.asarray(d, dtype=float))
    return theta, phi


class TestYnm:
    def test_degree_zero(self):
        Y = ynm_matrix(*at_direction([0.3, 0.4, np.sqrt(1 - 0.25)]), 0)
        assert abs(Y[0, 0] - 1 / np.sqrt(4 * np.pi)) < 1e-14

    def test_north_pole_value(self):
        Y = ynm_matrix(*at_direction([0, 0, 1.0]), 1)
        assert abs(Y[0, sh_index(1, 0)] - np.sqrt(3 / (4 * np.pi))) < 1e-14

    def test_norm_by_quadrature(self, sphere10):
        vals = ynm_matrix(sphere10.thetas, sphere10.phis, 5)[:, sh_index(5, 3)]
        norm = np.sum(sphere10.param_weights * np.abs(vals) ** 2)
        assert abs(norm - 1.0) < 1e-10

    def test_conjugation_symmetry(self):
        Y = ynm_matrix(*at_direction([0.1, -0.7, np.sqrt(1 - 0.5)]), 4)[0]
        assert abs(Y[sh_index(4, -3)] - (-1) ** 3 * np.conj(Y[sh_index(4, 3)])) < 1e-13

    def test_finite_at_degree_sixty(self):
        theta, phi = at_direction([0.3, 0.4, np.sqrt(1 - 0.25)])
        v = ynm_matrix(theta, phi, 60)[0, sh_index(60, 37)]
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        w = vector_sph_matrix(theta, phi, 60)[0][0, sh_index(60, 59)]
        assert np.all(np.isfinite(w.view(float)))


class TestVectorSph:
    def test_tangential(self):
        d = np.array([0.3, 0.4, np.sqrt(1 - 0.25)])
        for family in vector_sph_matrix(*at_direction(d), 3):
            assert abs(np.dot(d, family[0, sh_index(3, 2)])) < 1e-12

    def test_rotation_relation(self):
        d = np.array([0.6, -0.48, 0.64])
        d /= np.linalg.norm(d)
        p1, p2 = vector_sph_matrix(*at_direction(d), 4)
        v1, v2 = p1[0, sh_index(4, 1)], p2[0, sh_index(4, 1)]
        assert np.max(np.abs(np.cross(d, v1) - v2)) < 1e-12

    def test_families_orthogonal_by_quadrature(self, sphere10):
        p1, p2 = vector_sph_matrix(sphere10.thetas, sphere10.phis, 3)
        w = sphere10.param_weights
        for i in (sh_index(1, 0), sh_index(2, 1), sh_index(3, -2)):
            for j in (sh_index(1, 0), sh_index(2, -1), sh_index(3, 3)):
                ip = np.einsum("p,pc,pc->", w, np.conj(p1[:, i, :]), p2[:, j, :])
                assert abs(ip) < 1e-10

    def test_unit_norm_by_quadrature(self, sphere10):
        p1, _ = vector_sph_matrix(sphere10.thetas, sphere10.phis, 2)
        nrm = np.einsum(
            "p,pc,pc->", sphere10.param_weights,
            np.conj(p1[:, sh_index(2, 1), :]), p1[:, sh_index(2, 1), :],
        )
        assert abs(nrm - 1.0) < 1e-10

    def test_completeness_on_sphere(self, sphere10, rng):
        # a random band-limited tangential field is recovered from its
        # projections onto the two vector-harmonic families
        L = 6
        f = TangentField.from_potentials(
            X=random_band_limited(rng, L), V=random_band_limited(rng, L), flavor="div"
        )
        vals = sphere10.tangent_values(f)
        p1, p2 = vector_sph_matrix(sphere10.thetas, sphere10.phis, L)
        w = sphere10.param_weights
        c1 = np.einsum("p,pjc,pc->j", w, np.conj(p1), vals)
        c2 = np.einsum("p,pjc,pc->j", w, np.conj(p2), vals)
        recon = np.einsum("pjc,j->pc", p1, c1) + np.einsum("pjc,j->pc", p2, c2)
        assert np.max(np.abs(recon - vals)) < 1e-8 * np.max(np.abs(vals))


class TestRadial:
    def test_bessel_closed_form(self):
        assert abs(spherical_j(0, 1.0) - np.sin(1.0)) < 1e-14

    def test_composite_closed_form(self):
        # j_0 + z j_0' = cos z
        assert abs(composite_j(0, 1.0) - np.cos(1.0)) < 1e-14

    def test_hankel_closed_form(self):
        assert abs(spherical_h1(0, 2.0) - np.exp(2j) / (2j)) < 1e-14

    def test_wronskian(self):
        for z in (0.1, 0.5, 2.0, 7.3, 20.0):
            for n in (0, 1, 5, 17, 40):
                w = spherical_jn(n, z) * spherical_yn(n, z, True) - spherical_jn(
                    n, z, True
                ) * spherical_yn(n, z)
                assert abs(w - 1.0 / z**2) < 1e-12 * abs(1.0 / z**2) + 1e-15

    def test_recurrence_consistency(self):
        for z in (0.1, 1.0, 5.0, 20.0):
            for n in range(1, 40):
                for f in (spherical_jn, spherical_yn):
                    lhs = f(n - 1, z) + f(n + 1, z)
                    rhs = (2 * n + 1) * f(n, z) / z
                    assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1e-280)

    def test_composite_h_matches_quadrature_free_form(self):
        # cross-check composite functions against derivative formulas
        z = 1.7
        h = 1e-6
        for n in (1, 3, 8):
            dj = (spherical_jn(n, z + h) - spherical_jn(n, z - h)) / (2 * h)
            assert abs(composite_j(n, z) - (spherical_jn(n, z) + z * dj)) < 1e-8
            dh = (spherical_h1(n, z + h) - spherical_h1(n, z - h)) / (2 * h)
            ref = spherical_h1(n, z) + z * dh
            assert abs(composite_h1(n, z) - ref) < 1e-8 * abs(ref)
