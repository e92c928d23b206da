import numpy as np
import pytest

from mnpspr.specfun import radial, vector_sph_matrix
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
        assert abs(radial(0, 1.0, False)[0] - np.sin(1.0)) < 1e-14

    def test_composite_closed_form(self):
        # j_0 + z j_0' = cos z
        assert abs(radial(0, 1.0, False)[1] - np.cos(1.0)) < 1e-14

    def test_hankel_closed_form(self):
        assert abs(radial(0, 2.0, True)[0] - np.exp(2j) / (2j)) < 1e-14

    def test_wronskian(self):
        # j Y - J y = z (j y' - j' y) = 1/z, with capitals the composites
        for z in (0.1, 0.5, 2.0, 7.3, 20.0):
            for n in (0, 1, 5, 17, 40):
                h, H = radial(n, z, True)
                w = h.real * H.imag - H.real * h.imag
                assert abs(w - 1.0 / z) < 1e-12 * abs(1.0 / z)

    def test_recurrence_consistency(self):
        for z in (0.1, 1.0, 5.0, 20.0):
            for n in range(1, 40):
                for outgoing in (False, True):
                    lhs = radial(n - 1, z, outgoing)[0] + radial(n + 1, z, outgoing)[0]
                    rhs = (2 * n + 1) * radial(n, z, outgoing)[0] / z
                    assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1e-280)

    def test_composite_h_matches_quadrature_free_form(self):
        # the composites against a central difference of the functions
        z = 1.7
        h = 1e-6
        for n in (1, 3, 8):
            for outgoing in (False, True):
                f, F = radial(n, z, outgoing)
                df = (radial(n, z + h, outgoing)[0] - radial(n, z - h, outgoing)[0]) / (2 * h)
                assert abs(F - (f + z * df)) < 1e-8 * abs(F)

    def test_table_matches_scipy(self):
        """n = 0..60 and 200 log-spaced z in [1e-3, 100] against scipy.special.

        The error is relative to hypot(j_n, y_n) for the outgoing kind or
        for z >= n, where j_n oscillates through zeros, and to |j_n| for
        the regular kind below the turning point; likewise for the
        composites.
        """
        worst = 0.0
        for n in range(61):
            for z in np.logspace(-3, 2, 200):
                j, y = spherical_jn(n, z), spherical_yn(n, z)
                J = j + z * spherical_jn(n, z, True)
                Y = y + z * spherical_yn(n, z, True)
                for outgoing in (False, True):
                    f, F = radial(n, z, outgoing)
                    wide = outgoing or z >= n
                    for got, regular, singular in ((f, j, y), (F, J, Y)):
                        ref = complex(regular, singular) if outgoing else regular
                        scale = np.hypot(regular, singular) if wide else abs(regular)
                        worst = max(worst, abs(got - ref) / scale)
        assert worst < 1e-12

    def test_small_argument_keeps_its_range(self):
        # j_n(z) = z^n / (2n+1)!! and j_n + z j_n' = (n+1) j_n to double precision
        for n, z, double_factorial in ((1, 1e-200, 3), (3, 1e-100, 105), (8, 1e-30, 34459425)):
            f, F = radial(n, z, False)
            assert abs(f / (z**n / double_factorial) - 1) < 1e-14
            assert abs(F / ((n + 1) * f) - 1) < 1e-14

    def test_needs_positive_argument(self):
        for z in (0.0, -1.0):
            with pytest.raises(ValueError):
                radial(1, z, False)
