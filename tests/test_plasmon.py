from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mnpspr.mie import SphereMode
from mnpspr.plasmon import (
    PlasmonMode,
    ResonanceExclusionError,
    _field_batch,
    almost_sure_statistic,
    localization_scan,
    plasmon_field,
    resonance_tau,
)
from mnpspr.potentials import MaterialConfig
from mnpspr.spectral import mnp_spectra
from mnpspr.surface import perturbed_sphere

from conftest import fd_curl, fibonacci_shell

PROBE = np.array([0.6, 0.64, 0.48])


class TestResonanceTau:
    def test_rotational_dipole(self):
        assert resonance_tau(Fraction(1, 6)) == Fraction(1, 2)

    def test_gradient_dipole(self):
        assert resonance_tau(Fraction(-1, 6)) == Fraction(2)

    def test_family_laws(self):
        for n in range(1, 11):
            assert resonance_tau(Fraction(1, 2 * (2 * n + 1))) == Fraction(n, n + 1)
            assert resonance_tau(Fraction(-1, 2 * (2 * n + 1))) == Fraction(n + 1, n)

    def test_zero_eigenvalue_excluded(self):
        with pytest.raises(ResonanceExclusionError):
            resonance_tau(0.0)

    def test_range_validation(self):
        with pytest.raises(ResonanceExclusionError):
            resonance_tau(0.6)
        with pytest.raises(ResonanceExclusionError):
            resonance_tau(-0.5)


class TestPlasmonField:
    def test_sphere_dual_path(self, sphere16):
        # closed-form route against the quadrature route
        for l, n in ((2, 1), (1, 2), (2, 4)):
            mode = PlasmonMode.from_sphere(l, n, min(1, n), 1.0, omega=1.0)
            gen = PlasmonMode(
                lam=mode.lam, tau=mode.tau, materials=mode.materials,
                density=__import__("mnpspr.mie", fromlist=["mode_tangent_field"]).mode_tangent_field(
                    SphereMode(l, n, min(1, n), 1.0), 12),
            )
            for x in (2.0 * PROBE, 0.4 * PROBE):
                Ea, Ha = plasmon_field(mode, x, sphere16)
                Eb, Hb = plasmon_field(gen, x, sphere16)
                assert np.max(np.abs(Ea - Eb)) < 1e-6 * np.max(np.abs(Ea))
                assert np.max(np.abs(Ha - Hb)) < 1e-6 * np.max(np.abs(Ha))

    def test_zero_density(self, sphere16):
        from mnpspr.surface import ShCoeffs, TangentField

        mats = MaterialConfig.negative_preset(0.5)
        mode = PlasmonMode(
            lam=1 / 6, tau=0.5, materials=mats,
            density=TangentField.from_potentials(V=ShCoeffs.zeros(8), flavor="curl"),
        )
        E, H = plasmon_field(mode, 2.0 * PROBE, sphere16)
        assert np.max(np.abs(E)) == 0.0 and np.max(np.abs(H)) == 0.0

    def test_faraday_by_fd(self, sphere16):
        mode = PlasmonMode.from_sphere(2, 2, 1, 1.0, omega=1.0)
        x = 2.0 * PROBE
        E = lambda y: plasmon_field(mode, y, sphere16)[0]
        _, H = plasmon_field(mode, x, sphere16)
        curlE = fd_curl(E, x)
        ref = 1j * mode.materials.omega * mode.materials.mu_e * H
        assert np.max(np.abs(curlE - ref)) < 1e-3 * np.max(np.abs(ref))


class TestSphereLocalization:
    def test_exterior_geometric_ratio(self):
        g = None
        vals = []
        for n in range(8, 15):
            m = PlasmonMode.from_sphere(2, n, 0, 1.0, omega=1.0)
            E, _ = plasmon_field(m, 2.0 * PROBE, g)
            vals.append(np.linalg.norm(E))
        ratios = np.array(vals[1:]) / np.array(vals[:-1])
        assert np.all(np.abs(ratios - 0.5) < 0.05)

    def test_interior_geometric_ratio(self):
        vals = []
        for n in range(8, 15):
            m = PlasmonMode.from_sphere(2, n, 0, 1.0, omega=1.0)
            E, _ = plasmon_field(m, 0.5 * PROBE, None)
            vals.append(np.linalg.norm(E))
        ratios = np.array(vals[1:]) / np.array(vals[:-1])
        assert np.all(np.abs(ratios - 0.5) < 0.05)

    def test_exponential_slope(self):
        ns = np.arange(8, 15)
        vals = [
            np.linalg.norm(plasmon_field(PlasmonMode.from_sphere(2, n, 0, 1.0), 2.0 * PROBE, None)[0])
            for n in ns
        ]
        slope = np.polyfit(ns, np.log(vals), 1)[0]
        assert abs(slope - np.log(0.5)) < 0.1 * abs(np.log(0.5))


class TestLocalizationScan:
    def test_perturbed_plateau_and_verdict(self, pert12, pert12_spectra):
        _, curl, _ = pert12_spectra
        modes = [PlasmonMode.from_eigenmode(j, curl) for j in range(len(curl))]
        pts = np.vstack([fibonacci_shell(40, 3.0), fibonacci_shell(10, 0.25)])
        rep = localization_scan(modes, pts, 0.5, pert12)
        assert rep.plateau
        assert rep.plateau_fraction <= 0.05
        assert rep.statistic["verdict"]
        assert np.all(np.diff(rep.partial_sums) >= 0)
        assert rep.fitted_rate < -0.5  # far faster than the borderline power

    def test_tube_guard(self, pert12, pert12_spectra):
        _, curl, _ = pert12_spectra
        modes = [PlasmonMode.from_eigenmode(0, curl)]
        with pytest.raises(ValueError):
            localization_scan(modes, np.array([[1.2, 0.0, 0.0]]), 0.5, pert12)

    def test_one_mode_has_no_decay_rate(self, pert12, pert12_spectra):
        _, curl, _ = pert12_spectra
        modes = [PlasmonMode.from_eigenmode(0, curl)]
        with pytest.raises(ValueError, match="at least two modes"):
            localization_scan(modes, fibonacci_shell(5, 3.0), 0.5, pert12)

    def test_csv_rows_shape(self, pert12, pert12_spectra):
        _, curl, _ = pert12_spectra
        modes = [PlasmonMode.from_eigenmode(j, curl) for j in (0, 1)]
        pts = fibonacci_shell(5, 3.0)
        rep = localization_scan(modes, pts, 0.5, pert12)
        rows = list(rep.csv_rows())
        assert len(rows) == 10
        d = rep.to_json_dict()
        assert set(d) >= {"eigenvalues", "taus", "partial_sums", "plateau", "statistic"}


def _assert_same_body(got, want, rtol):
    """Two decay.json bodies agree: equal keys and flags, numbers to rtol of each entry's scale."""
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], dict):
            _assert_same_body(got[key], want[key], rtol)
        elif key == "mode_ids" or isinstance(want[key], (bool, str)):
            assert got[key] == want[key], key
        else:
            a, b = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
            assert a.shape == b.shape, key
            assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), key


class TestClusterInvariance:
    """Decay observables do not depend on the basis inside an eigenvalue cluster."""

    @pytest.fixture(scope="class")
    def axisym(self):
        grid = perturbed_sphere(0.05, 2, 0, 8)
        curl, _ = mnp_spectra(grid, 8)
        pts = np.vstack([fibonacci_shell(12, 2.5), fibonacci_shell(4, 0.3)])
        return grid, curl, pts

    @staticmethod
    def modes(curl):
        return [PlasmonMode.from_eigenmode(j, curl) for j in range(len(curl))]

    def test_gram_unitary_rotation_leaves_report(self, axisym):
        grid, curl, pts = axisym
        ids = curl.clusters()
        assert np.bincount(ids).max() >= 2  # the +-m pairs of an axisymmetric surface
        rng = np.random.default_rng(5)
        vectors = curl.vectors.copy()
        for c in np.unique(ids):
            cols = np.flatnonzero(ids == c)
            z = rng.normal(size=(cols.size,) * 2) + 1j * rng.normal(size=(cols.size,) * 2)
            vectors[:, cols] = vectors[:, cols] @ np.linalg.qr(z)[0]
        turned = replace(curl, vectors=vectors)
        want = localization_scan(self.modes(curl), pts, 0.5, grid).to_json_dict()
        got = localization_scan(self.modes(turned), pts, 0.5, grid).to_json_dict()
        _assert_same_body(got, want, 1e-12)
        # the single modes do move: the rotation is not the identity on them
        single = [np.linalg.norm(_field_batch(self.modes(s), pts, grid)[0], axis=(1, 2))
                  for s in (curl, turned)]
        assert np.max(np.abs(single[0] - single[1]) / single[0]) > 1e-3

    def test_members_share_contrast_and_cluster_sums(self, axisym):
        grid, curl, pts = axisym
        modes = self.modes(curl)
        rep = localization_scan(modes, pts, 0.5, grid)
        ids = curl.clusters()
        assert np.array_equal(rep.eigenvalues, curl.eigenvalues)
        assert np.array_equal(rep.taus, [m.tau for m in modes])
        mean = np.bincount(ids, curl.eigenvalues) / np.bincount(ids)
        shared = [m.at_eigenvalue(mean[c]) for m, c in zip(modes, ids)]
        pair = np.flatnonzero(ids == np.argmax(np.bincount(ids)))
        assert pair.size >= 2 and len({shared[j].tau for j in pair}) == 1
        E, H = _field_batch(shared, pts, grid)
        for F, norms in ((E, rep.e_norms), (H, rep.h_norms)):
            sq = np.bincount(ids, np.sum(np.abs(F) ** 2, axis=(1, 2)))
            assert np.allclose(np.bincount(ids, norms**2), sq, rtol=1e-12, atol=0)
            for c in np.unique(ids):
                assert np.ptp(norms[ids == c]) <= 1e-12 * norms[ids == c][0]


class TestAlmostSureStatistic:
    def test_inverse_j(self):
        stat = almost_sure_statistic(1.0 / np.arange(1, 2001), [0.5, 0.25, 0.1], [500, 1000, 2000])
        assert stat["verdict"]
        for fr in stat["fractions"].values():
            assert fr[-1] <= 0.05

    def test_constant_sequence_fails(self):
        stat = almost_sure_statistic(np.ones(2000), [0.5, 0.25, 0.1], [500, 1000, 2000])
        assert not stat["verdict"]
        assert all(f == 1.0 for fr in stat["fractions"].values() for f in fr)

    def test_square_summable_random(self):
        rng = np.random.default_rng(5)
        c = np.arange(1, 20001) ** -0.6 * rng.choice([-1.0, 1.0], 20000)
        stat = almost_sure_statistic(c, [0.9, 0.75, 0.6], [5000, 10000, 20000])
        assert stat["verdict"]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            almost_sure_statistic(np.ones(10), [], [5])
        with pytest.raises(ValueError):
            almost_sure_statistic(np.ones(10), [0.5], [50])
