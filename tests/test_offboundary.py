"""One off-boundary evaluation path: shared kernels, density lists, point blocks.

Every point of a localization scan goes through `offboundary_eval`, so its
guard and its `quad` choice hold on both sides of the surface.
"""

import numpy as np
import pytest

from mnpspr.mie import SphereMode, mode_tangent_field
from mnpspr.plasmon import PlasmonMode, localization_scan, plasmon_field
from mnpspr.potentials import POINT_BLOCK, NearBoundaryError, offboundary_eval, scalar_operators
from mnpspr.spectral import mnp_spectra, np_spectrum
from mnpspr.surface import ShCoeffs, perturbed_sphere, random_band_limited, tubular_distance

from conftest import fibonacci_shell

KINDS = ("S", "gradS", "curlS_vec", "curlcurlS_vec")


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def pert8_modes():
    """rho = 1 + 0.05 Re Y_2^0 at L_quad = 8 and its curl plasmon modes."""
    grid = perturbed_sphere(0.05, 2, 0, 8)
    ops = scalar_operators(grid, 8)
    curl, _ = mnp_spectra(np_spectrum(ops["S"], ops["Kstar"]), ops["S"], grid)
    return grid, [PlasmonMode.from_eigenmode(j, curl) for j in (0, 5)]


def densities(kind, rng):
    if kind in ("S", "gradS"):
        return [random_band_limited(rng, 6, mean_free=False), ShCoeffs.unit(2, 1, L=6)]
    return [mode_tangent_field(SphereMode(l, n, 1, 1.0), 8) for l, n in ((1, 1), (2, 3))]


class TestDensityLists:
    @pytest.mark.parametrize("kind", KINDS)
    def test_list_equals_single_calls_node_rule(self, sphere10, rng, kind):
        dens = densities(kind, rng)
        pts = np.vstack([fibonacci_shell(4, 2.0), fibonacci_shell(3, 0.4)])
        stacked = offboundary_eval(dens, 1.3, pts, kind, sphere10)
        for i, d in enumerate(dens):
            one = offboundary_eval(d, 1.3, pts, kind, sphere10)
            assert stacked[..., i].shape == one.shape
            assert rel_err(stacked[..., i], one) < 1e-13

    @pytest.mark.parametrize("kind", KINDS)
    def test_list_equals_single_calls_near_rule(self, sphere10, rng, kind):
        dens = densities(kind, rng)
        pts = np.array([[0.0, 0.0, 1.05], [0.6, 0.0, 0.9]])
        stacked = offboundary_eval(dens, 1.3, pts, kind, sphere10, quad="near", n_polar=40)
        for i, d in enumerate(dens):
            one = offboundary_eval(d, 1.3, pts, kind, sphere10, quad="near", n_polar=40)
            assert rel_err(stacked[..., i], one) < 1e-13

    def test_single_point_list_shape(self, sphere10, rng):
        dens = densities("curlS_vec", rng)
        out = offboundary_eval(dens, 1.0, np.array([0.0, 0.0, 2.0]), "curlS_vec", sphere10)
        assert out.shape == (3, 2)


class TestPointBlocks:
    def test_three_blocks_equal_pointwise(self, sphere10):
        pts = np.vstack([fibonacci_shell(60, 2.5), fibonacci_shell(10, 0.3)])
        assert 2 * POINT_BLOCK < len(pts) <= 3 * POINT_BLOCK
        dens = mode_tangent_field(SphereMode(2, 2, 1, 1.0), 8)
        for kind in ("curlS_vec", "curlcurlS_vec"):
            blocked = offboundary_eval(dens, 1.1, pts, kind, sphere10)
            pointwise = np.array([offboundary_eval(dens, 1.1, p, kind, sphere10) for p in pts])
            assert rel_err(blocked, pointwise) < 1e-13


class TestScanUsesOffboundaryPath:
    def test_exterior_point_inside_guard_raises(self, pert8_modes):
        grid, modes = pert8_modes
        x = np.array([1.48, 0.0, 0.0])
        d = tubular_distance(x, grid)
        assert 0.1 < d <= 3.0 * grid.max_spacing  # outside the 0.1-tube, inside the guard
        with pytest.raises(NearBoundaryError):
            plasmon_field(modes[0], x, grid)
        with pytest.raises(NearBoundaryError):
            localization_scan(modes, x[None, :], 0.1, grid)

    def test_near_rule_reaches_exterior_points(self, pert8_modes):
        grid, modes = pert8_modes
        pts = np.array([[0.0, 0.0, 1.65], [1.1, 1.1, 0.3]])
        rep = localization_scan(modes, pts, 0.5, grid, quad="near")
        for row, mid in enumerate(rep.mode_ids):
            mode = next(m for m in modes if m.index == mid)
            for p, x in enumerate(pts):
                E, H = plasmon_field(mode, x, grid, quad="near")
                assert abs(rep.e_point_mags[row, p] - np.linalg.norm(E)) <= 1e-10 * np.linalg.norm(E)
                assert abs(rep.h_point_mags[row, p] - np.linalg.norm(H)) <= 1e-10 * np.linalg.norm(H)


class TestNearPatchBasis:
    """The near rule evaluates the patch basis once per point for a density list."""

    @pytest.mark.parametrize("kind", ("S", "curlS_vec"))
    def test_one_patch_basis_per_point(self, pert8_modes, rng, monkeypatch, kind):
        import mnpspr.surface as surface

        grid, _ = pert8_modes
        dens = densities(kind, rng)
        pts = np.array([[0.0, 0.0, 1.1], [0.7, 0.0, 0.8]])
        singles = [
            offboundary_eval(d, 1.3, pts, kind, grid, quad="near", n_polar=40) for d in dens
        ]
        sizes = []
        ynm_matrix = surface.ynm_matrix

        def counting(theta, phi, L, derivatives=False):
            sizes.append(np.size(theta))
            return ynm_matrix(theta, phi, L, derivatives)

        monkeypatch.setattr(surface, "ynm_matrix", counting)
        stacked = offboundary_eval(dens, 1.3, pts, kind, grid, quad="near", n_polar=40)
        q = 40 * 48  # n_polar x the default azimuth count at L_quad = 8
        assert sizes.count(q) == len(pts)
        for i, one in enumerate(singles):
            assert rel_err(stacked[..., i], one) < 1e-13
