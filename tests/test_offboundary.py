"""One off-boundary evaluation path: shared kernels, density lists, point blocks.

Every point of a localization scan goes through `offboundary_eval`, so its
guard and its `quad` choice hold on both sides of the surface.
"""

import numpy as np
import pytest

from mnpspr.mie import SphereMode, mode_tangent_field
from mnpspr import plasmon
from mnpspr.plasmon import PlasmonMode, localization_scan, plasmon_field
from mnpspr.potentials import (
    POINT_BLOCK,
    KindError,
    NearBoundaryError,
    offboundary_eval,
    scalar_operators,
)
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

    def test_stacked_node_values_equal_list(self, sphere10, rng):
        pts = np.vstack([fibonacci_shell(4, 2.0), fibonacci_shell(3, 0.4)])
        for kind in ("S", "curlcurlS_vec"):
            dens = densities(kind, rng)
            values = sphere10.values_at(dens)
            kept = values.copy()
            stacked = offboundary_eval(values, [1.3, 0.7], pts, kind, sphere10)
            assert np.array_equal(values, kept)  # the caller's array is not weighted in place
            assert rel_err(stacked, offboundary_eval(dens, [1.3, 0.7], pts, kind, sphere10)) < 1e-15


class TestKindErrors:
    """A density that does not fit its kinds raises KindError on both rules."""

    @staticmethod
    def scalar():
        return ShCoeffs.unit(2, 1, L=6)

    @staticmethod
    def tangent():
        return mode_tangent_field(SphereMode(1, 2, 1, 1.0), 6)

    @pytest.mark.parametrize("quad", ["auto", "near"])
    @pytest.mark.parametrize(
        "kind, make, wrong",
        [
            pytest.param("S", lambda s, t: t, "TangentField", id="S-tangent"),
            pytest.param("gradS", lambda s, t: [t, t], "TangentField", id="gradS-tangent-list"),
            pytest.param("curlS_vec", lambda s, t: s, "ShCoeffs", id="curlS_vec-scalar"),
            pytest.param("curlcurlS_vec", lambda s, t: [s], "ShCoeffs", id="curlcurlS_vec-list"),
            pytest.param("S", lambda s, t: [s, t], "TangentField", id="S-mixed-list"),
            pytest.param("curlS_vec", lambda s, t: [t, s], "ShCoeffs", id="curlS_vec-mixed-list"),
        ],
    )
    def test_wrong_density_type(self, sphere10, quad, kind, make, wrong):
        pts = np.array([[0.0, 0.0, 2.0]]) if quad == "auto" else np.array([[0.0, 0.0, 1.05]])
        dens = make(self.scalar(), self.tangent())
        with pytest.raises(KindError, match=f"{kind} .*{wrong}"):
            offboundary_eval(dens, 1.0, pts, kind, sphere10, quad=quad, n_polar=40)

    def test_node_values_on_the_near_rule(self, sphere10):
        values = sphere10.values_at([self.tangent()])
        with pytest.raises(KindError):
            offboundary_eval(values, 1.0, np.array([0.0, 0.0, 1.05]), "curlS_vec", sphere10,
                             quad="near")
        with pytest.raises(KindError):
            offboundary_eval(values, 1.0, np.array([0.0, 0.0, 2.0]), "S", sphere10)


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


def many_densities(kind, rng):
    """More densities than one grid-rule pass takes with per-density wavenumbers."""
    if kind in ("S", "gradS"):
        return [random_band_limited(rng, 6, mean_free=False) for _ in range(40)]
    return [
        mode_tangent_field(SphereMode(l, n, m, 1.0), 8)
        for l in (1, 2) for n in range(1, 5) for m in range(-n, n + 1)
    ]


class TestPerDensityWavenumbers:
    """A k array, one wavenumber per density, equals one scalar-k call per density."""

    GRID_POINTS = np.vstack([fibonacci_shell(4, 2.0), fibonacci_shell(3, 0.4)])
    NEAR_POINTS = np.array([[0.0, 0.0, 1.05], [0.6, 0.0, 0.9]])

    @staticmethod
    def wavenumbers(n):
        ks = np.linspace(0.4, 2.2, n).astype(complex)
        ks[1] += 0.1j
        return ks

    @pytest.mark.parametrize("kind", KINDS)
    def test_node_rule(self, sphere10, rng, kind):
        dens = many_densities(kind, rng)
        assert len(dens) > POINT_BLOCK
        ks = self.wavenumbers(len(dens))
        batched = offboundary_eval(dens, ks, self.GRID_POINTS, kind, sphere10)
        for i, (d, k) in enumerate(zip(dens, ks)):
            one = offboundary_eval(d, k, self.GRID_POINTS, kind, sphere10)
            assert rel_err(batched[..., i], one) < 1e-13

    @pytest.mark.parametrize("kind", KINDS)
    def test_near_rule(self, sphere10, rng, kind):
        dens = many_densities(kind, rng)[:12]
        ks = self.wavenumbers(len(dens))
        batched = offboundary_eval(
            dens, ks, self.NEAR_POINTS, kind, sphere10, quad="near", n_polar=40
        )
        for i, (d, k) in enumerate(zip(dens, ks)):
            one = offboundary_eval(d, k, self.NEAR_POINTS, kind, sphere10, quad="near", n_polar=40)
            assert rel_err(batched[..., i], one) < 1e-13

    def test_equal_wavenumbers_equal_a_scalar_k(self, sphere10, rng):
        dens = many_densities("curlcurlS_vec", rng)[:5]
        shared = offboundary_eval(dens, 1.3, self.GRID_POINTS, "curlcurlS_vec", sphere10)
        same = offboundary_eval(dens, np.full(5, 1.3), self.GRID_POINTS, "curlcurlS_vec", sphere10)
        assert np.array_equal(shared, same)

    def test_wrong_count_is_rejected(self, sphere10, rng):
        dens = many_densities("curlS_vec", rng)[:3]
        with pytest.raises(ValueError, match="2 wavenumbers for 3 densities"):
            offboundary_eval(dens, [1.0, 2.0], self.GRID_POINTS, "curlS_vec", sphere10)


class TestKindTuples:
    """A tuple of kinds gives the single-kind results, in the order asked."""

    @pytest.mark.parametrize("kinds", [("S", "gradS"), ("curlS_vec", "curlcurlS_vec"),
                                       ("curlcurlS_vec", "curlS_vec")])
    @pytest.mark.parametrize("quad", ["auto", "near"])
    def test_tuple_equals_single_kinds(self, sphere10, rng, kinds, quad):
        dens = many_densities(kinds[0], rng)[:6]
        pts = TestPerDensityWavenumbers.NEAR_POINTS if quad == "near" else np.array(
            [[0.0, 0.0, 2.0], [0.3, 0.1, 0.2]]
        )
        for k in (1.3, np.linspace(0.5, 1.5, len(dens))):
            both = offboundary_eval(dens, k, pts, kinds, sphere10, quad=quad, n_polar=40)
            assert isinstance(both, tuple) and len(both) == 2
            for kind, got in zip(kinds, both):
                one = offboundary_eval(dens, k, pts, kind, sphere10, quad=quad, n_polar=40)
                assert rel_err(got, one) < 1e-15

    def test_single_point_single_density(self, sphere10, rng):
        dens = many_densities("curlS_vec", rng)[0]
        curl, curlcurl = offboundary_eval(
            dens, 1.0, np.array([0.0, 0.0, 2.0]), ("curlS_vec", "curlcurlS_vec"), sphere10
        )
        assert curl.shape == curlcurl.shape == (3,)

    def test_mixed_density_types_are_rejected(self, sphere10, rng):
        dens = many_densities("S", rng)[0]
        with pytest.raises(KindError):
            offboundary_eval(dens, 1.0, np.array([0.0, 0.0, 2.0]), ("S", "curlS_vec"), sphere10)


@pytest.fixture(scope="module")
def pert8_family():
    """Every curl plasmon mode of rho = 1 + 0.05 Re Y_2^0 at L = L_quad = 8."""
    grid = perturbed_sphere(0.05, 2, 0, 8)
    ops = scalar_operators(grid, 8)
    curl, _ = mnp_spectra(np_spectrum(ops["S"], ops["Kstar"]), ops["S"], grid)
    return grid, [PlasmonMode.from_eigenmode(j, curl) for j in range(len(curl))]


BOTH_SIDES = np.vstack([fibonacci_shell(6, 2.5), fibonacci_shell(4, 0.3)])


class TestOneCallPerSide:
    """On the grid rule each block of POINT_BLOCK modes takes one call per side."""

    @pytest.mark.parametrize("count", [1, 7, 80])
    def test_field_batch_calls(self, pert8_family, monkeypatch, count):
        grid, modes = pert8_family
        calls = []
        evaluate = plasmon.offboundary_eval

        def counting(*args, **kwargs):
            calls.append(args[2].shape)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(plasmon, "offboundary_eval", counting)
        E, H = plasmon._field_batch(modes[:count], BOTH_SIDES, grid, "auto")
        blocks = -(-count // POINT_BLOCK)
        assert len(calls) == 2 * blocks
        assert sorted(shape[0] for shape in calls) == [4] * blocks + [6] * blocks
        assert E.shape == H.shape == (count, len(BOTH_SIDES), 3)

    def test_field_batch_equals_plasmon_field(self, pert8_family):
        grid, modes = pert8_family
        assert_batch_equals_single(modes[::9], grid)

    def test_field_batch_blocks_equal_plasmon_field(self, pert8_family, monkeypatch):
        grid, modes = pert8_family
        # 9 modes in blocks of 4: two full blocks and a partial one
        monkeypatch.setattr(plasmon, "POINT_BLOCK", 4)
        assert_batch_equals_single(modes[::9], grid)


def assert_batch_equals_single(family, grid):
    E, H = plasmon._field_batch(family, BOTH_SIDES, grid, "auto")
    for j, mode in enumerate(family):
        Ep, Hp = np.array([plasmon_field(mode, x, grid) for x in BOTH_SIDES]).transpose(1, 0, 2)
        # relative to the mode's largest field: a point far below it sits at
        # the cancellation floor of the node sum, where round-off is all there is
        for batch, single in ((E[j], Ep), (H[j], Hp)):
            scale = np.linalg.norm(single, axis=-1).max()
            assert np.linalg.norm(batch - single, axis=-1).max() <= 1e-12 * scale


class TestPointArrays:
    """tubular_distance and _is_inside take a (P, 3) array: one value per point."""

    def test_equal_per_point(self, pert8_family):
        grid, _ = pert8_family
        pts = np.vstack([fibonacci_shell(9, r) for r in (0.3, 0.97, 1.02, 1.5, 3.0)])
        pts = np.vstack([pts, grid.positions[:5]])
        dists = tubular_distance(pts, grid)
        inside = plasmon._is_inside(pts, grid)
        assert dists.shape == inside.shape == (len(pts),)
        assert 0 < inside.sum() < len(pts)
        for p, x in enumerate(pts):
            d, a = tubular_distance(x, grid), plasmon._is_inside(x, grid)
            assert type(d) is float and type(a) is bool
            assert d == dists[p] and a == inside[p]


class TestScanMemory:
    """The traced peak of a scan over every curl mode stays under the previous paths'.

    The first two bounds are the tracemalloc peaks of the same scans with
    one off-boundary call per mode inside: 7.75 MB on the grid rule (40
    exterior and 10 interior points, 324 nodes) and 180.25 MB on the near
    rule (one point each side, 15360 patch points).  Evaluating all 80
    per-mode wavenumbers of a pass at once, unblocked, exceeds both.  The
    third sits between the grid-rule peaks with the node values of all 80
    modes alive at once, 6.62 MB, and with POINT_BLOCK of them, 4.63 MB.
    """

    @pytest.mark.parametrize(
        "quad, shells, bound_mb",
        [
            ("auto", ((40, 2.5), (10, 0.3)), 7.8),
            ("near", ((1, 2.5), (1, 0.3)), 181.0),
            ("auto", ((40, 2.5), (10, 0.3)), 5.5),
        ],
    )
    def test_peak_under_bound(self, pert8_family, quad, shells, bound_mb):
        import tracemalloc

        grid, modes = pert8_family
        pts = np.vstack([fibonacci_shell(n, r) for n, r in shells])
        localization_scan(modes[:2], pts, 0.5, grid, quad=quad)  # the grid's lazy caches
        tracemalloc.start()
        try:
            localization_scan(modes, pts, 0.5, grid, quad=quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6
