"""One off-boundary evaluation path: shared kernels, density lists, point blocks.

Every point of a localization scan goes through `offboundary_eval`, so its
choice of rule and its floor hold on both sides of the surface.  Tests of
the near rule that do not check its accuracy run it at polar order 40
(`near_polar_40`), whose floor on the unit sphere is 0.079.
"""

import numpy as np
import pytest

from mnpspr.mie import SphereMode, exact_sphere_potential, mode_tangent_field
from mnpspr import plasmon, potentials
from mnpspr.plasmon import PlasmonMode, localization_scan, plasmon_field
from mnpspr.potentials import (
    POINT_BLOCK,
    KindError,
    NearBoundaryError,
    helmholtz_point_kernels,
    offboundary_eval,
)
from mnpspr.spectral import mnp_spectra
from mnpspr.surface import (
    ShCoeffs,
    perturbed_sphere,
    radial_gap,
    random_band_limited,
    sphere_surface,
    tubular_distance,
)

from conftest import fibonacci_shell

KINDS = ("S", "gradS", "curlS_vec", "curlcurlS_vec")


# unit-sphere points inside the 0.43 guard of L_quad = 10 and above the 0.079 floor of order 40
NEAR_POINTS = np.array([[0.0, 0.0, 1.1], [0.6, 0.0, 0.95]])
# points that take the grid rule ("auto") and the near rule ("near") on the unit sphere at L_quad 10
RULE_POINTS = {"auto": np.array([[0.0, 0.0, 2.0], [0.3, 0.1, 0.2]]), "near": NEAR_POINTS}


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def pert10():
    """rho = 1 + 0.1 Re Y_2^1 at L_quad = 10, a surface with no axis of symmetry."""
    return perturbed_sphere(0.1, 2, 1, 10)


@pytest.fixture(scope="module")
def pert8_modes():
    """rho = 1 + 0.05 Re Y_2^0 at L_quad = 8 and its curl plasmon modes."""
    grid = perturbed_sphere(0.05, 2, 0, 8)
    curl, _ = mnp_spectra(grid, 8)
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
    def test_list_equals_single_calls_near_rule(self, sphere10, rng, near_polar_40, kind):
        dens = densities(kind, rng)
        stacked = offboundary_eval(dens, 1.3, NEAR_POINTS, kind, sphere10)
        for i, d in enumerate(dens):
            one = offboundary_eval(d, 1.3, NEAR_POINTS, kind, sphere10)
            assert rel_err(stacked[..., i], one) < 1e-13

    def test_single_point_list_shape(self, sphere10, rng):
        dens = densities("curlS_vec", rng)
        out = offboundary_eval(dens, 1.0, np.array([0.0, 0.0, 2.0]), "curlS_vec", sphere10)
        assert out.shape == (3, 2)


class TestKindErrors:
    """A density that does not fit its kinds raises KindError on both rules."""

    @staticmethod
    def scalar():
        return ShCoeffs.unit(2, 1, L=6)

    @staticmethod
    def tangent():
        return mode_tangent_field(SphereMode(1, 2, 1, 1.0), 6)

    @pytest.mark.parametrize("rule", ["auto", "near"])
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
    def test_wrong_density_type(self, sphere10, near_polar_40, rule, kind, make, wrong):
        dens = make(self.scalar(), self.tangent())
        with pytest.raises(KindError, match=f"{kind} .*{wrong}"):
            offboundary_eval(dens, 1.0, RULE_POINTS[rule], kind, sphere10)

    def test_node_values_on_the_near_rule(self, sphere10):
        # node values are not a density, near the surface or away from it
        values = sphere10.values_at([self.tangent()])
        for x, kind in ((NEAR_POINTS[0], "curlS_vec"), (np.array([0.0, 0.0, 2.0]), "S")):
            with pytest.raises(KindError, match="ndarray"):
                offboundary_eval(values, 1.0, x, kind, sphere10)


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
    def test_exterior_point_below_floor_raises(self, pert8_modes):
        grid, modes = pert8_modes
        floor = np.pi * np.max(grid.rho) / potentials.NEAR_POLAR
        x = np.array([1.0 - radial_gap(np.array([1.0, 0.0, 0.0]), grid) + 0.5 * floor, 0.0, 0.0])
        assert 0.01 < tubular_distance(x, grid)  # outside the 0.01-tube, below the floor
        with pytest.raises(NearBoundaryError, match="floor"):
            plasmon_field(modes[0], x, grid)
        with pytest.raises(NearBoundaryError, match="floor"):
            localization_scan(modes, x[None, :], 0.01, grid)

    def test_near_rule_reaches_exterior_points(self, pert8_modes, near_polar_40):
        grid, modes = pert8_modes
        pts = np.array([[0.0, 0.0, 1.35], [0.9, 0.9, 0.2]])
        assert np.all(tubular_distance(pts, grid) <= 3.0 * grid.max_spacing)
        rep = localization_scan(modes, pts, 0.1, grid)
        for row, mid in enumerate(rep.mode_ids):
            mode = next(m for m in modes if m.index == mid)
            for p, x in enumerate(pts):
                E, H = plasmon_field(mode, x, grid)
                assert abs(rep.e_point_mags[row, p] - np.linalg.norm(E)) <= 1e-10 * np.linalg.norm(E)
                assert abs(rep.h_point_mags[row, p] - np.linalg.norm(H)) <= 1e-10 * np.linalg.norm(H)


class TestNearPatchBasis:
    """The near rule evaluates the patch basis once per point for a density list."""

    @pytest.mark.parametrize("kind", ("S", "curlS_vec"))
    def test_one_patch_basis_per_point(self, pert8_modes, rng, monkeypatch, near_polar_40, kind):
        import mnpspr.surface as surface

        grid, _ = pert8_modes
        dens = densities(kind, rng)
        pts = np.array([[0.0, 0.0, 1.15], [0.75, 0.0, 0.85]])
        singles = [offboundary_eval(d, 1.3, pts, kind, grid) for d in dens]
        sizes = []
        ynm_matrix = surface.ynm_matrix

        def counting(theta, phi, L, derivatives=False):
            sizes.append(np.size(theta))
            return ynm_matrix(theta, phi, L, derivatives)

        monkeypatch.setattr(surface, "ynm_matrix", counting)
        stacked = offboundary_eval(dens, 1.3, pts, kind, grid)
        q = 40 * 48  # the near rule's polar order x its azimuth count at L_quad = 8
        assert sizes.count(q) == len(pts)
        for i, one in enumerate(singles):
            assert rel_err(stacked[..., i], one) < 1e-13


def many_densities(kind, rng):
    """More densities than POINT_BLOCK, the most `plasmon._field_batch` passes per call."""
    if kind in ("S", "gradS"):
        return [random_band_limited(rng, 6, mean_free=False) for _ in range(40)]
    return [
        mode_tangent_field(SphereMode(l, n, m, 1.0), 8)
        for l in (1, 2) for n in range(1, 5) for m in range(-n, n + 1)
    ]


class TestPerDensityWavenumbers:
    """A k array, one wavenumber per density, equals one scalar-k call per density."""

    GRID_POINTS = np.vstack([fibonacci_shell(4, 2.0), fibonacci_shell(3, 0.4)])

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
    def test_near_rule(self, sphere10, rng, near_polar_40, kind):
        dens = many_densities(kind, rng)[:12]
        ks = self.wavenumbers(len(dens))
        batched = offboundary_eval(dens, ks, NEAR_POINTS, kind, sphere10)
        for i, (d, k) in enumerate(zip(dens, ks)):
            one = offboundary_eval(d, k, NEAR_POINTS, kind, sphere10)
            assert rel_err(batched[..., i], one) < 1e-13

    # runs of equal wavenumbers, and a repeat that is not next to its equal
    RUNS = np.array([0.8, 0.8, 1.6 + 0.1j, 1.6 + 0.1j, 1.6 + 0.1j, 0.8, 2.1])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rule", ["auto", "near"])
    def test_runs_equal_per_density_calls(self, sphere10, rng, near_polar_40, kind, rule):
        dens = many_densities(kind, rng)[: len(self.RUNS)]
        pts = RULE_POINTS[rule]
        batched = offboundary_eval(dens, self.RUNS, pts, kind, sphere10)
        for i, (d, k) in enumerate(zip(dens, self.RUNS)):
            assert rel_err(batched[..., i], offboundary_eval(d, k, pts, kind, sphere10)) < 1e-13

    def test_one_pass_per_run_and_point_block(self, sphere10, rng, monkeypatch):
        dens = many_densities("curlcurlS_vec", rng)[: len(self.RUNS)]
        pts = np.vstack([fibonacci_shell(36, 2.0), fibonacci_shell(4, 0.4)])
        assert not np.any(tubular_distance(pts, sphere10) <= 3.0 * sphere10.max_spacing)
        calls = []
        layer_sum = potentials._layer_sum

        def counting(k, targets, *args):
            calls.append((np.ndim(k), len(targets)))
            return layer_sum(k, targets, *args)

        monkeypatch.setattr(potentials, "_layer_sum", counting)
        offboundary_eval(dens, self.RUNS, pts, "curlcurlS_vec", sphere10)
        runs, blocks = 4, -(-len(pts) // POINT_BLOCK)
        assert len(calls) == runs * blocks
        assert all(ndim == 0 for ndim, _ in calls)
        assert sorted({n for _, n in calls}) == [len(pts) - POINT_BLOCK, POINT_BLOCK]

    def test_equal_wavenumbers_equal_a_scalar_k(self, sphere10, rng):
        dens = many_densities("curlcurlS_vec", rng)[:5]
        shared = offboundary_eval(dens, 1.3, self.GRID_POINTS, "curlcurlS_vec", sphere10)
        same = offboundary_eval(dens, np.full(5, 1.3), self.GRID_POINTS, "curlcurlS_vec", sphere10)
        assert np.array_equal(shared, same)

    def test_wrong_count_is_rejected(self, sphere10, rng):
        dens = many_densities("curlS_vec", rng)[:3]
        with pytest.raises(ValueError, match="2 wavenumbers for 3 densities"):
            offboundary_eval(dens, [1.0, 2.0], self.GRID_POINTS, "curlS_vec", sphere10)
        with pytest.raises(ValueError, match="broadcast"):  # 2 rows of wavenumbers for 7 points
            offboundary_eval(dens, np.ones((2, 3)), self.GRID_POINTS, "curlS_vec", sphere10)

    @pytest.mark.parametrize("case", ["real", "lossy", "per-density"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_node_sums_of_the_point_kernels(self, pert10, rng, kind, case):
        """The grid rule is the node sum of G, grad G, grad G x d and (Hess G + k^2 G) d."""
        dens = densities(kind, rng)
        ks = {"real": np.full(2, 1.3), "lossy": np.full(2, 1.3 + 0.2j),
              "per-density": np.array([0.7, 1.9 + 0.1j])}[case]
        k = ks if case == "per-density" else ks[0]
        pts = self.GRID_POINTS
        assert not np.any(tubular_distance(pts, pert10) <= 3.0 * pert10.max_spacing)
        got = offboundary_eval(dens, k, pts, kind, pert10)
        vals = pert10.values_at(dens)
        vals *= pert10.area_weights.reshape((-1,) + (1,) * (vals.ndim - 1))
        rvec = pts[:, None, :] - pert10.positions
        for j, kj in enumerate(ks):
            G, grad, hess = helmholtz_point_kernels(kj, rvec, want_hessian=True)
            d = vals[..., j]
            want = {
                "S": lambda: G @ d,
                "gradS": lambda: np.einsum("pna,n->pa", grad, d),
                "curlS_vec": lambda: np.cross(grad, d).sum(axis=1),
                "curlcurlS_vec": lambda: np.einsum("pnab,nb->pa", hess, d) + kj**2 * (G @ d),
            }[kind]()
            assert rel_err(got[..., j], want) < 1e-12


class TestPointRowWavenumbers:
    """A (points, densities) k array equals one call per point with its own row."""

    @pytest.mark.parametrize("kind", ("S", "curlcurlS_vec"))
    def test_rows_equal_per_point_calls(self, sphere10, rng, near_polar_40, kind):
        dens = many_densities(kind, rng)[:5]
        pts = np.vstack([TestPerDensityWavenumbers.GRID_POINTS, NEAR_POINTS])
        shared, own = np.full(5, 1.3), TestPerDensityWavenumbers.wavenumbers(5)
        # rows alternate between one shared wavenumber and one per density
        ks = np.array([shared if p % 2 else own for p in range(len(pts))])
        rows = offboundary_eval(dens, ks, pts, kind, sphere10)
        for p, x in enumerate(pts):
            assert rel_err(rows[p], offboundary_eval(dens, ks[p], x, kind, sphere10)) < 1e-13


class TestKindTuples:
    """A tuple of kinds gives the single-kind results, in the order asked."""

    @pytest.mark.parametrize("kinds", [("S", "gradS"), ("curlS_vec", "curlcurlS_vec"),
                                       ("curlcurlS_vec", "curlS_vec")])
    @pytest.mark.parametrize("rule", ["auto", "near"])
    def test_tuple_equals_single_kinds(self, sphere10, rng, near_polar_40, kinds, rule):
        dens = many_densities(kinds[0], rng)[:6]
        pts = RULE_POINTS[rule]
        for k in (1.3, np.linspace(0.5, 1.5, len(dens))):
            both = offboundary_eval(dens, k, pts, kinds, sphere10)
            assert isinstance(both, tuple) and len(both) == 2
            for kind, got in zip(kinds, both):
                one = offboundary_eval(dens, k, pts, kind, sphere10)
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
    curl, _ = mnp_spectra(grid, 8)
    return grid, [PlasmonMode.from_eigenmode(j, curl) for j in range(len(curl))]


BOTH_SIDES = np.vstack([fibonacci_shell(6, 2.5), fibonacci_shell(4, 0.3)])


class TestOneCallPerSide:
    """A scan takes one call for all its modes and both sides' points."""

    @pytest.mark.parametrize("count", [1, 7, 80])
    def test_field_batch_calls(self, pert8_family, monkeypatch, count):
        grid, modes = pert8_family
        calls = []
        evaluate = plasmon.offboundary_eval

        def counting(*args, **kwargs):
            calls.append((len(args[0]), args[2].shape))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(plasmon, "offboundary_eval", counting)
        E, H = plasmon._field_batch(modes[:count], BOTH_SIDES, grid)
        assert calls == [(count, BOTH_SIDES.shape)]
        assert E.shape == H.shape == (count, len(BOTH_SIDES), 3)

    def test_field_batch_equals_plasmon_field(self, pert8_family):
        grid, modes = pert8_family
        assert_batch_equals_single(modes[::9], grid)

    def test_field_batch_blocks_equal_plasmon_field(self, pert8_family, monkeypatch):
        grid, modes = pert8_family
        # 9 modes in blocks of 4: two full blocks and a partial one
        monkeypatch.setattr(potentials, "POINT_BLOCK", 4)
        assert_batch_equals_single(modes[::9], grid)


def count_patch_builds(monkeypatch):
    """Counts `near_singular_eval` calls, `ynm_matrix` sizes and the most densities in a pass."""
    import mnpspr.surface as surface

    counts = {"patches": 0, "bases": [], "block": 0}
    near_singular_eval, ynm_matrix, passes = (
        potentials.near_singular_eval, surface.ynm_matrix, potentials._passes
    )

    def patch(*args):
        counts["patches"] += 1
        return near_singular_eval(*args)

    def basis(theta, *args, **kwargs):
        counts["bases"].append(np.size(theta))
        return ynm_matrix(theta, *args, **kwargs)

    def blocked(k, targets, sources, kinds, wdens, block):
        counts["block"] = max(counts["block"], wdens.shape[-1])
        return passes(k, targets, sources, kinds, wdens, block)

    monkeypatch.setattr(potentials, "near_singular_eval", patch)
    monkeypatch.setattr(surface, "ynm_matrix", basis)
    monkeypatch.setattr(potentials, "_passes", blocked)
    return counts


class TestOnePatchPerNearPoint:
    """Each near point builds its patch and patch basis once for every density block."""

    # an exterior point with one shared k and an interior one with a k per density
    POINTS = np.array([[0.6, 0.0, 0.95], [0.3, 0.4, -0.75]])

    def test_blocks_equal_per_density_calls(self, sphere10, rng, monkeypatch, near_polar_40):
        dens = many_densities("curlcurlS_vec", rng)
        assert len(dens) > POINT_BLOCK
        assert np.all(tubular_distance(self.POINTS, sphere10) <= 3.0 * sphere10.max_spacing)
        ks = np.array([np.full(len(dens), 1.3), TestPerDensityWavenumbers.wavenumbers(len(dens))])
        singles = [
            offboundary_eval(d, ks[:, i : i + 1], self.POINTS, "curlcurlS_vec", sphere10)
            for i, d in enumerate(dens)
        ]
        counts = count_patch_builds(monkeypatch)
        batched = offboundary_eval(dens, ks, self.POINTS, "curlcurlS_vec", sphere10)
        assert counts["patches"] == len(self.POINTS)
        assert counts["bases"] == [40 * 48] * len(self.POINTS)  # polar order x azimuths
        assert counts["block"] == POINT_BLOCK
        for i, one in enumerate(singles):
            assert rel_err(batched[..., i], one) < 1e-13

    def test_scan_builds_each_patch_once(self, pert8_family, monkeypatch, near_polar_40):
        grid, modes = pert8_family
        pts = np.array([[0.0, 0.0, 1.35], [0.0, 0.0, 0.8]])
        assert np.all(tubular_distance(pts, grid) <= 3.0 * grid.max_spacing)
        assert len(modes) > 2 * POINT_BLOCK
        counts = count_patch_builds(monkeypatch)
        plasmon._field_batch(modes, pts, grid)
        assert counts["patches"] == len(pts)
        assert len(counts["bases"]) == len(pts)
        assert counts["block"] == POINT_BLOCK


def assert_batch_equals_single(family, grid):
    E, H = plasmon._field_batch(family, BOTH_SIDES, grid)
    for j, mode in enumerate(family):
        Ep, Hp = np.array([plasmon_field(mode, x, grid) for x in BOTH_SIDES]).transpose(1, 0, 2)
        # relative to the mode's largest field: a point far below it sits at
        # the cancellation floor of the node sum, where round-off is all there is
        for batch, single in ((E[j], Ep), (H[j], Hp)):
            scale = np.linalg.norm(single, axis=-1).max()
            assert np.linalg.norm(batch - single, axis=-1).max() <= 1e-12 * scale


class TestPointArrays:
    """tubular_distance and radial_gap take a (P, 3) array: one value per point."""

    def test_equal_per_point(self, pert8_family):
        grid, _ = pert8_family
        pts = np.vstack([fibonacci_shell(9, r) for r in (0.3, 0.97, 1.02, 1.5, 3.0)])
        pts = np.vstack([pts, grid.positions[:5]])
        dists = tubular_distance(pts, grid)
        gaps = radial_gap(pts, grid)
        assert dists.shape == gaps.shape == (len(pts),)
        assert 0 < (gaps < 0).sum() < len(pts)
        for p, x in enumerate(pts):
            d, g = tubular_distance(x, grid), radial_gap(x, grid)
            assert type(d) is float and type(g) is float
            assert d == dists[p] and g == gaps[p]


class TestScanMemory:
    """The traced peak of a scan over every curl mode stays under the previous paths'.

    The first two bounds are the tracemalloc peaks of the same scans with
    one off-boundary call per mode inside: 7.75 MB on the grid rule (40
    exterior and 10 interior points, 324 nodes) and 180.25 MB on the near
    rule (one point each side inside the guard, 15360 patch points).  Evaluating all 80
    per-mode wavenumbers of a pass at once, unblocked, exceeds both.  The
    third sits between the grid-rule peaks with the node values of all 80
    modes alive at once, 6.62 MB, and with POINT_BLOCK of them, 4.63 MB.
    The fourth sits between the grid-rule peaks with three (P, N, 3) kernel
    tensors per pass, 4.43 MB, and with (P, N) factors folded into one
    workspace, 2.54 MB.
    """

    @pytest.mark.parametrize(
        "rule, shells, bound_mb",
        [
            ("auto", ((40, 2.5), (10, 0.3)), 7.8),
            ("near", ((1, 1.3), (1, 0.8)), 181.0),
            ("auto", ((40, 2.5), (10, 0.3)), 5.5),
            ("auto", ((40, 2.5), (10, 0.3)), 3.8),
        ],
    )
    def test_peak_under_bound(self, pert8_family, rule, shells, bound_mb):
        import tracemalloc

        grid, modes = pert8_family
        pts = np.vstack([fibonacci_shell(n, r) for n, r in shells])
        near = tubular_distance(pts, grid) <= 3.0 * grid.max_spacing
        assert near.all() if rule == "near" else not near.any()
        localization_scan(modes[:2], pts, 0.1, grid)  # the grid's lazy caches
        tracemalloc.start()
        try:
            localization_scan(modes, pts, 0.1, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6


# the near rule's relative error against the closed forms, at NEAR_POLAR, from
# just above its floor to just inside the guard; the largest found is 2.6e-10,
# by curlcurlS of the family-2 modes just above the floor
NEAR_TOL = 1e-9
PROBE = np.array([0.6, 0.64, 0.48])


class TestNearRuleOracle:
    """The near rule against `exact_sphere_potential` on the unit sphere at L_quad = 10."""

    MODES = [SphereMode(l, n, 1, 1.0) for l in (1, 2) for n in (2, 10)]

    @staticmethod
    def gaps(grid):
        floor = np.pi * np.max(grid.rho) / potentials.NEAR_POLAR
        return [1.2 * floor, 0.05, 2.85 * grid.max_spacing]

    @pytest.mark.parametrize("side", [1, -1], ids=["exterior", "interior"])
    def test_matches_closed_forms(self, sphere10, side):
        dens = [mode_tangent_field(mode, 10) for mode in self.MODES]
        for gap in self.gaps(sphere10):
            x = (1.0 + side * gap) * PROBE
            assert tubular_distance(x, sphere10) <= 3.0 * sphere10.max_spacing
            fields = offboundary_eval(dens, 1.0, x, ("curlS_vec", "curlcurlS_vec"), sphere10)
            for i, mode in enumerate(self.MODES):
                for which, num in zip(("curlS", "curlcurlS"), fields):
                    exact = exact_sphere_potential(mode, 1.0, x, which)
                    assert rel_err(num[:, i], exact) <= NEAR_TOL, (gap, mode, which)


class TestNearFloor:
    """A point at or below one near-rule polar step of radial gap raises."""

    def test_points_at_the_floor_raise(self, sphere10):
        dens = mode_tangent_field(SphereMode(2, 2, 1, 1.0), 6)
        floor = np.pi / potentials.NEAR_POLAR
        points = [(1.0 + 0.9 * floor) * PROBE, (1.0 - floor) * PROBE, PROBE, sphere10.positions[17]]
        for x in points:
            with pytest.raises(NearBoundaryError, match="floor"):
                offboundary_eval(dens, 1.0, x, "curlS_vec", sphere10)
        # one point below the floor refuses the whole call
        with pytest.raises(NearBoundaryError):
            offboundary_eval(dens, 1.0, np.vstack([2.0 * PROBE, PROBE]), "curlS_vec", sphere10)

    def test_floor_reads_the_radial_gap(self):
        # next to the surface the node-sampled distance reads far above the floor: 0.046
        # at radial gap 0.005 on rho = 1 + 0.2 Re Y_2^0 at L_quad = 12, and 0.166 at the
        # unit sphere's pole, on the surface, at L_quad = 6
        cases = [
            (perturbed_sphere(0.2, 2, 0, 12), PROBE, 0.005),
            (sphere_surface(1.0, 6), np.array([0.0, 0.0, 1.0]), 0.0),
        ]
        for grid, xhat, gap in cases:
            x = (1.0 - radial_gap(xhat, grid) + gap) * xhat  # |xhat| = 1
            assert abs(radial_gap(x, grid) - gap) < 1e-12
            assert tubular_distance(x, grid) > 0.04
            with pytest.raises(NearBoundaryError, match="floor"):
                offboundary_eval(ShCoeffs.unit(2, 0, L=4), 1.0, x, "S", grid)
