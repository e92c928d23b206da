import numpy as np
import pytest
from conftest import arrays_in, basis_arrays

from mnpspr.potentials import correction_unit_matrices, scalar_operators, slot_blocks
from mnpspr.scatter import static_magnetic_block
from mnpspr.spectral import mnp_spectra, np_spectrum, quotient_gram_matrix
from mnpspr.sphharm import harmonic_moments, sh_degrees, sh_index, ynm_matrix
from mnpspr.surface import (
    ResolutionError,
    ShCoeffs,
    StarShapeError,
    TangentField,
    build_surface,
    perturbed_sphere,
    radius_from_json,
    random_band_limited,
    sphere_surface,
    tubular_distance,
)

FOUR_PI = 4.0 * np.pi


def values(grid, u):
    """Node values of a scalar density."""
    return grid.values_at([u])[:, 0]


def grad(grid, u):
    """Node values of grad_S u."""
    return grid.tangent_values(TangentField.from_potentials(X=u))


def vcurl(grid, u):
    """Node values of vcurl_S u = -normal x grad_S u."""
    return grid.tangent_values(TangentField.from_potentials(V=u))


def laplacian(grid, u):
    """Node values of the Laplace-Beltrami operator of u, in the weak form."""
    return values(grid, ShCoeffs(grid.L_quad, grid.laplace_matrix() @ u.padded(grid.L_quad)))


class TestBuildSurface:
    def test_unit_sphere_area(self, sphere16):
        assert abs(sphere16.area - FOUR_PI) < 1e-10

    def test_scaled_sphere_area(self):
        g = sphere_surface(0.5, 16)
        assert abs(g.area - FOUR_PI * 0.25) < 1e-9
        assert np.allclose(g.positions, 0.5 * (g.positions / np.linalg.norm(g.positions, axis=1)[:, None]))
        assert np.allclose(g.normals, g.positions / 0.5, atol=1e-12)

    def test_perturbed_area_against_dense_quadrature(self):
        # independent oracle: closed-form rho and a fine product rule,
        # no shared transform code
        g = perturbed_sphere(0.1, 2, 0, 24)
        x, w = np.polynomial.legendre.leggauss(400)
        th = np.arccos(x)
        amp = 0.1 * np.sqrt(5.0 / (16.0 * np.pi))
        rho = 1.0 + amp * (3.0 * np.cos(th) ** 2 - 1.0)
        drho = amp * (-6.0 * np.cos(th) * np.sin(th))
        area = 2.0 * np.pi * np.sum(w * rho * np.sqrt(rho**2 + drho**2))
        assert abs(g.area - area) < 1e-8

    def test_invariants(self, pert12):
        g = pert12
        assert np.max(np.abs(np.linalg.norm(g.normals, axis=1) - 1.0)) < 1e-12
        assert np.all(g.area_weights > 0)
        assert np.all(g.rho > 0)
        assert g.n_nodes >= (2 * 12 + 2) ** 2
        # exterior orientation for a convex-ish perturbation
        assert np.all(np.einsum("ij,ij->i", g.normals, g.positions) > 0)
        # closed-surface normal integral vanishes
        assert np.max(np.abs(g.normals.T @ g.area_weights)) < 1e-8

    def test_star_shape_violation(self):
        c = ShCoeffs.constant(1.0, L=2)
        c.coeffs[sh_index(2, 0)] = 4.0  # drives rho negative near the poles
        with pytest.raises(StarShapeError):
            build_surface(c, 8)

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            build_surface(ShCoeffs.constant(1.0, L=4), 2)

    def test_json_roundtrip(self):
        g = perturbed_sphere(0.05, 2, 0, 8)
        n, m = sh_degrees(g.L_geo)
        c = g.radius_coeffs.coeffs
        spec = {"radius": [[int(n[j]), int(m[j]), c[j].real, c[j].imag] for j in np.flatnonzero(c)]}
        r2 = radius_from_json(spec)
        assert np.allclose(r2.coeffs, g.radius_coeffs.coeffs)


class TestTransforms:
    def test_analysis_of_harmonic(self, sphere10):
        vals = values(sphere10, ShCoeffs.unit(3, 1, L=5))
        c = sphere10.analysis(vals, 5)
        e = np.zeros((6) ** 2)
        e[sh_index(3, 1)] = 1.0
        assert np.max(np.abs(c.coeffs - e)) < 1e-12

    def test_analysis_of_constant(self, sphere10):
        c = sphere10.analysis(np.ones(sphere10.n_nodes), 4)
        assert abs(c.coeffs[0] - np.sqrt(FOUR_PI)) < 1e-12
        assert np.max(np.abs(c.coeffs[1:])) < 1e-12

    def test_linearity_two_modes(self, sphere10):
        f = ShCoeffs.zeros(6)
        f.coeffs[sh_index(5, 2)] = 1.0
        f.coeffs[sh_index(1, 0)] = 2.0
        c = sphere10.analysis(values(sphere10, f), 6)
        assert np.max(np.abs(c.coeffs - f.coeffs)) < 1e-12

    def test_synthesis_constant_and_roundtrip(self, sphere10, rng):
        vals = values(sphere10, ShCoeffs.unit(0, 0))
        assert np.allclose(vals, 1.0 / np.sqrt(FOUR_PI))
        c = random_band_limited(rng, 8, mean_free=False)
        c2 = sphere10.analysis(values(sphere10, c), 8)
        assert np.max(np.abs(c2.coeffs - c.coeffs)) < 1e-12

    def test_mean_free_integrates_to_zero(self, sphere10, rng):
        # on a sphere the surface measure is uniform, so a coefficient-mean-
        # free function has zero surface integral
        c = random_band_limited(rng, 6)
        vals = values(sphere10, c)
        assert abs(np.sum(sphere10.area_weights * vals)) < 1e-10 * np.max(np.abs(vals))


class TestSurfaceDiff:
    def test_sphere_laplace_eigenvalue(self, sphere10):
        for n, m in ((1, 0), (4, 2), (7, -3)):
            vals = laplacian(sphere10, ShCoeffs.unit(n, m, L=8))
            ref = -n * (n + 1) * values(sphere10, ShCoeffs.unit(n, m, L=8))
            assert np.max(np.abs(vals - ref)) < 1e-10

    def test_div_of_vec_curl_vanishes(self, pert12, rng):
        V = random_band_limited(rng, 8)
        f = vcurl(pert12, V)
        d = pert12.div(f)
        assert np.max(np.abs(d)) <= 1e-9 * np.max(np.abs(f))

    def test_gradient_of_constant(self, sphere10):
        # column 0 of the basis fields is the constant harmonic
        for basis in basis_arrays(sphere10):
            assert np.max(np.abs(basis[:, 0])) < 1e-12

    def test_integration_by_parts(self, pert12, rng):
        u = random_band_limited(rng, 8, mean_free=False)
        F = pert12.tangent_values(
            TangentField.from_potentials(
                X=random_band_limited(rng, 8), V=random_band_limited(rng, 8), flavor="div"
            )
        )
        total = np.sum(
            pert12.area_weights
            * (
                np.einsum("ij,ij->i", grad(pert12, u), F)
                + values(pert12, u) * pert12.div(F)
            )
        )
        scale = np.max(np.abs(F)) * np.max(np.abs(grad(pert12, u)))
        assert abs(total) < 1e-8 * scale

    def test_stiffness_equals_the_node_sum(self):
        grid = perturbed_sphere(0.2, 3, 1, 8)
        gb = basis_arrays(grid)[0]
        ref = np.einsum("pic,pjc->ij", np.conj(grid.area_weights[:, None, None] * gb), gb)
        K = grid.stiffness_matrix()
        assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_sphere_stiffness_is_diagonal(self, sphere10):
        n, _ = sh_degrees(sphere10.L_quad)
        eig = n * (n + 1.0)
        assert np.max(np.abs(sphere10.stiffness_matrix() - np.diag(eig))) <= 1e-13 * eig[-1]


class TestValuesAt:
    """values_at: one stacked array for a density list, at the nodes or at a frame's points."""

    @staticmethod
    def node_frame(grid):
        return dict(grid.frame_at(grid.thetas, grid.phis), theta=grid.thetas, phi=grid.phis)

    @staticmethod
    def tangent_list(rng):
        return [
            TangentField.from_potentials(
                X=random_band_limited(rng, 8), V=random_band_limited(rng, 6), flavor=flavor
            )
            for flavor in ("div", "curl", "curl")
        ]

    def test_nodes_equal_node_frame_scalar(self, pert12, rng):
        dens = [random_band_limited(rng, L, mean_free=False) for L in (3, 8, 12)]
        nodes = pert12.values_at(dens)
        assert nodes.shape == (pert12.n_nodes, 3)
        at_frame = pert12.values_at(dens, self.node_frame(pert12))
        assert np.max(np.abs(nodes - at_frame)) <= 1e-13 * np.max(np.abs(nodes))

    def test_nodes_equal_node_frame_tangent(self, pert12, rng):
        dens = self.tangent_list(rng)
        nodes = pert12.values_at(dens)
        assert nodes.shape == (pert12.n_nodes, 3, 3)
        at_frame = pert12.values_at(dens, self.node_frame(pert12))
        assert np.max(np.abs(nodes - at_frame)) <= 1e-13 * np.max(np.abs(nodes))
        for j, d in enumerate(dens):
            assert np.array_equal(nodes[..., j], pert12.tangent_values(d))

    def test_stacked_shapes_at_points(self, pert12, rng):
        th, ph = np.array([0.3, 1.2, 2.9, 2.0]), np.array([0.0, 4.0, 1.0, 5.5])
        frame = dict(pert12.frame_at(th, ph), theta=th, phi=ph)
        scalars = [random_band_limited(rng, 5), random_band_limited(rng, 7)]
        assert pert12.values_at(scalars, {"theta": th, "phi": ph}).shape == (4, 2)
        assert pert12.values_at(self.tangent_list(rng), frame).shape == (4, 3, 3)

    def test_blocked_list_equals_single_densities(self, pert12, rng, monkeypatch):
        """Mixed degrees, at a frame in uneven blocks of 3 and at the nodes."""
        import mnpspr.surface as surface

        th, ph = rng.uniform(0.0, np.pi, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
        frame = dict(pert12.frame_at(th, ph), theta=th, phi=ph)
        monkeypatch.setattr(surface, "VALUES_BLOCK", 3 * len(th))
        degrees = [(8, 2), (3, 6), (1, 1), (5, 8), (2, 4), (7, 3), (4, 0)]
        tangent = [
            TangentField.from_potentials(
                X=random_band_limited(rng, a), V=random_band_limited(rng, b), flavor="curl"
            )
            for a, b in degrees
        ]
        scalars = [random_band_limited(rng, a, mean_free=False) for a, _ in degrees]
        for dens in (tangent, scalars):
            for where in (frame, None):
                stacked = pert12.values_at(dens, where)
                scale = np.max(np.abs(stacked))
                for j, d in enumerate(dens):
                    one = pert12.values_at([d], where)[..., 0]
                    assert np.max(np.abs(stacked[..., j] - one)) <= 1e-13 * scale

    def test_curl_basis_is_rotated_grad_basis(self, pert12):
        gb, cb = basis_arrays(pert12)
        rotated = -np.cross(pert12.normals[:, None, :], gb)
        assert np.max(np.abs(cb - rotated)) <= 1e-13 * np.max(np.abs(gb))

    def test_mixed_list_is_rejected(self, sphere10, rng):
        with pytest.raises(TypeError):
            sphere10.values_at([random_band_limited(rng, 4), *self.tangent_list(rng)])

    def test_degree_above_grid_is_rejected_at_the_nodes(self, sphere10, rng):
        with pytest.raises(ResolutionError):
            sphere10.values_at([random_band_limited(rng, 4), random_band_limited(rng, 11)])


class TestTangentField:
    def test_reconstruction_is_tangential(self, pert12, rng):
        f = TangentField.from_potentials(
            X=random_band_limited(rng, 8), V=random_band_limited(rng, 8), flavor="div"
        )
        vals = pert12.tangent_values(f)
        nu_dot = np.einsum("ij,ij->i", pert12.normals, vals)
        assert np.max(np.abs(nu_dot)) < 1e-10 * np.max(np.abs(vals))

    def test_helmholtz_roundtrip(self, pert12, rng):
        X = random_band_limited(rng, 8)
        V = random_band_limited(rng, 8)
        f = TangentField.from_potentials(X=X, V=V, flavor="curl")
        out = pert12.helmholtz_decompose(pert12.tangent_values(f), 8, flavor="curl")
        assert np.max(np.abs(out.X.coeffs - X.coeffs)) < 1e-10
        assert np.max(np.abs(out.V.coeffs - V.coeffs)) < 1e-10

    @pytest.mark.parametrize("build", ["direct", "from_potentials"])
    def test_means_zeroed_on_own_copies(self, rng, build):
        X = random_band_limited(rng, 6, mean_free=False)
        V = random_band_limited(rng, 6, mean_free=False)
        given = X.coeffs.copy(), V.coeffs.copy()
        if build == "direct":
            f = TangentField(X, V, "curl")
        else:
            f = TangentField.from_potentials(X=X, V=V, flavor="curl")
        assert f.X.coeffs[0] == 0 and f.V.coeffs[0] == 0
        assert np.array_equal(f.X.coeffs[1:], given[0][1:])
        assert np.array_equal(f.V.coeffs[1:], given[1][1:])
        # the caller's potentials keep their means
        assert given[0][0] != 0 and given[1][0] != 0
        assert np.array_equal(X.coeffs, given[0]) and np.array_equal(V.coeffs, given[1])
        f.X.coeffs[1] = f.V.coeffs[1] = 7.0
        assert np.array_equal(X.coeffs, given[0]) and np.array_equal(V.coeffs, given[1])


class TestTubularDistance:
    def test_outside_sphere(self, sphere16):
        assert abs(tubular_distance(np.array([2.0, 0, 0]), sphere16) - 1.0) < 5e-3

    def test_on_node(self, sphere16):
        assert tubular_distance(sphere16.positions[17], sphere16) == 0.0

    def test_origin(self, sphere16):
        assert abs(tubular_distance(np.zeros(3), sphere16) - 1.0) < 1e-12


def test_harmonics_match_scipy():
    """Y, dY/dtheta and (1/sin theta) dY/dphi of every (n, m), n <= 8, against scipy,
    at points that include both near-pole colatitudes."""
    from scipy.special import sph_harm_y

    L = 8
    th = np.array([1e-3, 0.4, 1.1, np.pi / 2, 2.5, np.pi - 1e-3])
    ph = np.array([0.3, 5.9, 2.2, 1.0, 4.4, 3.7])
    Y, Yt, Yp = ynm_matrix(th, ph, L, derivatives=True)
    n, m = sh_degrees(L)
    # the first derivatives (d/dtheta, d/dphi) come stacked on a trailing axis
    ref, d_ref = sph_harm_y(n, m, th[:, None], ph[:, None], diff_n=1)
    assert np.max(np.abs(Y - ref)) < 1e-13
    assert np.max(np.abs(Yt - d_ref[..., 0])) < 1e-12
    assert np.max(np.abs(Yp - d_ref[..., 1] / np.sin(th)[:, None])) < 1e-12


def _real_band_limited_surface(L_quad=8):
    """rho = 1 + 0.05 Re(sum of random degree-4 harmonics), every order present."""
    rng = np.random.default_rng(5)
    c = random_band_limited(rng, 4, mean_free=True).coeffs
    n, m = sh_degrees(4)
    # coefficients of the real part: c'_{n,m} = (c_{n,m} + (-1)^m conj(c_{n,-m})) / 2
    real = 0.5 * (c + (-1.0) ** m * np.conj(c[sh_index(n, -m)]))
    real = 0.05 * real / np.max(np.abs(real))
    real[0] = np.sqrt(FOUR_PI)
    return build_surface(ShCoeffs(4, real), L_quad)


BROADCAST_SURFACES = {
    "pert_Y31": lambda: perturbed_sphere(0.2, 3, 1),
    "random_deg4": _real_band_limited_surface,
}


def _broadcast_points():
    """Q colatitudes with both poles and a point of sin(theta) < 1e-14, T x Q azimuths."""
    rng = np.random.default_rng(11)
    th = np.concatenate([[0.0, np.pi, 1e-15], rng.uniform(0.0, np.pi, 37)])
    ph = rng.uniform(-np.pi, 2.0 * np.pi, (6, th.size))
    return th, ph


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestBroadcastGeometry:
    """frame_at/radius_at on theta (Q,) against phi (T, Q), as one grid ring uses them."""

    @pytest.mark.parametrize("name", sorted(BROADCAST_SURFACES))
    def test_frame_equals_flattened_points(self, name):
        grid = BROADCAST_SURFACES[name]()
        th, ph = _broadcast_points()
        ring = grid.frame_at(th, ph)
        flat = grid.frame_at(np.broadcast_to(th, ph.shape).ravel(), ph.ravel())
        for key, value in flat.items():
            assert ring[key].shape == ph.shape + value.shape[1:]
            assert _rel(ring[key].reshape(value.shape), value) < 1e-14, key

    @pytest.mark.parametrize("name", sorted(BROADCAST_SURFACES))
    def test_radius_equals_basis_contraction(self, name):
        grid = BROADCAST_SURFACES[name]()
        th, ph = _broadcast_points()
        th_flat = np.broadcast_to(th, ph.shape).ravel()
        Y, Yt, Yp = ynm_matrix(th_flat, ph.ravel(), grid.L_geo, derivatives=True)
        c = grid.radius_coeffs.coeffs
        reference = ((Y @ c).real, (Yt @ c).real, (Yp @ c).real * np.sin(th_flat))
        for got, want in zip(grid.radius_at(th, ph), reference):
            assert got.shape == ph.shape
            assert _rel(got.ravel(), want) < 1e-14


def _moment_rows(rng, rows, q, complex_rows):
    A, B = rng.normal(size=(2, rows, q))
    if complex_rows:
        A, B = A + 1j * rng.normal(size=(rows, q)), B + 1j * rng.normal(size=(rows, q))
    return A, B


def _moment_points(rng, q=60):
    """q points, four of them within 1e-12 of a pole."""
    th = np.concatenate([[1e-13, 1e-12, np.pi - 1e-12, np.pi - 4e-13], rng.uniform(0.0, np.pi, q - 4)])
    return th, rng.uniform(-np.pi, 2.0 * np.pi, q)


class TestHarmonicMoments:
    """harmonic_moments gives the products with the basis matrices without forming them."""

    @pytest.mark.parametrize("L", [0, 1, 8, 20])
    @pytest.mark.parametrize("rows", [1, 3, 54])
    @pytest.mark.parametrize("complex_rows", [False, True])
    def test_equals_basis_products(self, L, rows, complex_rows):
        rng = np.random.default_rng(L * 100 + rows)
        th, ph = _moment_points(rng)
        A, B = _moment_rows(rng, rows, th.size, complex_rows)
        Y, Yt, Yp = ynm_matrix(th, ph, L, derivatives=True)
        got = harmonic_moments(A, th, ph, L)
        assert got.shape == (rows, (L + 1) ** 2)
        assert _rel(got, A @ Y) < 1e-13
        grad = harmonic_moments(A, th, ph, L, B)
        want = A @ Yt + B @ Yp
        if L == 0:
            assert np.max(np.abs(grad)) == 0.0 == np.max(np.abs(want))
        else:
            assert _rel(grad, want) < 1e-13

    @pytest.mark.parametrize("L", [1, 8, 20])
    def test_conjugate_orders_for_real_rows(self, L):
        """Real rows give column (n, -m) = (-1)^m conj of column (n, m)."""
        rng = np.random.default_rng(L)
        th, ph = _moment_points(rng)
        A, B = _moment_rows(rng, 3, th.size, False)
        n, m = sh_degrees(L)
        mirror = sh_index(n, -m)
        for M in (harmonic_moments(A, th, ph, L), harmonic_moments(A, th, ph, L, B)):
            assert np.max(np.abs(M[:, mirror] - (-1.0) ** m * np.conj(M))) <= 1e-14 * np.max(np.abs(M))

    def test_order_zero_theta_derivative_vanishes_at_the_poles(self):
        """dY_n^0/dtheta ~ sin(theta) near a pole, with no cancellation noise."""
        L = 20
        th = np.array([0.0, 1e-13, 1e-12, np.pi - 1e-12, np.pi])
        n = np.arange(L + 1)
        zonal = sh_index(n, 0)
        bound = n * (n + 1) * np.sqrt((2 * n + 1) / FOUR_PI) * np.maximum(np.sin(th)[:, None], 1e-16)
        assert np.all(np.abs(ynm_matrix(th, 0.0 * th, L, derivatives=True)[1][:, zonal]) <= bound)
        rows = np.eye(th.size)
        got = harmonic_moments(rows, th, 0.0 * th, L, 0.0 * rows)[:, zonal]
        assert np.all(np.abs(got) <= bound)


class TestRingSharedLegendre:
    def test_no_basis_evaluation_beyond_the_patch(self, monkeypatch):
        """A ring's n_phi x Q rotated points share the Legendre work of its Q colatitudes."""
        import mnpspr.sphharm as sphharm
        import mnpspr.surface as surface
        from mnpspr.quadrature import PolarPatch, rings

        grid = perturbed_sphere(0.2, 3, 1, L_quad=6)
        q = PolarPatch(grid).weights.size
        sizes = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                sizes.append(np.size(args[0]))
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(surface, "ynm_matrix", counting(surface.ynm_matrix))
        monkeypatch.setattr(sphharm, "_legendre_blocks", counting(sphharm._legendre_blocks))
        n_rings = sum(1 for _ in rings(grid, 6))
        assert n_rings == grid.n_theta
        assert len(sizes) >= n_rings
        assert max(sizes) <= q < grid.n_phi * q

    @pytest.mark.parametrize("n, m", [(2, 0), (3, 1)])
    def test_one_patch_per_ring_on_a_surface_of_revolution(self, monkeypatch, n, m):
        """A surface of revolution evaluates one patch per ring, any other surface n_phi."""
        from mnpspr.quadrature import PolarPatch, rings

        grid = perturbed_sphere(0.2, n, m, L_quad=6)
        assert grid.axisymmetric == (m == 0)
        q = PolarPatch(grid).weights.size
        n_t = 1 if m == 0 else grid.n_phi
        points = []
        frame_at = grid.frame_at

        def counting(theta, phi):
            points.append(np.size(phi))
            return frame_at(theta, phi)

        monkeypatch.setattr(grid, "frame_at", counting)
        for ring in rings(grid, 6):
            assert ring.r.shape == ring.wjac.shape == (n_t, q)
            assert ring.normal.shape == (n_t, 3)
        assert points == [n_t * q] * grid.n_theta


class TestSymmetryFlags:
    @pytest.mark.parametrize(
        "make, axisymmetric, spherical",
        [
            (lambda: sphere_surface(1.3, 4), True, True),
            (lambda: perturbed_sphere(0.05, 2, 0, 6), True, False),
            (lambda: perturbed_sphere(0.2, 2, 2, 6), False, False),
            (lambda: perturbed_sphere(0.2, 3, 1, 6), False, False),
        ],
    )
    def test_flags_read_off_the_coefficients(self, make, axisymmetric, spherical):
        grid = make()
        assert grid.axisymmetric is axisymmetric
        assert grid.spherical is spherical


class TestReadOnlyMemos:
    """Every array a grid holds, its own or inside a memoized value, refuses writes.

    A writable memo is shared state: doubling the memoized K* entries in place
    doubled every later np_spectrum eigenvalue of the same grid.
    """

    @pytest.fixture(scope="class")
    def grid(self):
        return perturbed_sphere(0.05, 2, 0, 6)

    @pytest.mark.parametrize(
        "memo",
        [
            lambda g: {k: v for k, v in vars(g).items() if k != "_memo"},
            lambda g: g.mass_matrix(),
            lambda g: g.stiffness_matrix(),
            lambda g: g.laplace_matrix(4),
            lambda g: g.cached("node_tables", g._node_tables),
            lambda g: scalar_operators(g, 6),
            lambda g: np_spectrum(g, 6),
            lambda g: quotient_gram_matrix(g, 6),
            lambda g: mnp_spectra(g, 6),
            lambda g: slot_blocks(g, 4),
            lambda g: correction_unit_matrices(g, 4),
            lambda g: static_magnetic_block(g, 4),
        ],
        ids=[
            "grid", "mass", "stiffness", "laplace", "node_tables", "scalar_operators",
            "np_spectrum", "quotient_gram", "mnp_spectra", "slot_blocks", "corrections",
            "static_magnetic",
        ],
    )
    def test_writes_raise(self, grid, memo):
        arrays = list(arrays_in(memo(grid)))
        assert arrays
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a

    def test_spectrum_keeps_its_operators(self, grid):
        with pytest.raises(ValueError):
            scalar_operators(grid, 6)["Kstar"].entries[:] *= 2
        assert np_spectrum(grid, 6).eigenvalues[0] == pytest.approx(0.5, abs=1e-6)
