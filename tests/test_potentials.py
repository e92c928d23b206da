import gc
import logging
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre
from conftest import basis_arrays, vector_sph_matrix

from mnpspr.mie import SphereMode, mode_tangent_field
from mnpspr.potentials import (
    FlavorError,
    MaterialConfig,
    NearBoundaryError,
    apply_N,
    apply_Q,
    assemble_correction,
    correction_unit_matrices,
    helmholtz_point_kernels,
    offboundary_eval,
    scalar_operators,
    tangent_mass_stack,
)
from mnpspr.sphharm import num_coeffs, polar_patch_rule, sh_degrees, sh_index, ynm_matrix
from mnpspr.surface import (
    ShCoeffs,
    TangentField,
    perturbed_sphere,
    random_band_limited,
    sphere_surface,
)


def funk_hecke_eigenvalue(kernel_of_t, n):
    """1D oracle: int_{S^2} f(xhat.yhat) Y_n(y) dsigma = 2 pi Y_n(x) int f P_n."""
    val, _ = quad(lambda t: kernel_of_t(t) * eval_legendre(n, t), -1.0, 1.0,
                  limit=200, epsabs=1e-12, epsrel=1e-12)
    return 2.0 * np.pi * val


class TestOperatorLifetime:
    def test_repeated_requests_share_operators(self, sphere10):
        assert scalar_operators(sphere10, 10) is scalar_operators(sphere10, 10)
        assert sphere10.laplace_matrix(6) is sphere10.laplace_matrix(6)

    def test_operators_freed_with_grid(self):
        g = sphere_surface(1.0, 4)
        ref = weakref.ref(scalar_operators(g, 4)["S"])
        del g
        gc.collect()
        assert ref() is None

    def test_gram_data_lives_on_the_grid(self):
        from mnpspr.spectral import quotient_gram_matrix

        g = sphere_surface(1.0, 4)
        S = scalar_operators(g, 4)["S"]
        meta = dict(S.meta)
        G = quotient_gram_matrix(g, 4)
        assert S.meta == meta
        assert quotient_gram_matrix(g, 4) is G
        assert not G.flags.writeable
        ref = weakref.ref(G)
        del g, S, G
        gc.collect()
        assert ref() is None

    def test_spectrum_lives_on_the_grid(self):
        from mnpspr.spectral import np_spectrum

        g = sphere_surface(1.0, 4)
        st = np_spectrum(g, 4)
        assert np_spectrum(g, 4) is st
        assert not st.eigenvalues.flags.writeable and not st.vectors.flags.writeable
        ref = weakref.ref(st)
        del g, st
        gc.collect()
        assert ref() is None


class TestInvariantGuard:
    KEYS = ("S_hermiticity", "negS_min_eig", "K_duality")

    def test_residuals_logged_and_kept(self, caplog):
        grid = sphere_surface(1.0, 4)
        with caplog.at_level(logging.DEBUG, logger="mnpspr.potentials"):
            ops = scalar_operators(grid, 4)
        meta = ops["S"].meta
        assert set(meta) == set(self.KEYS)
        assert ops["K"].meta == ops["Kstar"].meta == meta
        assert meta["S_hermiticity"] < 1e-12 and meta["K_duality"] < 1e-12
        GS = ops["S"].pairing
        assert meta["negS_min_eig"] == np.linalg.eigvalsh(-0.5 * (GS + GS.conj().T))[0] > 0
        [record] = [r for r in caplog.records if r.name == "mnpspr.potentials"]
        assert record.levelno == logging.DEBUG
        for key in self.KEYS:
            assert f"{key} {meta[key]:.2e}" in record.getMessage()


class TestScalarAssembly:
    def test_single_layer_on_constant(self, sphere10_ops):
        out = sphere10_ops["S"].entries @ ShCoeffs.unit(0, 0, L=10).padded(10)
        assert abs(out[0] + 1.0) < 1e-8
        assert np.max(np.abs(out[1:])) < 1e-8

    # The sphere oracles run on both ring geometries: the sphere's own shared
    # patch and, with the grid's symmetry flag cleared, one patch per target.

    def test_adjoint_double_layer_against_funk_hecke(self, sphere10_geometries):
        # independent oracle: the kernel on the unit sphere depends only on
        # xhat.yhat; its action on Y_1^0 follows from a 1D quadrature
        lam = funk_hecke_eigenvalue(lambda t: 1.0 / (8.0 * np.pi * np.sqrt(2.0 - 2.0 * t)), 1)
        assert abs(lam - 1.0 / 6.0) < 1e-10
        for geometry, grid in sphere10_geometries.items():
            out = scalar_operators(grid, 10)["Kstar"].entries @ ShCoeffs.unit(1, 0, L=10).padded(10)
            assert abs(out[sh_index(1, 0)] - lam) < 1e-6, geometry

    def test_single_layer_against_funk_hecke(self, sphere10_geometries):
        lam = funk_hecke_eigenvalue(lambda t: -1.0 / (4.0 * np.pi * np.sqrt(2.0 - 2.0 * t)), 3)
        for geometry, grid in sphere10_geometries.items():
            out = scalar_operators(grid, 10)["S"].entries @ ShCoeffs.unit(3, 2, L=10).padded(10)
            assert abs(out[sh_index(3, 2)] - lam) < 1e-8, geometry

    def test_sphere_diagonals(self, sphere16_geometries):
        n = np.concatenate([np.full(2 * k + 1, k) for k in range(17)])
        for geometry, grid in sphere16_geometries.items():
            ops = scalar_operators(grid, 16)
            S, Ks = ops["S"].entries, ops["Kstar"].entries
            assert np.max(np.abs(np.diag(S) + 1.0 / (2 * n + 1))) < 1e-6, geometry
            assert np.max(np.abs(np.diag(Ks) - 1.0 / (2 * (2 * n + 1)))) < 1e-6, geometry
            offdiag = Ks - np.diag(np.diag(Ks))
            assert np.max(np.abs(offdiag)) < 1e-10, geometry

    def test_pairing_invariants(self, pert12_ops):
        GS = pert12_ops["S"].pairing
        assert np.linalg.norm(GS - GS.conj().T) / np.linalg.norm(GS) < 1e-8
        assert np.linalg.eigvalsh(-0.5 * (GS + GS.conj().T))[0] > 0
        GK, GKs = pert12_ops["K"].pairing, pert12_ops["Kstar"].pairing
        assert np.linalg.norm(GK - GKs.conj().T) / np.linalg.norm(GK) < 1e-8

    def test_perturbed_spectrum_structure(self, pert12):
        from mnpspr.spectral import np_spectrum

        st = np_spectrum(pert12, 12)
        assert np.all(st.eigenvalues > -0.5)
        assert np.all(st.eigenvalues <= 0.5 + 1e-12)
        assert np.count_nonzero(np.abs(st.eigenvalues - 0.5) < 1e-6) == 1


class TestSubspaceActions:
    """The magnetic operator on the curl subspace maps the potential V to K[V]."""

    def test_curl_action_sphere_eigenvalue(self, sphere10_ops):
        out = sphere10_ops["K"].entries @ ShCoeffs.unit(3, 1, L=10).padded(10)
        assert abs(out[sh_index(3, 1)] - 1.0 / 14.0) < 1e-8

    def test_curl_range_is_divergence_free(self, pert12, pert12_ops, rng):
        # the curl-subspace output has no gradient part by construction of
        # the reduced realization; verify through node fields
        V = random_band_limited(rng, 8)
        out = ShCoeffs(12, pert12_ops["K"].entries @ V.padded(12))
        fld = TangentField.from_potentials(V=out, L=12, flavor="curl")
        div = pert12.div(pert12.tangent_values(fld) )
        # compare against the same field's curl magnitude
        mag = np.max(np.abs(pert12.tangent_values(fld)))
        assert np.max(np.abs(div)) < 1e-6 * max(mag, 1e-30) + 1e-12

    def test_duality_pairing_against_direct_quadrature(self, sphere10, sphere10_ops):
        # <M[vcurl V], vcurl W>_surface equals <K V, -Lap W> on the sphere;
        # check the assembled route against exact eigenvalue arithmetic
        V = ShCoeffs.unit(2, 1, L=10)
        W = ShCoeffs.unit(2, 1, L=10)
        out = ShCoeffs(10, sphere10_ops["K"].entries @ V.padded(10))
        f1 = TangentField.from_potentials(V=out, L=10, flavor="curl")
        f2 = TangentField.from_potentials(V=W, L=10, flavor="curl")
        v1 = sphere10.tangent_values(f1)
        v2 = sphere10.tangent_values(f2)
        pair = np.sum(sphere10.area_weights * np.einsum("ij,ij->i", v1, np.conj(v2)))
        exact = (1.0 / 10.0) * 6.0  # eigenvalue 1/(2*5) times |vcurl Y_2|^2 = n(n+1)
        assert abs(pair - exact) < 1e-6


class TestSymmetrizers:
    def test_N_annihilates_gradients(self, pert12, rng):
        for _ in range(3):
            g = TangentField.from_potentials(X=random_band_limited(rng, 8), L=12, flavor="curl")
            out = apply_N(g, pert12, 12)
            assert np.max(np.abs(out.V.coeffs)) <= 1e-8
            assert np.max(np.abs(out.X.coeffs)) == 0.0

    def test_Q_annihilates_curls(self, pert12, rng):
        for _ in range(3):
            f = TangentField.from_potentials(V=random_band_limited(rng, 8), L=12, flavor="div")
            out = apply_Q(f, pert12, 12)
            assert np.max(np.abs(out.X.coeffs)) <= 1e-8

    def test_sphere_values(self, sphere10):
        for n in (1, 2, 5):
            g = TangentField.from_potentials(V=ShCoeffs.unit(n, 0, L=10), L=10, flavor="curl")
            out = apply_N(g, sphere10, 10)
            # vcurl S curl: potential -S[Lap V] = -(n(n+1))/(2n+1) V explains
            # the sign: S has negative eigenvalues
            expect = -n * (n + 1) / (2.0 * n + 1.0)
            assert abs(out.V.coeffs[sh_index(n, 0)] - expect) < 1e-8
            f = TangentField.from_potentials(X=ShCoeffs.unit(n, 0, L=10), L=10, flavor="div")
            outq = apply_Q(f, sphere10, 10)
            assert abs(outq.X.coeffs[sh_index(n, 0)] + expect) < 1e-8

    def test_self_adjoint_under_surface_pairing(self, pert12, rng):
        # bilinear surface pairing, no conjugation
        g1 = TangentField.from_potentials(V=random_band_limited(rng, 7), L=12, flavor="curl")
        g2 = TangentField.from_potentials(V=random_band_limited(rng, 7), L=12, flavor="curl")
        N1 = pert12.tangent_values(apply_N(g1, pert12, 12))
        N2 = pert12.tangent_values(apply_N(g2, pert12, 12))
        v1 = pert12.tangent_values(g1)
        v2 = pert12.tangent_values(g2)
        a = np.sum(pert12.area_weights * np.einsum("ij,ij->i", N1, v2))
        b = np.sum(pert12.area_weights * np.einsum("ij,ij->i", v1, N2))
        assert abs(a - b) < 1e-8 * max(abs(a), 1e-30)

    def test_flavor_validation(self, sphere10, rng):
        g = TangentField.from_potentials(V=random_band_limited(rng, 4), L=10, flavor="div")
        with pytest.raises(FlavorError):
            apply_N(g, sphere10, 10)
        with pytest.raises(FlavorError):
            apply_Q(TangentField.from_potentials(X=random_band_limited(rng, 4), L=10, flavor="curl"),
                    sphere10, 10)


class TestOffBoundary:
    def test_zero_density(self, sphere16):
        out = offboundary_eval(
            TangentField.from_potentials(V=ShCoeffs.zeros(8), flavor="curl"),
            1.0, np.array([0, 0, 2.0]), "curlS_vec", sphere16)
        assert np.max(np.abs(out)) == 0.0

    def test_static_exterior_monopole(self, sphere16):
        # single layer of the constant harmonic at |x| = 2 and k = 0
        out = offboundary_eval(ShCoeffs.unit(0, 0), 0.0, np.array([0, 0, 2.0]), "S", sphere16)
        assert abs(out + 0.5 / np.sqrt(4 * np.pi)) < 1e-10

    def test_exact_formula_cross_check(self, sphere16):
        from mnpspr.mie import exact_sphere_potential

        # off-axis probe: the rotational harmonic of order m=0 vanishes on
        # the axis itself
        mode = SphereMode(1, 1, 0, 1.0)
        x = 2.0 * np.array([0.6, 0.64, 0.48])
        num = offboundary_eval(mode_tangent_field(mode, 12), 1.0, x, "curlS_vec", sphere16)
        ex = exact_sphere_potential(mode, 1.0, x, "curlS")
        assert np.max(np.abs(num - ex)) < 1e-6 * np.max(np.abs(ex))

    def test_near_guard(self, sphere16):
        # inside the grid rule's guard, 0.28, the near rule takes the point
        dens = ShCoeffs.unit(1, 0, L=8)
        v = offboundary_eval(dens, 0.0, np.array([0, 0, 1.05]), "S", sphere16)
        expect = -1.0 / 3.0 * 1.05 ** -2 * np.sqrt(3 / (4 * np.pi))
        assert abs(v - expect) < 1e-8
        # below its floor, one polar step of 0.0098, nothing does
        with pytest.raises(NearBoundaryError):
            offboundary_eval(dens, 0.0, np.array([0, 0, 1.005]), "S", sphere16)

    def test_kernel_derivatives_by_fd(self):
        k = 1.3
        rv = np.array([[0.7, -0.4, 1.1]])
        g, gr, he = helmholtz_point_kernels(k, rv, want_hessian=True)
        h = 1e-6
        for c in range(3):
            e = np.zeros(3); e[c] = h
            gp, grp = helmholtz_point_kernels(k, rv + e)
            gm, grm = helmholtz_point_kernels(k, rv - e)
            assert abs((gp - gm)[0] / (2 * h) - gr[0, c]) < 1e-7
            assert np.max(np.abs((grp - grm)[0] / (2 * h) - he[0, :, c])) < 1e-6

    def test_divergence_commutation_off_boundary(self, pert12, rng):
        # div of the vector single layer equals the single layer of the
        # surface divergence, sampled off the boundary (static kernel)
        f = TangentField.from_potentials(X=random_band_limited(rng, 6),
                                         V=random_band_limited(rng, 6), flavor="div")
        vals = pert12.tangent_values(f)
        x = np.array([0.3, -0.2, 2.2])
        rvec = x[None, :] - pert12.positions
        _, grad = helmholtz_point_kernels(0.0, rvec)
        div_S_vec = np.sum(pert12.area_weights[:, None] * grad * vals)
        divf = pert12.div(vals)
        S_div = np.sum(pert12.area_weights * (-1.0 / (4 * np.pi)) /
                       np.linalg.norm(rvec, axis=1) * divf)
        assert abs(div_S_vec - S_div) < 1e-7 * max(abs(S_div), 1e-30)


class TestJumpRelations:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_one_sided_normal_derivatives(self, sphere16, n):
        # Richardson-extrapolated normal derivative of the single layer;
        # four probe offsets reach the 1e-4 regime (three leave a cubic term
        # of a few 1e-3, asserted at its own level below)
        dens = ShCoeffs.unit(n, 0, L=8)
        xhat = np.array([0.6, 0.64, 0.48])
        ts = np.array([0.1, 0.05, 0.025, 0.0125])
        vals_p, vals_m = [], []
        for t in ts:
            gp = offboundary_eval(dens, 0.0, (1 + t) * xhat, "gradS", sphere16)
            gm = offboundary_eval(dens, 0.0, (1 - t) * xhat, "gradS", sphere16)
            vals_p.append(np.dot(gp, xhat))
            vals_m.append(np.dot(gm, xhat))
        th, ph = _angles(xhat)
        y = sphere16.values_at([dens], {"theta": th, "phi": ph})[0, 0]
        lam = 1.0 / (2 * (2 * n + 1))
        ext = np.polyval(np.polyfit(ts, vals_p, 3), 0.0)
        int_ = np.polyval(np.polyfit(ts, vals_m, 3), 0.0)
        assert abs(ext - (0.5 + lam) * y) < 1e-4 * max(abs(y), 1.0)
        assert abs(int_ - (-0.5 + lam) * y) < 1e-4 * max(abs(y), 1.0)
        # three-point variant: achievable accuracy is a few 1e-3
        ext3 = np.polyval(np.polyfit(ts[:3], vals_p[:3], 2), 0.0)
        assert abs(ext3 - (0.5 + lam) * y) < 5e-3 * max(abs(y), 1.0)


def _angles(xhat):
    from mnpspr.sphharm import cartesian_to_angles

    th, ph, _ = cartesian_to_angles(xhat / np.linalg.norm(xhat))
    return th, ph


class TestCorrections:
    def test_material_presets(self):
        m = MaterialConfig.negative_preset(0.5, omega=2.0, delta=0.1)
        assert m.k_e == 2.0 and abs(m.k_c - 1.0) < 1e-14
        with pytest.raises(ValueError):
            MaterialConfig.negative_preset(1.0)
        with pytest.raises(ValueError):
            MaterialConfig.negative_preset(-2.0)

    def test_equal_wavenumbers_kill_couplings(self, sphere10):
        mats = MaterialConfig(eps_c=1.0, mu_c=1.0, omega=1.0, delta=0.05)
        L1 = assemble_correction("L1", sphere10, mats, 6)
        L2 = assemble_correction("L2", sphere10, mats, 6)
        assert np.max(np.abs(L1.entries)) == 0.0
        assert np.max(np.abs(L2.entries)) == 0.0

    def test_l2_against_sphere_integrals(self, sphere10_geometries):
        # oracle: L2 pairs test field t_i with nu_x x c_j, c_j = (2/3) int phi_j ds.
        # int vcurl Y ds = 0 on a closed surface; on the unit sphere
        # int grad_S Y ds = 2 int Y rhat ds, zero unless Y has degree 1, and a
        # degree-1 Y(xhat) = a . xhat with a_c = Y(e_c) gives (4 pi / 3) a
        sphere10 = sphere10_geometries["shared"]
        L = sphere10.L_quad
        nc = num_coeffs(L)
        d = nc - 1
        a = ynm_matrix(np.array([np.pi / 2, np.pi / 2, 0.0]), np.array([0.0, np.pi / 2, 0.0]), L)
        c = np.zeros((3, 2 * d), dtype=complex)
        c[:, :d] = np.where(sh_degrees(L)[0][1:] == 1, (16.0 * np.pi / 9.0) * a[:, 1:], 0.0)
        test = np.concatenate(
            [basis[:, 1:nc] for basis in basis_arrays(sphere10)], axis=1
        ).conj() * sphere10.area_weights[:, None, None]
        nu_c = np.cross(sphere10.normals[:, :, None], c[None], axisa=1, axisb=1, axisc=1)
        exact = np.einsum("nic,ncj->ij", test, nu_c)
        for geometry, grid in sphere10_geometries.items():
            got = correction_unit_matrices(grid, L)["L2"].pairing
            assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact), geometry

    def test_l2_is_rank_three_off_the_sphere(self):
        grid = perturbed_sphere(0.2, 2, 0, 12)
        P = correction_unit_matrices(grid, 12)["L2"].pairing
        sv = np.linalg.svd(P, compute_uv=False)
        assert np.all(sv[3:] <= 1e-13 * sv[0])
        # int vcurl Y ds = 0: the curl columns vanish on any closed surface
        d = num_coeffs(12) - 1
        assert np.linalg.norm(P[:, d:]) <= 1e-12 * np.linalg.norm(P)

    def test_mk2_against_independent_quadrature(self, sphere10_geometries):
        # oracle: direct fine polar quadrature of the curl-of-(distance *
        # density) kernel on the unit sphere, built without the assembly code.
        # The node is off its ring's first target, so the shared geometry
        # reaches it through a turn about z.
        sphere10 = sphere10_geometries["shared"]
        mats = MaterialConfig.negative_preset(0.5, omega=1.0)
        k = 1.0
        mode = SphereMode(2, 1, 0, 1.0)
        dens = mode_tangent_field(mode, 6)
        d = num_coeffs(6) - 1
        stacked = np.concatenate([dens.X.coeffs[1:], dens.V.coeffs[1:]])
        i_node = 37
        assert i_node % sphere10.n_phi != 0

        th, ph, w = polar_patch_rule(64, 128)
        from mnpspr.sphharm import rotation_to, cartesian_to_angles
        R = rotation_to(sphere10.thetas[i_node], sphere10.phis[i_node])
        st = np.sin(th)
        dirs = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1) @ R.T
        th2, ph2, _ = cartesian_to_angles(dirs)
        p1, p2 = vector_sph_matrix(th2, ph2, 1)
        phi_vals = p2[:, sh_index(1, 0), :]
        x = sphere10.positions[i_node]
        nu = sphere10.normals[i_node]
        rvec = x[None, :] - dirs
        u = rvec / np.linalg.norm(rvec, axis=1)[:, None]
        integrand = (k**2 / (8 * np.pi)) * (
            u * (phi_vals @ nu)[:, None] - phi_vals * (u @ nu)[:, None]
        )
        ref = np.sum(w[:, None] * integrand, axis=0)
        for geometry, grid in sphere10_geometries.items():
            out = assemble_correction("Mk2", grid, mats, 6, "e").entries @ stacked
            outf = TangentField.from_potentials(
                X=_lift(out[:d], 6), V=_lift(out[d:], 6), flavor="div")
            got = grid.tangent_values(outf)[i_node]
            assert np.max(np.abs(got - ref)) < 1e-6 * np.max(np.abs(ref)), geometry

    def test_l1_by_parts_matches_divergence_form(self, sphere10):
        # the assembled kernel uses surface integration by parts; compare
        # with the original form carrying the explicit surface divergence
        mats = MaterialConfig.negative_preset(0.5, omega=1.0)
        L1 = assemble_correction("L1", sphere10, mats, 6)
        n = 2
        mode = SphereMode(1, n, 0, 1.0)  # gradient-type density
        dens = mode_tangent_field(mode, 6)
        d = num_coeffs(6) - 1
        stacked = np.concatenate([dens.X.coeffs[1:], dens.V.coeffs[1:]])
        out = L1.entries @ stacked
        outf = TangentField.from_potentials(X=_lift(out[:d], 6), V=_lift(out[d:], 6), flavor="div")
        i_node = 21
        got = sphere10.tangent_values(outf)[i_node]

        th, ph, w = polar_patch_rule(72, 144)
        from mnpspr.sphharm import rotation_to, cartesian_to_angles
        R = rotation_to(sphere10.thetas[i_node], sphere10.phis[i_node])
        st = np.sin(th)
        dirs = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1) @ R.T
        th2, ph2, _ = cartesian_to_angles(dirs)
        p1, _ = vector_sph_matrix(th2, ph2, n)
        phi_vals = p1[:, sh_index(n, 0), :]
        # surface divergence of phi_1 on the unit sphere
        from mnpspr.sphharm import ynm_matrix
        Yv = ynm_matrix(th2, ph2, n)[:, sh_index(n, 0)]
        div_vals = -np.sqrt(n * (n + 1.0)) * Yv
        x = sphere10.positions[i_node]
        nu = sphere10.normals[i_node]
        rvec = x[None, :] - dirs
        r = np.linalg.norm(rvec, axis=1)
        k_e, k_c = mats.k_e, mats.k_c
        C1 = 1j**2 * (k_c**2 - k_e**2) / (4 * np.pi * mats.omega)
        inner = np.sum(
            w[:, None] * (phi_vals / r[:, None]
                          - 0.5 * rvec / r[:, None] * div_vals[:, None]),
            axis=0,
        )
        ref = C1 * np.cross(nu, inner)
        assert np.max(np.abs(got - ref)) < 1e-6 * np.max(np.abs(ref))

    def test_correction_norm_scaling(self, sphere10):
        from mnpspr.scatter import static_magnetic_block

        mats = MaterialConfig.negative_preset(0.5, omega=1.0)
        Mk2 = assemble_correction("Mk2", sphere10, mats, 8, "e").entries
        M = static_magnetic_block(sphere10, 8)
        deltas = np.array([0.1, 0.05, 0.025])
        ratios = [np.linalg.norm(d**2 * Mk2) / np.linalg.norm(M) for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(ratios), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_mass_stack_is_positive(self, sphere10):
        W = tangent_mass_stack(sphere10, 6)
        assert np.linalg.eigvalsh(W)[0] > 0


def _lift(a, L):
    c = np.zeros(num_coeffs(L), dtype=complex)
    c[1:] = a
    return ShCoeffs(L, c)


class TestDivergenceIntertwining:
    def test_reduced_block_identity(self, pert12):
        # the gradient-block realization makes div(M f) = -K*(div f)
        # structural; assert it as a refactoring guard
        from mnpspr.scatter import static_magnetic_block

        L = pert12.L_quad
        M = static_magnetic_block(pert12, L)
        D = pert12.laplace_matrix(L)[1:, 1:]
        Kst = scalar_operators(pert12, L)["Kstar"].entries[1:, 1:]
        d = D.shape[0]
        lhs = D @ M[:d, :d]
        rhs = -Kst @ D
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-7


class TestNearFrames:
    def test_one_frame_per_near_point(self, sphere10, monkeypatch, near_polar_40):
        # the tangential density reuses the patch frame of the quadrature
        from mnpspr.surface import SurfaceGrid

        calls = []
        frame_at = SurfaceGrid.frame_at

        def counting(self, theta, phi):
            calls.append(np.size(theta))
            return frame_at(self, theta, phi)

        monkeypatch.setattr(SurfaceGrid, "frame_at", counting)
        dens = mode_tangent_field(SphereMode(2, 1, 0, 1.0), 6)
        pts = np.array([[0.0, 0.0, 1.1], [0.6, 0.0, 0.95]])
        offboundary_eval(dens, 1.0, pts, "curlS_vec", sphere10)
        assert len(calls) == len(pts)


class TestRingGeometries:
    """A surface of revolution's shared ring patch against one patch per target."""

    @pytest.fixture(scope="class", params=["pert12", "decay-axisym"])
    def grids(self, request, pert12, workload_grid, per_target):
        """(shared-geometry grid, per-target grid of the same surface, L)."""
        if request.param == "pert12":
            return pert12, per_target(perturbed_sphere, 0.05, 2, 0, 12), 12
        grid, L = workload_grid(request.param)
        return grid, per_target(lambda: workload_grid(request.param)[0]), L

    @staticmethod
    def operators(grid, L):
        ops = dict(scalar_operators(grid, L))
        ops.update(correction_unit_matrices(grid, L))
        return ops

    def test_operators_agree(self, grids):
        shared, per, L = grids
        assert shared.axisymmetric and not per.axisymmetric
        a, b = self.operators(shared, L), self.operators(per, L)
        for kind in ("S", "K", "Kstar", "Mk2", "L1", "L2"):
            # largest entry difference, relative to the largest entry
            diff = np.max(np.abs(a[kind].pairing - b[kind].pairing))
            assert diff <= 1e-13 * np.max(np.abs(b[kind].pairing)), kind
