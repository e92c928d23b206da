from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from mnpspr import spectral
from mnpspr.potentials import AssemblyAccuracyError, FlavorError, apply_N, scalar_operators
from mnpspr.spectral import (
    _eigh_pencil,
    _hermitize,
    _subspace_operator,
    calderon_residual,
    curl_field_expansion,
    mnp_spectra,
    np_spectrum,
    quotient_gram_matrix,
    scalar_calderon_residual,
    self_adjointness_residual,
    subspace_spectrum,
)
from mnpspr.sphharm import num_coeffs, sh_index
from mnpspr.surface import (
    ShCoeffs,
    TangentField,
    perturbed_sphere,
    random_band_limited,
    sphere_surface,
)

from conftest import max_rel


def sphere_exact_np_eigs(L):
    n = np.concatenate([np.full(2 * k + 1, k) for k in range(L + 1)])
    return np.sort(1.0 / (2.0 * (2.0 * n + 1.0)))[::-1]


class TestNpSpectrum:
    def test_sphere_values_and_multiplicities(self, sphere16):
        st = np_spectrum(sphere16, 16)
        exact = sphere_exact_np_eigs(16)
        assert np.max(np.abs(np.sort(st.eigenvalues)[::-1] - exact)) < 1e-6
        ids = st.clusters()
        counts = np.bincount(ids)
        n_sorted = np.arange(17)
        assert np.all(np.sort(counts) == np.sort(2 * n_sorted + 1))

    def test_scale_invariance(self):
        eigs = {}
        for r in (0.5, 2.0):
            eigs[r] = np.sort(np_spectrum(sphere_surface(r, 8), 8).eigenvalues)
        assert np.max(np.abs(eigs[0.5] - eigs[2.0])) < 1e-8

    def test_perturbed_real_and_symmetric(self, pert12_spectra):
        nps, _, _ = pert12_spectra
        assert nps.meta["sym_residual"] <= 1e-7
        assert np.all(np.isreal(nps.eigenvalues))

    def test_tail_decay(self, pert12_spectra):
        nps, _, _ = pert12_spectra
        lam = nps.eigenvalues
        assert abs(lam[-1]) < abs(lam[0]) / 10.0

    def test_compactness_rate_proxy(self, sphere16):
        # sorted |lambda_j| with j ~ n^2 behaves like 1/(4 sqrt(j))
        st = np_spectrum(sphere16, 16)
        lam = np.sort(np.abs(st.eigenvalues))[::-1]
        for n in (6, 9, 12):
            j = n * n + 2 * n  # last index of the degree-n cluster
            assert 0.8 < lam[j - 1] * 4.0 * np.sqrt(j) < 1.2


class TestMnpSpectra:
    def test_sphere_eigenvalues(self, sphere16):
        curl, grad = mnp_spectra(sphere16, 16)
        n = np.concatenate([np.full(2 * k + 1, k) for k in range(1, 17)])
        assert np.max(np.abs(np.sort(curl.eigenvalues) - np.sort(1 / (2 * (2 * n + 1))))) < 1e-6
        assert np.max(np.abs(np.sort(grad.eigenvalues) - np.sort(-1 / (2 * (2 * n + 1))))) < 1e-6

    def test_half_mode_excluded(self, pert12_spectra):
        nps, curl, grad = pert12_spectra
        assert len(curl) == len(nps) - 1
        assert curl.meta["excluded_half"] == 1
        assert np.max(curl.eigenvalues) < 0.5 - 1e-3

    def test_unexpected_half_count_warns(self, sphere10, caplog, monkeypatch):
        # the cached set is read-only: a second 1/2 goes into a copy that
        # mnp_spectra reads in place of the grid's own
        nps = np_spectrum(sphere10, 10)
        lam = nps.eigenvalues.copy()
        lam[1] = 0.5
        monkeypatch.setattr(spectral, "np_spectrum", lambda grid, L: replace(nps, eigenvalues=lam))
        with caplog.at_level("WARNING", logger="mnpspr.spectral"):
            curl, _ = mnp_spectra(sphere10, 10)
        assert curl.meta["excluded_half"] == 2
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "excluded 2 eigenvalue(s) at 1/2" in caplog.text

    def test_apply_and_compare(self, pert12_spectra, pert12_ops):
        _, curl, _ = pert12_spectra
        errs = []
        for j in range(len(curl)):
            V = ShCoeffs(curl.L, curl.vectors[:, j])
            out = pert12_ops["K"].entries @ V.padded(curl.L)
            out[0] = 0.0
            errs.append(np.max(np.abs(out - curl.eigenvalues[j] * V.coeffs)))
        assert max(errs) < 1e-6

    def test_gram_orthonormality(self, pert12_spectra, pert12):
        _, curl, _ = pert12_spectra
        G1 = quotient_gram_matrix(pert12, 12)
        V = curl.vectors[1:]
        Gm = V.conj().T @ (G1 @ V)
        assert np.max(np.abs(Gm - np.eye(len(curl)))) < 1e-7

    @pytest.mark.parametrize("amplitude", [0.05, 0.3])
    def test_orthonormal_in_their_own_gram(self, amplitude):
        # each grid's potentials in that grid's quotient Gram, at L below L_quad
        grid = perturbed_sphere(amplitude, 2, 0, 8)
        curl, _ = mnp_spectra(grid, 6)
        V = curl.vectors[1:]
        assert max_rel(V.conj().T @ (quotient_gram_matrix(grid, 6) @ V), np.eye(len(curl))) < 1e-12

    def test_spectrum_identity_independent_route(self, pert12_spectra, pert12):
        nps, curl, _ = pert12_spectra
        lam_ind = subspace_spectrum(pert12, 12, "M_curl")
        assert np.max(np.abs(np.sort(lam_ind) - np.sort(curl.eigenvalues))) < 1e-7
        lam_grad = subspace_spectrum(pert12, 12, "Mstar_grad")
        assert np.max(np.abs(np.sort(lam_grad) + np.sort(curl.eigenvalues)[::-1])) < 1e-7


class TestGram:
    def test_sphere_values_both_kinds(self, sphere10, sphere10_ops):
        # quotient form -<pot, S^{-1} pot> gives (2n+1);
        # symmetrizer form -<Lap pot, S Lap pot> gives (n(n+1))^2/(2n+1)
        S = sphere10_ops["S"]
        G = quotient_gram_matrix(sphere10, 10)
        D, GS = sphere10.laplace_matrix(10), _hermitize(S.pairing)
        for n in (1, 3, 6):
            i = sh_index(n, 0)
            assert abs(G[i - 1, i - 1] - (2 * n + 1)) < 1e-6 * (2 * n + 1)
            Dp = D @ ShCoeffs.unit(n, 0, L=10).padded(10)
            expect = (n * (n + 1.0)) ** 2 / (2.0 * n + 1.0)
            assert abs(-(Dp.conj() @ (GS @ Dp)) - expect) < 1e-6 * expect

    def test_each_degree_takes_its_own_single_layer(self, pert12):
        # the Schur complement of slot 0 of W GS^-1 W is minus the inverse of
        # the mean-free block of its inverse, S W^-1, with S the grid's own at L
        for L in (6, 12):
            S = scalar_operators(pert12, L)["S"]
            nc = num_coeffs(L)
            pairing = S.entries @ np.linalg.inv(pert12.mass_matrix()[:nc, :nc])
            expect = -np.linalg.inv(pairing[1:, 1:])
            assert max_rel(quotient_gram_matrix(pert12, L), expect) < 1e-10


class TestCalderon:
    def test_sphere_residuals(self, sphere16, rng):
        for _ in range(3):
            t = TangentField.from_potentials(V=random_band_limited(rng, 12, 2.5), L=16, flavor="curl")
            assert calderon_residual("curl", t, sphere16, 16) <= 1e-9
            t2 = TangentField.from_potentials(X=random_band_limited(rng, 12, 2.5), L=16, flavor="div")
            assert calderon_residual("grad", t2, sphere16, 16) <= 1e-9

    def test_perturbed_residuals(self, pert12, rng):
        worst = 0.0
        for _ in range(10):
            t = TangentField.from_potentials(V=random_band_limited(rng, 9, 2.5), L=12, flavor="curl")
            worst = max(worst, calderon_residual("curl", t, pert12, 12))
            t2 = TangentField.from_potentials(X=random_band_limited(rng, 9, 2.5), L=12, flavor="div")
            worst = max(worst, calderon_residual("grad", t2, pert12, 12))
        assert worst <= 1e-5

    def test_identity_and_flavor_checked(self, sphere10, rng):
        curl = TangentField.from_potentials(V=random_band_limited(rng, 6, 2.0), L=10, flavor="curl")
        div = TangentField.from_potentials(X=random_band_limited(rng, 6, 2.0), L=10, flavor="div")
        with pytest.raises(FlavorError, match="div-flavor"):
            calderon_residual("grad", curl, sphere10, 10)
        with pytest.raises(FlavorError, match="curl-flavor"):
            calderon_residual("curl", div, sphere10, 10)
        with pytest.raises(ValueError, match="unknown identity"):
            calderon_residual("div", div, sphere10, 10)

    def test_scalar_identity(self, pert12_ops):
        assert scalar_calderon_residual(pert12_ops) <= 1e-6


class TestSelfAdjointness:
    def test_sphere(self, sphere16):
        assert self_adjointness_residual("M_curl", sphere16, 16) <= 1e-10

    def test_perturbed(self, pert12):
        assert self_adjointness_residual("M_curl", pert12, 12) <= 1e-5
        assert self_adjointness_residual("Mstar_grad", pert12, 12) <= 1e-5

    def test_identity_gram_fails(self, pert12):
        assert self_adjointness_residual("M_curl", pert12, 12, "identity") > 1e-3


class TestCompleteness:
    @staticmethod
    def full_order_errors(grid, L, rng):
        """Worst full-order expansion error of random curl fields of degree 4, 8 and 12."""
        errs = []
        for degree in (4, 8, 12):
            g = TangentField.from_potentials(V=random_band_limited(rng, degree, 2.0), L=L, flavor="curl")
            _, full = curl_field_expansion(g, grid, L)
            errs.append(np.max(np.abs(full - g.V.padded(L))) / np.max(np.abs(g.V.coeffs)))
        return max(errs)

    def test_expansion_converges(self, pert12, pert12_spectra, rng):
        _, curl, _ = pert12_spectra
        assert self.full_order_errors(pert12, 12, rng) <= 1e-12
        g = TangentField.from_potentials(V=random_band_limited(rng, 8, 2.0), L=12, flavor="curl")
        ref = np.max(np.abs(g.V.coeffs))
        errs = []
        for J in (40, 100, len(curl)):
            _, rec = curl_field_expansion(g, pert12, 12, J)
            errs.append(np.max(np.abs(rec - g.V.padded(12))) / ref)
        assert errs[0] > errs[1] > errs[2]

    def test_expansion_exact_on_a_strongly_perturbed_surface(self, rng):
        assert self.full_order_errors(perturbed_sphere(0.5, 2, 0, 16), 12, rng) <= 1e-12

    def test_projected_adjoint_eigenfields(self, pert12, pert12_ops, pert12_spectra):
        # the dual potentials K_stiff^{-1} Ghat pot_j, the inverse-symmetrizer
        # images of the eigenfields, are eigenfields of the projected adjoint
        # with the same eigenvalues, and N maps each back to minus its eigenfield
        _, curl, _ = pert12_spectra
        S = pert12_ops["S"]
        nc = num_coeffs(S.L)
        D = pert12.laplace_matrix(S.L)
        K_st = pert12.stiffness_matrix()[:nc, :nc]
        Kstar = pert12_ops["Kstar"].entries
        U = np.zeros_like(curl.vectors)
        U[1:] = np.linalg.solve(K_st[1:, 1:], quotient_gram_matrix(pert12, S.L) @ curl.vectors[1:])
        for j in (0, 3, 11):
            # projected adjoint action on the curl potentials: Lap^{-1} K* Lap
            act = np.zeros_like(U[:, j])
            act[1:] = np.linalg.solve(D[1:, 1:], (Kstar @ (D @ U[:, j]))[1:])
            scale = np.max(np.abs(U[:, j]))
            assert np.max(np.abs(act - curl.eigenvalues[j] * U[:, j])) / scale <= 1e-12
            field = TangentField.from_potentials(V=ShCoeffs(S.L, U[:, j]), flavor="curl")
            back = apply_N(field, pert12, S.L).V.coeffs
            pot = curl.vectors[:, j]
            assert np.max(np.abs(back + pot)) / np.max(np.abs(pot)) <= 1e-12


class TestExports:
    def test_spectral_set_json_and_table(self, pert12_spectra):
        nps, curl, _ = pert12_spectra
        d = curl.to_json_dict()
        assert d["operator"] == "M_curl" and d["gram"] == "curl_Ninv"
        assert len(d["potentials"]) == len(curl)
        assert len(d["potentials"][0]) == (curl.L + 1) ** 2
        table = nps.eigenvalue_table()
        assert table[0][1] == pytest.approx(0.5, abs=1e-6)


class TestCholeskyEigensolve:
    """The Cholesky-reduced numpy eigensolve against scipy.linalg.eigh on the benchmark operators."""

    @pytest.fixture(scope="class", params=["decay-axisym", "spectrum-general"])
    def workload(self, request, workload_grid):
        return workload_grid(request.param)

    @staticmethod
    def pencil(grid, L):
        ops = scalar_operators(grid, L)
        S, Kstar = ops["S"], ops["Kstar"]
        return _hermitize(-S.pairing @ Kstar.entries), _hermitize(-S.pairing)

    def test_eigenvalues_and_b_orthonormality(self, workload):
        A, B = self.pencil(*workload)
        assert len(A) in (121, 169)
        lam, X = _eigh_pencil(A, B, "B")
        assert np.max(np.abs(lam - sla.eigh(A, B, eigvals_only=True))) <= 1e-13
        assert np.max(np.abs(X.conj().T @ B @ X - np.eye(len(B)))) <= 1e-12
        assert np.max(np.abs(A @ X - (B @ X) * lam)) <= 1e-12 * np.max(np.abs(A))
        st = np_spectrum(*workload)
        assert np.array_equal(np.sort(st.eigenvalues), lam)

    @pytest.mark.parametrize("which", ["M_curl", "Mstar_grad"])
    def test_subspace_spectrum_matches_scipy(self, workload, which):
        grid, L = workload
        A, G = _subspace_operator(which, grid, L)
        want = np.sort(sla.eigh(_hermitize(G @ A), G, eigvals_only=True))[::-1]
        got = subspace_spectrum(grid, L, which)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_negative_definite_gram_is_an_accuracy_error(self, workload):
        A, B = self.pencil(*workload)
        with pytest.raises(AssemblyAccuracyError, match="not positive definite"):
            _eigh_pencil(A, -B, "B")
