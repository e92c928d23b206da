"""The grid's node transforms against dense `ynm_matrix` products.

The grid keeps no (nodes, harmonics) array: node values go Legendre then
Fourier per order, pairings Fourier then Legendre, and the Grams and the
scalar Galerkin pairings accumulate ring by ring.  Each path is checked
against the dense basis matrices Y, dY/dtheta and (1/sin) dY/dphi built by
`ynm_matrix` at the nodes, on the axisymmetric pert12 and on a surface
without rotational symmetry; the stiffness Gram is checked against the
same matrices in test_frame_contraction.py.  The memory guards bound what a grid holds
and what the scalar assembly peaks at on the decay-axisym seed-0 surface
at degree 16, where the dense basis held 16 MB and the node-value
assembly peaked at 49 MB.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import arrays_in, max_rel, tangent_field, traced_peak_mb

from mnpspr import quadrature
from mnpspr.potentials import scalar_operators
from mnpspr.quadrature import assemble_scalar_values
from mnpspr.sphharm import num_coeffs, ynm_matrix
from mnpspr.surface import (
    TangentField,
    build_surface,
    perturbed_sphere,
    radius_from_json,
    random_band_limited,
)

RTOL = 1e-13


@pytest.fixture(scope="module", params=["pert12", "nonaxisym10"])
def surface(request, pert12):
    """(grid, dense (Y, Yt, Yp) at its nodes): pert12 and rho = 1 + 0.2 Re Y_2^1 at L_quad = 10."""
    grid = pert12 if request.param == "pert12" else perturbed_sphere(0.2, 2, 1, 10)
    return grid, ynm_matrix(grid.thetas, grid.phis, grid.L_quad, derivatives=True)


class TestAgainstDenseBasis:
    def test_scalar_synthesis(self, surface, rng):
        grid, (Y, _, _) = surface
        dens = [random_band_limited(rng, L, mean_free=False) for L in (2, 7, grid.L_quad)]
        ref = np.column_stack([Y[:, : d.coeffs.size] @ d.coeffs for d in dens])
        assert max_rel(grid.values_at(dens), ref) <= RTOL

    def test_tangent_synthesis(self, surface, rng):
        grid, (_, Yt, Yp) = surface
        a, sb, a_c, sb_c = grid.tangent_frame
        dens = [
            TangentField.from_potentials(
                X=random_band_limited(rng, L), V=random_band_limited(rng, L - 1), flavor="curl"
            )
            for L in (3, grid.L_quad)
        ]
        for got, d in zip(np.moveaxis(grid.values_at(dens), -1, 0), dens):
            nc = d.X.coeffs.size
            X, V = d.X.coeffs, d.V.coeffs
            ref = (
                (Yt[:, :nc] @ X)[:, None] * a + (Yp[:, :nc] @ X)[:, None] * sb
                + (Yt[:, :nc] @ V)[:, None] * a_c + (Yp[:, :nc] @ V)[:, None] * sb_c
            )
            assert max_rel(got, ref) <= RTOL

    @pytest.mark.parametrize("degree", ["full", "half"])
    def test_analysis(self, surface, rng, degree):
        grid, (Y, _, _) = surface
        L = grid.L_quad if degree == "full" else grid.L_quad // 2
        v = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
        ref = np.conj(Y[:, : num_coeffs(L)]).T @ (grid.param_weights * v)
        assert max_rel(grid.analysis(v, L).coeffs, ref) <= RTOL

    def test_mass_matrix(self, surface):
        grid, (Y, _, _) = surface
        ref = np.conj(Y).T @ (grid.area_weights[:, None] * Y)
        assert max_rel(grid.mass_matrix(), ref) <= RTOL

    @pytest.mark.parametrize("family", ["grad", "curl"])
    def test_frame_pairing(self, surface, rng, family):
        grid, (_, Yt, Yp) = surface
        f = tangent_field(grid, rng)
        pair = grid.tangent_frame[:2] if family == "grad" else grid.tangent_frame[2:]
        a, b = (np.einsum("pc,pc->p", vec, grid.area_weights[:, None] * f) for vec in pair)
        ref = np.conj(Yt).T @ a + np.conj(Yp).T @ b
        assert max_rel(grid._frame_pairing(f, family), ref) <= RTOL

    def test_scalar_pairings(self, surface, monkeypatch):
        """Each ring's kernel rows, recorded as the assembly makes them, are
        written into dense node values (Op Y_j)(x_i) and contracted with Y^H."""
        grid, (Y, _, _) = surface
        L = grid.L_quad if grid.axisymmetric else 6
        nc = num_coeffs(L)
        recorded, original = [], quadrature.harmonic_moments

        def recording(*args, **kwargs):
            recorded.append(original(*args, **kwargs))
            return recorded[-1]

        monkeypatch.setattr(quadrature, "harmonic_moments", recording)
        got = assemble_scalar_values(grid, L)
        values = np.zeros((3, grid.n_nodes, nc), dtype=complex)
        for ring, rows in zip(quadrature.rings(grid, L), recorded):
            values[:, ring.nodes] = np.moveaxis(rows.reshape(-1, 3, nc), 1, 0) * ring.phase
        assert got.shape == (nc, 3 * nc)
        for kind, vals, pairing in zip(("S", "Kstar", "K"), values, np.split(got, 3, axis=1)):
            ref = np.conj(Y[:, :nc]).T @ (grid.area_weights[:, None] * vals)
            assert max_rel(pairing, ref) <= RTOL, kind


class TestGridMemory:
    """The decay-axisym seed-0 surface at L = L_quad = 16 (1156 nodes, 289 harmonics)."""

    @staticmethod
    def build(workload_config):
        cfg = workload_config("decay-axisym")
        return build_surface(radius_from_json(cfg["surface"]), 16)

    def test_built_grid_holds_under_4_mb(self, workload_config):
        tracemalloc.start()
        try:
            grid = self.build(workload_config)
            held = tracemalloc.get_traced_memory()[0] / 1e6
        finally:
            tracemalloc.stop()
        assert grid.n_nodes == 1156
        assert held <= 4.0

    def test_scalar_operators_peak_under_25_mb(self, workload_config):
        grid = self.build(workload_config)
        assert traced_peak_mb(lambda: scalar_operators(grid, 16)) <= 25.0

    def test_no_nodes_by_harmonics_array(self, workload_config, rng):
        grid = self.build(workload_config)
        scalar_operators(grid, 16)
        grid.laplace_matrix()
        grid.values_at([TangentField.from_potentials(X=random_band_limited(rng, 16))])
        limit = grid.n_nodes * num_coeffs(grid.L_quad)
        held = [a for key, v in vars(grid).items() if key != "_memo" for a in arrays_in(v)]
        cached = list(arrays_in(grid._memo))
        assert held and cached
        assert all(a.size < limit for a in held + cached)
