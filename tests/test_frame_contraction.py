"""Pairings against grad Y_j and vcurl Y_j contracted through the node frame.

The library pairs fields with the tangential basis through the per-ring
derivative transforms and the four `tangent_frame` fields, without the
dense (N, NC, 3) basis arrays.
These tests check each pairing against the arrays built by the conftest
oracle, and bound the memory the contraction saves.
"""

import numpy as np
import pytest
from conftest import (
    arrays_in, basis_arrays, correction_pairing, dense, max_rel, tangent_field, traced_peak_mb,
)

from mnpspr.potentials import (
    VECTOR_KINDS,
    _ring_kernel_values,
    correction_unit_matrices,
    slot_blocks,
    tangent_mass_stack,
)
from mnpspr.quadrature import correction_polar_order, rings
from mnpspr.scatter import resonance_sweep
from mnpspr.sphharm import num_coeffs, sh_degrees, ynm_matrix
from mnpspr.surface import perturbed_sphere

RTOL = 1e-13


@pytest.fixture(scope="module", params=["pert12", "nonaxisym8", "decay-axisym"])
def surface(request, pert12, workload_grid):
    """(grid, L): pert12, a non-axisymmetric degree-3 surface, the decay-axisym seed-0 surface."""
    if request.param == "pert12":
        return pert12, 12
    if request.param == "nonaxisym8":
        return perturbed_sphere(0.2, 3, 1, 8), 8
    return workload_grid("decay-axisym")


def pairing(basis, grid, f):
    """int conj(b_j) . f ds for every basis field, by the grid rule."""
    return np.einsum("pic,pc->i", np.conj(basis), grid.area_weights[:, None] * f)


def every_target(grid, ring, values, L):
    """A ring's kernel rows at all n_phi targets from `_ring_kernel_values` at its n_t, (n_phi 3, 4d).

    On a surface of revolution (n_t = 1) target i's rows are the first
    target's turned about z by the azimuth difference and times exp(i m (phi_i - phi_0)).
    """
    if len(ring.normal) == grid.n_phi:
        return values
    turn = grid.phis[ring.nodes] - grid.phis[ring.nodes.start]
    c, s = np.cos(turn), np.sin(turn)
    rotation = np.zeros((grid.n_phi, 3, 3))
    rotation[:, 0, 0] = rotation[:, 1, 1] = c
    rotation[:, 0, 1], rotation[:, 1, 0] = -s, s
    rotation[:, 2, 2] = 1.0
    m = np.tile(sh_degrees(L)[1][1:], 4)
    rows = np.einsum("iab,bk->iak", rotation, values) * np.exp(1j * np.outer(turn, m))[:, None]
    return rows.reshape(-1, values.shape[1])


def oracle_corrections(grid, L):
    """Correction pairings contracted against the dense basis arrays (VECTOR_KINDS columns).

    Each ring's pairing is summed over all its n_phi targets.
    """
    nc = num_coeffs(L)
    d = nc - 1
    w = grid.area_weights
    grad, curl = (basis[:, 1:nc] for basis in basis_arrays(grid))
    test = np.concatenate([curl.transpose(0, 2, 1), -grad.transpose(0, 2, 1)], axis=2)
    test = np.conj(test) * w[:, None, None]
    G = np.zeros((2 * d, 6 * d), dtype=complex)
    phi_int = np.concatenate([np.tensordot(w, grad, axes=1), np.tensordot(w, curl, axes=1)])
    G[:, 4 * d :] = (2.0 / 3.0) * test.sum(axis=0).T @ phi_int.T
    for ring in rings(grid, L, correction_polar_order(L)):
        values = every_target(grid, ring, _ring_kernel_values(ring, L), L)
        G[:, : 4 * d] += test[ring.nodes].reshape(-1, 2 * d).T @ values
    return G


class TestAgainstBasisArrays:
    def test_stiffness(self, surface):
        grid, _ = surface
        gb = basis_arrays(grid)[0]
        ref = np.einsum("pic,pjc->ij", np.conj(grid.area_weights[:, None, None] * gb), gb)
        assert max_rel(grid.stiffness_matrix(), ref) <= RTOL

    def test_div(self, surface, rng):
        grid, _ = surface
        f = tangent_field(grid, rng)
        pair = -pairing(basis_arrays(grid)[0], grid, f)
        Y = ynm_matrix(grid.thetas, grid.phis, grid.L_quad)
        ref = Y @ np.linalg.solve(grid.mass_matrix(), pair)
        assert max_rel(grid.div(f), ref) <= RTOL

    def test_helmholtz_decompose(self, surface, rng):
        grid, _ = surface
        f = tangent_field(grid, rng)
        gb, cb = basis_arrays(grid)
        K = np.einsum("pic,pjc->ij", np.conj(grid.area_weights[:, None, None] * gb), gb)
        rhs = np.column_stack([pairing(b, grid, f)[1:] for b in (gb, cb)])
        ref = np.linalg.solve(K[1:, 1:], rhs)
        got = grid.helmholtz_decompose(f)
        assert got.X.coeffs[0] == got.V.coeffs[0] == 0
        assert max_rel(np.column_stack([got.X.coeffs[1:], got.V.coeffs[1:]]), ref) <= RTOL

    def test_correction_kinds(self, surface):
        grid, L = surface
        G = oracle_corrections(grid, L)
        entries = np.linalg.solve(tangent_mass_stack(grid, L), G)
        ops = correction_unit_matrices(grid, L)
        d = num_coeffs(L) - 1
        for i, kind in enumerate(VECTOR_KINDS):
            cols = slice(2 * d * i, 2 * d * (i + 1))
            assert max_rel(correction_pairing(grid, L, ops[kind]), G[:, cols]) <= RTOL, kind
            assert max_rel(dense(ops[kind], slot_blocks(grid, L)), entries[:, cols]) <= RTOL, kind


class TestMemory:
    """Peaks on rho = 1 + 0.2 Re Y_2^0 at L_quad = 12 (676 nodes, 169 harmonics).

    One (N, NC, 3) basis array is 5.5 MB there.  Dense basis arrays gave
    peaks of about 52, 28 and 11 MB; the frame contraction gave about
    14, 4.2 and 0.1 MB with the dense node basis, and gives 14, 1.2 and
    0.3 MB with the per-ring transforms.  The correction matrices held
    block by block over the 25 azimuthal orders, from the first target of
    each ring, peak at about 2.3 MB, against 14 MB for dense (2d, 6d)
    pairings and entries summed over every target.
    """

    @staticmethod
    def grid():
        return perturbed_sphere(0.2, 2, 0, 12)

    def test_correction_unit_matrices(self):
        grid = self.grid()
        assert traced_peak_mb(lambda: correction_unit_matrices(grid, 12)) < 24.0

    def test_correction_unit_matrices_in_azimuthal_blocks(self):
        grid = self.grid()
        assert traced_peak_mb(lambda: correction_unit_matrices(grid, 12)) < 5.0

    def test_stiffness_matrix(self):
        grid = self.grid()
        assert traced_peak_mb(grid.stiffness_matrix) < 12.0

    def test_one_helmholtz_decompose(self, rng):
        grid = self.grid()
        grid.stiffness_matrix()
        f = tangent_field(grid, rng)
        assert traced_peak_mb(lambda: grid.helmholtz_decompose(f)) < 3.0

    def test_sweep_holds_each_scattering_operator_once_per_block(self):
        # M, Mk2, L1 and L2 as one matrix per azimuthal block, and no pairing or dense M
        grid, L = perturbed_sphere(0.2, 2, 0, 8), 8
        resonance_sweep(grid, [0.5], [0.1], 1.0, 2, np.array([0, 0, 3.0]), np.array([1.0, 0, 0]), L)
        keys = (("magnetic", L), ("corrections", L))
        held = [a for key in keys for a in arrays_in(grid._memo[key])]
        assert sum(a.size for a in held) == 4 * sum(len(b) ** 2 for b in slot_blocks(grid, L))
        assert max(len(a) for a in held) <= 2 * L

    def test_sweep_caches_no_basis_sized_array(self):
        grid = perturbed_sphere(0.2, 2, 0, 6)
        resonance_sweep(grid, [0.5], [0.1], 1.0, 2, np.array([0, 0, 3.0]), np.array([1.0, 0, 0]))
        limit = grid.n_nodes * num_coeffs(grid.L_quad) * 3
        cached = list(arrays_in(grid._memo))
        assert cached
        assert all(a.size < limit for a in cached)
