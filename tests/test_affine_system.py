"""Offline/online split of the scaled scattering system.

The correction kernels are projected once per grid at unit scale; every
material scales them.  The solve splits the system [[P, Q], [Q, P]] into the
half-size blocks P + Q and P - Q and takes the exact 1-norm condition number
from their inverses.  Every operator is held and solved block by block over
the slot partition: one block per azimuthal order on a surface of
revolution, one block elsewhere.
"""

import logging

import numpy as np
import pytest

import mnpspr.potentials as potentials
from mnpspr.mie import SphereMode, mode_tangent_field
from mnpspr.potentials import (
    VECTOR_KINDS,
    MaterialConfig,
    ResonanceError,
    assemble_correction,
    correction_unit_matrices,
    slot_blocks,
)
from mnpspr.scatter import (
    BlockSystem,
    RHSVector,
    _unstack,
    assemble_system,
    dipole_incident_trace,
    pair_norm,
    resonance_shift,
    solve_scatter,
    static_magnetic_block,
    weak_resonance_indicator,
)
from mnpspr.sphharm import num_coeffs
from mnpspr.surface import ShCoeffs, TangentField, perturbed_sphere, sphere_surface

from conftest import dense, full_matrix

SRC = np.array([0.0, 0.0, 6.0])
DIP = np.array([1.0, 0.5, 0.0])
MATS = (
    MaterialConfig(0.4, 1.0, 0.1),
    MaterialConfig(0.8, 1.0, 0.025),
    MaterialConfig(0.6, 2.0, 0.05),
)


def expected_scale(kind, mats):
    """The material factor of each kernel, up to a kind-wide constant.

    For the material model k_e = omega, k_c = omega tau, mu_e = 1 and
    mu_c = -tau, so Mk2's mu_c k_c^2 - mu_e k_e^2 is -omega^2 (tau^3 + 1),
    and L1's and L2's (k_c^j - k_e^j) / omega are omega^{j-1} (tau^j - 1).
    """
    omega, tau = mats.omega, mats.tau
    if kind == "Mk2":
        return -(omega**2) * (tau**3 + 1.0)
    power = 2 if kind == "L1" else 3
    return omega ** (power - 1) * (tau**power - 1.0)


class TestUnitMatrices:
    def test_materials_share_one_projection(self, monkeypatch):
        grid = sphere_surface(1.0, 6)
        passes = []
        real_rings = potentials.rings

        def counting_rings(*args, **kwargs):
            passes.append(args[1])
            return real_rings(*args, **kwargs)

        monkeypatch.setattr(potentials, "rings", counting_rings)
        assemble_correction("L1", grid, MATS[0], 6)
        units = correction_unit_matrices(grid, 6)
        for mats in MATS:
            for kind in VECTOR_KINDS:
                assemble_correction(kind, grid, mats, 6)
        again = correction_unit_matrices(grid, 6)
        assert again is units
        assert all(again[kind] is units[kind] for kind in units)
        assert passes == [6]

    def test_materials_differ_by_their_scale(self, sphere10):
        blocks = slot_blocks(sphere10, 6)
        for kind in VECTOR_KINDS:
            x = dense(assemble_correction(kind, sphere10, MATS[0], 6), blocks)
            for mats in MATS[1:]:
                y = dense(assemble_correction(kind, sphere10, mats, 6), blocks)
                ratio = expected_scale(kind, mats) / expected_scale(kind, MATS[0])
                assert np.max(np.abs(y - ratio * x)) <= 1e-13 * np.max(np.abs(y)), kind

    def test_cached_arrays_are_read_only(self, sphere10):
        unit = correction_unit_matrices(sphere10, 6)["Mk2"]
        M = static_magnetic_block(sphere10, 6)
        for a in (*unit, *M):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        assert static_magnetic_block(sphere10, 6) is M


class TestLUSolve:
    def test_exactly_singular_matrix_raises(self, sphere10):
        mats = MaterialConfig(0.5, 1.0, 0.05)
        system = assemble_system(sphere10, mats, 0)
        P, Q = (dense(x, system.blocks) for x in (system.same, system.cross))
        P[:, 3] = Q[:, 3] = 0.0
        singular = BlockSystem([P], [Q], (np.arange(len(P)),), system.L, system.grid, mats)
        rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
        with pytest.raises(ResonanceError) as err:
            solve_scatter(singular, rhs)
        assert err.value.eigenvalue == resonance_shift(0.5)

    @pytest.mark.parametrize("sign", [1, -1], ids=["P+Q", "P-Q"])
    def test_one_singular_half_raises(self, sphere10, sign):
        mats = MaterialConfig(0.5, 1.0, 0.05)
        system = assemble_system(sphere10, mats, 2)
        P, Q = (dense(x, system.blocks) for x in (system.same, system.cross))
        Q[:, 3] = -sign * P[:, 3]  # zeroes column 3 of P + sign Q only
        assert np.linalg.cond(P - sign * Q, 1) < 1e8  # the other half stays invertible
        singular = BlockSystem([P], [Q], (np.arange(len(P)),), system.L, system.grid, mats)
        rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
        with pytest.raises(ResonanceError) as err:
            solve_scatter(singular, rhs)
        assert err.value.eigenvalue == resonance_shift(0.5)

    def test_cond_is_the_one_norm_estimate(self, sphere10, pert12):
        # the split solve's cond is the exact 1-norm condition number
        for grid in (sphere10, pert12):
            for order in (0, 1, 2):
                for tau in (0.4, 0.8):
                    mats = MaterialConfig(tau, 1.0, 0.05)
                    system = assemble_system(grid, mats, order)
                    rhs = dipole_incident_trace(SRC, DIP, mats, grid)
                    sol, cond = solve_scatter(system, rhs)
                    full = full_matrix(system)
                    exact = np.linalg.cond(full, 1)
                    assert abs(cond - exact) <= 1e-10 * exact
                    ref = np.linalg.solve(full, rhs.stacked(system.L))
                    got = np.concatenate(
                        [f.coeffs[1:] for f in (sol[0].X, sol[0].V, sol[1].X, sol[1].V)]
                    )
                    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestAzimuthalBlocks:
    """The block-by-block solve against a dense solve of the full system."""

    @pytest.fixture(scope="class", params=["pert12", "Y21"])
    def surface(self, request, pert12):
        """(grid, L, number of blocks): a surface of revolution and one without symmetry."""
        if request.param == "pert12":
            return pert12, 12, 2 * 12 + 1
        # the single layer's symmetry guard needs L below L_quad here
        return perturbed_sphere(0.05, 2, 1, 8), 6, 1

    @staticmethod
    def dense_indicator(system, full, density):
        """weak_resonance_indicator with the full matrix applied in one product."""
        L = system.L
        v = TangentField.from_potentials(X=density.X, V=density.V, L=L, flavor="div")
        omega = system.materials.omega
        scaled = TangentField(
            ShCoeffs(L, omega * v.X.padded(L)), ShCoeffs(L, omega * v.V.padded(L)), "div"
        )
        stacked = RHSVector(v, scaled).stacked(L) / pair_norm(v, scaled, system.grid)
        return pair_norm(*_unstack(full @ stacked, L), system.grid)

    def test_partition_covers_every_slot_once(self, surface):
        grid, L, n_blocks = surface
        blocks = slot_blocks(grid, L)
        assert len(blocks) == n_blocks
        d = num_coeffs(L) - 1
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(2 * d))

    @pytest.mark.parametrize("order", [0, 2])
    def test_against_the_dense_solve(self, surface, order):
        grid, L, _ = surface
        mats = MaterialConfig(0.4, 1.0, 0.1)
        system = assemble_system(grid, mats, order, L)
        rhs = dipole_incident_trace(SRC, DIP, mats, grid)
        sol, cond = solve_scatter(system, rhs)
        full = full_matrix(system)
        ref = np.linalg.solve(full, rhs.stacked(system.L))
        got = np.concatenate([f.coeffs[1:] for f in (sol[0].X, sol[0].V, sol[1].X, sol[1].V)])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        exact = np.linalg.norm(full, 1) * np.linalg.norm(np.linalg.inv(full), 1)
        assert abs(cond - exact) <= 1e-12 * exact
        candidate = mode_tangent_field(SphereMode(2, 1, 0), system.L)
        indicator = weak_resonance_indicator(system, candidate)
        expect = self.dense_indicator(system, full, candidate)
        assert abs(indicator - expect) <= 1e-12 * expect


class TestDroppedBlockMark:
    def test_non_sphere_warns_once(self, caplog):
        # the warning comes with M, built once per grid and degree: a second sweep
        # point adds none.  The grid is the test's own, so no earlier test has built M on it.
        grid = perturbed_sphere(0.05, 2, 0, 8)
        with caplog.at_level(logging.WARNING, logger="mnpspr.scatter"):
            for tau in (0.5, 0.8):
                mats = MaterialConfig(tau, 1.0, 0.05)
                system = assemble_system(grid, mats, 0)
                assert system.meta["cross_coupling"] == "dropped"
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "gradient-to-curl" in warnings[0].getMessage()

    def test_sphere_is_silent(self, sphere10, caplog):
        mats = MaterialConfig(0.5, 1.0, 0.05)
        with caplog.at_level(logging.WARNING, logger="mnpspr.scatter"):
            system = assemble_system(sphere10, mats, 0)
        assert system.meta["cross_coupling"] == "dropped"
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
