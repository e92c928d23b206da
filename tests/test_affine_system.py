"""Offline/online split of the scaled scattering system.

The correction kernels are projected once per grid at unit scale; every
material scales them.  The solve splits the system [[P, Q], [Q, P]] into the
half-size blocks P + Q and P - Q and takes the exact 1-norm condition number
from their inverses.
"""

import logging

import numpy as np
import pytest

import mnpspr.potentials as potentials
from mnpspr.potentials import (
    MaterialConfig,
    ResonanceError,
    assemble_correction,
    correction_unit_matrices,
)
from mnpspr.scatter import (
    BlockSystem,
    assemble_system,
    dipole_incident_trace,
    resonance_shift,
    solve_scatter,
    static_magnetic_block,
)
from mnpspr.surface import perturbed_sphere, sphere_surface

from conftest import full_matrix

SRC = np.array([0.0, 0.0, 6.0])
DIP = np.array([1.0, 0.5, 0.0])
MATS = (
    MaterialConfig.negative_preset(0.4, 1.0, 0.1),
    MaterialConfig.negative_preset(0.8, 1.0, 0.025),
)


def expected_scale(kind, mats, wavenumber):
    """The material factor of each kernel, up to a kind-wide constant."""
    k_e, k_c = complex(mats.k_e), complex(mats.k_c)
    if kind == "Mk2":
        return (k_e if wavenumber == "e" else k_c) ** 2
    power = 2 if kind == "L1" else 3
    return (k_c**power - k_e**power) / mats.omega


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
            for kind, wn in (("L1", "e"), ("L2", "e"), ("Mk2", "e"), ("Mk2", "c")):
                assemble_correction(kind, grid, mats, 6, wn)
        again = correction_unit_matrices(grid, 6)
        assert again is units
        assert all(again[kind] is units[kind] for kind in units)
        assert passes == [6]

    def test_materials_differ_by_their_scale(self, sphere10):
        for kind, wn in (("L1", "e"), ("L2", "e"), ("Mk2", "e"), ("Mk2", "c")):
            a = assemble_correction(kind, sphere10, MATS[0], 6, wn)
            b = assemble_correction(kind, sphere10, MATS[1], 6, wn)
            ratio = expected_scale(kind, MATS[1], wn) / expected_scale(kind, MATS[0], wn)
            for x, y in ((a.entries, b.entries), (a.pairing, b.pairing)):
                assert np.max(np.abs(y - ratio * x)) <= 1e-13 * np.max(np.abs(y))

    def test_cached_arrays_are_read_only(self, sphere10):
        unit = correction_unit_matrices(sphere10, 6)["Mk2"]
        M = static_magnetic_block(sphere10, 6)
        for a in (unit.entries, unit.pairing, M):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        assert static_magnetic_block(sphere10, 6) is M


class TestLUSolve:
    def test_exactly_singular_matrix_raises(self, sphere10):
        mats = MaterialConfig.negative_preset(0.5, 1.0, 0.05)
        system = assemble_system(sphere10, mats, 0)
        P, Q = system.same.copy(), system.cross.copy()
        P[:, 3] = Q[:, 3] = 0.0
        singular = BlockSystem(P, Q, system.L, system.grid, mats)
        rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
        with pytest.raises(ResonanceError) as err:
            solve_scatter(singular, rhs)
        assert err.value.eigenvalue == resonance_shift(0.5)

    @pytest.mark.parametrize("sign", [1, -1], ids=["P+Q", "P-Q"])
    def test_one_singular_half_raises(self, sphere10, sign):
        mats = MaterialConfig.negative_preset(0.5, 1.0, 0.05)
        system = assemble_system(sphere10, mats, 2)
        P, Q = system.same, system.cross.copy()
        Q[:, 3] = -sign * P[:, 3]  # zeroes column 3 of P + sign Q only
        assert np.linalg.cond(P - sign * Q, 1) < 1e8  # the other half stays invertible
        singular = BlockSystem(P, Q, system.L, system.grid, mats)
        rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
        with pytest.raises(ResonanceError) as err:
            solve_scatter(singular, rhs)
        assert err.value.eigenvalue == resonance_shift(0.5)

    def test_cond_is_the_one_norm_estimate(self, sphere10, pert12):
        # the split solve's cond is the exact 1-norm condition number
        for grid in (sphere10, pert12):
            for order in (0, 1, 2):
                for tau in (0.4, 0.8):
                    mats = MaterialConfig.negative_preset(tau, 1.0, 0.05)
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


class TestDroppedBlockMark:
    def test_non_sphere_warns_once(self, caplog):
        # the warning belongs to the grid: a second sweep point adds none.  The
        # grid is the test's own, so that no earlier test has spent its warning.
        grid = perturbed_sphere(0.05, 2, 0, 8)
        with caplog.at_level(logging.WARNING, logger="mnpspr.scatter"):
            for tau in (0.5, 0.8):
                mats = MaterialConfig.negative_preset(tau, 1.0, 0.05)
                system = assemble_system(grid, mats, 0)
                assert system.meta["cross_coupling"] == "dropped"
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "gradient-to-curl" in warnings[0].getMessage()

    def test_sphere_is_silent(self, sphere10, caplog):
        mats = MaterialConfig.negative_preset(0.5, 1.0, 0.05)
        with caplog.at_level(logging.WARNING, logger="mnpspr.scatter"):
            system = assemble_system(sphere10, mats, 0)
        assert system.meta["cross_coupling"] == "dropped"
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
