import numpy as np
import pytest

from mnpspr.mie import SphereMode, mode_tangent_field
from mnpspr.potentials import (
    MaterialConfig, helmholtz_point_kernels, scalar_operators, slot_blocks,
)
from mnpspr.scatter import (
    BlockSystem,
    RHSVector,
    assemble_system,
    densities_from_solution,
    dipole_incident_trace,
    eval_scattered_fields,
    pair_norm,
    resonance_shift,
    solve_scatter,
    weak_resonance_indicator,
)
from mnpspr.spectral import trace_norm
from mnpspr.sphharm import num_coeffs
from mnpspr.surface import ShCoeffs, TangentField

from conftest import full_matrix

SRC = np.array([0.0, 0.0, 6.0])
DIP = np.array([1.0, 0.5, 0.0])
PROBE = np.array([0.48, 0.6, 0.64])


def stacked_mode(l, n, m, L, omega=1.0):
    dens = mode_tangent_field(SphereMode(l, n, m, 1.0), L)
    v = np.concatenate([dens.X.coeffs[1:], dens.V.coeffs[1:]])
    return dens, np.concatenate([v, omega * v])


class TestAssembleSystem:
    def test_order_zero_block_diagonal(self, sphere10):
        mats = MaterialConfig(0.5, 1.0, 0.07)
        full = full_matrix(assemble_system(sphere10, mats, 0))
        d2 = len(full) // 2
        off = full[:d2, d2:]
        assert np.max(np.abs(off)) == 0.0
        # the dense M by the library's formula, which keeps only its blocks
        L, d = sphere10.L_quad, d2 // 2
        ops = scalar_operators(sphere10, L)
        D = sphere10.laplace_matrix(L)[1:, 1:]
        M = np.zeros((d2, d2), dtype=complex)
        M[:d, :d] = -np.linalg.solve(D, ops["Kstar"].entries[1:, 1:] @ D)
        M[d:, d:] = ops["K"].entries[1:, 1:]
        expect = resonance_shift(0.5) * np.eye(d2) - M
        # P is shift I - M on every azimuthal block; M's entries between blocks are round-off
        on = np.zeros((d2, d2), dtype=bool)
        for b in slot_blocks(sphere10, L):
            on[np.ix_(b, b)] = True
        assert np.max(np.abs(full[:d2, :d2] - expect)[on]) == 0.0
        assert np.max(np.abs(full[:d2, :d2])[~on]) == 0.0
        assert np.max(np.abs(M)[~on]) <= 1e-13 * np.max(np.abs(M))

    def test_order_zero_diagonalization(self, sphere10):
        mats = MaterialConfig(0.5, 1.0, 0.07)
        full = full_matrix(assemble_system(sphere10, mats, 0))
        for l, n in ((2, 1), (1, 1), (2, 4), (1, 3)):
            _, v = stacked_mode(l, n, 0, sphere10.L_quad)
            lam = (1.0 if l == 2 else -1.0) / (2 * (2 * n + 1))
            out = full @ v
            assert np.max(np.abs(out - (resonance_shift(0.5) - lam) * v)) < 1e-8

    def test_correction_vanishes_with_delta(self, sphere10):
        norms = []
        deltas = (0.1, 0.05, 0.025)
        for delta in deltas:
            mats = MaterialConfig(0.5, 1.0, delta)
            order2 = full_matrix(assemble_system(sphere10, mats, 2))
            order0 = full_matrix(assemble_system(sphere10, mats, 0))
            norms.append(np.linalg.norm(order2 - order0))
        slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
        assert slope >= 1.0 - 0.05

    def test_order_validation(self, sphere10):
        mats = MaterialConfig(0.5)
        with pytest.raises(ValueError):
            assemble_system(sphere10, mats, 3)


class TestKernelScaling:
    def test_fundamental_solution_scaling(self, rng):
        # G(k; x, y) = delta^{-1} G(delta k; x/delta, y/delta) pointwise
        k, delta = 1.7, 0.05
        for _ in range(10):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            g1, _ = helmholtz_point_kernels(k, (x - y)[None, :])
            g2, _ = helmholtz_point_kernels(delta * k, ((x - y) / delta)[None, :])
            assert abs(g1[0] - g2[0] / delta) < 1e-12 * abs(g1[0])


class TestDipoleTrace:
    def test_leading_term_is_rotational(self, sphere10):
        mats = MaterialConfig(0.5, 1.0, 1e-10)
        rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
        gx = np.linalg.norm(rhs.first.X.coeffs)
        gv = np.linalg.norm(rhs.first.V.coeffs)
        assert gx / (gx + gv) <= 1e-6

    def test_zero_moment(self, sphere10):
        mats = MaterialConfig(0.5, 1.0, 0.05)
        rhs = dipole_incident_trace(SRC, np.zeros(3), mats, sphere10)
        assert np.max(np.abs(rhs.stacked(sphere10.L_quad))) == 0.0

    def test_magnetic_trace_scales_linearly(self, sphere10):
        deltas = (0.1, 0.05, 0.025)
        norms = []
        for delta in deltas:
            mats = MaterialConfig(0.5, 1.0, delta)
            rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
            norms.append(trace_norm(rhs.second, sphere10))
        slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    def test_traces_match_the_point_kernel_oracle(self, pert12):
        mats = MaterialConfig(0.5, 1.3, 0.1)
        E, H = np.array(
            [TestScatteredFields.incident_factory(mats)(x) for x in pert12.positions]
        ).transpose(1, 0, 2)
        # eps = mu on each side, so both traces take the exterior minus the interior mu
        (mu_e, _), (mu_c, _) = mats.side(False), mats.side(True)
        nuE = np.cross(pert12.normals, E) / (mu_e - mu_c)
        nuH = 1j * np.cross(pert12.normals, H) / (mu_e - mu_c)
        want = RHSVector(
            *(pert12.helmholtz_decompose(t, flavor="curl") for t in (nuE, nuH))
        ).stacked(12)
        got = dipole_incident_trace(SRC, DIP, mats, pert12).stacked(12)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_source_inside_rejected(self, sphere10):
        mats = MaterialConfig(0.5)
        with pytest.raises(ValueError):
            dipole_incident_trace(np.array([0.2, 0.0, 0.0]), DIP, mats, sphere10)


class TestSolve:
    def test_single_mode_rhs_amplification(self, sphere10):
        # far off resonance: the solve divides the mode by the spectral gap
        mats = MaterialConfig(10.0, 1.0, 0.02)
        system = assemble_system(sphere10, mats, 0)
        dens, v = stacked_mode(2, 1, 0, sphere10.L_quad)
        rhs_pair = (
            TangentField.from_potentials(X=dens.X, V=dens.V, L=sphere10.L_quad, flavor="div"),
            TangentField.from_potentials(X=dens.X, V=dens.V, L=sphere10.L_quad, flavor="div"),
        )
        from mnpspr.scatter import RHSVector

        sol, cond = solve_scatter(system, RHSVector(*rhs_pair))
        gap = abs(resonance_shift(10.0) - 1.0 / 6.0)
        got = pair_norm(sol[0], sol[1], sphere10)
        want = pair_norm(rhs_pair[0], rhs_pair[1], sphere10) / gap
        assert abs(got - want) / want < 0.1

    def test_blowup_ratio_near_resonance(self, sphere10):
        norms = []
        for eta in (1e-2, 1e-3):
            mats = MaterialConfig(0.5 + eta, 1.0, 0.02)
            system = assemble_system(sphere10, mats, 0)
            rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
            sol, _ = solve_scatter(system, rhs)
            norms.append(pair_norm(sol[0], sol[1], sphere10))
        assert abs(norms[1] / norms[0] - 10.0) < 2.0

    def test_zero_rhs(self, sphere10):
        mats = MaterialConfig(10.0, 1.0, 0.02)
        system = assemble_system(sphere10, mats, 0)
        rhs = dipole_incident_trace(SRC, np.zeros(3), mats, sphere10)
        sol, _ = solve_scatter(system, rhs)
        assert pair_norm(sol[0], sol[1], sphere10) == 0.0


class TestWeakResonanceIndicator:
    # the lowest rotational mode of the unit sphere at the systems' degree
    CANDIDATE = mode_tangent_field(SphereMode(2, 1, 0), 10)

    def test_resonant_slope(self, sphere10):
        deltas = (0.1, 0.05, 0.025)
        vals = []
        for delta in deltas:
            mats = MaterialConfig(0.5, 1.0, delta)
            system = assemble_system(sphere10, mats, 2)
            vals.append(weak_resonance_indicator(system, self.CANDIDATE))
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope >= 1.0 - 0.05
        assert vals[-1] < vals[0]

    def test_detuned_lower_bound(self, sphere10):
        mats = MaterialConfig(0.6, 1.0, 0.025)
        system = assemble_system(sphere10, mats, 2)
        ind = weak_resonance_indicator(system, self.CANDIDATE)
        gap = abs(resonance_shift(0.6) - 1.0 / 6.0)
        assert ind >= 0.9 * gap

    def test_vanishes_at_zero_delta(self, sphere10):
        mats = MaterialConfig(0.5, 1.0, 0.0)
        system = assemble_system(sphere10, mats, 0)
        assert weak_resonance_indicator(system, self.CANDIDATE) <= 1e-8

    def test_system_keeps_its_grid(self, sphere10):
        # the indicator measures its trace norms on the grid the system was assembled on
        system = assemble_system(sphere10, MaterialConfig(0.5, 1.0, 0.05), 0)
        assert system.grid is sphere10


class TestScatteredFields:
    @staticmethod
    def incident_factory(mats):
        def incident(x):
            mu_e, k_e = mats.side(False)
            rv = np.atleast_2d(x - SRC)
            g, gr, he = helmholtz_point_kernels(mats.delta * k_e, rv, want_hessian=True)
            E = -(he[0] @ DIP) / k_e**2 - mats.delta**2 * g[0] * DIP
            H = 1j * mats.delta / (mats.omega * mu_e) * np.cross(gr[0], DIP)
            return E, H

        return incident

    def test_zero_densities_give_incident(self, sphere10):
        mats = MaterialConfig(0.8, 1.0, 0.05)
        zero = TangentField.from_potentials(
            V=ShCoeffs.zeros(sphere10.L_quad), flavor="div")
        incident = self.incident_factory(mats)
        x = 2.0 * PROBE
        E, H = eval_scattered_fields((zero, zero), x, mats, sphere10, incident=incident)
        Ei, Hi = incident(x)
        assert np.max(np.abs(E - Ei)) == 0.0
        assert np.max(np.abs(H - Hi)) == 0.0

    def test_single_mode_against_closed_form(self, sphere10):
        # psi = single rotational mode, phi = 0: the exterior electric field
        # is mu curl S at the exterior's scaled wavenumber, available in closed form
        from mnpspr.mie import exact_sphere_potential

        mats = MaterialConfig(0.8, 1.0, 0.05)
        mode = SphereMode(2, 2, 1, 1.0)
        psi = mode_tangent_field(mode, sphere10.L_quad)
        zero = TangentField.from_potentials(V=ShCoeffs.zeros(sphere10.L_quad), flavor="div")
        x = 2.0 * PROBE
        E, H = eval_scattered_fields((psi, zero), x, mats, sphere10)
        mu_e, k_e = mats.side(False)
        ref = mu_e * exact_sphere_potential(mode, mats.delta * k_e, x, "curlS")
        assert np.max(np.abs(E - ref)) < 1e-6 * np.max(np.abs(ref))

    def test_faraday_fd_exterior(self, sphere10):
        mats = MaterialConfig(0.8, 1.0, 0.05)
        system = assemble_system(sphere10, mats, 2)
        rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
        sol, _ = solve_scatter(system, rhs)
        dens = densities_from_solution(sol, mats.omega)
        x = 2.5 * PROBE
        E = lambda y: eval_scattered_fields(dens, y, mats, sphere10)[0]
        _, H = eval_scattered_fields(dens, x, mats, sphere10)
        from conftest import fd_curl

        curlE = fd_curl(E, x)
        # scaled frame: curl_x~ E = i omega delta mu H
        ref = 1j * mats.omega * mats.delta * mats.side(False)[0] * H
        assert np.max(np.abs(curlE - ref)) < 1e-3 * np.max(np.abs(ref))

    def test_transmission_consistency(self, sphere10):
        mats = MaterialConfig(0.8, 1.0, 0.05)
        system = assemble_system(sphere10, mats, 2)
        rhs = dipole_incident_trace(SRC, DIP, mats, sphere10)
        sol, _ = solve_scatter(system, rhs)
        dens = densities_from_solution(sol, mats.omega)
        incident = self.incident_factory(mats)
        ts = np.array([0.2, 0.1, 0.05, 0.025])

        def nu_e(rr):
            E, _ = eval_scattered_fields(
                dens, rr * PROBE, mats, sphere10,
                incident=incident if rr > 1 else None)
            return np.cross(PROBE, E)

        def extrap(side):
            vals = np.array([nu_e(1 + side * t) for t in ts])
            return np.array(
                [np.polyval(np.polyfit(ts, vals[:, c], 3), 0.0) for c in range(3)]
            )

        plus, minus = extrap(+1), extrap(-1)
        assert np.linalg.norm(plus - minus) <= 1e-3 * np.linalg.norm(minus)
