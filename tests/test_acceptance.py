"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS/FAIL line with the measured figure so the suite
doubles as a verification report (run with `pytest -s tests/test_acceptance.py`).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from mnpspr.mie import SphereMode, exact_sphere_potential, mode_tangent_field
from mnpspr.plasmon import PlasmonMode, localization_scan, plasmon_field, resonance_tau
from mnpspr.potentials import (
    MaterialConfig,
    apply_N,
    apply_Q,
    offboundary_eval,
)
from mnpspr.scatter import (
    assemble_system,
    dipole_incident_trace,
    pair_norm,
    resonance_shift,
    solve_scatter,
    weak_resonance_indicator,
)
from mnpspr.spectral import (
    calderon_residual,
    mnp_spectra,
    np_spectrum,
    self_adjointness_residual,
    subspace_spectrum,
)
from mnpspr.surface import (
    ShCoeffs,
    TangentField,
    random_band_limited,
    sphere_surface,
)

from conftest import fibonacci_shell

PROBE = np.array([0.6, 0.64, 0.48])


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_sphere_spectra():
    """K*, M_curl, M*_grad sphere eigenvalues at L=16 within 1e-6, under 30 s."""
    t0 = time.monotonic()
    grid = sphere_surface(1.0, 16)  # a fresh grid: assembly and solves are timed
    nps = np_spectrum(grid, 16)
    curl, grad = mnp_spectra(grid, 16)
    elapsed = time.monotonic() - t0

    err = 0.0
    lam_sorted = np.sort(nps.eigenvalues)[::-1]
    idx = 0
    for n in range(0, 11):
        exact = 1.0 / (2.0 * (2.0 * n + 1.0))
        block = lam_sorted[idx : idx + 2 * n + 1]
        err = max(err, float(np.max(np.abs(block - exact) / exact)))
        idx += 2 * n + 1
    n_arr = np.concatenate([np.full(2 * k + 1, k) for k in range(1, 17)])
    err_curl = np.max(
        np.abs(np.sort(curl.eigenvalues) - np.sort(1.0 / (2 * (2 * n_arr + 1))))
    )
    err_grad = np.max(
        np.abs(np.sort(grad.eigenvalues) + np.sort(1.0 / (2 * (2 * n_arr + 1)))[::-1])
    )
    ok = err <= 1e-6 and err_curl <= 1e-6 and err_grad <= 1e-6 and elapsed < 30.0
    _report(
        "criterion 1 (sphere spectra)",
        ok,
        f"rel err K*={err:.2e}, curl={err_curl:.2e}, grad={err_grad:.2e}, "
        f"runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_02_calderon_identities(sphere16, pert12):
    """Commutation residuals <= 1e-9 (sphere) and <= 1e-5 (perturbed, L=12)."""
    rng = np.random.default_rng(2)
    worst_s, worst_p = 0.0, 0.0
    for _ in range(10):
        ts = TangentField.from_potentials(V=random_band_limited(rng, 12, 2.5), L=16, flavor="curl")
        worst_s = max(worst_s, calderon_residual("curl", ts, sphere16, 16))
        ts2 = TangentField.from_potentials(X=random_band_limited(rng, 12, 2.5), L=16, flavor="div")
        worst_s = max(worst_s, calderon_residual("grad", ts2, sphere16, 16))
        tp = TangentField.from_potentials(V=random_band_limited(rng, 9, 2.5), L=12, flavor="curl")
        worst_p = max(worst_p, calderon_residual("curl", tp, pert12, 12))
        tp2 = TangentField.from_potentials(X=random_band_limited(rng, 9, 2.5), L=12, flavor="div")
        worst_p = max(worst_p, calderon_residual("grad", tp2, pert12, 12))
    ok = worst_s <= 1e-9 and worst_p <= 1e-5
    _report(
        "criterion 2 (commutation identities)",
        ok,
        f"sphere {worst_s:.2e} <= 1e-9, perturbed {worst_p:.2e} <= 1e-5",
    )


def test_criterion_03_symmetrization(pert12):
    """Weighted self-adjointness <= 1e-5; identity weight exceeds 1e-3."""
    r_curl = self_adjointness_residual("M_curl", pert12, 12)
    r_grad = self_adjointness_residual("Mstar_grad", pert12, 12)
    r_id = self_adjointness_residual("M_curl", pert12, 12, "identity")
    ok = r_curl <= 1e-5 and r_grad <= 1e-5 and r_id > 1e-3
    _report(
        "criterion 3 (symmetrization)",
        ok,
        f"curl {r_curl:.2e}, grad {r_grad:.2e} <= 1e-5; identity gram {r_id:.2e} > 1e-3",
    )


def test_criterion_04_kernel_characterizations(pert12):
    """N annihilates gradients and Q annihilates curls, residual <= 1e-8."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        X = random_band_limited(rng, 9)
        g = TangentField.from_potentials(X=X, L=12, flavor="curl")
        out = apply_N(g, pert12, 12)
        worst = max(
            worst,
            float(np.max(np.abs(out.V.coeffs)) / max(np.max(np.abs(X.coeffs)), 1e-300)),
        )
        V = random_band_limited(rng, 9)
        f = TangentField.from_potentials(V=V, L=12, flavor="div")
        outq = apply_Q(f, pert12, 12)
        worst = max(
            worst,
            float(np.max(np.abs(outq.X.coeffs)) / max(np.max(np.abs(V.coeffs)), 1e-300)),
        )
    ok = worst <= 1e-8
    _report("criterion 4 (kernel characterizations)", ok, f"max residual {worst:.2e} <= 1e-8")


def test_criterion_05_spectrum_identity(sphere16, pert12):
    """Curl-subspace spectrum equals the scalar spectrum minus 1/2, per element."""
    worst = 0.0
    for grid, L in ((sphere16, 16), (pert12, 12)):
        nps = np_spectrum(grid, L)
        lam = np.sort(nps.eigenvalues)[::-1]
        i_half = int(np.argmin(np.abs(lam - 0.5)))
        lam_minus = np.delete(lam, i_half)
        lam_ind = subspace_spectrum(grid, L, "M_curl")
        worst = max(worst, float(np.max(np.abs(np.sort(lam_minus) - np.sort(lam_ind)))))
    ok = worst <= 1e-7
    _report("criterion 5 (spectrum identity)", ok, f"max per-element deviation {worst:.2e} <= 1e-7")


def test_criterion_06_mie_oracle(sphere16):
    """All 8 closed-form layer-potential actions match quadrature <= 1e-6."""
    worst = 0.0
    for l in (1, 2):
        for n in range(1, 6):
            for which in ("curlS", "curlcurlS"):
                for rfac in (2.0, 0.5):
                    mode = SphereMode(l, n, min(1, n), 1.0)
                    x = rfac * PROBE
                    num = offboundary_eval(
                        mode_tangent_field(mode, 12), 1.0, x, which + "_vec", sphere16
                    )
                    ex = exact_sphere_potential(mode, 1.0, x, which)
                    worst = max(
                        worst, float(np.max(np.abs(num - ex)) / np.max(np.abs(ex)))
                    )
    ok = worst <= 1e-6
    _report("criterion 6 (oracle equivalence)", ok, f"8 formulas, n<=5: worst rel {worst:.2e} <= 1e-6")


def test_criterion_07_resonance_values():
    """Contrast values n/(n+1) and (n+1)/n exactly, in rational arithmetic."""
    ok = True
    for n in range(1, 11):
        ok &= resonance_tau(Fraction(1, 2 * (2 * n + 1))) == Fraction(n, n + 1)
        ok &= resonance_tau(Fraction(-1, 2 * (2 * n + 1))) == Fraction(n + 1, n)
    ok &= resonance_tau(Fraction(1, 6)) == Fraction(1, 2)
    ok &= resonance_tau(Fraction(-1, 6)) == Fraction(2, 1)
    _report("criterion 7 (resonance contrasts)", bool(ok), "exact rationals for n <= 10")


def test_criterion_08_sphere_localization():
    """log-field decay affine in the degree with slope log(1/2) +- 10%."""
    ns = np.arange(8, 15)
    ext, inte = [], []
    for n in ns:
        mode = PlasmonMode.from_sphere(2, int(n), 0, 1.0, omega=1.0)
        ext.append(np.linalg.norm(plasmon_field(mode, 2.0 * PROBE, None)[0]))
        inte.append(np.linalg.norm(plasmon_field(mode, 0.5 * PROBE, None)[0]))
    s_ext = np.polyfit(ns, np.log(ext), 1)[0]
    s_int = np.polyfit(ns, np.log(inte), 1)[0]
    tgt = np.log(0.5)
    ok = abs(s_ext - tgt) <= 0.1 * abs(tgt) and abs(s_int - tgt) <= 0.1 * abs(tgt)
    _report(
        "criterion 8 (sphere localization)",
        ok,
        f"slopes ext {s_ext:.4f}, int {s_int:.4f} vs log(1/2)={tgt:.4f} (+-10%)",
    )


def test_criterion_09_general_localization(pert12):
    """Partial sums plateau and the exceedance verdict is positive, < 5 min."""
    t0 = time.monotonic()
    curl, _ = mnp_spectra(pert12, 12)
    modes = [PlasmonMode.from_eigenmode(j, curl, omega=1.0) for j in range(len(curl))]
    points = np.vstack([fibonacci_shell(40, 3.0), fibonacci_shell(10, 0.25)])
    report = localization_scan(modes, points, 0.5, pert12)
    elapsed = time.monotonic() - t0
    ok = (
        report.plateau
        and report.plateau_fraction <= 0.05
        and report.statistic["verdict"]
        and elapsed < 300.0
    )
    _report(
        "criterion 9 (general-surface localization)",
        ok,
        f"plateau growth {report.plateau_fraction:.2e} <= 5%, verdict "
        f"{report.statistic['verdict']}, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_10_weak_resonance_indicator(sphere10):
    """Indicator decays with slope >= 1 at resonance; detuned bounded below."""
    deltas = np.array([0.1, 0.05, 0.025])
    candidate = mode_tangent_field(SphereMode(2, 1, 0), 10)
    vals = []
    for delta in deltas:
        mats = MaterialConfig.negative_preset(0.5, 1.0, float(delta))
        system = assemble_system(sphere10, mats, 2)
        vals.append(weak_resonance_indicator(system, candidate))
    slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
    mats = MaterialConfig.negative_preset(0.6, 1.0, 0.025)
    system = assemble_system(sphere10, mats, 2)
    detuned = weak_resonance_indicator(system, candidate)
    gap = abs(resonance_shift(0.6) - 1.0 / 6.0)
    ok = slope >= 1.0 and detuned >= 0.9 * gap
    _report(
        "criterion 10 (weak-resonance indicator)",
        ok,
        f"log-log slope {slope:.3f} >= 1; detuned {detuned:.3e} >= 0.9*gap={0.9*gap:.3e}",
    )


def test_criterion_11_scattering_amplification(sphere10):
    """Solution norm scales as the inverse spectral gap within 20%."""
    src = np.array([0.0, 0.0, 6.0])
    p = np.array([1.0, 0.5, 0.0])
    products = []
    for eta in (1e-1, 1e-2, 1e-3):
        mats = MaterialConfig.negative_preset(0.5 + eta, 1.0, 0.02)
        system = assemble_system(sphere10, mats, 0)
        rhs = dipole_incident_trace(src, p, mats, sphere10)
        sol, _ = solve_scatter(system, rhs)
        gap = abs(resonance_shift(0.5 + eta) - 1.0 / 6.0)
        products.append(pair_norm(sol[0], sol[1], sphere10) * gap)
    spread = max(products) / min(products)
    ok = spread <= 1.2
    _report(
        "criterion 11 (scattering amplification)",
        ok,
        f"norm*gap spread {spread:.3f} <= 1.20 over eta in {{1e-1,1e-2,1e-3}}",
    )


def test_criterion_12_jump_relations(sphere16):
    """Extrapolated one-sided normal derivatives of the single layer."""
    from mnpspr.sphharm import cartesian_to_angles

    ts = np.array([0.1, 0.05, 0.025, 0.0125])
    xhat = PROBE
    th, ph, _ = cartesian_to_angles(xhat)
    worst = 0.0
    for n in range(0, 4):
        dens = ShCoeffs.unit(n, 0, L=8)
        y = sphere16.values_at([dens], {"theta": th, "phi": ph})[0, 0]
        lam = 1.0 / (2.0 * (2.0 * n + 1.0))
        vp, vm = [], []
        for t in ts:
            gp = offboundary_eval(dens, 0.0, (1 + t) * xhat, "gradS", sphere16)
            gm = offboundary_eval(dens, 0.0, (1 - t) * xhat, "gradS", sphere16)
            vp.append(np.dot(gp, xhat))
            vm.append(np.dot(gm, xhat))
        ext = np.polyval(np.polyfit(ts, vp, 3), 0.0)
        inn = np.polyval(np.polyfit(ts, vm, 3), 0.0)
        worst = max(
            worst,
            float(abs(ext - (0.5 + lam) * y) / max(abs(y), 1.0)),
            float(abs(inn - (-0.5 + lam) * y) / max(abs(y), 1.0)),
        )
    ok = worst <= 1e-4
    _report("criterion 12 (jump relations)", ok, f"worst extrapolation error {worst:.2e} <= 1e-4")
