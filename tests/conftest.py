import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mnpspr.potentials import scalar_operators, slot_blocks, tangent_mass_stack
from mnpspr.spectral import mnp_spectra, np_spectrum
from mnpspr.sphharm import fibonacci_shell  # noqa: F401  (shared by the test modules)
from mnpspr.sphharm import num_coeffs, unit_vectors, ynm_matrix
from mnpspr.surface import build_surface, perturbed_sphere, radius_from_json, sphere_surface

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def workload_config():
    """Seed-0 CLI config of a benchmark workload, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return lambda name: module.make_config(name, 0)


@pytest.fixture(scope="session")
def workload_grid(workload_config):
    """Builds the surface grid of a workload's seed-0 config; returns (grid, L)."""

    def build(name):
        cfg = workload_config(name)
        return build_surface(radius_from_json(cfg["surface"]), cfg["surface"]["L_quad"]), cfg["L"]

    return build


@pytest.fixture(scope="session")
def per_target():
    """Calls a grid builder and clears the built grid's surface-of-revolution flag.

    Its rings then evaluate one patch per target, the geometry of a general
    surface, instead of one shared patch turned about z.
    """
    with pytest.MonkeyPatch.context() as mp:

        def build(make, *args):
            grid = make(*args)
            mp.setattr(grid, "axisymmetric", False)
            return grid

        yield build


@pytest.fixture(scope="session")
def sphere16():
    return sphere_surface(1.0, 16)


@pytest.fixture(scope="session")
def sphere16_ops(sphere16):
    return scalar_operators(sphere16, 16)


@pytest.fixture(scope="session")
def sphere16_geometries(sphere16, per_target):
    """The unit sphere at L_quad = 16 on the shared and on the per-target ring geometry."""
    return {"shared": sphere16, "per-target": per_target(sphere_surface, 1.0, 16)}


@pytest.fixture(scope="session")
def sphere10():
    return sphere_surface(1.0, 10)


@pytest.fixture(scope="session")
def sphere10_geometries(sphere10, per_target):
    """The unit sphere at L_quad = 10 on the shared and on the per-target ring geometry."""
    return {"shared": sphere10, "per-target": per_target(sphere_surface, 1.0, 10)}


@pytest.fixture(scope="session")
def sphere10_ops(sphere10):
    return scalar_operators(sphere10, 10)


@pytest.fixture(scope="session")
def pert12():
    """The standard non-sphere surface rho = 1 + 0.05 Re Y_2^0 at L = 12."""
    return perturbed_sphere(0.05, 2, 0, 12)


@pytest.fixture(scope="session")
def pert12_ops(pert12):
    return scalar_operators(pert12, 12)


@pytest.fixture(scope="session")
def pert12_spectra(pert12):
    return (np_spectrum(pert12, 12), *mnp_spectra(pert12, 12))


@pytest.fixture()
def near_polar_40(monkeypatch):
    """The near rule at polar order 40 instead of NEAR_POLAR, for speed.

    Its floor, one polar step, is then pi max(rho) / 40: 0.079 on the unit sphere.
    """
    import mnpspr.potentials as potentials

    monkeypatch.setattr(potentials, "NEAR_POLAR", 40)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def basis_arrays(grid):
    """Node values of grad Y_j and vcurl Y_j for every basis function, (N, NC, 3) each.

    Y_theta vec_theta + (Y_phi / sin) vec_phi of the frame pairs (alpha,
    sin_beta) and (alpha_c, sin_beta_c): the dense basis fields the library
    no longer builds, kept here as the oracle of its frame contractions.
    The derivative matrices come from a dense `ynm_matrix` at the nodes,
    not from the grid's per-ring factors.
    """
    alpha, sin_beta, alpha_c, sin_beta_c = grid.tangent_frame
    _, Yt, Yp = ynm_matrix(grid.thetas, grid.phis, grid.L_quad, derivatives=True)

    def fields(vec_theta, vec_phi):
        return Yt[:, :, None] * vec_theta[:, None] + Yp[:, :, None] * vec_phi[:, None]

    return fields(alpha, sin_beta), fields(alpha_c, sin_beta_c)


def vector_sph_matrix(theta, phi, L):
    """All tangential vector harmonics at the given points, the oracle of the sphere modes.

    phi_1 = grad_S Y_n^m / sqrt(n(n+1)) and phi_2 = xhat x phi_1 for every
    slot up to degree L.  Returns (phi1, phi2), each (P, (L+1)^2, 3)
    complex; degree-0 slots are 0.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    Y, Yt, Yp = ynm_matrix(theta, phi, L, derivatives=True)
    rhat, that, phat = unit_vectors(theta, phi)
    n = np.concatenate([np.full(2 * k + 1, k) for k in range(L + 1)])
    scale = np.zeros(num_coeffs(L))
    scale[1:] = 1.0 / np.sqrt(n[1:] * (n[1:] + 1.0))
    a = Yt * scale[None, :]
    b = Yp * scale[None, :]
    phi1 = a[:, :, None] * that[:, None, :] + b[:, :, None] * phat[:, None, :]
    # xhat x theta-hat = phi-hat, xhat x phi-hat = -theta-hat
    phi2 = a[:, :, None] * phat[:, None, :] - b[:, :, None] * that[:, None, :]
    return phi1, phi2


def dense(blocks, partition):
    """The dense matrix holding `blocks` on the slots of `partition`, zero elsewhere.

    blocks[b] is the matrix on the slots partition[b] (`potentials.slot_blocks`).
    """
    n = sum(len(b) for b in partition)
    out = np.zeros((n, n), dtype=complex)
    for block, b in zip(blocks, partition):
        out[np.ix_(b, b)] = block
    return out


def correction_pairing(grid, L, blocks):
    """The dense Galerkin pairing of a correction kernel held as per-block matrices.

    Each block's pairing is its slice of the stacked Gram times its matrix,
    tangent_mass_stack(grid, L, b) @ a; the library does not keep it.
    """
    partition = slot_blocks(grid, L)
    pairings = [tangent_mass_stack(grid, L, b) @ a for a, b in zip(blocks, partition)]
    return dense(pairings, partition)


def full_matrix(system):
    """The full matrix [[P, Q], [Q, P]] of a scattering `BlockSystem`; the solver never forms it."""
    P, Q = (dense(x, system.blocks) for x in (system.same, system.cross))
    return np.block([[P, Q], [Q, P]])


def max_rel(got, ref):
    """Largest entry error over the reference's largest entry."""
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def tangent_field(grid, rng):
    """A random complex tangential node field."""
    f = rng.standard_normal((grid.n_nodes, 3)) + 1j * rng.standard_normal((grid.n_nodes, 3))
    return f - np.einsum("pc,pc->p", f, grid.normals)[:, None] * grid.normals


def traced_peak_mb(fn):
    """Peak traced allocation, in MB, while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def arrays_in(value):
    """Every numpy array reachable from value through dicts, lists, tuples and objects."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from arrays_in(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from arrays_in(v)
    elif hasattr(value, "__dict__"):
        yield from arrays_in(vars(value))


def fd_curl(F, x, h=1e-3):
    """Finite-difference curl of a vector field callable."""
    out = np.zeros(3, dtype=complex)
    for c in range(3):
        e = np.zeros(3)
        e[c] = h
        out += np.cross(np.eye(3)[c], (F(x + e) - F(x - e)) / (2.0 * h))
    return out
