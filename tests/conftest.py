import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mnpspr.potentials import scalar_operators
from mnpspr.spectral import mnp_spectra, np_spectrum
from mnpspr.sphharm import fibonacci_shell  # noqa: F401  (shared by the test modules)
from mnpspr.sphharm import ynm_matrix
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
def pert12_spectra(pert12, pert12_ops):
    nps = np_spectrum(pert12_ops["S"], pert12_ops["Kstar"])
    curl, grad = mnp_spectra(nps, pert12_ops["S"], pert12)
    return nps, curl, grad


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


def full_matrix(system):
    """The full matrix [[P, Q], [Q, P]] of a scattering `BlockSystem`; the solver never forms it."""
    return np.block([[system.same, system.cross], [system.cross, system.same]])


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
