import numpy as np
import pytest

from mnpspr.potentials import scalar_operators
from mnpspr.spectral import mnp_spectra, np_spectrum
from mnpspr.sphharm import fibonacci_shell  # noqa: F401  (shared by the test modules)
from mnpspr.surface import perturbed_sphere, sphere_surface


@pytest.fixture(scope="session")
def sphere16():
    return sphere_surface(1.0, 16)


@pytest.fixture(scope="session")
def sphere16_ops(sphere16):
    return scalar_operators(sphere16, 16)


@pytest.fixture(scope="session")
def sphere10():
    return sphere_surface(1.0, 10)


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
def rng():
    return np.random.default_rng(1234)


def fd_curl(F, x, h=1e-3):
    """Finite-difference curl of a vector field callable."""
    out = np.zeros(3, dtype=complex)
    for c in range(3):
        e = np.zeros(3)
        e[c] = h
        out += np.cross(np.eye(3)[c], (F(x + e) - F(x - e)) / (2.0 * h))
    return out
