"""Symmetrized eigensolves and identity verification for boundary operators.

The scalar adjoint double layer K* is self-adjoint in the inner product
-int u S[v]; the magnetic operator restricted to the curl subspace and its
adjoint on the gradient subspace are self-adjoint in the inverse-symmetrizer
products, which in potential form are the quotient forms

    <a, b>  =  -<pot_a, S^{-1} pot_b>      (constants projected out).

All eigensolves are generalized Hermitian solves against the positive
definite Gram, reduced by its Cholesky factor B = L L^H to the standard
Hermitian problem of L^{-1} A L^{-H}, which is the symmetrized operator
written out.  Eigenvalues are real by construction, and the departure of
the unsymmetrized matrix from Hermitian is reported as a diagnostic
residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .potentials import AssemblyAccuracyError, FlavorError, RegularizationError, scalar_operators
from .sphharm import num_coeffs, sh_degrees
from .surface import ShCoeffs, SurfaceGrid, TangentField

log = logging.getLogger(__name__)

HALF_EXCLUSION_TOL = 1e-8
CLUSTER_TOL = 1e-6


def eigenvalue_clusters(lam):
    """Cluster id of each entry of a sorted eigenvalue list.

    A new cluster starts wherever two neighbours differ by more than CLUSTER_TOL.
    """
    lam = np.asarray(lam)
    ids = np.zeros(lam.size, dtype=int)
    ids[1:] = np.cumsum(np.abs(np.diff(lam)) > CLUSTER_TOL)
    return ids


@dataclass
class SpectralSet:
    """Ordered eigenpairs of a symmetrized boundary operator.

    vectors holds one coefficient column per mode: densities theta_j for the
    scalar operator, scalar potentials of the eigenfields otherwise.
    """

    operator: str
    eigenvalues: np.ndarray
    vectors: np.ndarray
    gram: str
    L: int
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.eigenvalues.size

    def clusters(self):
        """Multiplicity clusters of the (sorted) eigenvalue list."""
        return eigenvalue_clusters(self.eigenvalues)

    def to_json_dict(self):
        n, m = sh_degrees(self.L)
        modes = []
        for j in range(len(self)):
            col = self.vectors[:, j]
            modes.append(
                [
                    [int(nn), int(mm), float(c.real), float(c.imag)]
                    for nn, mm, c in zip(n, m, col)
                ]
            )
        return {
            "operator": self.operator,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "gram": self.gram,
            "potentials": modes,
        }

    def eigenvalue_table(self):
        """Rows (j, lambda, multiplicity_cluster) for CSV export."""
        ids = self.clusters()
        counts = np.bincount(ids)
        return [
            (j, float(self.eigenvalues[j]), int(counts[ids[j]]))
            for j in range(len(self))
        ]


def _hermitize(A):
    return 0.5 * (A + A.conj().T)


def _eigh_pencil(A, B, what):
    """Eigenpairs of the Hermitian pencil (A, B), eigenvalues ascending.

    B = L L^H by Cholesky; the eigenvectors y of L^{-1} A L^{-H} map back
    to x = L^{-H} y, orthonormal in B.  A B that is not positive definite
    raises AssemblyAccuracyError naming `what`.
    """
    try:
        chol = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise AssemblyAccuracyError(f"{what} is not positive definite") from None
    half = np.linalg.solve(chol, A)  # L^{-1} A
    lam, y = np.linalg.eigh(_hermitize(np.linalg.solve(chol, half.conj().T)))
    return lam, np.linalg.solve(chol.conj().T, y)


def np_spectrum(grid: SurfaceGrid, L: int) -> SpectralSet:
    """Symmetrized spectrum of the scalar adjoint double layer at degree L.

    Generalized Hermitian eigensolve of the grid's own `scalar_operators`
    with Gram -S; eigenvectors are orthonormal in that Gram and eigenvalues
    lie in (-1/2, 1/2].  Solved once per grid and degree; the returned
    set's arrays are read-only.
    """

    def build():
        ops = scalar_operators(grid, L)
        GS = ops["S"].pairing
        A = -GS @ ops["Kstar"].entries
        sym_res = np.linalg.norm(A - A.conj().T) / np.linalg.norm(A)
        mu, theta = _eigh_pencil(_hermitize(A), _hermitize(-GS), "negative single layer")
        order = np.argsort(-np.abs(mu))
        mu, theta = mu[order], theta[:, order]
        mu.flags.writeable = theta.flags.writeable = False
        return SpectralSet("Kstar", mu, theta, "inner_S", L, {"sym_residual": float(sym_res)})

    return grid.cached(("np", L), build)


# --------------------------------------------------------------------------
# Gram forms
# --------------------------------------------------------------------------


def quotient_gram_matrix(grid: SurfaceGrid, L: int):
    """Positive matrix of -<pot, S^{-1} pot> on mean-free coefficients.

    With G = W GS^{-1} W the pairing matrix of S^{-1} (W the mass matrix,
    S the grid's own `scalar_operators` at degree L), the form on
    potentials with the constant projected out is the Schur complement of
    slot 0, G[1:, 0] G[0, 1:] / G[0, 0] - G[1:, 1:].  Built once per grid
    and degree and returned as one read-only array.
    """

    def build():
        nc = num_coeffs(L)
        W = grid.mass_matrix()[:nc, :nc]
        GS = _hermitize(scalar_operators(grid, L)["S"].pairing)
        cond = np.linalg.cond(GS)
        if cond > 1e12:
            raise RegularizationError(
                f"single layer too ill-conditioned for inversion: cond={cond:.2e}"
            )
        G = W @ np.linalg.solve(GS, W)
        Ghat = _hermitize(np.outer(G[1:, 0], G[0, 1:]) / G[0, 0] - G[1:, 1:])
        Ghat.flags.writeable = False
        return Ghat

    return grid.cached(("gram", L), build)


# --------------------------------------------------------------------------
# magnetic spectra
# --------------------------------------------------------------------------


def mnp_spectra(grid: SurfaceGrid, L: int):
    """Eigen-sets of the magnetic operator on its two Helmholtz subspaces.

    Curl subspace: eigenvalue mu_j of `np_spectrum(grid, L)` with eigenfield
    potential S[theta_j] (the mode at 1/2 is excluded: its potential is
    constant and the curl vanishes).  Gradient subspace: eigenvalue -mu_j
    with the same potential.  Potentials are stored mean-free, normalized
    in the quotient grams.
    """
    np_set = np_spectrum(grid, L)
    keep = np.abs(np_set.eigenvalues - 0.5) > HALF_EXCLUSION_TOL
    dropped = np.count_nonzero(~keep)
    if dropped != 1:
        log.warning("excluded %d eigenvalue(s) at 1/2 from the curl subspace", dropped)
    mu = np_set.eigenvalues[keep]
    theta = np_set.vectors[:, keep]
    pots = scalar_operators(grid, L)["S"].entries @ theta
    pots[0, :] = 0.0
    G1 = quotient_gram_matrix(grid, L)
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", pots[1:].conj(), G1 @ pots[1:]).real, 1e-300))
    pots = pots / norms[None, :]
    curl = SpectralSet(
        "M_curl", mu, pots, "curl_Ninv", L,
        {"excluded_half": int(dropped)},
    )
    order = np.argsort(-np.abs(-mu))
    grad = SpectralSet(
        "Mstar_grad", -mu[order], pots[:, order], "grad_Qinv", L,
        {"excluded_half": int(dropped)},
    )
    return curl, grad


def _subspace_operator(op, grid: SurfaceGrid, L: int):
    """Quotient potential map of a restricted magnetic operator, and its Gram.

    Returns (A, G): the mean-free block of the grid's K coefficient matrix
    at degree L for M_curl, or of -K for Mstar_grad, and the positive Gram
    in which it is self-adjoint.
    """
    if op not in ("M_curl", "Mstar_grad"):
        raise ValueError(f"unknown operator {op!r}")
    A = scalar_operators(grid, L)["K"].entries[1:, 1:]
    return (A if op == "M_curl" else -A), quotient_gram_matrix(grid, L)


def subspace_spectrum(grid: SurfaceGrid, L: int, which="M_curl"):
    """Independent symmetrized eigensolve of the restricted magnetic maps."""
    A, G = _subspace_operator(which, grid, L)
    lam, _ = _eigh_pencil(_hermitize(G @ A), G, "quotient Gram")
    return lam[::-1]


def self_adjointness_residual(op: str, grid: SurfaceGrid, L: int, gram_weight="natural"):
    """|| G A - A^H G || / || G A || for the restricted magnetic operators."""
    A, G = _subspace_operator(op, grid, L)
    if gram_weight == "identity":
        G = np.eye(A.shape[0])
    GA = G @ A
    return float(np.linalg.norm(GA - GA.conj().T) / np.linalg.norm(GA))


# --------------------------------------------------------------------------
# trace norms and identity residuals
# --------------------------------------------------------------------------


def sobolev_coeff_norm(coeffs: np.ndarray, L: int):
    """H^{-1/2} norm of a coefficient vector of degree L."""
    n, _ = sh_degrees(L)
    w = (1.0 + n * (n + 1.0)) ** -0.5
    return float(np.sqrt(np.sum(w * np.abs(coeffs) ** 2)))


def trace_norm(fld: TangentField, grid: SurfaceGrid):
    """Discrete div/curl trace norm: field H^{-1/2} plus scalar part H^{-1/2}.

    The vector part is measured component-wise through the parameter basis;
    the scalar part is div f (div flavor) or the scalar curl (curl flavor).
    """
    vals = grid.tangent_values(fld)
    L = grid.L_quad
    comp = sum(
        sobolev_coeff_norm(grid.analysis(vals[:, c], L).coeffs, L) ** 2
        for c in range(3)
    )
    D = grid.laplace_matrix(max(fld.X.L, fld.V.L))
    if fld.flavor == "div":
        scal = D @ fld.X.coeffs
    else:
        scal = -(D @ fld.V.coeffs)
    return float(np.sqrt(comp) + sobolev_coeff_norm(scal, max(fld.X.L, fld.V.L)))


def calderon_residual(which: str, test: TangentField, grid: SurfaceGrid, L: int):
    """Relative residual of the symmetrizer commutation identities.

    which='curl': (N M* - M N) on a curl-flavor field; which='grad':
    (M* Q - Q M) on a div-flavor field.  Both reduce through the scalar
    layer to (S K* - K S) applied to the Laplacian of the potential, which
    is what the grid's assembled matrices at degree L are tested on here.
    """
    flavor = {"curl": "curl", "grad": "div"}.get(which)
    if flavor is None:
        raise ValueError(f"unknown identity {which!r}")
    if test.flavor != flavor:
        raise FlavorError(f"{which} identity needs a {flavor}-flavor test field")
    pot = "V" if flavor == "curl" else "X"
    ops = scalar_operators(grid, L)
    S, K, Kstar = ops["S"], ops["K"], ops["Kstar"]
    base = grid.laplace_matrix(L) @ getattr(test, pot).padded(L)
    diff = S.entries @ (Kstar.entries @ base) - K.entries @ (S.entries @ base)
    fld = TangentField.from_potentials(**{pot: ShCoeffs(L, diff)}, L=L, flavor=flavor)
    return trace_norm(fld, grid) / trace_norm(test, grid)


def scalar_calderon_residual(ops):
    """|| K S - S K* || / || K S || on the assembled coefficient matrices."""
    S, K, Kstar = ops["S"].entries, ops["K"].entries, ops["Kstar"].entries
    KS = K @ S
    return float(np.linalg.norm(KS - S @ Kstar) / np.linalg.norm(KS))


# --------------------------------------------------------------------------
# expansion in eigenfields (completeness helper)
# --------------------------------------------------------------------------


def curl_field_expansion(g: TangentField, grid: SurfaceGrid, L: int, J=None):
    """Expand a curl-flavor field over the inverse-symmetrizer eigenfields.

    The eigenfields are those of `mnp_spectra(grid, L)` on the curl
    subspace.  The coefficients are the surface pairings of g with them,
    pot_j^H K_stiff pot_g.  The dual family has mean-free potentials
    K_stiff^{-1} Ghat pot_j, with Ghat the quotient Gram: the eigenfield
    potentials are Ghat-orthonormal and span the mean-free slots, so the
    expansion is exact at full order on every band-limited field.
    Returns (coefficients, reconstructed potential V at truncation J).
    """
    nc = num_coeffs(L)
    K_st = grid.stiffness_matrix()[:nc, :nc]
    pots = mnp_spectra(grid, L)[0].vectors
    coeffs = pots.conj().T @ (K_st @ g.V.padded(L))
    U = np.zeros_like(pots)
    U[1:] = np.linalg.solve(K_st[1:, 1:], quotient_gram_matrix(grid, L) @ pots[1:])
    J = pots.shape[1] if J is None else J
    return coeffs, U[:, :J] @ coeffs[:J]
