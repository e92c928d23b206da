"""Boundary integral operators on star-shaped surfaces.

Scalar layer: the single-layer operator S, the double-layer operator K and
its adjoint K* are assembled as mass-normalized Galerkin matrices in the
harmonic coefficient basis via rotated polar quadrature.  The magnetic
boundary operator and its adjoint are never discretized by singular vector
quadrature; their actions on the two Helmholtz subspaces reduce to scalar
operators:

    M[vcurl V]  has potential  K[V]        (curl subspace),
    M*[grad X]  has potential  -K[X]       (gradient subspace),
    N[g] = vcurl S[curl_S g],   Q[f] = grad_S S[div_S f].

Off-boundary field evaluation and the smooth small-radius correction
operators are provided for the scattering layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import assemble_scalar_values, correction_polar_order, near_singular_eval, rings
from .sphharm import num_coeffs, ynm_matrix
from .surface import ShCoeffs, SurfaceGrid, TangentField, contravariant, tubular_distance


class KindError(ValueError):
    """Operator kind does not match the requested operation."""


class FlavorError(ValueError):
    """Tangential field lives in the wrong Helmholtz subspace."""


class NearBoundaryError(ValueError):
    """Off-boundary evaluation point violates the quadrature guard."""


class AssemblyAccuracyError(RuntimeError):
    """Assembled matrices fail a structural accuracy requirement."""


class RegularizationError(RuntimeError):
    """An inverse application is too ill-conditioned to trust."""


class ResonanceError(RuntimeError):
    """Linear system is singular at an exact resonance."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


SCALAR_KINDS = ("S", "K", "Kstar", "Sk")
VECTOR_KINDS = ("Mk2", "L1", "L2")


@dataclass
class OperatorMatrix:
    """Dense coefficient-space matrix of a boundary operator.

    entries maps coefficient vectors to coefficient vectors (the Galerkin
    pairing composed with the inverse mass matrix); pairing holds the raw
    L^2-surface Galerkin matrix used for Gram constructions.
    """

    kind: str
    L: int
    entries: np.ndarray
    pairing: np.ndarray
    grid_id: str
    meta: dict = field(default_factory=dict)

    def apply(self, coeffs: ShCoeffs) -> ShCoeffs:
        return ShCoeffs(self.L, self.entries @ coeffs.padded(self.L))

    def to_json_dict(self):
        rows = []
        for r in self.entries:
            flat = np.empty(2 * r.size)
            flat[0::2] = r.real
            flat[1::2] = r.imag
            rows.append([float(v) for v in flat])
        return {"kind": self.kind, "L": self.L, "rows": rows}


@dataclass
class MaterialConfig:
    """Exterior/interior material parameters and the size parameter."""

    eps_c: complex
    mu_c: complex
    omega: float = 1.0
    delta: float = 0.05
    eps_e: complex = 1.0
    mu_e: complex = 1.0

    @classmethod
    def negative_preset(cls, tau, omega=1.0, delta=0.05):
        """eps_e = mu_e = 1, eps_c = mu_c = -tau with tau > 0, tau != 1."""
        if tau <= 0 or tau == 1:
            raise ValueError("preset needs tau > 0 and tau != 1")
        return cls(eps_c=-tau, mu_c=-tau, omega=omega, delta=delta)

    @property
    def tau(self):
        return -complex(self.eps_c).real

    @property
    def k_e(self):
        return self.omega * np.sqrt(complex(self.eps_e * self.mu_e))

    @property
    def k_c(self):
        # for the negative preset eps_c*mu_c = tau^2; take the positive root
        return self.omega * np.sqrt(complex(self.eps_c * self.mu_c))

    def wavenumber(self, which: str):
        return {"e": self.k_e, "c": self.k_c}[which]

    def side(self, inside):
        """(mu, k) of the interior or exterior material; k real up to round-off."""
        mu, k = (self.mu_c, complex(self.k_c)) if inside else (self.mu_e, complex(self.k_e))
        return mu, (k.real if abs(k.imag) < 1e-14 else k)


# --------------------------------------------------------------------------
# scalar operator assembly (cached per grid)
# --------------------------------------------------------------------------


def grid_signature(grid: SurfaceGrid) -> str:
    import hashlib

    h = hashlib.sha1()
    h.update(grid.radius_coeffs.coeffs.tobytes())
    h.update(np.int64(grid.L_quad).tobytes())
    return h.hexdigest()[:16]


def _galerkin_operator(kind, grid: SurfaceGrid, values, L, meta=None):
    """Mass-normalized Galerkin matrix from node values (Op Y_j)(x_i)."""
    nc = num_coeffs(L)
    G = np.conj(grid.Y[:, :nc]).T @ (grid.area_weights[:, None] * values)
    W = grid.mass_matrix()[:nc, :nc]
    return OperatorMatrix(kind, L, np.linalg.solve(W, G), G, grid_signature(grid), meta or {})


def scalar_operators(grid: SurfaceGrid, L: int, n_polar=None):
    """The static scalar operators S, K, K* at degree L, built once per grid."""

    def build():
        if L > grid.L_quad:
            raise ValueError(f"operator degree {L} exceeds grid capacity")
        vals = assemble_scalar_values(grid, L, n_polar)
        ops = {kind: _galerkin_operator(kind, grid, vals[kind], L) for kind in ("S", "K", "Kstar")}
        _check_scalar_invariants(ops)
        return ops

    return grid.cached(("scalar", L, n_polar), build)


def _check_scalar_invariants(ops):
    GS = ops["S"].pairing
    herm = np.linalg.norm(GS - GS.conj().T) / np.linalg.norm(GS)
    if herm > 1e-8:
        raise AssemblyAccuracyError(f"single layer not symmetric: {herm:.2e}")
    mineig = np.linalg.eigvalsh(-0.5 * (GS + GS.conj().T))[0]
    if mineig <= 0:
        raise AssemblyAccuracyError("negative single layer lost definiteness")
    dual = np.linalg.norm(ops["K"].pairing - ops["Kstar"].pairing.conj().T)
    if dual / np.linalg.norm(ops["K"].pairing) > 1e-8:
        raise AssemblyAccuracyError("K / K* discrete duality violated")


def assemble_scalar(kind: str, grid: SurfaceGrid, L: int, k=None, n_polar=None):
    """Galerkin matrix of a scalar layer operator.

    kind in {S, K, Kstar} for the static kernels; 'Sk' gives the Helmholtz
    single layer at wavenumber k.
    """
    if kind not in SCALAR_KINDS:
        raise KindError(f"unknown scalar kind {kind!r}")
    if kind == "Sk":
        if k is None:
            raise ValueError("Sk needs a wavenumber")
        vals = assemble_scalar_values(grid, L, n_polar, k)["Sk"]
        return _galerkin_operator("Sk", grid, vals, L, {"k": complex(k)})
    return scalar_operators(grid, L, n_polar)[kind]


# --------------------------------------------------------------------------
# magnetic operator actions through the scalar reductions
# --------------------------------------------------------------------------


def _drop_mean(c: np.ndarray) -> np.ndarray:
    out = c.copy()
    out[0] = 0.0
    return out


def mnp_curl_apply(V: ShCoeffs, K_mat: OperatorMatrix) -> ShCoeffs:
    """Potential of the magnetic operator on the curl subspace: V -> K[V]."""
    if K_mat.kind != "K":
        raise KindError("curl-subspace action needs the K matrix")
    return ShCoeffs(K_mat.L, _drop_mean(K_mat.entries @ V.padded(K_mat.L)), True)


def mnp_grad_apply(X: ShCoeffs, K_mat: OperatorMatrix) -> ShCoeffs:
    """Potential of the adjoint operator on the gradient subspace: X -> -K[X]."""
    if K_mat.kind != "K":
        raise KindError("gradient-subspace action needs the K matrix")
    return ShCoeffs(K_mat.L, _drop_mean(-(K_mat.entries @ X.padded(K_mat.L))), True)


def apply_N(g: TangentField, S_mat: OperatorMatrix, grid: SurfaceGrid) -> TangentField:
    """vcurl S[curl_S g]; annihilates gradient fields, output is pure curl."""
    if g.flavor != "curl":
        raise FlavorError("N acts on curl-trace fields")
    D = grid.laplace_matrix(S_mat.L)
    pot = -(S_mat.entries @ (D @ g.V.padded(S_mat.L)))
    return TangentField(
        ShCoeffs.zeros(S_mat.L, True), ShCoeffs(S_mat.L, _drop_mean(pot), True), "curl"
    )


def apply_Q(f: TangentField, S_mat: OperatorMatrix, grid: SurfaceGrid) -> TangentField:
    """grad S[div_S f]; annihilates curl fields, output is pure gradient."""
    if f.flavor != "div":
        raise FlavorError("Q acts on div-trace fields")
    D = grid.laplace_matrix(S_mat.L)
    pot = S_mat.entries @ (D @ f.X.padded(S_mat.L))
    return TangentField(
        ShCoeffs(S_mat.L, _drop_mean(pot), True), ShCoeffs.zeros(S_mat.L, True), "div"
    )


# --------------------------------------------------------------------------
# off-boundary evaluation
# --------------------------------------------------------------------------


def helmholtz_point_kernels(k, rvec, want_hessian=False):
    """G(k; x, y) = -exp(ik|x-y|)/(4 pi |x-y|) and its x-derivatives.

    rvec = x - y with shape (..., 3).  Returns (G, gradG) or
    (G, gradG, hessG) with gradG shape (..., 3), hessG (..., 3, 3).
    """
    r = np.linalg.norm(rvec, axis=-1)
    eikr = np.exp(1j * k * r)
    g = -eikr / (4.0 * np.pi * r)
    gp = eikr * (1.0 - 1j * k * r) / (4.0 * np.pi * r**2)
    rhat = rvec / r[..., None]
    grad = gp[..., None] * rhat
    if not want_hessian:
        return g, grad
    gpp = eikr * (k**2 * r**2 + 2j * k * r - 2.0) / (4.0 * np.pi * r**3)
    outer = rhat[..., :, None] * rhat[..., None, :]
    eye = np.eye(3)
    hess = (gpp - gp / r)[..., None, None] * outer + (gp / r)[..., None, None] * eye
    return g, grad, hess


# points per node-rule block: bounds the (points x nodes x 3 x 3) kernel tensor
POINT_BLOCK = 32


def _layer_sum(k, rvec, which, wdens):
    """Layer potential `which` at P targets, summed over N sources.

    rvec = x - y, shape (P, N, 3).  wdens stacks J densities times the
    quadrature weights: (N, J) for the scalar kinds S and gradS, (N, 3, J)
    for curlS_vec and curlcurlS_vec.  Returns (P, J) for S, else (P, 3, J).
    The one home of the off-boundary kernels; node and near rules call it.
    """
    if which == "S":
        g, _ = helmholtz_point_kernels(k, rvec)
        return g @ wdens
    if which == "gradS":
        _, grad = helmholtz_point_kernels(k, rvec)
        return np.einsum("pnc,nj->pcj", grad, wdens, optimize=True)
    if which == "curlS_vec":
        # grad G x d as the matrix of the cross product with grad G
        _, grad = helmholtz_point_kernels(k, rvec)
        ker = np.cross(grad[..., None, :], np.eye(3)).swapaxes(-1, -2)
    elif which == "curlcurlS_vec":
        g, _, hess = helmholtz_point_kernels(k, rvec, want_hessian=True)
        ker = hess + (k**2 * g)[..., None, None] * np.eye(3)
    else:
        raise KindError(f"unknown evaluation kind {which!r}")
    return np.einsum("pncd,ndj->pcj", ker, wdens, optimize=True)


def _density_values(dens, grid: SurfaceGrid, patch=None):
    """Values of densities at the grid nodes, or at the points of a near-rule patch."""
    if patch is None:
        return [
            grid.tangent_values(d) if isinstance(d, TangentField)
            else grid.synthesis(d) if isinstance(d, ShCoeffs) else np.asarray(d)
            for d in dens
        ]
    if not all(isinstance(d, (ShCoeffs, TangentField)) for d in dens):
        raise TypeError("near evaluation needs a coefficient-space density")
    return grid.values_at(dens, patch)


def _weighted(values, w):
    """Densities stacked on a trailing axis, times the quadrature weights w (N,)."""
    v = np.stack(values, axis=-1)
    return v * w.reshape(w.shape + (1,) * (v.ndim - 1))


def offboundary_eval(density, k, x, which, grid: SurfaceGrid, quad="auto", n_polar=320):
    """Layer-potential evaluation at points off the boundary.

    which in {S, gradS} (scalar density) or {curlS_vec, curlcurlS_vec}
    (tangential density).  A list of densities shares one kernel
    evaluation; their results are stacked on a trailing axis.  quad='auto'
    uses the surface grid as quadrature, in blocks of POINT_BLOCK points,
    and refuses points closer than 3 x the node spacing; quad='near'
    switches to a polar rule concentrated under each evaluation point.
    """
    dens = density if isinstance(density, list) else [density]
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if quad == "auto":
        guard = 3.0 * grid.max_spacing
        for p in pts:
            d = tubular_distance(p, grid)
            if d <= guard:
                raise NearBoundaryError(
                    f"point at distance {d:.3g} inside quadrature guard "
                    f"{guard:.3g}; pass quad='near' for a refined rule"
                )
        wdens = _weighted(_density_values(dens, grid), grid.area_weights)
        out = np.concatenate([
            _layer_sum(k, pts[i : i + POINT_BLOCK, None, :] - grid.positions, which, wdens)
            for i in range(0, len(pts), POINT_BLOCK)
        ])
    elif quad == "near":

        def near(p):
            def integrand(patch, w):
                wd = _weighted(_density_values(dens, grid, patch), w)
                return _layer_sum(k, (p - patch["position"])[None], which, wd)[0]

            return near_singular_eval(grid, p, integrand, n_polar=n_polar)

        out = np.array([near(p) for p in pts])
    else:
        raise ValueError(f"unknown quad mode {quad!r}")
    out = out if isinstance(density, list) else out[..., 0]
    return out[0] if np.asarray(x).ndim == 1 else out


# --------------------------------------------------------------------------
# smooth correction operators for the scaled scattering system
# --------------------------------------------------------------------------


def tangent_mass_stack(grid: SurfaceGrid, L: int):
    """Gram of the stacked (grad, curl) potential basis, mean-free slots."""
    nc = num_coeffs(L)
    K = grid.stiffness_matrix()[:nc, :nc]
    d = nc - 1
    W = np.zeros((2 * d, 2 * d), dtype=complex)
    W[:d, :d] = K[1:, 1:]
    W[d:, d:] = K[1:, 1:]
    return W


def correction_unit_matrices(grid: SurfaceGrid, L: int):
    """Galerkin matrices of the correction kernels at unit scale, built once per grid.

    Returns dict kind -> OperatorMatrix on the stacked potential basis
    (gradient block first, curl block second, degree >= 1 slots), with unit
    material constants and the leading nu_x cross product applied:
      Mk2 : (1/(8 pi)) int [uhat (nu_x . phi) - phi (nu_x . uhat)]
      L1  : nu_x x int (1/2)[I/r + R R^T / r^3] phi
      L2  : nu_x x int (2/3) phi
    Each ring's kernel integrals are projected on the stacked test basis as
    soon as they are built, so the per-node integral tensors are never held
    whole.  The arrays are read-only: every material shares them.
    """

    def build():
        nc = num_coeffs(L)
        d = nc - 1
        # conjugated, area-weighted test fields, (n_nodes, 3, 2d)
        test = np.concatenate(
            [grid.grad_basis()[:, 1:nc].transpose(0, 2, 1),
             grid.curl_basis()[:, 1:nc].transpose(0, 2, 1)],
            axis=2,
        )
        np.conj(test, out=test)
        test *= grid.area_weights[:, None, None]
        # pairings of the three kernels side by side, in VECTOR_KINDS order
        G = np.zeros((2 * d, 3 * 2 * d), dtype=complex)
        for ring in rings(grid, L, correction_polar_order(L)):
            _, Yth, Yp = ynm_matrix(ring.theta, ring.phi, L, derivatives=True)
            Yph = Yp * np.sin(ring.theta)[:, None]  # plain d/dphi
            # grad Y_j = (dY_j/dtheta) alpha + (dY_j/dphi) beta at each point;
            # the curl basis -nu x grad has the same weights on rotated vectors
            alpha, beta = contravariant(ring.frame)
            alpha_c = -np.cross(ring.frame["normal"], alpha)
            beta_c = -np.cross(ring.frame["normal"], beta)
            rvec, r, wjac = ring.rvec, ring.r, ring.wjac
            nphi, q = r.shape
            uhat = rvec / r[..., None]
            nu_x = grid.normals[ring.nodes]

            # the triple-product form of Mk2 already carries nu_x
            def mk2_apply(vec):
                nu_dot_phi = np.einsum("tj,tqj->tq", nu_x, vec)
                nu_dot_u = np.einsum("tj,tqj->tq", nu_x, uhat)
                return (uhat * nu_dot_phi[..., None] - vec * nu_dot_u[..., None]) / (8.0 * np.pi)

            def l1_apply(vec):
                rr_phi = np.einsum("tqj,tqj->tq", rvec, vec)
                return 0.5 * (vec / r[..., None] + rvec * (rr_phi / r**3)[..., None])

            def l2_apply(vec):
                return (2.0 / 3.0) * vec

            def contract(fn, vec_a, vec_b):
                A = (fn(vec_a) * wjac[..., None]).transpose(0, 2, 1).reshape(nphi * 3, q)
                B = (fn(vec_b) * wjac[..., None]).transpose(0, 2, 1).reshape(nphi * 3, q)
                rows = (A @ Yth + B @ Yph).reshape(nphi, 3, nc) * ring.phase[:, None, :]
                return rows[:, :, 1:]  # (nphi, 3, d)

            kernels = {"Mk2": (mk2_apply, False), "L1": (l1_apply, True), "L2": (l2_apply, True)}
            blocks = []
            for kind in VECTOR_KINDS:
                fn, cross = kernels[kind]
                vals = np.concatenate(
                    [contract(fn, alpha, beta), contract(fn, alpha_c, beta_c)], axis=2
                )
                if cross:
                    vals = np.cross(nu_x[:, :, None], vals, axisa=1, axisb=1, axisc=1)
                blocks.append(vals.reshape(nphi * 3, 2 * d))
            G += test[ring.nodes].reshape(nphi * 3, 2 * d).T @ np.hstack(blocks)
        entries = np.linalg.solve(tangent_mass_stack(grid, L), G)
        entries.flags.writeable = False
        G.flags.writeable = False
        sig = grid_signature(grid)
        cols = [slice(2 * d * i, 2 * d * (i + 1)) for i in range(len(VECTOR_KINDS))]
        return {
            kind: OperatorMatrix(kind, L, entries[:, c], G[:, c], sig)
            for kind, c in zip(VECTOR_KINDS, cols)
        }

    return grid.cached(("corrections", L), build)


def assemble_correction(
    kind: str, grid: SurfaceGrid, materials: MaterialConfig, L: int, wavenumber="e"
):
    """Correction-operator Galerkin matrix on the stacked potential basis.

    Mk2 carries the factor k^2 of the chosen wavenumber; L1/L2 carry the
    material constants C_j = i^j (k_c^{j+1} - k_e^{j+1}) / (4 pi omega (j-1)!).
    The result is that scale times the grid's unit-scale matrix
    (`correction_unit_matrices`).  Ordering of the stacked basis: gradient
    potentials then curl potentials, degree >= 1 slots only.
    """
    if kind not in VECTOR_KINDS:
        raise KindError(f"unknown correction kind {kind!r}")
    k_e, k_c = materials.k_e, materials.k_c
    if kind == "Mk2":
        scale = materials.wavenumber(wavenumber) ** 2
    elif kind == "L1":
        # constants from the direct delta-expansion of the kernel
        # difference: i^{j+1} (k_c^{j+1} - k_e^{j+1}) / (4 pi omega (j-1)!),
        # verified against the transmission conditions of the full system
        scale = -(k_c**2 - k_e**2) / (4.0 * np.pi * materials.omega)
    else:
        scale = -1j * (k_c**3 - k_e**3) / (4.0 * np.pi * materials.omega)
    unit = correction_unit_matrices(grid, L)[kind]
    return OperatorMatrix(
        kind,
        L,
        scale * unit.entries,
        scale * unit.pairing,
        unit.grid_id,
        {"wavenumber": wavenumber, "scale": complex(scale)},
    )
