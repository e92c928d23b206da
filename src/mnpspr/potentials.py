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

Off-boundary evaluation picks each point's rule, the grid nodes or a polar
patch under the point, from its distance to the surface.  `em_fields` turns
the vector single layers of a density pair into E and H for the plasmon and
scattering layers alike.  The smooth small-radius correction operators are
provided for the scattering layer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .quadrature import assemble_scalar_values, correction_polar_order, near_singular_eval, rings
from .sphharm import harmonic_moments, num_coeffs, sh_degrees
from .surface import (
    ShCoeffs, SurfaceGrid, TangentField, radial_gap, tangent_frame, tubular_distance,
)

log = logging.getLogger(__name__)


class KindError(ValueError):
    """Operator kind does not match the requested operation."""


class FlavorError(ValueError):
    """Tangential field lives in the wrong Helmholtz subspace."""


class NearBoundaryError(ValueError):
    """A point at or below the near rule's floor, on a sphere mode's sphere, or in an eps-tube."""


class AssemblyAccuracyError(RuntimeError):
    """Assembled matrices fail a structural accuracy requirement."""


class RegularizationError(RuntimeError):
    """An inverse application is too ill-conditioned to trust."""


class ResonanceError(RuntimeError):
    """Linear system is singular at an exact resonance."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


VECTOR_KINDS = ("Mk2", "L1", "L2")


@dataclass
class OperatorMatrix:
    """Coefficient-space matrix of a scalar boundary operator, dense (nc, nc).

    entries maps coefficient vectors to coefficient vectors (the Galerkin
    pairing composed with the inverse mass matrix); pairing holds the raw
    L^2-surface Galerkin matrix used for Gram constructions.
    """

    entries: np.ndarray
    pairing: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MaterialConfig:
    """The material model: eps = mu = -tau inside (tau > 0, tau != 1, checked when built),
    vacuum outside, frequency omega and size delta; so k_e = omega and k_c = omega tau."""

    tau: float
    omega: float = 1.0
    delta: float = 0.05

    def __post_init__(self):
        if not (self.tau > 0 and self.tau != 1):
            raise ValueError(f"the material model needs tau > 0 and tau != 1, got {self.tau}")

    @property
    def k_e(self):
        return self.omega

    @property
    def k_c(self):
        return self.omega * self.tau

    def side(self, inside):
        """(mu, k) of the interior or exterior material."""
        return (-self.tau, self.k_c) if inside else (1.0, self.k_e)


# --------------------------------------------------------------------------
# scalar operator assembly (cached per grid)
# --------------------------------------------------------------------------


def scalar_operators(grid: SurfaceGrid, L: int):
    """The static scalar operators S, K, K* at degree L, built once per grid.

    One mass-matrix solve normalizes the three pairings.  The guard's
    residuals and the condition number of S are logged at DEBUG and kept
    in one meta dict that the three operators share.
    """

    def build():
        if L > grid.L_quad:
            raise ValueError(f"operator degree {L} exceeds grid capacity")
        nc = num_coeffs(L)
        G = assemble_scalar_values(grid, L)
        pairings, entries = (
            dict(zip(("S", "Kstar", "K"), np.split(a, 3, axis=1)))
            for a in (G, np.linalg.solve(grid.mass_matrix()[:nc, :nc], G))
        )
        meta = _check_scalar_invariants(pairings)
        log.debug(
            "scalar operators at L=%d, L_quad=%d: %s", L, grid.L_quad,
            ", ".join(f"{key} {value:.2e}" for key, value in meta.items()),
        )
        return {kind: OperatorMatrix(entries[kind], p, meta) for kind, p in pairings.items()}

    return grid.cached(("scalar", L), build)


def _check_scalar_invariants(pairings):
    """Raise AssemblyAccuracyError unless S is Hermitian and negative definite
    and K, K* are discrete adjoints; return the three residuals and the
    condition number of S, from one eigen-decomposition of -sym(S)."""
    GS = pairings["S"]
    herm = np.linalg.norm(GS - GS.conj().T) / np.linalg.norm(GS)
    if herm > 1e-8:
        raise AssemblyAccuracyError(
            f"single layer not symmetric: {herm:.2e}; raise surface.L_quad above L"
        )
    eig = np.linalg.eigvalsh(-0.5 * (GS + GS.conj().T))
    mineig = eig[0]
    if mineig <= 0:
        raise AssemblyAccuracyError(
            f"negative single layer lost definiteness: smallest eigenvalue {mineig:.2e}; "
            "raise surface.L_quad above L"
        )
    dual = np.linalg.norm(pairings["K"] - pairings["Kstar"].conj().T)
    dual /= np.linalg.norm(pairings["K"])
    if dual > 1e-8:
        raise AssemblyAccuracyError(
            f"K / K* discrete duality violated: {dual:.2e}; raise surface.L_quad above L"
        )
    return {
        "S_hermiticity": float(herm), "negS_min_eig": float(mineig), "K_duality": float(dual),
        "S_condition": float(eig[-1] / mineig),
    }


# --------------------------------------------------------------------------
# symmetrizer actions through the scalar single layer
# --------------------------------------------------------------------------


def apply_N(g: TangentField, grid: SurfaceGrid, L: int) -> TangentField:
    """vcurl S[curl_S g]; annihilates gradient fields, output is pure curl.

    S is the grid's own single layer at degree L.
    """
    if g.flavor != "curl":
        raise FlavorError("N acts on curl-trace fields")
    pot = -(scalar_operators(grid, L)["S"].entries @ (grid.laplace_matrix(L) @ g.V.padded(L)))
    return TangentField(ShCoeffs.zeros(L), ShCoeffs(L, pot), "curl")


def apply_Q(f: TangentField, grid: SurfaceGrid, L: int) -> TangentField:
    """grad S[div_S f]; annihilates curl fields, output is pure gradient.

    S is the grid's own single layer at degree L.
    """
    if f.flavor != "div":
        raise FlavorError("Q acts on div-trace fields")
    pot = scalar_operators(grid, L)["S"].entries @ (grid.laplace_matrix(L) @ f.X.padded(L))
    return TangentField(ShCoeffs(L, pot), ShCoeffs.zeros(L), "div")


# --------------------------------------------------------------------------
# off-boundary evaluation
# --------------------------------------------------------------------------


def helmholtz_point_kernels(k, rvec, want_hessian=False):
    """G(k; x, y) = -exp(ik|x-y|)/(4 pi |x-y|) and its x-derivatives.

    rvec = x - y with shape (..., 3).  Returns (G, gradG) or
    (G, gradG, hessG) with gradG shape (..., 3), hessG (..., 3, 3).
    """
    r = np.linalg.norm(rvec, axis=-1)
    kr = k * r
    eikr = np.exp(1j * kr)
    g = -eikr / (4.0 * np.pi * r)
    gp = eikr * (1.0 - 1j * kr) / (4.0 * np.pi * r**2)
    rhat = rvec / r[..., None]
    grad = gp[..., None] * rhat
    if not want_hessian:
        return g, grad
    gpp = eikr * (kr**2 + 2j * kr - 2.0) / (4.0 * np.pi * r**3)
    outer = rhat[..., :, None] * rhat[..., None, :]
    eye = np.eye(3)
    hess = (gpp - gp / r)[..., None, None] * outer + (gp / r)[..., None, None] * eye
    return g, grad, hess


# points per grid-rule pass, and densities per block of values in `offboundary_eval`
POINT_BLOCK = 32
# polar order of the near rule; one of its polar steps is the closest radial gap it takes
NEAR_POLAR = 320


# kind -> its radial factors, each c (coef[0] z^d + ... + coef[d]) / r^power
# with z = ikr and c = exp(z) / (4 pi r): G = -c, g' = c (1 - z) / r, and
# curlcurl's g'' - g'/r and g'/r + k^2 g
_FACTORS = {
    "S": (((-1.0,), 0),),
    "gradS": (((-1.0, 1.0), 1),),
    "curlS_vec": (((-1.0, 1.0), 1),),
    "curlcurlS_vec": (((-1.0, 3.0, -3.0), 2), ((1.0, -1.0, 1.0), 2)),
}


def _c_poly(coef, z, c, r, power):
    """c (coef[0] z^d + ... + coef[d]) / r^power, built in one new array."""
    out = np.full_like(c, coef[0])
    for a in coef[1:]:
        out *= z
        out += a
    out *= c
    for _ in range(power):
        out /= r
    return out


def _layer_sum(k, targets, sources, kinds, wdens):
    """Layer potentials `kinds` at P targets (P, 3), summed over N sources (N, 3).

    wdens stacks J densities times the quadrature weights: (N, J) for the
    scalar kinds S and gradS, (N, 3, J) for curlS_vec and curlcurlS_vec;
    k is the one wavenumber they share.  Each kernel is radial factors of
    r = |x - y| (`_FACTORS`) times rhat terms:
      S             = sum_n G d
      gradS         = sum_n g' rhat d
      curlS_vec     = sum_n g' rhat x d
      curlcurlS_vec = sum_n (g'' - g'/r) rhat (rhat . d) + (g'/r + k^2 g) d
    Every factor is (P, N) and is built from one exp(ikr) per entry.  The
    rhat terms are folded into one workspace of that shape, g' rhat_a or
    (g'' - g'/r) rhat_c rhat_b, plus the isotropic term on the diagonal, so
    the two curlcurl terms, which cancel near the surface, are combined at
    each node; each is contracted with one density component, (N, J), by
    matmul.  z, c and r are freed once the last kind's factors are built,
    and a kind's factors and workspace once it is contracted.  Returns one
    array per kind: (P, J) for S, else (P, 3, J).  The one home of the
    off-boundary kernels; node and near rules call it.
    """
    rhat = targets[:, None, :] - sources
    r = np.linalg.norm(rhat, axis=-1)
    rhat /= r[..., None]
    z = 1j * (k * r)
    c = np.exp(z)
    c /= 4.0 * np.pi * r
    P, J = len(targets), wdens.shape[-1]
    out = []
    for i, kind in enumerate(kinds):
        if kind not in _FACTORS:
            raise KindError(f"unknown evaluation kind {kind!r}")
        fac = [_c_poly(coef, z, c, r, power) for coef, power in _FACTORS[kind]]
        if i == len(kinds) - 1:  # the last kind's factors are the last use of z, c and r
            del z, c, r
        if kind == "S":
            out.append(fac.pop() @ wdens)
            continue
        f = np.empty_like(fac[0])
        res = np.zeros((P, 3, J), dtype=complex)
        if kind == "gradS":
            for a in range(3):
                res[:, a] = np.multiply(fac[0], rhat[:, :, a], out=f) @ wdens
        elif kind == "curlS_vec":
            # (rhat x d)_c = rhat_a d_b - rhat_b d_a for (c, a, b) cyclic
            for a in range(3):
                np.multiply(fac[0], rhat[:, :, a], out=f)
                res[:, (a + 2) % 3] += f @ wdens[:, (a + 1) % 3]
                res[:, (a + 1) % 3] -= f @ wdens[:, (a + 2) % 3]
        else:
            radial, iso = fac
            # the kernel is symmetric: an off-diagonal entry serves two rows
            for a, b in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
                np.multiply(radial, rhat[:, :, a], out=f)
                f *= rhat[:, :, b]
                if a == b:
                    f += iso
                res[:, a] += f @ wdens[:, b]
                if a != b:
                    res[:, b] += f @ wdens[:, a]
            del radial, iso
        del fac, f
        out.append(res)
    return out


def _passes(k, targets, sources, kinds, wdens, block):
    """`_layer_sum` at targets (P, 3) from sources (N, 3), one wavenumber per pass.

    k holds the J densities' wavenumbers, (J,).  Each run of neighbouring
    densities with one value takes passes of `block` targets on its view
    of wdens, so no density values are copied.  A pass's factors hold
    `block` x N elements each, and the pass frees its factors and its
    target-source vectors before the next pass builds its own.
    """
    P, J = len(targets), wdens.shape[-1]
    cuts = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1), J]
    out = [np.empty((P, J) if kind == "S" else (P, 3, J), dtype=complex) for kind in kinds]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        for i in range(0, P, block):
            part = _layer_sum(k[lo], targets[i : i + block], sources, kinds, wdens[..., lo:hi])
            for o, v in zip(out, part):
                o[i : i + block, ..., lo:hi] = v
    return out


def _weigh(values, w):
    """values (N, ...) times the quadrature weights w (N,), in place."""
    values *= w.reshape(w.shape + (1,) * (values.ndim - 1))
    return values


def offboundary_eval(density, k, x, which, grid: SurfaceGrid):
    """Layer-potential evaluation at points off the boundary.

    which in {S, gradS} (ShCoeffs densities) or {curlS_vec, curlcurlS_vec}
    (TangentField densities); a tuple of kinds of one density type shares
    the kernel factors and gives a tuple of results.  density is one
    density or a list of them; a list shares one evaluation and puts its
    results on a trailing axis.  Anything else, such as a density of the
    other type, raises KindError.  k is one wavenumber, an array with one
    per density, or a (points, densities) array with one row per point.
    Points with equal rows share their passes; a row of equal entries is a
    shared wavenumber.  The caller's arrays are not modified.

    Beyond the guard, 3 x `grid.max_spacing` of `tubular_distance`, the
    grid nodes are the quadrature.  Inside it the near rule puts a polar
    patch of order NEAR_POLAR under the point (`near_singular_eval`), down
    to a floor of one polar step, pi max(rho) / NEAR_POLAR, of radial gap
    (`radial_gap`); at or below the floor NearBoundaryError is raised.
    Node-sampled distance would not do there: a point on the surface reads
    as far from it as its nearest node, 0.17 at the unit sphere's pole at
    L_quad = 6.

    Memory is bounded by element count.  The densities go POINT_BLOCK at a
    time: the grid rule weighs each block's node values, (N, 3, block),
    and each near point builds its patch and basis once
    (`SurfaceGrid.frame_values`) for every block, then frees them before
    the next point.  Each run of neighbouring densities that share a
    wavenumber in a point's row takes its own passes (`_passes`).  A pass
    gives (P, N) kernel factors for P points and N nodes or patch points:
    the grid rule takes POINT_BLOCK points per pass, the near rule one.
    Besides r and rhat, a pass holds at most four complex arrays of a
    factor's shape: z = ikr, c = exp(z) / (4 pi r) and two factors, or,
    once z and c are freed, two factors and the workspace (`_layer_sum`).
    Together they hold no more elements than a complex (POINT_BLOCK, N, 6)
    array on the grid rule, or a (1, N, 6) one on the near rule.
    """
    kinds = which if isinstance(which, tuple) else (which,)
    tangent, *mixed = {kind in ("curlS_vec", "curlcurlS_vec") for kind in kinds}
    if mixed:
        raise KindError(f"kinds {kinds} need different density types")
    dens = density if isinstance(density, list) else [density]
    want = TangentField if tangent else ShCoeffs
    for d in dens:
        if not isinstance(d, want):
            raise KindError(f"{kinds[0]} needs {want.__name__} densities, got {type(d).__name__}")
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    P, J = len(pts), len(dens)
    k = np.asarray(k)
    if k.ndim == 1 and k.shape != (J,):
        raise ValueError(f"{k.size} wavenumbers for {J} densities")
    k = np.broadcast_to(k, (P, J))
    near = tubular_distance(pts, grid) <= 3.0 * grid.max_spacing
    if near.any():
        floor = np.pi * np.max(grid.rho) / NEAR_POLAR
        gap = np.abs(radial_gap(pts[near], grid))
        if np.any(gap <= floor):
            raise NearBoundaryError(
                f"point at radial gap {np.min(gap):.3g} from the surface, within the near "
                f"rule's floor {floor:.3g} (one polar step, pi max(rho) / {NEAR_POLAR})"
            )
    out = [np.empty((P, J) if kind == "S" else (P, 3, J), dtype=complex) for kind in kinds]
    rows = {}  # far points by wavenumber row; np.unique(axis=0) would import numpy.ma
    for p in np.flatnonzero(~near):
        rows.setdefault(k[p].tobytes(), []).append(p)
    blocks = [slice(lo, lo + POINT_BLOCK) for lo in range(0, J, POINT_BLOCK)]
    for b in blocks if rows else ():
        nodes = _weigh(grid.values_at(dens[b]), grid.area_weights)
        for far in map(np.array, rows.values()):
            part = _passes(k[far[0], b], pts[far], grid.positions, kinds, nodes, POINT_BLOCK)
            for o, v in zip(out, part):
                o[far, ..., b] = v
    L = max(max(d.X.L, d.V.L) if tangent else d.L for d in dens)
    for p in np.flatnonzero(near):
        patch, w = near_singular_eval(grid, pts[p], NEAR_POLAR)
        values = grid.frame_values(patch, L, tangent)
        for b in blocks:
            wd = _weigh(values(dens[b]), w)
            for o, v in zip(out, _passes(k[p, b], pts[p : p + 1], patch["position"], kinds, wd, 1)):
                o[p, ..., b] = v[0]
        del patch, values, wd  # freed before the next point builds its own
    if not isinstance(density, list):
        out = [o[..., 0] for o in out]
    if np.asarray(x).ndim == 1:
        out = [o[0] for o in out]
    return tuple(out) if isinstance(which, tuple) else out[0]


def em_fields(materials: MaterialConfig, inside, curl, curlcurl):
    """Electric and magnetic fields of a density pair (psi, phi) on one side.

    curl = (curl S[psi], curl S[phi]) and curlcurl likewise: vector single
    layers at the side's wavenumber, on the reference geometry.  With
    (mu, k) of the side and delta = materials.delta,
        E = mu curl S[psi] + curlcurl S[phi] / delta,
        H = -(i / (omega delta)) curlcurl S[psi] - (i k^2 / (omega mu)) curl S[phi].
    A plasmon mode field is the case psi = phi.
    """
    mu, k = materials.side(inside)
    delta = materials.delta
    E = mu * curl[0] + curlcurl[1] / delta
    H = -1j / (materials.omega * delta) * curlcurl[0] - 1j * k**2 / (materials.omega * mu) * curl[1]
    return E, H


# --------------------------------------------------------------------------
# smooth correction operators for the scaled scattering system
# --------------------------------------------------------------------------


def slot_blocks(grid: SurfaceGrid, L: int):
    """The partition of the 2d stacked (grad, curl) slots of degree >= 1 into coupled blocks.

    On a surface of revolution (`grid.axisymmetric`) every operator in the
    harmonic basis couples only equal orders m: one block per m = -L..L,
    its gradient slots then its curl slots.  On any other surface, one
    block holding every slot.  Read-only index arrays, once per grid and degree.
    """

    def build():
        m = np.tile(sh_degrees(L)[1][1:], 2)
        return (
            tuple(np.flatnonzero(m == order) for order in range(-L, L + 1))
            if grid.axisymmetric
            else (np.arange(len(m)),)
        )

    return grid.cached(("blocks", L), build)


def tangent_mass_stack(grid: SurfaceGrid, L: int, slots=None):
    """Gram of the stacked (grad, curl) potential basis on the given stacked slots.

    slots index the 2d degree >= 1 slots, gradient block first (default:
    all of them); both halves take the stiffness Gram, and a gradient and a
    curl slot are orthogonal.
    """
    d = num_coeffs(L) - 1
    slots = np.arange(2 * d) if slots is None else slots
    # the slot's place in the stiffness Gram, and its half
    j, half = slots % d + 1, slots // d
    K = grid.stiffness_matrix()[np.ix_(j, j)]
    return np.where(half[:, None] == half[None, :], K, 0.0)


def _test_fields(grid: SurfaceGrid, ring, L: int):
    """Conjugated test fields crossed with nu_x at a ring's n_t targets, (n_t, 3, 2d).

    Columns: the curl basis fields for the gradient slots, minus the
    gradient basis fields for the curl slots (degree >= 1), each
    Y_theta vec_theta + (Y_phi / sin) vec_phi of its frame pair.  Each
    target's area weight is scaled by n_phi / n_t, the targets it stands for.
    """
    nc = num_coeffs(L)
    n_t = len(ring.normal)
    nodes = slice(ring.nodes.start, ring.nodes.start + n_t)
    Yt, Yp = (
        np.conj(D[:n_t, 1:nc])[:, None, :] for D in grid.ring_basis(ring.index, nc, True)
    )
    a, sb, a_c, sb_c = (vec[nodes, :, None] for vec in grid.tangent_frame)
    test = np.concatenate([Yt * a_c + Yp * sb_c, -(Yt * a + Yp * sb)], axis=2)
    test *= ((grid.n_phi / n_t) * grid.area_weights[nodes])[:, None, None]
    return test


def _ring_kernel_values(ring, L: int):
    """The Mk2 and L1 kernels applied to every basis field at one ring's n_t targets.

    Returns (n_t 3, 4d): rows (target, component), columns the blocks
    (Mk2 grad, Mk2 curl, L1 grad, L1 curl) of degree >= 1 slots.
    """
    d = num_coeffs(L) - 1
    # grad Y_j and vcurl Y_j weigh the frame's vector pairs by the same derivatives
    alpha, sin_beta, alpha_c, sin_beta_c = tangent_frame(dict(ring.frame, theta=ring.theta))
    rvec, r = ring.rvec, ring.r
    n_t, q = r.shape
    uhat = rvec / r[..., None]
    # K phi of the ring-projected kinds, in VECTOR_KINDS order
    kernels = (
        lambda vec: np.cross(uhat, vec) / (8.0 * np.pi),
        lambda vec: 0.5 * (
            vec / r[..., None]
            + rvec * (np.einsum("tqj,tqj->tq", rvec, vec) / r**3)[..., None]
        ),
    )
    # (kernel, frame pair) rows in the order of the column blocks, (4 n_t 3, q) each
    A, B = (
        np.stack([
            (fn(vec) * ring.wjac[..., None]).transpose(0, 2, 1)
            for fn in kernels for vec in vecs
        ]).reshape(-1, q)
        for vecs in ((alpha, alpha_c), (sin_beta, sin_beta_c))
    )
    rows = harmonic_moments(A, ring.theta, ring.phi, L, B).reshape(4, n_t, 3, d + 1)
    rows = rows * ring.phase[:n_t, None, :]
    return rows[..., 1:].transpose(1, 2, 0, 3).reshape(-1, 4 * d)


def correction_unit_matrices(grid: SurfaceGrid, L: int):
    """Coefficient matrices of the correction kernels at unit scale, built once per grid.

    Returns dict kind -> tuple with one matrix per block of `slot_blocks`,
    on the block's slots of the stacked potential basis (gradient block
    first, curl block second, degree >= 1 slots), with unit material
    constants; entries between different blocks are zero and are not
    stored.  Every kernel acts as nu_x x int K(x, y) phi(y) ds(y):
      Mk2 : K phi = (uhat x phi) / (8 pi)
      L1  : K phi = (1/2) [phi / r + R (R . phi) / r^3]
      L2  : K phi = (2/3) phi
    By t . (nu x v) = (t x nu) . v, nu_x moves onto the test fields t; for a
    tangent t it maps the grad basis to the curl basis and the curl basis to
    minus the grad basis.  The rotated polar rule projects the Mk2 and L1
    kernels one ring at a time, so the per-node integral tensors are never
    held whole: the four (kernel, frame pair) row sets of a ring go through
    one `harmonic_moments` call, as A (the pair's theta field) and B (its
    sin-scaled phi field).  The test fields are never held whole either:
    each ring forms its own from its basis rows (`SurfaceGrid.ring_basis`)
    and the node frame.

    A ring adds (n_phi / n_t) sum_{t < n_t} test_t^T rows_t into each block.
    On a surface of revolution n_t = 1: target i's test fields and rows are
    the first target's turned about z, and times exp(-i m_j phi_i) and
    exp(i m_k phi_i), so the turns cancel in the dot product and the sum of
    the phases over the ring is n_phi where m_j = m_k and zero elsewhere
    (|m_j - m_k| <= 2L < n_phi).  Elsewhere n_t = n_phi and the one block
    takes the sum over every target.  L2's integral is the same vector
    (2/3) int phi_j ds at every target, so its pairing is the rank-3
    product (2/3) (sum_x t_i x nu_x) . int phi_j ds, with the grid rule;
    both sums are frame-weighted node moments (`SurfaceGrid._moments`).
    Each block's matrix solves its Galerkin pairing against its slice of
    the stacked Gram (`tangent_mass_stack`); the pairing is not kept.
    Beyond the result, memory is O(NC^2) for the stiffness Gram and
    O(n_t NC) per ring.  Every material shares the read-only arrays.
    """

    def build():
        nc = num_coeffs(L)
        d = nc - 1
        blocks = slot_blocks(grid, L)
        w = grid.area_weights[:, None]
        # int grad Y_j ds and int vcurl Y_j ds by the grid rule, (d, 3) each;
        # the frame fields are real, so each is the conjugate of its moments
        grad_int, curl_int = (
            np.conj(grid._moments(w * a, nc, w * sb))[1:]
            for a, sb in (grid.tangent_frame[:2], grid.tangent_frame[2:])
        )
        # L2: sum_x of the test fields times int phi_j ds, both (2d, 3)
        test_sum = (2.0 / 3.0) * np.conj(np.concatenate([curl_int, -grad_int]))
        phi_int = np.concatenate([grad_int, curl_int])
        # each block's pairings of the kernels side by side, in VECTOR_KINDS order
        G = [np.zeros((len(b), 3 * len(b)), dtype=complex) for b in blocks]
        for g, b in zip(G, blocks):
            g[:, 2 * len(b) :] = test_sum[b] @ phi_int[b].T
        columns = [np.concatenate([b, 2 * d + b]) for b in blocks]
        for ring in rings(grid, L, correction_polar_order(L)):
            test = _test_fields(grid, ring, L).reshape(-1, 2 * d)
            values = _ring_kernel_values(ring, L)
            for g, b, c in zip(G, blocks, columns):
                g[:, : 2 * len(b)] += test[:, b].T @ values[:, c]
        entries = [np.linalg.solve(tangent_mass_stack(grid, L, b), g) for g, b in zip(G, blocks)]
        return {
            kind: tuple(a[:, len(a) * i : len(a) * (i + 1)] for a in entries)
            for i, kind in enumerate(VECTOR_KINDS)
        }

    return grid.cached(("corrections", L), build)


def assemble_correction(kind: str, grid: SurfaceGrid, materials: MaterialConfig, L: int):
    """Correction-operator matrix on the stacked potential basis, one per block.

    Each kernel carries its interior-minus-exterior material constant:
    Mk2 carries -tau k_c^2 - k_e^2 (mu = -tau inside, 1 outside), and L1/L2 carry
    C_j = i^{j+1} (k_c^{j+1} - k_e^{j+1}) / (4 pi omega (j-1)!).
    Returns that scale times each block of the grid's unit-scale matrices
    (`correction_unit_matrices`), on the same `slot_blocks`.  Ordering of
    the stacked basis: gradient potentials then curl potentials, degree
    >= 1 slots only.
    """
    if kind not in VECTOR_KINDS:
        raise KindError(f"unknown correction kind {kind!r}")
    k_e, k_c = materials.k_e, materials.k_c
    if kind == "Mk2":
        scale = -materials.tau * k_c**2 - k_e**2
    elif kind == "L1":
        # constants from the direct delta-expansion of the kernel
        # difference: i^{j+1} (k_c^{j+1} - k_e^{j+1}) / (4 pi omega (j-1)!),
        # verified against the transmission conditions of the full system
        scale = -(k_c**2 - k_e**2) / (4.0 * np.pi * materials.omega)
    else:
        scale = -1j * (k_c**3 - k_e**3) / (4.0 * np.pi * materials.omega)
    return [scale * a for a in correction_unit_matrices(grid, L)[kind]]
