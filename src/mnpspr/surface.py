"""Discretized star-shaped surfaces and surface calculus.

A surface is given by a positive radial function rho on the unit sphere,
stored as a truncated harmonic series; the boundary is {rho(yhat) yhat}.
Grids are Gauss-Legendre in cos(theta) times uniform azimuth, sized so that
products of harmonics up to the working degree integrate exactly.

Scalar surface functions are represented by their harmonic coefficients on
the *parameter* sphere; tangential fields by a pair of scalar potentials
(gradient part X, rotated-gradient part V), so that

    field = grad_S X  +  vcurl_S V,      vcurl_S = -normal x grad_S.

`SurfaceGrid.values_at` is the one place where densities become point
values: a list of ShCoeffs or of TangentField, at the grid nodes or at a
frame's points, into one stacked array.  At a frame it builds one basis
(`frame_values`), which can also serve a list's blocks in turn.  grad_S
and vcurl_S are read off one tangent frame (`tangent_frame`), built
analytically from the first fundamental form of the parametrization;
div, the Laplacian and the Helmholtz decomposition are weak forms against
the basis fields grad Y_j and vcurl Y_j that frame gives.  Those basis fields are never stored:
each pairing dots the field with the frame's vector pair at the nodes and
then applies the adjoint derivative transforms.

The grid holds no (nodes, harmonics) array.  On the tensor grid every
basis value factors as Y_j(theta_t, phi_k) = P_j(theta_t) exp(i m_j phi_k),
so the grid keeps the Legendre factors and their theta-derivatives per
ring, (n_theta, NC), one azimuthal phase table and 1/sin theta per ring.
Transforms at the nodes go Legendre then Fourier, order by order with one
phase product for all rings (as in SHTns, Schaeffer 2013); the Grams
accumulate ring by ring from one ring's basis rows (`ring_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphharm import (
    FOUR_PI,
    cartesian_to_angles,
    gauss_legendre_ring,
    legendre_rows,
    num_coeffs,
    safe_sin,
    sh_degrees,
    sh_index,
    synthesis_at,
    unit_vectors,
    ynm_matrix,
)

# values_at turns at most this many (point, density) pairs of a frame into
# values per pass, which bounds the (points, 3, densities) temporaries
VALUES_BLOCK = 1 << 17


class StarShapeError(ValueError):
    """Radial function is not strictly positive on the grid."""


class ResolutionError(ValueError):
    """Grid cannot resolve the requested harmonic degree."""


@dataclass
class ShCoeffs:
    """Truncated harmonic coefficient vector of a scalar surface function."""

    L: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (num_coeffs(self.L),):
            raise ValueError(
                f"expected {num_coeffs(self.L)} coefficients for L={self.L}, "
                f"got {self.coeffs.shape}"
            )

    @classmethod
    def zeros(cls, L):
        return cls(L, np.zeros(num_coeffs(L), dtype=complex))

    @classmethod
    def constant(cls, value, L=0):
        c = np.zeros(num_coeffs(L), dtype=complex)
        c[0] = value * np.sqrt(FOUR_PI)
        return cls(L, c)

    @classmethod
    def unit(cls, n, m, L=None, amplitude=1.0):
        L = n if L is None else L
        c = np.zeros(num_coeffs(L), dtype=complex)
        c[sh_index(n, m)] = amplitude
        return cls(L, c)

    def copy(self):
        return ShCoeffs(self.L, self.coeffs.copy())

    def padded(self, L):
        """Coefficient vector zero-extended (or truncated) to degree L."""
        if L == self.L:
            return self.coeffs
        out = np.zeros(num_coeffs(L), dtype=complex)
        k = min(num_coeffs(L), num_coeffs(self.L))
        out[:k] = self.coeffs[:k]
        return out


@dataclass
class TangentField:
    """Tangential field stored as Helmholtz potentials, grad_S X + vcurl_S V.

    The potentials are fixed only up to constants; construction keeps
    copies of the given ones with their means (coefficient 0) zeroed, the
    one place where the library fixes that gauge.
    """

    X: ShCoeffs
    V: ShCoeffs
    flavor: str = "div"  # 'div' or 'curl' trace-space membership tag

    def __post_init__(self):
        if self.flavor not in ("div", "curl"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        self.X, self.V = self.X.copy(), self.V.copy()
        self.X.coeffs[0] = self.V.coeffs[0] = 0.0

    @classmethod
    def from_potentials(cls, X=None, V=None, L=None, flavor="div"):
        if X is None and V is None:
            raise ValueError("need at least one potential")
        L = L if L is not None else max(
            X.L if X is not None else 0, V.L if V is not None else 0
        )
        X = ShCoeffs(L, X.padded(L)) if X is not None else ShCoeffs.zeros(L)
        V = ShCoeffs(L, V.padded(L)) if V is not None else ShCoeffs.zeros(L)
        return cls(X, V, flavor)


def _stacked(coeffs):
    """Columns of a list of ShCoeffs, zero-padded to the largest degree."""
    C = np.zeros((max(c.coeffs.size for c in coeffs), len(coeffs)), dtype=complex)
    for j, c in enumerate(coeffs):
        C[: c.coeffs.size, j] = c.coeffs
    return C


def tangent_frame(frame):
    """grad_S and vcurl_S of a scalar at the points of a frame_at dict.

    The dict also holds the points' "theta".  Returns the vector fields
    (alpha, sin_beta, alpha_c, sin_beta_c), each (..., 3), such that

        grad_S u  = u_theta alpha   + (u_phi / sin theta) sin_beta,
        vcurl_S u = u_theta alpha_c + (u_phi / sin theta) sin_beta_c,

    which weighs the derivative pair (dY/dtheta, (1/sin) dY/dphi) of
    ynm_matrix, or of harmonic_moments with rows A and B, as it comes.
    (alpha, beta) = (grad_S theta, grad_S phi) is the
    contravariant frame of the first fundamental form E, F, G, and
    sin_beta = sin(theta) beta.  With nu = (t_theta x t_phi) / sqrt(det),
    nu x t_theta = sqrt(det) beta and nu x t_phi = -sqrt(det) alpha, so
    x_c = -nu x x is alpha_c = -t_phi / sqrt(det), beta_c = t_theta / sqrt(det),
    where sqrt(det) = sin(theta) times the jacobian.
    """
    E, F, G, jac = (frame[k][..., None] for k in ("E", "F", "G", "jacobian"))
    st = np.sin(frame["theta"])[..., None]
    t_theta, t_phi = frame["t_theta"], frame["t_phi"]
    det = E * G - F**2
    alpha = (G * t_theta - F * t_phi) / det
    sin_beta = st * (E * t_phi - F * t_theta) / det
    return alpha, sin_beta, -t_phi / (st * jac), t_theta / jac


class SurfaceGrid:
    """Immutable discretized star-shaped surface with quadrature data.

    Attributes (all per node, nodes ordered theta-major):
      positions (N,3), normals (N,3), area_weights (N,), param_weights (N,),
      jacobian (N,), and tangent_frame, the four (N,3) fields of
      `tangent_frame` at the nodes.  axisymmetric and spherical are the
      surface's symmetries, read off its radius coefficients.
    Per ring: legendre and dlegendre (n_theta, NC), the `legendre_rows` of
    the ring colatitudes up to L_quad, and ring_inv_sin (n_theta,);
    phase (n_phi, 2 L_quad + 1) holds exp(i m phi_k), m = -L_quad..L_quad.
    """

    def __init__(self, radius_coeffs: ShCoeffs, L_quad: int):
        if L_quad < radius_coeffs.L:
            raise ResolutionError(
                f"L_quad={L_quad} below geometry degree {radius_coeffs.L}"
            )
        self.radius_coeffs = radius_coeffs.copy()
        self.L_geo = radius_coeffs.L
        # symmetries read off the coefficients: a surface of revolution about z
        # has no m != 0 term (its rings share one patch geometry, see
        # quadrature.rings), a sphere no n > 0 term
        c = self.radius_coeffs.coeffs
        self.axisymmetric = not np.any(c[sh_degrees(self.L_geo)[1] != 0])
        self.spherical = not np.any(c[1:])
        self.L_quad = int(L_quad)
        self.n_theta = 2 * self.L_quad + 2
        self.n_phi = 2 * self.L_quad + 2

        th, glw, ph, phw = gauss_legendre_ring(self.n_theta, self.n_phi)
        th2, ph2 = np.meshgrid(th, ph, indexing="ij")
        self.thetas = th2.ravel()
        self.phis = ph2.ravel()
        self.param_weights = np.repeat(glw, self.n_phi) * phw
        self.n_nodes = self.thetas.size

        frame = self.frame_at(self.thetas, self.phis)
        self.rho = frame["rho"]
        if np.any(self.rho <= 0):
            raise StarShapeError("radial function must be strictly positive")
        self.positions = frame["position"]
        self.normals = frame["normal"]
        self.jacobian = frame["jacobian"]
        self.tangent_frame = tangent_frame(dict(frame, theta=self.thetas))
        self.area_weights = self.param_weights * self.jacobian
        self.area = float(np.sum(self.area_weights))

        # the node basis as factors: Y_j at (theta_t, phi_k) is
        # legendre[t, j] * phase[k, m_j + L_quad]
        self.legendre, self.dlegendre = legendre_rows(th, self.L_quad)
        self.ring_inv_sin = 1.0 / safe_sin(np.sin(th))
        self.phase = np.exp(1j * np.outer(ph, np.arange(-self.L_quad, self.L_quad + 1)))
        self._m = sh_degrees(self.L_quad)[1]
        # meridian node spacing, the resolution scale of near-boundary guards
        self.max_spacing = float(np.max(self.rho) * np.pi / self.n_theta)
        self._memo = {}

    def cached(self, key, build):
        """build() memoized under key; the value lives as long as the grid."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- radial function and frames at arbitrary parameter points ----------

    def radius_at(self, theta, phi):
        """rho and its angular derivatives (rho, drho/dtheta, drho/dphi).

        theta broadcasts against phi; the Legendre factors are evaluated
        on theta's points only (see `synthesis_at`).
        """
        return tuple(f.real for f in synthesis_at(self.radius_coeffs.coeffs, self.L_geo, theta, phi))

    def frame_at(self, theta, phi):
        """Surface frame quantities at parameter points; theta broadcasts against phi.

        Arrays of the broadcast shape, with a trailing axis of 3 for vectors.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        rho, rho_t, rho_p = self.radius_at(theta, phi)
        st = np.sin(theta)
        rhat, that, phat = unit_vectors(theta, phi)

        position = rho[..., None] * rhat
        t_theta = rho_t[..., None] * rhat + rho[..., None] * that
        t_phi = rho_p[..., None] * rhat + (rho * st)[..., None] * phat
        E = np.einsum("...j,...j->...", t_theta, t_theta)
        F = np.einsum("...j,...j->...", t_theta, t_phi)
        G = np.einsum("...j,...j->...", t_phi, t_phi)
        rho_p_s = rho_p / safe_sin(st)
        # |grad_S rho|^2 on the parameter sphere
        grad_rho2 = rho_t**2 + rho_p_s**2
        jac = rho * np.sqrt(rho**2 + grad_rho2)
        normal = rho[..., None] * rhat - rho_t[..., None] * that - rho_p_s[..., None] * phat
        normal = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
        return {
            "rho": rho,
            "position": position,
            "normal": normal,
            "jacobian": jac,
            "t_theta": t_theta,
            "t_phi": t_phi,
            "E": E,
            "F": F,
            "G": G,
        }

    # -- scalar transforms ---------------------------------------------------

    def analysis(self, values, L=None):
        """Harmonic coefficients of node values; exact for band-limited input."""
        L = self.L_quad if L is None else L
        if L > self.L_quad:
            raise ResolutionError(f"analysis degree {L} exceeds grid capacity")
        c = self._moments((self.param_weights * np.asarray(values))[:, None], num_coeffs(L))
        return ShCoeffs(L, c[:, 0])

    def mass_matrix(self):
        """Hermitian Gram of the parameter basis in L^2 of the surface, ring by ring."""

        def build():
            nc = num_coeffs(self.L_quad)
            M = np.zeros((nc, nc), dtype=complex)
            for t, nodes in self._rings():
                Y = self.ring_basis(t, nc)
                M += np.conj(Y).T @ (self.area_weights[nodes, None] * Y)
            return M

        return self.cached("mass", build)

    # -- the node basis, per ring and per order --------------------------------

    def _rings(self):
        """(t, node slice) of every ring."""
        return ((t, slice(t * self.n_phi, (t + 1) * self.n_phi)) for t in range(self.n_theta))

    def ring_basis(self, t, nc, derivatives=False):
        """Rows of the first nc basis functions at ring t's nodes, (n_phi, nc).

        Y, or with derivatives the pair (dY/dtheta, (1/sin theta) dY/dphi).
        """
        phase = self.phase[:, self._m[:nc] + self.L_quad]
        P = self.legendre[t, :nc]
        if not derivatives:
            return P * phase
        dphi = (1j * self.ring_inv_sin[t] * self._m[:nc] * P) * phase
        return self.dlegendre[t, :nc] * phase, dphi

    def _moments(self, a, nc, b=None):
        """Y^H a, or Yt^H a + Yp^H b, of node arrays (N, r): (nc, r).

        Y, Yt, Yp are the first nc basis functions, their theta-derivatives
        and (1/sin theta) phi-derivatives at the nodes, which are never
        formed.  Fourier first: one product with the conjugate phase table
        gives every ring's order-m sums; then each slot j takes its order's
        sums against its Legendre factors, over the rings.
        """
        m = self._m[:nc]
        conj_phase = np.conj(self.phase).T

        def per_slot(x):  # (N, r) -> (n_theta, nc, r)
            return (conj_phase @ x.reshape(self.n_theta, self.n_phi, -1))[:, m + self.L_quad]

        if b is None:
            return np.einsum("tj,tjr->jr", self.legendre[:, :nc], per_slot(a))
        out = np.einsum("tj,tjr->jr", self.dlegendre[:, :nc], per_slot(a))
        P = self.legendre[:, :nc] * self.ring_inv_sin[:, None]
        out += (-1j * m)[:, None] * np.einsum("tj,tjr->jr", P, per_slot(b))
        return out

    def _node_values(self, C, tangent):
        """Node values of one density's coefficient columns C (NC, q), NC at L_quad.

        Legendre first: per order m one real product of its slots' factors
        with the columns gives every ring's A_m(theta); then one product
        with the phase table sums the orders at every node.  q = 1 gives
        scalar values (N,); q = 2, the potentials [X, V], gives tangent
        vectors (N, 3), each node's frame weighing (X_theta, V_theta,
        X_phi / sin, V_phi / sin) as a real (3, 4) @ (4, 2) product.
        """
        slots, valid, P, dP, phi_factor, weights = self.cached("node_tables", self._node_tables)
        Cv = (C[slots] * valid[:, :, None]).view(float)
        A = (P @ Cv).view(complex)  # (2 L_quad + 1, n_theta, q)
        if not tangent:
            return (self.phase @ A.reshape(len(P), -1)).T.ravel()
        A *= phi_factor
        A = np.concatenate([(dP @ Cv).view(complex), A], axis=-1)
        # (n_phi, n_theta, 4) into the theta-major node order
        U = (self.phase @ A.reshape(len(P), -1)).reshape(self.n_phi, self.n_theta, 4)
        U = U.transpose(1, 0, 2).reshape(self.n_nodes, 4, 1)
        return (weights @ U.view(float)).view(complex)[..., 0]

    def _node_tables(self):
        """The tables of `_node_values`, per order m = -L_quad..L_quad.

        slots (2 L_quad + 1, L_quad + 1) holds the flat index of (n, m) for
        n = |m|..L_quad, zero-padded where valid is False; P and dP the
        Legendre factors and theta-derivatives in that layout per ring,
        (2 L_quad + 1, n_theta, L_quad + 1); phi_factor i m / sin theta per
        order and ring; weights the frame per node, (N, 3, 4).
        """
        Lq = self.L_quad
        m = np.arange(-Lq, Lq + 1)
        degree = np.abs(m)[:, None] + np.arange(Lq + 1)
        valid = degree <= Lq
        degree = np.minimum(degree, Lq)
        slots = degree * degree + degree + m[:, None]
        P, dP = (
            np.ascontiguousarray((rows[:, slots] * valid).transpose(1, 0, 2))
            for rows in (self.legendre, self.dlegendre)
        )
        phi_factor = (1j * m[:, None] * self.ring_inv_sin)[..., None]
        # the frame's fields in the order of U's rows: X_theta, V_theta, X_phi, V_phi
        weights = np.stack([self.tangent_frame[i] for i in (0, 2, 1, 3)], axis=-1)
        return slots, valid, P, dP, phi_factor, weights

    # -- densities at points ---------------------------------------------------

    def values_at(self, densities, frame=None):
        """Values of a list of ShCoeffs, or of a list of TangentField, stacked.

        frame=None gives the grid nodes, from the per-ring factors of the
        node basis (`_node_values`), one density at a time, so a density's
        node values do not depend on the list it comes in.  A frame gives
        its points (`frame_values` at the list's largest degree).  Returns
        (P, J) for J scalar densities, (P, 3, J) for tangential ones.
        """
        tangent = isinstance(densities[0], TangentField)
        if any(isinstance(d, TangentField) != tangent for d in densities):
            raise TypeError("values_at takes a list of ShCoeffs or a list of TangentField")
        L = max(max(d.X.L, d.V.L) if tangent else d.L for d in densities)
        if frame is not None:
            return self.frame_values(frame, L, tangent)(densities)
        if L > self.L_quad:
            raise ResolutionError(f"density degree {L} exceeds grid capacity")
        shape = (self.n_nodes, 3, len(densities)) if tangent else (self.n_nodes, len(densities))
        out = np.empty(shape, dtype=complex)
        C = np.empty((num_coeffs(self.L_quad), 2 if tangent else 1), dtype=complex)
        for j, d in enumerate(densities):
            C.fill(0.0)
            for q, c in enumerate((d.X, d.V) if tangent else (d,)):
                C[: c.coeffs.size, q] = c.coeffs
            out[..., j] = self._node_values(C, tangent)
        return out

    def frame_values(self, frame, L, tangent):
        """values(densities) at the points of a frame, from one basis at degree L.

        frame is a frame_at(theta, phi) dict that also holds the points'
        "theta" and "phi" (only those two for scalar densities).  The basis
        lives as long as the returned function, which takes lists of
        degree at most L, TangentField when tangent, else ShCoeffs.
        """
        basis = ynm_matrix(frame["theta"], frame["phi"], L, derivatives=tangent)
        if tangent:
            Yt, Yp = basis[1:]
            # the frame's fields in the order of U's rows: X_theta, V_theta, X_phi, V_phi
            weights = np.stack([tangent_frame(frame)[i] for i in (0, 2, 1, 3)], axis=-1)
            del basis  # frees Y, which tangential values do not use
        else:
            Y = basis
        n = len(Yt if tangent else Y)
        step = max(1, VALUES_BLOCK // n)

        def values(densities):
            J = len(densities)
            out = np.empty((n, 3, J) if tangent else (n, J), dtype=complex)
            for lo in range(0, J, step):
                block = densities[lo : lo + step]
                b = len(block)
                if tangent:
                    # one product per derivative for the block's [X | V] columns gives
                    # u_theta and u_phi / sin of X and of V, which weigh the frame's
                    # four fields: per point a real (3, 4) @ (4, 2 block) product
                    C = _stacked([d.X for d in block] + [d.V for d in block])
                    U = np.stack([D[:, : len(C)] @ C for D in (Yt, Yp)], axis=1).reshape(n, 4, b)
                    out[:, :, lo : lo + b] = (weights @ U.view(float)).view(complex)
                else:
                    C = _stacked(block)
                    out[:, lo : lo + b] = Y[:, : len(C)] @ C
            return out

        return values

    def tangent_values(self, f: TangentField):
        """Node 3-vectors of a Helmholtz-potential field."""
        return self.values_at([f])[..., 0]

    # -- surface differential operators ---------------------------------------
    #
    # The basis fields grad Y_j and vcurl Y_j are pointwise-exact from the
    # first fundamental form.  div, the Laplacian and helmholtz_decompose use
    # the weak (Galerkin) form against them: this avoids differentiating
    # pole-singular covariant components and makes the composition identities
    # hold to quadrature accuracy.

    def _basis_fields(self, family):
        """Node values of grad Y_j or vcurl Y_j, (N, NC, 3), from a dense `ynm_matrix`."""
        _, Yt, Yp = ynm_matrix(self.thetas, self.phis, self.L_quad, derivatives=True)
        pair = self.tangent_frame[:2] if family == "grad" else self.tangent_frame[2:]
        return Yt[:, :, None] * pair[0][:, None, :] + Yp[:, :, None] * pair[1][:, None, :]

    def grad_basis(self):
        """Node values of grad Y_j for every basis function, (N, NC, 3), built per call.

        No library path calls it: pairings go through `_frame_pairing`.
        perfbench/spans.py wraps it by name.
        """
        return self._basis_fields("grad")

    def curl_basis(self):
        """Node values of vcurl Y_j = -normal x grad Y_j, (N, NC, 3), built per call.

        No library path calls it: pairings go through `_frame_pairing`.
        perfbench/spans.py wraps it by name.
        """
        return self._basis_fields("curl")

    def stiffness_matrix(self):
        """int grad(conj Y_i) . grad(Y_j) ds; Hermitian, PSD, kernel = constants.

        With D = (dY/dtheta, (1/sin) dY/dphi) and g_ab the pointwise dot
        products of the frame pair (alpha, sin_beta), the sum over a, b of
        D_a^H diag(w g_ab) D_b, accumulated ring by ring.
        """

        def build():
            pair = self.tangent_frame[:2]
            g = [[np.einsum("pc,pc->p", u, v) for v in pair] for u in pair]
            nc = num_coeffs(self.L_quad)
            K = np.zeros((nc, nc), dtype=complex)
            for t, nodes in self._rings():
                D = self.ring_basis(t, nc, derivatives=True)
                w = self.area_weights[nodes]
                for a in range(2):
                    T = (w * g[a][0][nodes])[:, None] * D[0] + (w * g[a][1][nodes])[:, None] * D[1]
                    K += np.conj(D[a]).T @ T
            return K

        return self.cached("stiffness", build)

    def _frame_pairing(self, field_nodes, family):
        """int conj(b_j) . field ds for every basis field b_j, by the grid rule.

        b_j = grad Y_j (family "grad") or vcurl Y_j ("curl").  With the
        family's frame pair (vec_theta, vec_phi) of `tangent_frame` this is
        Yt^H (w vec_theta . field) + Yp^H (w vec_phi . field) (`_moments`).
        """
        pair = self.tangent_frame[:2] if family == "grad" else self.tangent_frame[2:]
        wf = self.area_weights[:, None] * np.asarray(field_nodes)
        a, b = (np.einsum("pc,pc->p", vec, wf)[:, None] for vec in pair)
        return self._moments(a, num_coeffs(self.L_quad), b)[:, 0]

    def div(self, field_nodes):
        """Surface divergence of a tangential node field (values per node)."""
        pair = -self._frame_pairing(field_nodes, "grad")
        coeffs = np.linalg.solve(self.mass_matrix(), pair)
        return self._node_values(coeffs[:, None], False)

    def laplace_matrix(self, L=None):
        """Coefficient-space Laplace-Beltrami matrix -M^{-1} K_stiff at degree L.

        Mass and stiffness are truncated to degree L (default: the grid's
        capacity) before the solve.
        """
        nc = num_coeffs(self.L_quad if L is None else L)
        return self.cached(
            ("laplace", nc),
            lambda: -np.linalg.solve(
                self.mass_matrix()[:nc, :nc], self.stiffness_matrix()[:nc, :nc]
            ),
        )

    def helmholtz_decompose(self, field_nodes, L=None, flavor="div"):
        """Project a tangential node field onto Helmholtz potentials.

        X solves Delta X = div(field); V solves Delta V = -curl(field),
        both in the weak form.  Exact for fields in the span of the
        degree-L_quad potential basis.
        """
        L = self.L_quad if L is None else L
        K = self.stiffness_matrix()
        pairings = np.column_stack(
            [self._frame_pairing(field_nodes, family) for family in ("grad", "curl")]
        )
        X, V = np.zeros((2, num_coeffs(self.L_quad)), dtype=complex)
        X[1:], V[1:] = np.linalg.solve(K[1:, 1:], pairings[1:]).T
        nc = num_coeffs(L)
        return TangentField(ShCoeffs(L, X[:nc]), ShCoeffs(L, V[:nc]), flavor)


def radius_from_json(spec):
    """Radial ShCoeffs from typed {"radius": [[n, m, re, im], ...]}: ints n >= 0, |m| <= n."""
    entries = spec["radius"]
    L = max(n for n, _, _, _ in entries)
    c = np.zeros(num_coeffs(L), dtype=complex)
    for n, m, re, im in entries:
        c[sh_index(n, m)] = re + 1j * im
    return ShCoeffs(L, c)


def build_surface(radius_coeffs: ShCoeffs, L_quad: int) -> SurfaceGrid:
    """Build a surface grid; validates star-shapedness and resolution."""
    return SurfaceGrid(radius_coeffs, L_quad)


def sphere_surface(radius=1.0, L_quad=16) -> SurfaceGrid:
    return build_surface(ShCoeffs.constant(radius), L_quad)


def perturbed_sphere(amplitude=0.05, n=2, m=0, L_quad=12) -> SurfaceGrid:
    """rho = 1 + amplitude * Re Y_n^m, the standard non-sphere test surface."""
    c = np.zeros(num_coeffs(n), dtype=complex)
    c[0] = np.sqrt(FOUR_PI)
    if m == 0:
        c[sh_index(n, 0)] += amplitude
    else:
        c[sh_index(n, m)] += 0.5 * amplitude
        c[sh_index(n, -m)] += 0.5 * amplitude * (-1.0) ** m
    return build_surface(ShCoeffs(n, c), L_quad)


def tubular_distance(x, grid: SurfaceGrid):
    """Node-sampled distance to the surface of a point, or of each row of a (P, 3) array.

    A single point gives a float, an array of points one distance per point.
    Points are taken one at a time, so memory does not grow with their count.
    """
    x = np.asarray(x, dtype=float)
    d = np.array([np.min(np.linalg.norm(grid.positions - p, axis=1)) for p in np.atleast_2d(x)])
    return float(d[0]) if x.ndim == 1 else d


def radial_gap(x, grid: SurfaceGrid):
    """|x| - rho(x / |x|), negative inside, of a point or of each row of a (P, 3) array."""
    x = np.asarray(x, dtype=float)
    th, ph, r = cartesian_to_angles(x)
    gap = r - grid.radius_at(th, ph)[0]
    return float(gap[0]) if x.ndim == 1 else gap


def random_band_limited(rng, L, smoothness=2.0, mean_free=True):
    """Random coefficients with (1+n)^{-smoothness} decay; test helper."""
    n, _ = sh_degrees(L)
    scale = (1.0 + n) ** (-smoothness)
    c = scale * (rng.standard_normal(num_coeffs(L)) + 1j * rng.standard_normal(num_coeffs(L)))
    if mean_free:
        c[0] = 0.0
    return ShCoeffs(L, c)
