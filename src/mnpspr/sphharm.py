"""Complex orthonormal spherical harmonics on the unit sphere.

Conventions: Y_n^m(theta, phi) = Pbar_n^m(cos theta) * exp(i m phi) with the
Condon-Shortley phase folded into Pbar, normalized so that
int_{S^2} Y_n^m conj(Y_{n'}^{m'}) dsigma = delta_{nn'} delta_{mm'}.
Coefficient vectors are stored in (n, m) lexicographic order,
index(n, m) = n^2 + n + m, length (L+1)^2.

All evaluation routines use stable fully-normalized three-term recurrences
(values stay O(1), no factorials), vectorized over point arrays.
"""

from __future__ import annotations

import numpy as np

FOUR_PI = 4.0 * np.pi


def sh_index(n, m):
    """Flat index of the (n, m) coefficient."""
    return n * n + n + m


def num_coeffs(L: int) -> int:
    return (L + 1) * (L + 1)


def sh_degrees(L: int):
    """Arrays (n, m) of length (L+1)^2 giving the degree/order per slot."""
    n = np.concatenate([np.full(2 * k + 1, k, dtype=int) for k in range(L + 1)])
    m = np.concatenate([np.arange(-k, k + 1, dtype=int) for k in range(L + 1)])
    return n, m


def safe_sin(s):
    """sin(theta) clamped at 1e-14: the pole branch of every 1/sin(theta)."""
    return np.where(s < 1e-14, 1e-14, s)


def _legendre_orders(x, s, L):
    """Fully normalized associated Legendre Pbar_n^m(x), one order at a time.

    x = cos(theta), s = sin(theta) >= 0, arrays of shape (P,).  Yields for
    m = 0..L the block (P, L+1-m) of n = m..L.  Condon-Shortley phase
    included; values stay O(1) (no factorials).
    """
    P = x.size
    pmm = np.full(P, 1.0 / np.sqrt(FOUR_PI))
    for m in range(L + 1):
        if m > 0:
            pmm = pmm * (-np.sqrt((2.0 * m + 1.0) / (2.0 * m))) * s
        blk = np.empty((P, L + 1 - m))
        blk[:, 0] = pmm
        if m < L:
            blk[:, 1] = np.sqrt(2.0 * m + 3.0) * x * pmm
        for n in range(m + 2, L + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
            blk[:, n - m] = a * (x * blk[:, n - m - 1] - b * blk[:, n - m - 2])
        yield blk


def _legendre_blocks(x, s, L):
    """The blocks of `_legendre_orders` as a list over m, and their dPbar/dtheta.

    Returns (blocks, dblocks).
    """
    blocks = list(_legendre_orders(x, s, L))
    inv_s = (1.0 / safe_sin(s))[:, None]
    dblocks = [np.zeros_like(blocks[0])]
    if L > 0:
        dblocks[0][:, 1:] = _dtheta_order0(blocks[1])
    for m, blk in enumerate(blocks[1:], 1):
        dblocks.append(_sin_dtheta(x[:, None] * blk, blk, m) * inv_s)
    return blocks, dblocks


def _sin_dtheta(xP, P, m):
    """n xP_n - c_nm P_{n-1}, c_nm = sqrt((n^2 - m^2)(2n+1)/(2n-1)), n = m..L.

    With P = Pbar_m and xP = x Pbar_m this is sin(theta) dPbar_m/dtheta,
    for m > 0; it is linear, so it also holds for rows times both.
    """
    n = np.arange(m + 1, m + P.shape[1], dtype=float)
    out = np.arange(m, m + P.shape[1]) * xP
    out[:, 1:] -= np.sqrt((n * n - m * m) * (2.0 * n + 1.0) / (2.0 * n - 1.0)) * P[:, :-1]
    return out


def _dtheta_order0(P1):
    """dPbar_n^0/dtheta = sqrt(n(n+1)) Pbar_n^1, n = 1..L, from order 1's block.

    At m = 0 the sin identity is a difference of O(1) terms that cancels at
    the poles; this form has none.
    """
    n = np.arange(1, P1.shape[1] + 1)
    return np.sqrt(n * (n + 1.0)) * P1


def _column_indices(L, m):
    n = np.arange(m, L + 1)
    return n * n + n + m, n * n + n - m


def legendre_rows(theta, L):
    """Real (P, (L+1)^2) tables of the Legendre factors of Y_j and dY_j/dtheta.

    Y_n^m(theta, phi) = P[:, (n, m)] exp(i m phi), and likewise for dY/dtheta
    with dP; the negative orders carry the (-1)^m of
    Y_n^{-m} = (-1)^m conj Y_n^m.  theta is an array (P,) of colatitudes.
    The one home of that slot layout: the grid's node basis and
    `ynm_matrix` are these tables times the phase.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    blocks, dblocks = _legendre_blocks(np.cos(theta), np.sin(theta), L)
    P, dP = (np.empty((theta.size, num_coeffs(L))) for _ in range(2))
    for m in range(L + 1):
        pos, neg = _column_indices(L, m)
        for out, blk in ((P, blocks[m]), (dP, dblocks[m])):
            out[:, neg] = (-1.0) ** m * blk
            out[:, pos] = blk
    return P, dP


def ynm_matrix(theta, phi, L, derivatives=False):
    """Matrix of Y_n^m values at the given points: `legendre_rows` times exp(i m phi).

    Parameters
    ----------
    theta, phi : arrays (P,)
        Colatitude / azimuth of the evaluation points.
    L : int
        Maximum degree.
    derivatives : bool
        If True, also return dY/dtheta and (1/sin theta) dY/dphi matrices
        (the ingredients of the unit-sphere surface gradient).

    Returns
    -------
    Y : (P, (L+1)^2) complex
    optionally (Y, dY_dtheta, dY_dphi_over_sin)
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    P, dP = legendre_rows(theta, L)
    m = sh_degrees(L)[1]
    phase = np.exp(1j * np.outer(phi, np.arange(-L, L + 1)))[:, m + L]
    Y = P * phase
    if not derivatives:
        return Y
    # P and dP are freed before the last product, which needs only Y
    del P
    dY_dtheta = np.multiply(dP, phase, out=phase)
    del dP
    dY_dphi = Y * (1j * m)
    dY_dphi *= (1.0 / safe_sin(np.sin(theta)))[:, None]
    return Y, dY_dtheta, dY_dphi


def harmonic_moments(A, theta, phi, L, B=None):
    """A @ Y(theta, phi), or A @ dY/dtheta + B @ (1/sin theta) dY/dphi, without Y.

    A and B are (R, Q) rows over the points theta, phi (Q,), real or
    complex; returns (R, (L+1)^2) complex.  The work goes one order m at a
    time: one real product of the rows' real and imaginary parts against
    Z_m = Pbar_m exp(i m phi), (Q, L+1-m), gives the +m columns and, as
    Y_n^{-m} = (-1)^m conj Y_n^m, the -m columns.  For m > 0 the
    theta-derivative applies the sin identity (`_sin_dtheta`) to the
    products of the rows A x / sin and A / sin, so no derivative block is
    built; order 0's is A times `_dtheta_order0` of order 1's block.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x, s = np.cos(theta), np.sin(theta)
    R = len(A)
    out = np.zeros((R, num_coeffs(L)), dtype=complex)
    rows = A
    if B is not None:
        inv_s = 1.0 / safe_sin(s)
        rows = np.concatenate([A * (x * inv_s), A * inv_s, B * inv_s])
    K = len(rows)
    if np.iscomplexobj(rows):
        rows = np.concatenate([rows.real, rows.imag])
    eiphi = np.exp(1j * np.asarray(phi, dtype=float))
    eim = np.ones_like(eiphi)
    # one order's block at a time, into one buffer: large freed temporaries
    # per ring would make the allocator return and refault memory every ring
    Zbuf = np.empty((theta.size, L + 1), dtype=complex)
    for m, blk in enumerate(_legendre_orders(x, s, L)):
        if m > 0:
            eim = eim * eiphi
        if B is not None and m < 2:
            if m == 0:
                continue  # no phi-derivative, and the theta-derivative comes from order 1
            out[:, sh_index(np.arange(1, L + 1), 0)] = A @ _dtheta_order0(blk)
        Z = np.multiply(blk, eim[:, None], out=Zbuf[:, : L + 1 - m])
        P = (rows @ Z.view(float)).view(complex)
        # the rows against Z_m and against conj(Z_m)
        if len(P) == K:
            W, Wc = P, P.conj()
        else:
            W, Wc = P[:K] + 1j * P[K:], P[:K].conj() + 1j * P[K:].conj()
        if B is not None:
            W, Wc = (
                _sin_dtheta(V[:R], V[R : 2 * R], m) + 1j * mm * V[2 * R :]
                for V, mm in ((W, m), (Wc, -m))
            )
        pos, neg = _column_indices(L, m)
        out[:, pos] = W
        if m > 0:
            out[:, neg] = (-1.0) ** m * Wc
    return out


def synthesis_at(coeffs, L, theta, phi):
    """(f, df/dtheta, df/dphi) of f = sum_j coeffs_j Y_j, Legendre then Fourier.

    theta broadcasts against phi.  The Legendre factors are evaluated on
    theta's own points only and contracted per order m with the
    coefficients into A_m(theta); f and its derivatives are the sums over
    the 2L+1 orders of A_m exp(i m phi) on the broadcast shape.  Points
    that share a colatitude, such as the rotated patches of one grid ring,
    share their Legendre work.  Orders whose +-m coefficients are all zero
    are skipped.  Complex arrays of the broadcast shape.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    blocks, dblocks = _legendre_blocks(np.cos(theta).ravel(), np.sin(theta).ravel(), L)
    f, f_t, f_p = (np.zeros(shape, dtype=complex) for _ in range(3))
    eiphi = np.exp(1j * phi)
    eim = np.ones_like(eiphi)
    for m in range(L + 1):
        if m > 0:
            eim = eim * eiphi
        pos, neg = _column_indices(L, m)
        if not (np.any(coeffs[pos]) or np.any(coeffs[neg])):
            continue  # adds exact zeros: every m != 0 on a surface of revolution
        orders = [(m, coeffs[pos], eim)]
        if m > 0:
            # Y_n^{-m} = (-1)^m Pbar_n^m exp(-i m phi)
            orders.append((-m, (-1.0) ** m * coeffs[neg], np.conj(eim)))
        for mm, c, e in orders:
            ae = (blocks[m] @ c).reshape(theta.shape) * e
            f += ae
            f_t += (dblocks[m] @ c).reshape(theta.shape) * e
            f_p += (1j * mm) * ae
    return f, f_t, f_p


def unit_vectors(theta, phi):
    """Cartesian (rhat, theta-hat, phi-hat) frames; theta broadcasts against phi.

    Arrays of the broadcast shape plus a trailing axis of 3.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    shape = np.broadcast_shapes(np.shape(st), np.shape(sp))

    def stack(*parts):
        return np.stack([np.broadcast_to(p, shape) for p in parts], axis=-1)

    return stack(st * cp, st * sp, ct), stack(ct * cp, ct * sp, -st), stack(-sp, cp, 0.0)


def fibonacci_shell(count, radius):
    """Deterministic spiral of `count` near-uniform points on a sphere, (count, 3)."""
    k = np.arange(count) + 0.5
    theta = np.arccos(1.0 - 2.0 * k / count)
    rhat, _, _ = unit_vectors(theta, np.pi * (1.0 + np.sqrt(5.0)) * k)
    return radius * rhat


def cartesian_to_angles(points):
    """(theta, phi, r) for an array of 3-vectors, shape (P, 3)."""
    p = np.atleast_2d(points)
    r = np.linalg.norm(p, axis=-1)
    theta = np.arccos(np.clip(p[:, 2] / np.where(r == 0, 1.0, r), -1.0, 1.0))
    phi = np.arctan2(p[:, 1], p[:, 0])
    return theta, phi, r


def gauss_legendre_ring(n_theta, n_phi):
    """Gauss-Legendre x uniform-azimuth product rule on S^2.

    Nodes are GL in cos(theta); weights integrate dsigma exactly for
    harmonics up to degree 2*n_theta - 1.
    Returns (theta (nt,), gl_weights (nt,), phi (np,), phi_weight scalar).
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x[::-1])
    w = w[::-1]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return theta, w, phi, 2.0 * np.pi / n_phi


def polar_patch_rule(n_theta, n_phi):
    """Polar quadrature absorbing the 1/|x-y| surface singularity.

    Gauss-Legendre in the colatitude *angle* on (0, pi) times uniform
    azimuth, with sin(theta') folded into the weights.  Summing
    w * f over the nodes integrates f dsigma spectrally for integrands
    that are smooth functions of (theta', phi') even when f ~ 1/dist,
    because w ~ sin(theta') vanishes linearly at the pole.
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    th = 0.5 * np.pi * (x + 1.0)
    wt = 0.5 * np.pi * w * np.sin(th)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th2, ph2 = np.meshgrid(th, phi, indexing="ij")
    weights = np.repeat(wt, n_phi) * (2.0 * np.pi / n_phi)
    return th2.ravel(), ph2.ravel(), weights


def rotation_to(theta, phi):
    """Rotation matrix mapping the north pole to direction (theta, phi)."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry
