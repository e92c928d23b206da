"""Weak surface-plasmon modes, their fields, and localization diagnostics.

Each eigenvalue lam of the magnetic boundary operator on the curl subspace
picks a contrast tau = (1 - 2 lam)/(1 + 2 lam) at which the leading-order
scaled transmission system has the eigenfield in its kernel.  The associated
mode fields are built from the Helmholtz vector single layer of the
eigenfield density with the exterior/interior wavenumbers, and their decay
off the surface is summarized by partial sums and a density-of-exceedance
statistic for o(j^{-kappa}) behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Rational

import numpy as np

from .mie import SphereMode, exact_sphere_potential, sphere_mnp_eigenvalue
from .potentials import MaterialConfig, NearBoundaryError, em_fields, offboundary_eval
from .spectral import eigenvalue_clusters, mnp_spectra
from .surface import ShCoeffs, SurfaceGrid, TangentField, radial_gap, tubular_distance


PLATEAU_THRESHOLD = 0.05  # largest last-quartile share of the partial sums on a plateau
KAPPA = 0.5  # localization_scan's exceedance statistic tests o(j^{-KAPPA}) decay
EXCEEDANCE_THRESHOLD = 0.05  # largest exceedance fraction of a positive verdict


class ResonanceExclusionError(ValueError):
    """Requested contrast is excluded (tau = 1 or lam outside (-1/2, 1/2))."""


def resonance_tau(lam):
    """Contrast tau solving (1 - tau) / (2 (1 + tau)) = lam.

    Exact rational in, exact rational out.  lam must lie in (-1/2, 1/2);
    lam = 0 gives tau = 1, which the material model excludes.
    """
    if not isinstance(lam, Rational):
        lam = float(lam)
    # a Fraction compares with 1/2 and combines with the integers exactly
    if not (-0.5 < lam < 0.5):
        raise ResonanceExclusionError(f"eigenvalue {lam} outside (-1/2, 1/2)")
    tau = (1 - 2 * lam) / (1 + 2 * lam)
    if tau == 1:
        raise ResonanceExclusionError(
            "lam = 0 gives tau = 1, excluded by the material assumptions"
        )
    return tau


@dataclass
class PlasmonMode:
    """A weak-resonance mode: eigenvalue, resonant materials, density and surface.

    A general mode keeps its grid; a sphere mode's surface is its sphere.
    Mode fields are those of the unit-size particle: delta = 1.
    """

    lam: float
    materials: MaterialConfig
    density: TangentField = None
    sphere: SphereMode = None
    index: int = None
    grid: SurfaceGrid = None

    @classmethod
    def _resonant(cls, lam, omega, **where):
        """The mode of eigenvalue lam at its resonant contrast."""
        tau = float(resonance_tau(lam))
        return cls(lam=float(lam), materials=MaterialConfig(tau, omega, delta=1.0), **where)

    @classmethod
    def from_sphere(cls, l, n, m, radius=1.0, omega=1.0):
        return cls._resonant(sphere_mnp_eigenvalue(l, n), omega, sphere=SphereMode(l, n, m, radius))

    @classmethod
    def from_eigenmode(cls, j, grid: SurfaceGrid, L: int, omega=1.0):
        """Curl eigenmode j of `mnp_spectra(grid, L)`, kept with its grid."""
        curl = mnp_spectra(grid, L)[0]
        dens = TangentField.from_potentials(V=ShCoeffs(L, curl.vectors[:, j]), L=L, flavor="curl")
        return cls._resonant(curl.eigenvalues[j], omega, density=dens, index=j, grid=grid)

    @property
    def tau(self):
        return self.materials.tau

    def at_eigenvalue(self, lam):
        """The same density at the resonant contrast of eigenvalue lam; omega and delta kept."""
        if lam == self.lam:
            return self
        mats = replace(self.materials, tau=resonance_tau(lam))
        return replace(self, lam=float(lam), materials=mats)

    def distance(self, points):
        """Distance of points (P, 3) from the mode's surface: `tubular_distance` on a grid,
        the exact | |x| - radius | on a sphere."""
        if self.sphere is None:
            return tubular_distance(points, self.grid)
        return np.abs(np.linalg.norm(points, axis=-1) - self.sphere.radius)


def _shared_surface(modes):
    """modes[0], whose grid, or sphere radius, every mode shares; else ValueError."""
    surfaces = {(id(m.grid), None if m.sphere is None else m.sphere.radius) for m in modes}
    if len(surfaces) != 1:
        raise ValueError(f"a mode family needs one surface; these modes lie on {len(surfaces)}")
    return modes[0]


def plasmon_field(mode: PlasmonMode, x):
    """Electric and magnetic mode fields at a point off the boundary.

    `_field_batch` for one mode at one point.
    """
    E, H = _field_batch([mode], np.asarray(x, dtype=float)[None])
    return E[0, 0], H[0, 0]


@dataclass
class DecayReport:
    """Per-mode field norms over a point cloud and localization summaries.

    Norms and point magnitudes of the members of an eigenvalue cluster are
    the cluster's RMS, so they do not depend on the basis of the eigenspace.
    """

    mode_ids: list
    eigenvalues: np.ndarray
    taus: np.ndarray
    distances: np.ndarray
    e_norms: np.ndarray
    h_norms: np.ndarray
    e_point_mags: np.ndarray  # (n_modes, n_points)
    h_point_mags: np.ndarray
    partial_sums: np.ndarray
    plateau: bool
    plateau_fraction: float
    fitted_rate: float
    statistic: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "mode_ids": [str(m) for m in self.mode_ids],
            "eigenvalues": self.eigenvalues.tolist(),
            "taus": self.taus.tolist(),
            "distances": self.distances.tolist(),
            "e_norms": self.e_norms.tolist(),
            "h_norms": self.h_norms.tolist(),
            "partial_sums": self.partial_sums.tolist(),
            "plateau": bool(self.plateau),
            "plateau_fraction": float(self.plateau_fraction),
            "fitted_rate": float(self.fitted_rate),
            "statistic": self.statistic,
        }

    def csv_rows(self):
        """The `decay.csv` rows, mode-major, yielded one at a time."""
        for j, mid in enumerate(self.mode_ids):
            for p in range(self.distances.size):
                yield (
                    mid,
                    float(self.eigenvalues[j]),
                    float(self.taus[j]),
                    p,
                    float(self.distances[p]),
                    float(self.e_point_mags[j, p]),
                    float(self.h_point_mags[j, p]),
                )


def _field_batch(modes, points):
    """E, H for every (mode, point), with (mu, k) of the side of each point.

    The modes share one surface (`_shared_surface`).  Sphere modes take the
    closed form point by point.  General modes take one `offboundary_eval`
    call over all points, with k_e on the wavenumber rows of exterior
    points and each mode's own k_c on those of interior ones: both sides
    share each block's node values, and each near point builds its patch
    once.  Interior points take one kernel pass per run of neighbouring
    modes with equal k_c, such as a cluster of `localization_scan`.
    """
    grid = _shared_surface(modes).grid
    pts = np.asarray(points, dtype=float)
    E = np.zeros((len(modes), len(pts), 3), dtype=complex)
    H = np.zeros_like(E)
    if grid is None:
        for j, m in enumerate(modes):
            for p, x in enumerate(pts):
                inside = np.linalg.norm(x) < m.sphere.radius
                k = m.materials.side(inside)[1]
                c, cc = (exact_sphere_potential(m.sphere, k, x, w) for w in ("curlS", "curlcurlS"))
                E[j, p], H[j, p] = em_fields(m.materials, inside, (c, c), (cc, cc))
        return E, H
    inside = radial_gap(pts, grid) < 0
    ks = np.array([[m.materials.side(side)[1] for m in modes] for side in (False, True)])
    dens = [m.density for m in modes]
    kinds = ("curlS_vec", "curlcurlS_vec")
    curl, curlcurl = offboundary_eval(dens, ks[inside.astype(int)], pts, kinds, grid)
    for side in (False, True):
        cols = inside == side
        for j, m in enumerate(modes):
            c, cc = curl[cols, ..., j], curlcurl[cols, ..., j]
            E[j, cols], H[j, cols] = em_fields(m.materials, side, (c, c), (cc, cc))
    return E, H


def localization_scan(modes, points, eps):
    """Field-norm survey of a mode family over a fixed point cloud.

    Modes, at least two, are ordered by |eigenvalue| descending and
    grouped into eigenvalue clusters (`eigenvalue_clusters`).  Every member
    of a cluster is evaluated at the cluster's mean eigenvalue, so with one
    contrast, and reports the cluster's RMS point magnitudes: a unitary
    change of basis inside a cluster leaves the report unchanged up to
    round-off.  The modes must share one surface (`_shared_surface`).  Every
    point must keep a distance from it (`PlasmonMode.distance`) above eps,
    and a radial gap above the near rule's floor (`offboundary_eval`), or
    NearBoundaryError is raised.  The report carries per-mode norms, the
    partial sums of squared norms, a plateau flag (last-quartile growth at
    most PLATEAU_THRESHOLD), a fitted log-decay rate, and the
    o(j^{-KAPPA}) exceedance statistic of the electric norms.  The fields
    take one `offboundary_eval` call (`_field_batch`), so besides the
    (modes, points) field arrays its memory does not grow with the mode count.
    """
    pts = np.asarray(points, dtype=float)
    dists = _shared_surface(modes).distance(pts)
    if np.any(dists <= eps):
        bad = int(np.argmin(dists))
        raise NearBoundaryError(
            f"point {bad} at distance {dists[bad]:.3g} lies inside the tube of eps = {eps:.3g}; "
            "lower eps or move the point out"
        )
    if len(modes) < 2:
        raise ValueError(f"a decay rate needs at least two modes, got {len(modes)}")
    modes = sorted(modes, key=lambda m: -abs(m.lam))
    lam = np.array([m.lam for m in modes])
    cluster = eigenvalue_clusters(lam)
    size = np.bincount(cluster)
    lam_c = np.bincount(cluster, lam) / size
    shared = [m.at_eigenvalue(lam_c[c]) for m, c in zip(modes, cluster)]
    E, H = _field_batch(shared, pts)

    def cluster_rms(F):
        sq = np.zeros((size.size, len(pts)))
        np.add.at(sq, cluster, np.linalg.norm(F, axis=2) ** 2)
        return np.sqrt(sq / size[:, None])[cluster]

    e_mags, h_mags = cluster_rms(E), cluster_rms(H)
    e_norms = np.sqrt(np.sum(e_mags**2, axis=1))
    h_norms = np.sqrt(np.sum(h_mags**2, axis=1))
    sums = np.cumsum(e_norms**2 + h_norms**2)
    q = max(1, (3 * len(modes)) // 4)
    growth = (sums[-1] - sums[q - 1]) / sums[-1]
    j = np.arange(1, len(modes) + 1)
    fit = np.polyfit(np.log(j), np.log(np.maximum(e_norms, 1e-300)), 1)
    n_grid = [n for n in (len(modes) // 4, len(modes) // 2, len(modes)) if n > 0]
    # the exceedance test is applied to the max-normalized sequence so the
    # sigma grid has a scale-free meaning
    stat = almost_sure_statistic(e_norms / np.max(e_norms), [0.9, 0.7, 0.5], n_grid)
    ids = [m.index if m.index is not None else str(m.sphere) for m in modes]
    return DecayReport(
        mode_ids=ids,
        eigenvalues=lam,
        taus=np.array([m.tau for m in modes]),
        distances=dists,
        e_norms=e_norms,
        h_norms=h_norms,
        e_point_mags=e_mags,
        h_point_mags=h_mags,
        partial_sums=sums,
        plateau=bool(growth <= PLATEAU_THRESHOLD),
        plateau_fraction=float(growth),
        fitted_rate=float(fit[0]),
        statistic=stat,
    )


def almost_sure_statistic(c, sigma_grid, N_grid):
    """Exceedance-density table for the o(j^{-KAPPA}) criterion.

    fraction(sigma, N) = #{j <= N : |c_j| > sigma j^{-KAPPA}} / N.  The
    verdict is positive when, for every sigma, the fraction at the largest
    N is at most EXCEEDANCE_THRESHOLD and does not grow along N.
    """
    c = np.abs(np.asarray(c, dtype=float))
    if not sigma_grid or not N_grid:
        raise ValueError("sigma and N grids must be nonempty")
    N_grid = sorted(int(N) for N in N_grid)
    if c.size < N_grid[-1]:
        raise ValueError("sequence shorter than the largest N requested")
    j = np.arange(1, c.size + 1)
    table = {}
    verdict = True
    for sigma in sigma_grid:
        exceed = c > sigma * j ** (-KAPPA)
        fracs = [float(np.count_nonzero(exceed[:N]) / N) for N in N_grid]
        table[float(sigma)] = fracs
        decreasing = all(fracs[i + 1] <= fracs[i] + 1e-12 for i in range(len(fracs) - 1))
        verdict = verdict and fracs[-1] <= EXCEEDANCE_THRESHOLD and decreasing
    return {
        "kappa": KAPPA,
        "N_grid": N_grid,
        "threshold": EXCEEDANCE_THRESHOLD,
        "fractions": table,
        "verdict": bool(verdict),
    }
