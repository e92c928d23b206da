"""Seeded CLI configs for the benchmark workloads and checks of their outputs.

A seed sets input values only (surface coefficients, shell radii, sweep
taus, dipole source); sizes are fixed per workload, so every seed does the
same amount of work.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

SQRT_4PI = math.sqrt(4.0 * math.pi)

# per workload: the files its command writes
ARTIFACTS = {
    "spectrum-general": ("spectrum.csv", "spectrum.json"),
    "decay-axisym": ("decay.csv", "decay.json"),
    "scatter-sweep": ("scatter.csv",),
}
WORKLOADS = tuple(ARTIFACTS)
DEFAULT_SEED = 0
DELTAS = (0.1, 0.05, 0.025)


def _rng(name, seed):
    # one independent stream per workload, so seeds do not alias across them
    return np.random.default_rng([WORKLOADS.index(name), int(seed)])


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _axisym_radius(rng):
    """1 + a Re Y_2^0 + b Re Y_3^0, a and b in +-0.08."""
    a, b = rng.uniform(-0.08, 0.08, size=2)
    return [[0, 0, SQRT_4PI, 0.0], [2, 0, float(a), 0.0], [3, 0, float(b), 0.0]]


def _general_radius(rng, amp=0.05):
    """Unit sphere plus a real perturbation of degree <= 2, every order.

    Degree 3 is left out: at amplitude 0.05 it breaks the 1e-8 S/K guards
    even with L_quad = L + 4.
    """
    entries = [[0, 0, SQRT_4PI, 0.0]]
    for n in (1, 2):
        entries.append([n, 0, float(rng.uniform(-amp, amp)), 0.0])
        for m in range(1, n + 1):
            c = complex(*rng.uniform(-amp, amp, size=2)) / math.sqrt(2.0)
            # conjugate symmetry c_{n,-m} = (-1)^m conj(c_{n,m}) keeps rho real
            cm = (-1) ** m * c.conjugate()
            entries.append([n, m, c.real, c.imag])
            entries.append([n, -m, cm.real, cm.imag])
    return entries


def make_config(name, seed, L=None):
    """CLI config of workload `name` for `seed`; `L` shrinks it for smoke tests."""
    rng = _rng(name, seed)
    if name == "spectrum-general":
        L = 12 if L is None else L
        return {
            "command": "spectrum",
            "L": L,
            "surface": {"radius": _general_radius(rng), "L_quad": L + 4},
        }
    if name == "decay-axisym":
        L = 10 if L is None else L
        radius = _axisym_radius(rng)
        r_out, r_in = rng.uniform(2.5, 3.5), rng.uniform(0.2, 0.3)
        return {
            "command": "decay",
            "L": L,
            "surface": {"radius": radius, "L_quad": L},
            "points": [
                {"count": 40, "radius": float(r_out)},
                {"count": 10, "radius": float(r_in)},
            ],
        }
    if name == "scatter-sweep":
        L = 8 if L is None else L
        radius = _axisym_radius(rng)
        taus = sorted(float(t) for t in rng.uniform(0.3, 0.9, size=2))
        return {
            "command": "scatter",
            "L": L,
            "surface": {"radius": radius, "L_quad": L},
            "order": 2,
            "tau_list": taus,
            "delta_list": list(DELTAS),
            "source": {"s": (6.0 * _unit(rng)).tolist(), "p": _unit(rng).tolist()},
        }
    raise KeyError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def _csv_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _clusters(values, tol=1e-6):
    """Indices of an eigenvalue list grouped into clusters of equal value (to tol)."""
    order = np.argsort(values)
    groups, cur = [], [order[0]]
    for i, j in zip(order[:-1], order[1:]):
        if values[j] - values[i] > tol:
            groups.append(cur)
            cur = []
        cur.append(j)
    groups.append(cur)
    return groups


def summarize(name, outdir):
    """Numbers the checks look at, read back from the artifacts."""
    if name == "spectrum-general":
        sets = {}
        for row in _csv_rows(os.path.join(outdir, "spectrum.csv")):
            sets.setdefault(row["operator"], []).append(float(row["lambda"]))
        with open(os.path.join(outdir, "spectrum.json")) as fh:
            body = json.load(fh)
        json_sets = {s["operator"]: s["eigenvalues"] for s in body["sets"]}
        return {"eigenvalues": sets, "json_eigenvalues": json_sets}
    if name == "decay-axisym":
        with open(os.path.join(outdir, "decay.json")) as fh:
            body = json.load(fh)
        lam = np.asarray(body["eigenvalues"])
        e2 = np.asarray(body["e_norms"]) ** 2
        h2 = np.asarray(body["h_norms"]) ** 2
        groups = _clusters(lam)
        return {
            "eigenvalues": body["eigenvalues"],
            "e_norms": body["e_norms"],
            "h_norms": body["h_norms"],
            "partial_sums": body["partial_sums"],
            "cluster_e2": [float(e2[g].sum()) for g in groups],
            "cluster_h2": [float(h2[g].sum()) for g in groups],
            "csv_rows": len(_csv_rows(os.path.join(outdir, "decay.csv"))),
        }
    if name == "scatter-sweep":
        rows = _csv_rows(os.path.join(outdir, "scatter.csv"))
        cols = ("tau", "delta", "indicator", "solution_norm", "condition")
        return {c: [float(r[c]) for r in rows] for c in cols}
    raise KeyError(f"unknown workload {name!r}")


def check_invariants(name, config, s):
    """Checks that hold for every seed; returns a list of failure messages."""
    bad = []
    if name == "spectrum-general":
        ev = s["eigenvalues"]
        if set(ev) != {"Kstar", "M_curl", "Mstar_grad"}:
            return [f"spectrum sets {sorted(ev)}"]
        k, c, g = (np.asarray(ev[t]) for t in ("Kstar", "M_curl", "Mstar_grad"))
        if abs(k.max() - 0.5) > 1e-8:
            bad.append(f"top K* eigenvalue {k.max():.12g} is not 1/2 to 1e-8")
        if c.size != k.size - 1:
            bad.append(f"M_curl has {c.size} eigenvalues, K* has {k.size}")
        if _max_abs_diff(np.sort(g), np.sort(-c)) > 1e-12:
            bad.append("Mstar_grad is not -M_curl as a sorted set")
        for t, v in (("Kstar", k), ("M_curl", c), ("Mstar_grad", g)):
            if not (np.all(v > -0.5) and np.all(v <= 0.5 + 1e-8)):
                bad.append(f"{t} eigenvalues leave (-1/2, 1/2]")
            if _max_abs_diff(s["json_eigenvalues"].get(t, []), v) > 1e-11:
                bad.append(f"{t} eigenvalues differ between CSV and JSON")
    elif name == "decay-axisym":
        e, h, ps = (np.asarray(s[k]) for k in ("e_norms", "h_norms", "partial_sums"))
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(h))):
            bad.append("non-finite decay norm")
        elif not (np.all(e > 0) and np.all(h > 0)):
            bad.append("decay norm not positive")
        if np.any(np.diff(ps) < 0) or not np.all(np.isfinite(ps)):
            bad.append("partial sums decrease or are not finite")
        n_pts = sum(p["count"] for p in config["points"])
        if s["csv_rows"] != e.size * n_pts:
            bad.append(f"decay.csv has {s['csv_rows']} rows for {e.size} modes x {n_pts} points")
    elif name == "scatter-sweep":
        n = len(config["tau_list"]) * len(config["delta_list"])
        if len(s["tau"]) != n:
            bad.append(f"scatter.csv has {len(s['tau'])} rows, expected {n}")
        for col, vals in s.items():
            if not np.all(np.isfinite(vals)):
                bad.append(f"non-finite scatter {col}")
    return bad


def _max_abs_diff(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or got.size == 0:
        return math.inf
    return float(np.max(np.abs(got - want)))


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or got.size == 0:
        return math.inf
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def check_golden(name, s, golden):
    """Compare with values recorded at the default seed, by tolerance."""
    bad = []
    g = golden[name]
    if name == "spectrum-general":
        for t, want in g["eigenvalues"].items():
            if _max_abs_diff(s["eigenvalues"].get(t, []), want) > 1e-9:
                bad.append(f"{t} eigenvalues differ from golden by more than 1e-9")
    elif name == "decay-axisym":
        if _max_abs_diff(s["eigenvalues"], g["eigenvalues"]) > 1e-9:
            bad.append("decay eigenvalues differ from golden by more than 1e-9")
        # single modes of a degenerate +-m pair depend on the eigensolver's
        # basis; the cluster sums of squares do not
        for k in ("cluster_e2", "cluster_h2"):
            if _rel_err(s[k], g[k]) > 1e-6:
                bad.append(f"decay {k} differs from golden by more than 1e-6 relative")
    elif name == "scatter-sweep":
        for k in ("tau", "delta", "indicator", "solution_norm"):
            if _rel_err(s[k], g[k]) > 1e-7:
                bad.append(f"scatter {k} differs from golden by more than 1e-7 relative")
        # the condition number is an SVD today and may become an estimate
        got, want = np.asarray(s["condition"]), np.asarray(g["condition"])
        if got.shape != want.shape or np.any(np.abs(np.log10(got / want)) > 1.0):
            bad.append("scatter condition outside a factor 10 of golden")
    return bad


def golden_record(name, s):
    """The subset of a summary kept as golden values."""
    keys = {
        "spectrum-general": ("eigenvalues",),
        "decay-axisym": ("eigenvalues", "cluster_e2", "cluster_h2"),
        "scatter-sweep": ("tau", "delta", "indicator", "solution_norm", "condition"),
    }[name]
    return {k: s[k] for k in keys}


def check_outputs(name, config, outdir, seed, golden):
    """All checks on one invocation's artifacts; [] when they pass."""
    try:
        s = summarize(name, outdir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc}"]
    bad = check_invariants(name, config, s)
    if seed == DEFAULT_SEED and golden is not None:
        bad += check_golden(name, s, golden)
    return bad
