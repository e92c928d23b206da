"""Batch command-line front end.

Runs spectra, identity checks, plasmon/localization scans, scattering
sweeps and sphere-oracle checks from a JSON config, writing CSV/JSON
artifacts with a provenance header.  Artifacts are deterministic for a
fixed config and seed: bodies are byte-identical across runs except for
the timestamp header line.

Exit codes: 0 success, 1 config validation error, 2 numerical-accuracy
failure (guard or tolerance breach).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .mie import SphereMode, exact_sphere_potential, mode_tangent_field
from .plasmon import PlasmonMode, localization_scan
from .potentials import (
    AssemblyAccuracyError,
    NearBoundaryError,
    RegularizationError,
    ResonanceError,
    offboundary_eval,
    scalar_operators,
)
from .quadrature import correction_polar_order, default_polar_order
from .scatter import resonance_sweep
from .sphharm import fibonacci_shell
from .spectral import (
    calderon_residual,
    mnp_spectra,
    np_spectrum,
    scalar_calderon_residual,
)
from .surface import (
    ResolutionError,
    ShCoeffs,
    StarShapeError,
    SurfaceGrid,
    TangentField,
    build_surface,
    radius_from_json,
    random_band_limited,
)

COMMANDS = ("spectrum", "calderon", "plasmon", "decay", "scatter", "mie-check")


class ConfigError(ValueError):
    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _integer(value, name):
    """value as an int; a ConfigError naming the field unless it is integral.

    Integral numbers and strings of an integer ("8") are accepted.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}", name)


def _is_number(value):
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _number(value, name):
    """value as a float; a ConfigError naming the field unless it is a finite number."""
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}", name)
    return float(value)


def _object(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object", name)
    return value


def _entries(spec, name, types):
    """Copy of the object spec with each present key of types converted by its type."""
    out = dict(_object(spec, name))
    for key, conv in types.items():
        if key in out:
            out[key] = conv(out[key], f"{name}.{key}")
    return out


def _required(spec, name, keys):
    for key in keys:
        if key not in spec:
            raise ConfigError(f"{name} needs a {key!r} entry", f"{name}.{key}")
    return spec


def _vector3(value, name):
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{name} must be a list of 3 numbers", name)
    return [_number(v, name) for v in value]


def _points(value, name):
    """Shell specs [{count, radius}, ...] with an integer count >= 1 and a numeric radius."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of {{count, radius}} objects", name)
    shells = []
    for i, shell in enumerate(value):
        where = f"{name}[{i}]"
        shell = _entries(shell, where, {"count": _integer, "radius": _number})
        _required(shell, where, ("count", "radius"))
        if shell["count"] < 1:
            raise ConfigError(f"{where}.count must be at least 1", f"{where}.count")
        shells.append(shell)
    return shells


def _plasmon_mode(value, name):
    """A sphere mode {l, n, m[, radius]} or an eigenmode {index}, with integer entries."""
    if not value:
        raise ConfigError("plasmon needs a 'mode' entry", name)
    spec = _entries(value, name, {"l": _integer, "n": _integer, "m": _integer,
                                  "index": _integer, "radius": _number})
    _required(spec, name, ("l", "n", "m") if "l" in spec else ("index",))
    if "l" in spec:
        for key, ok, rule in (
            ("l", spec["l"] in (1, 2), "be 1 or 2"),
            ("n", spec["n"] >= 1, "be at least 1"),
            ("m", abs(spec["m"]) <= spec["n"], "satisfy |m| <= n"),
            ("radius", spec.get("radius", 1.0) > 0, "be positive"),
        ):
            if not ok:
                raise ConfigError(f"{name}.{key} must {rule}", f"{name}.{key}")
    return spec


def _order(value, name):
    order = _integer(value, name)
    if order not in (0, 1, 2):
        raise ConfigError(f"{name} must be 0, 1 or 2", name)
    return order


def _source(value, name):
    return _required(_entries(value, name, {"s": _vector3, "p": _vector3}), name, ("s", "p"))


# per command: the typed entries of the config and their conversions
_PARAMS = {
    "calderon": {"n_tests": _integer},
    "plasmon": {"points": _points},
    "decay": {"points": _points, "eps": _number},
    "scatter": {"order": _order, "source": _source},
    "mie-check": {"n_max": _integer, "k": _number, "radius": _number},
}


@dataclass
class RunConfig:
    """Validated batch-run configuration.

    L_quad is the grid degree of the run: the surface's L_quad raised to L
    if below, or mie-check's own L_quad entry (default 16).
    """

    command: str
    raw: dict
    surface: dict = None
    L: int = None
    L_quad: int = None
    materials: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        command = data.get("command")
        if command not in COMMANDS:
            raise ConfigError(f"unknown or missing command {command!r}", "command")
        cfg = cls(command=command, raw=data)
        if command == "mie-check":
            cfg.L_quad = _integer(data.get("L_quad", 16), "L_quad")
        else:
            if "surface" not in data:
                raise ConfigError("missing surface specification", "surface")
            cfg.surface = _object(data["surface"], "surface")
            if "L" not in data:
                raise ConfigError("missing truncation degree L", "L")
            cfg.L = _integer(data["L"], "L")
            if not (1 <= cfg.L <= 60):
                raise ConfigError("L out of the documented range [1, 60]", "L")
            cfg.L_quad = max(_integer(cfg.surface.get("L_quad", cfg.L), "surface.L_quad"), cfg.L)
        cfg.materials = _entries(
            data.get("materials", {}), "materials", dict.fromkeys(("omega", "tau", "delta"), _number)
        )
        for key in ("tau_list", "delta_list"):
            values = data.get(key, [])
            if not isinstance(values, list) or not all(map(_is_number, values)):
                raise ConfigError(f"{key} must be a list of numbers", key)
        if any(t <= 0 or t == 1 for t in data.get("tau_list", [])):
            raise ConfigError("tau_list entries must be positive and differ from 1", "tau_list")
        if "omega" in cfg.materials and cfg.materials["omega"] <= 0:
            raise ConfigError("omega must be positive", "materials.omega")
        if "delta" in cfg.materials and cfg.materials["delta"] < 0:
            raise ConfigError("delta must be nonnegative", "materials.delta")
        cfg.params = {
            k: v
            for k, v in data.items()
            if k not in ("command", "surface", "L", "materials", "output")
        }
        for key, conv in _PARAMS.get(command, {}).items():
            if key in cfg.params:
                cfg.params[key] = conv(cfg.params[key], key)
        if command == "plasmon":
            cfg.params["mode"] = _plasmon_mode(cfg.params.get("mode"), "mode")
        return cfg

    def build_grid(self) -> SurfaceGrid:
        spec = self.surface
        if "sphere" in spec:
            radius = ShCoeffs.constant(float(spec["sphere"]))
        elif "radius" in spec:
            radius = radius_from_json(spec)
        else:
            raise ConfigError("surface needs 'radius' entries or 'sphere'", "surface")
        return build_surface(radius, self.L_quad)


def config_hash(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def report_version_and_provenance(cfg=None, tol=None, seed=0, L_quad=None):
    """Provenance lines embedded in every artifact header.

    cfg is the raw config dict; its command selects the quadrature line.
    """
    import scipy

    command = cfg.get("command") if isinstance(cfg, dict) else None
    quadrature = "quadrature: rotated-polar-gl"
    if command == "mie-check":
        quadrature = "quadrature: surface-grid nodes (no polar rule)"
    elif L_quad is not None:
        quadrature += f" (n_polar={default_polar_order(L_quad)})"
        if command == "scatter":
            quadrature += f", corrections (n_polar={correction_polar_order(L_quad)})"
    lines = [
        f"mnpspr {__version__}",
        f"numpy {np.__version__}, scipy {scipy.__version__}",
        quadrature,
        f"L_quad: {L_quad if L_quad is not None else 'n/a'}",
        f"tolerance: {tol if tol is not None else 'default'}",
        f"seed: {seed}",
    ]
    if cfg is not None:
        lines.append(f"config_hash: {config_hash(cfg)}")
    return lines


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12e}"
    if isinstance(x, complex):
        return f"{x.real:.12e}{x.imag:+.12e}j"
    return str(x)


def write_csv(path, header_lines, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, header_lines, payload):
    out = {"provenance": header_lines, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    out.update(payload)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _shell_points(spec):
    """Deterministic spiral point cloud from {count, radius} entries."""
    return np.vstack([fibonacci_shell(e["count"], e["radius"]) for e in spec])


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_spectrum(cfg, outdir, header, rng, tol):
    grid = cfg.build_grid()
    ops = scalar_operators(grid, cfg.L)
    nps = np_spectrum(ops["S"], ops["Kstar"])
    curl, grad = mnp_spectra(nps, ops["S"], grid)
    rows = []
    for tag, st in (("Kstar", nps), ("M_curl", curl), ("Mstar_grad", grad)):
        for j, lam, mult in st.eigenvalue_table():
            rows.append((tag, j, lam, mult))
    write_csv(
        os.path.join(outdir, "spectrum.csv"),
        header,
        ["operator", "j", "lambda", "multiplicity_cluster"],
        rows,
    )
    write_json(
        os.path.join(outdir, "spectrum.json"),
        header,
        {"sets": [nps.to_json_dict(), curl.to_json_dict(), grad.to_json_dict()]},
    )
    return 0


def cmd_calderon(cfg, outdir, header, rng, tol):
    grid = cfg.build_grid()
    ops = scalar_operators(grid, cfg.L)
    n_tests = cfg.params.get("n_tests", 10)
    rows = []
    worst = 0.0
    for i in range(n_tests):
        t = TangentField.from_potentials(
            V=random_band_limited(rng, max(cfg.L - 3, 1), 2.5), L=cfg.L, flavor="curl"
        )
        r = calderon_residual("curl", t, ops, grid)
        rows.append(("curl", i, r))
        t2 = TangentField.from_potentials(
            X=random_band_limited(rng, max(cfg.L - 3, 1), 2.5), L=cfg.L, flavor="div"
        )
        r2 = calderon_residual("grad", t2, ops, grid)
        rows.append(("grad", i, r2))
        worst = max(worst, r, r2)
    scal = scalar_calderon_residual(ops)
    write_csv(
        os.path.join(outdir, "calderon.csv"),
        header,
        ["identity", "test", "residual"],
        rows,
    )
    write_json(
        os.path.join(outdir, "calderon.json"),
        header,
        {"worst_residual": worst, "scalar_residual": scal, "tolerance": tol},
    )
    if tol is not None and worst > tol:
        raise AssemblyAccuracyError(
            f"commutation residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0


def cmd_plasmon(cfg, outdir, header, rng, tol):
    grid = cfg.build_grid()
    omega = float(cfg.materials.get("omega", 1.0))
    spec = cfg.params["mode"]
    if "l" in spec:
        mode = PlasmonMode.from_sphere(
            spec["l"], spec["n"], spec["m"], spec.get("radius", 1.0), omega,
            float(cfg.materials.get("delta", 0.05)),
        )
    else:
        ops = scalar_operators(grid, cfg.L)
        curl, _ = mnp_spectra(np_spectrum(ops["S"], ops["Kstar"]), ops["S"], grid)
        if not 0 <= spec["index"] < len(curl):
            raise ConfigError(
                f"mode.index must lie in [0, {len(curl)}), the curl modes at L = {cfg.L}",
                "mode.index",
            )
        mode = PlasmonMode.from_eigenmode(
            spec["index"], curl, omega, float(cfg.materials.get("delta", 0.05))
        )
    points = _shell_points(cfg.params.get("points", [{"count": 20, "radius": 2.0}]))
    from .plasmon import _field_batch
    from .surface import tubular_distance

    E, H = _field_batch([mode], points, grid, "auto")
    dists = tubular_distance(points, grid)
    mode_id = str(mode.index if mode.index is not None else mode.sphere)
    rows = [
        (mode_id, mode.lam, mode.tau, p_id, float(dists[p_id]),
         float(np.linalg.norm(E[0, p_id])), float(np.linalg.norm(H[0, p_id])))
        for p_id in range(len(points))
    ]
    write_csv(
        os.path.join(outdir, "plasmon.csv"),
        header,
        ["mode", "lambda", "tau", "point", "dist", "abs_E", "abs_H"],
        rows,
    )
    return 0


def cmd_decay(cfg, outdir, header, rng, tol):
    grid = cfg.build_grid()
    omega = float(cfg.materials.get("omega", 1.0))
    ops = scalar_operators(grid, cfg.L)
    curl, _ = mnp_spectra(np_spectrum(ops["S"], ops["Kstar"]), ops["S"], grid)
    modes = [PlasmonMode.from_eigenmode(j, curl, omega) for j in range(len(curl))]
    points = _shell_points(
        cfg.params.get(
            "points", [{"count": 40, "radius": 3.0}, {"count": 10, "radius": 0.25}]
        )
    )
    eps = cfg.params.get("eps", 0.5)
    report = localization_scan(modes, points, eps, grid)
    write_csv(
        os.path.join(outdir, "decay.csv"),
        header,
        ["mode", "lambda", "tau", "point", "dist", "abs_E", "abs_H"],
        report.csv_rows(),
    )
    write_json(os.path.join(outdir, "decay.json"), header, report.to_json_dict())
    return 0


def cmd_scatter(cfg, outdir, header, rng, tol):
    grid = cfg.build_grid()
    omega = float(cfg.materials.get("omega", 1.0))
    tau_list = cfg.params.get("tau_list", [0.5])
    delta_list = cfg.params.get("delta_list", [0.1, 0.05, 0.025])
    order = cfg.params.get("order", 2)
    src = cfg.params.get("source", {"s": [0.0, 0.0, 6.0], "p": [1.0, 0.0, 0.0]})
    rows = resonance_sweep(
        grid, tau_list, delta_list, omega, order,
        np.asarray(src["s"], dtype=float), np.asarray(src["p"], dtype=float),
    )
    write_csv(
        os.path.join(outdir, "scatter.csv"),
        header,
        ["tau", "delta", "indicator", "solution_norm", "condition"],
        rows,
    )
    return 0


def cmd_mie_check(cfg, outdir, header, rng, tol):
    n_max = cfg.params.get("n_max", 5)
    k = cfg.params.get("k", 1.0)
    radius = cfg.params.get("radius", 1.0)
    L_quad = cfg.L_quad
    grid = build_surface(ShCoeffs.constant(radius), L_quad)
    tol = 1e-6 if tol is None else tol
    rows = []
    worst = 0.0
    kinds = ("curlS", "curlcurlS")
    for l in (1, 2):
        errs = {}
        for side, rfac in (("exterior", 2.0), ("interior", 0.5)):
            x = rfac * radius * np.array([0.6, 0.64, 0.48])
            for n in range(1, n_max + 1):
                mode = SphereMode(l, n, min(1, n), radius)
                dens = mode_tangent_field(mode, min(L_quad, n_max + 7))
                nums = offboundary_eval(dens, k, x, tuple(w + "_vec" for w in kinds), grid)
                for which, num in zip(kinds, nums):
                    ex = exact_sphere_potential(mode, k, x, which)
                    err = float(np.max(np.abs(num - ex)) / np.max(np.abs(ex)))
                    errs[which, side] = max(errs.get((which, side), 0.0), err)
        for which in kinds:
            for side in ("exterior", "interior"):
                err = errs[which, side]
                rows.append((l, which, side, err, err <= tol))
                worst = max(worst, err)
    n_pass = sum(1 for r in rows if r[4])
    write_csv(
        os.path.join(outdir, "mie_check.csv"),
        header,
        ["family", "kind", "side", "max_rel_err", "pass"],
        rows,
    )
    write_json(
        os.path.join(outdir, "mie_check.json"),
        header,
        {
            "report": f"{n_pass}/8 exact-formula oracles pass <= {tol:g}",
            "worst": worst,
            "n_max": n_max,
        },
    )
    if n_pass != 8:
        raise AssemblyAccuracyError(
            f"only {n_pass}/8 oracle comparisons met {tol:g} (worst {worst:.3e})"
        )
    return 0


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "calderon": cmd_calderon,
    "plasmon": cmd_plasmon,
    "decay": cmd_decay,
    "scatter": cmd_scatter,
    "mie-check": cmd_mie_check,
}


def run(config, outdir=".", tol=None, seed=0) -> int:
    """Execute a validated config; returns the process exit status."""
    try:
        cfg = RunConfig.from_dict(config)
    except (ConfigError, StarShapeError, ResolutionError) as exc:
        _emit_error(outdir, 1, exc)
        return 1
    header = report_version_and_provenance(config, tol, seed, cfg.L_quad)
    rng = np.random.default_rng(seed)
    try:
        return _HANDLERS[cfg.command](cfg, outdir, header, rng, tol)
    except (ConfigError, StarShapeError, ResolutionError, KeyError) as exc:
        _emit_error(outdir, 1, exc)
        return 1
    except (
        AssemblyAccuracyError,
        NearBoundaryError,
        RegularizationError,
        ResonanceError,
    ) as exc:
        _emit_error(outdir, 2, exc)
        return 2


def _emit_error(outdir, code, exc):
    payload = {
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
            "field": getattr(exc, "field", None),
        }
    }
    sys.stderr.write(json.dumps(payload) + "\n")
    try:
        with open(os.path.join(outdir, "error.json"), "w") as fh:
            json.dump(payload, fh, indent=1)
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mnpspr", description="boundary-operator spectra and plasmon scans"
    )
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error(args.out, 1, ConfigError(f"cannot read config: {exc}"))
        return 1
    os.makedirs(args.out, exist_ok=True)
    return run(config, args.out, args.tol, args.seed)


if __name__ == "__main__":
    sys.exit(main())
