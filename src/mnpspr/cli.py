"""Batch command-line front end.

Runs spectra, identity checks, plasmon/localization scans, scattering
sweeps and sphere-oracle checks from a JSON config, writing CSV/JSON
artifacts with a provenance header.  Artifacts are deterministic for a
fixed config and seed: bodies are byte-identical across runs except for
the timestamp header line.

Exit codes: 0 success, 1 config or command-line validation error, 2
numerical-accuracy failure (a point too close to the surface, or a guard or
tolerance breach).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import __version__, potentials
from .mie import sphere_oracle_errors
from .plasmon import PlasmonMode, _field_batch, localization_scan
from .potentials import (
    AssemblyAccuracyError,
    NearBoundaryError,
    RegularizationError,
    ResonanceError,
    scalar_operators,
)
from .quadrature import correction_polar_order, default_polar_order
from .scatter import SourcePlacementError, resonance_sweep
from .sphharm import fibonacci_shell, sh_degrees
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


def _number(value, name):
    """value as a float; a ConfigError naming the field unless it is a finite number."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}", name)


def _numbers(value, name):
    """A list of numbers; a bad entry names the whole list."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers", name)
    return [_number(v, name) for v in value]


def _coefficient(value, name):
    """One radius entry [n, m, re, im]: integers n >= 0 and |m| <= n, numbers re and im."""
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(f"{name} must be a list [n, m, re, im]", name)
    n = _integer(value[0], f"{name}[0]")
    m = _integer(value[1], f"{name}[1]")
    if n < 0:
        raise ConfigError(f"{name}[0] must be at least 0", f"{name}[0]")
    if abs(m) > n:
        raise ConfigError(f"{name}[1] must satisfy |m| <= n", f"{name}[1]")
    return [n, m, _number(value[2], f"{name}[2]"), _number(value[3], f"{name}[3]")]


def _list_of(conversion):
    """Conversion of a list whose i-th item takes `conversion` as field name[i]."""

    def convert(value, name):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list", name)
        return [conversion(item, f"{name}[{i}]") for i, item in enumerate(value)]

    return convert


_REQUIRED = object()  # default of an entry that the config must give


def _entries(spec, name, table):
    """The object spec typed and range-checked by table, with its defaults filled in.

    table maps each key to (conversion, rule, default).  rule is None or a
    (test, wording) pair; test(value, entries) sees the converted value and
    the entries converted before it.  default is _REQUIRED, None for an entry
    that may be left out, or a value in config form, which is converted and
    checked like a given one.  Keys that table does not list are dropped.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object", name)
    out = {}
    for key, (conversion, rule, default) in table.items():
        where = f"{name}.{key}" if name else key
        if key in spec:
            value = spec[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing entry {where}", where)
        elif default is None:
            continue
        else:
            value = default
        out[key] = conversion(value, where)
        if rule is not None and not rule[0](out[key], out):
            raise ConfigError(f"{where} must {rule[1]}", where)
    return out


def _sphere_mode(value):
    """Whether a mode entry is a sphere mode, one with l, rather than an eigenmode."""
    return isinstance(value, dict) and "l" in value


def _mode(value, name):
    """A sphere mode {l, n, m[, radius]} or an eigenmode {index}."""
    return _entries(value, name, _SPHERE_MODE if _sphere_mode(value) else _EIGENMODE)


# settings tables, key -> (conversion, rule, default), read by _entries
_POSITIVE = (lambda x, _: x > 0, "be positive")
# L and both L_quad entries; a grid's Grams grow as L_quad^4, 0.2 GB at 60
_DEGREE = (lambda n, _: 1 <= n <= 60, "lie in the documented range [1, 60]")
_AT_LEAST_1 = (lambda x, _: x >= 1, "be at least 1")
_NONEMPTY = (lambda x, _: len(x) > 0, "not be empty")
_THREE = (lambda x, _: len(x) == 3, "have 3 entries")
_HAS_SHAPE = (
    lambda s, _: ("sphere" in s) != ("radius" in s), "give exactly one of 'sphere' and 'radius'"
)
_TAUS = (lambda taus, _: all(t > 0 and t != 1 for t in taus), "have positive entries other than 1")
_DELTAS = (lambda deltas, _: all(d > 0 for d in deltas), "have positive entries")

_SURFACE = {
    "sphere": (_number, _POSITIVE, None),
    "radius": (_list_of(_coefficient), _NONEMPTY, None),
    "L_quad": (_integer, _DEGREE, None),
}
_MATERIALS = {"omega": (_number, _POSITIVE, 1.0)}
_SHELL = {
    "count": (_integer, _AT_LEAST_1, _REQUIRED),
    "radius": (_number, None, _REQUIRED),
}
_SPHERE_MODE = {
    "l": (_integer, (lambda l, _: l in (1, 2), "be 1 or 2"), _REQUIRED),
    "n": (_integer, _AT_LEAST_1, _REQUIRED),
    "m": (_integer, (lambda m, mode: abs(m) <= mode["n"], "satisfy |m| <= n"), _REQUIRED),
    "radius": (_number, _POSITIVE, 1.0),
}
_EIGENMODE = {"index": (_integer, None, _REQUIRED)}
_SOURCE = {
    "s": (_numbers, _THREE, _REQUIRED),
    "p": (_numbers, _THREE, _REQUIRED),
}
_points = _list_of(partial(_entries, table=_SHELL))

# entries of the commands that build a grid: all but mie-check and a sphere-mode plasmon
_GRID = {
    "surface": (partial(_entries, table=_SURFACE), _HAS_SHAPE, _REQUIRED),
    "L": (_integer, _DEGREE, _REQUIRED),
}
# entries of the commands that read the frequency: plasmon, decay, scatter
_OMEGA = {"materials": (partial(_entries, table=_MATERIALS), None, {})}
_CALDERON = {**_GRID, "n_tests": (_integer, _AT_LEAST_1, 10)}
# a sphere mode's closed forms read no grid
_SPHERE_PLASMON = {
    "mode": (_mode, None, _REQUIRED),
    "points": (_points, _NONEMPTY, [{"count": 20, "radius": 2.0}]),
    **_OMEGA,
}
_PLASMON = {**_GRID, **_SPHERE_PLASMON}
_DECAY = {
    **_GRID,
    "points": (_points, _NONEMPTY, [{"count": 40, "radius": 3.0}, {"count": 10, "radius": 0.25}]),
    "eps": (_number, None, 0.5),
    **_OMEGA,
}
_SCATTER = {
    **_GRID,
    "order": (_integer, (lambda order, _: order in (0, 1, 2), "be 0, 1 or 2"), 2),
    "source": (partial(_entries, table=_SOURCE), None, {"s": [0, 0, 6], "p": [1, 0, 0]}),
    **_OMEGA,
    "tau_list": (_numbers, _TAUS, [0.5]),
    "delta_list": (_numbers, _DELTAS, [0.1, 0.05, 0.025]),
}
_MIE_CHECK = {
    "L_quad": (_integer, _DEGREE, 16),
    # the run's degree min(L_quad, n_max + 7) must hold every mode n = 1..n_max
    "n_max": (_integer, (lambda n, e: 1 <= n <= e["L_quad"], "lie in [1, L_quad]"), 5),
    "k": (_number, _POSITIVE, 1.0),
    "radius": (_number, _POSITIVE, 1.0),
}


@dataclass
class RunConfig:
    """Validated batch-run configuration.

    params holds every setting the command reads, typed, range-checked and
    with the defaults of its tables filled in.  surface is the typed surface
    spec, for mie-check the sphere of its radius.  L_quad is the grid degree:
    the surface's L_quad raised to L if below, or mie-check's L_quad entry.
    A sphere-mode plasmon builds no grid: its surface and L_quad are None.
    """

    command: str
    params: dict
    surface: dict
    L_quad: int
    tol: float = None
    seed: int = 0

    @classmethod
    def from_dict(cls, data, tol=None, seed=0):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        command = data.get("command")
        if command not in COMMANDS:
            raise ConfigError(f"unknown or missing command {command!r}", "command")
        table = _HANDLERS[command][1]
        if command == "plasmon" and _sphere_mode(data.get("mode")):
            table = _SPHERE_PLASMON
        params = _entries(data, None, table)
        surface, L_quad = params.get("surface"), None
        if command == "mie-check":
            surface, L_quad = {"sphere": params["radius"]}, params["L_quad"]
        elif surface is not None:
            L_quad = max(surface.get("L_quad", params["L"]), params["L"])
        return cls(command, params, surface, L_quad, tol, seed)

    def build_grid(self) -> SurfaceGrid:
        if self.surface is None:
            return None
        if "sphere" in self.surface:
            radius = ShCoeffs.constant(self.surface["sphere"])
        else:
            radius = radius_from_json(self.surface)
        return build_surface(radius, self.L_quad)


def config_hash(data) -> str:
    """FNV-1a 64 of data's canonical JSON, in 16 hex digits.

    A fingerprint that tells configs apart, not a cryptographic digest.
    """
    h = 0xCBF29CE484222325
    for byte in json.dumps(data, sort_keys=True, separators=(",", ":")).encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def report_version_and_provenance(cfg: RunConfig):
    """Provenance lines embedded in every artifact header.

    The config_hash line fingerprints the settings the run read,
    {"command": ..., **cfg.params}.  The command selects the quadrature
    lines, the operators' rule unless it assembles none (mie-check) and
    the off-boundary rule if it evaluates fields there (decay, plasmon,
    mie-check), and whether the tolerance (calderon, mie-check) and the
    seed (calderon) are named.  The run's degree L, at which scatter
    projects its corrections, has its own line in every command that
    takes one.  A run without a grid (a sphere-mode plasmon) has no
    quadrature and no L_quad line.
    """
    L, grid = cfg.params.get("L"), []
    if cfg.L_quad is not None and cfg.command != "mie-check":
        grid.append(f"quadrature: rotated-polar-gl (n_polar={default_polar_order(cfg.L_quad)})")
    if cfg.command == "scatter":
        grid[0] += f", corrections (n_polar={correction_polar_order(L)})"
    if cfg.L_quad is not None and cfg.command in ("decay", "plasmon", "mie-check"):
        grid.append(f"off-boundary: surface-grid nodes beyond {potentials.NEAR_GUARD:g} x "
                    f"max_spacing, near rule (n_polar={potentials.NEAR_POLAR}) inside")
    grid += [f"L_quad: {cfg.L_quad}"] if cfg.L_quad is not None else []
    return [
        f"mnpspr {__version__}",
        f"numpy {np.__version__}",
        *grid,
        *([f"L: {L}"] if L is not None else []),
        *([f"tolerance: {cfg.tol if cfg.tol is not None else 'default'}"]
          if cfg.command in ("calderon", "mie-check") else []),
        *([f"seed: {cfg.seed}"] if cfg.command == "calderon" else []),
        f"config_hash: {config_hash({'command': cfg.command, **cfg.params})}",
    ]


@lru_cache(maxsize=None)
def _row_format(types):
    """The str.format template of a CSV row whose cells have these types.

    A float cell is written in .12e; a complex one in .12e too, which
    writes its real part, its signed imaginary part and j; any other cell
    as str.
    """
    return ",".join("{:.12e}" if issubclass(t, (float, complex)) else "{!s}" for t in types) + "\n"


def write_csv(path, header_lines, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(_row_format(tuple(map(type, row))).format(*row) for row in rows)


def write_json(path, header_lines, payload):
    out = {"provenance": header_lines, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **payload}
    with open(path, "w") as fh:
        fh.write(json.dumps(out, sort_keys=True) + "\n")


def _shell_points(spec):
    """Deterministic spiral point cloud from {count, radius} entries."""
    return np.vstack([fibonacci_shell(e["count"], e["radius"]) for e in spec])


# --------------------------------------------------------------------------
# commands: (cfg, grid) -> (artifacts, breach).  artifacts maps a file name
# to (columns, rows) for a .csv, or to a payload for a .json; breach is None
# or the message of a tolerance breach, which exits 2 once they are written.
# --------------------------------------------------------------------------


_FIELD_COLUMNS = ["mode", "lambda", "tau", "point", "dist", "abs_E", "abs_H"]


def cmd_spectrum(cfg, grid):
    L = cfg.params["L"]
    sets = (np_spectrum(grid, L), *mnp_spectra(grid, L))
    rows = [(st.operator, *row) for st in sets for row in st.eigenvalue_table()]
    slots = np.stack(sh_degrees(L), axis=1).tolist()
    return {
        "spectrum.csv": (["operator", "j", "lambda", "multiplicity_cluster"], rows),
        "spectrum.json": {"slots": slots, "sets": [st.to_json_dict() for st in sets]},
    }, None


def cmd_calderon(cfg, grid):
    L = cfg.params["L"]
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(cfg.params["n_tests"]):
        for identity, potential, flavor in (("curl", "V", "curl"), ("grad", "X", "div")):
            coeffs = random_band_limited(rng, max(L - 3, 1), 2.5)
            t = TangentField.from_potentials(**{potential: coeffs}, L=L, flavor=flavor)
            rows.append((identity, i, calderon_residual(identity, t, grid, L)))
    worst = max(row[2] for row in rows)
    scal = scalar_calderon_residual(scalar_operators(grid, L))
    breach = None
    if cfg.tol is not None and worst > cfg.tol:
        breach = f"commutation residual {worst:.3e} exceeds tolerance {cfg.tol:.3e}"
    return {
        "calderon.csv": (["identity", "test", "residual"], rows),
        "calderon.json": {"worst_residual": worst, "scalar_residual": scal, "tolerance": cfg.tol},
    }, breach


def cmd_plasmon(cfg, grid):
    omega, spec = cfg.params["materials"]["omega"], cfg.params["mode"]
    if "l" in spec:
        for i, shell in enumerate(cfg.params["points"]):
            if shell["radius"] == 0:
                message = "a sphere mode's closed forms have no value at its centre"
                raise ConfigError(message, f"points[{i}].radius")
        mode = PlasmonMode.from_sphere(spec["l"], spec["n"], spec["m"], spec["radius"], omega)
    else:
        L = cfg.params["L"]
        count = len(mnp_spectra(grid, L)[0])
        if not 0 <= spec["index"] < count:
            message = f"mode.index must lie in [0, {count}), the curl modes at L = {L}"
            raise ConfigError(message, "mode.index")
        mode = PlasmonMode.from_eigenmode(spec["index"], grid, L, omega)
    points = _shell_points(cfg.params["points"])
    E, H = _field_batch([mode], points)
    dists = mode.distance(points)
    mode_id = str(mode.index if mode.index is not None else mode.sphere)
    rows = [
        (mode_id, mode.lam, mode.tau, p_id, float(dists[p_id]),
         float(np.linalg.norm(E[0, p_id])), float(np.linalg.norm(H[0, p_id])))
        for p_id in range(len(points))
    ]
    return {"plasmon.csv": (_FIELD_COLUMNS, rows)}, None


def cmd_decay(cfg, grid):
    L, omega = cfg.params["L"], cfg.params["materials"]["omega"]
    count = len(mnp_spectra(grid, L)[0])
    modes = [PlasmonMode.from_eigenmode(j, grid, L, omega) for j in range(count)]
    points = _shell_points(cfg.params["points"])
    report = localization_scan(modes, points, cfg.params["eps"])
    return {
        # the rows are made as write_csv writes them, never held as a table
        "decay.csv": (_FIELD_COLUMNS, report.csv_rows()),
        "decay.json": report.to_json_dict(),
    }, None


def cmd_scatter(cfg, grid):
    p = cfg.params
    rows = resonance_sweep(
        grid, p["tau_list"], p["delta_list"], p["materials"]["omega"], p["order"],
        np.asarray(p["source"]["s"]), np.asarray(p["source"]["p"]), p["L"],
    )
    columns = ["tau", "delta", "indicator", "solution_norm", "condition"]
    return {"scatter.csv": (columns, rows)}, None


def cmd_mie_check(cfg, grid):
    n_max, k, radius = cfg.params["n_max"], cfg.params["k"], cfg.params["radius"]
    tol = 1e-6 if cfg.tol is None else cfg.tol
    errs = sphere_oracle_errors(grid, n_max, k, radius, min(cfg.L_quad, n_max + 7))
    rows = [(l, which, side, err, err <= tol) for (l, which, side), err in errs.items()]
    worst = max(row[3] for row in rows)
    n_pass = sum(row[4] for row in rows)
    breach = None
    if n_pass != 8:
        breach = f"only {n_pass}/8 oracle comparisons met {tol:g} (worst {worst:.3e})"
    return {
        "mie_check.csv": (["family", "kind", "side", "max_rel_err", "pass"], rows),
        "mie_check.json": {
            "report": f"{n_pass}/8 exact-formula oracles pass <= {tol:g}",
            "worst": worst,
            "n_max": n_max,
        },
    }, breach


# command -> (handler, the table of its entries)
_HANDLERS = {
    "spectrum": (cmd_spectrum, _GRID),
    "calderon": (cmd_calderon, _CALDERON),
    "plasmon": (cmd_plasmon, _PLASMON),
    "decay": (cmd_decay, _DECAY),
    "scatter": (cmd_scatter, _SCATTER),
    "mie-check": (cmd_mie_check, _MIE_CHECK),
}
COMMANDS = tuple(_HANDLERS)


def run(config, outdir=".", tol=None, seed=0) -> int:
    """Execute a config; returns the process exit status."""
    try:
        cfg = RunConfig.from_dict(config, tol, seed)
        handler = _HANDLERS[cfg.command][0]
        artifacts, breach = handler(cfg, cfg.build_grid())
        header = report_version_and_provenance(cfg)
        for name, body in artifacts.items():
            path = os.path.join(outdir, name)
            if name.endswith(".csv"):
                write_csv(path, header, *body)
            else:
                write_json(path, header, body)
        if breach is not None:
            raise AssemblyAccuracyError(breach)
    except (ConfigError, StarShapeError, ResolutionError) as exc:
        _emit_error(outdir, 1, exc)
        return 1
    except SourcePlacementError as exc:
        _emit_error(outdir, 1, ConfigError(str(exc), "source.s"))
        return 1
    except (AssemblyAccuracyError, NearBoundaryError, RegularizationError, ResonanceError) as exc:
        _emit_error(outdir, 2, exc)
        return 2
    return 0


def _emit_error(outdir, code, exc):
    """The error payload to stderr, and to outdir/error.json unless outdir is None."""
    payload = {
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
            "field": getattr(exc, "field", None),
        }
    }
    sys.stderr.write(json.dumps(payload) + "\n")
    if outdir is None:
        return
    try:
        with open(os.path.join(outdir, "error.json"), "w") as fh:
            json.dump(payload, fh, indent=1)
    except OSError:
        pass


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    """The console script; a bad command line exits 1, like a bad config."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse's own exit status, 2, means an accuracy failure
            raise ConfigError(message)

    parser = Parser(
        prog="mnpspr", description="boundary-operator spectra and plasmon scans",
        exit_on_error=False,
    )
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance override, a positive finite number")
    parser.add_argument("--seed", type=int, default=0, help="random seed, at least 0")
    # argparse reads a negative number that its pattern lacks (-1e-6, -inf) as a
    # flag; joined to its flag it reaches the range checks below
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--tol", "--seed") and _is_float(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = parser.parse_args(joined)
    except (argparse.ArgumentError, ConfigError) as exc:
        # no error.json: the output directory is not known before the flags parse
        _emit_error(None, 1, ConfigError(str(exc), getattr(exc, "argument_name", None)))
        return 1
    os.makedirs(args.out, exist_ok=True)
    error = None
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        error = ConfigError(f"--tol must be a positive finite number, got {args.tol}", "--tol")
    elif args.seed < 0:
        error = ConfigError(f"--seed must be at least 0, got {args.seed}", "--seed")
    else:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            error = ConfigError(f"cannot read config: {exc}")
    if error is not None:
        _emit_error(args.out, 1, error)
        return 1
    return run(config, args.out, args.tol, args.seed)


if __name__ == "__main__":
    sys.exit(main())
