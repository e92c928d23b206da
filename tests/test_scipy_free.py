"""scipy and other fixed-cost modules stay off the import path of the CLI.

No mnpspr module imports scipy, not even inside a function: the sphere
oracle's spherical Bessel functions are the recurrences of
`specfun.radial`, so no command loads scipy, and the provenance header
names numpy's version alone.  Nor do `decay` and `scatter` load
`importlib.metadata` or `argparse`.  No mnpspr module imports `hashlib`:
the config hash is a pure-Python fingerprint and the indicator compares
grids by their data, so `spectrum`, both kinds of `plasmon`, `decay`,
`scatter` and `mie-check` never map OpenSSL's libcrypto (3.3 MB of RSS).
`calderon` is the one command that still loads `_hashlib`, through
`np.random.default_rng`, whose bit generators import `secrets`.  The
commands run in fresh processes here, so that sys.modules shows what each
one loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# runs one config; reports the scipy modules loaded at import and at the
# end, and which of the fixed-cost modules were loaded at the end
PROBE = r"""
import json, sys
import mnpspr.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_import = scipy_loaded()
code = cli.run(json.loads(sys.argv[1]), sys.argv[2])
fixed_cost = [m for m in json.loads(sys.argv[3]) if m in sys.modules]
print(json.dumps({"code": code, "at_import": at_import, "loaded": scipy_loaded(),
                  "fixed_cost": fixed_cost}))
"""

SPHERE = {"sphere": 1.0, "L_quad": 8}
CONFIGS = {
    "spectrum": {"command": "spectrum", "surface": SPHERE, "L": 6},
    "decay": {
        "command": "decay", "surface": SPHERE, "L": 6, "eps": 0.5,
        "points": [{"count": 6, "radius": 3.0}, {"count": 2, "radius": 0.3}],
    },
    "scatter": {
        "command": "scatter", "surface": {"sphere": 1.0, "L_quad": 4}, "L": 4,
        "tau_list": [0.5], "delta_list": [0.1],
    },
    "plasmon-eigenmode": {
        "command": "plasmon", "surface": SPHERE, "L": 6, "mode": {"index": 3},
        "points": [{"count": 4, "radius": 2.0}],
    },
    "mie-check": {"command": "mie-check", "n_max": 1, "L_quad": 12},
    "plasmon-sphere-mode": {
        "command": "plasmon", "surface": SPHERE, "L": 6, "mode": {"l": 2, "n": 1, "m": 0},
        "points": [{"count": 4, "radius": 2.0}],
    },
}


# fixed-cost modules the probed commands must not load; _hashlib maps OpenSSL's libcrypto
METADATA_ARGPARSE = ("importlib.metadata", "argparse")
HASH_MODULES = ("hashlib", "_hashlib", "_sha2", "_sha256", "_blake2")


def run_probe(tmp_path, command):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(CONFIGS[command]), str(tmp_path),
         json.dumps(METADATA_ARGPARSE + HASH_MODULES)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["code"] == 0, done.stderr
    assert report["at_import"] == []
    return report


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """(report, output directory) of a command's probe, run once per module."""
    done = {}

    def get(command):
        if command not in done:
            out = tmp_path_factory.mktemp(command)
            done[command] = run_probe(out, command), out
        return done[command]

    return get


@pytest.mark.parametrize("command", list(CONFIGS))
def test_command_loads_no_scipy(probe, command):
    assert probe(command)[0]["loaded"] == []


@pytest.mark.parametrize("command", list(CONFIGS))
def test_header_names_numpy_alone(probe, command):
    csv = next(probe(command)[1].glob("*.csv")).read_text().splitlines()
    assert f"# numpy {np.__version__}" in csv


@pytest.mark.parametrize("command", ["decay", "scatter"])
def test_command_loads_no_metadata_or_argparse(probe, command):
    assert set(probe(command)[0]["fixed_cost"]).isdisjoint(METADATA_ARGPARSE)


@pytest.mark.parametrize("command", list(CONFIGS))
def test_command_loads_no_hash_module(probe, command):
    assert set(probe(command)[0]["fixed_cost"]).isdisjoint(HASH_MODULES)


def imported_names(source):
    """Every module an import statement names, inside functions and classes too."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names


def test_scan_sees_every_import():
    source = (
        "import numpy\n"
        "try:\n    import scipy.linalg as sla\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy.special import gammaln\n"
        "    def f(self):\n        from scipy import integrate\n"
        "def g():\n    import scipy\n"
        "from . import sphharm\n"
    )
    assert sorted(imported_names(source)) == [
        "", "numpy", "scipy", "scipy", "scipy.linalg", "scipy.special"
    ]


@pytest.mark.parametrize("path", sorted((SRC / "mnpspr").glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    """Not even inside a function: no command has a path that loads scipy."""
    names = imported_names(path.read_text())
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")]


@pytest.mark.parametrize("path", sorted((SRC / "mnpspr").glob("*.py")), ids=lambda p: p.name)
def test_no_hashlib_import(path):
    """Not even inside a function: every command's own code stays off hashlib."""
    assert not [n for n in imported_names(path.read_text()) if n.lstrip("_") == "hashlib"]
