"""scipy and other fixed-cost modules stay off the import path of the CLI.

scipy is used by the spherical Bessel functions of the sphere modes only,
which import it where they use it: `mie-check` and a `plasmon` run with a
sphere mode load it; `spectrum`, `decay` and `scatter` never do.  Nor do
`decay` and `scatter` load `importlib.metadata` or `argparse`: the
provenance header names scipy's version only when the run loaded it.
No mnpspr module imports `hashlib`: the config hash is a pure-Python
fingerprint and the indicator compares grids by their data, so
`spectrum`, an eigenmode `plasmon`, `decay` and `scatter` never map
OpenSSL's libcrypto (3.3 MB of RSS).  `calderon` and the scipy commands
still load `_hashlib`, through `numpy.random`, whose bit generators import
`secrets`.  The commands run in fresh processes here, so that sys.modules
shows what each one loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# runs one config; reports the scipy modules loaded at the end, whether any
# was loaded when the sphere oracle was first entered, and which of the
# fixed-cost modules were loaded at the end
PROBE = r"""
import json, sys
import mnpspr.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

first_entry = {}
def watch(owner, name):
    fn = getattr(owner, name)
    def wrapped(*args, **kwargs):
        first_entry.setdefault(name, scipy_loaded())
        return fn(*args, **kwargs)
    setattr(owner, name, wrapped)

watch(cli, "exact_sphere_potential")
at_import = scipy_loaded()
code = cli.run(json.loads(sys.argv[1]), sys.argv[2])
fixed_cost = [m for m in json.loads(sys.argv[3]) if m in sys.modules]
print(json.dumps({"code": code, "at_import": at_import, "loaded": scipy_loaded(),
                  "first_entry": first_entry, "fixed_cost": fixed_cost}))
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


@pytest.mark.parametrize("command", ["spectrum", "decay", "scatter"])
def test_command_loads_no_scipy(tmp_path, command):
    assert run_probe(tmp_path, command)["loaded"] == []


def version_line(path):
    return next(line for line in path.read_text().splitlines() if line.startswith("# numpy "))


@pytest.mark.parametrize("command", ["decay", "scatter"])
def test_command_loads_no_metadata_or_argparse(tmp_path, command):
    assert set(run_probe(tmp_path, command)["fixed_cost"]).isdisjoint(METADATA_ARGPARSE)
    assert "scipy" not in version_line(tmp_path / f"{command}.csv")


@pytest.mark.parametrize("command", ["spectrum", "plasmon-eigenmode", "decay", "scatter"])
def test_command_loads_no_hash_module(tmp_path, command):
    assert set(run_probe(tmp_path, command)["fixed_cost"]).isdisjoint(HASH_MODULES)


def test_mie_check_loads_special_at_its_oracle(tmp_path):
    report = run_probe(tmp_path, "mie-check")
    assert report["first_entry"]["exact_sphere_potential"] == []
    assert "scipy.special" in report["loaded"]
    import scipy

    assert version_line(tmp_path / "mie_check.csv").endswith(f", scipy {scipy.__version__}")


def test_plasmon_sphere_mode_loads_special(tmp_path):
    """A sphere mode's radial factors are spherical Bessel functions."""
    assert "scipy.special" in run_probe(tmp_path, "plasmon-sphere-mode")["loaded"]
    import scipy

    assert version_line(tmp_path / "plasmon.csv").endswith(f", scipy {scipy.__version__}")


def module_level_imports(source):
    """Names imported by statements that run when the module is imported.

    Function bodies are skipped; module-level `if`/`try` blocks and class
    bodies are not.
    """
    names = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_scan_sees_module_level_imports():
    source = (
        "import numpy\n"
        "try:\n    import scipy.linalg as sla\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy.special import gammaln\n"
        "    def f(self):\n        from scipy import integrate\n"
        "def g():\n    import scipy\n"
    )
    assert sorted(module_level_imports(source)) == ["numpy", "scipy.linalg", "scipy.special"]


@pytest.mark.parametrize("path", sorted((SRC / "mnpspr").glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    names = module_level_imports(path.read_text())
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")]


@pytest.mark.parametrize("path", sorted((SRC / "mnpspr").glob("*.py")), ids=lambda p: p.name)
def test_no_hashlib_import(path):
    """Not even inside a function: every command's own code stays off hashlib."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    assert not [n for n in names if n.lstrip("_") == "hashlib"]
