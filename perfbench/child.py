"""One mnpspr CLI invocation, as the benchmark spawns it.

    PYTHONPATH=src python3 perfbench/child.py CONFIG OUTDIR MARKER [--spans FILE] [--setup-only]

Does what `mnpspr --config CONFIG --out OUTDIR` does: import the CLI, read
the config, run it and exit with its status.  Between the config read and
the command it writes `time.monotonic()` and its own CPU time so far to
MARKER, so the parent can split wall and CPU time into set-up and command.
With --spans the public functions of each module are wrapped first and the
spans are written to FILE.  With --setup-only it stops after the marker and
writes the versions and BLAS threads in effect to MARKER.env.json.
"""

import json
import os
import sys
import time

import mnpspr.cli as cli

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MNP_THREADS")


def env_record():
    """Python, numpy, scipy and every loaded OpenBLAS with its live thread count."""
    import ctypes
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    blas = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                entry["config"] = get_config().decode()
                entry["threads"] = int(get_threads())
                break
        blas.append(entry)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
    }


def main(argv):
    config_path, outdir, marker = argv[:3]
    with open(config_path) as fh:
        config = json.load(fh)
    with open(marker, "w") as fh:
        fh.write(f"{time.monotonic()!r} {time.process_time()!r}")
    if "--setup-only" in argv:
        with open(marker + ".env.json", "w") as fh:
            json.dump(env_record(), fh)
        return 0
    os.makedirs(outdir, exist_ok=True)
    if "--spans" not in argv:
        return cli.run(config, outdir)
    import spans

    recorder = spans.install()
    try:
        return cli.run(config, outdir)
    finally:
        recorder.dump(argv[argv.index("--spans") + 1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
