"""End-to-end benchmark of the mnpspr CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/mnpspr`).  Every
invocation is a fresh `python3` process, as a CLI user runs it: the cold
import and operator assembly are part of what is measured.

Invocations run with one BLAS thread unless stated.  --trace 0 runs
whole invocations with tracing off until about S seconds have passed,
set-up probes included, and reports the medians of their CPU time, set-up
CPU time and peak RSS; it also prints their median wall time.  --trace 1
runs one untraced invocation, one traced invocation (spans around each
module's public functions) and the traced invocation again with the
environment's default BLAS threads, and reports the per-layer numbers.
Every invocation's artifacts are checked.  The last stdout line is one
JSON object {correct, attempted, failed, metrics}; the full record, with
the environment, goes to .perfbench_runs/.

    python3 perfbench/run.py --write-golden

re-records perfbench/golden.json from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import spans as spanlib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")

SETUP_ONLY_SPAWNS = 4
# Measured invocations run with one BLAS thread.  At these sizes a second
# thread does not shorten an invocation, but it spins on the other core, so
# its CPU time is not the work done and its wall time suffers twice from
# time the host steals from either core.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# an invocation takes under 10 s; a hung one is killed so that a run ends
# within the 180 s it may take (the last one starts before `--seconds`)
CHILD_TIMEOUT_S = 50.0


@dataclass
class Sample:
    """One child process: exit status, timings, rusage and check failures.

    `setup_s` is the child's CPU time at the marker, `setup_wall_s` the wall
    time from spawn to the marker.
    """

    exit_code: int
    wall_s: float
    setup_s: float
    setup_wall_s: float
    peak_rss_mb: float
    cpu_s: float
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return self.exit_code != 0 or bool(self.problems)


def spawn(workdir, tag, config_path, extra_args=(), extra_env=ONE_BLAS_THREAD):
    """Run child.py once; wall time from spawn to exit, rusage via wait4.

    The child's environment is this process's plus `extra_env`.
    """
    outdir = os.path.join(workdir, tag)
    marker = os.path.join(workdir, tag + ".marker")
    env = dict(os.environ, PYTHONPATH=SRC, **extra_env)
    cmd = [sys.executable, CHILD, config_path, outdir, marker, *extra_args]
    with open(os.path.join(workdir, tag + ".log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(marker) as fh:
            marked_at, setup_cpu = (float(v) for v in fh.read().split())
        setup_wall = marked_at - t0
    except (OSError, ValueError):
        setup_wall = setup_cpu = float("nan")
    return Sample(
        exit_code=proc.returncode,
        wall_s=t1 - t0,
        setup_s=setup_cpu,
        setup_wall_s=setup_wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    ), outdir


def config_file(workdir, config):
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def invoke(name, config, seed, golden, workdir, tag, extra_args=(), extra_env=ONE_BLAS_THREAD):
    """One checked CLI invocation of workload `name`."""
    sample, outdir = spawn(workdir, tag, config_file(workdir, config), extra_args, extra_env)
    if sample.exit_code == 0:
        sample.problems = workloads.check_outputs(name, config, outdir, seed, golden)
    else:
        sample.problems = [f"exit code {sample.exit_code}"]
    return sample, outdir


def probe_setup(workdir, tag, config, extra_env=ONE_BLAS_THREAD):
    """A spawn that stops after import and config read; returns (sample, env)."""
    sample, _ = spawn(workdir, tag, config_file(workdir, config), ("--setup-only",), extra_env)
    try:
        with open(os.path.join(workdir, tag + ".marker.env.json")) as fh:
            env = json.load(fh)
    except (OSError, ValueError):
        env = None
    return sample, env


def environment():
    """What the child ran on, besides what it reports itself."""
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "mnpspr")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src_hash.update(fname.encode() + b"\0" + fh.read())
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        commit = res.stdout.strip() or commit
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def artifact_bytes(outdir):
    return sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure_untraced(name, config, seed, golden, workdir, seconds):
    """Set-up probes and whole invocations within `seconds`; medians of CPU, set-up, RSS."""
    start = time.monotonic()
    setups = []
    env = None
    for i in range(SETUP_ONLY_SPAWNS):
        s, e = probe_setup(workdir, f"setup{i}", config)
        setups.append(s)
        env = env or e
    samples = []
    loop_start = time.monotonic()
    while True:
        sample, outdir = invoke(name, config, seed, golden, workdir, f"run{len(samples)}")
        shutil.rmtree(outdir, ignore_errors=True)
        samples.append(sample)
        now = time.monotonic()
        # stop when one more invocation of average length would end after `seconds`
        if now - start + (now - loop_start) / len(samples) > seconds:
            break
    ok = [s for s in samples if not s.failed]
    set_up = [s for s in setups + ok if s.exit_code == 0]
    cpus = [s.cpu_s for s in ok]
    walls = [s.wall_s for s in ok]
    metrics = {}
    detail = {"samples": len(ok), "setup_samples": len(set_up)}
    if ok:
        metrics = {
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(s.setup_s for s in set_up),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok),
        }
        detail.update(
            {
                "wall_s": statistics.median(walls),
                "setup_wall_s": statistics.median(s.setup_wall_s for s in set_up),
                "cpu_s_quartiles": quartiles(cpus),
                "wall_s_quartiles": quartiles(walls),
            }
        )
    return samples, metrics, env, detail, setups


SPAN_FIELDS = ("s", "self_s", "calls")


def layer_metrics(span_list, names):
    """`<span>.<field>` metrics of one traced invocation; absent spans read 0."""
    agg = spanlib.aggregate(span_list)
    out = {}
    for name in names:
        span, _, fld = name.rpartition(".")
        if fld in SPAN_FIELDS:
            out[name] = agg.get(span, {}).get(fld, 0)
    requests = agg.get("potentials.scalar_operators", {}).get("calls", 0)
    builds = spanlib.count_with_descendant(
        span_list, "potentials.scalar_operators", "quadrature.assemble_scalar_values"
    )
    out["potentials.scalar_operators.reuse"] = 1.0 - builds / requests if requests else 0.0
    out["trace.coverage"] = spanlib.coverage(span_list)
    return out


def measure_traced(name, config, seed, golden, workdir):
    """Untraced and traced invocations, and the traced one with default BLAS threads."""
    setup, env = probe_setup(workdir, "setup0", config)
    _, env_default = probe_setup(workdir, "setup1", config, {})
    plain, out_plain = invoke(name, config, seed, golden, workdir, "plain")
    shutil.rmtree(out_plain, ignore_errors=True)
    span_file = os.path.join(workdir, "spans.json")
    traced, out_traced = invoke(
        name, config, seed, golden, workdir, "traced", ("--spans", span_file)
    )
    nbytes = artifact_bytes(out_traced) if traced.exit_code == 0 else 0
    shutil.rmtree(out_traced, ignore_errors=True)
    default, out_default = invoke(
        name, config, seed, golden, workdir, "default", ("--spans", span_file + ".1"), {}
    )
    shutil.rmtree(out_default, ignore_errors=True)
    samples = [plain, traced, default]
    metrics = {}
    if not any(s.failed for s in samples):
        with open(span_file) as fh:
            metrics = layer_metrics(json.load(fh), declared_metrics(trace=1))
        metrics.update(
            {
                "cli.artifact_bytes": nbytes,
                "process.cpu_s": plain.cpu_s,
                "process.cpu_util": plain.cpu_s / plain.wall_s,
                "process.single_thread_wall_s": traced.wall_s,
                "process.default_threads_wall_s": default.wall_s,
                "trace.overhead_s": traced.wall_s - plain.wall_s,
            }
        )
    detail = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    env = dict(env or {}, default_threads=env_default)
    return samples, metrics, env, detail, [setup]


def write_golden():
    golden = {}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(WORK, f"golden-{name}")
        os.makedirs(workdir, exist_ok=True)
        config = workloads.make_config(name, workloads.DEFAULT_SEED)
        sample, outdir = invoke(name, config, workloads.DEFAULT_SEED, None, workdir, "run")
        if sample.failed:
            raise SystemExit(f"{name}: {sample.problems}")
        golden[name] = workloads.golden_record(name, workloads.summarize(name, outdir))
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mnpspr", "cli.py")):
        print(f"perfbench: no mnpspr sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    config = workloads.make_config(args.workload, args.seed)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    run_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{run_tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            result = measure_traced(args.workload, config, args.seed, golden, workdir)
        else:
            result = measure_untraced(
                args.workload, config, args.seed, golden, workdir, args.seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples, metrics, child_env, detail, setups = result
    failed = sum(s.failed for s in samples)
    declared = declared_metrics(args.trace)
    missing = sorted(set(declared) - set(metrics))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": config,
        "environment": dict(environment(), **(child_env or {})),
        "metrics": metrics,
        "detail": detail,
        "samples": [asdict(s) for s in samples],
        "setup_probes": [asdict(s) for s in setups],
    }
    with open(os.path.join(WORK, run_tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {run_tag}: {len(samples)} invocations, {failed} failed")
    for s in samples:
        for p in s.problems:
            print(f"  failure: {p}")
    for k, unit in declared.items():
        if k in metrics:
            print(f"  {k:44s} {metrics[k]:.6g} {unit}")
    if "wall_s" in detail:
        print(f"  {'wall_s':44s} {detail['wall_s']:.6g} s (median, not a declared metric)")
    print(f"  {'fail_frac':44s} {failed / len(samples):.6g} ratio ({failed}/{len(samples)})")
    print(f"  detail: {json.dumps(detail)}")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not missing,
                "attempted": len(samples),
                "failed": failed,
                "metrics": {
                    k: {"value": metrics[k], "unit": u} for k, u in declared.items() if k in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
