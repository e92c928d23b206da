"""Spans around the public functions of each mnpspr module, from outside.

`install()` wraps every function in TARGETS.  A `from .x import f` binds
`f` again in each importing module, so the wrapper replaces every binding
of the original in every loaded `mnpspr` module; methods are replaced on
their class.  Spans stay in memory (name, start, end, parent span, run
id) until `Recorder.dump`.  The arithmetic on a span list (`self_times`,
`aggregate`, `coverage`) has no mnpspr dependency.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

ROOT = "cli.run"

# module -> public functions and methods that get a span.  mie and specfun
# get none: no workload spends measurable time in them.
TARGETS = {
    "cli": ("run", "write_csv", "write_json"),
    "surface": (
        "build_surface", "tubular_distance", "SurfaceGrid.radius_at",
        "SurfaceGrid.frame_at", "SurfaceGrid.mass_matrix", "SurfaceGrid.grad_basis",
        "SurfaceGrid.curl_basis", "SurfaceGrid.stiffness_matrix",
        "SurfaceGrid.tangent_values",
    ),
    "sphharm": ("ynm_matrix",),
    "quadrature": ("assemble_scalar_values", "near_singular_eval"),
    "potentials": (
        "scalar_operators", "offboundary_eval", "assemble_correction",
        "helmholtz_point_kernels",
    ),
    "spectral": (
        "np_spectrum", "mnp_spectra", "quotient_gram_matrix", "trace_norm",
        "SpectralSet.to_json_dict",
    ),
    "plasmon": (
        "localization_scan", "plasmon_field", "almost_sure_statistic",
        "PlasmonMode.from_eigenmode", "PlasmonMode.from_sphere",
    ),
    "scatter": (
        "resonance_sweep", "assemble_system", "static_magnetic_block",
        "dipole_incident_trace", "solve_scatter", "weak_resonance_indicator",
        "pair_norm",
    ),
}


class Recorder:
    """In-memory span list of one traced invocation."""

    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans = []  # [name, start, end, parent index]
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][2] = clock()
                stack.pop()

        return traced

    def records(self):
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.records(), fh)


def install(recorder=None):
    """Wrap every target in the loaded mnpspr modules; returns the recorder."""
    rec = recorder or Recorder()
    modules = [m for k, m in list(sys.modules.items()) if k == "mnpspr" or k.startswith("mnpspr.")]
    for short, names in TARGETS.items():
        mod = importlib.import_module(f"mnpspr.{short}")
        for qual in names:
            name = f"{short}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(rec.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, rec.wrap(name, raw))
                continue
            orig = getattr(mod, qual)
            wrapped = rec.wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
    return rec


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------


def _union_length(intervals, lo, hi):
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span id: its duration minus the part its child spans cover."""
    children = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {
        sp["id"]: (sp["end"] - sp["start"])
        - _union_length(children.get(sp["id"], ()), sp["start"], sp["end"])
        for sp in spans
    }


def aggregate(spans):
    """name -> {"s": inclusive, "self_s": self, "calls": count}.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.
    """
    by_id = {sp["id"]: sp for sp in spans}
    self_t = self_times(spans)
    out = {}
    for sp in spans:
        agg = out.setdefault(sp["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self_s"] += self_t[sp["id"]]
        p = sp["parent"]
        while p is not None and by_id[p]["name"] != sp["name"]:
            p = by_id[p]["parent"]
        if p is None:
            agg["s"] += sp["end"] - sp["start"]
    return out


def coverage(spans, root=ROOT):
    """Share of the root span's time that lies inside its named child spans."""
    roots = [sp for sp in spans if sp["name"] == root and sp["parent"] is None]
    total = sum(sp["end"] - sp["start"] for sp in roots)
    if total <= 0:
        return 0.0
    self_t = self_times(spans)
    return 1.0 - sum(self_t[sp["id"]] for sp in roots) / total


def count_with_descendant(spans, name, inner):
    """How many spans called `name` have a descendant span called `inner`."""
    by_id = {sp["id"]: sp for sp in spans}
    hits = set()
    for sp in spans:
        if sp["name"] != inner:
            continue
        p = sp["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                hits.add(p)
            p = by_id[p]["parent"]
    return len(hits)
