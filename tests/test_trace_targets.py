"""Every name that the benchmark's tracer wraps exists in the library.

`perfbench/spans.py` install() raises on a missing target, so a refactor
that drops or renames a traced function must fail here first.  TARGETS is
read from the file; install() is never called.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(short, qual) for short, names in module.TARGETS.items() for qual in names]


@pytest.mark.parametrize("short, qual", load_targets(), ids=lambda v: str(v))
def test_trace_target_resolves(short, qual):
    mod = importlib.import_module(f"mnpspr.{short}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        raw = getattr(mod, cls_name).__dict__[meth]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
    else:
        fn = getattr(mod, qual)
    assert inspect.isfunction(fn)
