"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import copy

import pytest

import run
import spans
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_at_L4_passes_checks(name, tmp_path):
    config = workloads.make_config(name, 7, L=4)
    if name == "decay-axisym":
        # the interior shell needs a finer grid than L_quad=4 to clear the near-field guard
        config["surface"]["L_quad"] = 8
    sample, outdir = run.invoke(name, config, 7, None, str(tmp_path), "smoke")
    assert sample.exit_code == 0, (tmp_path / "smoke.log").read_text()
    assert sample.problems == []
    assert not sample.failed
    assert 0 < sample.setup_s < sample.cpu_s
    assert 0 < sample.setup_wall_s < sample.wall_s
    assert sample.peak_rss_mb > 0
    assert sorted(p.name for p in (tmp_path / "smoke").iterdir()) == sorted(
        workloads.ARTIFACTS[name]
    )


def test_seed_changes_values_not_sizes():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_config(name, 0), workloads.make_config(name, 1)
        assert a == workloads.make_config(name, 0)
        assert a != b
        assert a["L"] == b["L"] and a["surface"]["L_quad"] == b["surface"]["L_quad"]
        assert len(a["surface"]["radius"]) == len(b["surface"]["radius"])


def test_measured_invocations_run_one_blas_thread(tmp_path):
    config = workloads.make_config("scatter-sweep", 0, L=4)
    sample, env = run.probe_setup(str(tmp_path), "probe", config)
    assert sample.exit_code == 0
    assert env["blas"] and all(lib["threads"] == 1 for lib in env["blas"])


def test_perturbed_golden_value_counts_as_failure(tmp_path):
    name = "scatter-sweep"
    config = workloads.make_config(name, workloads.DEFAULT_SEED, L=4)
    sample, outdir = run.invoke(name, config, workloads.DEFAULT_SEED, None, str(tmp_path), "a")
    assert not sample.failed
    golden = {name: workloads.golden_record(name, workloads.summarize(name, outdir))}
    again, _ = run.invoke(name, config, workloads.DEFAULT_SEED, golden, str(tmp_path), "b")
    assert not again.failed

    bad = copy.deepcopy(golden)
    bad[name]["indicator"][3] *= 1.0 + 1e-5
    hit, _ = run.invoke(name, config, workloads.DEFAULT_SEED, bad, str(tmp_path), "c")
    assert hit.exit_code == 0 and hit.failed
    assert any("indicator" in p for p in hit.problems)

    # the condition number only has to agree within a factor of 10
    loose = copy.deepcopy(golden)
    loose[name]["condition"] = [c * 5.0 for c in loose[name]["condition"]]
    ok, _ = run.invoke(name, config, workloads.DEFAULT_SEED, loose, str(tmp_path), "d")
    assert not ok.failed


def test_nonzero_exit_counts_as_failure(tmp_path):
    config = workloads.make_config("scatter-sweep", 3, L=4)
    config["L"] = 0  # rejected by the CLI's config validation: exit code 1
    samples, metrics, *_ = run.measure_untraced(
        "scatter-sweep", config, 3, None, str(tmp_path), seconds=0
    )
    assert [s.exit_code for s in samples] == [1]
    assert sum(s.failed for s in samples) == 1
    assert metrics == {}


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": "r"}


# cli.run [0, 10]
#   a [1, 5]          children b [2, 3] and c [2.5, 4] overlap on [2.5, 3]
#     b [2, 3]
#       a [2.2, 2.8]  a nested below itself
#     c [2.5, 4]
#   d [6, 9.5]
SYNTHETIC = [
    _span(0, "cli.run", 0.0, 10.0, None),
    _span(1, "a", 1.0, 5.0, 0),
    _span(2, "b", 2.0, 3.0, 1),
    _span(3, "a", 2.2, 2.8, 2),
    _span(4, "c", 2.5, 4.0, 1),
    _span(5, "d", 6.0, 9.5, 0),
]


def test_self_time_subtracts_union_of_children():
    self_t = spans.self_times(SYNTHETIC)
    assert self_t[0] == pytest.approx(10.0 - 4.0 - 3.5)
    assert self_t[1] == pytest.approx(4.0 - 2.0)  # union of [2, 3] and [2.5, 4]
    assert self_t[2] == pytest.approx(1.0 - 0.6)
    assert self_t[3] == pytest.approx(0.6)
    assert self_t[4] == pytest.approx(1.5)
    assert self_t[5] == pytest.approx(3.5)


def test_aggregate_counts_outermost_inclusive_time_once():
    agg = spans.aggregate(SYNTHETIC)
    assert agg["a"] == pytest.approx({"s": 4.0, "self_s": 2.0 + 0.6, "calls": 2})
    assert agg["cli.run"] == pytest.approx({"s": 10.0, "self_s": 2.5, "calls": 1})


def test_coverage_is_share_of_root_inside_children():
    assert spans.coverage(SYNTHETIC) == pytest.approx(7.5 / 10.0)
    assert spans.coverage(SYNTHETIC[:1]) == 0.0
    assert spans.count_with_descendant(SYNTHETIC, "b", "a") == 1
    assert spans.count_with_descendant(SYNTHETIC, "a", "c") == 1
    assert spans.count_with_descendant(SYNTHETIC, "d", "a") == 0


def test_layer_metrics_cover_every_declared_per_layer_metric():
    names = run.declared_metrics(trace=1)
    metrics = run.layer_metrics(SYNTHETIC, names)
    derived = set(names) - set(metrics)
    assert derived == {
        "cli.artifact_bytes", "process.cpu_s", "process.cpu_util",
        "process.single_thread_wall_s", "process.default_threads_wall_s", "trace.overhead_s",
    }
