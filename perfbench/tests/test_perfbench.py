"""Tests for the benchmark's own code: spans, patching, names, inputs.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from spans import Span, Tracer, busy_times, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def _nested():
    # root [0, 10] > a [1, 6] > b [2, 3], b [4, 5];  root > c [7, 9]
    return [Span("bench.pass", 0.0, 10.0),
            Span("stieltjes.density_curve", 1.0, 6.0, parent=0),
            Span("fixed_point.solve_batch", 2.0, 3.0, parent=1),
            Span("fixed_point.solve_batch", 4.0, 5.0, parent=1),
            Span("fixed_point.batch_G", 7.0, 9.0, parent=0)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_nested()) == pytest.approx([3.0, 3.0, 1.0, 1.0, 2.0])


def test_self_times_add_up_to_root_duration():
    s = _nested()
    assert sum(self_times(s)) == pytest.approx(s[0].end - s[0].start)


def test_overlapping_children_are_counted_once():
    s = [Span("a.x", 0.0, 10.0), Span("a.y", 1.0, 5.0, parent=0),
         Span("a.z", 3.0, 7.0, parent=0), Span("a.w", 9.0, 12.0, parent=0)]
    assert self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recursive_spans_are_busy_once():
    s = [Span("bench.pass", 0.0, 10.0),
         Span("stieltjes.cdf_interval", 1.0, 9.0, parent=0),
         Span("stieltjes.cdf_interval", 2.0, 4.0, parent=1),
         Span("stieltjes.cdf_interval", 5.0, 8.0, parent=1)]
    busy = busy_times(s)
    assert busy["stieltjes.cdf_interval"] == pytest.approx(8.0)
    out = summarize(s)
    assert out["stieltjes.cdf_interval.self_s"] == pytest.approx(3.0 + 2.0 + 3.0)
    assert out["stieltjes.cdf_interval.calls"] == 3
    assert out["layer.stieltjes.self_s"] + out["layer.bench.self_s"] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# BENCHMARK.json names
# ---------------------------------------------------------------------------

def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_names_match_the_name_rule_and_are_unique():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")


@pytest.mark.parametrize("bad", ["", "-lead", ".lead", "has space", "a/b", "x" * 65, "é"])
def test_name_rule_rejects(bad):
    assert not NAME.match(bad)


def test_workloads_match_the_runner():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {w["name"] for w in _spec()["workloads"]} <= set(run.WORKLOADS)


def test_every_per_layer_metric_has_a_source():
    names = [m["name"] for m in _spec()["per_layer"]]
    layers = {n.split(".")[1] for n in names if n.startswith("layer.")}
    assert layers == set(spans.MODULES) | {"bench"}
    traced = {f"{mod}.{fn}" for mod, fns in spans.TRACED.items() for fn in fns} | {"core.reduced"}
    special = {"trace_overhead_frac", "traced_wall_s", "self_sum_s", "counters_nonrepeating",
               "fixed_point.solve_batch.gflops_computed", "stieltjes.mass_err",
               "metrics.ks_median", "fixed_point.defect_max"}
    for name in names:
        if name in special or name.startswith("layer."):
            continue
        source = run.RENAMED.get(name, name)
        assert any(source.startswith(t + ".") for t in traced), name


# ---------------------------------------------------------------------------
# patching and restoring
# ---------------------------------------------------------------------------

def _snapshot():
    mods = [importlib.import_module("hadspec")]
    mods += [importlib.import_module(f"hadspec.{m}") for m in spans.MODULES]
    core = importlib.import_module("hadspec.core")
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap[("WeightProfile", "reduced")] = core.WeightProfile.__dict__["reduced"]
    return snap


def test_tracer_restores_every_patched_attribute():
    import hadspec.fixed_point as fp
    import hadspec.stieltjes as st

    before = _snapshot()
    original = fp.solve_batch
    with Tracer() as tracer:
        assert st.solve_batch is not original and fp.solve_batch is not original
        assert st.solve_batch is fp.solve_batch
        assert len(tracer._patched) > len(spans.TRACED)
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert fp.solve_batch is original


def test_tracer_records_nested_calls_and_counters():
    from hadspec import core, stieltjes

    profile = core.validate_profile(np.ones((4, 4)))
    tracer = Tracer()
    with tracer, tracer.span("bench.pass"):
        stieltjes.mass_check(profile, exponents=(2, 3))
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["bench.pass", "stieltjes.mass_check"]
    e0 = [s for s in tracer.spans if s.name == "fixed_point.solve_e0"]
    assert len(e0) == 2 and all(tracer.spans[s.parent].name == "stieltjes.mass_check" for s in e0)
    assert all(s.counters["unconverged"] == 0 and s.counters["iterations"] >= 1 for s in e0)
    out = summarize(tracer.spans)
    root = tracer.spans[0]
    layers = sum(v for k, v in out.items() if k.startswith("layer."))
    assert layers == pytest.approx(root.end - root.start, rel=1e-9)


def test_solve_batch_counters_per_eta_level():
    from hadspec import core, experiments, stieltjes

    profile = core.validate_profile(np.ones((4, 6)))
    cfg = stieltjes.InversionConfig(x_grid=experiments.default_x_grid(profile)[::8])
    tracer = Tracer()
    with tracer, tracer.span("bench.pass"):
        stieltjes.density_curve(profile, cfg)
    out = summarize(tracer.spans)
    levels = [out[f"fixed_point.solve_batch.column_iters.eta{k}"] for k in range(3)]
    assert sum(levels) == out["fixed_point.solve_batch.column_iters"] > 0
    assert out["fixed_point.solve_batch.calls"] == 3


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    a = workloads.make_inputs(workload, 17)
    b = workloads.make_inputs(workload, 17)
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(np.asarray(a[key]), np.asarray(b[key])), key


@pytest.mark.parametrize("workload", ["density_dense", "points", "compare"])
def test_seeds_change_random_inputs(workload):
    a = workloads.make_inputs(workload, 17)
    b = workloads.make_inputs(workload, 18)
    assert any(not np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)


@pytest.mark.parametrize("workload", ["density_dense", "points"])
def test_seeds_permute_one_draw(workload):
    # same entries in another order: every seed gives the solver the same work
    a = workloads.make_inputs(workload, 17)
    b = workloads.make_inputs(workload, 18)
    for key in a:
        assert np.array_equal(np.sort(a[key], axis=None), np.sort(b[key], axis=None)), key


def test_nonrepeating_counters_are_flagged_with_spread():
    flags = run.nonrepeating([{"x.calls": 3, "x.busy_s": 1.0, "x.column_iters.eta1": 5},
                              {"x.calls": 3, "x.busy_s": 2.0, "x.column_iters.eta1": 7}])
    assert flags == {"x.column_iters.eta1": {"min": 5, "max": 7}}
