"""The benchmark's traced run, one pass of each gated workload.

perfbench/run.py alternates plain and traced passes; a traced run fails when
the output checks fail or when the layers' self times do not add up to the
pass's wall time, which happens when a library call runs on a thread the
tracer cannot attach to the pass.  This runs one plain and one traced pass
per workload through perfbench's own modules and asserts both conditions
exactly.  The compare pass must also invert once: its two block sizes
share one reduced map.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["density_dense", "points", "compare"])
def test_traced_pass_is_one_tree_and_checks_pass(workload, tmp_path):
    state = workloads.setup(workload, workloads.make_inputs(workload, 1), str(tmp_path))
    plain = workloads.run_pass(state, 0)
    tracer = spans.Tracer(workload)
    with tracer, tracer.span("bench.pass"):
        traced = workloads.run_pass(state, 1)
    errors, _ = workloads.check(state, [plain, traced])
    assert errors == []
    (root,) = [s for s in tracer.spans if s.name == "bench.pass"]
    assert all(s.parent is not None for s in tracer.spans if s is not root)
    wall = root.end - root.start
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(wall, rel=1e-9)
    if workload == "compare":
        # both block sizes share one reduced map, so the pass inverts once
        assert spans.summarize(tracer.spans)["stieltjes.density_curve.calls"] == 1
