"""The benchmark's workloads still run against the library.

Each perfbench workload makes one tiny request, runs it untraced and checks
its outputs, so a library name that perfbench reads cannot go away without
failing here. The timed runs stay in ``python3 -m pytest perfbench``.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_request_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny", 1, str(tmp_path))
    inp = workload.gen(workloads.input_seed(name, 1, "request", 0))
    out = workload.request(spans.Tracer(False), inp)
    assert workload.check(inp, out) == []
