"""The benchmark's workloads still run against the library.

Each perfbench workload makes one tiny request, runs it untraced and checks
its outputs, so a library name that perfbench reads cannot go away without
failing here, and pins each request's output bytes. The timed runs stay in
``python3 -m pytest perfbench``.
"""
import hashlib
import sys
from pathlib import Path

import pytest

from helpers import TOY_GEOMETRIES
from hico import costmodel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

# sha256 of each workload's fingerprint(out) for the tiny request below (run
# seed 1, request 0), computed while grids were still held as float64. Any
# output byte a change moves fails the pin.
FINGERPRINTS = {
    "decoder-deep": "c2e9be37b5bd361ed115eb6de3c834b6549232b12d14c9a2150dfa395715dd5b",
    "haystack-sweep": "831a2248a3969232cd9b4a4f7ebdaeaffc4720ffc3285304b4c3f645435569b8",
    "merge-long": "4ad751e1332082e08d7eae2516527d8d557345185ff8fc95be1e443b22d79a59",
}


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_request_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny", 1, str(tmp_path))
    inp = workload.gen(workloads.input_seed(name, 1, "request", 0))
    out = workload.request(spans.Tracer(False), inp)
    assert workload.check(inp, out) == []
    assert hashlib.sha256(workload.fingerprint(out)).hexdigest() == FINGERPRINTS[name]


# perfbench keeps its own copy of costmodel.toy_shape until the next
# benchmark-maintenance change deletes it; until then the two must agree.
@pytest.mark.parametrize("geometry", TOY_GEOMETRIES, ids=str)
def test_workloads_toy_shape_is_the_cost_models(geometry):
    assert workloads.toy_shape(geometry) == costmodel.toy_shape(geometry)
