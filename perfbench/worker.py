"""One workload run in a fresh interpreter (started by run.py).

Prints ``READY`` once set-up is done (imports, library synthesis and one
warm-up request), then, unless ``--setup-only``, runs the closed loop for
``--seconds`` and prints one JSON line with the run's metrics.

The BLAS and OpenMP thread counts are pinned here, before numpy is imported.
"""
from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import hico  # noqa: E402
from hico.compressor import CONNECTOR_KINDS  # noqa: E402

if not os.path.abspath(hico.__file__).startswith(SRC + os.sep):
    sys.exit(f"hico was imported from {hico.__file__}, not from {SRC}")

from spans import Tracer, p50, summarize  # noqa: E402
from workloads import WORKLOADS, input_seed  # noqa: E402

# The first requests of every run feed the determinism digest, so a run makes
# at least this many whatever its length.
DIGEST_REQUESTS = 3
# Inputs the traced decoder-deep run re-times with and without the schedule.
FIDELITY_INPUTS = 2
# Spans and scratch files go here, inside the checkout.
OUT_DIR = ".bench_out"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum is
    reported as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def run_one(workload, tr, inp, request_id: int):
    """Time one request; returns (latency_ms, output, problems)."""
    start = time.perf_counter_ns()
    try:
        out = tr.request(request_id, workload.request, tr, inp)
    except Exception as exc:  # a failing request is counted, the run goes on
        return None, None, [f"{type(exc).__name__}: {exc}"]
    latency = (time.perf_counter_ns() - start) / 1e6
    try:
        problems = workload.check(inp, out)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return latency, out, problems


class Run:
    """Per-run tallies: latencies, failures, counts and the digest."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.tokens = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.gen_ms: list[float] = []
        self.counts: dict[str, list[float]] = {}
        self.digest = hashlib.sha256()

    def gen(self, seed: int, index: int) -> dict:
        start = time.perf_counter_ns()
        inp = self.workload.gen(input_seed(self.workload.name, seed, "request", index))
        self.gen_ms.append((time.perf_counter_ns() - start) / 1e6)
        return inp

    def execute(self, tr, inp, index: int, record: bool) -> float | None:
        latency, out, problems = run_one(self.workload, tr, inp, index)
        self.attempted += 1
        if index < DIGEST_REQUESTS and record:
            self.digest.update(b"failed" if out is None else self.workload.fingerprint(out))
        if problems:
            self.failures.append(f"request {index}: " + "; ".join(problems))
            return None
        if record:
            self.latencies.append(latency)
            self.tokens += inp["grid"].token_count
            for key, value in self.workload.counts(inp, out).items():
                self.counts.setdefault(key, []).append(value)
        return latency


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Gated metrics, and the latency figures reported beside them.

    On a shared 2-vCPU virtual machine (Xeon, 2.1 GHz) the host was seen to
    switch between a fast and a slow state about 1.5x apart, each lasting
    seconds to minutes. A run's median and throughput move with the share
    of time it spends in each; the tail and peak memory barely do. So the
    median and throughput go into the detail line only.
    """
    video_tail, percentile = tail(run.latencies)
    total_ms = sum(run.latencies)
    metrics = {
        "video_ms_tail": video_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "video_ms_p50": p50(run.latencies),
        "input_tokens_per_s": run.tokens / (total_ms / 1e3) if total_ms else 0.0,
        "video_ms_tail_percentile": percentile,
        "samples": len(run.latencies),
        "latencies_ms": run.latencies,
    }
    return metrics, extra


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(run: Run, spans, fidelity: dict, overhead: float, workload) -> tuple[dict, dict]:
    summary = summarize(spans)
    calls, layers = summary["calls"], summary["layers"]
    counts = run.counts

    def ms(name):
        return p50(calls.get(name, []))

    def busy(layer):
        return layers.get(layer, {}).get("busy_frac", 0.0)

    def avg(key):
        return mean(counts.get(key, []))

    connector_ms = sum(sum(calls.get(f"compressor.{k}", [])) for k in CONNECTOR_KINDS)
    clips = sum(counts.get("compressor.clips", []))
    decoder_s = sum(calls.get("dropout.decoder", [])) / 1e3
    measured = predicted = 0.0
    if fidelity:
        measured = sum(fidelity["dropout.decoder_unscheduled"]) / sum(
            fidelity["dropout.decoder_scheduled"]
        )
        n = int(avg("compressor.tokens_out"))
        predicted = workload.predicted_flops(n, workload.empty) / workload.predicted_flops(
            n, workload.schedule
        )
    metrics = {
        "io.decode_ms_p50": ms("io.decode"),
        "io.encode_ms_p50": ms("io.encode"),
        "io.write_ms_p50": ms("io.write"),
        "io.read_ms_p50": ms("io.read"),
        "io.bytes": avg("io.bytes"),
        "io.busy_frac": busy("io"),
        "sampler.plan_ms_p50": ms("sampler.plan"),
        "sampler.frames_mean": avg("sampler.frames"),
        "compressor.merge_ms_p50": ms("compressor.merge"),
        "compressor.spatial_ms_p50": ms("compressor.spatial"),
        "compressor.uneven_ms_p50": ms("compressor.uneven"),
        "compressor.resampler_ms_p50": ms("compressor.resampler"),
        "compressor.residual_ms_p50": ms("compressor.residual"),
        "compressor.ms_per_clip": connector_ms / clips if clips else 0.0,
        "compressor.tokens_in": avg("compressor.tokens_in"),
        "compressor.tokens_out": avg("compressor.tokens_out"),
        "compressor.residual_max": max(counts.get("compressor.residual", [0.0])),
        "compressor.busy_frac": busy("compressor"),
        "dropout.decoder_ms_p50": ms("dropout.decoder"),
        "dropout.layer_tokens": avg("dropout.layer_tokens"),
        "dropout.gflop_per_s": sum(counts.get("dropout.gflop", [])) / decoder_s if decoder_s else 0.0,
        "dropout.kept_final": avg("dropout.kept_final"),
        "dropout.select_ms_p50": ms("dropout.select"),
        "dropout.measured_speedup": measured,
        "dropout.busy_frac": busy("dropout"),
        "costmodel.estimate_ms_p50": ms("costmodel.estimate"),
        "costmodel.predicted_gflop": avg("costmodel.gflop"),
        "costmodel.predicted_speedup": predicted,
        "costmodel.model_error": measured / predicted - 1.0 if predicted else 0.0,
        "niah.gen_ms_p50": ms("niah.gen"),
        "niah.roundtrip_ms_p50": ms("niah.roundtrip"),
        "niah.validate_ms_p50": ms("niah.validate"),
        "niah.solve_ms_p50": ms("niah.solve"),
        "niah.score_ms_p50": ms("niah.score"),
        "niah.instances": avg("niah.instances"),
        "niah.validate_failures": sum(counts.get("niah.validate_failures", [])),
        "niah.cap": avg("niah.cap"),
        "niah.qa": avg("niah.qa"),
        "niah.busy_frac": busy("niah"),
        "bench.gen_ms_p50": p50(run.gen_ms),
        "bench.trace_overhead_frac": overhead,
    }
    return metrics, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
    warm = workload.gen(input_seed(workload.name, args.seed, "warm-up", 0))
    run_one(workload, Tracer(False), warm, -1)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run = Run(workload)
    untraced = Tracer(False)
    traced = Tracer(args.trace == 1)
    paired_ms = [0.0, 0.0]  # untraced, traced: summed over inputs where both succeeded
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < DIGEST_REQUESTS or time.perf_counter() < deadline:
        inp = run.gen(args.seed, index)
        if not traced.enabled:
            run.execute(untraced, inp, index, record=True)
        else:
            # Alternate which side goes first so neither gets the warmer caches.
            order = [(untraced, False), (traced, True)]
            if index % 2:
                order.reverse()
            got = {}
            for tr, record in order:
                got[record] = run.execute(tr, inp, index, record=record)
            if None not in got.values():
                paired_ms[0] += got[False]
                paired_ms[1] += got[True]
        index += 1

    fidelity = Tracer(True)
    if traced.enabled and hasattr(workload, "fidelity"):
        for i in range(FIDELITY_INPUTS):
            inp = workload.gen(input_seed(workload.name, args.seed, "request", i))
            workload.fidelity(fidelity, inp)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "ops_failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures[:5],
        "digest": run.digest.hexdigest(),
        "environment": environment(),
        "bench.gen_ms_p50": p50(run.gen_ms),
    }
    if traced.enabled:
        overhead = paired_ms[1] / paired_ms[0] - 1.0 if paired_ms[0] else 0.0
        fidelity_ms = summarize(fidelity.spans)["calls"]
        metrics, layers = per_layer(run, traced.spans, fidelity_ms, overhead, workload)
        result["layers"] = layers
        result["fidelity_ms"] = fidelity_ms
        path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
        traced.write(path)
        result["trace_file"] = path
    else:
        metrics, extra = end_to_end(run)
        result.update(extra)
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # Exit on SIGTERM through the finally clause that removes the scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
