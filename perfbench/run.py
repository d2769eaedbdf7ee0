"""Benchmark of hico's compress -> decode pipeline: one workload run per call.

    python3 perfbench/run.py --workload merge-long --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports hico from ``src/`` there and
reads the metric names and units from ``BENCHMARK.json``. Each workload is a
closed loop with one client; every request is one video. With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a separate traced run. The last line of stdout is the result; the line
before it holds the run's details (determinism digest, tail percentile and
sample count, failures, environment, per-layer table).

``setup_s`` is the median over several fresh interpreters of the time from
start to the first timed request: imports, library synthesis and one
warm-up request.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Set-up-only interpreters started before and again after the measuring one;
# setup_s is the median of all of them, which so spans the whole run.
SETUP_RUNS_AROUND = 2
# Every worker is killed once the whole run has taken this long.
TIME_LIMIT_S = 175.0


class BenchError(Exception):
    pass


class Worker:
    """A worker process; set-up time is measured up to its READY line."""

    def __init__(self, argv: list[str], deadline: float):
        self.argv = argv
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER] + argv, stdout=subprocess.PIPE, text=True
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> None:
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.start
        if ready.strip() != "READY":
            raise BenchError(f"worker failed during set-up: {' '.join(self.argv)}")

    def finish(self) -> str:
        """Wait for the worker; return the rest of its stdout."""
        rest = self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return rest

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join("src", "hico", "__init__.py")):
        raise BenchError("src/hico not found: run from the root of a hico checkout")
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; have {workloads}")

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    workers: list[Worker] = []

    def start(argv: list[str]) -> Worker:
        worker = Worker(common + argv, deadline)
        workers.append(worker)
        worker.wait_ready()
        return worker

    try:
        around = 0 if args.trace else SETUP_RUNS_AROUND
        for _ in range(around):
            start(["--setup-only"]).finish()
        worker = start(["--seconds", str(args.seconds), "--trace", str(args.trace)])
        lines = worker.finish().strip().splitlines()
        for _ in range(around):
            start(["--setup-only"]).finish()
    finally:
        for w in workers:
            w.stop()
    setups = [w.setup_s for w in workers]
    if not lines:
        raise BenchError("worker printed no result")
    detail = json.loads(lines[-1])

    measured = detail.pop("metrics")
    section = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
        detail["setup_s_samples"] = setups
    missing = [m["name"] for m in spec[section] if m["name"] not in measured]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[section]}
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input so the benchmark's own test runs fast",
    )
    args = parser.parse_args()
    # Turn SIGTERM into an exit, so the finally clause stops the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        detail, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
