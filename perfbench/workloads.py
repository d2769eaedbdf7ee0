"""The benchmark's three workloads, each loading a different layer of hico.

A workload makes one request's inputs from a seed (``gen``, outside the
timed span), runs the request through the program's public functions in
pipeline order (``request``, the timed span), checks the outputs (``check``,
outside the timed span) and reports the counts the per-layer metrics need
(``counts``). Every call into the program goes through ``tr.call`` so that a
traced run records one span per call.

* ``merge-long`` is bound by the merge connector: 64 redundant frames of
  16x16 tokens are merged to 16 tokens per 4-frame clip, and the decoder
  behind it runs on only 264 tokens with no drop schedule.
* ``decoder-deep`` is bound by the decoder: spatial pooling leaves 1024
  visual tokens for a 28-layer toy decoder running the paper's schedule
  (1024 -> 768 -> 192 visual tokens), so both drop methods run.
* ``haystack-sweep`` has no dominant layer: a duration-sampled video goes
  through the sampler, file writes and reads, the three non-merge
  connectors, the cost model and 32 multi-hop haystack instances. It is the
  only workload that runs niah, sampler, costmodel and file I/O, and it
  never runs the decoder.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from hico import compressor, costmodel, dropout, io, niah, sampler

PAPER_SCHEDULE = "uni:4:0.75,attn:18:0.25"
TEXT_TOKENS = 8
RESIDUAL_LIMIT = 1e-6
SNAPSHOT_SUM_LIMIT = 1e-9


def input_seed(workload: str, seed: int, stream: str, index: int) -> int:
    """A distinct 32-bit input seed per (run seed, stream, request index)."""
    key = f"{workload}:{seed}:{stream}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "little")


def toy_shape(geometry: dropout.DecoderGeometry) -> costmodel.ModelShape:
    """The cost model's shape for the toy decoder: 8·h² weights per layer."""
    h = geometry.hidden_dim
    return costmodel.ModelShape(
        layers=geometry.layers,
        hidden_dim=h,
        heads=geometry.heads,
        kv_heads=geometry.heads,
        head_dim=h // geometry.heads,
        nonembed_params=geometry.layers * 8 * h * h,
    )


def connect(grid: compressor.TokenGrid, config: compressor.ConnectorConfig):
    """Compress a video and materialise its output tokens as one array."""
    context = compressor.compress_video(grid, config)
    return context, context.vectors()


def output_grid(vectors: np.ndarray) -> compressor.TokenGrid:
    """The connector output as a one-frame grid, the way the CLI stores it."""
    return compressor.TokenGrid(vectors.reshape(1, 1, vectors.shape[0], vectors.shape[1]))


def encode_output(vectors: np.ndarray) -> bytes:
    return io.encode_embeddings(output_grid(vectors))


def write_output(vectors: np.ndarray, path: str) -> None:
    io.write_embeddings(output_grid(vectors), path)


def clip_frames(frames: int, clip_len: int) -> list[int]:
    return [min(clip_len, frames - start) for start in range(0, frames, clip_len)]


class MergeLong:
    """decode -> merge -> conservation check -> encode -> 4-layer decoder."""

    name = "merge-long"
    SIZES = {
        "full": dict(frames=64, rows=16, cols=16, dim=64, k=8, budget=16, hidden=64),
        "tiny": dict(frames=8, rows=4, cols=4, dim=8, k=4, budget=4, hidden=16),
    }

    def __init__(self, size: str, seed: int, workdir: str):
        p = self.SIZES[size]
        self.shape = (p["frames"], p["rows"], p["cols"], p["dim"])
        self.k = p["k"]
        self.noise = 0.25
        self.config = compressor.ConnectorConfig(kind="merge", budget=p["budget"], clip_len=4)
        self.geometry = dropout.DecoderGeometry(layers=4, hidden_dim=p["hidden"], heads=4)
        self.schedule = dropout.DropSchedule()
        self.cost_shape = toy_shape(self.geometry)

    def gen(self, seed: int) -> dict:
        grid = io.synth_grid("clusters", self.shape, seed=seed, k=self.k, noise=self.noise)
        return {"seed": seed, "grid": grid, "blob": io.encode_embeddings(grid)}

    def request(self, tr, inp: dict) -> dict:
        grid = tr.call("io.decode", io.decode_embeddings, inp["blob"])
        context, vectors = tr.call("compressor.merge", connect, grid, self.config)
        residual = tr.call("compressor.residual", compressor.conservation_residual, grid, context)
        blob = tr.call("io.encode", encode_output, vectors)
        run = tr.call(
            "dropout.decoder", dropout.toy_decoder_run,
            TEXT_TOKENS, vectors, self.geometry, self.schedule, seed=inp["seed"],
        )
        return {"grid": grid, "context": context, "residual": residual, "blob": blob, "run": run}

    def check(self, inp: dict, out: dict) -> list[str]:
        problems = []
        if not np.array_equal(out["grid"].data, inp["grid"].data):
            problems.append("decoded input differs from the float32 grid")
        frames, rows, cols, _ = self.shape
        per_clip = clip_frames(frames, self.config.clip_len)
        budgets = [
            compressor.scaled_budget(self.config.budget, m, self.config.clip_len) for m in per_clip
        ]
        context = out["context"]
        ends = list(context.clip_offsets[1:]) + [len(context.tokens)]
        got = [end - start for start, end in zip(context.clip_offsets, ends)]
        if got != budgets:
            problems.append(f"tokens per clip {got} != {budgets}")
        else:
            for clip, (start, end) in enumerate(zip(context.clip_offsets, ends)):
                total = sum(t.size for t in context.tokens[start:end])
                if total != per_clip[clip] * rows * cols:
                    problems.append(f"clip {clip} token sizes sum to {total}")
        if not out["residual"] <= RESIDUAL_LIMIT:
            problems.append(f"merge residual {out['residual']:.3e} > {RESIDUAL_LIMIT}")
        if not np.all(np.isfinite(out["run"].states)):
            problems.append("decoder states are not finite")
        return problems

    def counts(self, inp: dict, out: dict) -> dict:
        run = out["run"]
        n_out = len(out["context"].tokens)
        gflop = costmodel.flops_with_schedule(
            n_out, self.schedule, self.cost_shape, TEXT_TOKENS
        ) / 1e9
        return {
            "io.bytes": len(inp["blob"]) + len(out["blob"]),
            "compressor.tokens_in": inp["grid"].token_count,
            "compressor.tokens_out": n_out,
            "compressor.clips": len(out["context"].clip_offsets),
            "compressor.residual": out["residual"],
            "dropout.layer_tokens": sum(len(k) + TEXT_TOKENS for k in run.kept),
            "dropout.kept_final": len(run.kept[-1]),
            "dropout.gflop": gflop,
            "costmodel.gflop": gflop,
        }

    def fingerprint(self, out: dict) -> bytes:
        return out["blob"] + np.asarray(out["run"].kept[-1], dtype="<i8").tobytes()


class DecoderDeep:
    """decode -> spatial pooling -> 28-layer decoder with the paper schedule."""

    name = "decoder-deep"
    SIZES = {
        "full": dict(frames=64, rows=16, cols=16, dim=64, factor=4, hidden=64),
        "tiny": dict(frames=8, rows=4, cols=4, dim=8, factor=2, hidden=16),
    }

    def __init__(self, size: str, seed: int, workdir: str):
        p = self.SIZES[size]
        self.shape = (p["frames"], p["rows"], p["cols"], p["dim"])
        self.config = compressor.ConnectorConfig(kind="spatial", factor=p["factor"])
        self.geometry = dropout.DecoderGeometry(layers=28, hidden_dim=p["hidden"], heads=4)
        self.schedule = dropout.DropSchedule.parse(PAPER_SCHEDULE)
        self.empty = dropout.DropSchedule()
        self.attention = next(e for e in self.schedule.entries if e.method == dropout.ATTENTION)
        self.cost_shape = toy_shape(self.geometry)
        frames, rows, cols, _ = self.shape
        self.visual_tokens = frames * (rows // p["factor"]) * (cols // p["factor"])

    def gen(self, seed: int) -> dict:
        grid = io.synth_grid("gaussian", self.shape, seed=seed)
        return {"seed": seed, "grid": grid, "blob": io.encode_embeddings(grid)}

    def request(self, tr, inp: dict) -> dict:
        grid = tr.call("io.decode", io.decode_embeddings, inp["blob"])
        context, vectors = tr.call("compressor.spatial", connect, grid, self.config)
        run = tr.call(
            "dropout.decoder", dropout.toy_decoder_run,
            TEXT_TOKENS, vectors, self.geometry, self.schedule, seed=inp["seed"],
        )
        layer = self.attention.layer
        selected = tr.call(
            "dropout.select", dropout.attention_select,
            run.snapshots[layer - 1].scores, self.attention.keep_ratio,
        )
        return {"grid": grid, "vectors": vectors, "run": run, "selected": selected}

    def check(self, inp: dict, out: dict) -> list[str]:
        problems = []
        if not np.array_equal(out["grid"].data, inp["grid"].data):
            problems.append("decoded input differs from the float32 grid")
        run = out["run"]
        n = out["vectors"].shape[0]
        if n != self.visual_tokens:
            problems.append(f"spatial output has {n} tokens, not {self.visual_tokens}")
        expected = dropout.plan_schedule(n, self.schedule, self.geometry.layers)
        got = [len(k) for k in run.kept]
        if got != expected:
            return problems + [f"kept counts {got} != planned {expected}"]
        previous = set(range(n))
        for layer, kept in enumerate(run.kept):
            if any(b <= a for a, b in zip(kept, kept[1:])):
                problems.append(f"layer {layer} kept indices do not ascend")
            if not previous.issuperset(kept):
                problems.append(f"layer {layer} keeps indices outside its input")
            previous = set(kept)
        for snap in run.snapshots:
            total = float(snap.scores.sum() + snap.text_scores.sum())
            if abs(total - 1.0) > SNAPSHOT_SUM_LIMIT:
                problems.append(f"layer {snap.layer} attention sums to {total!r}")
        if not np.all(np.isfinite(run.states)):
            problems.append("decoder states are not finite")
        for entry in self.schedule.entries:
            before, after = run.kept[entry.layer - 1], run.kept[entry.layer]
            m = len(after)
            if entry.method == dropout.UNIFORM:
                picks = [j * len(before) // m for j in range(m)]
            else:
                # Reference: the m highest scores, ties to the lower index.
                scores = run.snapshots[entry.layer - 1].scores
                picks = sorted(np.argsort(-scores, kind="stable")[:m].tolist())
            if [before[i] for i in picks] != after:
                problems.append(f"layer {entry.layer} {entry.method} drop kept the wrong tokens")
        layer = self.attention.layer
        chosen = [run.kept[layer - 1][i] for i in out["selected"]]
        if chosen != run.kept[layer]:
            problems.append(f"attention_select disagrees with the decoder's layer-{layer} drop")
        return problems

    def counts(self, inp: dict, out: dict) -> dict:
        run = out["run"]
        gflop = self.predicted_flops(out["vectors"].shape[0], self.schedule) / 1e9
        return {
            "io.bytes": len(inp["blob"]),
            "compressor.tokens_in": inp["grid"].token_count,
            "compressor.tokens_out": out["vectors"].shape[0],
            "compressor.clips": math.ceil(self.shape[0] / self.config.clip_len),
            "dropout.layer_tokens": sum(len(k) + TEXT_TOKENS for k in run.kept),
            "dropout.kept_final": len(run.kept[-1]),
            "dropout.gflop": gflop,
            "costmodel.gflop": gflop,
        }

    def predicted_flops(self, visual_tokens: int, schedule) -> float:
        return costmodel.flops_with_schedule(
            visual_tokens, schedule, self.cost_shape, TEXT_TOKENS
        )

    def fidelity(self, tr, inp: dict) -> None:
        """Time the decoder with and without the schedule on one input."""
        _, vectors = connect(io.decode_embeddings(inp["blob"]), self.config)
        for name, schedule in (("scheduled", self.schedule), ("unscheduled", self.empty)):
            tr.call(
                f"dropout.decoder_{name}", dropout.toy_decoder_run,
                TEXT_TOKENS, vectors, self.geometry, schedule, seed=inp["seed"],
            )

    def fingerprint(self, out: dict) -> bytes:
        kept = np.asarray(out["run"].kept[-1], dtype="<i8")
        return np.asarray(out["vectors"], dtype="<f4").tobytes() + kept.tobytes()


def plan_video(meta: sampler.VideoMeta, policy: sampler.SamplingPolicy):
    plan = sampler.build_plan(meta, policy)
    return plan, sampler.timestamp_prompt(meta.duration, plan.frame_count)


def roundtrip(instance: niah.NiahInstance) -> niah.NiahInstance:
    return niah.instance_from_dict(json.loads(niah.dump_instance(instance)))


class HaystackSweep:
    """sampler -> file I/O -> three connectors -> cost model -> 32 NIAH instances."""

    name = "haystack-sweep"
    SIZES = {
        "full": dict(
            duration=(30.0, 7200.0), t_min=16, t_max=128, rows=8, cols=8, dim=64,
            queries=64, instances=32, library=200,
        ),
        "tiny": dict(
            duration=(10.0, 60.0), t_min=10, t_max=16, rows=4, cols=4, dim=8,
            queries=8, instances=4, library=40,
        ),
    }
    FPS = 2.0
    HOPS = 3
    DISTRACTORS = 2

    def __init__(self, size: str, seed: int, workdir: str):
        p = self.SIZES[size]
        self.duration = p["duration"]
        self.policy = sampler.SamplingPolicy(t_min=p["t_min"], t_max=p["t_max"])
        self.grid_shape = (p["rows"], p["cols"], p["dim"])
        self.instances = p["instances"]
        self.connectors = (
            compressor.ConnectorConfig(kind="spatial", factor=2),
            compressor.ConnectorConfig(kind="uneven", f_first=2, f_rest=4),
            compressor.ConnectorConfig(kind="resampler", queries=p["queries"], clip_len=4),
        )
        self.schedule = dropout.DropSchedule.parse(PAPER_SCHEDULE)
        self.cost_shape = costmodel.preset("7b")
        self.library = niah.synth_library(p["library"], seed=input_seed(self.name, seed, "library", 0))
        self.workdir = workdir

    def gen(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        lo, hi = self.duration
        duration = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
        frames = min(self.policy.t_max, max(math.floor(duration), self.policy.t_min))
        grid = io.synth_grid("gaussian", (frames,) + self.grid_shape, seed=seed)
        meta = sampler.VideoMeta(
            duration=duration, fps=self.FPS, total_frames=max(1, math.floor(duration * self.FPS + 0.5))
        )
        base = int(rng.integers(2**31 - self.instances))
        return {
            "meta": meta,
            "frames": frames,
            "grid": grid,
            "niah_seeds": [base + j for j in range(self.instances)],
        }

    def estimate(self, tokens: int):
        report = costmodel.memory_estimate(tokens, self.cost_shape)
        flops = costmodel.flops_with_schedule(tokens, self.schedule, self.cost_shape, TEXT_TOKENS)
        return report, flops

    def request(self, tr, inp: dict) -> dict:
        plan, prompt = tr.call("sampler.plan", plan_video, inp["meta"], self.policy)
        in_path = os.path.join(self.workdir, "input.hico")
        tr.call("io.write", io.write_embeddings, inp["grid"], in_path)
        grid = tr.call("io.read", io.read_embeddings, in_path)
        outputs = []
        for config in self.connectors:
            context, vectors = tr.call(f"compressor.{config.kind}", connect, grid, config)
            path = os.path.join(self.workdir, f"{config.kind}.hico")
            tr.call("io.write", write_output, vectors, path)
            back = tr.call("io.read", io.read_embeddings, path)
            residual = None
            if config.kind != "resampler":
                residual = tr.call(
                    "compressor.residual", compressor.conservation_residual, grid, context
                )
            outputs.append((config, context, vectors, back, residual))
        report, flops = tr.call("costmodel.estimate", self.estimate, len(outputs[0][1].tokens))
        instances, reports, responses = [], [], []
        for instance_seed in inp["niah_seeds"]:
            made = tr.call(
                "niah.gen", niah.gen_multi_hop,
                plan.frame_count, self.HOPS, self.DISTRACTORS, self.library, seed=instance_seed,
            )
            loaded = tr.call("niah.roundtrip", roundtrip, made)
            reports.append(tr.call("niah.validate", niah.validate_instance, loaded, self.library))
            needle, answer = tr.call("niah.solve", niah.oracle_solve, loaded, self.library)
            instances.append((made, loaded))
            responses.append(niah.Response(loaded.instance_id, needle, answer))
        result = tr.call("niah.score", niah.score, [l for _, l in instances], responses)
        return {
            "plan": plan, "prompt": prompt, "grid": grid, "outputs": outputs,
            "report": report, "flops": flops, "instances": instances,
            "reports": reports, "responses": responses, "score": result,
        }

    def expected_tokens(self, config, frames: int) -> int:
        rows, cols, _ = self.grid_shape
        per_clip = clip_frames(frames, config.clip_len)
        if config.kind == "spatial":
            return frames * (rows // config.factor) * (cols // config.factor)
        if config.kind == "uneven":
            first = (rows // config.f_first) * (cols // config.f_first)
            rest = (rows // config.f_rest) * (cols // config.f_rest)
            return sum(first + (m - 1) * rest for m in per_clip)
        return sum(compressor.scaled_budget(config.queries, m, config.clip_len) for m in per_clip)

    def check(self, inp: dict, out: dict) -> list[str]:
        problems = []
        plan, frames = out["plan"], inp["frames"]
        if plan.frame_count != frames or not (
            self.policy.t_min <= plan.frame_count <= self.policy.t_max
        ):
            problems.append(f"sampled {plan.frame_count} frames, expected {frames}")
        seconds = math.floor(inp["meta"].duration + 0.5)
        if sampler.parse_timestamp_prompt(out["prompt"]) != (seconds, plan.frame_count):
            problems.append(f"prompt does not round-trip: {out['prompt']!r}")
        if not np.array_equal(out["grid"].data, inp["grid"].data):
            problems.append("input file read back differs from the float32 grid")
        for config, context, vectors, back, residual in out["outputs"]:
            expected = self.expected_tokens(config, frames)
            if vectors.shape[0] != expected:
                problems.append(f"{config.kind}: {vectors.shape[0]} tokens, expected {expected}")
            written = vectors.astype(np.float32).astype(np.float64)
            if not np.array_equal(back.data.reshape(vectors.shape), written):
                problems.append(f"{config.kind}: output read back differs from what was written")
            if residual is not None and not residual <= RESIDUAL_LIMIT:
                problems.append(f"{config.kind}: residual {residual:.3e} > {RESIDUAL_LIMIT}")
        for made, loaded in out["instances"]:
            if made != loaded:
                problems.append(f"{made.instance_id}: instance changed in the JSON round trip")
        failures = sum(len(r.failures) for r in out["reports"])
        if failures:
            problems.append(f"validate_instance reported {failures} failures")
        if out["score"].cap != 1.0 or out["score"].qa != 1.0:
            problems.append(f"oracle scored cap={out['score'].cap} qa={out['score'].qa}")
        return problems

    def counts(self, inp: dict, out: dict) -> dict:
        io_bytes = 2 * sum(
            os.path.getsize(os.path.join(self.workdir, f"{name}.hico"))
            for name in ["input"] + [c.kind for c in self.connectors]
        )
        residuals = [r for *_, r in out["outputs"] if r is not None]
        return {
            "io.bytes": io_bytes,
            "sampler.frames": out["plan"].frame_count,
            "compressor.tokens_in": len(self.connectors) * inp["grid"].token_count,
            "compressor.tokens_out": sum(o[2].shape[0] for o in out["outputs"]),
            "compressor.clips": sum(len(o[1].clip_offsets) for o in out["outputs"]),
            "compressor.residual": max(residuals),
            "costmodel.gflop": out["flops"] / 1e9,
            "niah.instances": len(out["instances"]),
            "niah.validate_failures": sum(len(r.failures) for r in out["reports"]),
            "niah.cap": out["score"].cap,
            "niah.qa": out["score"].qa,
        }

    def fingerprint(self, out: dict) -> bytes:
        parts = [out["prompt"].encode()]
        parts += [io.encode_embeddings(o[3]) for o in out["outputs"]]
        parts += [f"{r.instance_id}:{r.needle_id}:{r.answer}".encode() for r in out["responses"]]
        return b"\n".join(parts)


WORKLOADS = {w.name: w for w in (MergeLong, DecoderDeep, HaystackSweep)}
