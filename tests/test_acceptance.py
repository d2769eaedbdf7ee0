"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import io as std_io
import math
import random
import struct
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from helpers import best_merge_variance, cluster_vectors, tome_groups, within_merge_variance
from hico import compressor as cp
from hico import costmodel as cm
from hico import dropout as dp
from hico import io as hio
from hico import niah, sampler
from hico.cli import main as cli_main


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS - {message}")


# ---------------------------------------------------------------------------


def test_criterion_1_sampling_law():
    """Clamp identity, bounds, and monotonicity over D in 1..10000, exactly."""
    for t_min, t_max in [(64, 128), (64, 512)]:
        policy = sampler.SamplingPolicy(t_min, t_max)
        previous = 0
        for d in range(1, 10001):
            count = sampler.compute_frame_count(d, policy)
            assert count == min(t_max, max(d, t_min))
            assert t_min <= count <= t_max
            assert count >= previous
            previous = count
    _pass(1, "clamp identity, bounds, monotonicity over D=1..10000, two policies")


def test_criterion_2_token_count_arithmetic():
    grid = cp.TokenGrid(np.random.default_rng(0).standard_normal((4, 16, 16, 8)))
    out = cp.compress_video(grid, cp.ConnectorConfig(kind="merge", budget=64))
    assert len(out.tokens) == 64
    assert sum(t.size for t in out.tokens) == 1024

    frame = cp.TokenGrid(np.random.default_rng(1).standard_normal((1, 27, 27, 4)))
    ctx = cp.compress_video(frame, cp.ConnectorConfig(kind="merge", budget=16, clip_len=1))
    assert len(ctx.tokens) == 16
    ratio = f"{100 * len(ctx.tokens) / frame.token_count:.2f}"
    assert ratio == "2.19"
    assert abs(16 / 729 - 0.021948) < 1e-6
    _pass(2, "64 tokens / sizes 1024 for 4x16x16; 729->16 reports 2.19%")


def test_criterion_3_conservation():
    configs = [
        cp.ConnectorConfig(kind="merge", budget=16, clip_len=4),
        cp.ConnectorConfig(kind="spatial", factor=2, clip_len=4),
        cp.ConnectorConfig(kind="uneven", f_first=2, f_rest=4, clip_len=4),
    ]
    worst = 0.0
    for seed in range(1000):
        grid = cp.TokenGrid(np.random.default_rng(seed).standard_normal((4, 4, 4, 8)))
        for config in configs:
            ctx = cp.compress_video(grid, config)
            residual = cp.conservation_residual(grid, ctx)
            worst = max(worst, residual)
            assert residual <= 1e-6, (seed, config.kind, residual)
    _pass(3, f"mass conserved on 1000 grids x 3 connectors, worst residual {worst:.2e}")


def test_criterion_4_merge_oracle_equivalence():
    cases = 0
    worst_excess = 0.0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, min(d, n - 1) + 1))
        noise = 0.0 if seed % 2 == 0 else 0.02
        vecs = cluster_vectors(rng, n, d, k, noise)
        got = within_merge_variance(vecs, tome_groups(vecs, k))
        best = best_merge_variance(vecs, k)
        assert got <= 1.10 * best + 1e-9, (seed, n, d, k, got, best)
        if best > 0:
            worst_excess = max(worst_excess, got / best - 1.0)
        cases += 1
    assert cases >= 500
    _pass(4, f"{cases} clustered cases within 10% of the exact merge-tree oracle "
             f"(worst excess {worst_excess:.1%})")


def test_criterion_5_dropout_mechanics():
    counts = dp.plan_schedule(1024, dp.DropSchedule.parse("uni:4:0.75,attn:18:0.25"), 28)
    assert counts[:4] == [1024] * 4
    assert counts[4:18] == [768] * 14
    assert counts[18:] == [192] * 10

    rng = random.Random(0)
    for _ in range(10_000):
        n = rng.randint(1, 512)
        ratio = rng.uniform(0.01, 1.0)
        kept = dp.uniform_drop(n, ratio)
        assert all(a < b for a, b in zip(kept, kept[1:]))
        assert kept[-1] < n
        if len(kept) > 1:
            gaps = [b - a for a, b in zip(kept, kept[1:])]
            assert max(gaps) - min(gaps) <= 2

        scores = [rng.uniform(-10, 10) for _ in range(n)]
        got = dp.attention_select(scores, ratio)
        m = len(got)
        oracle = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:m])
        assert got == oracle

        # composed drops keep a subsequence of a subsequence
        second = dp.attention_select([scores[i] for i in kept], ratio)
        composed = [kept[i] for i in second]
        it = iter(kept)
        assert all(x in it for x in composed)
    _pass(5, "plan counts 1024/768/192; 10^4 spacing/subsequence/oracle cases")


def test_criterion_6_flops_reproduction():
    shape = cm.preset("7b")
    windows = [(64, 14.8, 0.05), (256, 63.0, 0.05), (1000, 303.3, 0.30), (10000, 9969.5, 0.30)]
    deltas = []
    for frames, reported, tolerance in windows:
        got = cm.prefill_flops(cm.tokens_for_video(frames, 16), shape) / 1e12
        delta = abs(got - reported) / reported
        deltas.append(f"{frames}f:{delta:.1%}")
        assert delta <= tolerance, (frames, got, reported)

    for tokens in (1, 10, 1024, 160000):
        assert cm.prefill_flops(2 * tokens, shape) > 2 * cm.prefill_flops(tokens, shape)
    for frames in (1, 64, 1000, 10000):
        dense = cm.prefill_flops(cm.tokens_for_video(frames, 196), shape)
        lean = cm.prefill_flops(cm.tokens_for_video(frames, 16), shape)
        assert dense / lean >= 196 / 16
    assert cm.flops_with_schedule(1024, dp.DropSchedule(), shape) == cm.prefill_flops(1024, shape)
    _pass(6, "reported FLOPs matched (" + ", ".join(deltas) + "); properties exact")


def test_criterion_7_memory_model():
    shape = cm.preset("7b")
    slope = 2 * shape.layers * shape.kv_heads * shape.head_dim * 2
    for tokens in (0, 1, 77, 1024, 160000):
        report = cm.memory_estimate(tokens, shape)
        assert report.kv_cache_bytes == slope * tokens
        assert report.total_infer_bytes == (
            report.weight_bytes + report.kv_cache_bytes + report.overhead_bytes
        )
    total_gb = cm.memory_estimate(160000, shape).total_infer_bytes / 1e9
    delta = abs(total_gb - 33.6) / 33.6
    assert delta <= 0.40
    _pass(7, f"kv-cache exactly linear; 10000-frame total {total_gb:.1f} GB "
             f"({delta:.0%} from reported 33.6 GB, within 40%)")


def test_criterion_8_niah_soundness():
    library = niah.synth_library(100, seed=0)
    lengths = [100, 1000, 5000, 10000]
    for case in range(1000):
        distractors = 1 + case % 3
        inst = niah.gen_multi_hop(
            lengths[case % len(lengths)], 3, distractors, library, seed=case
        )
        report = niah.validate_instance(inst, library)
        assert report.ok, (case, report.failures)
        assert niah.oracle_solve(inst, library) == inst.ground_truth
        _, captions = niah._caption_map(inst, library)
        for path in inst.distractors:
            visited = niah._traverse(
                path.hops[0].item_id, inst, captions, niah.CLUE_TEMPLATE
            )
            assert inst.ground_truth[0] not in visited

    # A uniform-random responder lands near CAP = 1/|library|.
    rng = random.Random(123)
    instances = [
        niah.gen_single_hop(1000, 0.5, library[i % len(library)], seed=i)
        for i in range(10_000)
    ]
    responses = [
        niah.Response(inst.instance_id, rng.choice(library).id, rng.choice(library).answer)
        for inst in instances
    ]
    result = niah.score(instances, responses)
    p = 1.0 / len(library)
    sigma = math.sqrt(p * (1 - p) / len(instances))
    assert abs(result.cap - p) <= 3 * sigma, (result.cap, p, sigma)
    assert result.qa <= result.cap
    _pass(8, f"1000 multi-hop instances sound; oracle CAP=QA=1; random responder "
             f"CAP {result.cap:.4f} within 3 sigma of {p:.2%}")


def _run_cli(argv) -> str:
    buf = std_io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, (argv, buf.getvalue())
    return buf.getvalue()


def _produce_everything(root: Path) -> dict[str, bytes]:
    root.mkdir(parents=True, exist_ok=True)
    s = str
    grid = root / "grid.bin"
    small = root / "small.bin"
    outputs: dict[str, str] = {}

    outputs["synth"] = _run_cli(["synth", "--kind", "clusters", "--shape", "4x16x16x8",
                                 "--k", "3", "--seed", "11", "--out", s(grid)])
    outputs["synth-small"] = _run_cli(["synth", "--kind", "gaussian", "--shape", "4x4x4x8",
                                       "--seed", "12", "--out", s(small)])
    outputs["sample"] = _run_cli(["sample", "--duration", "3600.4", "--tmin", "64",
                                  "--tmax", "512", "--fps", "2.0"])
    outputs["compress-merge"] = _run_cli(["compress", "--in", s(grid), "--out",
                                          s(root / "ctx_merge.bin"), "--connector", "merge",
                                          "--budget", "64", "--clip-len", "4"])
    outputs["compress-resampler"] = _run_cli(["compress", "--in", s(grid), "--out",
                                              s(root / "ctx_res.bin"), "--connector",
                                              "resampler", "--queries", "16", "--seed", "5"])
    outputs["estimate"] = _run_cli(["estimate", "--frames", "10000", "--shape", "7b",
                                    "--schedule", "uni:4:0.75,attn:18:0.25",
                                    "--text-tokens", "64"])
    outputs["dropout"] = _run_cli(["dropout", "--in", s(small), "--schedule",
                                   "uni:1:0.75,attn:2:0.25", "--layers", "4",
                                   "--seed", "3"])
    lib = root / "lib.json"
    outputs["lib"] = _run_cli(["niah", "synth-library", "--size", "60", "--seed", "9",
                               "--out", s(lib)])
    inst_dir = root / "instances"
    outputs["gen-multi"] = _run_cli(["niah", "gen", "--mode", "multi", "--length", "2000",
                                     "--hops", "3", "--distractors", "2", "--count", "3",
                                     "--seed", "21", "--library", s(lib),
                                     "--out-dir", s(inst_dir)])
    outputs["gen-single"] = _run_cli(["niah", "gen", "--mode", "single", "--length", "500",
                                      "--depth", "0.25", "--count", "2", "--seed", "40",
                                      "--library", s(lib), "--out-dir", s(inst_dir)])
    resp = root / "resp.jsonl"
    outputs["solve"] = _run_cli(["niah", "solve", s(inst_dir), "--library", s(lib),
                                 "--out", s(resp)])
    outputs["score"] = _run_cli(["niah", "score", s(inst_dir), "--responses", s(resp)])
    cell_dir = root / "cells"
    outputs["heatmap"] = _run_cli(["niah", "heatmap", "--lengths", "100,1000",
                                   "--depths", "0,0.5,1.0", "--seed", "17",
                                   "--library", s(lib), "--out-dir", s(cell_dir),
                                   "--grid", s(root / "grid.csv")])
    cell_resp = root / "cell_resp.jsonl"
    _run_cli(["niah", "solve", s(cell_dir), "--library", s(lib), "--out", s(cell_resp)])
    outputs["heatmap-score"] = _run_cli(["niah", "heatmap-score", s(cell_dir),
                                         "--grid", s(root / "grid.csv"),
                                         "--responses", s(cell_resp),
                                         "--out", s(root / "heat.csv")])

    artifacts = {
        f"stdout:{name}": text.encode() for name, text in outputs.items()
    }
    for path in sorted(root.rglob("*")):
        if path.is_file():
            artifacts[str(path.relative_to(root))] = path.read_bytes()
    return artifacts


def test_criterion_9_cli_determinism(tmp_path):
    first = _produce_everything(tmp_path / "a")
    second = _produce_everything(tmp_path / "b")
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"non-deterministic artifact: {key}"
    file_count = sum(1 for k in first if not k.startswith("stdout:"))
    _pass(9, f"{file_count} files and {len(first) - file_count} reports byte-identical "
             "across two full CLI runs")


def test_criterion_10_embedding_format_robustness(tmp_path):
    # 100-case round trip, bit-exact at the byte level.
    shapes = [(1, 1, 1, 1), (2, 3, 4, 5), (4, 4, 4, 8), (1, 27, 27, 2), (3, 2, 5, 7)]
    for case in range(100):
        kind = hio.GRID_KINDS[case % 3]
        shape = shapes[case % len(shapes)]
        kwargs = {"k": min(2, shape[3])} if kind == "clusters" else {}
        grid = hio.synth_grid(kind, shape, seed=case, **kwargs)
        path = tmp_path / f"rt{case}.bin"
        hio.write_embeddings(grid, path)
        again = hio.read_embeddings(path)
        assert np.array_equal(again.data, grid.data)
        assert hio.encode_embeddings(again) == path.read_bytes()

    # Fuzzed truncation and corruption: the parser must either return a grid
    # or raise EmbeddingFormatError ... never anything else.
    base = hio.encode_embeddings(hio.synth_grid("gaussian", (2, 3, 4, 5), seed=1))
    rng = random.Random(7)
    attempts = 0

    def poke(blob: bytes):
        nonlocal attempts
        attempts += 1
        try:
            grid = hio.decode_embeddings(blob)
            assert np.all(np.isfinite(grid.data))
        except hio.EmbeddingFormatError:
            pass

    for cut in range(0, len(base), 3):
        poke(base[:cut])
    for _ in range(400):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 8)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        poke(bytes(mutated))
    for extra in (1, 3, 4, 1000):
        poke(base + b"\x01" * extra)
    poke(b"")
    poke(struct.pack("<4sH", b"HICO", 1))
    huge = struct.pack("<4sHIIII", b"HICO", 1, 2**31, 2**31, 2**31, 2**31)
    poke(huge + b"\x00" * 64)
    _pass(10, f"100 bit-exact round trips; {attempts} fuzzed parses contained")
