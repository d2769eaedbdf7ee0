import argparse
import hashlib
import json
import os
import sys
import warnings

import numpy as np
import pytest

from hico import cli, compressor, costmodel, dropout, errors, io, niah
from hico.cli import main


def run(capsys, *argv):
    capsys.readouterr()  # drop output from any setup commands
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def synth(tmp_path, name="grid.bin", kind="gaussian", shape="4x16x16x8", seed="0", **kw):
    path = tmp_path / name
    argv = ["synth", "--kind", kind, "--shape", shape, "--seed", seed, "--out", str(path)]
    for flag, value in kw.items():
        argv += [f"--{flag}", str(value)]
    assert main(argv) == 0
    return path


# ---------------------------------------------------------------------------
# sample


def test_sample_report(capsys):
    code, out, _ = run(
        capsys, "sample", "--duration", "60", "--tmin", "64", "--tmax", "512",
        "--fps", "1.0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "frame_count=64"
    assert lines[1] == "density=1.066667"
    assert lines[4] == (
        "prompt=The video lasts for 60 seconds, and 64 frames are uniformly "
        "sampled from it."
    )


def test_sample_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "sample", "--duration", "-5")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flag,value", [
    ("--duration", "nan"), ("--duration", "inf"), ("--fps", "inf"), ("--fps", "nan"),
])
def test_sample_non_finite_is_domain_error(capsys, flag, value):
    argv = {"--duration": "60", "--fps": "1", flag: value}
    code, _, err = run(capsys, "sample", *[x for kv in argv.items() for x in kv])
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# compress


def test_compress_merge_report(tmp_path, capsys):
    grid = synth(tmp_path)
    out_path = tmp_path / "ctx.bin"
    code, out, _ = run(
        capsys, "compress", "--in", str(grid), "--out", str(out_path),
        "--connector", "merge", "--budget", "64", "--clip-len", "4",
    )
    assert code == 0
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert report["input_tokens"] == "1024"
    assert report["output_tokens"] == "64"
    assert report["ratio_pct"] == "6.25"
    assert float(report["conservation_residual"]) < 1e-6
    ctx = io.read_embeddings(out_path)
    assert ctx.data.shape == (1, 1, 64, 8)


def test_compress_single_frame_ratio(tmp_path, capsys):
    grid = synth(tmp_path, shape="1x27x27x4")
    code, out, _ = run(
        capsys, "compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
        "--connector", "merge", "--budget", "16", "--clip-len", "1",
    )
    assert code == 0
    assert "ratio_pct=2.19" in out


def test_compress_identity_budget(tmp_path, capsys):
    grid = synth(tmp_path, shape="1x2x2x3")
    code, out, _ = run(
        capsys, "compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
        "--connector", "merge", "--budget", "4", "--clip-len", "1",
    )
    assert code == 0
    assert "ratio_pct=100.00" in out
    assert "conservation_residual=0.000e+00" in out


def test_compress_resampler_skips_residual(tmp_path, capsys):
    grid = synth(tmp_path, shape="4x4x4x8")
    code, out, _ = run(
        capsys, "compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
        "--connector", "resampler", "--queries", "5", "--seed", "3",
    )
    assert code == 0
    assert "conservation_residual=n/a" in out
    assert "output_tokens=5" in out


def test_compress_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "compress", "--in", str(tmp_path / "nope.bin"),
        "--out", str(tmp_path / "c.bin"),
    )
    assert code == 3
    assert "io error:" in err


def test_compress_corrupt_input_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WHAT" + b"\x00" * 40)
    code, _, err = run(
        capsys, "compress", "--in", str(bad), "--out", str(tmp_path / "c.bin")
    )
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith(f"io error: {bad}: bad magic")


def test_compress_missing_out_dir_names_target(tmp_path, capsys):
    grid = synth(tmp_path, shape="2x4x4x8")
    target = tmp_path / "no" / "such" / "dir" / "o.bin"
    code, _, err = run(capsys, "compress", "--in", str(grid), "--out", str(target))
    assert code == 3
    assert err.startswith("io error:") and len(err.splitlines()) == 1
    assert str(target) in err and ".tmp" not in err


def resampler_with_weights(tmp_path, capsys, **arrays):
    grid = synth(tmp_path, shape="4x4x4x8")
    weights = tmp_path / "w.npz"
    np.savez(weights, **arrays)
    return run(
        capsys, "compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
        "--connector", "resampler", "--queries", "5", "--weights", str(weights),
    )


def test_resampler_weights_without_queries(tmp_path, capsys):
    code, _, err = resampler_with_weights(tmp_path, capsys, wk=np.eye(8))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "'queries'" in err


def test_resampler_weights_corrupt_member_is_one_line_error(tmp_path, capsys):
    grid = synth(tmp_path, shape="4x4x4x8")
    weights = tmp_path / "bad.npz"
    np.savez(weights, queries=np.random.default_rng(0).standard_normal((64, 8)))
    blob = bytearray(weights.read_bytes())
    blob[blob.find(b"queries.npy") + 200] ^= 0xFF  # a payload byte: the CRC no longer matches
    weights.write_bytes(bytes(blob))
    code, out, err = run(
        capsys, "compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
        "--connector", "resampler", "--queries", "64", "--weights", str(weights),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(weights) in err and "Traceback" not in err


def test_resampler_weights_serve_a_short_final_clip(tmp_path, capsys):
    # Clips of 4, 4 and 2 frames: the short clip reads the first 3 of the 6 queries.
    grid = synth(tmp_path, shape="10x4x4x8")
    rng = np.random.default_rng(3)
    queries, wk, wv = rng.standard_normal((6, 8)), rng.standard_normal((8, 8)), np.eye(8)
    weights = tmp_path / "w.npz"
    np.savez(weights, queries=queries, wk=wk, wv=wv)
    out_path = tmp_path / "c.bin"
    code, out, err = run(
        capsys, "compress", "--in", str(grid), "--out", str(out_path),
        "--connector", "resampler", "--clip-len", "4", "--queries", "6",
        "--weights", str(weights),
    )
    assert code == 0 and err == ""
    assert "output_tokens=15" in out.splitlines()
    clip = io.read_embeddings(grid).data[8:].reshape(-1, 8)
    expected = compressor.resampler_forward(clip, queries[:3], wk, wv)
    last = io.read_embeddings(out_path).data[0, 0, 12:]
    assert np.array_equal(last, expected.astype(np.float32))


@pytest.mark.parametrize("queries,message", [
    (np.ones((5, 8)) * (1 + 2j), "holds queries of dtype complex128, not reals"),
    (np.full((5, 8), np.inf), "holds non-finite values"),
])
def test_resampler_weights_must_be_finite_reals(tmp_path, capsys, queries, message):
    code, out, err = resampler_with_weights(tmp_path, capsys, queries=queries)
    assert code == 2 and out == ""
    assert err == f"error: weights file {tmp_path / 'w.npz'} {message}\n"


def test_resampler_weights_with_non_finite_outputs_name_the_file(tmp_path, capsys):
    # Finite weights whose scores overflow: the output, not a member, is non-finite.
    code, out, err = resampler_with_weights(
        tmp_path, capsys, queries=np.full((5, 8), 1e300), wk=np.full((8, 8), 1e300)
    )
    assert code == 2 and out == ""
    assert err == f"error: resampler outputs with weights file {tmp_path / 'w.npz'} are non-finite\n"


def test_resampler_weights_wk_shape_mismatch(tmp_path, capsys):
    code, _, err = resampler_with_weights(
        tmp_path, capsys, queries=np.ones((5, 8)), wk=np.ones((5, 8))
    )
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "wk" in err and str(tmp_path / "w.npz") in err


@pytest.mark.parametrize("arrays,message", [
    ({"queries": np.ones(8)}, "holds queries of shape (8,), need (5, d) with d >= 1"),
    ({"queries": np.ones((3, 8))}, "holds queries of shape (3, 8), need (5, d) with d >= 1"),
    ({"queries": np.ones((5, 0)), "wk": np.ones((8, 0))},
     "holds queries of shape (5, 0), need (5, d) with d >= 1"),
    ({"queries": np.ones((5, 8)), "wk": np.ones((8, 8, 1))},
     "holds wk of shape (8, 8, 1), need (8, d) with d >= 1"),
    ({"queries": np.ones((5, 8)), "wv": np.ones((6, 8))},
     "holds wv of shape (6, 8), need (8, d) with d >= 1"),
    ({"queries": np.ones((5, 8)), "wv": np.ones((8, 0))},
     "holds wv of shape (8, 0), need (8, d) with d >= 1"),
    ({"queries": np.ones((5, 4))}, "holds queries of 4 columns, need the key dim 8"),
    ({"queries": np.ones((5, 8)), "wk": np.ones((8, 6))},
     "holds queries of 8 columns, need the key dim 6"),
], ids=["queries-1d", "queries-rows", "queries-no-columns", "wk-3d", "wv-rows",
        "wv-no-columns", "queries-vs-grid-dim", "queries-vs-wk-columns"])
def test_resampler_weights_shape_errors_name_the_file(tmp_path, capsys, arrays, message):
    code, out, err = resampler_with_weights(tmp_path, capsys, **arrays)
    assert code == 2 and out == ""
    assert err == f"error: weights file {tmp_path / 'w.npz'} {message}\n"


def test_resampler_output_is_counted_at_the_width_of_wv(tmp_path, capsys, monkeypatch):
    # One clip of 4 outputs: 2,816 bytes at the grid's 8 columns, 66,304 at wv's 1,000.
    grid = synth(tmp_path, shape="4x2x2x8")
    rng = np.random.default_rng(0)
    queries, wv = rng.standard_normal((4, 8)), rng.standard_normal((8, 1000))
    monkeypatch.setattr(errors, "BYTES_CAP", 20_000)
    argv = ["compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
            "--connector", "resampler", "--queries", "4", "--weights", str(tmp_path / "w.npz")]
    np.savez(tmp_path / "w.npz", queries=queries)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    np.savez(tmp_path / "w.npz", queries=queries, wv=wv)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --queries 4 on clips of 16 tokens needs about 66304 bytes, over the 20000-byte cap\n"


# ---------------------------------------------------------------------------
# estimate


def test_estimate_report(capsys):
    code, out, _ = run(
        capsys, "estimate", "--frames", "64", "--tokens-per-frame", "16",
        "--shape", "7b",
    )
    assert code == 0
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert report["tokens"] == "1024"
    assert abs(float(report["tflops"]) - 14.8) / 14.8 < 0.05
    assert int(report["total_infer_bytes"]) == (
        int(report["weight_bytes"])
        + int(report["kv_cache_bytes"])
        + int(report["overhead_bytes"])
    )


def test_estimate_with_schedule(capsys):
    code, out, _ = run(
        capsys, "estimate", "--frames", "64", "--shape", "7b",
        "--schedule", "uni:4:0.75,attn:18:0.25",
    )
    assert code == 0
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert float(report["schedule_flops"]) < float(report["flops"])


@pytest.mark.parametrize(
    "flags",
    [
        ["--schedule", "uni:4:0.5", "--text-tokens", "-5"],
        ["--schedule", "uni:40:0.5"],
        ["--schedule", "uni:4:1.5"],
    ],
    ids=["negative-text", "layer-past-depth", "bad-keep-ratio"],
)
def test_estimate_bad_schedule_args_print_no_report(capsys, flags):
    code, out, err = run(capsys, "estimate", "--frames", "64", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_estimate_unknown_shape(capsys):
    code, _, err = run(capsys, "estimate", "--frames", "64", "--shape", "13b")
    assert code == 2


HUGE = "1" + "0" * 400
SCHEDULE = ["--schedule", "uni:4:0.75,attn:18:0.25"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--frames", "10", "--overhead-bytes", HUGE],
        ["--frames", HUGE],
        ["--frames", "10", "--cache-bytes", HUGE],
        ["--frames", "10", "--tokens-per-frame", HUGE],
        ["--frames", "10", *SCHEDULE, "--text-tokens", HUGE],
        # The token count fits a float, its FLOPs do not: this once printed flops=inf.
        ["--frames", "1" + "0" * 200],
        ["--frames", "10", *SCHEDULE, "--text-tokens", "1" + "0" * 200],
    ],
    ids=[
        "overhead-bytes", "frames", "cache-bytes", "tokens-per-frame", "text-tokens",
        "prefill-flops", "scheduled-flops",
    ],
)
def test_estimate_overflowing_sizes_print_one_line(capsys, flags):
    code, out, err = run(capsys, "estimate", *flags)
    assert out == ""
    assert one_line_error(code, err) and "is not a finite float" in err


# `--shape toy` prices the decoder `dropout` builds from the same flags: 28
# layers of 8·64² weights by default, so the paper's schedule fits it.
def test_estimate_toy_prices_the_dropout_decoder(capsys):
    code, out, err = run(capsys, "estimate", "--frames", "64", "--shape", "toy", *SCHEDULE)
    assert (code, err) == (0, "")
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert report["weight_bytes"] == str(2 * 917_504)
    shape = costmodel.toy_shape(dropout.DecoderGeometry(28, 64, 4))
    schedule = dropout.DropSchedule.parse(SCHEDULE[1])
    flops = costmodel.flops_with_schedule(1024, schedule, shape, 8)
    assert report["schedule_flops"] == f"{flops:.6e}"


def test_estimate_toy_follows_the_layers_flag(capsys):
    code, out, _ = run(capsys, "estimate", "--frames", "64", "--shape", "toy", "--layers", "6")
    assert code == 0
    assert f"weight_bytes={2 * 6 * 32_768}" in out.splitlines()


@pytest.mark.parametrize(
    "flags,complaint",
    [
        (["--hidden-dim", "30", "--heads", "4"], "heads must divide hidden_dim"),
        (["--layers", "1000000000000", *SCHEDULE], "over the 1073741824-byte cap"),
    ],
    ids=["heads-not-dividing", "weights-past-cap"],
)
def test_estimate_toy_refuses_a_decoder_dropout_refuses(capsys, flags, complaint):
    code, out, err = run(capsys, "estimate", "--frames", "64", "--shape", "toy", *flags)
    assert out == ""
    assert one_line_error(code, err) and complaint in err


# ---------------------------------------------------------------------------
# dropout


def test_dropout_table(tmp_path, capsys):
    grid = synth(tmp_path, shape="4x4x4x8")
    code, out, _ = run(
        capsys, "dropout", "--in", str(grid),
        "--schedule", "uni:1:0.5,attn:2:0.5",
        "--layers", "4", "--seed", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "layer,count"
    assert lines[1:5] == ["0,64", "1,32", "2,16", "3,16"]
    kept = lines[5]
    assert kept.startswith("kept_final=")
    assert len(kept.split("=", 1)[1].split(",")) == 16


def test_dropout_scale_from(tmp_path, capsys):
    grid = synth(tmp_path, shape="2x4x4x8")
    code, out, _ = run(
        capsys, "dropout", "--in", str(grid),
        "--schedule", "uni:4:0.75,attn:18:0.25",
        "--layers", "4", "--scale-from", "28", "--seed", "0",
    )
    assert code == 0
    assert out.splitlines()[1] == "0,24"  # ceil(32 * 0.75) at scaled layer 0


# sha256 of toy_decoder_run's final states and of every snapshot's scores and
# text_scores, in layer order, from the row-blocked base-2 attention that
# skips the row max shift under its score bound, takes the row sums from the
# PV matmul, reads the keys transposed, and runs the layer before a drop for
# its survivors only. Each lies within 2.0e-15·max|ref| of
# ref_toy_decoder_run, with equal kept indices. stdout above shows only
# counts and kept indices, so a last-bit change in the attention
# probabilities shows here and not there.
DECODER_GOLDEN = {
    "uni:4:0.75,attn:18:0.25": (
        "4e385a8b34d61fdf3e537cb5d83180da4ad4229bcb580953e06a6330e48f9073",
        "3f598d91dfa20701c6339afc137e3a0b9bc68c89a60f077df0560a2e7760945f",
    ),
    "uni:2:0.6,attn:3:0.5,attn:20:0.3": (
        "2895aa368b6a8562224bab907f124adac9c9f29deba2e025cbc75f4ade717e05",
        "83a3f505305a3b4cd38341045662bf08103093debdfa907473a1daa03ced201e",
    ),
}


@pytest.mark.golden
@pytest.mark.parametrize("schedule", sorted(DECODER_GOLDEN))
def test_decoder_states_and_scores_golden_digests(tmp_path, schedule):
    grid = synth(tmp_path, kind="clusters", shape="10x8x8x16", seed="3", k=4, noise=0.1)
    digest = hashlib.sha256(grid.read_bytes()).hexdigest()
    assert digest == "9233a3c040cf414c15f07aee617a6d129a936701ecda1aac7df5ae2bdb19a97b"
    decoded = dropout.toy_decoder_run(
        text_tokens=8,
        visual=io.read_embeddings(grid).data.reshape(-1, 16),
        geometry=dropout.DecoderGeometry(layers=28),
        schedule=dropout.DropSchedule.parse(schedule),
        seed=5,
    )
    scores = hashlib.sha256()
    for snap in decoded.snapshots:
        scores.update(snap.scores.tobytes())
        scores.update(snap.text_scores.tobytes())
    assert len(decoded.snapshots) == 28
    assert (hashlib.sha256(decoded.states.tobytes()).hexdigest(), scores.hexdigest()) == (
        DECODER_GOLDEN[schedule]
    )


def test_dropout_bad_schedule(tmp_path, capsys):
    grid = synth(tmp_path, shape="2x4x4x8")
    code, _, err = run(
        capsys, "dropout", "--in", str(grid), "--schedule", "uni:4", "--layers", "4"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# niah


def test_niah_end_to_end(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    assert main(["niah", "synth-library", "--size", "50", "--seed", "0",
                 "--out", str(lib)]) == 0
    out_dir = tmp_path / "instances"
    code, out, _ = run(
        capsys, "niah", "gen", "--mode", "multi", "--length", "500",
        "--hops", "3", "--distractors", "2", "--count", "5", "--seed", "7",
        "--library", str(lib), "--out-dir", str(out_dir),
    )
    assert code == 0
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 5

    code, out, _ = run(
        capsys, "niah", "validate", str(out_dir), "--library", str(lib)
    )
    assert code == 0
    assert "failures=0" in out

    responses = tmp_path / "resp.jsonl"
    code, out, _ = run(
        capsys, "niah", "solve", str(out_dir), "--library", str(lib),
        "--out", str(responses),
    )
    assert code == 0

    code, out, _ = run(
        capsys, "niah", "score", str(out_dir), "--responses", str(responses)
    )
    assert code == 0
    assert "cap=1.0000" in out
    assert "qa=1.0000" in out


def test_niah_validate_flags_tampered_instance(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    main(["niah", "synth-library", "--size", "30", "--seed", "0", "--out", str(lib)])
    out_dir = tmp_path / "instances"
    main([
        "niah", "gen", "--mode", "multi", "--length", "100", "--hops", "2",
        "--distractors", "1", "--count", "1", "--seed", "1",
        "--library", str(lib), "--out-dir", str(out_dir),
    ])
    path = next(out_dir.glob("*.json"))
    raw = json.loads(path.read_text())
    raw["distractors"][0]["hops"][-1]["item_id"] = raw["ground_truth"][0]
    path.write_text(json.dumps(raw, indent=2) + "\n")

    code, out, _ = run(capsys, "niah", "validate", str(path), "--library", str(lib))
    assert code == 2
    assert "decoy" in out


def test_niah_heatmap_flow(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    main(["niah", "synth-library", "--size", "40", "--seed", "2", "--out", str(lib)])
    out_dir = tmp_path / "cells"
    grid_csv = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "niah", "heatmap", "--lengths", "50,100", "--depths", "0,0.5,1.0",
        "--seed", "3", "--library", str(lib), "--out-dir", str(out_dir),
        "--grid", str(grid_csv),
    )
    assert code == 0
    lines = grid_csv.read_text().splitlines()
    assert lines[0] == "length,depth,instance"
    assert len(lines) == 7

    responses = tmp_path / "resp.jsonl"
    main(["niah", "solve", str(out_dir), "--library", str(lib), "--out", str(responses)])
    heat_csv = tmp_path / "heat.csv"
    code, out, _ = run(
        capsys, "niah", "heatmap-score", str(out_dir), "--grid", str(grid_csv),
        "--responses", str(responses), "--out", str(heat_csv),
    )
    assert code == 0
    rows = heat_csv.read_text().splitlines()
    assert rows[0] == "length,depth,accuracy"
    assert all(row.endswith("1.0000") for row in rows[1:])


def test_niah_gen_malformed_library_is_one_line_error(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    for raw, message in (('[{"id": "a"}]', "item 0 lacks key 'caption'"),
                         ("[1, 2]", "item 0 must be a JSON object, got int")):
        lib.write_text(raw, encoding="utf-8")
        code, _, err = run(
            capsys, "niah", "gen", "--length", "100", "--library", str(lib),
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"error: {lib} {message}\n"


@pytest.mark.parametrize("command", ["validate", "solve", "score", "heatmap-score", "gen"])
def test_niah_non_utf8_file_is_io_error(tmp_path, capsys, command):
    lib = tmp_path / "lib.json"
    main(["niah", "synth-library", "--size", "30", "--seed", "0", "--out", str(lib)])
    instances = tmp_path / "instances"
    main(["niah", "gen", "--length", "100", "--seed", "1", "--library", str(lib),
          "--out-dir", str(instances)])
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    argv = {
        "validate": ["validate", str(bad), "--library", str(lib)],
        "solve": ["solve", str(bad), "--library", str(lib), "--out", str(tmp_path / "r.jsonl")],
        "score": ["score", str(instances), "--responses", str(bad)],
        "heatmap-score": ["heatmap-score", str(instances), "--grid", str(bad),
                          "--responses", str(bad), "--out", str(tmp_path / "h.csv")],
        "gen": ["gen", "--length", "100", "--library", str(bad), "--out-dir", str(tmp_path / "x")],
    }[command]
    code, _, err = run(capsys, "niah", *argv)
    assert code == 3
    assert err.startswith(f"io error: {bad}: ") and len(err.splitlines()) == 1
    assert "0xff" in err


@pytest.mark.parametrize("command", ["validate", "solve", "score", "gen"])
def test_niah_malformed_json_file_is_io_error_naming_it(tmp_path, capsys, command):
    instances = tmp_path / "instances"
    main(["niah", "gen", "--length", "100", "--synth-library", "20", "--out-dir", str(instances)])
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": ', encoding="utf-8")
    argv = {
        "validate": ["validate", str(bad), "--synth-library", "20"],
        "solve": ["solve", str(bad), "--synth-library", "20", "--out", str(tmp_path / "r.jsonl")],
        "score": ["score", str(instances), "--responses", str(bad)],
        "gen": ["gen", "--length", "100", "--library", str(bad), "--out-dir", str(tmp_path / "x")],
    }[command]
    code, _, err = run(capsys, "niah", *argv)
    assert code == 3
    # A responses file is JSON lines, so its message also names the line.
    where = f"{bad}:1" if command == "score" else str(bad)
    assert err.startswith(f"io error: {where}: Expecting value") and len(err.splitlines()) == 1


@pytest.mark.parametrize("broken", ["grid", "responses", "instance"])
def test_niah_heatmap_score_names_the_file_that_fails_to_decode(tmp_path, capsys, broken):
    cells, grid_csv, responses = tmp_path / "cells", tmp_path / "grid.csv", tmp_path / "r.jsonl"
    main(["niah", "heatmap", "--lengths", "60", "--depths", "0,1", "--synth-library", "20",
          "--out-dir", str(cells), "--grid", str(grid_csv)])
    main(["niah", "solve", str(cells), "--synth-library", "20", "--out", str(responses)])
    bad = {"grid": grid_csv, "responses": responses, "instance": sorted(cells.iterdir())[1]}[broken]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    code, out, err = run(
        capsys, "niah", "heatmap-score", str(cells), "--grid", str(grid_csv),
        "--responses", str(responses), "--out", str(tmp_path / "heat.csv"),
    )
    assert (code, out) == (3, "")
    assert err.startswith(f"io error: {bad}: 'utf-8' codec") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["solve", "score", "heatmap-score"])
def test_niah_errors_name_the_file_they_come_from(tmp_path, capsys, command):
    cells, grid_csv, responses = tmp_path / "cells", tmp_path / "grid.csv", tmp_path / "r.jsonl"
    main(["niah", "heatmap", "--lengths", "60", "--depths", "0,1", "--synth-library", "20",
          "--out-dir", str(cells), "--grid", str(grid_csv)])
    main(["niah", "solve", str(cells), "--synth-library", "20", "--out", str(responses)])
    if command == "solve":
        bad = sorted(cells.iterdir())[0]
        bad.write_text(bad.read_text().replace('"start_hint": "', '"start_hint": "Go to '))
        message = 'text does not match template: "Go to The reasoning path starts'
        argv = ["solve", str(cells), "--synth-library", "20", "--out", str(tmp_path / "o.jsonl")]
    else:
        # One response of two: score and heatmap-score find an instance without one.
        bad = responses
        bad.write_text(bad.read_text().splitlines()[0] + "\n")
        missing = grid_csv.read_text().splitlines()[2].split(",")[2]
        message = {"score": "responses must cover each instance exactly once",
                   "heatmap-score": f"no response for instance {missing}"}[command]
        argv = [command, str(cells), "--responses", str(bad)]
        if command == "heatmap-score":
            argv += ["--grid", str(grid_csv), "--out", str(tmp_path / "heat.csv")]
    code, out, err = run(capsys, "niah", *argv)
    assert (code, out) == (2, "") and one_line_error(code, err)
    assert err.startswith(f"error: {bad}: {message}")


def test_niah_gen_names_the_library_that_is_too_small(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    main(["niah", "synth-library", "--size", "3", "--seed", "0", "--out", str(lib)])
    message = "library has 3 usable items, instance needs 6"
    for source, prefix in ((["--library", str(lib)], f"{lib}: "), (["--synth-library", "3"], "")):
        code, out, err = run(
            capsys, "niah", "gen", "--length", "100", *source, "--out-dir", str(tmp_path / "x"),
        )
        assert (code, out) == (2, "") and one_line_error(code, err)
        assert err == f"error: {prefix}{message}\n"


def test_niah_score_blames_the_instance_files_for_duplicate_ids(tmp_path, capsys):
    cells, responses = tmp_path / "cells", tmp_path / "r.jsonl"
    main(["niah", "gen", "--length", "100", "--synth-library", "20", "--count", "2",
          "--out-dir", str(cells)])
    main(["niah", "solve", str(cells), "--synth-library", "20", "--out", str(responses)])
    first = sorted(cells.iterdir())[0]
    copy = tmp_path / "copy.json"
    copy.write_bytes(first.read_bytes())
    code, out, err = run(capsys, "niah", "score", str(cells), str(copy), "--responses", str(responses))
    assert (code, out) == (2, "") and one_line_error(code, err)
    assert err == f"error: {first}, {copy}: instances contain duplicate ids\n"


def test_niah_gen_requires_library(tmp_path, capsys):
    code, _, err = run(
        capsys, "niah", "gen", "--mode", "multi", "--length", "100",
        "--out-dir", str(tmp_path / "x"),
    )
    assert code == 2


@pytest.mark.parametrize("count", ["0", "-2"])
def test_niah_gen_rejects_non_positive_count(tmp_path, capsys, count):
    code, _, err = run(
        capsys, "niah", "gen", "--length", "100", "--synth-library", "20",
        "--count", count, "--out-dir", str(tmp_path / "x"),
    )
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_niah_gen_zero_synth_library_is_size_error(tmp_path, capsys):
    for size in ("0", "-3"):
        code, _, err = run(
            capsys, "niah", "gen", "--length", "100", "--synth-library", size,
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == "error: library size must be in [1, 4096]\n"


@pytest.mark.parametrize("length", [str(2**63), str(10**400)], ids=["2**63", "10**400"])
@pytest.mark.parametrize("command", ["gen-multi", "gen-single", "heatmap"])
def test_niah_haystack_length_over_ssize_t_is_domain_error(tmp_path, capsys, command, length):
    # Such lengths once overflowed in rng.sample or in the depth arithmetic.
    out = tmp_path / "out"
    argv = {
        "gen-multi": ["gen", "--length", length],
        "gen-single": ["gen", "--mode", "single", "--length", length],
        "heatmap": ["heatmap", "--lengths", length, "--depths", "0.5", "--grid", str(out / "g.csv")],
    }[command]
    code, stdout, err = run(capsys, "niah", *argv, "--synth-library", "50", "--out-dir", str(out))
    assert (code, stdout) == (2, "") and one_line_error(code, err)
    assert err == f"error: haystack_len must be <= {sys.maxsize}\n"
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


def test_synth_non_integer_shape(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth", "--shape", "4x4xAx8", "--out", str(tmp_path / "g.bin")
    )
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# config file and environment


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "tool.cfg"
    cfg.write_text("sampler.t_min = 32\nsampler.t_max = 48\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--config", str(cfg), "sample", "--duration", "10", "--fps", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "frame_count=32"


def test_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "tool.cfg"
    cfg.write_text("sampler.t_min = 32\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--config", str(cfg), "sample", "--duration", "10",
        "--tmin", "16", "--tmax", "512", "--fps", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "frame_count=16"


def test_env_config_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "tool.cfg"
    cfg.write_text("sampler.t_min = 24\nsampler.t_max = 24\n", encoding="utf-8")
    monkeypatch.setenv("HICO_CONFIG", str(cfg))
    code, out, _ = run(capsys, "sample", "--duration", "10", "--fps", "1")
    assert code == 0
    assert out.splitlines()[0] == "frame_count=24"


def test_bad_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tool.cfg"
    cfg.write_text("sampler.wat = 1\n", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(cfg), "sample", "--duration", "10")
    assert code == 2


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "tool.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    code, _, err = run(capsys, "--config", str(cfg), "sample", "--duration", "10")
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# config keys: test values for every key of the schema, and each flag built
# from it, on every subcommand that declares the flag

# Each subcommand with the arguments it requires. Only dropout reads a file
# ({grid}) before it checks a flag.
COMMANDS = {
    ("sample",): ["--duration", "10"],
    ("compress",): ["--in", "{grid}", "--out", "{tmp}/c.bin"],
    ("estimate",): ["--frames", "8"],
    ("dropout",): ["--in", "{grid}"],
    ("synth",): ["--shape", "1x2x2x4", "--out", "{tmp}/s.bin"],
    ("niah", "gen"): ["--length", "50", "--synth-library", "20", "--out-dir", "{tmp}/g"],
    ("niah", "validate"): ["{tmp}/i.json", "--synth-library", "20"],
    ("niah", "solve"): ["{tmp}/i.json", "--synth-library", "20", "--out", "{tmp}/r.jsonl"],
    ("niah", "score"): ["{tmp}/i.json", "--responses", "{tmp}/r.jsonl"],
    ("niah", "heatmap"): ["--lengths", "50", "--depths", "0.5", "--synth-library", "20",
                          "--out-dir", "{tmp}/h", "--grid", "{tmp}/h.csv"],
    ("niah", "heatmap-score"): ["{tmp}/i.json", "--grid", "{tmp}/h.csv",
                                "--responses", "{tmp}/r.jsonl", "--out", "{tmp}/o.csv"],
    ("niah", "synth-library"): ["--size", "4", "--out", "{tmp}/l.json"],
}

# Test values for every config key, in the schema's order: a flag value (None
# for a key without a flag, or for a switch flag, which takes no value) and a
# config value that resolves to something else; for a key with a check, also
# a value that fails it and the error that value gives, from a flag or, after
# the file and line, from a config file.
KEY_VALUES = {
    # Random(-1) seeds exactly like Random(1), so -1 would repeat seed 1.
    "seed": ("3", "5", "-1", "seed must be >= 0, got -1"),
    "sampler.t_min": ("16", "32", "0", "sampler.t_min must be >= 1, got 0"),
    "sampler.t_max": ("48", "96", "-1", "sampler.t_max must be >= 1, got -1"),
    "sampler.fps": ("2.5", "0.5", "nan", "sampler.fps must be finite, got nan"),
    "connector.kind": (
        "spatial", "uneven", "sparkle",
        "connector.kind must be one of merge, resampler, spatial, uneven, got 'sparkle'",
    ),
    "connector.budget": ("8", "16", "0", "connector.budget must be >= 1, got 0"),
    "connector.clip_len": ("2", "3", "0", "connector.clip_len must be >= 1, got 0"),
    "connector.st_temperature": (
        "0.5", "2.0", "0", "connector.st_temperature must be > 0, got 0.0"
    ),
    "connector.factor": ("4", "1", "0", "connector.factor must be >= 1, got 0"),
    "connector.f_first": ("1", "3", "0", "connector.f_first must be >= 1, got 0"),
    "connector.f_rest": ("2", "8", "-2", "connector.f_rest must be >= 1, got -2"),
    "connector.queries": ("4", "12", "0", "connector.queries must be >= 1, got 0"),
    "connector.temperature": ("0.25", "3.0", "nan", "connector.temperature must be > 0, got nan"),
    "connector.weights_path": ("a.npz", "b.npz"),
    "dropout.schedule": (
        "uni:2:0.5", "attn:3:0.25", "uni:4",
        "dropout.schedule must be a drop schedule (bad schedule entry 'uni:4'), got 'uni:4'",
    ),
    "dropout.layers": ("6", "12", "0", "dropout.layers must be >= 1, got 0"),
    "dropout.hidden_dim": ("32", "16", "-1", "dropout.hidden_dim must be >= 1, got -1"),
    "dropout.heads": ("2", "8", "0", "dropout.heads must be >= 1, got 0"),
    "dropout.text_tokens": ("4", "16", "0", "dropout.text_tokens must be >= 1, got 0"),
    "costmodel.shape": ("2b", "toy", "13b", "costmodel.shape must be one of 2b, 7b, toy, got '13b'"),
    "costmodel.nonembed_params": (
        None, "7.07e9", "1e400", "costmodel.nonembed_params must be finite, got inf"
    ),
    "costmodel.bytes_per_param": (
        None, "1", "-3", "costmodel.bytes_per_param must be >= 1, got -3"
    ),
    "costmodel.cache_bytes_per_value": (
        "1", "4", "0", "costmodel.cache_bytes_per_value must be >= 1, got 0"
    ),
    "costmodel.overhead_bytes": ("0", "1024", "-1", "costmodel.overhead_bytes must be >= 0, got -1"),
    "costmodel.tokens_per_frame": (
        "8", "32", "0", "costmodel.tokens_per_frame must be >= 1, got 0"
    ),
    "niah.clue_template": (
        None, "Next: {next_caption}", "no placeholder here",
        "niah.clue_template must contain {next_caption} exactly once, got 'no placeholder here'",
    ),
    "niah.start_template": (
        None, "From {caption}", "{caption} and {caption}",
        "niah.start_template must contain {caption} exactly once, got '{caption} and {caption}'",
    ),
    "niah.q1_text": (None, "Which one?"),
    "niah.hops": ("2", "4", "0", "niah.hops must be >= 1, got 0"),
    "niah.distractors": ("0", "2", "-1", "niah.distractors must be >= 0, got -1"),
    "niah.ordered": (None, "false"),
}


def command_argv(command, tmp_path, grid="grid.bin"):
    return [*command, *(a.format(tmp=tmp_path, grid=grid) for a in COMMANDS[command])]


def flag_argv(key, value):
    return [cli.CONFIG_SCHEMA[key].flag] + ([] if value is None else [value])


def declared_keys(command):
    # An undeclared flag leaves no attribute; a declared one reads None until given.
    args = cli.build_parser().parse_args(command_argv(command, "tmp"))
    return [key for key in cli.CONFIG_SCHEMA if key in vars(args)]


FLAGGED = [(command, key) for command in COMMANDS for key in declared_keys(command)]


def flag_id(case):
    command, key = case
    return "-".join(command) + (cli.CONFIG_SCHEMA[key].flag or f"-{key}")


def subcommands(parser, prefix=()):
    """Every command path of an argparse parser, the top level included."""
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from subcommands(child, prefix + (name,))


def test_flag_cases_cover_the_schema_and_the_parser():
    assert list(KEY_VALUES) == list(cli.CONFIG_SCHEMA)
    flagged_rows = {key for key, row in cli.CONFIG_SCHEMA.items() if row.flag}
    assert {key for _, key in FLAGGED} == flagged_rows
    assert {key for key, values in KEY_VALUES.items() if values[0] is not None} <= flagged_rows
    no_check = cli.ConfigRow(str, None).check
    checked_rows = {key for key, row in cli.CONFIG_SCHEMA.items() if row.check is not no_check}
    assert checked_rows == {key for key, values in KEY_VALUES.items() if len(values) == 4}
    leaves = {c for c in subcommands(cli.build_parser()) if c not in ((), ("niah",))}
    assert leaves == set(COMMANDS)


@pytest.mark.parametrize("command,key", FLAGGED, ids=map(flag_id, FLAGGED))
def test_flag_wins_over_config_file(tmp_path, command, key):
    row = cli.CONFIG_SCHEMA[key]
    flag_value, config_value = KEY_VALUES[key][:2]
    argv = ["--config", config_file(tmp_path, f"{key} = {config_value}\n")]
    argv += command_argv(command, tmp_path)
    from_config = cli.build_parser().parse_args(argv)
    from_flag = cli.build_parser().parse_args(argv + flag_argv(key, flag_value))
    expected = True if flag_value is None else row.parse(flag_value)
    assert cli.resolve_settings(from_flag)[key] == expected
    assert cli.resolve_settings(from_config)[key] == row.parse(config_value) != expected


# The keys without a flag, which only a config file sets.
CONFIG_ONLY = [key for key, row in cli.CONFIG_SCHEMA.items() if row.flag is None]


@pytest.mark.parametrize("key", CONFIG_ONLY)
def test_config_only_key_is_read_from_the_file(tmp_path, key):
    row, config_value = cli.CONFIG_SCHEMA[key], KEY_VALUES[key][1]
    args = argparse.Namespace(config=config_file(tmp_path, f"{key} = {config_value}\n"))
    assert cli.resolve_settings(args)[key] == row.parse(config_value) != row.default


# Every checked key: a flagged one on each command that declares its flag, a
# config-only one on estimate, since a config file is checked before any
# command runs.
CHECKED = [(command, key) for command, key in FLAGGED if len(KEY_VALUES[key]) == 4] + [
    (("estimate",), key) for key in CONFIG_ONLY if len(KEY_VALUES[key]) == 4
]


@pytest.mark.parametrize("command,key", CHECKED, ids=map(flag_id, CHECKED))
def test_value_failing_check_is_same_error_from_flag_or_config(tmp_path, capsys, command, key):
    grid = synth(tmp_path, shape="2x4x4x8")
    argv = command_argv(command, tmp_path, grid)
    bad, error = KEY_VALUES[key][2:]
    if cli.CONFIG_SCHEMA[key].flag:
        assert run(capsys, *argv, *flag_argv(key, bad)) == (2, "", f"error: {error}\n")
    cfg = config_file(tmp_path, f"{key} = {bad}\n")
    assert run(capsys, "--config", cfg, *argv) == (2, "", f"error: {cfg}:1: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "--in", "g", "--out", "c", "--budget", "x"],
        ["sample"],
        ["niah", "bogus"],
        ["bogus"],
    ],
    ids=["typed-flag", "missing-required", "unknown-niah-command", "unknown-command"],
)
def test_argparse_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert one_line_error(exc.value.code, err) and "usage:" not in err


@pytest.mark.parametrize(
    "command", list(subcommands(cli.build_parser())), ids=lambda c: " ".join(("hico",) + c)
)
def test_help_builds_for_every_subcommand(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(('hico',) + command)} ")


# ---------------------------------------------------------------------------
# determinism smoke (full sweep lives in the acceptance suite)


def test_synth_and_compress_deterministic(tmp_path, capsys):
    a = synth(tmp_path, name="a.bin", seed="5")
    b = synth(tmp_path, name="b.bin", seed="5")
    assert a.read_bytes() == b.read_bytes()
    for name in ("ca.bin", "cb.bin"):
        assert main([
            "compress", "--in", str(a), "--out", str(tmp_path / name),
            "--connector", "merge", "--budget", "32",
        ]) == 0
    capsys.readouterr()
    assert (tmp_path / "ca.bin").read_bytes() == (tmp_path / "cb.bin").read_bytes()


# ---------------------------------------------------------------------------
# goldens: every byte-identity check on the CLI, in one table. A row is keyed
# by the id of the test that checks it: (config body or None, the commands run
# in order, their outputs under tmp) -> sha256 of the last command's stdout,
# then of each output file (a directory's files in name order).


def digests(out, *paths):
    files = []
    for path in paths:
        files.extend(sorted(path.iterdir()) if path.is_dir() else [path])
    return [hashlib.sha256(out.encode()).hexdigest()] + [
        hashlib.sha256(p.read_bytes()).hexdigest() for p in files
    ]


def config_file(tmp_path, body):
    path = tmp_path / "tool.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


# 10 frames in clips of 4: the last clip is short and gets a scaled budget.
SYNTH_10 = ["synth", "--kind", "clusters", "--shape", "10x8x8x16", "--seed", "3", "--k", "4",
            "--noise", "0.1", "--out", "{tmp}/grid.bin"]
GRID_10 = "9233a3c040cf414c15f07aee617a6d129a936701ecda1aac7df5ae2bdb19a97b"
# 18 frames in clips of 4 give four equal clips, merged as one stack, and a
# short 2-frame clip (clips=5, clip_offsets=0,10,20,30,40); noise 0 makes every
# cluster's tokens exact duplicates, so ties decide most matches.
SYNTH_18 = ["synth", "--kind", "clusters", "--shape", "18x6x6x8", "--seed", "11", "--k", "3",
            "--noise", "0.0", "--out", "{tmp}/grid.bin"]
GRID_18 = "bc7db741d72ce4f2dd0b5031d39fdf2642d66d63f4b2e85b53a6d2526f34e9f6"
COMPRESS = ["compress", "--in", "{tmp}/grid.bin", "--out", "{tmp}/c.bin"]
DROPOUT = ["dropout", "--in", "{tmp}/grid.bin", "--seed", "5", "--schedule"]
SCHEDULE_1, SCHEDULE_2 = "uni:4:0.75,attn:18:0.25", "uni:2:0.6,attn:3:0.5,attn:20:0.3"
GEN_SINGLE = ["niah", "gen", "--mode", "single", "--length", "200", "--depth", "0.3",
              "--count", "3", "--synth-library", "30", "--out-dir", "{tmp}/out"]
HEATMAP = ["niah", "heatmap", "--lengths", "40,90", "--depths", "0,0.4,1", "--synth-library",
           "30", "--out-dir", "{tmp}/out", "--grid", "{tmp}/grid.csv"]
NIAH_CONFIG = """\
seed = 11
niah.clue_template = Next, look for '{next_caption}'.
niah.start_template = Begin at '{caption}'.
niah.q1_text = Which item ends the chain?
niah.hops = 4
niah.distractors = 2
niah.ordered = yes
"""
CONNECTOR_CONFIG = """\
seed = 9
connector.kind = {kind}
connector.budget = 10
connector.clip_len = 3
connector.st_temperature = 0.25
connector.factor = 4
connector.f_first = 1
connector.f_rest = 2
connector.queries = 7
connector.temperature = 0.5
"""

CLI_GOLDEN = {
    # compress: from the per-token implementation that preceded the columnar
    # one. Any change to merge order, tie-breaking, summation order or the
    # report breaks them.
    "test_compress_golden_digests[merge]": (
        None, [SYNTH_10, COMPRESS + ["--clip-len", "4", "--connector", "merge", "--budget", "12"]],
        ["grid.bin", "c.bin"], [
            "60ebae1c98322c11759ec1af5bd03fbb754be3d2ac3dcad9152be8dcdc1df046", GRID_10,
            "a09b248177db1db79817eb19d8e43b261caea0d628f92c59589fbb5af2da39a8",
        ],
    ),
    "test_compress_golden_digests[merge-st]": (
        None, [SYNTH_10, COMPRESS + ["--clip-len", "4", "--connector", "merge", "--budget", "12",
                                     "--st-temperature", "0.5"]],
        ["grid.bin", "c.bin"], [
            "072b93daa33c95ebcb06d15adc10a476fbab3d9dc9a146f91897f6b2a0bda809", GRID_10,
            "2dbf6056c0c111ef4278f7764363084c888ae2639703254cb83bcdf51b94410f",
        ],
    ),
    "test_compress_golden_digests[spatial]": (
        None, [SYNTH_10, COMPRESS + ["--clip-len", "4", "--connector", "spatial", "--factor", "2"]],
        ["grid.bin", "c.bin"], [
            "a94119ae26ffb9fa1735018277908cf6f0c8c88ef62db221594dbd9704cc76e4", GRID_10,
            "59fa6413a0b662c64fdbce97301fe0b4b7ed6569c2ac1474d34660c46fd7390a",
        ],
    ),
    "test_compress_golden_digests[uneven]": (
        None, [SYNTH_10, COMPRESS + ["--clip-len", "4", "--connector", "uneven", "--f-first", "2",
                                     "--f-rest", "4"]],
        ["grid.bin", "c.bin"], [
            "ccf9474a36fecc2e0a782505521b657124cef72694720f96ffd16fd130b93007", GRID_10,
            "4a9f738e75ef2c49df2d155da2d7c3d7ece61021b2514f894cb1a5d397f748ed",
        ],
    ),
    "test_compress_golden_digests[resampler]": (
        None, [SYNTH_10, COMPRESS + ["--clip-len", "4", "--connector", "resampler", "--queries",
                                     "6", "--seed", "7"]],
        ["grid.bin", "c.bin"], [
            "3542eaf4e1fc99583aa1dc91c5777a4de5e3211db4a7549e42fc26ea7a32dc1f", GRID_10,
            "73bfc680255c1ad47d86ec55044cee70e74121e072f6260673200d3ed33cab40",
        ],
    ),
    # compress of clips merged as a stack: from the clip-at-a-time merge that
    # preceded the lockstep stack.
    "test_compress_stacked_clips_golden_digests[merge]": (
        None, [SYNTH_18, COMPRESS + ["--connector", "merge", "--clip-len", "4", "--budget", "10"]],
        ["grid.bin", "c.bin"], [
            "7f37f9563b31d44ace4d13b780829d532692ee72825ecb6eb282693b325bb045", GRID_18,
            "9868531241ef897074ddab57804d6d602259f26fab1123650d60c6869607f5b7",
        ],
    ),
    "test_compress_stacked_clips_golden_digests[merge-st]": (
        None, [SYNTH_18, COMPRESS + ["--connector", "merge", "--clip-len", "4", "--budget", "10",
                                     "--st-temperature", "0.5"]],
        ["grid.bin", "c.bin"], [
            "2b15a6b6b316aa316198cfdd33397e93a762cca18d174e33937f4a657059a98d", GRID_18,
            "d49491f8ce0df1837b025ebe5639a10b2ea9ab0fb8921233043868ddc289e869",
        ],
    ),
    # compress with every connector knob from a config file.
    "test_compress_config_golden[merge]": (
        CONNECTOR_CONFIG.format(kind="merge"), [SYNTH_10, COMPRESS], ["grid.bin", "c.bin"], [
            "795edc023bde3569fb5c07a42a5598bdc2030a9cb4a005b2514b433882aacdc4", GRID_10,
            "323488e04c8599c19cd77fe5c6a7ab4fbbf9470afc2101003ef2f6c2b67b1c49",
        ],
    ),
    "test_compress_config_golden[resampler]": (
        CONNECTOR_CONFIG.format(kind="resampler"), [SYNTH_10, COMPRESS], ["grid.bin", "c.bin"], [
            "0bfad13f64397d9ca0deb530f27325e2b160911e27f45ce8083a19c99969f2b0", GRID_10,
            "7c680c91000b6c27d8d4e944da96f210471707f474b1bc17d3edd0afca572f41",
        ],
    ),
    # dropout: from the full-square attention that preceded the row-blocked
    # softmax. kept_final depends on every attention-guided drop.
    f"test_dropout_golden_digests[{SCHEDULE_1}-layers-28]": (
        None, [SYNTH_10, DROPOUT + [SCHEDULE_1, "--layers", "28"]], ["grid.bin"],
        ["519a935b3d63c8771f3cb45da4c244606b4f13b5e47a20f28b6e2cc4b88d2dde", GRID_10],
    ),
    f"test_dropout_golden_digests[{SCHEDULE_1}-default-layers]": (
        None, [SYNTH_10, DROPOUT + [SCHEDULE_1]], ["grid.bin"],
        ["519a935b3d63c8771f3cb45da4c244606b4f13b5e47a20f28b6e2cc4b88d2dde", GRID_10],
    ),
    f"test_dropout_golden_digests[{SCHEDULE_2}-layers-28]": (
        None, [SYNTH_10, DROPOUT + [SCHEDULE_2, "--layers", "28"]], ["grid.bin"],
        ["dae61f0d7d8b240959af19f5d51bda27528d03ecb3b8ce18fe658cbe805cd12c", GRID_10],
    ),
    f"test_dropout_golden_digests[{SCHEDULE_2}-default-layers]": (
        None, [SYNTH_10, DROPOUT + [SCHEDULE_2]], ["grid.bin"],
        ["dae61f0d7d8b240959af19f5d51bda27528d03ecb3b8ce18fe658cbe805cd12c", GRID_10],
    ),
    # The commands whose defaults come from the config schema: from the code
    # that wrote each default as a literal at its call site.
    "test_sample_default_golden": (
        None, [["sample", "--duration", "90"]], [],
        ["d9b24df5e0d1849507b6e8d54aba8656b46ce8bdc61abb5777e4af5b64a6e22c"],
    ),
    "test_estimate_default_goldens[default]": (
        None, [["estimate", "--frames", "64"]], [],
        ["9cf7136e4db160bbf047c2d76e6cb1014c5c4c7ff20129e31a5082a6fa03a17f"],
    ),
    "test_estimate_default_goldens[schedule-text-64]": (
        None, [["estimate", "--frames", "10000", "--schedule", SCHEDULE_1, "--text-tokens", "64"]],
        [], ["6344ad1f28c07d07d66a21650959cb81f80c8132af068690a808226b079a1fae"],
    ),
    # No --text-tokens: counts the 8 text tokens `hico dropout` runs with, so
    # this is the digest of the same command with --text-tokens 8. It counted
    # 0 before the schema gave dropout.text_tokens one default.
    "test_estimate_default_goldens[schedule-default-text]": (
        None, [["estimate", "--frames", "10000", "--schedule", SCHEDULE_1]], [],
        ["4d61236136dc41a2d0a2fc52bfbecb53935111f9c87e90d1d4d9de83f07e11a2"],
    ),
    "test_niah_gen_default_hops_golden": (
        None, [["niah", "gen", "--mode", "multi", "--length", "300", "--count", "3", "--seed", "4",
                "--synth-library", "40", "--out-dir", "{tmp}/inst"]], ["inst"], [
            "01e2fc02c4bb4e45e8a506b2666c813c93d397b9172755e194df041af22c644c",
            "10dc7f6ec63e715559b13b1497d5280b12f68b34a59ab23382969aaf2f4960db",
            "b186a087cadf78f52bb0c8434b8ac214c34b26bf44ac5fb0c875cb68a004881c",
            "07ceae05a3a7b699a8d3ec7eca90ca021203ce244ebc07c12ff15e06f3140404",
        ],
    ),
    "test_niah_gen_config_golden": (
        NIAH_CONFIG, [["niah", "gen", "--length", "300", "--count", "2", "--synth-library", "40",
                       "--out-dir", "{tmp}/inst"]], ["inst"], [
            "503f449a8b36eb577e58c5aefb4892af03371c88d3dd8e6d876a1dac99cab597",
            "d3f1b69c7b6d5de6e1ecb95b8acbbd6da5f514e2c717c1499996874595fc40bf",
            "d65a8088380c2f76c0b6f176362f532c1cec423a0031ee5871d68ac6d77c56bb",
        ],
    ),
    # niah outputs: from the code in which gen_single_hop and gen_multi_hop
    # each built their instances by hand; heatmap-config from the code in
    # which heatmap first honoured the configured templates.
    "test_niah_output_goldens[gen-single]": (None, [GEN_SINGLE + ["--seed", "5"]], ["out"], [
        "a2bc17c38c37deab0f264e20e6178c159eb75ae6994a08d1ffd0d1a73bdefdb5",
        "e9dcfdfafe79bd81485c47d03f5f972a42f46141ecab3b46c2492aee7f43f14c",
        "88222a1cf18a64c95de49ba67893110533c4150f5f5059d6ab2553dd00da8496",
        "33c3b145e96cf62b62ad3b417d158ad58dd1c8627fca282110d85217dac940be",
    ]),
    "test_niah_output_goldens[gen-single-config]": (NIAH_CONFIG, [GEN_SINGLE], ["out"], [
        "17c3a5a887d343d6a9ac014f7947bf10ca945a946d3b3620696f975ccba960a8",
        "a4c957f74bf474eb8ad7c3b6f4f2aaa5a80653ba8cbc90c86e0b967dd3d77fe7",
        "d4244cb246baa4424329f8ec70de5944bc269b736175b2d00f2e99e09c1f5c7f",
        "463315c8f5aaedd8268fcfbaa7a4c3c3623894da3729042db0fdb25fd3fc5e98",
    ]),
    "test_niah_output_goldens[heatmap]": (None, [HEATMAP + ["--seed", "6"]], ["grid.csv", "out"], [
        "e1e6869d9753fcf2567179dc299584fc493d1ca3e985dc2d3ef10ede7b2e2812",
        "5c9e27146fef28913363677b5c680c5fd18c66dd12bc1115b9420019711b3ec8",
        "2cf44608e5a662fb0a35a9187c1c6c82a909e8887cc3357c26c42c2a6abacf38",
        "501bca74f9ac66ab12c81d0541664e81de4f8ff960a7d91a053af73f45adeb5b",
        "44e1fd6e3265fd788d2c91b900459a65a797d20590ed5508f906e738beac15a0",
        "f6b9e12fc9eaaa685660ef0be739c948a6fb96f4e66758c85773d4baf2d2ea28",
        "40d2d0ca095072d72b63227bfbfb9bc93ba0ab36c50f25709c7b920c30207bca",
        "1aa04b2d89ff6d962adee861fbf2ad7420c07c26f1f2565b3a44287a7c7fc785",
    ]),
    "test_niah_output_goldens[heatmap-config]": (NIAH_CONFIG, [HEATMAP], ["grid.csv", "out"], [
        "e1e6869d9753fcf2567179dc299584fc493d1ca3e985dc2d3ef10ede7b2e2812",
        "0d5edf7e41bd018a731ad282a92a9daa05d83e6fbbadc9e4c653332d8670db39",
        "385e54faa496e50614cc5c17b5467a76d20f929793d3fab1d143adff1b9ea069",
        "ee75728bb682a32653051e843dfbe190f8ff1fa7fa75f984bcc30d3670dd9c6c",
        "ee86f279f3c7bee5f42beb16fd170f502836fd0ea673c8c32a11412d184586ee",
        "bea4a08252aaf3398ba9e5782f3f326b1b2692e5157ffa88ccef98f5ee8481d6",
        "b77d7a2943905e50ea26a3cca9221f6bb9d84c5dcf72c8a47b0e0be6b3d58436",
        "26e4ac00615607c7260cd0f5e6d2c4ca0383eeeaca94af162859951ba1022d23",
    ]),
    "test_niah_output_goldens[synth-library]": (
        None, [["niah", "synth-library", "--size", "25", "--seed", "8", "--out", "{tmp}/lib.json"]],
        ["lib.json"], [
            "983b637ff112d7cc80aa7c0ce87e3ab00adfa6392f12a4c5319a36e26080b444",
            "eefd7dd71fb7ef615e279f581f939be789d0d992dfda960904069420b8c7647e",
        ],
    ),
    "test_niah_output_goldens[solve]": (
        None,
        [["niah", "gen", "--length", "300", "--count", "4", "--seed", "2", "--synth-library", "30",
          "--out-dir", "{tmp}/inst"],
         ["niah", "solve", "{tmp}/inst", "--seed", "2", "--synth-library", "30",
          "--out", "{tmp}/r.jsonl"]],
        ["r.jsonl"], [
            "51dfc5b8027188a61a28556ce1bd3ab4ff070dbccedf86422832e14897f72c9b",
            "7d577a4063a096f28746d22b5c9168ff44ce49bcc0a9daae24b848ab5d843045",
        ],
    ),
    # The heatmap its test then scores, with one response edited.
    "test_niah_heatmap_score_golden": (
        None,
        [["niah", "synth-library", "--size", "40", "--seed", "2", "--out", "{tmp}/lib.json"],
         ["niah", "heatmap", "--lengths", "60,120", "--depths", "0,0.25,1", "--library",
          "{tmp}/lib.json", "--out-dir", "{tmp}/cells", "--grid", "{tmp}/grid.csv"]],
        ["grid.csv", "cells"], [
            "e1e6869d9753fcf2567179dc299584fc493d1ca3e985dc2d3ef10ede7b2e2812",
            "48510aa2818e1b8fd65afa5da38dbaa4a7224f10bc35b975098d497ac697f4e2",
            "dc16b51f1ff94e8a070e59fd9624676f8710b8484f3859c89028d03763c29943",
            "f4995d332412bf8dc3a6cfbcc158ca79656ae6520f3bb60c7e98a81bfb19fa3d",
            "eeeb3175eda52a6dbe783a6ddb267797184cc4299db95b28f7ebc421226c26b9",
            "ae4afe325d61645b0ec637756484db56d795abb97949fd693dcf31fbf5f315d6",
            "f0b8f8c8be1043d561ca72b49d9a11fc5b8aa7becba68a0ed7d384e8d75540f8",
            "f9ee0ffb0e1a0899ff0222fd5220ce91c243b16769f7eaec7bef76020f53c4f7",
        ],
    ),
}


def check_golden(tmp_path, capsys, test_id):
    config, commands, outputs, golden = CLI_GOLDEN[test_id]
    prefix = [] if config is None else ["--config", config_file(tmp_path, config)]
    for argv in commands:
        code, out, _ = run(capsys, *prefix, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 0
    assert digests(out, *(tmp_path / name for name in outputs)) == golden


def golden(test):
    """Mark `test` golden, run once per CLI_GOLDEN row keyed by its name plus a
    [case] id, or once if its name alone is a key."""
    cases = sorted(key[len(test.__name__) + 1 : -1] for key in CLI_GOLDEN
                   if key.startswith(test.__name__ + "["))
    test = pytest.mark.golden(test)
    return pytest.mark.parametrize("case", cases)(test) if cases else test


@golden
def test_compress_golden_digests(tmp_path, capsys, request, case):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_compress_stacked_clips_golden_digests(tmp_path, capsys, request, case):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_compress_config_golden(tmp_path, capsys, request, case):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_dropout_golden_digests(tmp_path, capsys, request, case):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_sample_default_golden(tmp_path, capsys, request):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_estimate_default_goldens(tmp_path, capsys, request, case):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_niah_gen_default_hops_golden(tmp_path, capsys, request):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_niah_gen_config_golden(tmp_path, capsys, request):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_niah_output_goldens(tmp_path, capsys, request, case):
    check_golden(tmp_path, capsys, request.node.name)


@golden
def test_niah_heatmap_score_golden(tmp_path, capsys, request):
    check_golden(tmp_path, capsys, request.node.name)
    # A wrong needle id in one response makes its cell score 0.
    cells, grid_csv, responses = tmp_path / "cells", tmp_path / "grid.csv", tmp_path / "resp.jsonl"
    main(["niah", "solve", str(cells), "--library", str(tmp_path / "lib.json"),
          "--out", str(responses)])
    lines = responses.read_text().splitlines()
    first = json.loads(lines[0])
    first["needle_id"] = "nope"
    responses.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    heat_csv = tmp_path / "heat.csv"
    code, out, _ = run(
        capsys, "niah", "heatmap-score", str(cells), "--grid", str(grid_csv),
        "--responses", str(responses), "--out", str(heat_csv),
    )
    assert code == 0
    assert digests(out, heat_csv) == [
        "db5e06e54c499f063e756ec04af5dc0655ddf88d7056ab5ce5e89200edebe193",
        "ad8b04b314a73c57613b65c3e4106020cd9f7c9f1b88d87f99fb1d5e028ab36a",
    ]


def test_every_golden_row_has_its_test():
    # A row whose key names no test would never run.
    assert all(key.split("[")[0] in globals() for key in CLI_GOLDEN)


def test_niah_heatmap_honours_config_templates(tmp_path, capsys):
    # heatmap once wrote the default start hint, which solve under the same
    # config then refused.
    cfg = config_file(tmp_path, NIAH_CONFIG)
    cells, grid_csv = tmp_path / "cells", tmp_path / "g.csv"
    responses, heat_csv = tmp_path / "r.jsonl", tmp_path / "heat.csv"
    for argv in (
        ["heatmap", "--lengths", "50,80", "--depths", "0,0.5,1", "--synth-library", "20",
         "--out-dir", str(cells), "--grid", str(grid_csv)],
        ["solve", str(cells), "--synth-library", "20", "--out", str(responses)],
        ["heatmap-score", str(cells), "--grid", str(grid_csv), "--responses", str(responses),
         "--out", str(heat_csv)],
    ):
        code, _, err = run(capsys, "--config", cfg, "niah", *argv)
        assert (code, err) == (0, "")
    instance = json.loads(next(cells.iterdir()).read_text())
    assert instance["start_hint"].startswith("Begin at '")
    assert instance["q1"] == "Which item ends the chain?"
    rows = heat_csv.read_text().splitlines()
    assert len(rows) == 7 and all(row.endswith(",1.0000") for row in rows[1:])


# ---------------------------------------------------------------------------
# inputs that used to end in a traceback: exit 2 with one stderr line


def one_line_error(code, err):
    return code == 2 and err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["synth", "dropout", "compress", "niah-gen"])
def test_negative_seed_flag_is_domain_error(tmp_path, capsys, command):
    grid = synth(tmp_path, shape="2x4x4x8")
    argv = {
        "synth": ["synth", "--shape", "2x4x4x8", "--out", str(tmp_path / "g.bin")],
        "dropout": ["dropout", "--in", str(grid)],
        "compress": ["compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
                     "--connector", "resampler"],
        "niah-gen": ["niah", "gen", "--length", "100", "--synth-library", "20",
                     "--out-dir", str(tmp_path / "n")],
    }[command]
    code, _, err = run(capsys, *argv, "--seed", "-1")
    assert one_line_error(code, err)
    assert "seed must be >= 0" in err


def test_flag_is_checked_where_its_command_does_not_read_it(tmp_path, capsys):
    # Single-hop generation reads no hop count; the flag is still refused, as
    # the same value in a config file is.
    code, out, err = run(
        capsys, "niah", "gen", "--mode", "single", "--hops", "0", "--synth-library", "5",
        "--length", "20", "--out-dir", str(tmp_path / "inst"),
    )
    assert (code, out, err) == (2, "", "error: niah.hops must be >= 1, got 0\n")
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("argv,error", [
    (["--length", str(2**63)], f"haystack_len must be <= {sys.maxsize}"),
    (["--length", "5", "--hops", "3", "--distractors", "2"],
     "haystack of 5 cannot host 9 hop positions"),
], ids=["length-over-ssize_t", "too-many-hops"])
def test_niah_gen_refused_before_its_first_instance_makes_no_out_dir(tmp_path, capsys, argv, error):
    out_dir = tmp_path / "o"
    code, out, err = run(
        capsys, "niah", "gen", *argv, "--synth-library", "50", "--out-dir", str(out_dir)
    )
    assert (code, out, err) == (2, "", f"error: {error}\n")
    assert not out_dir.exists()


def test_bad_flag_is_refused_before_a_missing_input(tmp_path, capsys):
    code, out, err = run(
        capsys, "dropout", "--in", str(tmp_path / "missing.bin"), "--text-tokens", "0"
    )
    assert (code, out, err) == (2, "", "error: dropout.text_tokens must be >= 1, got 0\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("argv", [
    ["--config", "/dev/zero", "sample", "--duration", "10"],
    ["niah", "validate", "/dev/zero", "--synth-library", "5"],
], ids=["config", "niah-instance"])
def test_text_inputs_over_the_byte_cap_are_refused(capsys, monkeypatch, argv):
    # At most TEXT_CAP + 1 bytes are read, so a stream that never ends is refused too.
    monkeypatch.setattr(niah, "TEXT_CAP", 1000)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: /dev/zero: file is over the 1000-byte cap\n")


def test_config_file_at_the_byte_cap_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(niah, "TEXT_CAP", 1000)
    path = tmp_path / "tool.cfg"
    for size, code in ((1000, 0), (1001, 2)):
        path.write_text("costmodel.shape = toy #".ljust(size - 1, "#") + "\n", encoding="utf-8")
        assert run(capsys, "--config", str(path), "estimate", "--frames", "4")[0] == code


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--text-tokens", "100000000000", "text_tokens=100000000000"),
        ("--layers", "100000000", "layers=100000000"),
        ("--hidden-dim", "1000000", "hidden_dim 1000000"),
    ],
)
def test_dropout_over_byte_cap_is_domain_error(tmp_path, capsys, flag, value, named):
    grid = synth(tmp_path, shape="2x4x4x8")
    code, out, err = run(capsys, "dropout", "--in", str(grid), flag, value)
    assert one_line_error(code, err)
    assert named in err and f"over the {errors.BYTES_CAP}-byte cap" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv,named",
    [
        (["synth", "--shape", "100000x1000x1000x64"], "--shape 100000x1000x1000x64"),
        (["compress", "--connector", "resampler", "--queries", "1000000000000"],
         "--queries 1000000000000"),
    ],
    ids=["synth-shape", "resampler-queries"],
)
def test_size_over_byte_cap_is_refused_before_allocating(tmp_path, capsys, monkeypatch, argv, named):
    grid = synth(tmp_path, shape="2x4x4x8")
    paths = ["--out", str(tmp_path / "out.bin")] + (["--in", str(grid)] if argv[0] == "compress" else [])

    # Both commands draw their first size-scaled array from a seeded generator.
    def allocated(*args, **kw):
        raise AssertionError("allocated before the byte check")

    monkeypatch.setattr(np.random, "default_rng", allocated)
    code, out, err = run(capsys, *argv, *paths)
    assert one_line_error(code, err) and out == ""
    assert err.startswith(f"error: {named} ")
    assert f" bytes, over the {errors.BYTES_CAP}-byte cap" in err


def test_embedding_file_over_byte_cap_is_domain_error(tmp_path, capsys, monkeypatch):
    grid = synth(tmp_path, shape="2x4x4x8")
    monkeypatch.setattr(errors, "BYTES_CAP", 1000)
    code, out, err = run(
        capsys, "compress", "--in", str(grid), "--out", str(tmp_path / "c.bin"),
        "--connector", "spatial",
    )
    assert one_line_error(code, err) and out == ""
    assert err.startswith("error: an embedding file of shape 2x4x4x8 needs about 2048 bytes, ")
    assert not (tmp_path / "c.bin").exists()


def test_sampling_plan_over_byte_cap_is_domain_error(capsys):
    big = "1000000000000"
    code, out, err = run(capsys, "sample", "--duration", "60", "--tmin", big, "--tmax", big)
    assert one_line_error(code, err) and out == ""
    assert err.startswith(f"error: a sampling plan of {big} frames (t_min={big}, t_max={big}) ")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_synth_bad_noise_is_domain_error(tmp_path, capsys, value):
    out_path = tmp_path / "g.bin"
    code, out, err = run(
        capsys, "synth", "--kind", "clusters", "--shape", "2x4x4x8", "--noise", value,
        "--out", str(out_path),
    )
    assert one_line_error(code, err) and out == ""
    assert err == f"error: noise must be finite and >= 0, got {float(value)}\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["compress", "--in", "{grid}", "--out", "{tmp}/c.bin", "--connector", "resampler",
          "--temperature", "1e-320"], "resampler outputs with --temperature 1e-320 are non-finite"),
        (["synth", "--kind", "clusters", "--shape", "2x4x4x8", "--noise", "1e308",
          "--out", "{tmp}/s.bin"], "--noise 1e+308 overflows the float32 grid"),
    ],
    ids=["resampler-temperature", "synth-noise"],
)
def test_float_overflow_warns_nothing_before_the_one_line_error(tmp_path, capsys, argv, cause):
    grid = synth(tmp_path, shape="2x4x4x8")
    argv = [a.format(tmp=tmp_path, grid=grid) for a in argv]
    # A warning raised here would print to stderr ahead of the error line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert one_line_error(code, err) and out == ""
    # The line names the flag that made the values overflow.
    assert err == f"error: {cause}\n"
    assert [str(w.message) for w in caught] == []


def test_memory_error_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    def exhausted(args, cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_dropout", exhausted)
    grid = synth(tmp_path, shape="2x4x4x8")
    code, out, err = run(capsys, "dropout", "--in", str(grid))
    assert (code, out, err) == (3, "", "error: out of memory\n")


# 1.7e308 parameters are finite, but their prefill FLOPs are not.
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "1.7e308"])
def test_non_finite_nonembed_params_is_domain_error(tmp_path, capsys, value):
    cfg = config_file(tmp_path, f"costmodel.nonembed_params = {value}\n")
    code, out, err = run(capsys, "--config", cfg, "estimate", "--frames", "64")
    assert out == ""
    assert one_line_error(code, err)
    assert "finite" in err


# Config-only checked keys, refused at load as their KEY_VALUES rows are.
@pytest.mark.parametrize("key,value,got", [
    ("costmodel.nonembed_params", "0", "0.0"),
    ("costmodel.nonembed_params", "-inf", "-inf"),
    ("costmodel.bytes_per_param", "0", "0"),
])
def test_config_only_value_failing_check_names_key_and_file(tmp_path, capsys, key, value, got):
    cfg = config_file(tmp_path, f"{key} = {value}\n")
    code, out, err = run(capsys, "--config", cfg, "estimate", "--frames", "64")
    check = "finite" if value == "-inf" else ">= 1"
    assert (code, out, err) == (2, "", f"error: {cfg}:1: {key} must be {check}, got {got}\n")


@pytest.mark.parametrize("document", ['{"id": "x"}', "[1, 2]"])
def test_niah_validate_malformed_instance(tmp_path, capsys, document):
    path = tmp_path / "bad.json"
    path.write_text(document, encoding="utf-8")
    code, _, err = run(capsys, "niah", "validate", str(path), "--synth-library", "20")
    assert one_line_error(code, err)


def test_niah_validate_dir_names_the_malformed_instance(tmp_path, capsys):
    instances = tmp_path / "instances"
    main(["niah", "gen", "--length", "100", "--synth-library", "20", "--count", "2",
          "--out-dir", str(instances)])
    bad = instances / "x.json"
    bad.write_text('{"id": "x"}', encoding="utf-8")
    code, _, err = run(capsys, "niah", "validate", str(instances), "--synth-library", "20")
    assert one_line_error(code, err)
    assert err == f"error: {bad} lacks key 'ground_truth'\n"


def test_niah_score_malformed_response(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    main(["niah", "gen", "--length", "100", "--synth-library", "20", "--out-dir", str(out_dir)])
    responses = tmp_path / "r.jsonl"
    responses.write_text('{"instance_id": 1}\n', encoding="utf-8")
    code, _, err = run(capsys, "niah", "score", str(out_dir), "--responses", str(responses))
    assert one_line_error(code, err)


@pytest.mark.parametrize("flag,value", [("--lengths", "50,a"), ("--depths", "x")])
def test_niah_heatmap_non_numeric_axis(tmp_path, capsys, flag, value):
    argv = {"--lengths": "50", "--depths": "0.5", flag: value}
    code, _, err = run(
        capsys, "niah", "heatmap", *[x for kv in argv.items() for x in kv],
        "--synth-library", "20", "--out-dir", str(tmp_path / "c"), "--grid", str(tmp_path / "g.csv"),
    )
    assert one_line_error(code, err)


@pytest.mark.parametrize(
    "row", ["60,0", "60,0,x,y", "a,0,{id}", "60,deep,{id}", "60,0,nope", "header"]
)
def test_niah_heatmap_score_malformed_grid(tmp_path, capsys, row):
    cells, grid_csv = tmp_path / "cells", tmp_path / "grid.csv"
    main([
        "niah", "heatmap", "--lengths", "60", "--depths", "0", "--synth-library", "20",
        "--out-dir", str(cells), "--grid", str(grid_csv),
    ])
    responses = tmp_path / "r.jsonl"
    main(["niah", "solve", str(cells), "--synth-library", "20", "--out", str(responses)])
    instance_id = grid_csv.read_text().splitlines()[1].split(",")[2]
    text = "length,depth\n" if row == "header" else "length,depth,instance\n" + row + "\n"
    grid_csv.write_text(text.format(id=instance_id))
    code, _, err = run(
        capsys, "niah", "heatmap-score", str(cells), "--grid", str(grid_csv),
        "--responses", str(responses), "--out", str(tmp_path / "heat.csv"),
    )
    assert one_line_error(code, err)
    assert err.startswith(f"error: {grid_csv}: grid ")
