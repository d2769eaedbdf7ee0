"""Command-line front end.

Every command is deterministic given its flags and --seed: no wall-clock or
OS entropy is consumed anywhere. Reports are stable key=value or CSV text.
Exit codes: 0 success, 2 domain/config error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

import numpy as np

from . import compressor, costmodel, dropout, io, niah, sampler
from .errors import DomainError, FileFormatError

ENV_CONFIG = "HICO_CONFIG"


def _load_config(args) -> io.ToolConfig:
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        return io.load_config(path)
    return io.ToolConfig({})


def _section(prefix: str) -> list[str]:
    return [key for key in io.CONFIG_SCHEMA if key.startswith(prefix)]


def _pick(args, cfg: io.ToolConfig, key: str):
    """`key`'s flag if given, else its config value or schema default, checked."""
    flag = getattr(args, key)
    if flag is None:
        return cfg.get(key)
    return io.check_value(key, flag)


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args, cfg: io.ToolConfig) -> int:
    policy = sampler.SamplingPolicy(
        t_min=_pick(args, cfg, "sampler.t_min"),
        t_max=_pick(args, cfg, "sampler.t_max"),
    )
    fps = _pick(args, cfg, "sampler.fps")
    meta = sampler.VideoMeta.from_rate(args.duration, fps)
    plan = sampler.build_plan(meta, policy)
    print(f"frame_count={plan.frame_count}")
    print(f"density={plan.density:.6f}")
    print("indices=" + ",".join(str(i) for i in plan.indices))
    print("timestamps=" + ",".join(f"{t:.3f}" for t in plan.timestamps))
    print("prompt=" + sampler.timestamp_prompt(args.duration, plan.frame_count))
    return 0


# ---------------------------------------------------------------------------
# compress


def _connector_config(args, cfg: io.ToolConfig) -> compressor.ConnectorConfig:
    # Every connector.* key names the ConnectorConfig field it sets.
    return compressor.ConnectorConfig(
        **{key.removeprefix("connector."): _pick(args, cfg, key) for key in _section("connector.")},
        query_seed=_pick(args, cfg, "seed"),
    )


def cmd_compress(args, cfg: io.ToolConfig) -> int:
    config = _connector_config(args, cfg)
    grid = io.read_embeddings(args.infile)
    context = compressor.compress_video(grid, config)
    vectors = context.vectors()
    io.write_embeddings(compressor.TokenGrid(vectors[None, None]), args.out)
    n_in = grid.token_count
    n_out = len(vectors)
    print(f"connector={config.kind}")
    print(f"clips={len(context.clip_offsets)}")
    print(f"input_tokens={n_in}")
    print(f"output_tokens={n_out}")
    print(f"ratio_pct={100.0 * n_out / n_in:.2f}")
    if config.kind == "resampler":
        print("conservation_residual=n/a")
    else:
        print(f"conservation_residual={compressor.conservation_residual(grid, context):.3e}")
    print("clip_offsets=" + ",".join(str(o) for o in context.clip_offsets))
    return 0


# ---------------------------------------------------------------------------
# estimate


def _model_shape(name: str, cfg: io.ToolConfig) -> costmodel.ModelShape:
    overrides = {}
    nonembed = cfg.get("costmodel.nonembed_params")
    if nonembed is not None:
        overrides["nonembed_params"] = int(nonembed)
    bpp = cfg.get("costmodel.bytes_per_param")
    if bpp is not None:
        overrides["bytes_per_param"] = bpp
    return costmodel.preset(name, **overrides)


def cmd_estimate(args, cfg: io.ToolConfig) -> int:
    name = _pick(args, cfg, "costmodel.shape")
    shape = _model_shape(name, cfg)
    tokens_per_frame = _pick(args, cfg, "costmodel.tokens_per_frame")
    tokens = costmodel.tokens_for_video(args.frames, tokens_per_frame)
    cache_bytes = _pick(args, cfg, "costmodel.cache_bytes_per_value")
    overhead = _pick(args, cfg, "costmodel.overhead_bytes")
    report = costmodel.memory_estimate(tokens, shape, cache_bytes, overhead)
    # Every check runs before the first line, so an exit 2 prints no report.
    schedule_text = _pick(args, cfg, "dropout.schedule")
    text_tokens = _pick(args, cfg, "dropout.text_tokens")  # checked even when unused
    if schedule_text:
        schedule = dropout.DropSchedule.parse(schedule_text)
        flops = costmodel.flops_with_schedule(tokens, schedule, shape, text_tokens)
    print(f"shape={name}")
    print(f"frames={args.frames}")
    print(f"tokens_per_frame={tokens_per_frame}")
    print(f"tokens={tokens}")
    print(f"flops={report.flops:.6e}")
    print(f"tflops={report.flops / 1e12:.2f}")
    print(f"weight_bytes={report.weight_bytes}")
    print(f"kv_cache_bytes={report.kv_cache_bytes}")
    print(f"overhead_bytes={report.overhead_bytes}")
    print(f"total_infer_bytes={report.total_infer_bytes}")
    print(f"total_infer_gb={report.total_infer_bytes / 1e9:.2f}")
    if schedule_text:
        print(f"schedule={schedule.format()}")
        print(f"schedule_flops={flops:.6e}")
        print(f"schedule_tflops={flops / 1e12:.2f}")
    return 0


# ---------------------------------------------------------------------------
# dropout


def cmd_dropout(args, cfg: io.ToolConfig) -> int:
    schedule = dropout.DropSchedule.parse(_pick(args, cfg, "dropout.schedule"))
    geometry = dropout.DecoderGeometry(
        layers=_pick(args, cfg, "dropout.layers"),
        hidden_dim=_pick(args, cfg, "dropout.hidden_dim"),
        heads=_pick(args, cfg, "dropout.heads"),
    )
    if args.scale_from is not None:
        schedule = dropout.scale_schedule(schedule, geometry.layers, args.scale_from)
    grid = io.read_embeddings(args.infile)
    visual = grid.data.reshape(-1, grid.dim)
    run = dropout.toy_decoder_run(
        text_tokens=_pick(args, cfg, "dropout.text_tokens"),
        visual=visual,
        geometry=geometry,
        schedule=schedule,
        seed=_pick(args, cfg, "seed"),
    )
    print("layer,count")
    for layer, kept in enumerate(run.kept):
        print(f"{layer},{len(kept)}")
    print("kept_final=" + ",".join(str(i) for i in run.kept[-1]))
    return 0


# ---------------------------------------------------------------------------
# niah


def _library(args, cfg: io.ToolConfig) -> list[niah.NeedleItem]:
    if args.synth_library is not None:
        return niah.synth_library(args.synth_library, seed=_pick(args, cfg, "seed"))
    if args.library:
        return niah.load_library(args.library)
    raise DomainError("provide --library PATH or --synth-library SIZE")


def _templates(cfg: io.ToolConfig) -> dict[str, str]:
    return {
        "clue_template": cfg.get("niah.clue_template"),
        "start_template": cfg.get("niah.start_template"),
    }


def _naming(path, call, *args, **kwargs):
    """`call(*args, **kwargs)`; a DomainError it raises gets `path: ` before its message."""
    try:
        return call(*args, **kwargs)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def _instance_paths(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(path.glob("*.json")))
        else:
            out.append(path)
    if not out:
        raise DomainError("no instance files found")
    return out


def cmd_niah_gen(args, cfg: io.ToolConfig) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    library = _library(args, cfg)
    tpl = _templates(cfg)
    q1 = cfg.get("niah.q1_text")
    seed = _pick(args, cfg, "seed")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng_pick = random.Random(seed)
    for i in range(args.count):
        inst_seed = seed + i
        if args.mode == "single":
            needle = library[rng_pick.randrange(len(library))]
            inst = niah.gen_single_hop(
                args.length,
                args.depth,
                needle,
                seed=inst_seed,
                start_template=tpl["start_template"],
                q1_text=q1,
            )
        else:
            try:
                inst = niah.gen_multi_hop(
                    args.length,
                    _pick(args, cfg, "niah.hops"),
                    _pick(args, cfg, "niah.distractors"),
                    library,
                    seed=inst_seed,
                    ordered=_pick(args, cfg, "niah.ordered"),
                    clue_template=tpl["clue_template"],
                    start_template=tpl["start_template"],
                    q1_text=q1,
                )
            except niah.LibraryTooSmall as exc:
                if not args.library:
                    raise
                raise niah.LibraryTooSmall(f"{args.library}: {exc}") from None
        name = f"{inst.instance_id}.json"
        io.write_output(out_dir / name, [niah.dump_instance(inst).encode()])
        print(f"wrote {name}")
    return 0


def cmd_niah_validate(args, cfg: io.ToolConfig) -> int:
    library = _library(args, cfg)
    tpl = _templates(cfg)
    failures = 0
    count = 0
    for path in _instance_paths(args.paths):
        inst = niah.load_instance(path)
        report = niah.validate_instance(inst, library, **tpl)
        count += 1
        for code, msg in report.failures:
            failures += 1
            print(f"{inst.instance_id} {code}: {msg}")
    print(f"validated={count}")
    print(f"failures={failures}")
    return 2 if failures else 0


def cmd_niah_solve(args, cfg: io.ToolConfig) -> int:
    library = _library(args, cfg)
    tpl = _templates(cfg)
    responses = []
    for path in _instance_paths(args.paths):
        inst = niah.load_instance(path)
        needle_id, answer = _naming(path, niah.oracle_solve, inst, library, **tpl)
        responses.append(
            niah.Response(instance_id=inst.instance_id, needle_id=needle_id, answer=answer)
        )
    io.write_output(args.out, [niah.dump_responses(responses).encode()])
    print(f"solved={len(responses)}")
    return 0


def cmd_niah_score(args, cfg: io.ToolConfig) -> int:
    paths = _instance_paths(args.paths)
    instances = [niah.load_instance(p) for p in paths]
    first: dict[str, Path] = {}
    for path, inst in zip(paths, instances):
        other = first.setdefault(inst.instance_id, path)
        if other is not path:
            raise DomainError(f"{other}, {path}: instances contain duplicate ids")
    responses = niah.load_responses(args.responses)
    result = _naming(args.responses, niah.score, instances, responses)
    print(f"instances={len(instances)}")
    print(f"cap={result.cap:.4f}")
    print(f"qa={result.qa:.4f}")
    return 0


def _number(text: str, kind: type, what: str):
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"{what} must be {kind.__name__}, got {text!r}") from None


def _csv(text: str, kind: type, what: str) -> list:
    return [_number(x, kind, what) for x in text.split(",") if x.strip()]


def cmd_niah_heatmap(args, cfg: io.ToolConfig) -> int:
    library = _library(args, cfg)
    seed = _pick(args, cfg, "seed")
    lengths = _csv(args.lengths, int, "--lengths entry")
    cells = niah.heatmap_grid(
        lengths, _csv(args.depths, float, "--depths entry"), library, seed,
        start_template=cfg.get("niah.start_template"), q1_text=cfg.get("niah.q1_text"),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["length,depth,instance"]
    for cell in cells:
        path = out_dir / f"{cell.instance.instance_id}.json"
        io.write_output(path, [niah.dump_instance(cell.instance).encode()])
        lines.append(f"{cell.length},{cell.depth:g},{cell.instance.instance_id}")
    io.write_output(args.grid, ["\n".join(lines).encode(), b"\n"])
    print(f"cells={len(cells)}")
    return 0


def cmd_niah_heatmap_score(args, cfg: io.ToolConfig) -> int:
    grid = args.grid
    grid_lines = niah.read_text(grid).strip().splitlines()
    if not grid_lines or grid_lines[0] != "length,depth,instance":
        raise DomainError(f"{grid}: grid file must start with 'length,depth,instance'")
    instances = {p.stem: p for p in _instance_paths(args.paths)}
    cells = []
    for line in grid_lines[1:]:
        fields = line.split(",")
        if len(fields) != 3:
            raise DomainError(f"{grid}: grid row {line!r} must be length,depth,instance")
        length, depth, instance_id = fields
        path = instances.get(instance_id)
        if path is None:
            raise DomainError(f"{grid}: grid references missing instance {instance_id}")
        cells.append(
            niah.HeatmapCell(
                _number(length, int, f"{grid}: grid length"),
                _number(depth, float, f"{grid}: grid depth"),
                niah.load_instance(path),
            )
        )
    responses = niah.load_responses(args.responses)
    scores = _naming(args.responses, niah.heatmap_scores, cells, responses)
    rows = ["length,depth,accuracy"]
    rows += [f"{length},{depth:g},{acc:.4f}" for length, depth, acc in scores]
    io.write_output(args.out, ["\n".join(rows).encode(), b"\n"])
    print(f"rows={len(rows) - 1}")
    return 0


def cmd_niah_synth_library(args, cfg: io.ToolConfig) -> int:
    seed = _pick(args, cfg, "seed")
    items = niah.synth_library(args.size, seed=seed)
    io.write_output(args.out, [niah.dump_library(items).encode()])
    print(f"items={len(items)}")
    return 0


# ---------------------------------------------------------------------------
# synth grids


def _parse_shape(text: str) -> tuple[int, int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 4:
        raise DomainError("shape must be FRAMESxROWSxCOLSxDIM, e.g. 4x16x16x32")
    return tuple(_number(p, int, "shape entry") for p in parts)  # type: ignore[return-value]


def cmd_synth(args, cfg: io.ToolConfig) -> int:
    seed = _pick(args, cfg, "seed")
    grid = io.synth_grid(
        args.kind, _parse_shape(args.shape), seed=seed, k=args.k, noise=args.noise
    )
    io.write_embeddings(grid, args.out)
    print(f"shape={grid.frames}x{grid.rows}x{grid.cols}x{grid.dim}")
    print(f"tokens={grid.token_count}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """Add the flag of each key that has one, as its schema row spells and types it.
    Unset, it reads None; a boolean knob's flag is a switch that only turns it on."""
    for key in keys:
        row = io.CONFIG_SCHEMA[key]
        if row.flag is None:
            continue
        if isinstance(row.default, bool):
            parser.add_argument(row.flag, dest=key, action="store_const", const=True)
        else:
            parser.add_argument(row.flag, dest=key, type=row.parse)


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on one line, `error: <message>`, exit 2.
    Subparsers are built from the same class; --help still prints usage."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hico",
        description="Video-token compression toolkit: sampling plans, clip "
        "compression, visual dropout, cost estimates, and haystack benchmarks.",
    )
    parser.add_argument("--config", help=f"config file (or ${ENV_CONFIG})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="frame sampling plan and timestamp prompt")
    p.add_argument("--duration", type=float, required=True, help="video length in seconds")
    _add_flags(p, *_section("sampler."))
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compress", help="compress an embedding file clip by clip")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, *_section("connector."), "seed")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("estimate", help="prefill FLOPs and inference memory")
    p.add_argument("--frames", type=int, required=True)
    _add_flags(p, *_section("costmodel."), "dropout.schedule", "dropout.text_tokens")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("dropout", help="run a drop schedule through the toy decoder")
    p.add_argument("--in", dest="infile", required=True)
    _add_flags(p, *_section("dropout."), "seed")
    p.add_argument(
        "--scale-from",
        dest="scale_from",
        type=int,
        help="rescale schedule layers written for this reference depth",
    )
    p.set_defaults(func=cmd_dropout)

    p = sub.add_parser("synth", help="write a synthetic embedding file")
    p.add_argument("--kind", choices=io.GRID_KINDS, default="gaussian")
    p.add_argument("--shape", required=True, help="FRAMESxROWSxCOLSxDIM")
    _add_flags(p, "seed")
    p.add_argument("--k", type=int, default=2, help="cluster count for kind=clusters")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    pn = sub.add_parser("niah", help="haystack benchmark generator and scorer")
    nsub = pn.add_subparsers(dest="niah_command", required=True)
    # The item library, and the seed that synthesises it, for every command that reads one.
    lib = argparse.ArgumentParser(add_help=False)
    lib.add_argument("--library")
    lib.add_argument("--synth-library", dest="synth_library", type=int)
    _add_flags(lib, "seed")

    p = nsub.add_parser("gen", parents=[lib], help="generate instances")
    p.add_argument("--mode", choices=("single", "multi"), default="multi")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--depth", type=float, default=0.5, help="single-hop needle depth")
    _add_flags(p, *_section("niah."))
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_niah_gen)

    p = nsub.add_parser("validate", parents=[lib], help="check instance soundness")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_niah_validate)

    p = nsub.add_parser("solve", parents=[lib], help="oracle-solve instances into a response file")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_niah_solve)

    p = nsub.add_parser("score", help="CAP/QA metrics for a response file")
    p.add_argument("paths", nargs="+")
    p.add_argument("--responses", required=True)
    p.set_defaults(func=cmd_niah_score)

    p = nsub.add_parser("heatmap", parents=[lib], help="generate a (length, depth) instance grid")
    p.add_argument("--lengths", required=True, help="comma-separated frame counts")
    p.add_argument("--depths", required=True, help="comma-separated depths in [0,1]")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--grid", required=True, help="grid CSV to write")
    p.set_defaults(func=cmd_niah_heatmap)

    p = nsub.add_parser("heatmap-score", help="join responses into per-cell accuracy")
    p.add_argument("paths", nargs="+", help="instance files or directories")
    p.add_argument("--grid", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_niah_heatmap_score)

    p = nsub.add_parser("synth-library", help="write a deterministic item library")
    p.add_argument("--size", type=int, required=True)
    _add_flags(p, "seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_niah_synth_library)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        # numpy's overflow and invalid-value warnings would print ahead of the
        # one-line error; every command checks its arrays for non-finite values.
        with np.errstate(all="ignore"):
            return args.func(args, cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
