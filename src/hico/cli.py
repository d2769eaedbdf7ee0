"""Command-line front end, and the one list of its settings.

Every command is deterministic given its flags and --seed: neither the
wall clock nor OS entropy reaches any output. Reports are stable key=value
or CSV text. Exit codes: 0 success, 2 domain/config error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import compressor, costmodel, dropout, io, niah, sampler
from .compressor import CONNECTOR_KINDS, ConnectorConfig
from .costmodel import GIB, PRESETS
from .dropout import DecoderGeometry, DropSchedule
from .errors import ConfigError, DomainError, FileFormatError

ENV_CONFIG = "HICO_CONFIG"

_ECHO_CHARS = 40  # of a bad value's text, echoed in its one-line error


def _clip(text: str) -> str:
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


_TYPE_NAMES = {int: "an integer", float: "a number", _parse_bool: "a boolean"}


def _at_least(low: int):
    return lambda value: None if value >= low else f"must be >= {low}"


def _one_of(names):
    return lambda value: None if value in names else f"must be one of {', '.join(sorted(names))}"


def _positive(value: float) -> str | None:
    return None if value > 0 else "must be > 0"  # NaN fails it too


def _finite_and(check):
    return lambda value: check(value) if math.isfinite(value) else "must be finite"


def _schedule(text: str) -> str | None:
    try:
        DropSchedule.parse(text)
    except ConfigError as exc:
        return f"must be a drop schedule ({_clip(str(exc))})"
    return None


def _placeholder_once(marker: str):
    return lambda text: None if text.count(marker) == 1 else f"must contain {marker} exactly once"


class ConfigRow(NamedTuple):
    """How one config key's text is parsed, its value when unset, a check that
    returns a complaint about a bad value, or None, and its flag, if it has one."""

    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], str | None] = lambda value: None
    flag: str | None = None


# The one list of config keys; each key's flag is built from its row.
CONFIG_SCHEMA: dict[str, ConfigRow] = {
    "seed": ConfigRow(int, 0, _at_least(0), "--seed"),
    "sampler.t_min": ConfigRow(int, sampler.SamplingPolicy.t_min, _at_least(1), "--tmin"),
    "sampler.t_max": ConfigRow(int, sampler.SamplingPolicy.t_max, _at_least(1), "--tmax"),
    "sampler.fps": ConfigRow(float, 1.0, _finite_and(_positive), "--fps"),
    "connector.kind": ConfigRow(str, ConnectorConfig.kind, _one_of(CONNECTOR_KINDS), "--connector"),
    "connector.budget": ConfigRow(int, ConnectorConfig.budget, _at_least(1), "--budget"),
    "connector.clip_len": ConfigRow(int, ConnectorConfig.clip_len, _at_least(1), "--clip-len"),
    "connector.st_temperature": ConfigRow(
        float, ConnectorConfig.st_temperature, _positive, "--st-temperature"
    ),
    "connector.factor": ConfigRow(int, ConnectorConfig.factor, _at_least(1), "--factor"),
    "connector.f_first": ConfigRow(int, ConnectorConfig.f_first, _at_least(1), "--f-first"),
    "connector.f_rest": ConfigRow(int, ConnectorConfig.f_rest, _at_least(1), "--f-rest"),
    "connector.queries": ConfigRow(int, ConnectorConfig.queries, _at_least(1), "--queries"),
    "connector.temperature": ConfigRow(
        float, ConnectorConfig.temperature, _positive, "--temperature"
    ),
    "connector.weights_path": ConfigRow(str, ConnectorConfig.weights_path, flag="--weights"),
    "dropout.schedule": ConfigRow(str, "", _schedule, "--schedule"),
    # The paper's 28-layer decoders, not DecoderGeometry's 4-layer toy.
    "dropout.layers": ConfigRow(int, 28, _at_least(1), "--layers"),
    "dropout.hidden_dim": ConfigRow(int, DecoderGeometry.hidden_dim, _at_least(1), "--hidden-dim"),
    "dropout.heads": ConfigRow(int, DecoderGeometry.heads, _at_least(1), "--heads"),
    # An attention drop ranks tokens by a text query, so keep some text.
    "dropout.text_tokens": ConfigRow(int, 8, _at_least(1), "--text-tokens"),
    "costmodel.shape": ConfigRow(str, "7b", _one_of(PRESETS), "--shape"),
    # Unset: the preset's own parameter count and bytes per parameter.
    "costmodel.nonembed_params": ConfigRow(float, None, _finite_and(_at_least(1))),
    "costmodel.bytes_per_param": ConfigRow(int, None, _at_least(1)),
    "costmodel.cache_bytes_per_value": ConfigRow(int, 2, _at_least(1), "--cache-bytes"),
    "costmodel.overhead_bytes": ConfigRow(int, 2 * GIB, _at_least(0), "--overhead-bytes"),
    "costmodel.tokens_per_frame": ConfigRow(int, 16, _at_least(1), "--tokens-per-frame"),
    "niah.clue_template": ConfigRow(str, niah.CLUE_TEMPLATE, _placeholder_once("{next_caption}")),
    "niah.start_template": ConfigRow(str, niah.START_TEMPLATE, _placeholder_once("{caption}")),
    "niah.q1_text": ConfigRow(str, niah.Q1_TEXT),
    "niah.hops": ConfigRow(int, 3, _at_least(1), "--hops"),
    "niah.distractors": ConfigRow(int, 1, _at_least(0), "--distractors"),
    "niah.ordered": ConfigRow(_parse_bool, False, flag="--ordered"),
}


def check_value(key: str, value: Any) -> Any:
    """Return `value`, or raise ConfigError if it fails `key`'s check."""
    complaint = CONFIG_SCHEMA[key].check(value)
    if complaint:
        raise ConfigError(f"{key} {complaint}, got {_clip(repr(value))}")
    return value


def load_config(path: str | os.PathLike) -> dict[str, Any]:
    """Parse a key=value config file with dotted section names into each
    key's typed, checked value.

    Blank lines and '#' comments are ignored; unknown keys and values that
    fail their key's validation are rejected at load time, so typos fail
    loudly before any command runs.
    """
    try:
        text = niah.read_text(path)
    except FileFormatError:
        raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    values = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {_clip(repr(key))}")
        parse = CONFIG_SCHEMA[key].parse
        try:
            values[key] = check_value(key, parse(value))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        except ValueError:  # parse's own; a failed check is a ConfigError, caught above
            complaint = f"{key} must be {_TYPE_NAMES[parse]}, got {_clip(repr(value))}"
            raise ConfigError(f"{path}:{lineno}: {complaint}") from None
    return values


def resolve_settings(args) -> dict[str, Any]:
    """Each key's flag if given, else its value in the config file, else its
    default. The file is loaded and checked first, then every flag given."""
    settings = {key: row.default for key, row in CONFIG_SCHEMA.items()}
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        settings.update(load_config(path))
    for key in CONFIG_SCHEMA:
        if (flag := getattr(args, key, None)) is not None:
            settings[key] = check_value(key, flag)
    return settings


def _section(prefix: str) -> list[str]:
    return [key for key in CONFIG_SCHEMA if key.startswith(prefix)]


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args, settings: dict) -> int:
    policy = sampler.SamplingPolicy(settings["sampler.t_min"], settings["sampler.t_max"])
    meta = sampler.VideoMeta.from_rate(args.duration, settings["sampler.fps"])
    plan = sampler.build_plan(meta, policy)
    print(f"frame_count={plan.frame_count}")
    print(f"density={plan.density:.6f}")
    print("indices=" + ",".join(str(i) for i in plan.indices))
    print("timestamps=" + ",".join(f"{t:.3f}" for t in plan.timestamps))
    print("prompt=" + sampler.timestamp_prompt(args.duration, plan.frame_count))
    return 0


# ---------------------------------------------------------------------------
# compress


def _connector_config(settings: dict) -> compressor.ConnectorConfig:
    # Every connector.* key names the ConnectorConfig field it sets.
    return compressor.ConnectorConfig(
        **{key.removeprefix("connector."): settings[key] for key in _section("connector.")},
        query_seed=settings["seed"],
    )


def cmd_compress(args, settings: dict) -> int:
    config = _connector_config(settings)
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


def _geometry(settings: dict) -> DecoderGeometry:
    return DecoderGeometry(
        layers=settings["dropout.layers"],
        hidden_dim=settings["dropout.hidden_dim"],
        heads=settings["dropout.heads"],
    )


def _model_shape(name: str, settings: dict) -> costmodel.ModelShape:
    if name == "toy":
        # Refused, as `dropout` refuses it, when its weights alone pass the
        # byte cap: the schedule plan holds one entry per layer.
        geometry = _geometry(settings)
        dropout._check_bytes(geometry)
        shape = costmodel.toy_shape(geometry)
    else:
        shape = PRESETS[name]
    overrides = {}
    if settings["costmodel.nonembed_params"] is not None:
        overrides["nonembed_params"] = int(settings["costmodel.nonembed_params"])
    if settings["costmodel.bytes_per_param"] is not None:
        overrides["bytes_per_param"] = settings["costmodel.bytes_per_param"]
    return replace(shape, **overrides)


def cmd_estimate(args, settings: dict) -> int:
    name = settings["costmodel.shape"]
    shape = _model_shape(name, settings)
    tokens_per_frame = settings["costmodel.tokens_per_frame"]
    tokens = costmodel.tokens_for_video(args.frames, tokens_per_frame)
    cache_bytes = settings["costmodel.cache_bytes_per_value"]
    overhead = settings["costmodel.overhead_bytes"]
    report = costmodel.memory_estimate(tokens, shape, cache_bytes, overhead)
    # Every check runs before the first line, so an exit 2 prints no report.
    schedule_text = settings["dropout.schedule"]
    if schedule_text:
        schedule = dropout.DropSchedule.parse(schedule_text)
        text_tokens = settings["dropout.text_tokens"]
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


def cmd_dropout(args, settings: dict) -> int:
    schedule = dropout.DropSchedule.parse(settings["dropout.schedule"])
    geometry = _geometry(settings)
    if args.scale_from is not None:
        schedule = dropout.scale_schedule(schedule, geometry.layers, args.scale_from)
    grid = io.read_embeddings(args.infile)
    visual = grid.data.reshape(-1, grid.dim)
    run = dropout.toy_decoder_run(
        text_tokens=settings["dropout.text_tokens"],
        visual=visual,
        geometry=geometry,
        schedule=schedule,
        seed=settings["seed"],
    )
    print("layer,count")
    for layer, kept in enumerate(run.kept):
        print(f"{layer},{len(kept)}")
    print("kept_final=" + ",".join(str(i) for i in run.kept[-1]))
    return 0


# ---------------------------------------------------------------------------
# niah


def _library(args, settings: dict) -> list[niah.NeedleItem]:
    if args.synth_library is not None:
        return niah.synth_library(args.synth_library, seed=settings["seed"])
    if args.library:
        return niah.load_library(args.library)
    raise DomainError("provide --library PATH or --synth-library SIZE")


def _texts(settings: dict) -> niah.Texts:
    # Each of its fields is the name of a niah.* key.
    return niah.Texts(**{name: settings["niah." + name] for name in niah.Texts._fields})


def _write_instance(out_dir: Path, instance: niah.NiahInstance) -> str:
    """Write `instance` into `out_dir`, made on first use; return the file's name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{instance.instance_id}.json"
    io.write_output(out_dir / name, [niah.dump_instance(instance).encode()])
    return name


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


def cmd_niah_gen(args, settings: dict) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
    library = _library(args, settings)
    seed, texts = settings["seed"], _texts(settings)
    if args.mode == "single":
        cells = ((args.length, args.depth) for _ in range(args.count))
        instances = niah.gen_single_hops(cells, library, seed, texts)
    else:
        hops, distractors = settings["niah.hops"], settings["niah.distractors"]
        instances = (
            niah.gen_multi_hop(
                args.length, hops, distractors, library, seed + i, ordered=settings["niah.ordered"],
                texts=texts,
            )
            for i in range(args.count)
        )
    try:
        for inst in instances:
            print(f"wrote {_write_instance(Path(args.out_dir), inst)}")
    except niah.LibraryTooSmall as exc:
        if not args.library:
            raise
        raise niah.LibraryTooSmall(f"{args.library}: {exc}") from None
    return 0


def cmd_niah_validate(args, settings: dict) -> int:
    library, texts = _library(args, settings), _texts(settings)
    failures = 0
    count = 0
    for path in _instance_paths(args.paths):
        inst = niah.load_instance(path)
        report = niah.validate_instance(inst, library, texts=texts)
        count += 1
        for code, msg in report.failures:
            failures += 1
            print(f"{inst.instance_id} {code}: {msg}")
    print(f"validated={count}")
    print(f"failures={failures}")
    return 2 if failures else 0


def cmd_niah_solve(args, settings: dict) -> int:
    library, texts = _library(args, settings), _texts(settings)
    responses = []
    for path in _instance_paths(args.paths):
        inst = niah.load_instance(path)
        needle_id, answer = _naming(path, niah.oracle_solve, inst, library, texts=texts)
        responses.append(
            niah.Response(instance_id=inst.instance_id, needle_id=needle_id, answer=answer)
        )
    io.write_output(args.out, [niah.dump_responses(responses).encode()])
    print(f"solved={len(responses)}")
    return 0


def cmd_niah_score(args, settings: dict) -> int:
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


def cmd_niah_heatmap(args, settings: dict) -> int:
    library = _library(args, settings)
    lengths = _csv(args.lengths, int, "--lengths entry")
    cells = niah.heatmap_grid(
        lengths, _csv(args.depths, float, "--depths entry"), library, settings["seed"],
        texts=_texts(settings),
    )
    lines = ["length,depth,instance"]
    for cell in cells:
        _write_instance(Path(args.out_dir), cell.instance)
        lines.append(f"{cell.length},{cell.depth:g},{cell.instance.instance_id}")
    io.write_output(args.grid, ["\n".join(lines).encode(), b"\n"])
    print(f"cells={len(cells)}")
    return 0


def cmd_niah_heatmap_score(args, settings: dict) -> int:
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


def cmd_niah_synth_library(args, settings: dict) -> int:
    items = niah.synth_library(args.size, seed=settings["seed"])
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


def cmd_synth(args, settings: dict) -> int:
    grid = io.synth_grid(
        args.kind, _parse_shape(args.shape), seed=settings["seed"], k=args.k, noise=args.noise
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
        row = CONFIG_SCHEMA[key]
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
    _add_flags(p, *_section("costmodel."), *_section("dropout."))
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
        settings = resolve_settings(args)
        # numpy's overflow and invalid-value warnings would print ahead of the
        # one-line error; every command checks its arrays for non-finite values.
        with np.errstate(all="ignore"):
            return args.func(args, settings)
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
