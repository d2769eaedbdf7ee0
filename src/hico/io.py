"""Binary embedding files, synthetic test grids, and config loading.

Embedding file layout (little-endian throughout):

    bytes 0..3    magic "HICO"
    bytes 4..5    u16 version (currently 1)
    bytes 6..21   u32 frames, rows, cols, dim
    bytes 22..    frames*rows*cols*dim float32 payload, frame-major then
                  row-major (C order)

Declared sizes must match the payload length exactly and every float must
be finite. Writes go to a temp file in the target directory and are renamed
into place, so readers never observe a partial file.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .compressor import CONNECTOR_KINDS, ConnectorConfig, TokenGrid
from .costmodel import GIB, PRESETS
from .dropout import DecoderGeometry, DropSchedule
from .errors import ConfigError, DomainError, check_bytes
from .niah import CLUE_TEMPLATE, Q1_TEXT, START_TEMPLATE
from .sampler import SamplingPolicy

MAGIC = b"HICO"
VERSION = 1
_HEADER = struct.Struct("<4sHIIII")


class EmbeddingFormatError(Exception):
    """Base class for embedding-file parse failures."""


class BadMagicError(EmbeddingFormatError):
    pass


class BadVersionError(EmbeddingFormatError):
    pass


class TruncatedFileError(EmbeddingFormatError):
    pass


class SizeMismatchError(EmbeddingFormatError):
    pass


class NonFiniteDataError(EmbeddingFormatError):
    pass


def decode_embeddings(blob: bytes) -> TokenGrid:
    """Parse an embedding blob, rejecting any size/payload inconsistency."""
    if len(blob) < _HEADER.size:
        raise TruncatedFileError(
            f"file too short for header: {len(blob)} < {_HEADER.size} bytes"
        )
    magic, version, frames, rows, cols, dim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if min(frames, rows, cols, dim) < 1:
        raise SizeMismatchError(
            f"non-positive dimension in header: {(frames, rows, cols, dim)}"
        )
    expected = frames * rows * cols * dim * 4
    payload = len(blob) - _HEADER.size
    if payload < expected:
        raise TruncatedFileError(f"payload {payload} bytes, header declares {expected}")
    if payload > expected:
        raise SizeMismatchError(f"{payload - expected} trailing bytes after payload")
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    if not np.all(np.isfinite(data)):
        raise NonFiniteDataError("payload contains NaN or infinity")
    grid = data.astype(np.float64).reshape(frames, rows, cols, dim)
    return TokenGrid(grid)


def encode_embeddings(grid: TokenGrid) -> bytes:
    header = _HEADER.pack(MAGIC, VERSION, grid.frames, grid.rows, grid.cols, grid.dim)
    return header + np.ascontiguousarray(grid.data, dtype="<f4").tobytes()


def read_embeddings(path: str | os.PathLike) -> TokenGrid:
    with open(path, "rb") as f:
        return decode_embeddings(f.read())


def write_embeddings(grid: TokenGrid, path: str | os.PathLike) -> None:
    """Write atomically: temp file in the same directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(encode_embeddings(grid))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # Name the target, not the temp file the failure happened on.
        raise OSError(exc.errno, exc.strerror, path) from exc


GRID_KINDS = ("constant", "clusters", "gaussian")


def synth_grid(
    kind: str,
    shape: tuple[int, int, int, int],
    seed: int = 0,
    k: int = 2,
    noise: float = 0.0,
) -> TokenGrid:
    """Deterministic synthetic grid for tests and CLI demos.

    constant: every vector equal (value drawn from the seed).
    clusters: k well-separated orthogonal centroids assigned to equal-as-
              possible contiguous token blocks, plus optional gaussian noise;
              similarity merging recovers the centroids.
    gaussian: iid standard normals.

    Values are rounded to float32 so grids survive file round-trips exactly.
    Raises DomainError, before allocating, when the grid would pass
    errors.BYTES_CAP.
    """
    if kind not in GRID_KINDS:
        raise DomainError(f"unknown grid kind {kind!r}; have {GRID_KINDS}")
    frames, rows, cols, dim = shape
    if min(shape) < 1:
        raise DomainError("all shape entries must be >= 1")
    # At most three float64 copies of the grid are alive at once.
    check_bytes(3 * 8 * frames * rows * cols * dim, f"--shape {frames}x{rows}x{cols}x{dim}")
    rng = np.random.default_rng(seed)
    n = frames * rows * cols

    if kind == "constant":
        vec = rng.standard_normal(dim)
        flat = np.tile(vec, (n, 1))
    elif kind == "gaussian":
        flat = rng.standard_normal((n, dim))
    else:
        if not (1 <= k <= dim):
            raise DomainError(f"clusters needs 1 <= k <= dim, got k={k}, dim={dim}")
        if k > n:
            raise DomainError(f"clusters needs k <= token count, got k={k}, n={n}")
        if not (math.isfinite(noise) and noise >= 0):
            raise DomainError(f"noise must be finite and >= 0, got {noise}")
        # Orthogonal centroids: scaled axis vectors with seeded magnitudes.
        centroids = np.zeros((k, dim))
        scales = rng.uniform(1.0, 3.0, size=k)
        for i in range(k):
            centroids[i, i] = scales[i]
        # Balanced contiguous blocks; every cluster gets at least one token.
        labels = (np.arange(n) * k) // n
        flat = centroids[labels]
        if noise > 0:
            flat = flat + noise * rng.standard_normal((n, dim))

    data = flat.reshape(frames, rows, cols, dim).astype(np.float32).astype(np.float64)
    return TokenGrid(data)


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


def _finite(value: float) -> str | None:
    return None if math.isfinite(value) else "must be finite"


def _schedule(text: str) -> str | None:
    try:
        DropSchedule.parse(text)
    except ConfigError as exc:
        return f"must be a drop schedule ({exc})"
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


# The one list of config keys; the CLI builds each key's flag from its row.
CONFIG_SCHEMA: dict[str, ConfigRow] = {
    "seed": ConfigRow(int, 0, _at_least(0), "--seed"),
    "sampler.t_min": ConfigRow(int, SamplingPolicy.t_min, flag="--tmin"),
    "sampler.t_max": ConfigRow(int, SamplingPolicy.t_max, flag="--tmax"),
    "sampler.fps": ConfigRow(float, 1.0, flag="--fps"),
    "connector.kind": ConfigRow(str, ConnectorConfig.kind, _one_of(CONNECTOR_KINDS), "--connector"),
    "connector.budget": ConfigRow(int, ConnectorConfig.budget, flag="--budget"),
    "connector.clip_len": ConfigRow(int, ConnectorConfig.clip_len, flag="--clip-len"),
    "connector.st_temperature": ConfigRow(
        float, ConnectorConfig.st_temperature, flag="--st-temperature"
    ),
    "connector.factor": ConfigRow(int, ConnectorConfig.factor, flag="--factor"),
    "connector.f_first": ConfigRow(int, ConnectorConfig.f_first, flag="--f-first"),
    "connector.f_rest": ConfigRow(int, ConnectorConfig.f_rest, flag="--f-rest"),
    "connector.queries": ConfigRow(int, ConnectorConfig.queries, flag="--queries"),
    "connector.temperature": ConfigRow(float, ConnectorConfig.temperature, flag="--temperature"),
    "connector.weights_path": ConfigRow(str, ConnectorConfig.weights_path, flag="--weights"),
    "dropout.schedule": ConfigRow(str, "", _schedule, "--schedule"),
    # The paper's 28-layer decoders, not DecoderGeometry's 4-layer toy.
    "dropout.layers": ConfigRow(int, 28, flag="--layers"),
    "dropout.hidden_dim": ConfigRow(int, DecoderGeometry.hidden_dim, flag="--hidden-dim"),
    "dropout.heads": ConfigRow(int, DecoderGeometry.heads, flag="--heads"),
    # An attention drop ranks tokens by a text query, so keep some text.
    "dropout.text_tokens": ConfigRow(int, 8, flag="--text-tokens"),
    "costmodel.shape": ConfigRow(str, "7b", _one_of(PRESETS), "--shape"),
    # Unset: the preset's own parameter count and bytes per parameter.
    "costmodel.nonembed_params": ConfigRow(float, None, _finite),
    "costmodel.bytes_per_param": ConfigRow(int, None),
    "costmodel.cache_bytes_per_value": ConfigRow(int, 2, flag="--cache-bytes"),
    "costmodel.overhead_bytes": ConfigRow(int, 2 * GIB, flag="--overhead-bytes"),
    "costmodel.tokens_per_frame": ConfigRow(int, 16, flag="--tokens-per-frame"),
    "niah.clue_template": ConfigRow(str, CLUE_TEMPLATE, _placeholder_once("{next_caption}")),
    "niah.start_template": ConfigRow(str, START_TEMPLATE, _placeholder_once("{caption}")),
    "niah.q1_text": ConfigRow(str, Q1_TEXT),
    "niah.hops": ConfigRow(int, 3, flag="--hops"),
    "niah.distractors": ConfigRow(int, 1, flag="--distractors"),
    "niah.ordered": ConfigRow(_parse_bool, False, flag="--ordered"),
}


def check_value(key: str, value: Any) -> Any:
    """Return `value`, or raise ConfigError if it fails `key`'s check."""
    complaint = CONFIG_SCHEMA[key].check(value)
    if complaint:
        raise ConfigError(f"{key} {complaint}, got {value!r}")
    return value


@dataclass
class ToolConfig:
    """Flat dotted-key configuration, typed and checked by CONFIG_SCHEMA."""

    values: dict[str, str]

    def get(self, key: str) -> Any:
        """The typed, checked value of `key`, or its schema default when unset."""
        row = CONFIG_SCHEMA[key]
        text = self.values.get(key)
        if text is None:
            return row.default
        try:
            value = row.parse(text)
        except ValueError:
            raise ConfigError(f"{key} must be {_TYPE_NAMES[row.parse]}, got {text!r}") from None
        return check_value(key, value)


def load_config(path: str | os.PathLike) -> ToolConfig:
    """Parse a key=value config file with dotted section names.

    Blank lines and '#' comments are ignored; unknown keys and values that
    fail their key's validation are rejected at load time, so typos fail
    loudly before any command runs.
    """
    cfg = ToolConfig({})
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg.values[key] = value.strip()
        try:
            cfg.get(key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg
